#include "util/error.hh"

namespace uvolt
{

const char *
errcName(Errc code)
{
    switch (code) {
      case Errc::ok:
        return "ok";
      case Errc::crashDetected:
        return "crash-detected";
      case Errc::linkExhausted:
        return "link-exhausted";
      case Errc::pmbusExhausted:
        return "pmbus-exhausted";
      case Errc::verifyExhausted:
        return "verify-exhausted";
      case Errc::recoveryExhausted:
        return "recovery-exhausted";
      case Errc::cacheMiss:
        return "cache-miss";
      case Errc::corruptCache:
        return "corrupt-cache";
      case Errc::queueFull:
        return "queue-full";
      case Errc::deadlineExceeded:
        return "deadline-exceeded";
      case Errc::serverStopped:
        return "server-stopped";
      case Errc::loadShed:
        return "load-shed";
      case Errc::unknownFlag:
        return "unknown-flag";
      case Errc::invalidRequest:
        return "invalid-request";
    }
    panic("errcName: invalid Errc {}", static_cast<int>(code));
}

} // namespace uvolt
