#include "pmbus/serial_link.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#if defined(__PCLMUL__) && defined(__SSSE3__)
#include <immintrin.h>
#endif

#include "pmbus/fault_injector.hh"
#include "util/logging.hh"
#include "util/telemetry.hh"

namespace uvolt::pmbus
{

namespace
{

/**
 * CRC-16/CCITT-FALSE slicing-by-8 tables. Table 0 is the classic
 * one-byte step table: entry b is the CRC register contribution of
 * shifting byte b through the bitwise feedback loop. Table k advances
 * table k-1 through one further zero byte, so T[k][b] is "byte b
 * followed by k zero bytes" — which lets the hot loop fold 8 message
 * bytes per iteration with 8 independent lookups (no serial dependency
 * between them, only the final XOR chain). All tables derive at compile
 * time from the same poly/shift definition the old bitwise loop used,
 * so crc16() values are unchanged.
 */
constexpr std::array<std::array<std::uint16_t, 256>, 8>
makeCrcTables()
{
    std::array<std::array<std::uint16_t, 256>, 8> tables{};
    for (int byte = 0; byte < 256; ++byte) {
        std::uint16_t crc = static_cast<std::uint16_t>(byte << 8);
        for (int bit = 0; bit < 8; ++bit) {
            if (crc & 0x8000)
                crc = static_cast<std::uint16_t>((crc << 1) ^ 0x1021);
            else
                crc = static_cast<std::uint16_t>(crc << 1);
        }
        tables[0][static_cast<std::size_t>(byte)] = crc;
    }
    for (int k = 1; k < 8; ++k) {
        for (int byte = 0; byte < 256; ++byte) {
            const std::uint16_t prev =
                tables[static_cast<std::size_t>(k - 1)]
                      [static_cast<std::size_t>(byte)];
            tables[static_cast<std::size_t>(k)]
                  [static_cast<std::size_t>(byte)] =
                static_cast<std::uint16_t>(
                    (prev << 8) ^ tables[0][prev >> 8]);
        }
    }
    return tables;
}

constexpr std::array<std::array<std::uint16_t, 256>, 8> crcTables =
    makeCrcTables();

/**
 * Advance the CRC register over a byte run, eight bytes per iteration:
 * the running register only reaches the first two bytes of each block,
 * the rest fold in unconditioned.
 */
std::uint16_t
crcTableUpdate(std::uint16_t crc, const std::uint8_t *data,
               std::size_t size)
{
    std::size_t i = 0;
    for (; i + 8 <= size; i += 8) {
        crc = static_cast<std::uint16_t>(
            crcTables[7][(data[i] ^ (crc >> 8)) & 0xFF] ^
            crcTables[6][(data[i + 1] ^ crc) & 0xFF] ^
            crcTables[5][data[i + 2]] ^ crcTables[4][data[i + 3]] ^
            crcTables[3][data[i + 4]] ^ crcTables[2][data[i + 5]] ^
            crcTables[1][data[i + 6]] ^ crcTables[0][data[i + 7]]);
    }
    for (; i < size; ++i) {
        crc = static_cast<std::uint16_t>(
            (crc << 8) ^ crcTables[0][((crc >> 8) ^ data[i]) & 0xFF]);
    }
    return crc;
}

#if defined(__PCLMUL__) && defined(__SSSE3__)

/**
 * t^k mod P for the CRC polynomial P = t^16 + t^12 + t^5 + 1 (0x11021):
 * the residue that moves a polynomial k bit positions further down the
 * message without changing its class mod P.
 */
constexpr long long
tPowModPoly(int k)
{
    std::uint32_t residue = 1;
    for (int i = 0; i < k; ++i) {
        residue <<= 1;
        if (residue & 0x10000)
            residue ^= 0x11021;
    }
    return residue;
}

/**
 * Constants that move a 128-bit lane X = H t^64 + L on by d message
 * bits: t^(d+64) mod P multiplies H, t^d mod P multiplies L.
 */
struct FoldConstants
{
    long long high;
    long long low;
};

constexpr FoldConstants
foldConstants(int d)
{
    return {tPowModPoly(d + 64), tPowModPoly(d)};
}

constexpr FoldConstants fold512 = foldConstants(512);
constexpr FoldConstants fold128 = foldConstants(128);

/** X t^d mod-P congruent product; degree < 80, so it never overflows. */
inline __m128i
foldLane(__m128i lane, __m128i constants)
{
    return _mm_xor_si128(_mm_clmulepi64_si128(lane, constants, 0x11),
                         _mm_clmulepi64_si128(lane, constants, 0x00));
}

/** Byte-reverse a lane: memory order <-> polynomial degree order. */
inline __m128i
reverseBytes(__m128i lane)
{
    return _mm_shuffle_epi8(lane,
                            _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                         11, 12, 13, 14, 15));
}

/**
 * Sixteen message bytes as one polynomial lane, first byte in the top
 * degree bits (the CRC is unreflected).
 */
inline __m128i
loadLane(const std::uint8_t *bytes)
{
    return reverseBytes(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(bytes)));
}

/**
 * Carry-less-multiply CRC over at least 64 bytes. Four lanes fold
 * 64 bytes per step; they then merge into one lane, which takes the
 * remaining whole 16-byte blocks. The folded lane is congruent mod P to
 * the message prefix, so its 16 bytes plus the short tail go through
 * the table update with a zero register. The 0xFFFF initial register
 * equals XORing 0xFFFF into the first two message bytes.
 */
std::uint16_t
crcFold(const std::uint8_t *data, std::size_t size)
{
    const std::uint8_t *const end = data + size;
    __m128i lane0 = _mm_xor_si128(
        loadLane(data),
        _mm_set_epi64x(static_cast<long long>(0xFFFF000000000000ull), 0));
    __m128i lane1 = loadLane(data + 16);
    __m128i lane2 = loadLane(data + 32);
    __m128i lane3 = loadLane(data + 48);
    const std::uint8_t *next = data + 64;
    const __m128i k512 = _mm_set_epi64x(fold512.high, fold512.low);
    for (; end - next >= 64; next += 64) {
        lane0 = _mm_xor_si128(foldLane(lane0, k512), loadLane(next));
        lane1 = _mm_xor_si128(foldLane(lane1, k512), loadLane(next + 16));
        lane2 = _mm_xor_si128(foldLane(lane2, k512), loadLane(next + 32));
        lane3 = _mm_xor_si128(foldLane(lane3, k512), loadLane(next + 48));
    }
    const __m128i k128 = _mm_set_epi64x(fold128.high, fold128.low);
    __m128i folded = _mm_xor_si128(foldLane(lane0, k128), lane1);
    folded = _mm_xor_si128(foldLane(folded, k128), lane2);
    folded = _mm_xor_si128(foldLane(folded, k128), lane3);
    for (; end - next >= 16; next += 16)
        folded = _mm_xor_si128(foldLane(folded, k128), loadLane(next));

    alignas(16) std::uint8_t residue[16];
    _mm_store_si128(reinterpret_cast<__m128i *>(residue),
                    reverseBytes(folded));
    const std::uint16_t crc = crcTableUpdate(0, residue, sizeof residue);
    return crcTableUpdate(crc, next, static_cast<std::size_t>(end - next));
}

#endif // __PCLMUL__ && __SSSE3__

/** Registry handles, resolved once (registration takes a lock). */
struct LinkMetrics
{
    telemetry::Counter &frames =
        telemetry::Registry::global().counter("pmbus.link.frames");
    telemetry::Counter &bytes =
        telemetry::Registry::global().counter("pmbus.link.bytes");
    telemetry::Counter &crcErrors =
        telemetry::Registry::global().counter("pmbus.link.crc_errors");
    telemetry::Counter &retransmits =
        telemetry::Registry::global().counter("pmbus.link.retransmits");
    telemetry::Counter &exhausted =
        telemetry::Registry::global().counter("pmbus.link.exhausted");
};

LinkMetrics &
linkMetrics()
{
    static LinkMetrics metrics;
    return metrics;
}

} // namespace

std::uint16_t
crc16(const std::vector<std::uint8_t> &bytes)
{
    // CRC-16/CCITT-FALSE: poly 0x1021, init 0xFFFF, no reflection.
#if defined(__PCLMUL__) && defined(__SSSE3__)
    if (bytes.size() >= 64)
        return crcFold(bytes.data(), bytes.size());
#endif
    return crcTableUpdate(0xFFFF, bytes.data(), bytes.size());
}

SerialFrame
SerialLink::transfer(const std::vector<std::uint8_t> &payload)
{
    SerialFrame frame;
    frame.payload = payload;
    frame.crc = crc16(payload);
    if (injector_ && !payload.empty() && injector_->corruptThisFrame()) {
        // Line noise flips a byte in flight; the CRC no longer matches.
        frame.payload[frame.payload.size() / 2] ^= 0xFF;
    }
    ++stats_.framesSent;
    stats_.bytesSent += payload.size();
    linkMetrics().frames.increment();
    linkMetrics().bytes.add(payload.size());
    return frame;
}

Expected<SerialFrame>
SerialLink::transferReliable(const std::vector<std::uint8_t> &payload)
{
    for (int attempt = 0; attempt < maxAttempts_; ++attempt) {
        if (attempt > 0) {
            ++stats_.retransmits;
            linkMetrics().retransmits.increment();
            // Exponential backoff in virtual line-time units.
            stats_.backoffTicks += 1ULL << std::min(attempt, 16);
        }
        SerialFrame frame = transfer(payload);
        if (frame.verified())
            return frame;
        ++stats_.crcErrors;
        linkMetrics().crcErrors.increment();
    }
    ++stats_.exhausted;
    linkMetrics().exhausted.increment();
    return makeError(Errc::linkExhausted,
                     "serial transfer of {} bytes failed CRC on all {} "
                     "attempts",
                     payload.size(), maxAttempts_);
}

void
SerialLink::setMaxAttempts(int attempts)
{
    if (attempts < 1)
        fatal("serial link needs at least one attempt, got {}", attempts);
    maxAttempts_ = attempts;
}

std::vector<std::uint8_t>
SerialLink::packWords(const std::vector<std::uint16_t> &words)
{
    std::vector<std::uint8_t> bytes;
    bytes.reserve(words.size() * 2);
    for (std::uint16_t word : words) {
        bytes.push_back(static_cast<std::uint8_t>(word & 0xFF));
        bytes.push_back(static_cast<std::uint8_t>(word >> 8));
    }
    return bytes;
}

std::vector<std::uint16_t>
SerialLink::unpackWords(const std::vector<std::uint8_t> &bytes)
{
    if (bytes.size() % 2 != 0)
        fatal("unpackWords: odd byte count {}", bytes.size());
    std::vector<std::uint16_t> words;
    words.reserve(bytes.size() / 2);
    for (std::size_t i = 0; i < bytes.size(); i += 2) {
        words.push_back(static_cast<std::uint16_t>(
            bytes[i] | (static_cast<std::uint16_t>(bytes[i + 1]) << 8)));
    }
    return words;
}

std::vector<std::uint8_t>
SerialLink::packWordBytes(std::span<const std::uint64_t> words)
{
    // The wire format is little-endian bytes of each 64-bit word; on a
    // little-endian host that IS the in-memory representation.
    std::vector<std::uint8_t> bytes(words.size() * 8);
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(bytes.data(), words.data(), bytes.size());
    } else {
        for (std::size_t w = 0; w < words.size(); ++w) {
            for (std::size_t k = 0; k < 8; ++k)
                bytes[w * 8 + k] =
                    static_cast<std::uint8_t>(words[w] >> (8 * k));
        }
    }
    return bytes;
}

std::vector<std::uint64_t>
SerialLink::unpackWordBytes(const std::vector<std::uint8_t> &bytes)
{
    if (bytes.size() % 8 != 0)
        fatal("unpackWordBytes: byte count {} not a multiple of 8",
              bytes.size());
    std::vector<std::uint64_t> words(bytes.size() / 8, 0);
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(words.data(), bytes.data(), bytes.size());
    } else {
        for (std::size_t w = 0; w < words.size(); ++w) {
            std::uint64_t word = 0;
            for (std::size_t k = 0; k < 8; ++k)
                word |= static_cast<std::uint64_t>(bytes[w * 8 + k])
                    << (8 * k);
            words[w] = word;
        }
    }
    return words;
}

} // namespace uvolt::pmbus
