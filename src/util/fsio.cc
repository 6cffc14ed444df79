#include "util/fsio.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>

namespace uvolt
{

Expected<void>
writeFileAtomic(const std::string &path, std::string_view content,
                Errc error_code)
{
    const std::filesystem::path destination(path);
    if (destination.has_parent_path()) {
        std::error_code ec;
        std::filesystem::create_directories(destination.parent_path(),
                                            ec);
    }

    const std::string temp = path + ".tmp";
    {
        std::ofstream out(temp, std::ios::binary | std::ios::trunc);
        if (!out) {
            return makeError(error_code,
                             "cannot open '{}' for writing", temp);
        }
        out.write(content.data(),
                  static_cast<std::streamsize>(content.size()));
        out.flush();
        if (!out) {
            std::error_code ec;
            std::filesystem::remove(temp, ec);
            return makeError(error_code, "short write to '{}'", temp);
        }
    }

    if (std::rename(temp.c_str(), path.c_str()) != 0) {
        std::error_code ec;
        std::filesystem::remove(temp, ec);
        return makeError(error_code, "cannot rename '{}' over '{}'",
                         temp, path);
    }
    return {};
}

} // namespace uvolt
