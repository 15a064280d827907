#include "util/publish.hh"

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <fstream>

namespace fs = std::filesystem;

namespace pbs::util {

bool
publishFile(const fs::path &path, const std::string &text)
{
    static std::atomic<uint64_t> counter{0};

    std::error_code ec;
    fs::create_directories(path.parent_path(), ec);
    if (ec)
        return false;

    const fs::path tmp = path.string() + "." + std::to_string(::getpid()) +
                         "-" + std::to_string(counter++) + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return false;
        out << text;
        out.close();  // surface flush errors (e.g. disk full) in good()
        if (!out.good()) {
            fs::remove(tmp, ec);
            return false;
        }
    }
    fs::rename(tmp, path, ec);
    if (ec) {
        fs::remove(tmp, ec);
        return false;
    }
    return true;
}

}  // namespace pbs::util
