/**
 * @file
 * Content hashing shared by the experiment engine's result cache, the
 * run manifest, and the benchmark harness: two FNV-1a 64-bit passes
 * with distinct offset bases form a 128-bit address — not
 * cryptographic, but collision-safe at the scale of any realistic
 * sweep grid or checkpoint set.
 */

#ifndef PBS_UTIL_HASH_HH
#define PBS_UTIL_HASH_HH

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

namespace pbs::util {

/** FNV-1a over @p n raw bytes starting from offset basis @p h. */
inline uint64_t
fnv1a64(const void *data, size_t n,
        uint64_t h = 14695981039346656037ull)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; i++) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

inline uint64_t
fnv1a64(const std::string &data, uint64_t h = 14695981039346656037ull)
{
    return fnv1a64(data.data(), data.size(), h);
}

/** 128-bit FNV-1a content hash, as 32 lowercase hex characters. */
inline std::string
fnv1a128Hex(const void *data, size_t n)
{
    uint64_t a = fnv1a64(data, n);
    uint64_t b = fnv1a64(data, n,
                         14695981039346656037ull ^ 0x9e3779b97f4a7c15ull);
    char buf[33];
    std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                  (unsigned long long)a, (unsigned long long)b);
    return buf;
}

inline std::string
fnv1a128Hex(const std::string &data)
{
    return fnv1a128Hex(data.data(), data.size());
}

}  // namespace pbs::util

#endif  // PBS_UTIL_HASH_HH
