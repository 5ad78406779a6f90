/**
 * @file
 * CRC32 hash used by the DMS hash engine and by the dpCore's
 * single-cycle CRC32 hashcode instruction (Section 2.2).
 *
 * The chip implements the reflected IEEE 802.3 polynomial
 * (0xEDB88320); we use the same so that software partitioning on the
 * Xeon baseline and hardware partitioning in the DMS agree bit for
 * bit, which the partitioning tests rely on.
 */

#ifndef DPU_UTIL_CRC32_HH
#define DPU_UTIL_CRC32_HH

#include <array>
#include <cstddef>
#include <cstdint>

namespace dpu::util {

namespace detail {

constexpr std::array<std::uint32_t, 256>
makeCrcTable()
{
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        table[i] = c;
    }
    return table;
}

inline constexpr auto crcTable = makeCrcTable();

/**
 * Slicing-by-8 tables: slice k advances the CRC of a byte through k
 * further zero bytes, so an 8-byte key folds in 8 independent
 * lookups instead of a serial chain of 8.
 */
constexpr std::array<std::array<std::uint32_t, 256>, 8>
makeSliceTables()
{
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    t[0] = makeCrcTable();
    for (std::size_t k = 1; k < 8; ++k)
        for (std::size_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
    return t;
}

inline constexpr auto crcSlices = makeSliceTables();

} // namespace detail

/** Incrementally extend a CRC32 over @p len bytes. */
inline std::uint32_t
crc32Update(std::uint32_t crc, const void *data, std::size_t len)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    crc = ~crc;
    for (std::size_t i = 0; i < len; ++i)
        crc = detail::crcTable[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
    return ~crc;
}

/** One-shot CRC32 of a buffer. */
inline std::uint32_t
crc32(const void *data, std::size_t len)
{
    return crc32Update(0, data, len);
}

/**
 * CRC32 of a single little-endian 32-bit key (the hot DMS path):
 * crc32(&key, 4), sliced by 4.
 */
inline std::uint32_t
crc32Key(std::uint32_t key)
{
    const auto &t = detail::crcSlices;
    const std::uint32_t c = ~key;
    return ~(t[3][c & 0xff] ^ t[2][(c >> 8) & 0xff] ^
             t[1][(c >> 16) & 0xff] ^ t[0][c >> 24]);
}

/** CRC32 of a single little-endian 64-bit key: crc32(&key, 8). */
inline std::uint32_t
crc32Key64(std::uint64_t key)
{
    const auto &t = detail::crcSlices;
    const std::uint32_t lo = ~std::uint32_t(key);
    const std::uint32_t hi = std::uint32_t(key >> 32);
    return ~(t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^
             t[5][(lo >> 16) & 0xff] ^ t[4][lo >> 24] ^
             t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
             t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24]);
}

} // namespace dpu::util

#endif // DPU_UTIL_CRC32_HH
