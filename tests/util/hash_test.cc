/**
 * @file
 * Vector tests for CRC32 (against the published IEEE 802.3 check
 * value) and MurmurHash64A (self-consistency and avalanche sanity),
 * plus distribution checks the DMS partitioner depends on.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <vector>

#include "sim/rng.hh"
#include "util/crc32.hh"
#include "util/murmur64.hh"

using namespace dpu::util;

TEST(Crc32, StandardCheckValue)
{
    // The canonical CRC-32 check: crc32("123456789") = 0xCBF43926.
    const char *s = "123456789";
    EXPECT_EQ(crc32(s, 9), 0xcbf43926u);
}

TEST(Crc32, EmptyIsZero)
{
    EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(Crc32, IncrementalMatchesOneShot)
{
    std::vector<std::uint8_t> buf(1024);
    dpu::sim::Rng rng(42);
    for (auto &b : buf)
        b = std::uint8_t(rng.next());

    std::uint32_t whole = crc32(buf.data(), buf.size());
    std::uint32_t inc = 0;
    inc = crc32Update(inc, buf.data(), 100);
    inc = crc32Update(inc, buf.data() + 100, 924);
    EXPECT_EQ(whole, inc);
}

TEST(Crc32, KeyHashMatchesBufferHash)
{
    std::uint32_t key = 0xdeadbeef;
    EXPECT_EQ(crc32Key(key), crc32(&key, 4));
}

TEST(Crc32, SlicedKeyHashesMatchBytewiseCrc)
{
    // crc32Key / crc32Key64 fold their bytes through slice tables;
    // they must equal the bytewise table walk over the key's bytes.
    auto check32 = [](std::uint32_t k) {
        ASSERT_EQ(crc32Key(k), crc32(&k, 4)) << std::hex << k;
    };
    auto check64 = [](std::uint64_t k) {
        ASSERT_EQ(crc32Key64(k), crc32(&k, 8)) << std::hex << k;
    };
    for (std::uint32_t k = 0; k <= 0xffff; ++k) {
        check32(k);
        check64(k);
    }
    for (std::uint32_t b = 0; b < 64; ++b) {
        if (b < 32)
            check32(1u << b);
        check64(1ull << b);
    }
    check32(0);
    check32(~0u);
    check64(0);
    check64(~0ull);
    dpu::sim::Rng rng(0x5eed);
    for (int i = 0; i < 1'000'000; ++i) {
        const std::uint64_t k = rng.next();
        check32(std::uint32_t(k));
        check64(k);
    }
}

TEST(Crc32, RadixBitsAreBalanced)
{
    // The DMS radix partitioner takes low bits of the CRC of the key
    // (Section 3.1). Over sequential keys the 32 buckets should be
    // near-uniform, unlike taking low bits of the raw key.
    std::array<int, 32> buckets{};
    const int n = 32000;
    for (int i = 0; i < n; ++i)
        ++buckets[crc32Key(std::uint32_t(i)) & 31];
    for (int b : buckets) {
        EXPECT_GT(b, n / 32 * 7 / 10);
        EXPECT_LT(b, n / 32 * 13 / 10);
    }
}

TEST(Murmur64, DeterministicAndLengthSensitive)
{
    std::uint64_t k = 0x0123456789abcdefull;
    EXPECT_EQ(murmur64(&k, 8), murmur64(&k, 8));
    EXPECT_NE(murmur64(&k, 8), murmur64(&k, 7));
}

TEST(Murmur64, AvalancheOnSingleBitFlip)
{
    dpu::sim::Rng rng(7);
    for (int trial = 0; trial < 64; ++trial) {
        std::uint64_t a = rng.next();
        std::uint64_t b = a ^ (1ull << (trial % 64));
        std::uint64_t ha = murmur64Key(a);
        std::uint64_t hb = murmur64Key(b);
        int flipped = __builtin_popcountll(ha ^ hb);
        EXPECT_GT(flipped, 10);
        EXPECT_LT(flipped, 54);
    }
}

TEST(Murmur64, MulCountMatchesAlgorithm)
{
    // 8-byte key: len*m, (k*m, k*m, h*m), final h*m = 5 multiplies.
    EXPECT_EQ(murmur64MulCount(8), 5u);
    // 12-byte key adds the tail h*m.
    EXPECT_EQ(murmur64MulCount(12), 6u);
    EXPECT_EQ(murmur64MulCount(0), 2u);
}
