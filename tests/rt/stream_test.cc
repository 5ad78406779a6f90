/**
 * @file
 * Property tests for the streaming helpers: StreamReader must
 * deliver exactly total_bytes for ANY (size, buffer, ring-depth)
 * combination — including the odd-buffer-count case that once
 * parked a channel forever — and StreamWriter must produce
 * byte-exact output for arbitrary commit patterns. Also covers a
 * source range away from address 0 and dual-channel independence.
 */

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "rt/dms_ctl.hh"
#include "sim/rng.hh"
#include "soc/soc.hh"

using namespace dpu;
using rt::DmsCtl;

namespace {

soc::SocParams
smallParams()
{
    soc::SocParams p = soc::dpu40nm();
    p.ddrBytes = 16 << 20;
    return p;
}

} // namespace

/** (total_bytes, buf_bytes, n_bufs) sweep. */
class StreamSweep
    : public ::testing::TestWithParam<
          std::tuple<std::uint64_t, std::uint32_t, unsigned>>
{
};

TEST_P(StreamSweep, ReaderDeliversExactlyEverything)
{
    auto [total, buf, nbufs] = GetParam();
    soc::Soc s(smallParams());
    for (std::uint64_t i = 0; i < (total + 3) / 4; ++i)
        s.memory().store().store<std::uint32_t>(i * 4,
                                                std::uint32_t(i));

    std::uint64_t seen = 0;
    bool ordered = true;
    s.start(0, [&, total = total, buf = buf,
                nbufs = nbufs](core::DpCore &c) {
        DmsCtl ctl(c, s.dms());
        rt::StreamReader in(ctl, 0, total, 0, buf, nbufs, 0);
        std::uint32_t next = 0;
        in.forEach([&](std::uint32_t off, std::uint32_t blen) {
            for (std::uint32_t i = 0; i + 4 <= blen; i += 4) {
                if (c.dmem().load<std::uint32_t>(off + i) != next++)
                    ordered = false;
            }
            seen += blen;
        });
    });
    s.run();
    ASSERT_TRUE(s.allFinished());
    EXPECT_EQ(seen, total);
    EXPECT_TRUE(ordered);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, StreamSweep,
    ::testing::Values(
        std::make_tuple(std::uint64_t(4096), 1024u, 2u),   // exact
        std::make_tuple(std::uint64_t(5120), 1024u, 2u),   // odd bufs
        std::make_tuple(std::uint64_t(5000), 1024u, 2u),   // partial
        std::make_tuple(std::uint64_t(100), 1024u, 2u),    // tiny
        std::make_tuple(std::uint64_t(1024), 1024u, 2u),   // one buf
        std::make_tuple(std::uint64_t(65536), 2048u, 3u),  // triple
        std::make_tuple(std::uint64_t(65540), 2048u, 3u),
        std::make_tuple(std::uint64_t(131072), 8192u, 2u),
        std::make_tuple(std::uint64_t(12), 4096u, 2u)));

TEST(StreamWriter, RandomCommitSizesRoundTrip)
{
    soc::Soc s(smallParams());
    sim::Rng rng{99};
    std::vector<std::uint32_t> reference;
    s.start(0, [&](core::DpCore &c) {
        DmsCtl ctl(c, s.dms());
        rt::StreamWriter w(ctl, 0x400000, 0, 2048, 2, 8, 1);
        std::uint32_t value = 0;
        for (int burst = 0; burst < 40; ++burst) {
            std::uint32_t words = 1 + std::uint32_t(rng.below(512));
            std::uint32_t off = w.acquire();
            for (std::uint32_t i = 0; i < words; ++i) {
                c.dmem().store<std::uint32_t>(off + i * 4, value);
                reference.push_back(value++);
            }
            c.dualIssue(words, words);
            w.commit(words * 4);
        }
        w.finish();
    });
    s.run();
    ASSERT_TRUE(s.allFinished());
    for (std::size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ(s.memory().store().load<std::uint32_t>(0x400000 +
                                                         i * 4),
                  reference[i]) << "word " << i;
    }
}

TEST(Stream, ReaderAndWriterShareACoreAcrossChannels)
{
    // Copy 256 KB through DMEM: read on channel 0, write on channel
    // 1, fully overlapped.
    soc::Soc s(smallParams());
    const std::uint64_t total = 256 << 10;
    for (std::uint64_t i = 0; i < total / 4; ++i)
        s.memory().store().store<std::uint32_t>(
            i * 4, std::uint32_t(i * 2654435761u));

    s.start(0, [&](core::DpCore &c) {
        DmsCtl ctl(c, s.dms());
        rt::StreamReader in(ctl, 0, total, 0, 4096, 2, 0, 0);
        rt::StreamWriter out(ctl, 0x500000, 8192, 4096, 2, 8, 1);
        in.forEach([&](std::uint32_t off, std::uint32_t blen) {
            std::uint32_t o = out.acquire();
            std::vector<std::uint8_t> tmp(blen);
            c.dmem().read(off, tmp.data(), blen);
            c.dmem().write(o, tmp.data(), blen);
            c.dualIssue(blen / 8, blen / 4);
            out.commit(blen);
        });
        out.finish();
    });
    sim::Tick t = s.run();
    ASSERT_TRUE(s.allFinished());
    for (std::uint64_t i = 0; i < total / 4; ++i) {
        ASSERT_EQ(s.memory().store().load<std::uint32_t>(0x500000 +
                                                         i * 4),
                  std::uint32_t(i * 2654435761u));
    }
    // Overlapped R+W of 512 KB total should beat 2 GB/s easily.
    double gbs = 2.0 * total / (double(t) * 1e-12) / 1e9;
    EXPECT_GT(gbs, 2.0);
}

TEST(Stream, OffsetRangeStreaming)
{
    // Fill a DDR range at 1 MiB from inside the fiber, stream it.
    soc::Soc s(smallParams());
    const mem::Addr buf = 1 << 20;
    std::uint64_t sum = 0;
    s.start(0, [&](core::DpCore &c) {
        for (std::uint32_t i = 0; i < (64 << 10) / 4; ++i)
            s.memory().store().store<std::uint32_t>(buf + i * 4, i);
        DmsCtl ctl(c, s.dms());
        rt::StreamReader in(ctl, buf, 64 << 10, 0, 4096, 2, 0);
        in.forEach([&](std::uint32_t off, std::uint32_t blen) {
            for (std::uint32_t i = 0; i < blen; i += 4)
                sum += c.dmem().load<std::uint32_t>(off + i);
            c.dualIssue(blen / 4, blen / 4);
        });
    });
    s.run();
    ASSERT_TRUE(s.allFinished());
    std::uint64_t n = (64 << 10) / 4;
    EXPECT_EQ(sum, n * (n - 1) / 2);
}
