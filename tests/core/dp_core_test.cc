/**
 * @file
 * dpCore model tests: lazy-clock cycle accounting, the dual-issue
 * and branch-predictor cost model, the analytics ISA extensions
 * (functional results + cycle costs), DMEM vs cached-DDR routing,
 * interrupts, blocking, and watchpoints; bulk charges against the
 * op-by-op charges they stand for, and FILT at every element width.
 */

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/dp_core.hh"
#include "mem/cache.hh"
#include "mem/main_memory.hh"
#include "sim/rng.hh"
#include "sim/trace.hh"
#include "util/crc32.hh"

using namespace dpu;
using core::DpCore;

namespace {

const mem::CacheParams l2Params{256 * 1024, 8, 6};

struct CoreFixture : ::testing::Test
{
    CoreFixture()
        : mm(mem::ddr3_1600, 4 << 20), l2("l2", l2Params, mm),
          core0(std::make_unique<DpCore>(0, eq, l2)),
          core1(std::make_unique<DpCore>(1, eq, l2))
    {
    }

    /** Run a kernel on core0 to completion; return elapsed ticks. */
    sim::Tick
    runOn0(core::Kernel k)
    {
        sim::Tick start = eq.now();
        core0->start(std::move(k));
        eq.run();
        EXPECT_TRUE(core0->finished());
        return eq.now() - start;
    }

    sim::EventQueue eq;
    mem::MainMemory mm;
    mem::Cache l2;
    std::unique_ptr<DpCore> core0, core1;
};

} // namespace

TEST_F(CoreFixture, CycleChargingAdvancesTime)
{
    sim::Tick t = runOn0([](DpCore &c) { c.cycles(1000); });
    EXPECT_EQ(t, sim::dpCoreClock.cyclesToTicks(1000));
}

TEST_F(CoreFixture, DualIssuePairsAluAndLsu)
{
    // 100 ALU ops co-issued with 100 LSU ops = 100 cycles, not 200.
    sim::Tick t = runOn0([](DpCore &c) { c.dualIssue(100, 100); });
    EXPECT_EQ(t, sim::dpCoreClock.cyclesToTicks(100));
}

TEST_F(CoreFixture, BranchPredictorBackwardTaken)
{
    // A taken backward branch (loop) is predicted: 1 cycle.
    sim::Tick loop = runOn0([](DpCore &c) { c.branch(true, true); });
    // A taken FORWARD branch is mispredicted: 1 + penalty.
    core0 = std::make_unique<DpCore>(0, eq, l2);
    sim::Tick fwd = runOn0([](DpCore &c) { c.branch(true, false); });
    EXPECT_GT(fwd, loop);
    EXPECT_EQ(fwd - loop,
              sim::dpCoreClock.cyclesToTicks(core::IsaCosts{}.branchMiss));
}

TEST_F(CoreFixture, MultiplierIsVariableLatency)
{
    core::IsaCosts costs;
    // A 64-bit multiply stalls longer than an 8-bit one (Section 5.4:
    // "variable latency multiplier").
    EXPECT_GT(costs.mulCycles(64), costs.mulCycles(8));
    sim::Tick t8 = runOn0([](DpCore &c) { c.mul(8); });
    core0 = std::make_unique<DpCore>(0, eq, l2);
    sim::Tick t64 = runOn0([](DpCore &c) { c.mul(64); });
    EXPECT_GT(t64, t8);
}

TEST_F(CoreFixture, NtzIsCheaperThanNlz)
{
    // Section 5.4: NTZ = 4 cycles via popcount, NLZ = 13 cycles.
    unsigned ntz = 0, nlz = 0;
    runOn0([&](DpCore &c) {
        ntz = c.ntz(0b1000);
        nlz = c.nlz(0b1000);
    });
    EXPECT_EQ(ntz, 3u);
    EXPECT_EQ(nlz, 60u);
    EXPECT_EQ(core0->statGroup().get("ntzOps"), 1u);
    core::IsaCosts costs;
    EXPECT_LT(costs.ntz, costs.nlz);
}

TEST_F(CoreFixture, CrcHashMatchesUtil)
{
    std::uint32_t h = 0;
    runOn0([&](DpCore &c) { h = c.crcHash(1234); });
    EXPECT_EQ(h, util::crc32Key(1234));
}

TEST_F(CoreFixture, FiltProducesExactBitvector)
{
    std::uint64_t passed = 0;
    runOn0([&](DpCore &c) {
        // 100 x 4 B values 0..99 at DMEM offset 0.
        for (std::uint32_t i = 0; i < 100; ++i)
            c.dmem().store<std::uint32_t>(i * 4, i);
        passed = c.filt(0, 100, 4, 10, 19, 1024);
    });
    EXPECT_EQ(passed, 10u);
    // Bits 10..19 set, everything else clear.
    for (std::uint32_t i = 0; i < 100; ++i) {
        bool bit = (core0->dmem().load<std::uint8_t>(1024 + i / 8) >>
                    (i % 8)) & 1;
        EXPECT_EQ(bit, i >= 10 && i <= 19) << "row " << i;
    }
}

TEST_F(CoreFixture, FiltRateNearPaperCyclesPerTuple)
{
    // The compute loop runs at ~1.66 cycles/tuple so the end-to-end
    // filter matches the paper's 482 Mtuples/s (Section 5.3).
    const std::uint32_t n = 4096;
    sim::Tick t = runOn0([&](DpCore &c) {
        c.filt(0, n, 4, 0, 0, 20000);
    });
    double cpt = double(sim::dpCoreClock.ticksToCycles(t)) / n;
    EXPECT_GT(cpt, 1.4);
    EXPECT_LT(cpt, 1.8);
}

TEST_F(CoreFixture, DmemAccessRoundTrips)
{
    std::uint64_t out = 0;
    runOn0([&](DpCore &c) {
        c.store<std::uint64_t>(c.dmemBase() + 256, 0xfeedface);
        out = c.load<std::uint64_t>(c.dmemBase() + 256);
    });
    EXPECT_EQ(out, 0xfeedfaceull);
    EXPECT_EQ(core0->dmem().load<std::uint64_t>(256), 0xfeedfaceull);
}

TEST_F(CoreFixture, DdrAccessGoesThroughCache)
{
    mm.store().store<std::uint32_t>(0x1000, 77);
    std::uint32_t v = 0;
    runOn0([&](DpCore &c) { v = c.load<std::uint32_t>(0x1000); });
    EXPECT_EQ(v, 77u);
    EXPECT_TRUE(core0->l1d().contains(0x1000));
}

TEST_F(CoreFixture, CachedLoadIsFasterSecondTime)
{
    sim::Tick t = runOn0([&](DpCore &c) {
        sim::Tick t0 = c.now();
        (void)c.load<std::uint32_t>(0x2000);
        sim::Tick t1 = c.now();
        (void)c.load<std::uint32_t>(0x2000);
        sim::Tick t2 = c.now();
        EXPECT_GT(t1 - t0, (t2 - t1) * 10);
    });
    (void)t;
}

TEST_F(CoreFixture, FlushMakesDataVisibleToDms)
{
    runOn0([&](DpCore &c) {
        c.store<std::uint32_t>(0x3000, 5);
        EXPECT_EQ(mm.store().load<std::uint32_t>(0x3000), 0u);
        c.cacheFlush(0x3000, 4);
        EXPECT_EQ(mm.store().load<std::uint32_t>(0x3000), 5u);
    });
}

TEST_F(CoreFixture, InterruptsDeliveredToBlockedCore)
{
    bool isr_ran = false;
    bool woke = false;
    core0->start([&](DpCore &c) {
        c.blockUntil([&] { return isr_ran; });
        woke = true;
    });
    // Post the interrupt after 1 us of simulated time.
    eq.schedule(1'000'000, [&] {
        core0->postInterrupt([&](DpCore &) { isr_ran = true; });
    });
    eq.run();
    EXPECT_TRUE(isr_ran);
    EXPECT_TRUE(woke);
    EXPECT_EQ(core0->statGroup().get("interruptsTaken"), 1u);
}

TEST_F(CoreFixture, InterruptChargesOverhead)
{
    core0->start([&](DpCore &c) {
        c.postInterrupt([](DpCore &) {});
        c.sync();
    });
    eq.run();
    EXPECT_GE(sim::dpCoreClock.ticksToCycles(eq.now()),
              core::IsaCosts{}.interrupt);
}

TEST_F(CoreFixture, TwoCoresInterleaveInTime)
{
    std::vector<int> order;
    core0->start([&](DpCore &c) {
        c.sleepCycles(100);
        order.push_back(0);
        c.sleepCycles(200);
        order.push_back(2);
    });
    core1->start([&](DpCore &c) {
        c.sleepCycles(150);
        order.push_back(1);
        c.sleepCycles(400);
        order.push_back(3);
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST_F(CoreFixture, WatchpointFiresOnWrite)
{
    int hits = 0;
    runOn0([&](DpCore &c) {
        c.addWatchpoint(0x5000, 64, [&](mem::Addr, bool write) {
            if (write)
                ++hits;
        });
        c.store<std::uint32_t>(0x5000, 1);  // hit
        c.store<std::uint32_t>(0x5040, 1);  // outside
        (void)c.load<std::uint32_t>(0x5000); // read, not counted
    });
    EXPECT_EQ(hits, 1);
}

TEST_F(CoreFixture, BlockedCoreWakesOnCondition)
{
    bool flag = false;
    sim::Tick woke_at = 0;
    core0->start([&](DpCore &c) {
        c.blockUntil([&] { return flag; });
        woke_at = c.now();
    });
    eq.schedule(5'000'000, [&] {
        flag = true;
        core0->wake(eq.now());
    });
    eq.run();
    EXPECT_EQ(woke_at, 5'000'000u);
}

// ----------------------------------------------------------------
// Bulk charges: mul(bits, n) and dualIssue(alu, lsu, n) must be
// indistinguishable from n single calls.
// ----------------------------------------------------------------

namespace {

/** DpCore's sync quantum (20 us of lead). */
constexpr sim::Tick quantum = 20'000'000;

/** A core with its own event queue: one side of an equivalence. */
struct Rig
{
    sim::EventQueue eq;
    mem::MainMemory mm{mem::ddr3_1600, 4 << 20};
    mem::Cache l2{"l2", l2Params, mm};
    DpCore core{0, eq, l2};
};

/** Charge @p n ops on a core, in one bulk call or one by one. */
using Charge = std::function<void(DpCore &, std::uint64_t n, bool bulk)>;

/** What one side of an equivalence observed. */
struct Observed
{
    std::vector<sim::Tick> nows; ///< now() after every charge
    std::uint64_t coreEvents = 0;
    std::map<std::string, std::uint64_t> stats;
    std::string trace;           ///< exported trace (when armed)
};

/**
 * Drive @p charge from every lead just below, at and above the sync
 * quantum, for n in {0, 1, a few, several quanta} of @p op-tick ops,
 * with an ISR posted from outside mid-run (it nests a second ISR and
 * charges across quanta itself) and one the kernel posts to itself.
 */
Observed
runCharges(const Charge &charge, sim::Tick op, bool bulk)
{
    Rig r;
    Observed out;
    const sim::Tick step = op ? op : 1;
    // Zero-cycle ops never reach the quantum: a few suffice.
    const std::uint64_t many = op ? 3 * quantum / op + 7 : 10;
    r.eq.schedule(3 * quantum + 12345, [&] {
        r.core.postInterrupt([&](DpCore &c) {
            c.postInterrupt([&](DpCore &c2) {
                charge(c2, 3, bulk);
                out.nows.push_back(c2.now());
            });
            charge(c, many, bulk);
            out.nows.push_back(c.now());
        });
    });
    r.core.start([&](DpCore &c) {
        const sim::Tick leads[] = {0,
                                   1,
                                   quantum - 2 * step + 1,
                                   quantum - step - 1,
                                   quantum - step,
                                   quantum - 1,
                                   quantum,
                                   quantum + 1};
        const std::uint64_t ns[] = {0, 1, 5, many};
        for (sim::Tick lead : leads) {
            for (std::uint64_t n : ns) {
                c.sync();
                c.injectStall(lead);
                charge(c, n, bulk);
                out.nows.push_back(c.now());
            }
        }
        c.postInterrupt([&](DpCore &c2) { charge(c2, 4, bulk); });
        charge(c, 9, bulk);
        out.nows.push_back(c.now());
    });
    r.eq.run();
    EXPECT_TRUE(r.core.finished());
    out.coreEvents =
        r.eq.profile().executed[std::size_t(sim::EvTag::Core)];
    out.stats = r.core.statGroup().counterCells();
    if (sim::tracer().armed()) {
        std::ostringstream os;
        sim::tracer().exportJson(os);
        out.trace = os.str();
        sim::tracer().clear();
    }
    return out;
}

/** Bulk and op-by-op runs of @p charge agree on every observable. */
void
expectBulkMatchesSingles(const Charge &charge, sim::Tick op)
{
    const Observed bulk = runCharges(charge, op, true);
    const Observed single = runCharges(charge, op, false);
    EXPECT_EQ(bulk.nows, single.nows);
    EXPECT_EQ(bulk.coreEvents, single.coreEvents);
    EXPECT_GT(single.coreEvents, 20u); // the script really syncs
    EXPECT_EQ(bulk.stats, single.stats);
    EXPECT_EQ(bulk.trace, single.trace);
}

sim::Tick
opTicks(sim::Cycles c)
{
    return sim::dpCoreClock.cyclesToTicks(c);
}

} // namespace

TEST(BulkCharge, MulMatchesSingleMuls)
{
    for (unsigned bits : {8u, 32u, 64u}) {
        SCOPED_TRACE(bits);
        expectBulkMatchesSingles(
            [bits](DpCore &c, std::uint64_t n, bool bulk) {
                if (bulk) {
                    c.mul(bits, n);
                    return;
                }
                for (std::uint64_t i = 0; i < n; ++i)
                    c.mul(bits);
            },
            opTicks(core::IsaCosts{}.mulCycles(bits)));
    }
}

TEST(BulkCharge, DualIssueMatchesSingleBundles)
{
    const std::pair<std::uint64_t, std::uint64_t> bundles[] = {
        {3, 3}, {2, 5}, {4, 1}, {0, 0}};
    for (auto [alu, lsu] : bundles) {
        SCOPED_TRACE(alu * 100 + lsu);
        expectBulkMatchesSingles(
            [alu, lsu](DpCore &c, std::uint64_t n, bool bulk) {
                if (bulk) {
                    c.dualIssue(alu, lsu, n);
                    return;
                }
                for (std::uint64_t i = 0; i < n; ++i)
                    c.dualIssue(alu, lsu);
            },
            opTicks(std::max(alu, lsu)));
    }
}

TEST(BulkCharge, TracedMulKeepsOneEventPerMultiply)
{
    if (!DPU_TRACING)
        GTEST_SKIP() << "tracing compiled out";
    sim::tracer().arm(1 << 16);
    const Charge mul = [](DpCore &c, std::uint64_t n, bool bulk) {
        if (bulk) {
            c.mul(32, n);
            return;
        }
        for (std::uint64_t i = 0; i < n; ++i)
            c.mul(32);
    };
    const Observed bulk =
        runCharges(mul, opTicks(core::IsaCosts{}.mulCycles(32)), true);
    const Observed single =
        runCharges(mul, opTicks(core::IsaCosts{}.mulCycles(32)), false);
    sim::tracer().disarm();
    sim::tracer().clear();
    EXPECT_EQ(bulk.nows, single.nows);
    EXPECT_EQ(bulk.stats, single.stats);
    EXPECT_NE(single.trace.find("\"mul\""), std::string::npos);
    EXPECT_EQ(bulk.trace, single.trace);
}

// ----------------------------------------------------------------
// FILT at every element width
// ----------------------------------------------------------------

namespace {

/** FILT over @p vals (packed at DMEM 0) against a scalar replay. */
template <typename T>
void
expectFiltExact(const std::vector<T> &vals, std::uint64_t lo,
                std::uint64_t hi)
{
    constexpr std::uint32_t bvOff = 16 * 1024;
    const std::uint32_t n = std::uint32_t(vals.size());
    Rig r;
    // A stale pattern under the bit vector: FILT must own every bit
    // it reports, including the tail of a partial last byte.
    for (std::uint32_t i = 0; i < (n + 7) / 8 + 8; ++i)
        r.core.dmem().store<std::uint8_t>(bvOff + i, 0xa5);
    r.core.dmem().write(0, vals.data(), n * sizeof(T));
    std::uint64_t passed = 0;
    r.core.start([&](DpCore &c) {
        passed = c.filt(0, n, sizeof(T), lo, hi, bvOff);
    });
    r.eq.run();

    std::uint64_t expect = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
        const bool hit = std::uint64_t(vals[i]) >= lo &&
                         std::uint64_t(vals[i]) <= hi;
        expect += hit;
        const bool bit =
            (r.core.dmem().load<std::uint8_t>(bvOff + i / 8) >> (i % 8)) &
            1;
        ASSERT_EQ(bit, hit) << "width " << sizeof(T) << " row " << i;
    }
    EXPECT_EQ(passed, expect);
    if (n % 8) {
        // Bits past n in the last byte are cleared.
        const std::uint8_t last =
            r.core.dmem().load<std::uint8_t>(bvOff + n / 8);
        EXPECT_EQ(last >> (n % 8), 0);
    }
    // The byte after the vector is untouched.
    EXPECT_EQ(r.core.dmem().load<std::uint8_t>(bvOff + (n + 7) / 8),
              0xa5);
}

/** @p n values of T: the type's limits, neighbours and random. */
template <typename T>
std::vector<T>
filtValues(std::uint32_t n, std::uint64_t seed)
{
    constexpr T top = std::numeric_limits<T>::max();
    std::vector<T> v(n);
    sim::Rng rng{seed};
    for (std::uint32_t i = 0; i < n; ++i) {
        switch (i % 5) {
          case 0: v[i] = 0; break;
          case 1: v[i] = top; break;
          case 2: v[i] = T(top - 1); break;
          default: v[i] = T(rng.next()); break;
        }
    }
    return v;
}

template <typename T>
void
expectFiltExactAtLimits()
{
    constexpr std::uint64_t top = std::numeric_limits<T>::max();
    const auto vals = filtValues<T>(1003, sizeof(T)); // 1003 % 8 = 3
    expectFiltExact<T>(vals, 0, top);       // everything passes
    expectFiltExact<T>(vals, 0, 0);         // only zeros
    expectFiltExact<T>(vals, top, top);     // only the maximum
    expectFiltExact<T>(vals, 1, top - 1);   // interior
    expectFiltExact<T>(vals, top / 3, top / 2);
    expectFiltExact<T>(vals, top, 0);       // empty range
    expectFiltExact<T>(vals, 0, ~0ull);     // hi past the type
    expectFiltExact<T>(std::vector<T>(vals.begin(), vals.begin() + 5),
                       1, top);             // shorter than a byte
}

} // namespace

TEST(Filt, ExactAtEveryWidthAndAtTypeLimits)
{
    expectFiltExactAtLimits<std::uint8_t>();
    expectFiltExactAtLimits<std::uint16_t>();
    expectFiltExactAtLimits<std::uint32_t>();
    expectFiltExactAtLimits<std::uint64_t>();
}

TEST(Filt, ChargeIsWidthIndependent)
{
    // The rate test's loop (4096 tuples) costs the same cycles at
    // every width: the element load pairs with FILT in the
    // dual-issue pipe whatever its size.
    const std::uint32_t n = 4096;
    const sim::Cycles expect = n + n / 2 + n / 8 + 1 + (n / 64 + 1) * 2;
    for (unsigned width : {1u, 2u, 4u, 8u}) {
        Rig r;
        r.core.start([&](DpCore &c) { c.filt(0, n, width, 0, 0, 0); });
        r.eq.run();
        EXPECT_EQ(r.eq.now(), sim::dpCoreClock.cyclesToTicks(expect))
            << "width " << width;
        EXPECT_EQ(r.core.statGroup().get("filtOps"), n);
    }
}
