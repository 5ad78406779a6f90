/**
 * @file
 * sim::Wire laws under a seeded fuzz: random sends over random
 * channels, traffic classes and sizes, with the delay and drop
 * sites both firing at p=0.3 and the offered tick sometimes going
 * backwards. After every send, per channel and in aggregate:
 *
 *  - offered == carried(Workload) + carried(Migration) +
 *    carried(Probe) + dropped, for msgs, bytes and wire ticks;
 *  - delivery == max(now, nextFree) + serialization + hop
 *    (+ the delay magnitude when the delay site fired);
 *  - nextFree never rewinds;
 *  - the folded stat cells equal the getters.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "sim/fault.hh"
#include "sim/rng.hh"
#include "sim/wire.hh"

using namespace dpu::sim;

namespace {

constexpr unsigned kChannels = 5;

std::string
chanName(unsigned ch)
{
    std::string name = "c";
    name += std::to_string(ch);
    return name;
}

/** The reference tally of everything offered to one channel. */
struct Offered
{
    Tick nextFree = 0;
    Wire::Tally all;
};

Wire::Tally
sumFates(const Wire::Tally (&carried)[nTraffic],
         const Wire::Tally &dropped)
{
    Wire::Tally t = dropped;
    for (const Wire::Tally &c : carried)
        t += c;
    return t;
}

void
expectTally(const Wire::Tally &got, const Wire::Tally &want,
            const std::string &where)
{
    EXPECT_EQ(got.msgs, want.msgs) << where;
    EXPECT_EQ(got.bytes, want.bytes) << where;
    EXPECT_EQ(got.ticks, want.ticks) << where;
}

/** Every cell the fold registers must equal its getter. */
void
expectCellsMatchGetters(Wire &w)
{
    StatGroup &g = w.statGroup();
    EXPECT_EQ(g.get("msgs"), w.messages());
    EXPECT_EQ(g.get("bytes"), w.bytesCarried());
    EXPECT_EQ(g.get("migMsgs"), w.migrationMessages());
    EXPECT_EQ(g.get("migBytes"), w.migrationBytes());
    EXPECT_EQ(g.get("probeMsgs"), w.carried(Traffic::Probe).msgs);
    EXPECT_EQ(g.get("probeBytes"), w.carried(Traffic::Probe).bytes);
    EXPECT_EQ(g.get("drops"), w.drops());
    EXPECT_EQ(g.get("dropBytes"), w.droppedBytes());
    EXPECT_EQ(g.get("delayed"), w.delays());
    for (unsigned ch = 0; ch < w.channels(); ++ch) {
        const Wire::Tally &work = w.carried(ch, Traffic::Workload);
        EXPECT_EQ(g.get(chanName(ch) + ".bytes"), work.bytes);
        EXPECT_EQ(g.get(chanName(ch) + ".busyTicks"), work.ticks);
    }
}

/** Fuzz one wire under @p spec; @p mag is the delay rule's. */
void
fuzz(const std::string &spec, Tick mag, std::uint64_t seed)
{
    faultPlane().reset();
    faultPlane().configure(spec, seed);
    WireParams p;
    p.hopLatency = 3'000;
    p.gbPerSec = 7.0;
    p.flitBytes = 96;
    Wire w(kChannels, p, "wiretest", FaultSite::RackNetDelay,
           FaultSite::RackNetDrop, chanName);

    Rng rng(seed);
    std::vector<Offered> ref(kChannels);
    Wire::Tally offeredAll;
    Tick now = 0;
    unsigned drops = 0, delays = 0, rewinds = 0;
    for (unsigned i = 0; i < 4000; ++i) {
        // Mostly forward, sometimes backwards (a failover retry
        // landing behind later arrivals).
        if (rng.below(5) == 0)
            now -= std::min<Tick>(now, rng.below(40'000));
        else
            now += rng.below(20'000);
        const unsigned ch = unsigned(rng.below(kChannels));
        const Traffic cls = Traffic(rng.below(nTraffic));
        const std::uint64_t bytes = rng.below(4097);

        Offered &o = ref[ch];
        rewinds += now < o.nextFree;
        const Tick ser = Tick(
            double(std::max<std::uint64_t>(bytes, p.flitBytes)) *
                (1000.0 / p.gbPerSec) +
            0.5);
        ASSERT_EQ(w.wireTicks(bytes), ser);
        const std::uint64_t delayedBefore =
            faultPlane().injected(FaultSite::RackNetDelay);
        const Wire::Tally carriedBefore = w.carried(ch, cls);
        const Wire::Tally droppedBefore = w.dropped(ch);

        bool dropped = false;
        const Tick at = w.send(ch, bytes, now, dropped, cls);

        const bool delayed =
            faultPlane().injected(FaultSite::RackNetDelay) !=
            delayedBefore;
        drops += dropped;
        delays += delayed;
        const Tick txDone = std::max(now, o.nextFree) + ser;
        ASSERT_EQ(at, txDone + p.hopLatency +
                          (delayed ? (mag ? mag : p.hopLatency) : 0))
            << "send " << i;
        ASSERT_GE(txDone, o.nextFree);
        o.nextFree = txDone;
        ASSERT_EQ(w.backlog(ch, 0), o.nextFree)
            << "nextFree moved other than to txDone at send " << i;
        ASSERT_EQ(w.delays(), delays);

        // The send landed in exactly its own fate.
        const Wire::Tally one{1, bytes, ser};
        Wire::Tally wantCarried = carriedBefore;
        Wire::Tally wantDropped = droppedBefore;
        (dropped ? wantDropped : wantCarried) += one;
        expectTally(w.carried(ch, cls), wantCarried, "carried fate");
        expectTally(w.dropped(ch), wantDropped, "dropped fate");

        o.all += one;
        offeredAll += one;
        for (unsigned c = 0; c < kChannels; ++c) {
            const Wire::Tally perClass[nTraffic] = {
                w.carried(c, Traffic::Workload),
                w.carried(c, Traffic::Migration),
                w.carried(c, Traffic::Probe)};
            expectTally(sumFates(perClass, w.dropped(c)), ref[c].all,
                        "channel " + std::to_string(c));
        }
        const Wire::Tally total[nTraffic] = {
            w.carried(Traffic::Workload), w.carried(Traffic::Migration),
            w.carried(Traffic::Probe)};
        expectTally(sumFates(total, w.dropped()), offeredAll,
                    "aggregate");
        ASSERT_EQ(w.offeredBytes(), offeredAll.bytes);
        expectCellsMatchGetters(w);
        if (::testing::Test::HasFailure())
            FAIL() << "first violation at send " << i;
    }
    // The fuzz really exercised every path.
    EXPECT_GT(drops, 0u);
    EXPECT_GT(delays, 0u);
    EXPECT_GT(rewinds, 0u);
    EXPECT_EQ(w.drops(), drops);
    faultPlane().reset();
}

} // namespace

TEST(Wire, FatesSumToOfferedUnderFaultsWithMagnitude)
{
    fuzz("rack.netDelay@p=0.3,mag=777;rack.netDrop@p=0.3", 777, 11);
}

TEST(Wire, FatesSumToOfferedUnderFaultsWithHopDelay)
{
    // mag = 0: a delay costs one more hop.
    fuzz("rack.netDelay@p=0.3;rack.netDrop@p=0.3", 0, 12);
}

TEST(Wire, QuietWireRegistersNoCells)
{
    faultPlane().reset();
    WireParams p;
    p.hopLatency = 1;
    p.gbPerSec = 1.0;
    p.flitBytes = 1;
    Wire w(2, p, "wirequiet", FaultSite::LinkDelay,
           FaultSite::LinkDrop, chanName);
    EXPECT_TRUE(w.statGroup().counterCells().empty());
    bool dropped = true;
    w.send(1, 10, 0, dropped, Traffic::Migration);
    EXPECT_FALSE(dropped);
    // Only the migration cells: no workload, drop or delay cells.
    const auto &cells = w.statGroup().counterCells();
    EXPECT_EQ(cells.size(), 2u);
    EXPECT_EQ(cells.count("migBytes"), 1u);
    EXPECT_EQ(cells.count("migMsgs"), 1u);
    EXPECT_EQ(w.utilization(1, 100), 0.0)
        << "utilization describes carried workload only";
}

TEST(WireParams, ValidateNamesTheWireAndTheField)
{
    WireParams p;
    p.hopLatency = 1;
    p.gbPerSec = 0;
    p.flitBytes = 1;
    const std::string err = p.validate("test wire");
    EXPECT_NE(err.find("test wire"), std::string::npos);
    EXPECT_NE(err.find("gbPerSec"), std::string::npos);
    p.gbPerSec = 1;
    EXPECT_EQ(p.validate("test wire"), "");
}
