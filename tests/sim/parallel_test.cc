/**
 * @file
 * EpochRunner unit tests: the barrier/lookahead protocol edges.
 *
 *  - zero lookahead degenerates to serial (global tick) order;
 *  - a message whose latency equals the lookahead lands exactly on
 *    the next epoch, never inside the sending one;
 *  - more partitions than workers (oversubscription) changes
 *    nothing observable;
 *  - idle gaps between event clusters are skipped, not marched
 *    through epoch by epoch;
 *  - runners start, run repeatedly and shut down cleanly at every
 *    thread count, including runners that never run;
 *  - the drain callback runs in the documented serial order, under
 *    the destination's domain, the same at every thread count;
 *  - nextDueLowerBound() bounds and refines as documented.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "sim/domain.hh"
#include "sim/event_queue.hh"
#include "sim/parallel.hh"

using namespace dpu;

namespace {

constexpr sim::Tick hop = 600'000; // the board link's 600 ns

/** No-op drain for runs without cross-partition traffic. */
void
noDrain(unsigned)
{
}

} // namespace

TEST(EpochRunner, ZeroLookaheadRunsInGlobalTickOrder)
{
    sim::EventQueue q0, q1;
    std::vector<std::pair<unsigned, sim::Tick>> log;
    for (unsigned i = 0; i < 40; ++i) {
        const sim::Tick t0 = i * 10;
        const sim::Tick t1 = i * 10 + 5;
        q0.schedule(t0, [&log, t0] { log.push_back({0, t0}); });
        q1.schedule(t1, [&log, t1] { log.push_back({1, t1}); });
    }

    sim::ParallelParams pp;
    pp.threads = 1;
    pp.lookahead = 0; // tick-lockstep: the serial-order fallback
    sim::EpochRunner r({&q0, &q1}, pp, noDrain);
    const sim::Tick end = r.run();

    ASSERT_EQ(log.size(), 80u);
    EXPECT_TRUE(std::is_sorted(
        log.begin(), log.end(),
        [](const auto &a, const auto &b) {
            return a.second < b.second;
        }))
        << "zero lookahead must interleave partitions in global "
           "tick order";
    EXPECT_EQ(end, sim::Tick(39 * 10 + 5));
    EXPECT_EQ(q0.now(), end);
    EXPECT_EQ(q1.now(), end);
}

TEST(EpochRunner, HopLatencyMessageStraddlesTheEpochBoundary)
{
    sim::EventQueue q0, q1;
    std::vector<sim::Tick> inbox; // deliveries bound for q1
    sim::Tick delivered = 0;

    q0.schedule(0, [&inbox] { inbox.push_back(hop); });

    sim::ParallelParams pp;
    pp.threads = 1;
    pp.lookahead = hop;
    sim::EpochRunner r(
        {&q0, &q1}, pp, [&](unsigned dst) {
            if (dst != 1)
                return;
            for (const sim::Tick when : inbox) {
                // The conservative invariant the whole design rests
                // on: the receiver's clock has not passed the
                // delivery tick when the barrier schedules it.
                EXPECT_GE(when, q1.now());
                q1.schedule(when,
                            [&delivered, &q1] { delivered = q1.now(); });
            }
            inbox.clear();
        });
    const sim::Tick end = r.run();

    EXPECT_EQ(delivered, hop);
    EXPECT_EQ(end, hop);
    // Epoch 1 = [0, hop] runs the send; the delivery lands exactly
    // on the boundary and must execute in epoch 2, not epoch 1.
    EXPECT_EQ(r.stats().epochs, 2u);
}

TEST(EpochRunner, OversubscriptionIsInvisible)
{
    // 4 partitions on 1, 2 (oversubscribed) and 8 (clamped) workers:
    // identical per-partition schedules, identical final clock.
    constexpr unsigned nq = 4;
    std::vector<std::vector<sim::Tick>> ref;
    sim::Tick refEnd = 0;

    for (const unsigned threads : {1u, 2u, 8u}) {
        std::vector<sim::EventQueue> qs(nq);
        // One log per partition, written only by its owning worker.
        std::vector<std::vector<sim::Tick>> logs(nq);
        for (unsigned d = 0; d < nq; ++d) {
            for (unsigned i = 0; i < 50; ++i) {
                const sim::Tick t = d * 3 + i * 97;
                qs[d].schedule(t, [&logs, d, t] {
                    logs[d].push_back(t);
                });
            }
        }
        std::vector<sim::EventQueue *> qp;
        for (auto &q : qs)
            qp.push_back(&q);

        sim::ParallelParams pp;
        pp.threads = threads;
        pp.lookahead = hop;
        sim::EpochRunner r(std::move(qp), pp, noDrain);
        EXPECT_EQ(r.workers(), std::min(threads, nq));
        const sim::Tick end = r.run();

        if (threads == 1) {
            ref = logs;
            refEnd = end;
        } else {
            EXPECT_EQ(logs, ref)
                << threads << " workers diverged from serial";
            EXPECT_EQ(end, refEnd);
        }
    }
}

TEST(EpochRunner, IdleGapsAreSkippedNotMarched)
{
    sim::EventQueue q0, q1; // q1 stays empty throughout
    bool late = false;
    q0.schedule(0, [] {});
    q0.schedule(10'000'000, [&late] { late = true; });

    sim::ParallelParams pp;
    pp.threads = 1;
    pp.lookahead = 1'000;
    sim::EpochRunner r({&q0, &q1}, pp, noDrain);
    r.run();

    EXPECT_TRUE(late);
    EXPECT_GE(r.stats().idleSkips, 1u);
    // Lockstep marching would need ~10'000 epochs; the window scan
    // must jump the gap in a handful (a few extra while a coarse
    // wheel bound refines).
    EXPECT_LE(r.stats().epochs, 10u);
}

TEST(EpochRunner, EmptyBoardFinishesImmediately)
{
    sim::EventQueue q0, q1;
    sim::ParallelParams pp;
    pp.threads = 2;
    pp.lookahead = hop;
    sim::EpochRunner r({&q0, &q1}, pp, noDrain);
    EXPECT_EQ(r.run(), 0u);
    EXPECT_EQ(r.stats().epochs, 0u);
}

TEST(EpochRunner, BoundedRunParksEveryClockOnTheLimit)
{
    sim::EventQueue q0, q1;
    q0.schedule(100, [] {});
    q1.schedule(5'000'000, [] {}); // beyond the bound

    sim::ParallelParams pp;
    pp.threads = 1;
    pp.lookahead = hop;
    sim::EpochRunner r({&q0, &q1}, pp, noDrain);
    const sim::Tick end = r.run(1'000'000);

    EXPECT_EQ(end, 1'000'000u);
    EXPECT_EQ(q0.now(), 1'000'000u);
    EXPECT_EQ(q1.now(), 1'000'000u);
    EXPECT_EQ(q1.pending(), 1u) << "the future event must survive";
}

TEST(EpochRunner, StartsRunsAndStopsCleanlyAtEveryThreadCount)
{
    for (const unsigned threads : {1u, 2u, 4u}) {
        std::vector<sim::EventQueue> qs(4);
        std::vector<sim::EventQueue *> qp;
        for (auto &q : qs)
            qp.push_back(&q);
        sim::ParallelParams pp;
        pp.threads = threads;
        pp.lookahead = hop;

        // Never run: the destructor alone must release the workers.
        { sim::EpochRunner idle(qp, pp, noDrain); }

        std::vector<unsigned> fired(4, 0);
        for (unsigned d = 0; d < 4; ++d) {
            qs[d].schedule(d * 1'000, [&fired, d] { ++fired[d]; });
            qs[d].schedule(5'000'000 + d, [&fired, d] { ++fired[d]; });
        }
        sim::EpochRunner r(qp, pp, noDrain);
        EXPECT_EQ(r.run(1'000'000), 1'000'000u) << threads;
        EXPECT_EQ(fired, std::vector<unsigned>(4, 1)) << threads;
        EXPECT_EQ(r.run(), sim::Tick(5'000'003)) << threads;
        EXPECT_EQ(fired, std::vector<unsigned>(4, 2)) << threads;
        const std::uint64_t epochs = r.stats().epochs;
        // Nothing due: returns at once on the aligned clock.
        EXPECT_EQ(r.run(), sim::Tick(5'000'003)) << threads;
        EXPECT_EQ(r.stats().epochs, epochs) << threads;
        for (const auto &q : qs)
            EXPECT_EQ(q.now(), sim::Tick(5'000'003)) << threads;
    }
}

TEST(EpochRunner, DrainRunsSeriallyInDstOrderUnderTheDstDomain)
{
    // A ring of 4 partitions: every delivery to d forwards a message
    // to d + 1, one hop later, until 40 hops have been made. Each
    // source owns one outbox (written only while it runs); the drain
    // hands it to the next partition.
    constexpr unsigned nq = 4;
    constexpr unsigned hops = 40;
    std::vector<std::vector<unsigned>> ref;

    for (const unsigned threads : {1u, 2u, 4u}) {
        std::vector<sim::EventQueue> qs(nq);
        std::vector<sim::EventQueue *> qp;
        for (auto &q : qs)
            qp.push_back(&q);
        std::vector<std::vector<sim::Tick>> outbox(nq);
        unsigned sent = 0; // touched by one partition at a time
        std::function<void(unsigned)> deliver = [&](unsigned d) {
            if (++sent < hops)
                outbox[d].push_back(qs[d].now() + hop);
        };
        qs[0].schedule(0, [&] { deliver(0); });

        std::vector<unsigned> calls; // dst of every drain call
        bool inDomain = true;
        sim::ParallelParams pp;
        pp.threads = threads;
        pp.lookahead = hop;
        sim::EpochRunner r(qp, pp, [&](unsigned dst) {
            calls.push_back(dst);
            inDomain = inDomain && sim::currentDomain() == dst;
            std::vector<sim::Tick> &in = outbox[(dst + nq - 1) % nq];
            for (const sim::Tick when : in)
                qs[dst].schedule(when, [&deliver, dst] { deliver(dst); });
            in.clear();
        });

        // Two runs: the contract holds per run, and the second run
        // picks up what the first left beyond its bound.
        std::vector<std::vector<unsigned>> perRun;
        for (const sim::Tick limit : {hops / 2 * hop, sim::maxTick}) {
            calls.clear();
            const std::uint64_t before = r.stats().epochs;
            r.run(limit);
            const std::uint64_t epochs = r.stats().epochs - before;
            ASSERT_EQ(calls.size(), (epochs + 1) * nq) << threads;
            for (std::size_t i = 0; i < calls.size(); ++i)
                EXPECT_EQ(calls[i], i % nq) << threads << " call " << i;
            perRun.push_back(calls);
        }
        EXPECT_TRUE(inDomain) << threads;
        EXPECT_EQ(sent, hops) << threads;
        if (threads == 1) {
            ref = perRun;
        } else {
            EXPECT_EQ(perRun, ref) << threads << " workers diverged";
        }
    }
}

TEST(NextDueLowerBound, BoundsAndRefines)
{
    sim::EventQueue q;
    EXPECT_EQ(q.nextDueLowerBound(), sim::maxTick);

    q.schedule(5, [] {});
    EXPECT_EQ(q.nextDueLowerBound(), 5u) << "level-0 bound is exact";

    q.schedule(1'000'000, [] {});
    EXPECT_EQ(q.nextDueLowerBound(), 5u);

    q.runWindow(5); // consume the first event
    const sim::Tick lb = q.nextDueLowerBound();
    EXPECT_GT(lb, 5u);
    EXPECT_LE(lb, 1'000'000u) << "a lower bound, never beyond";

    // Running an empty window up to the bound refines it (the wheel
    // cascades); within a few refinements it must become exact.
    sim::Tick cur = lb;
    for (unsigned i = 0; i < 8 && cur < 1'000'000u; ++i) {
        q.runWindow(cur);
        const sim::Tick next = q.nextDueLowerBound();
        EXPECT_GE(next, cur) << "bounds may only tighten";
        cur = next;
    }
    EXPECT_EQ(cur, 1'000'000u);

    // Far-heap residents bound exactly by the heap front.
    sim::EventQueue far;
    far.schedule(sim::Tick(1) << 40, [] {});
    EXPECT_EQ(far.nextDueLowerBound(), sim::Tick(1) << 40);
}
