/**
 * @file
 * Conservative parallel runner for sharded event kernels.
 *
 * The EpochRunner advances a set of EventQueue partitions (one per
 * execution domain — on a board, one per DPU) in BSP-style epochs,
 * one std::barrier crossing per epoch:
 *
 *   compute: every worker free-runs the partitions it owns (static
 *            ownership d % workers) with runWindow(epochEnd), then
 *            arrives at the barrier;
 *   step:    the barrier's completion step runs once, on the last
 *            thread to arrive, while every other worker is parked.
 *            It counts the epoch that just ran, drains every
 *            partition's inbound cross-partition messages (posted
 *            to mailboxes during compute) in ascending dst order,
 *            then scans next = min nextDueLowerBound() and publishes
 *            the window epochEnd = min(limit, next + lookahead) —
 *            or ends the run when nothing is due by the limit.
 *
 * A run starts with the caller's own arrival, so the first step
 * drains what the host phase posted between runs. --threads 1 is
 * the same code: a barrier with one participant.
 *
 * Conservative correctness: with lookahead <= the minimum
 * cross-partition delivery latency (a board link's store-and-forward
 * hopLatency), any message sent at tick t inside an epoch delivers
 * at >= t + latency >= epochEnd, i.e. always at or after the
 * receiving partition's clock when the step schedules it — no
 * partition ever receives an event in its past, so no rollback is
 * needed. lookahead == 0 degenerates to tick-lockstep (every epoch
 * is a single tick), the serial-order fallback.
 *
 * Determinism: each partition executes exactly the same local event
 * sequence whatever the thread count, because (a) per-queue seq
 * counters make same-tick FIFO order a partition-local property,
 * (b) all cross-partition interaction is mailbox-mediated and
 * drained in a fixed order by the serial step, and (c) per-domain
 * state (fault RNG streams, trace rings — see sim/domain.hh) is
 * keyed by domain, not by thread. Every thread count runs the
 * identical epoch schedule, so "parallel equals serial" holds by
 * construction and is enforced bit-exactly by the test wall.
 *
 * Clock protocol: partitions advance with runWindow(), which leaves
 * each clock on its last executed event; when the run ends the
 * runner parks every clock on the common final tick (the global max
 * event tick, or the bound of a limited run), so host-phase code
 * between runs sees one aligned board clock — exactly the clock a
 * single shared queue would have shown.
 */

#ifndef DPU_SIM_PARALLEL_HH
#define DPU_SIM_PARALLEL_HH

#include <barrier>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace dpu::sim {

/** The partition the calling thread is currently advancing, or
 *  nullptr outside an EpochRunner compute phase. Lets a facade over
 *  N partitions (board::Board::now()) report the running clock. */
const EventQueue *activeEventQueue();

/** Knobs for EpochRunner. */
struct ParallelParams
{
    /** Worker threads, caller included (clamped to the partition
     *  count). 1 = every epoch on the caller's thread. */
    unsigned threads = 1;
    /** Free-run window; must not exceed the minimum cross-partition
     *  delivery latency. 0 = tick-lockstep. */
    Tick lookahead = 0;
};

/** Epoch-barrier coordinator over a fixed set of partitions. */
class EpochRunner
{
  public:
    /**
     * @param queues  One partition per domain; domain d's events run
     *                under DomainScope(d).
     * @param params  Thread count / lookahead.
     * @param drain   drain(dst): schedule domain dst's pending
     *                inbound messages into queues[dst]. Called by the
     *                serial barrier step under DomainScope(dst), for
     *                every dst in ascending order, at the start of
     *                each run and after every epoch — (epochs + 1) x
     *                partitions calls per run — while no partition
     *                is running.
     */
    EpochRunner(std::vector<EventQueue *> queues,
                const ParallelParams &params,
                std::function<void(unsigned dst)> drain);
    ~EpochRunner();

    EpochRunner(const EpochRunner &) = delete;
    EpochRunner &operator=(const EpochRunner &) = delete;

    /**
     * Run every partition until all drain or every clock reaches
     * @p limit; all clocks land aligned on the returned final tick
     * (the global last event tick, or @p limit when bounded).
     */
    Tick run(Tick limit = maxTick);

    /** Runner telemetry, for the barrier/lookahead unit tests. */
    struct Stats
    {
        std::uint64_t epochs = 0;
        /** Epochs whose window start jumped past the previous
         *  window's end — idle gaps skipped, not marched through. */
        std::uint64_t idleSkips = 0;
        /** Compute phases that executed zero events (a coarse
         *  wheel-window lower bound being refined). */
        std::uint64_t emptyEpochs = 0;
    };

    const Stats &stats() const { return st; }
    unsigned workers() const { return nWorkers; }

  private:
    /** The barrier's completion function. */
    struct Step
    {
        EpochRunner *r;
        void operator()() noexcept { r->step(); }
    };

    void workerMain(unsigned w);
    /** Advance every partition owned by worker @p w to epochEnd. */
    void runOwned(unsigned w);
    /** The serial work between two epochs (see the file comment). */
    void step();

    std::vector<EventQueue *> queues;
    ParallelParams p;
    std::function<void(unsigned dst)> drainFn;
    unsigned nWorkers;

    // Run request: written by the caller before it arrives, read
    // only by the step.
    Tick limit = maxTick;
    bool stopRequested = false;

    // Written only by the step; workers read them after the barrier.
    bool active = false; ///< an epoch window is published
    bool stop = false;   ///< workers exit
    Tick epochEnd = 0;

    /** Events each worker executed in the last epoch. */
    std::vector<std::uint64_t> executed;
    std::barrier<Step> barrier;
    std::vector<std::thread> pool;

    Stats st;
};

} // namespace dpu::sim

#endif // DPU_SIM_PARALLEL_HH
