/**
 * @file
 * EpochRunner implementation: the worker pool, the barrier step, and
 * the end-of-run clock alignment.
 */

#include "sim/parallel.hh"

#include <algorithm>

#include "sim/domain.hh"
#include "sim/logging.hh"

namespace dpu::sim {

namespace {

thread_local const EventQueue *activeQueue = nullptr;

/** RAII activeEventQueue() marker around one partition's window. */
class ActiveQueueScope
{
  public:
    explicit ActiveQueueScope(const EventQueue *q) : prev(activeQueue)
    {
        activeQueue = q;
    }
    ~ActiveQueueScope() { activeQueue = prev; }

  private:
    const EventQueue *prev;
};

} // namespace

const EventQueue *
activeEventQueue()
{
    return activeQueue;
}

EpochRunner::EpochRunner(std::vector<EventQueue *> queues_,
                         const ParallelParams &params,
                         std::function<void(unsigned dst)> drain)
    : queues(std::move(queues_)), p(params), drainFn(std::move(drain)),
      nWorkers(std::max(1u, std::min(p.threads,
                                     unsigned(queues.size())))),
      executed(nWorkers), barrier(nWorkers, Step{this})
{
    sim_assert(!queues.empty(), "EpochRunner needs a partition");
    pool.reserve(nWorkers - 1);
    for (unsigned w = 1; w < nWorkers; ++w)
        pool.emplace_back([this, w] { workerMain(w); });
}

EpochRunner::~EpochRunner()
{
    stopRequested = true;
    barrier.arrive_and_wait();
    for (auto &t : pool)
        t.join();
}

void
EpochRunner::workerMain(unsigned w)
{
    for (;;) {
        barrier.arrive_and_wait();
        if (stop)
            return;
        if (active)
            runOwned(w);
    }
}

void
EpochRunner::runOwned(unsigned w)
{
    std::uint64_t n = 0;
    for (unsigned d = w; d < queues.size(); d += nWorkers) {
        DomainScope ds(d);
        ActiveQueueScope qs(queues[d]);
        n += queues[d]->runWindow(epochEnd);
    }
    executed[w] = n;
}

void
EpochRunner::step()
{
    if (stopRequested) {
        stop = true;
        return;
    }
    if (active) { // count the epoch that just ran
        ++st.epochs;
        std::uint64_t n = 0;
        for (const std::uint64_t e : executed)
            n += e;
        if (n == 0)
            ++st.emptyEpochs;
    }
    for (unsigned d = 0; d < queues.size(); ++d) {
        DomainScope ds(d);
        drainFn(d);
    }

    Tick next = maxTick;
    for (const EventQueue *q : queues)
        next = std::min(next, q->nextDueLowerBound());
    if (next == maxTick || next > limit) {
        active = false;
        return;
    }
    Tick end = next + p.lookahead;
    if (end < next || end > limit) // overflow or bound
        end = limit;
    if (active && next > epochEnd) // a gap after this run's last window
        ++st.idleSkips;
    epochEnd = end;
    active = true;
}

Tick
EpochRunner::run(Tick limit_)
{
    // The caller is worker 0. Its first arrival starts the run: that
    // step drains what the host phase posted between runs, then
    // publishes the first window.
    limit = limit_;
    for (;;) {
        barrier.arrive_and_wait();
        if (!active)
            break;
        runOwned(0);
    }

    // Align every clock on the common final tick so host-phase code
    // between runs sees the one board clock a shared queue showed.
    Tick final = 0;
    if (limit != maxTick) {
        final = limit;
    } else {
        for (const EventQueue *q : queues)
            final = std::max(final, q->now());
    }
    for (EventQueue *q : queues) {
        if (q->now() < final)
            q->run(final); // executes nothing; parks the clock
    }
    return final;
}

} // namespace dpu::sim
