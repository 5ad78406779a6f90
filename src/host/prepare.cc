#include "host/prepare.hh"

#include <algorithm>
#include <utility>

#ifdef __GLIBC__
#include <malloc.h>
#endif

namespace dpu::host {

PrepSlot::PrepSlot(const apps::AppSpec &spec_, apps::ConfigHandle cfg_,
                   std::uint64_t seed_, unsigned n_lanes,
                   std::shared_ptr<PrepBudget> budget_,
                   std::uint64_t estimate_)
    : spec(spec_), cfg(std::move(cfg_)), seed(seed_), nLanes(n_lanes),
      budget(std::move(budget_)), estimate(estimate_)
{
    ++budget->slots;
    budget->bytes += estimate;
}

PrepSlot::~PrepSlot()
{
    // The last owner is going: no helper can be running the slot.
    if (state != State::Taken) {
        --budget->slots;
        budget->bytes -= estimate;
    }
}

void
PrepSlot::run()
{
    {
        std::lock_guard<std::mutex> lk(m);
        if (state != State::Queued)
            return;
        state = State::Running;
    }
    apps::PreparedInputs made;
    std::exception_ptr failed;
    try {
        made = spec.prepare(cfg, seed, nLanes);
    } catch (...) {
        failed = std::current_exception();
    }
    {
        std::lock_guard<std::mutex> lk(m);
        out = std::move(made);
        error = failed;
        state = State::Done;
    }
    cv.notify_all();
}

apps::PreparedInputs
PrepSlot::take()
{
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [this] { return state != State::Running; });
    const State was = std::exchange(state, State::Taken);
    if (was != State::Taken) {
        --budget->slots;
        budget->bytes -= estimate;
    }
    if (was == State::Done) {
        if (error)
            std::rethrow_exception(error);
        return std::exchange(out, {});
    }
    lk.unlock();
    return spec.prepare(cfg, seed, nLanes);
}

PreparePool::PreparePool(unsigned helpers)
{
    threads.reserve(helpers);
    for (unsigned i = 0; i < helpers; ++i)
        threads.emplace_back([this] { helperMain(); });
}

PreparePool::~PreparePool()
{
    {
        std::lock_guard<std::mutex> lk(m);
        stopping = true;
    }
    cv.notify_all();
    for (std::thread &t : threads)
        t.join();
}

PreparePool &
PreparePool::shared()
{
    // Build the registry first so it outlives the helpers that
    // read it until the pool is destroyed at exit.
    (void)apps::registry();
#ifdef __GLIBC__
    // Input images bypass malloc (apps::ImageAllocator), so nothing
    // raises glibc's dynamic thresholds any more and the simulation
    // thread's heap would be trimmed and re-faulted between runs.
    // Pin the values those thresholds reach on their own.
    static const bool pinned =
        mallopt(M_MMAP_THRESHOLD, 32 << 20) &&
        mallopt(M_TRIM_THRESHOLD, 64 << 20);
    (void)pinned;
#endif
    static PreparePool pool(
        std::min(3u, std::max(1u, std::thread::hardware_concurrency()) -
                         1));
    return pool;
}

void
PreparePool::submit(sim::Tick when, std::weak_ptr<PrepSlot> slot)
{
    {
        std::lock_guard<std::mutex> lk(m);
        work.push({when, nextSeq++, std::move(slot)});
    }
    cv.notify_one();
}

void
PreparePool::helperMain()
{
    for (;;) {
        std::shared_ptr<PrepSlot> slot;
        {
            std::unique_lock<std::mutex> lk(m);
            cv.wait(lk, [this] { return stopping || !work.empty(); });
            if (stopping)
                return;
            slot = work.top().slot.lock();
            work.pop();
        }
        if (slot)
            slot->run();
    }
}

} // namespace dpu::host
