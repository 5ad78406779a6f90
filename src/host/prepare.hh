/**
 * @file
 * Host-side preparation of serving-job inputs ahead of dispatch.
 *
 * In Section 2.4's serving model the A9 stages each request's input
 * in DDR before it dispatches the request to a core group. The
 * functional half of that staging — generating the input image and
 * the exact expected result (apps::AppSpec::prepare) — is a pure
 * function of the request, and an open-loop scheduler knows every
 * arrival before the run. So a PreparePool runs it on a few helper
 * threads while the simulation thread runs the chip, and each
 * request's PrepSlot hands the result to the dispatch that needs
 * it. Nothing here reads or writes simulated state: which thread
 * prepared a request cannot change a tick, a stat or a digest.
 */

#ifndef DPU_HOST_PREPARE_HH
#define DPU_HOST_PREPARE_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "apps/registry.hh"
#include "sim/types.hh"

namespace dpu::host {

/** What one scheduler has started preparing and not yet taken. */
struct PrepBudget
{
    /** Slots made and not yet taken or dropped. */
    std::atomic<unsigned> slots{0};
    /** Their estimated image bytes. */
    std::atomic<std::uint64_t> bytes{0};
};

/**
 * One request's preparation, shared by its scheduler (which owns
 * it) and the pool (which only holds it while a helper runs it).
 */
class PrepSlot
{
  public:
    /** Charges @p budget one slot and @p estimate image bytes
     *  until the slot is first taken or dropped. */
    PrepSlot(const apps::AppSpec &spec, apps::ConfigHandle cfg,
             std::uint64_t seed, unsigned n_lanes,
             std::shared_ptr<PrepBudget> budget,
             std::uint64_t estimate);
    ~PrepSlot();

    PrepSlot(const PrepSlot &) = delete;
    PrepSlot &operator=(const PrepSlot &) = delete;

    /** Helper side: prepare, unless the dispatch claimed it first. */
    void run();

    /**
     * Dispatch side: the prepared inputs. Waits while a helper is
     * running the slot and prepares inline when none has started
     * it. A second take (a requeued job) prepares again, because
     * the first dispatch's stage() dropped the image.
     */
    apps::PreparedInputs take();

  private:
    enum class State : std::uint8_t
    {
        Queued,
        Running,
        Done,
        Taken,
    };

    const apps::AppSpec &spec;
    const apps::ConfigHandle cfg;
    const std::uint64_t seed;
    const unsigned nLanes;
    const std::shared_ptr<PrepBudget> budget;
    const std::uint64_t estimate;

    std::mutex m; ///< guards state, out and error
    std::condition_variable cv;
    State state = State::Queued;
    apps::PreparedInputs out;
    std::exception_ptr error;
};

/**
 * A small pool of preparation helpers. Work is taken earliest
 * arrival first, so the helpers stay just ahead of the dispatches
 * of every scheduler sharing the pool.
 */
class PreparePool
{
  public:
    explicit PreparePool(unsigned helpers);
    ~PreparePool();

    PreparePool(const PreparePool &) = delete;
    PreparePool &operator=(const PreparePool &) = delete;

    /**
     * The process-wide pool: min(3, hardware threads - 1) helpers,
     * so a serial simulation plus its helpers fits four threads.
     * Started on first use.
     */
    static PreparePool &shared();

    unsigned helpers() const { return unsigned(threads.size()); }

    /** Queue @p slot, due to dispatch no earlier than @p when. A
     *  slot its scheduler dropped in the meantime is skipped. */
    void submit(sim::Tick when, std::weak_ptr<PrepSlot> slot);

  private:
    struct Work
    {
        sim::Tick when;
        std::uint64_t seq;
        std::weak_ptr<PrepSlot> slot;

        bool
        operator>(const Work &o) const
        {
            return when != o.when ? when > o.when : seq > o.seq;
        }
    };

    void helperMain();

    std::mutex m; ///< guards work, nextSeq and stopping
    std::condition_variable cv;
    std::priority_queue<Work, std::vector<Work>, std::greater<Work>>
        work;
    std::uint64_t nextSeq = 0;
    bool stopping = false;
    std::vector<std::thread> threads;
};

} // namespace dpu::host

#endif // DPU_HOST_PREPARE_HH
