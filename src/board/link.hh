/**
 * @file
 * Inter-DPU link fabric.
 *
 * A board carries N DPUs connected pairwise by full-duplex
 * serial links (think PCIe/Interlaken lanes off each chip's A9
 * complex). Each ordered (src, dst) pair is one channel of a
 * sim::Wire (sim/wire.hh: timing, `link.delay` / `link.drop`
 * faults, accounting), channel index src * nDpus + dst, so
 * concurrent messages on one pair serialize while opposite
 * directions and disjoint pairs proceed in parallel. Two kinds of
 * message share the channels:
 *
 *  - RPCs: pointer-sized control messages (ATE-style doorbells)
 *    delivered to a per-DPU handler; a dropped RPC vanishes;
 *  - bulk transfers: DMS-descriptor-sized payloads between DDR
 *    spaces; the fabric only models the wire time and invokes the
 *    caller's delivery hook, which performs the byte copy
 *    (board::Board::dma composes the two and retries drops).
 *
 * Parallel execution. Every DPU owns its own sim::EventQueue
 * partition (board::Board runs them under a sim::EpochRunner), so
 * the fabric never schedules into another chip's queue directly.
 * A send runs entirely on the source chip: it occupies its Wire
 * channel against the source clock, inside DomainScope(src) so the
 * fault draws come from the source's domain stream, and the
 * delivery is parked in the per-(src, dst) epoch mailbox. Between
 * epochs, in the barrier's serial completion step, the runner calls
 * drainInbound(dst) for every dst in ascending order while no chip
 * is running; it schedules every parked delivery into dst's queue
 * in deterministic (src, send order) sequence. Because the runner's
 * lookahead never exceeds hopLatency, a delivery tick is always at
 * or beyond the end of the epoch that produced it, so the receiving
 * clock has never passed it. That makes the parallel schedule a
 * pure function of the simulated traffic: any thread count yields
 * bit-identical stats, traces and memory images.
 *
 * Stats land in the "link" group (channel cells `ch<s>to<d>.*`),
 * plus `unhandledRpcs`.
 */

#ifndef DPU_BOARD_LINK_HH
#define DPU_BOARD_LINK_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/wire.hh"

namespace dpu::board {

/** Link timing: a modest 12 GB/s board link, 600 ns per hop, one
 *  64-byte header flit minimum. The hop latency also bounds the
 *  epoch runner's lookahead. */
struct LinkParams : sim::WireParams
{
    LinkParams() : sim::WireParams{sim::Tick(600'000), 12.0, 64} {}
};

/** The board's N x N channel matrix. */
class LinkFabric : private sim::Wire
{
  public:
    /** Per-DPU RPC delivery hook: (source DPU, payload). */
    using RpcHandler =
        std::function<void(unsigned src, std::uint64_t payload)>;
    /** Bulk delivery hook: ok=false means the link dropped it. */
    using BulkHandler = std::function<void(bool ok)>;

    LinkFabric(unsigned n_dpus, const LinkParams &params);

    unsigned size() const { return n; }

    /** Bind DPU @p dpu's event-queue partition (host phase). */
    void attach(unsigned dpu, sim::EventQueue &q);

    /** Install DPU @p dst's RPC handler (replaces any previous). */
    void onRpc(unsigned dst, RpcHandler handler);

    /**
     * Post a pointer-sized RPC from DPU @p src to DPU @p dst. A
     * dropped RPC vanishes (senders needing reliability must
     * timeout and retry, as with ATE messages). Runs on the source
     * chip; delivery is parked until drainInbound(dst).
     */
    void sendRpc(unsigned src, unsigned dst, std::uint64_t payload);

    /**
     * Occupy the (src, dst) channel with @p bytes of @p cls traffic
     * and decide the message's fate now, against the source clock.
     * @return the delivery tick; @p dropped reports a link.drop
     * (wire time spent, payload lost — the caller owns retries).
     */
    sim::Tick startBulk(unsigned src, unsigned dst,
                        std::uint64_t bytes, bool &dropped,
                        sim::Traffic cls = sim::Traffic::Workload);

    /**
     * Park @p fn in the (src, dst) mailbox for execution on DPU
     * @p dst's queue at tick @p when (a delivery tick returned by
     * startBulk). Drained in the runner's next barrier step.
     */
    void postDelivery(unsigned src, unsigned dst, sim::Tick when,
                      std::function<void()> fn);

    /**
     * Schedule every parked delivery bound for @p dst into dst's
     * queue, sources in ascending order, each channel in send
     * order. Called by the epoch runner's barrier step, while no
     * chip is running (and by hand after host-phase sends in tests).
     */
    void drainInbound(unsigned dst);

    /** Fraction of simulated time the (src, dst) channel spent
     *  serializing workload (0 when the clock has not advanced). */
    double utilization(unsigned src, unsigned dst) const;
    /** Busiest channel's utilization — the scaling bottleneck. */
    double peakUtilization() const;

    using sim::Wire::bytesCarried;
    using sim::Wire::droppedBytes;
    using sim::Wire::messages;
    using sim::Wire::migrationBytes;
    using sim::Wire::migrationMessages;
    using sim::Wire::offeredBytes;
    using sim::Wire::statGroup;

  private:
    /** One parked delivery: an RPC payload or a bulk action. */
    struct Pending
    {
        sim::Tick when = 0;
        std::uint64_t payload = 0;
        std::function<void()> fn; ///< non-empty = bulk delivery
    };

    /** The board clock for host-phase queries: after a run every
     *  partition is aligned on the final tick (0 before attach). */
    sim::Tick clock() const;

    unsigned n;
    std::vector<sim::EventQueue *> queues;
    /** Epoch mailboxes, indexed src * n + dst. A mailbox is written
     *  by src's thread in the compute phase and read by the runner's
     *  barrier step; the barrier orders the two. */
    std::vector<std::vector<Pending>> inbox;
    std::vector<RpcHandler> handlers;
    /** Per-dst count of RPCs delivered with no handler installed. */
    std::vector<std::uint64_t> unhandled;
};

} // namespace dpu::board

#endif // DPU_BOARD_LINK_HH
