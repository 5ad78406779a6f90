/**
 * @file
 * Inter-DPU link fabric timing model.
 *
 * A board carries N DPUs connected pairwise by full-duplex
 * serial links (think PCIe/Interlaken lanes off each chip's A9
 * complex). The fabric models each ordered (src, dst) pair as an
 * independent channel with a store-and-forward cost:
 *
 *   txStart  = max(now, channel.nextFree)
 *   txDone   = txStart + serialization(bytes)
 *   delivery = txDone + hopLatency [+ link.delay magnitude]
 *
 * so concurrent messages on one channel serialize while opposite
 * directions and disjoint pairs proceed in parallel. Two traffic
 * classes share the channels:
 *
 *  - RPCs: pointer-sized control messages (ATE-style doorbells)
 *    delivered to a per-DPU handler;
 *  - bulk transfers: DMS-descriptor-sized payloads between DDR
 *    spaces; the fabric only models the wire time and invokes the
 *    caller's delivery hook, which performs the byte copy
 *    (board::Board::dma composes the two).
 *
 * Parallel execution. Every DPU owns its own sim::EventQueue
 * partition (board::Board runs them under a sim::EpochRunner), so
 * the fabric never schedules into another chip's queue directly.
 * A send runs entirely on the source chip — channel occupancy,
 * fault decisions and the delivery tick are all computed
 * synchronously against the source clock — and the delivery is
 * parked in the per-(src, dst) epoch mailbox. At each epoch barrier
 * the runner calls drainInbound(dst) on the thread that owns dst,
 * which schedules every parked delivery into dst's queue in
 * deterministic (src, send order) sequence. Because the runner's
 * lookahead never exceeds hopLatency, a delivery tick is always at
 * or beyond the end of the epoch that produced it, so the receiving
 * clock has never passed it. That makes the parallel schedule a
 * pure function of the simulated traffic: any thread count yields
 * bit-identical stats, traces and memory images.
 *
 * Faults ride the process-wide plane (sim/fault.hh): `link.drop`
 * loses a message after it burned its wire time (RPCs vanish, bulk
 * deliveries are lost so the sender retries), `link.delay` adds
 * `mag` ticks to one delivery. The fault `unit` of a channel is
 * src * nDpus + dst; decisions draw from the SOURCE chip's domain
 * stream (the fabric enters DomainScope(src) for the decision), so
 * they too are independent of thread interleaving.
 *
 * Everything lands in the "link" StatGroup: aggregate msgs / bytes /
 * drops / delays plus per-channel bytes and busy ticks, from which
 * utilization() derives per-channel and peak occupancy. The cells
 * are fed from per-channel shadows owned by the source thread and
 * folded in a flush hook, so parallel partitions never touch the
 * shared map.
 */

#ifndef DPU_BOARD_LINK_HH
#define DPU_BOARD_LINK_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace dpu::board {

/** Link timing knobs (defaults: a modest 12 GB/s board link). */
struct LinkParams
{
    /** Propagation + SerDes + endpoint turnaround per message. */
    sim::Tick hopLatency = sim::Tick(600'000); // 600 ns
    /** Per-direction serialization bandwidth. */
    double gbPerSec = 12.0;
    /** Minimum wire occupancy per message (header flit). */
    std::uint32_t flitBytes = 64;

    /** "" when usable; else a sentence naming the offending field. */
    std::string validate() const;
};

/**
 * Bulk-transfer traffic class. Workload bytes are what the apps
 * moved; Migration bytes are the balancer's re-shard traffic
 * (state chunks + forwarding-epoch deltas). The split keeps
 * utilization/bytes JSON honest: re-sharding burns wire time on
 * the same channels but is accounted separately, mirroring the
 * rack tier's carried/dropped/migration counters.
 */
enum class LinkTraffic : std::uint8_t
{
    Workload,
    Migration,
};

/** The board's N x N channel matrix. */
class LinkFabric
{
  public:
    /** Per-DPU RPC delivery hook: (source DPU, payload). */
    using RpcHandler =
        std::function<void(unsigned src, std::uint64_t payload)>;
    /** Bulk delivery hook: ok=false means the link dropped it. */
    using BulkHandler = std::function<void(bool ok)>;

    LinkFabric(unsigned n_dpus, const LinkParams &params);

    unsigned size() const { return n; }
    const LinkParams &params() const { return p; }

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
     * Occupy the (src, dst) channel with @p bytes of payload and
     * decide the message's fate now, against the source clock.
     * @return the delivery tick; @p dropped reports a link.drop
     * (wire time spent, payload lost — the caller owns retries).
     * @p cls attributes the bytes: workload vs migration.
     */
    sim::Tick startBulk(unsigned src, unsigned dst,
                        std::uint64_t bytes, bool &dropped,
                        LinkTraffic cls = LinkTraffic::Workload);

    /**
     * Park @p fn in the (src, dst) mailbox for execution on DPU
     * @p dst's queue at tick @p when (a delivery tick returned by
     * startBulk). Drained at the next epoch barrier.
     */
    void postDelivery(unsigned src, unsigned dst, sim::Tick when,
                      std::function<void()> fn);

    /**
     * Schedule every parked delivery bound for @p dst into dst's
     * queue, sources in ascending order, each channel in send
     * order. Called by the epoch runner on the thread owning dst
     * (and by hand after host-phase sends in tests).
     */
    void drainInbound(unsigned dst);

    /** Parked deliveries across all mailboxes (diagnostics). */
    std::size_t inboundPending() const;

    /** Fraction of simulated time the (src, dst) channel spent
     *  serializing (0 when the clock has not advanced). */
    double utilization(unsigned src, unsigned dst) const;

    /** Busiest channel's utilization — the scaling bottleneck. */
    double peakUtilization() const;

    /** Workload bytes that reached their destination. */
    std::uint64_t bytesCarried() const;
    /** Workload messages that reached their destination. */
    std::uint64_t messages() const;
    /** Bytes lost to link.drop (wire time was still burned). */
    std::uint64_t droppedBytes() const;
    /** Migration-class bytes delivered (re-shard traffic). */
    std::uint64_t migrationBytes() const;
    std::uint64_t migrationMessages() const;
    /** Everything offered to the wire:
     *  carried + dropped + migration. */
    std::uint64_t offeredBytes() const;

    sim::StatGroup &statGroup() { return stats; }

  private:
    /** One ordered (src, dst) channel; owned by src's thread. The
     *  byte/msg/tick tallies are exclusive by message fate — every
     *  message lands in exactly one of carried (bytes/msgs/
     *  busyTicks), dropped, or migration — so the classes sum to
     *  the offered total. */
    struct Channel
    {
        sim::Tick nextFree = 0;
        sim::Tick busyTicks = 0; ///< carried workload wire time
        std::uint64_t bytes = 0; ///< carried workload bytes
        std::uint64_t msgs = 0;  ///< carried workload messages
        std::uint64_t drops = 0;
        std::uint64_t delays = 0;
        std::uint64_t dropBytes = 0;
        sim::Tick dropTicks = 0;
        std::uint64_t migMsgs = 0;
        std::uint64_t migBytes = 0;
        sim::Tick migTicks = 0;
    };

    /** One parked delivery: an RPC payload or a bulk action. */
    struct Pending
    {
        sim::Tick when = 0;
        std::uint64_t payload = 0;
        std::function<void()> fn; ///< non-empty = bulk delivery
    };

    Channel &chan(unsigned s, unsigned d) { return chans[s * n + d]; }
    const Channel &
    chan(unsigned s, unsigned d) const
    {
        return chans[s * n + d];
    }

    /** Wire ticks for @p bytes at the configured bandwidth. */
    sim::Tick serTicks(std::uint64_t bytes) const;

    /**
     * Occupy the channel and decide the message's fate against the
     * source clock, in the source's fault domain. @return the
     * delivery tick; @p dropped reports a link.drop firing.
     */
    sim::Tick transit(unsigned src, unsigned dst,
                      std::uint64_t bytes, bool &dropped,
                      LinkTraffic cls);

    /** Fold the channel shadows into the StatGroup cells. */
    void foldStats();

    unsigned n;
    LinkParams p;
    std::vector<sim::EventQueue *> queues;
    std::vector<Channel> chans;
    /** Epoch mailboxes, indexed src * n + dst. A mailbox is written
     *  by src's thread in the compute phase and read by dst's thread
     *  in the drain phase; the runner's barriers order the two. */
    std::vector<std::vector<Pending>> inbox;
    std::vector<RpcHandler> handlers;
    /** Per-dst count of RPCs delivered with no handler installed. */
    std::vector<std::uint64_t> unhandled;
    sim::StatGroup stats;
};

} // namespace dpu::board

#endif // DPU_BOARD_LINK_HH
