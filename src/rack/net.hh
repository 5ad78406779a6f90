/**
 * @file
 * Inter-board rack network timing model.
 *
 * The paper's deployment put 500+ DPUs behind an Infiniband fabric
 * (Section 6); a rack here is N boards fed by one front-end over a
 * network that is slower and fatter-grained than the intra-board
 * LinkFabric: a few microseconds of stack+switch latency per
 * message instead of 600 ns, and a per-board ingress pipe instead
 * of an all-pairs channel matrix.
 *
 * The model is intentionally host-phase only. Rack routing is
 * static — every request's destination board and delivery tick are
 * decided at enqueue time, before any board simulates a single
 * event — so the network never needs to schedule into a board's
 * event-queue partitions. Each board has one ingress channel with
 * the same store-and-forward shape as the board links:
 *
 *   txStart  = max(arrival, channel.nextFree)
 *   txDone   = txStart + serialization(bytes)
 *   delivery = txDone + hopLatency [+ rack.netDelay magnitude]
 *
 * so a burst aimed at one board queues behind itself while other
 * boards' ingress pipes stay clear. Because delivery ticks are
 * computed in admission order in the host phase, the whole rack
 * schedule stays a pure function of the trace: bit-identical at
 * any --threads count.
 *
 * Faults ride the process-wide plane (sim/fault.hh), domain 0 —
 * admission runs in the host phase, in a fixed order, so the
 * decisions replay exactly: `rack.netDrop` loses a request after
 * it burned its wire time (the scheduler fails over to the next
 * replica), `rack.netDelay` adds `mag` ticks to one delivery. The
 * fault `unit` is the destination board.
 *
 * Everything lands in the "racknet" StatGroup: aggregate msgs /
 * bytes / drops / delays plus per-board ingress bytes and busy
 * ticks, from which utilization() derives occupancy. Accounting
 * follows the xfer_stat idiom — carried vs lost vs migration
 * traffic are tracked per channel: a dropped message burns wire
 * time (nextFree still advances, so later deliveries queue behind
 * it) but its bytes land in dropBytes, never in bytes /
 * busyTicks / bytesCarried(), so utilization and carried-byte
 * stats describe traffic that actually reached a board. Partition
 * hand-offs (balance/ledger.hh) tag their transfers Migration and
 * are broken out as migBytes on top of the carried totals.
 */

#ifndef DPU_RACK_NET_HH
#define DPU_RACK_NET_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace dpu::rack {

/** Rack network knobs (defaults: a 4 GB/s ingress pipe per board
 *  behind ~5 us of fabric+stack latency). */
struct NetParams
{
    /** Switch traversal + NIC + driver stack per message. */
    sim::Tick hopLatency = sim::Tick(5'000'000); // 5 us
    /** Per-board ingress serialization bandwidth. */
    double gbPerSec = 4.0;
    /** Minimum wire occupancy per message (header + RDMA setup). */
    std::uint32_t flitBytes = 256;

    /** "" when usable; else a sentence naming the offending field. */
    std::string validate() const;
};

/** What a rack message carries (xfer_stat-style breakdown). */
enum class NetTraffic : std::uint8_t
{
    Request,   ///< front-end request payloads
    Migration, ///< partition-state hand-offs (balance/ledger.hh)
    Probe,     ///< health-monitor heartbeats (rack/health.hh)
};

/** N per-board ingress channels behind one front-end. */
class RackNet
{
  public:
    RackNet(unsigned n_boards, const NetParams &params);

    unsigned size() const { return n; }
    const NetParams &params() const { return p; }

    /**
     * Carry @p bytes of @p cls traffic to board @p dst, arriving
     * at the front-end at tick @p now. @return the delivery tick
     * at the board's host; @p dropped reports a rack.netDrop
     * firing (wire time spent, payload lost — the caller owns
     * failover / migration abort). Host-phase only. Calls should
     * come in roughly nondecreasing @p now order; locally
     * out-of-order sends (e.g. failover-penalty retries landing
     * behind later arrivals) are tolerated — tx starts at
     * max(now, nextFree), so the channel never rewinds.
     */
    sim::Tick deliver(unsigned dst, std::uint64_t bytes,
                      sim::Tick now, bool &dropped,
                      NetTraffic cls = NetTraffic::Request);

    /**
     * Ticks the board @p dst ingress pipe is already committed
     * past @p now (queued serialization of earlier messages). The
     * brown-out controller uses it to predict a request's delivery
     * delay from observable front-end state.
     */
    sim::Tick backlog(unsigned dst, sim::Tick now) const;

    /** Wire (serialization) ticks @p bytes would occupy. */
    sim::Tick wireTicks(std::uint64_t bytes) const
    {
        return serTicks(bytes);
    }

    /** Fraction of [0, end] the board @p dst ingress pipe spent
     *  serializing traffic that was actually delivered. */
    double utilization(unsigned dst, sim::Tick end) const;

    /** Busiest ingress pipe's utilization over [0, end]. */
    double peakUtilization(sim::Tick end) const;

    /** Bytes delivered to boards (dropped payloads excluded). */
    std::uint64_t bytesCarried() const;
    /** Bytes lost to rack.netDrop (wire time burned, not carried). */
    std::uint64_t droppedBytes() const;
    /** Carried bytes that were partition-migration payload. */
    std::uint64_t migrationBytes() const;
    /** Carried bytes that were health-probe payload. */
    std::uint64_t probeBytes() const;
    /** Delivery attempts, dropped ones included. */
    std::uint64_t messages() const;
    std::uint64_t drops() const;

    sim::StatGroup &statGroup() { return stats; }

  private:
    /** One board's ingress channel. */
    struct Channel
    {
        sim::Tick nextFree = 0;
        sim::Tick busyTicks = 0; ///< carried traffic only
        std::uint64_t bytes = 0; ///< carried traffic only
        std::uint64_t msgs = 0;
        std::uint64_t drops = 0;
        std::uint64_t delays = 0;
        /** Wire time / payload burned by dropped messages. */
        sim::Tick dropTicks = 0;
        std::uint64_t dropBytes = 0;
        /** Carried migration traffic (subset of bytes/msgs). */
        std::uint64_t migBytes = 0;
        std::uint64_t migMsgs = 0;
        /** Carried heartbeat traffic (subset of bytes/msgs). */
        std::uint64_t probeBytes = 0;
        std::uint64_t probeMsgs = 0;
    };

    /** Wire ticks for @p bytes at the configured bandwidth. */
    sim::Tick serTicks(std::uint64_t bytes) const;

    /** Fold the channel tallies into the StatGroup cells. */
    void foldStats();

    unsigned n;
    NetParams p;
    std::vector<Channel> chans;
    sim::StatGroup stats;
};

} // namespace dpu::rack

#endif // DPU_RACK_NET_HH
