/**
 * @file
 * The serialized store-and-forward channel every network tier
 * shares (DESIGN.md §12).
 *
 * A Wire is a set of independent channels, each with one message
 * in serialization at a time:
 *
 *   txStart  = max(now, channel.nextFree)
 *   txDone   = txStart + serialization(max(bytes, flitBytes))
 *   delivery = txDone + hopLatency [+ delay magnitude]
 *
 * so a burst on one channel queues behind itself while other
 * channels stay clear, and a send whose @p now lies behind the
 * channel's backlog never rewinds it. The tier picks what a channel
 * is (board::LinkFabric: one per ordered DPU pair; rack::RackNet:
 * one ingress pipe per board) and which FaultSites it draws.
 *
 * Faults ride the process-wide plane (sim/fault.hh), in the calling
 * execution domain, with the channel index as the fault `unit`: the
 * delay site first (adds `mag` ticks, or one more hop when mag is
 * 0), then the drop site. A dropped message burned its wire time —
 * nextFree still advances — but its payload is lost; the caller
 * owns retry or failover.
 *
 * Accounting follows the xfer_stat idiom (SNIPPETS.md snippet 3):
 * every send lands in exactly one fate — carried, per Traffic class,
 * or dropped — with msgs, bytes and wire ticks, so
 * offered == carried(Workload) + carried(Migration) +
 * carried(Probe) + dropped holds per channel by construction.
 * bytesCarried()/messages()/utilization() describe carried Workload
 * traffic only. The tallies are plain members of the sending thread
 * and are folded into the tier's StatGroup in a flush hook.
 */

#ifndef DPU_SIM_WIRE_HH
#define DPU_SIM_WIRE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/fault.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace dpu::sim {

/** Channel timing; each tier names its one constant
 *  (board::linkTiming, rack::netTiming). */
struct WireParams
{
    /** Propagation + endpoint turnaround per message. */
    Tick hopLatency = 0;
    /** Per-channel serialization bandwidth. */
    double gbPerSec = 0;
    /** Minimum wire occupancy per message (header flit). */
    std::uint32_t flitBytes = 0;
};

/** What a message carries (xfer_stat-style breakdown). */
enum class Traffic : std::uint8_t
{
    Workload,  ///< what the apps and the front-end moved
    Migration, ///< balancer state chunks and forwarding deltas
    Probe,     ///< health-monitor heartbeats
};

constexpr unsigned nTraffic = 3;

class Wire
{
  public:
    /** Stat-cell prefix of channel @p ch (only called when folding). */
    using ChannelName = std::function<std::string(unsigned ch)>;

    /** One fate's tally on one channel. */
    struct Tally
    {
        std::uint64_t msgs = 0;
        std::uint64_t bytes = 0;
        Tick ticks = 0; ///< wire (serialization) time

        Tally &
        operator+=(const Tally &o)
        {
            msgs += o.msgs;
            bytes += o.bytes;
            ticks += o.ticks;
            return *this;
        }
    };

    /** Fatal unless every field of @p params is positive. */
    Wire(unsigned n_channels, const WireParams &params,
         std::string stat_group, FaultSite delay_site,
         FaultSite drop_site, ChannelName name);

    unsigned channels() const { return unsigned(chans.size()); }
    const WireParams &params() const { return p; }

    /**
     * Occupy channel @p ch with @p bytes of @p cls traffic, offered
     * at tick @p now, and decide the message's fate. @return the
     * delivery tick; @p dropped reports the drop site firing.
     */
    Tick send(unsigned ch, std::uint64_t bytes, Tick now,
              bool &dropped, Traffic cls = Traffic::Workload);

    /** Ticks channel @p ch is already committed past @p now. */
    Tick backlog(unsigned ch, Tick now) const;
    /** Wire (serialization) ticks @p bytes would occupy. */
    Tick wireTicks(std::uint64_t bytes) const;

    /** Fraction of [0, end] channel @p ch spent serializing carried
     *  Workload traffic (0 when end is 0). */
    double utilization(unsigned ch, Tick end) const;
    /** Busiest channel's utilization over [0, end]. */
    double peakUtilization(Tick end) const;

    /** Carried tally of class @p cls on channel @p ch. */
    const Tally &carried(unsigned ch, Traffic cls) const;
    /** Dropped tally (every class) on channel @p ch. */
    const Tally &dropped(unsigned ch) const;
    /** The same, summed over every channel. */
    Tally carried(Traffic cls) const;
    Tally dropped() const;
    /** Sends the delay site stretched. */
    std::uint64_t delays() const;

    /** Workload bytes / messages that reached their destination. */
    std::uint64_t
    bytesCarried() const
    {
        return carried(Traffic::Workload).bytes;
    }
    std::uint64_t
    messages() const
    {
        return carried(Traffic::Workload).msgs;
    }
    /** Migration-class bytes / messages delivered. */
    std::uint64_t
    migrationBytes() const
    {
        return carried(Traffic::Migration).bytes;
    }
    std::uint64_t
    migrationMessages() const
    {
        return carried(Traffic::Migration).msgs;
    }
    /** Bytes and sends lost to the drop site (wire time burned). */
    std::uint64_t droppedBytes() const { return dropped().bytes; }
    std::uint64_t drops() const { return dropped().msgs; }
    /** Everything offered: every carried class plus dropped. */
    std::uint64_t offeredBytes() const;

    StatGroup &statGroup() { return stats; }

  private:
    struct Channel
    {
        Tick nextFree = 0;
        std::array<Tally, nTraffic> carried{};
        Tally dropped;
        std::uint64_t delays = 0;
    };

    const Channel &chan(unsigned ch) const;

    void foldStats();

    WireParams p;
    FaultSite delaySite;
    FaultSite dropSite;
    ChannelName chanName;
    std::vector<Channel> chans;
    StatGroup stats;
};

} // namespace dpu::sim

#endif // DPU_SIM_WIRE_HH
