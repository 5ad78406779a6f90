#include "sim/wire.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace dpu::sim {

Wire::Wire(unsigned n_channels, const WireParams &params,
           std::string stat_group, FaultSite delay_site,
           FaultSite drop_site, ChannelName name)
    : p(params), delaySite(delay_site), dropSite(drop_site),
      chanName(std::move(name)), chans(n_channels),
      stats(std::move(stat_group))
{
    sim_assert(n_channels >= 1, "a wire needs at least one channel");
    sim_assert(p.hopLatency > 0 && p.gbPerSec > 0 && p.flitBytes > 0,
               "%s: hop latency, bandwidth and flit size must all be "
               "positive", stats.name().c_str());
    stats.addFlushHook([this] { foldStats(); });
}

Tick
Wire::wireTicks(std::uint64_t bytes) const
{
    const double wire = double(std::max<std::uint64_t>(
        bytes, p.flitBytes));
    // ps per byte = 1000 / (GB/s); pure integer-in, integer-out so
    // the timing is a reproducible function of (bytes, params).
    return Tick(wire * (1000.0 / p.gbPerSec) + 0.5);
}

const Wire::Channel &
Wire::chan(unsigned ch) const
{
    sim_assert(ch < chans.size(), "%s: no channel %u",
               stats.name().c_str(), ch);
    return chans[ch];
}

Tick
Wire::send(unsigned ch, std::uint64_t bytes, Tick now, bool &dropped,
           Traffic cls)
{
    sim_assert(ch < chans.size(), "%s: no channel %u",
               stats.name().c_str(), ch);
    Channel &c = chans[ch];
    const Tick ser = wireTicks(bytes);
    const Tick tx_done = std::max(now, c.nextFree) + ser;
    c.nextFree = tx_done;

    Tick extra = 0;
    std::uint64_t mag = 0;
    FaultPlane &fp = faultPlane();
    if (fp.active() && fp.fires(delaySite, now, int(ch), &mag)) {
        extra = mag ? Tick(mag) : p.hopLatency;
        ++c.delays;
    }
    dropped = fp.active() && fp.fires(dropSite, now, int(ch), &mag);
    (dropped ? c.dropped : c.carried[unsigned(cls)]) +=
        Tally{1, bytes, ser};
    return tx_done + p.hopLatency + extra;
}

Tick
Wire::backlog(unsigned ch, Tick now) const
{
    const Tick next = chan(ch).nextFree;
    return next > now ? next - now : 0;
}

double
Wire::utilization(unsigned ch, Tick end) const
{
    if (end == 0)
        return 0;
    return double(carried(ch, Traffic::Workload).ticks) / double(end);
}

double
Wire::peakUtilization(Tick end) const
{
    double peak = 0;
    for (unsigned ch = 0; ch < chans.size(); ++ch)
        peak = std::max(peak, utilization(ch, end));
    return peak;
}

const Wire::Tally &
Wire::carried(unsigned ch, Traffic cls) const
{
    return chan(ch).carried[unsigned(cls)];
}

const Wire::Tally &
Wire::dropped(unsigned ch) const
{
    return chan(ch).dropped;
}

Wire::Tally
Wire::carried(Traffic cls) const
{
    Tally sum;
    for (const Channel &c : chans)
        sum += c.carried[unsigned(cls)];
    return sum;
}

Wire::Tally
Wire::dropped() const
{
    Tally sum;
    for (const Channel &c : chans)
        sum += c.dropped;
    return sum;
}

std::uint64_t
Wire::delays() const
{
    std::uint64_t sum = 0;
    for (const Channel &c : chans)
        sum += c.delays;
    return sum;
}

std::uint64_t
Wire::offeredBytes() const
{
    std::uint64_t sum = droppedBytes();
    for (unsigned k = 0; k < nTraffic; ++k)
        sum += carried(Traffic(k)).bytes;
    return sum;
}

void
Wire::foldStats()
{
    // Cells register only once their fate has been seen, so a run
    // that never drops, migrates or probes keeps its golden key set.
    static constexpr const char *classCells[nTraffic][2] = {
        {"msgs", "bytes"},
        {"migMsgs", "migBytes"},
        {"probeMsgs", "probeBytes"},
    };
    for (unsigned ch = 0; ch < chans.size(); ++ch) {
        const Tally &work = carried(ch, Traffic::Workload);
        if (work.msgs) {
            const std::string name = chanName(ch);
            stats.counter(name + ".bytes") = work.bytes;
            stats.counter(name + ".busyTicks") = work.ticks;
        }
    }
    for (unsigned k = 0; k < nTraffic; ++k) {
        const Tally t = carried(Traffic(k));
        if (t.msgs) {
            stats.counter(classCells[k][0]) = t.msgs;
            stats.counter(classCells[k][1]) = t.bytes;
        }
    }
    const Tally drop = dropped();
    if (drop.msgs) {
        stats.counter("drops") = drop.msgs;
        stats.counter("dropBytes") = drop.bytes;
    }
    if (const std::uint64_t d = delays())
        stats.counter("delayed") = d;
}

} // namespace dpu::sim
