#include "rack/net.hh"

#include <algorithm>

#include "sim/fault.hh"
#include "sim/logging.hh"

namespace dpu::rack {

std::string
NetParams::validate() const
{
    if (gbPerSec <= 0)
        return "the rack network bandwidth must be positive "
               "(NetParams.gbPerSec = " +
               std::to_string(gbPerSec) + ")";
    if (hopLatency == 0)
        return "the rack network hop latency must be positive "
               "(NetParams.hopLatency = 0)";
    if (flitBytes == 0)
        return "the rack network flit size must be positive "
               "(NetParams.flitBytes = 0)";
    return "";
}

RackNet::RackNet(unsigned n_boards, const NetParams &params)
    : n(n_boards), p(params), chans(n), stats("racknet")
{
    sim_assert(n >= 1, "a rack network needs at least one board");
    const std::string err = p.validate();
    sim_assert(err.empty(), "%s", err.c_str());
    stats.addFlushHook([this] { foldStats(); });
}

sim::Tick
RackNet::serTicks(std::uint64_t bytes) const
{
    const double wire =
        double(std::max<std::uint64_t>(bytes, p.flitBytes));
    // ps per byte = 1000 / (GB/s), same shape as the board links.
    return sim::Tick(wire * (1000.0 / p.gbPerSec) + 0.5);
}

sim::Tick
RackNet::deliver(unsigned dst, std::uint64_t bytes, sim::Tick now,
                 bool &dropped, NetTraffic cls)
{
    sim_assert(dst < n, "request aimed off the rack (board %u)",
               dst);
    Channel &c = chans[dst];
    const sim::Tick ser = serTicks(bytes);
    const sim::Tick tx_start = std::max(now, c.nextFree);
    const sim::Tick tx_done = tx_start + ser;
    // The wire is occupied either way — a drop happens in the
    // switch, after serialization — so nextFree always advances.
    c.nextFree = tx_done;
    ++c.msgs;

    // Admission runs in the host phase (domain 0) in a fixed order,
    // so these draws replay exactly under the same spec + seed.
    sim::Tick extra = 0;
    std::uint64_t mag = 0;
    sim::FaultPlane &fp = sim::faultPlane();
    if (fp.active() &&
        fp.fires(sim::FaultSite::RackNetDelay, now, int(dst),
                 &mag)) {
        extra = mag ? sim::Tick(mag) : p.hopLatency;
        ++c.delays;
    }
    dropped = fp.active() &&
              fp.fires(sim::FaultSite::RackNetDrop, now, int(dst),
                       &mag);
    if (dropped) {
        // Lost payloads never reached a board: keep them out of
        // the carried-byte and utilization accounting.
        ++c.drops;
        c.dropBytes += bytes;
        c.dropTicks += ser;
    } else {
        c.busyTicks += ser;
        c.bytes += bytes;
        if (cls == NetTraffic::Migration) {
            c.migBytes += bytes;
            ++c.migMsgs;
        } else if (cls == NetTraffic::Probe) {
            c.probeBytes += bytes;
            ++c.probeMsgs;
        }
    }
    return tx_done + p.hopLatency + extra;
}

sim::Tick
RackNet::backlog(unsigned dst, sim::Tick now) const
{
    sim_assert(dst < n, "bad rack endpoint %u", dst);
    const Channel &c = chans[dst];
    return c.nextFree > now ? c.nextFree - now : 0;
}

void
RackNet::foldStats()
{
    std::uint64_t msgs = 0, bytes = 0, drops = 0, delays = 0;
    std::uint64_t dropb = 0, migb = 0, migm = 0;
    std::uint64_t prbb = 0, prbm = 0;
    for (unsigned b = 0; b < n; ++b) {
        const Channel &c = chans[b];
        msgs += c.msgs;
        bytes += c.bytes;
        drops += c.drops;
        delays += c.delays;
        dropb += c.dropBytes;
        migb += c.migBytes;
        migm += c.migMsgs;
        prbb += c.probeBytes;
        prbm += c.probeMsgs;
        if (c.msgs) {
            const std::string ch = "board" + std::to_string(b);
            stats.counter(ch + ".bytes") = c.bytes;
            stats.counter(ch + ".busyTicks") = c.busyTicks;
            if (c.dropBytes)
                stats.counter(ch + ".dropBytes") = c.dropBytes;
            if (c.migBytes)
                stats.counter(ch + ".migBytes") = c.migBytes;
        }
    }
    if (msgs) {
        stats.counter("msgs") = msgs;
        stats.counter("bytes") = bytes;
    }
    if (drops)
        stats.counter("drops") = drops;
    if (dropb)
        stats.counter("dropBytes") = dropb;
    if (migb) {
        stats.counter("migBytes") = migb;
        stats.counter("migMsgs") = migm;
    }
    if (prbb) {
        stats.counter("probeBytes") = prbb;
        stats.counter("probeMsgs") = prbm;
    }
    if (delays)
        stats.counter("delayed") = delays;
}

std::uint64_t
RackNet::bytesCarried() const
{
    std::uint64_t total = 0;
    for (const Channel &c : chans)
        total += c.bytes;
    return total;
}

std::uint64_t
RackNet::droppedBytes() const
{
    std::uint64_t total = 0;
    for (const Channel &c : chans)
        total += c.dropBytes;
    return total;
}

std::uint64_t
RackNet::migrationBytes() const
{
    std::uint64_t total = 0;
    for (const Channel &c : chans)
        total += c.migBytes;
    return total;
}

std::uint64_t
RackNet::probeBytes() const
{
    std::uint64_t total = 0;
    for (const Channel &c : chans)
        total += c.probeBytes;
    return total;
}

std::uint64_t
RackNet::messages() const
{
    std::uint64_t total = 0;
    for (const Channel &c : chans)
        total += c.msgs;
    return total;
}

std::uint64_t
RackNet::drops() const
{
    std::uint64_t total = 0;
    for (const Channel &c : chans)
        total += c.drops;
    return total;
}

double
RackNet::utilization(unsigned dst, sim::Tick end) const
{
    sim_assert(dst < n, "bad rack endpoint %u", dst);
    if (end == 0)
        return 0;
    return double(chans[dst].busyTicks) / double(end);
}

double
RackNet::peakUtilization(sim::Tick end) const
{
    double peak = 0;
    for (unsigned b = 0; b < n; ++b)
        peak = std::max(peak, utilization(b, end));
    return peak;
}

} // namespace dpu::rack
