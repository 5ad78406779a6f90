#include "board/link.hh"

#include <algorithm>

#include "sim/domain.hh"
#include "sim/fault.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace dpu::board {

namespace {

/** Stat cell prefix for the (src, dst) channel. */
std::string
chPrefix(unsigned s, unsigned d)
{
    return "ch" + std::to_string(s) + "to" + std::to_string(d);
}

} // namespace

std::string
LinkParams::validate() const
{
    if (gbPerSec <= 0)
        return "the board link bandwidth must be positive "
               "(LinkParams.gbPerSec = " +
               std::to_string(gbPerSec) + ")";
    if (hopLatency == 0)
        return "the board link hop latency must be positive: a "
               "zero-latency link collapses the epoch runner's "
               "lookahead window";
    if (flitBytes == 0)
        return "the board link flit size must be positive "
               "(LinkParams.flitBytes = 0)";
    return "";
}

LinkFabric::LinkFabric(unsigned n_dpus, const LinkParams &params)
    : n(n_dpus), p(params), queues(n), chans(std::size_t(n) * n),
      inbox(std::size_t(n) * n), handlers(n), unhandled(n),
      stats("link")
{
    sim_assert(n >= 1, "a board fabric needs at least one DPU");
    const std::string err = p.validate();
    sim_assert(err.empty(), "%s", err.c_str());
    // Sends run in the source chip's execution domain; make sure the
    // cross-cutting planes are sized for it.
    sim::faultPlane().ensureDomains(n);
    sim::tracer().ensureDomains(n);
    stats.addFlushHook([this] { foldStats(); });
}

void
LinkFabric::attach(unsigned dpu, sim::EventQueue &q)
{
    sim_assert(dpu < n, "bad fabric endpoint %u", dpu);
    queues[dpu] = &q;
}

void
LinkFabric::onRpc(unsigned dst, RpcHandler handler)
{
    sim_assert(dst < n, "bad fabric endpoint %u", dst);
    handlers[dst] = std::move(handler);
}

sim::Tick
LinkFabric::serTicks(std::uint64_t bytes) const
{
    const double wire = double(std::max<std::uint64_t>(
        bytes, p.flitBytes));
    // ps per byte = 1000 / (GB/s); pure integer-in, integer-out so
    // the timing is a reproducible function of (bytes, params).
    return sim::Tick(wire * (1000.0 / p.gbPerSec) + 0.5);
}

sim::Tick
LinkFabric::transit(unsigned src, unsigned dst, std::uint64_t bytes,
                    bool &dropped, LinkTraffic cls)
{
    sim_assert(src < n && dst < n && src != dst,
               "bad fabric route %u -> %u", src, dst);
    sim_assert(queues[src], "DPU %u has no attached queue", src);
    // The whole decision happens on the source chip: its clock, its
    // channel row, its fault-domain stream. That keeps the outcome a
    // pure function of the send, whatever thread runs it.
    sim::DomainScope domain(src);
    Channel &c = chan(src, dst);
    const sim::Tick now = queues[src]->now();
    const sim::Tick ser = serTicks(bytes);
    const sim::Tick tx_start = std::max(now, c.nextFree);
    const sim::Tick tx_done = tx_start + ser;
    c.nextFree = tx_done;

    sim::Tick extra = 0;
    std::uint64_t mag = 0;
    sim::FaultPlane &fp = sim::faultPlane();
    const int unit = int(src * n + dst);
    if (fp.active() &&
        fp.fires(sim::FaultSite::LinkDelay, now, unit, &mag)) {
        extra = mag ? sim::Tick(mag) : p.hopLatency;
        ++c.delays;
    }
    dropped = fp.active() &&
              fp.fires(sim::FaultSite::LinkDrop, now, unit, &mag);

    // Account by fate, exclusively: a message is carried workload,
    // dropped (either class; the wire time is burned regardless),
    // or delivered migration traffic. The classes sum to the total
    // offered to the wire.
    if (dropped) {
        ++c.drops;
        c.dropBytes += bytes;
        c.dropTicks += ser;
    } else if (cls == LinkTraffic::Migration) {
        ++c.migMsgs;
        c.migBytes += bytes;
        c.migTicks += ser;
    } else {
        ++c.msgs;
        c.bytes += bytes;
        c.busyTicks += ser;
    }
    return tx_done + p.hopLatency + extra;
}

void
LinkFabric::sendRpc(unsigned src, unsigned dst, std::uint64_t payload)
{
    bool dropped = false;
    const sim::Tick arrive =
        transit(src, dst, 8, dropped, LinkTraffic::Workload);
    if (dropped)
        return; // lost in the fabric; sender-level recovery applies
    inbox[src * n + dst].push_back({arrive, payload, {}});
}

sim::Tick
LinkFabric::startBulk(unsigned src, unsigned dst,
                      std::uint64_t bytes, bool &dropped,
                      LinkTraffic cls)
{
    return transit(src, dst, bytes, dropped, cls);
}

void
LinkFabric::postDelivery(unsigned src, unsigned dst, sim::Tick when,
                         std::function<void()> fn)
{
    sim_assert(src < n && dst < n, "bad fabric route %u -> %u", src,
               dst);
    sim_assert(fn, "bulk delivery needs an action");
    inbox[src * n + dst].push_back({when, 0, std::move(fn)});
}

void
LinkFabric::drainInbound(unsigned dst)
{
    sim_assert(dst < n, "bad fabric endpoint %u", dst);
    sim::EventQueue *q = queues[dst];
    for (unsigned src = 0; src < n; ++src) {
        std::vector<Pending> &mb = inbox[src * n + dst];
        if (mb.empty())
            continue;
        sim_assert(q, "DPU %u has no attached queue", dst);
        for (Pending &m : mb) {
            sim_assert(m.when >= q->now(),
                       "late delivery %u -> %u (lookahead beyond "
                       "the hop latency?)",
                       src, dst);
            if (m.fn) {
                q->schedule(m.when, std::move(m.fn),
                            sim::EvTag::Link);
            } else {
                q->schedule(m.when,
                            [this, src, dst,
                             payload = m.payload] {
                                if (handlers[dst])
                                    handlers[dst](src, payload);
                                else
                                    ++unhandled[dst];
                            },
                            sim::EvTag::Link);
            }
        }
        mb.clear();
    }
}

std::size_t
LinkFabric::inboundPending() const
{
    std::size_t total = 0;
    for (const auto &mb : inbox)
        total += mb.size();
    return total;
}

void
LinkFabric::foldStats()
{
    std::uint64_t msgs = 0, bytes = 0, drops = 0, delays = 0;
    std::uint64_t drop_bytes = 0, mig_msgs = 0, mig_bytes = 0;
    for (unsigned s = 0; s < n; ++s) {
        for (unsigned d = 0; d < n; ++d) {
            const Channel &c = chan(s, d);
            msgs += c.msgs;
            bytes += c.bytes;
            drops += c.drops;
            delays += c.delays;
            drop_bytes += c.dropBytes;
            mig_msgs += c.migMsgs;
            mig_bytes += c.migBytes;
            if (c.msgs) {
                const std::string ch = chPrefix(s, d);
                stats.counter(ch + ".bytes") = c.bytes;
                stats.counter(ch + ".busyTicks") = c.busyTicks;
            }
        }
    }
    // Cells appear exactly when the eager version would have created
    // them, so stat snapshots keep their golden key sets.
    if (msgs) {
        stats.counter("msgs") = msgs;
        stats.counter("bytes") = bytes;
    }
    if (drops) {
        stats.counter("drops") = drops;
        stats.counter("dropBytes") = drop_bytes;
    }
    if (delays)
        stats.counter("delayed") = delays;
    if (mig_msgs) {
        stats.counter("migMsgs") = mig_msgs;
        stats.counter("migBytes") = mig_bytes;
    }
    std::uint64_t unh = 0;
    for (unsigned d = 0; d < n; ++d)
        unh += unhandled[d];
    if (unh)
        stats.counter("unhandledRpcs") = unh;
}

std::uint64_t
LinkFabric::bytesCarried() const
{
    std::uint64_t total = 0;
    for (const Channel &c : chans)
        total += c.bytes;
    return total;
}

std::uint64_t
LinkFabric::messages() const
{
    std::uint64_t total = 0;
    for (const Channel &c : chans)
        total += c.msgs;
    return total;
}

std::uint64_t
LinkFabric::droppedBytes() const
{
    std::uint64_t total = 0;
    for (const Channel &c : chans)
        total += c.dropBytes;
    return total;
}

std::uint64_t
LinkFabric::migrationBytes() const
{
    std::uint64_t total = 0;
    for (const Channel &c : chans)
        total += c.migBytes;
    return total;
}

std::uint64_t
LinkFabric::migrationMessages() const
{
    std::uint64_t total = 0;
    for (const Channel &c : chans)
        total += c.migMsgs;
    return total;
}

std::uint64_t
LinkFabric::offeredBytes() const
{
    return bytesCarried() + droppedBytes() + migrationBytes();
}

double
LinkFabric::utilization(unsigned src, unsigned dst) const
{
    // Host-phase query; after a run every partition clock is aligned
    // on the board's final tick, so any attached queue will do.
    const sim::EventQueue *q = queues[0];
    if (!q || q->now() == 0)
        return 0;
    return double(chan(src, dst).busyTicks) / double(q->now());
}

double
LinkFabric::peakUtilization() const
{
    double peak = 0;
    for (unsigned s = 0; s < n; ++s)
        for (unsigned d = 0; d < n; ++d)
            if (s != d)
                peak = std::max(peak, utilization(s, d));
    return peak;
}

} // namespace dpu::board
