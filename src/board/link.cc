#include "board/link.hh"

#include "sim/domain.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace dpu::board {

LinkFabric::LinkFabric(unsigned n_dpus)
    : sim::Wire(n_dpus * n_dpus, linkTiming, "link",
                sim::FaultSite::LinkDelay, sim::FaultSite::LinkDrop,
                [n_dpus](unsigned ch) {
                    return "ch" + std::to_string(ch / n_dpus) + "to" +
                           std::to_string(ch % n_dpus);
                }),
      n(n_dpus), queues(n), inbox(std::size_t(n) * n), handlers(n),
      unhandled(n)
{
    // Sends run in the source chip's execution domain; make sure the
    // cross-cutting planes are sized for it.
    sim::faultPlane().ensureDomains(n);
    sim::tracer().ensureDomains(n);
    statGroup().addFlushHook([this] {
        std::uint64_t unh = 0;
        for (std::uint64_t u : unhandled)
            unh += u;
        if (unh)
            statGroup().counter("unhandledRpcs") = unh;
    });
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
LinkFabric::startBulk(unsigned src, unsigned dst, std::uint64_t bytes,
                      bool &dropped, sim::Traffic cls)
{
    sim_assert(src < n && dst < n && src != dst,
               "bad fabric route %u -> %u", src, dst);
    sim_assert(queues[src], "DPU %u has no attached queue", src);
    // The whole decision happens on the source chip: its clock, its
    // channel row, its fault-domain stream. That keeps the outcome a
    // pure function of the send, whatever thread runs it.
    sim::DomainScope domain(src);
    return send(src * n + dst, bytes, queues[src]->now(), dropped,
                cls);
}

void
LinkFabric::sendRpc(unsigned src, unsigned dst, std::uint64_t payload)
{
    bool dropped = false;
    const sim::Tick arrive = startBulk(src, dst, 8, dropped);
    if (dropped)
        return; // lost in the fabric; sender-level recovery applies
    inbox[src * n + dst].push_back({arrive, payload, {}});
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

sim::Tick
LinkFabric::clock() const
{
    return queues[0] ? queues[0]->now() : 0;
}

double
LinkFabric::utilization(unsigned src, unsigned dst) const
{
    return sim::Wire::utilization(src * n + dst, clock());
}

double
LinkFabric::peakUtilization() const
{
    return sim::Wire::peakUtilization(clock());
}

} // namespace dpu::board
