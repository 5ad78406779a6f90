#include "balance/ledger.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace dpu::balance {

MigrationLedger::MigrationLedger(const Policy &policy_,
                                 unsigned n_partitions,
                                 unsigned n_nodes,
                                 Transport &transport, Rules rules_,
                                 sim::StatGroup &stats)
    : policy(policy_), nNodes(n_nodes), xport(transport),
      rules(std::move(rules_)), track(n_partitions),
      frozenParts(n_partitions, false), nextRollAt(policy_.window)
{
    sim_assert(rules.homeOf && rules.eligible && rules.commit,
               "a migration ledger needs all three tier rules");
    stats.addFlushHook([this, &stats] { foldStats(stats); });
}

void
MigrationLedger::foldStats(sim::StatGroup &stats) const
{
    auto put = [&stats](const char *name, std::uint64_t v) {
        if (v)
            stats.counter(name) = v;
    };
    const Counters &mv = counters(Purpose::Move);
    const Counters &rp = counters(Purpose::Repair);
    put("started", mv.started);
    put("committed", mv.committed);
    put("aborted", mv.aborted);
    put("timedOut", mv.timedOut);
    put("forwarded", fwd.requests);
    put("deltaBytes", fwd.bytes);
    put("deltaDropped", fwd.dropped);
    put("repair.started", rp.started);
    put("repair.committed", rp.committed);
}

unsigned
MigrationLedger::inFlight(Purpose purpose) const
{
    return unsigned(std::count_if(
        live.begin(), live.end(),
        [&](const Migration &m) { return m.purpose == purpose; }));
}

bool
MigrationLedger::launch(const MigrationStep &step, sim::Tick now,
                        Purpose purpose, unsigned tag)
{
    Migration m{step, purpose, tag, now,
                track.totalLoad(step.partition)};
    Counters &c = count[unsigned(purpose)];
    ++c.started;
    if (!xport.launch(m, now)) {
        // Lost at launch: nothing froze, nothing to release.
        ++c.aborted;
        return false;
    }
    frozenParts[step.partition] = true;
    live.push_back(m);
    return true;
}

void
MigrationLedger::retire(std::size_t i, Outcome how)
{
    const Migration m = live[i];
    live.erase(live.begin() + std::ptrdiff_t(i));
    if (how == Outcome::Committed)
        rules.commit(m);
    xport.retire(m, how);
    frozenParts[m.step.partition] = false;
    Counters &c = count[unsigned(m.purpose)];
    c.committed += how == Outcome::Committed;
    c.aborted += how != Outcome::Committed;
    c.timedOut += how == Outcome::TimedOut;
}

void
MigrationLedger::harvest(sim::Tick now)
{
    for (std::size_t i = 0; i < live.size();) {
        const Migration &m = live[i];
        const Transport::Status s = xport.poll(m, now);
        if (s == Transport::Status::Landed)
            retire(i, Outcome::Committed);
        else if (rules.timeout && now >= m.launchedAt + rules.timeout)
            retire(i, Outcome::TimedOut);
        else if (s == Transport::Status::Failed)
            retire(i, Outcome::Aborted);
        else
            ++i;
    }
}

std::vector<Migration>
MigrationLedger::abortTouching(unsigned node)
{
    std::vector<Migration> out;
    for (std::size_t i = 0; i < live.size();) {
        if (live[i].step.from == node || live[i].step.to == node) {
            out.push_back(live[i]);
            retire(i, Outcome::Aborted);
        } else {
            ++i;
        }
    }
    return out;
}

void
MigrationLedger::forward(unsigned partition, unsigned served_at,
                         sim::Tick now)
{
    for (const Migration &m : live) {
        if (m.step.partition != partition)
            continue;
        // The map has not flipped: the request drains at the source
        // and its delta rides to the destination so the state in
        // flight stays current. Deltas are best effort: a dropped
        // one is counted, never retried.
        if (served_at == m.step.from) {
            ++fwd.requests;
            fwd.bytes += forwardDeltaBytes;
            fwd.dropped += !xport.forward(m, forwardDeltaBytes, now);
        }
        return;
    }
}

void
MigrationLedger::closeWindow(sim::Tick boundary)
{
    // Retire what finished first, so the plan sees the freshest
    // committed map and unfrozen partitions.
    harvest(boundary);
    track.roll(policy.ewmaAlpha);
    if (draining)
        return;

    // Plan on a scratch copy: the live map only flips at commit.
    std::vector<unsigned> home(track.size());
    for (unsigned part = 0; part < home.size(); ++part)
        home[part] = rules.homeOf(part);
    const std::vector<MigrationStep> plan = planMigrations(
        track.loads(), home, nNodes, policy, frozenParts);
    for (const MigrationStep &s : plan)
        if (rules.eligible(s))
            launch(s, boundary);
}

void
MigrationLedger::advance(sim::Tick when)
{
    while (nextRollAt && when >= nextRollAt) {
        const sim::Tick boundary = nextRollAt;
        nextRollAt += policy.window;
        closeWindow(boundary);
    }
    harvest(when);
}

} // namespace dpu::balance
