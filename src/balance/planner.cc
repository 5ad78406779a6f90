#include "balance/planner.hh"

#include "sim/logging.hh"

namespace dpu::balance {

// ----------------------------------------------------------------
// Policy
// ----------------------------------------------------------------

std::string
Policy::validate(const char *owner) const
{
    if (!window)
        return "";
    // Build the owner string only on failure: a passing check
    // allocates nothing.
    if (ewmaAlpha <= 0 || ewmaAlpha > 1)
        return "the balancer EWMA alpha must sit in (0, 1] (" +
               std::string(owner) +
               ".ewmaAlpha = " + std::to_string(ewmaAlpha) + ")";
    if (hotFactor < 1.0)
        return "a hotFactor below 1 flags every node hot (" +
               std::string(owner) +
               ".hotFactor = " + std::to_string(hotFactor) + ")";
    if (maxMigrationsPerWindow == 0)
        return "an enabled balancer needs a migration budget (" +
               std::string(owner) + ".maxMigrationsPerWindow = 0)";
    return "";
}

// ----------------------------------------------------------------
// LoadTracker
// ----------------------------------------------------------------

LoadTracker::LoadTracker(unsigned n_partitions)
    : counts(n_partitions, 0), totals(n_partitions, 0),
      ewma(n_partitions, 0.0)
{
    sim_assert(n_partitions >= 1,
               "load tracker needs at least one partition");
}

unsigned
LoadTracker::checked(unsigned partition) const
{
    sim_assert(partition < counts.size(),
               "load tracked for unknown partition %u", partition);
    return partition;
}

void
LoadTracker::record(unsigned partition)
{
    ++counts[checked(partition)];
    ++totals[partition];
}

void
LoadTracker::roll(double alpha)
{
    sim_assert(alpha > 0 && alpha <= 1,
               "EWMA alpha must be in (0, 1], got %f", alpha);
    for (std::size_t i = 0; i < counts.size(); ++i) {
        const double cur = double(counts[i]);
        // Prime with the raw first window so a cold tracker does
        // not need several windows to see an obvious hot spot.
        ewma[i] = rolls == 0 ? cur
                             : alpha * cur + (1.0 - alpha) * ewma[i];
        counts[i] = 0;
    }
    ++rolls;
}

// ----------------------------------------------------------------
// Planner
// ----------------------------------------------------------------

std::vector<MigrationStep>
planMigrations(const std::vector<double> &loads,
               std::vector<unsigned> &home, unsigned n_nodes,
               const Policy &p, const std::vector<bool> &frozen)
{
    sim_assert(loads.size() == home.size(),
               "partition load/home tables disagree: %zu vs %zu",
               loads.size(), home.size());
    std::vector<MigrationStep> plan;
    if (n_nodes < 2)
        return plan;

    std::vector<double> node(n_nodes, 0.0);
    double total = 0;
    for (std::size_t part = 0; part < home.size(); ++part) {
        sim_assert(home[part] < n_nodes,
                   "partition %zu homed off the tier (node %u)",
                   part, home[part]);
        node[home[part]] += loads[part];
        total += loads[part];
    }
    const double mean = total / double(n_nodes);

    while (plan.size() < p.maxMigrationsPerWindow) {
        // Hottest node, lowest index on ties.
        unsigned src = 0;
        for (unsigned b = 1; b < n_nodes; ++b)
            if (node[b] > node[src])
                src = b;
        if (node[src] <= p.hotFactor * mean || mean <= 0)
            break;

        // Coldest node, lowest index on ties.
        unsigned dst = src == 0 ? 1 : 0;
        for (unsigned b = 0; b < n_nodes; ++b)
            if (b != src && node[b] < node[dst])
                dst = b;

        // Heaviest movable partition on src whose move strictly
        // improves the pair: the destination must stay below the
        // source's pre-move load, else the hot spot just relocates
        // (and the next window would bounce it straight back).
        int pick = -1;
        for (std::size_t part = 0; part < home.size(); ++part) {
            if (home[part] != src)
                continue;
            if (part < frozen.size() && frozen[part])
                continue;
            if (loads[part] < p.minPartitionLoad)
                continue;
            if (node[dst] + loads[part] >= node[src])
                continue;
            if (pick < 0 || loads[part] > loads[pick])
                pick = int(part);
        }
        if (pick < 0)
            break;

        MigrationStep step;
        step.partition = unsigned(pick);
        step.from = src;
        step.to = dst;
        step.load = loads[pick];
        plan.push_back(step);

        home[pick] = dst;
        node[src] -= loads[pick];
        node[dst] += loads[pick];
    }
    return plan;
}

} // namespace dpu::balance
