#include "rack/scheduler.hh"

#include <algorithm>

#include "host/summary.hh"
#include "sim/logging.hh"
#include "util/crc32.hh"

namespace dpu::rack {

namespace {

/** Brown-out: admission-window occupancy fraction at which a board
 *  counts as pressured even while Healthy. */
constexpr double brownOutOccupancy = 0.9;
/** Brown-out: shed when the predicted front-end delay exceeds this
 *  fraction of the request's deadline. */
constexpr double brownOutDeadlineFrac = 0.25;

/** The rack's balance::Transport: state rides the RackNet as
 *  Migration traffic, landing at the analytic delivery tick (kept
 *  as the transfer handle); a wire drop loses it at launch. */
class NetHandoff : public balance::Transport
{
  public:
    explicit NetHandoff(RackNet &n) : net(n) {}

    bool
    launch(balance::Migration &m, sim::Tick now) override
    {
        // State volume scales with the traffic the partition
        // absorbed: a fixed snapshot base plus per-request working
        // set.
        const std::uint64_t bytes =
            migrationBaseBytes + migrationBytesPerRequest * m.absorbed;
        bool dropped = false;
        m.transfer = net.send(m.step.to, bytes, now, dropped,
                              sim::Traffic::Migration);
        return !dropped;
    }

    Status
    poll(const balance::Migration &m, sim::Tick now) override
    {
        return m.transfer <= now ? Status::Landed : Status::Moving;
    }

    void
    retire(const balance::Migration &, balance::Outcome) override
    {
    }

    bool
    forward(const balance::Migration &m, std::uint64_t bytes,
            sim::Tick now) override
    {
        bool dropped = false;
        net.send(m.step.to, bytes, now, dropped,
                 sim::Traffic::Migration);
        return !dropped;
    }

  private:
    RackNet &net;
};

/** @p p, fatal unless it validates on @p n_boards boards. */
const PlacementParams &
validated(const PlacementParams &p, unsigned n_boards)
{
    const std::string err = p.validate(n_boards);
    sim_assert(err.empty(), "%s", err.c_str());
    return p;
}

} // namespace

std::string
PlacementParams::validate(unsigned n_boards) const
{
    if (keyPartitions == 0)
        return "placement needs at least one key partition "
               "(PlacementParams.keyPartitions = 0)";
    if (replication == 0)
        return "placement needs at least one replica "
               "(PlacementParams.replication = 0)";
    if (replication > n_boards)
        return "replication " + std::to_string(replication) +
               " exceeds the rack's " + std::to_string(n_boards) +
               " board" + (n_boards == 1 ? "" : "s");
    if ((admitWindow == 0) != (admitPerWindow == 0))
        return "admission control needs both admitWindow and "
               "admitPerWindow set (or neither)";
    std::string err = balance.validate("PlacementParams.balance");
    if (!err.empty())
        return err;
    return health.validate();
}

unsigned
keyPartition(std::uint64_t key, unsigned key_partitions)
{
    sim_assert(key_partitions >= 1,
               "placement needs at least one key partition");
    // Pure function of the key alone: the partition is the stable
    // placement unit that survives cluster reshapes.
    std::uint32_t h = util::crc32Key(std::uint32_t(key));
    h = util::crc32Key(h ^ std::uint32_t(key >> 32));
    return h % key_partitions;
}

unsigned
partitionHome(unsigned partition, unsigned n_boards)
{
    return balance::placementHash("", partition) % n_boards;
}

RackScheduler::RackScheduler(Rack &r, host::OffloadParams per_dpu,
                             PlacementParams place_)
    : rack(r), place(validated(place_, r.nBoards())),
      partMap(place.keyPartitions, place.replication),
      mon(std::make_unique<HealthMonitor>(r.net(), r.nBoards(),
                                          place.health)),
      windows(r.nBoards()), balanceStats("rack.balance"),
      outstandingRepairs(r.nBoards(), 0), boardAdmitted(r.nBoards(), 0),
      stats("rack")
{
    defaultDeadline = per_dpu.defaultTimeout;
    netHandoff = std::make_unique<NetHandoff>(rack.net());
    balance::Rules rules;
    rules.homeOf = [this](unsigned part) { return homeOf(part); };
    rules.eligible = [this](const balance::MigrationStep &s) {
        // An evicted board carries no load, so the planner sees it
        // as the coldest target — but shipping state onto a board
        // the detector distrusts would hand partitions right back
        // to the failure. (A rejoined board is Healthy again and
        // soaks up load normally.)
        return !mon->monitoring() ||
               mon->state(s.to) == BoardHealth::Healthy;
    };
    rules.commit = [this](const balance::Migration &m) {
        commitMigration(m);
    };
    ledger = std::make_unique<balance::MigrationLedger>(
        place.balance, place.keyPartitions, rack.nBoards(),
        *netHandoff, std::move(rules), balanceStats);
    const std::string prefix = per_dpu.statName;
    boardScheds.reserve(rack.nBoards());
    for (unsigned b = 0; b < rack.nBoards(); ++b) {
        host::OffloadParams p = per_dpu;
        p.statName = prefix + ".b" + std::to_string(b);
        boardScheds.push_back(
            std::make_unique<host::BoardScheduler>(rack.board(b),
                                                   std::move(p)));
    }
    stats.addFlushHook([this] {
        // Cells register only once nonzero, so runs that never hit
        // a path keep their goldens byte-identical.
        auto put = [this](const char *name, std::uint64_t v) {
            if (v)
                stats.counter(name) = v;
        };
        put("offered", offered);
        put("admitted", admitted);
        put("rejected", rejectedCnt);
        put("boardsDown", boardsDownCnt);
        put("netLost", netLostCnt);
        put("shed", shedCnt);
        put("failovers", failoverCnt);
        put("admitReroutes", admitRerouteCnt);
        if (place.balance.window) {
            // Per-shard serving accounting only matters (and only
            // folds) when the balancer is live, so un-balanced
            // goldens stay byte-identical.
            for (unsigned b = 0; b < boardAdmitted.size(); ++b) {
                if (!boardAdmitted[b])
                    continue;
                std::string cell = "b";
                cell += std::to_string(b);
                cell += ".admitted";
                stats.counter(cell) = boardAdmitted[b];
            }
        }
    });
}

unsigned
RackScheduler::partitionOf(std::uint64_t key) const
{
    return keyPartition(key, place.keyPartitions);
}

unsigned
RackScheduler::homeOf(unsigned partition) const
{
    return partMap.homeOf(partition, rack.nBoards());
}

unsigned
RackScheduler::primaryOf(std::uint64_t key) const
{
    return homeOf(partitionOf(key));
}

std::vector<unsigned>
RackScheduler::replicasOf(std::uint64_t key) const
{
    return currentReplicas(partitionOf(key));
}

bool
RackScheduler::admissionFull(unsigned b, sim::Tick now)
{
    if (!place.admitWindow || !place.admitPerWindow)
        return false;
    std::deque<sim::Tick> &w = windows[b];
    // The window is the half-open (now - admitWindow, now]: an
    // admission exactly admitWindow old has aged out (keeping it
    // made the cap span admitWindow + 1 ticks).
    if (now >= place.admitWindow) {
        const sim::Tick horizon = now - place.admitWindow;
        while (!w.empty() && w.front() <= horizon)
            w.pop_front();
    }
    return w.size() >= place.admitPerWindow;
}

void
RackScheduler::commitMigration(const balance::Migration &m)
{
    const unsigned part = m.step.partition;
    if (m.purpose == balance::Purpose::Move) {
        // Drain-then-switch: everything enqueued before this tick
        // went to (and will finish at) the old home; everything
        // after routes to the new one. No job is in limbo.
        partMap.reassign(part, m.step.to);
        return;
    }
    // The fresh copy is whole: append its board to the partition's
    // replica set (the primary is untouched — this restores width,
    // it does not re-home).
    std::vector<unsigned> set = currentReplicas(part);
    if (std::find(set.begin(), set.end(), m.step.to) == set.end()) {
        set.push_back(m.step.to);
        partMap.setReplicas(part, set);
    }
    sim_assert(outstandingRepairs[m.tag] > 0,
               "repair committed for board %u with none outstanding",
               m.tag);
    if (--outstandingRepairs[m.tag] == 0)
        mon->markRepaired(m.tag);
}

std::vector<unsigned>
RackScheduler::currentReplicas(unsigned partition) const
{
    std::vector<unsigned> out;
    partMap.candidates(partition, rack.nBoards(), out);
    return out;
}

int
RackScheduler::pickReplacement(
    const std::vector<unsigned> &exclude) const
{
    // Deterministic: least admitted traffic wins, lowest index
    // breaks ties. Only boards the detector trusts are eligible —
    // re-replicating onto a Suspect board would race its verdict.
    int best = -1;
    for (unsigned b = 0; b < rack.nBoards(); ++b) {
        if (mon->state(b) != BoardHealth::Healthy ||
            std::find(exclude.begin(), exclude.end(), b) !=
                exclude.end())
            continue;
        if (best < 0 ||
            boardAdmitted[b] < boardAdmitted[unsigned(best)])
            best = int(b);
    }
    return best;
}

void
RackScheduler::repairBoard(unsigned b)
{
    // 1. In-flight transfers touching the dead board are void: a
    // source that died mid-drain loses its epoch, a dead target
    // can't take delivery. Abort cleanly; eviction below re-homes
    // whatever lived there, and an aborted repair is re-queued so
    // its partition still gets a new copy.
    for (const balance::Migration &m : ledger->abortTouching(b))
        if (m.purpose == balance::Purpose::Repair)
            owedRepairs.push_back({m.step.partition, m.tag});

    // 2. Evict b from every replica set it serves. The strongest
    // survivor is promoted to primary; the lost width is owed as a
    // re-replication shipped by pumpRepairs().
    for (unsigned p2 = 0; p2 < place.keyPartitions; ++p2) {
        // Replica sets are duplicate-free: b appears at most once.
        std::vector<unsigned> survivors = currentReplicas(p2);
        const auto it =
            std::find(survivors.begin(), survivors.end(), b);
        if (it == survivors.end())
            continue;
        survivors.erase(it);
        if (survivors.empty()) {
            // Replication 1 and the only copy died: re-provision
            // onto the coldest healthy board (the real system
            // restores from its durable store).
            const int r = pickReplacement(survivors);
            if (r < 0)
                continue; // whole rack dark; leave it routed at b
            survivors.push_back(unsigned(r));
        }
        partMap.setReplicas(p2, survivors);
        if (survivors.size() < partMap.replicationWidth()) {
            bool owed = ledger->frozen(p2);
            for (const RepairJob &j : owedRepairs)
                owed |= j.partition == p2;
            if (!owed) {
                owedRepairs.push_back({p2, b});
                ++outstandingRepairs[b];
            }
        }
    }
    if (outstandingRepairs[b] == 0)
        mon->markRepaired(b);
}

void
RackScheduler::pumpRepairs(sim::Tick when)
{
    if (owedRepairs.empty())
        return;
    std::vector<RepairJob> still;
    for (const RepairJob &j : owedRepairs) {
        std::vector<unsigned> set = currentReplicas(j.partition);
        const int target = pickReplacement(set);
        if (target < 0) {
            // No healthy board free to hold the copy; keep owing.
            still.push_back(j);
            continue;
        }
        const balance::MigrationStep step{
            j.partition, set.empty() ? unsigned(target) : set[0],
            unsigned(target)};
        // A copy lost on the wire is retried at the next arrival
        // (the obligation survives).
        if (!ledger->launch(step, when, balance::Purpose::Repair,
                            j.attributed))
            still.push_back(j);
    }
    owedRepairs = std::move(still);
}

void
RackScheduler::advanceHealth(sim::Tick when)
{
    if (!mon->monitoring())
        return;
    mon->advanceTo(when);
    // React to the detector transitions logged since the last call.
    const std::vector<HealthTransition> &log = mon->transitions();
    for (; seenTransitions < log.size(); ++seenTransitions) {
        const HealthTransition &t = log[seenTransitions];
        if (t.to == BoardHealth::Down)
            repairBoard(t.board);
    }
    pumpRepairs(when);
}

bool
RackScheduler::shouldShed(unsigned b, sim::Tick send_at,
                          const RackRequest &req) const
{
    if (!mon->monitoring())
        return false;
    const bool suspect = mon->suspectVerdict(b);
    bool pressured = suspect;
    if (!pressured && place.admitWindow && place.admitPerWindow)
        pressured = double(windows[b].size()) >=
                    brownOutOccupancy * double(place.admitPerWindow);
    if (!pressured)
        return false;
    // Predict the front-end delay from observable state: the
    // ingress pipe's committed backlog, this request's wire time,
    // the hop, plus the ack-timeout stall a Suspect board risks.
    const sim::Tick predicted =
        rack.net().backlog(b, send_at) +
        rack.net().wireTicks(req.bytes) +
        rack.net().params().hopLatency +
        (suspect ? place.health.ackTimeout : 0);
    const sim::Tick deadline =
        req.job.timeout ? req.job.timeout : defaultDeadline;
    return double(predicted) >
           double(deadline) * brownOutDeadlineFrac;
}

AdmitResult
RackScheduler::enqueueAt(sim::Tick when, RackRequest req,
                         unsigned *board_out)
{
    sim_assert(when >= lastOffer,
               "rack arrivals must be offered in trace order");
    lastOffer = when;
    ++offered;

    advanceHealth(when);
    // Window boundaries due by now, then commit every transfer
    // (move or repair) delivered by now.
    ledger->advance(when);

    const unsigned part = partitionOf(req.key);
    // Offered demand, not admitted: rejects are load too.
    if (place.balance.window)
        ledger->record(part);

    const std::vector<unsigned> group = currentReplicas(part);
    bool sawFull = false, sawDrop = false, sawShed = false;
    // Why the previous candidates were skipped decides whether a
    // non-primary delivery counts as a failover (outage signals)
    // or a mere admission re-route (load shedding/spreading).
    bool outagePrior = false, admitPrior = false;
    // Every attempt that draws no ack stalls the front-end for
    // ackTimeout before the next replica is tried.
    sim::Tick penalty = 0;
    for (std::size_t i = 0; i < group.size(); ++i) {
        const unsigned b = group[i];
        if (!mon->routable(b)) {
            // Detector verdict (Down/Probation): no oracle here.
            outagePrior = true;
            continue;
        }
        const sim::Tick sendAt = when + penalty;
        if (admissionFull(b, sendAt)) {
            sawFull = true;
            admitPrior = true;
            continue;
        }
        if (shouldShed(b, sendAt, req)) {
            sawShed = true;
            admitPrior = true;
            continue;
        }
        bool dropped = false;
        const sim::Tick delivered =
            rack.net().send(b, req.bytes, sendAt, dropped);
        if (dropped) {
            // No ack will ever come back, and the front-end can't
            // tell a fabric drop from a dead board — both feed the
            // detector the same miss.
            mon->observeMiss(b, sendAt + place.health.ackTimeout);
            sawDrop = true;
            outagePrior = true;
            penalty += place.health.ackTimeout;
            continue;
        }
        if (!mon->aliveAt(b, delivered)) {
            // Delivered into a dead board (the injection point for
            // rack.boardDown / rack.boardCrash): same observable
            // outcome, a missing ack.
            mon->observeMiss(b, sendAt + place.health.ackTimeout);
            outagePrior = true;
            penalty += place.health.ackTimeout;
            continue;
        }
        mon->observeAck(
            b, delivered + rack.net().params().hopLatency);
        if (place.admitWindow && place.admitPerWindow)
            windows[b].push_back(sendAt);
        ++admitted;
        ++boardAdmitted[b];
        if (i > 0) {
            if (outagePrior)
                ++failoverCnt;
            else if (admitPrior)
                ++admitRerouteCnt;
        }
        if (board_out)
            *board_out = b;
        // Forwarding epoch: a request drained at a migrating
        // partition's source ships its delta to the new home. A
        // dropped delta only costs accounting (state is modeled,
        // not materialized).
        ledger->forward(part, b, sendAt);
        boardScheds[b]->enqueueAt(delivered, std::move(req.job));
        return AdmitResult::Admitted;
    }
    // Attribution order mirrors how far the request got: a drop
    // means it physically reached the fabric; a shed means the
    // brown-out controller chose to fail it fast; a full window
    // means the rate cap shed it; otherwise every replica was
    // down (detector verdict or missing acks).
    if (sawDrop) {
        ++netLostCnt;
        return AdmitResult::NetLost;
    }
    if (sawShed) {
        ++shedCnt;
        return AdmitResult::Shed;
    }
    if (sawFull) {
        ++rejectedCnt;
        return AdmitResult::Rejected;
    }
    ++boardsDownCnt;
    return AdmitResult::BoardsDown;
}

void
RackScheduler::start()
{
    for (auto &s : boardScheds)
        s->start();
}

RackSummary
RackScheduler::summary() const
{
    RackSummary sum;
    sum.offered = offered;
    sum.admitted = admitted;
    sum.rejected = rejectedCnt;
    sum.boardsDown = boardsDownCnt;
    sum.netLost = netLostCnt;
    sum.shed = shedCnt;
    sum.failovers = failoverCnt;
    sum.admitReroutes = admitRerouteCnt;
    sum.probes = mon->probesSent();
    const auto &mig = ledger->counters();
    const auto &rep = ledger->counters(balance::Purpose::Repair);
    sum.repairsStarted = rep.started;
    sum.repairsCommitted = rep.committed;
    sum.migStarted = mig.started;
    sum.migCommitted = mig.committed;
    sum.migAborted = mig.aborted;
    sum.forwarded = ledger->forwarding().requests;
    sum.migrationBytes = rack.net().migrationBytes();
    sum.netDroppedBytes = rack.net().droppedBytes();

    // Fold per-DPU shard summaries directly (host/summary.hh):
    // availability weighted by each shard's submitted jobs,
    // percentiles recomputed over every completed job.
    host::SummaryFold fold;
    for (const auto &bs : boardScheds)
        for (unsigned d = 0; d < bs->nShards(); ++d)
            fold.add(bs->shard(d).summary(), bs->shard(d).jobs());
    sum.serving = fold.finish();
    sum.usersPerSimSec = sum.serving.throughputJobsPerSec;
    if (offered)
        sum.servedFraction =
            double(sum.serving.completed) / double(offered);
    sum.netPeakUtilization = rack.net().peakUtilization(rack.now());
    return sum;
}

} // namespace dpu::rack
