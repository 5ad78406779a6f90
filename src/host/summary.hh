/**
 * @file
 * Shared serving-summary aggregation.
 *
 * BoardScheduler and rack::RackScheduler both fold N per-shard
 * ServingSummary parts into one aggregate, and OffloadScheduler
 * folds its own records as a one-part fold for its latency and
 * throughput figures. The two tiers used to carry
 * private near-copies of the same loop — with the same two
 * accounting bugs: availability was an unweighted mean over shards
 * (an idle replica's perfect 1.0 diluted a struggling hot shard's
 * outage 1:1 regardless of traffic) and the `last > first` window
 * guard reported zero throughput whenever every completion landed
 * on a single tick. SummaryFold is the one implementation:
 *
 *  - counts are summed;
 *  - availability is weighted by each part's submitted jobs, so a
 *    shard that served nothing cannot vote (zero traffic anywhere
 *    falls back to the unweighted mean);
 *  - latency percentiles are recomputed nearest-rank over every
 *    completed job across all parts;
 *  - throughput spans first-enqueue..last-finish, clamped to one
 *    tick so a degenerate single-tick run reports its completions
 *    instead of zero.
 */

#ifndef DPU_HOST_SUMMARY_HH
#define DPU_HOST_SUMMARY_HH

#include <vector>

#include "host/offload.hh"

namespace dpu::host {

/** Nearest-rank percentile of an ascending-sorted sample. */
double percentileOf(const std::vector<double> &sorted, double q);

/** Accumulates per-shard summaries; finish() yields the fold. */
class SummaryFold
{
  public:
    /** Fold in one shard's summary and its job records. */
    void add(const ServingSummary &part,
             const std::vector<JobRecord> &jobs);

    /** The aggregate over every add() so far. */
    ServingSummary finish() const;

    /** Earliest enqueue across all folded job records. */
    sim::Tick firstEnqueue() const { return first; }
    /** Latest finish across all folded job records. */
    sim::Tick lastFinish() const { return last; }

  private:
    ServingSummary agg;
    std::vector<double> lat; ///< completed-job latencies (us)
    sim::Tick first = ~sim::Tick(0);
    sim::Tick last = 0;
    double availWeighted = 0; ///< sum of availability * submitted
    double availUnweighted = 0;
    std::uint64_t submittedTotal = 0;
    unsigned parts = 0;
};

} // namespace dpu::host

#endif // DPU_HOST_SUMMARY_HH
