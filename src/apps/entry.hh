/**
 * @file
 * Internal entry points, two per Section 5 app.
 *
 * Each app's .cc defines both: the typed head-to-head runner
 * (xxxApp: DPU run + Xeon baseline + validation, folded into one
 * AppResult) and the core-group serving job (xxxJob), next to the
 * generator and reference they share. The registry's AppSpec
 * adapters (registry.cc) take both from here; the registry
 * (apps/registry.hh) is the sole public entry path, and this header
 * exists only so the app .cc files and registry.cc agree on the
 * signatures. Do not include it outside src/apps/.
 *
 * A serving job comes in two parts. xxxPrepare is pure: from the
 * config, the per-request seed and the lane count it builds the DDR
 * input image(s) and the exact expected result, touching no Soc, so
 * the offload scheduler can run it on a helper thread ahead of
 * dispatch. xxxJob takes those inputs, carves its arena layout from
 * its by-value context (ServingContext::carve), and its stage()
 * copies the image into DDR and drops it. The registry adapter
 * (registry.cc) pairs the two and prepares inline when the context
 * carries nothing made for the request.
 */

#ifndef DPU_APPS_ENTRY_HH
#define DPU_APPS_ENTRY_HH

#include <memory>
#include <string>
#include <vector>

#include "apps/common.hh"
#include "apps/disparity.hh"
#include "apps/hll.hh"
#include "apps/json.hh"
#include "apps/registry.hh"
#include "apps/simsearch.hh"
#include "apps/sql/filter.hh"
#include "apps/sql/groupby.hh"
#include "apps/svm.hh"

namespace dpu::apps {

/** Map / unmap one input-image buffer (ImageAllocator). */
void *mapImage(std::size_t bytes);
void unmapImage(void *p, std::size_t bytes);

/**
 * Allocator for serving-job input images. Each buffer is its own
 * anonymous mapping: an image is made on a preparation helper and
 * freed on the simulation thread at stage(), and a malloc'd buffer
 * would return to the helper's arena and keep it grown (+28% peak
 * RSS on dpubench chip-serve).
 */
template <typename T>
struct ImageAllocator
{
    using value_type = T;

    ImageAllocator() = default;
    template <typename U>
    ImageAllocator(const ImageAllocator<U> &)
    {
    }

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(mapImage(n * sizeof(T)));
    }

    void deallocate(T *p, std::size_t n) { unmapImage(p, n * sizeof(T)); }

    bool operator==(const ImageAllocator &) const = default;
};

/** A serving job's input image, as the host holds it until stage(). */
template <typename T>
using Image = std::vector<T, ImageAllocator<T>>;

/** svmJob's inputs: weights then samples, row-major. */
struct SvmInputs
{
    Image<std::int32_t> v;
    std::uint64_t positive = 0; ///< samples scoring above zero
    std::uint64_t bytes() const { return v.size() * 4; }
};

AppResult svmApp(const SvmConfig &cfg);
SvmInputs svmPrepare(const SvmConfig &cfg, std::uint64_t seed,
                     unsigned n_lanes);
/** SVM inference: classify a test batch against staged weights. */
ServingJob svmJob(const SvmConfig &cfg, ServingContext ctx,
                  std::shared_ptr<SvmInputs> in);

/** simSearchJob's inputs: the dense query and the postings. */
struct SimSearchInputs
{
    Image<std::int32_t> query;
    Image<std::uint32_t> postings; ///< (term, weight) pairs
    std::int64_t score = 0;
    std::uint64_t
    bytes() const
    {
        return (query.size() + postings.size()) * 4;
    }
};

AppResult simSearchApp(const SimSearchConfig &cfg);
SimSearchInputs simSearchPrepare(const SimSearchConfig &cfg,
                                 std::uint64_t seed, unsigned n_lanes);
/** Similarity scoring: Q10.22 posting-list scan against a query. */
ServingJob simSearchJob(const SimSearchConfig &cfg,
                        ServingContext ctx,
                        std::shared_ptr<SimSearchInputs> in);

/** hllJob's inputs: the elements and each lane's register file. */
struct HllInputs
{
    Image<std::uint64_t> elements;
    std::vector<std::vector<std::uint8_t>> regs;
    std::uint64_t bytes() const { return elements.size() * 8; }
};

AppResult hllApp(const HllConfig &cfg);
HllInputs hllPrepare(const HllConfig &cfg, std::uint64_t seed,
                     unsigned n_lanes);
/** Cardinality sketch: per-lane HLL register files, host merge. */
ServingJob hllJob(const HllConfig &cfg, ServingContext ctx,
                  std::shared_ptr<HllInputs> in);

/** jsonJob's inputs: the record text and its exact tally. */
struct JsonInputs
{
    Image<char> text;
    JsonTally tally;
    std::uint64_t bytes() const { return text.size(); }
};

AppResult jsonApp(const JsonConfig &cfg);
JsonInputs jsonPrepare(const JsonConfig &cfg, std::uint64_t seed,
                       unsigned n_lanes);
/** JSON tally: per-lane boundary-exact parse of a text slice. */
ServingJob jsonJob(const JsonConfig &cfg, ServingContext ctx,
                   std::shared_ptr<JsonInputs> in);

/** disparityJob's inputs: left then right image, and the map. */
struct DisparityInputs
{
    Image<std::uint8_t> images;
    std::vector<std::uint8_t> map;
    std::uint64_t bytes() const { return images.size(); }
};

AppResult disparityApp(const DisparityConfig &cfg);
DisparityInputs disparityPrepare(const DisparityConfig &cfg,
                                 std::uint64_t seed, unsigned n_lanes);
/** Stereo disparity: row-banded SAD argmin. */
ServingJob disparityJob(const DisparityConfig &cfg,
                        ServingContext ctx,
                        std::shared_ptr<DisparityInputs> in);

namespace sql {

/** filterJob's inputs: the column and its pass count. */
struct FilterInputs
{
    Image<std::uint32_t> column;
    std::uint64_t passed = 0;
    std::uint64_t bytes() const { return column.size() * 4; }
};

AppResult filterApp(const FilterConfig &cfg);
FilterInputs filterPrepare(const FilterConfig &cfg, std::uint64_t seed,
                           unsigned n_lanes);
/** Predicate scan: per-lane FILT over a uint32 column slice. */
ServingJob filterJob(const FilterConfig &cfg, ServingContext ctx,
                     std::shared_ptr<FilterInputs> in);

/** groupByJob's inputs: (key, value) pairs and the group sums. */
struct GroupByInputs
{
    Image<std::uint32_t> pairs;
    std::vector<std::uint64_t> sums;
    std::uint64_t bytes() const { return pairs.size() * 4; }
};

AppResult groupByLowApp(const GroupByConfig &cfg);
AppResult groupByHighApp(const GroupByConfig &cfg);
GroupByInputs groupByPrepare(const GroupByConfig &cfg,
                             std::uint64_t seed, unsigned n_lanes);
/** Low-NDV aggregation: per-lane DMEM sum tables, host merge. */
ServingJob groupByJob(const GroupByConfig &cfg, ServingContext ctx,
                      std::shared_ptr<GroupByInputs> in);
} // namespace sql

} // namespace dpu::apps

#endif // DPU_APPS_ENTRY_HH
