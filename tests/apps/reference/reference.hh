/**
 * @file
 * Straight-C++ reference models for every registered serving app.
 *
 * Each function recomputes, on the host with plain loops and no
 * simulator types beyond the RNG, the exact bytes an app's serving
 * job must leave in its DDR output region for a given request
 * geometry (lane count, arena base, request seed). The test layer
 * runs the real kernels through the simulated chip and compares
 * the raw output regions bit-for-bit against these models — an
 * oracle independent of each job's own validate() hook, so a bug
 * that breaks kernel and validator symmetrically still gets
 * caught.
 *
 * The models intentionally re-derive the arena layouts and lane
 * slicing from the serving contracts rather than calling into
 * src/apps: a layout drift in a serving job shows up here as a
 * mismatch, not as a silently co-moving test.
 */

#ifndef DPU_TESTS_APPS_REFERENCE_HH
#define DPU_TESTS_APPS_REFERENCE_HH

#include <cstdint>
#include <vector>

#include "apps/disparity.hh"
#include "apps/hll.hh"
#include "apps/json.hh"
#include "apps/simsearch.hh"
#include "apps/sql/filter.hh"
#include "apps/sql/groupby.hh"
#include "apps/svm.hh"
#include "mem/backing_store.hh"

namespace dpu::apps::refmodel {

/** The request geometry a serving job was instantiated against. */
struct Geometry
{
    unsigned nLanes = 4;
    mem::Addr arena = 1 << 20;
    std::uint64_t arenaBytes = 6 << 20;
    std::uint64_t seed = 0; ///< ServingContext::seed
};

/** One DDR span the job must have produced, byte-exact. */
struct Region
{
    mem::Addr base = 0;
    std::vector<std::uint8_t> bytes;
};

std::vector<Region> filterRef(const sql::FilterConfig &cfg,
                              const Geometry &g);
std::vector<Region> groupByRef(const sql::GroupByConfig &cfg,
                               const Geometry &g);
std::vector<Region> hllRef(const HllConfig &cfg, const Geometry &g);
std::vector<Region> jsonRef(const JsonConfig &cfg,
                            const Geometry &g);
std::vector<Region> svmRef(const SvmConfig &cfg, const Geometry &g);
std::vector<Region> simSearchRef(const SimSearchConfig &cfg,
                                 const Geometry &g);
std::vector<Region> disparityRef(const DisparityConfig &cfg,
                                 const Geometry &g);

} // namespace dpu::apps::refmodel

#endif // DPU_TESTS_APPS_REFERENCE_HH
