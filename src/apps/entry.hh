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
 * A job takes its context by value and carves its arena layout from
 * that copy (ServingContext::carve).
 */

#ifndef DPU_APPS_ENTRY_HH
#define DPU_APPS_ENTRY_HH

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

AppResult svmApp(const SvmConfig &cfg);
/** SVM inference: classify a test batch against staged weights. */
ServingJob svmJob(const SvmConfig &cfg, ServingContext ctx);

AppResult simSearchApp(const SimSearchConfig &cfg);
/** Similarity scoring: Q10.22 posting-list scan against a query. */
ServingJob simSearchJob(const SimSearchConfig &cfg,
                        ServingContext ctx);

AppResult hllApp(const HllConfig &cfg);
/** Cardinality sketch: per-lane HLL register files, host merge. */
ServingJob hllJob(const HllConfig &cfg, ServingContext ctx);

AppResult jsonApp(const JsonConfig &cfg);
/** JSON tally: per-lane boundary-exact parse of a text slice. */
ServingJob jsonJob(const JsonConfig &cfg, ServingContext ctx);

AppResult disparityApp(const DisparityConfig &cfg);
/** Stereo disparity: row-banded SAD argmin. */
ServingJob disparityJob(const DisparityConfig &cfg,
                        ServingContext ctx);

namespace sql {
AppResult filterApp(const FilterConfig &cfg);
/** Predicate scan: per-lane FILT over a uint32 column slice. */
ServingJob filterJob(const FilterConfig &cfg, ServingContext ctx);

AppResult groupByLowApp(const GroupByConfig &cfg);
AppResult groupByHighApp(const GroupByConfig &cfg);
/** Low-NDV aggregation: per-lane DMEM sum tables, host merge. */
ServingJob groupByJob(const GroupByConfig &cfg,
                      ServingContext ctx);
} // namespace sql

} // namespace dpu::apps

#endif // DPU_APPS_ENTRY_HH
