/**
 * @file
 * Cross-run compiled-workload cache.
 *
 * Every paper figure/table sweeps one application across many
 * configurations (history depths, speculation modes); without this
 * cache each run would regenerate the same workload from scratch --
 * fig8_history would build the em3d workload three times, once per
 * depth, and the whole suite would repeat that per app. Workload
 * generation is pure (a function of the app name, AppParams, and the
 * block/page geometry) and packs straight into the op stream, and a
 * CompiledWorkload is immutable, so one instance, generated and laid
 * into its arena once, can back any number of concurrent runs.
 *
 * The cache is process-wide and thread-safe: SweepRunner workers
 * racing for the same key wait on a shared future while the first
 * requester generates (generation happens outside the table lock, so
 * distinct apps still generate in parallel). Entries are never
 * evicted -- a sweep touches a handful of workloads, each a few
 * hundred KB of packed ops -- but clear() exists for tests.
 */

#ifndef MSPDSM_HARNESS_WORKLOAD_CACHE_HH
#define MSPDSM_HARNESS_WORKLOAD_CACHE_HH

#include <memory>
#include <string>

#include "workload/compiled_trace.hh"
#include "workload/suite.hh"

namespace mspdsm
{

/** Observability counters for the cache (sweep JSON, CI). */
struct WorkloadCacheStats
{
    std::uint64_t generations = 0; //!< makeApp+layout actually run
    std::uint64_t hits = 0;        //!< requests served from the cache
    std::uint64_t failures = 0;    //!< generations that threw (the
                                   //!< entry is dropped so later
                                   //!< requests retry)
    double genSeconds = 0.0;       //!< wall time spent generating
};

class WorkloadCache
{
  public:
    /**
     * The compiled workload for (@p app, @p p), generated at most
     * once per process for any given key. The key covers the app
     * name, every AppParams field, and the geometry fields of
     * AppParams::proto that generation can observe (block size, page
     * size, node count).
     */
    static std::shared_ptr<const CompiledWorkload>
    get(const std::string &app, const AppParams &p);

    /** Counters since process start (or the last clear()). */
    static WorkloadCacheStats stats();

    /** Drop all entries and reset the counters (tests). */
    static void clear();
};

} // namespace mspdsm

#endif // MSPDSM_HARNESS_WORKLOAD_CACHE_HH
