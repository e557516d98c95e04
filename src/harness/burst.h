/**
 * @file
 * The burst-reduction experiment (paper Section 5.2, Figure 7;
 * its costs are Table 3 and Figure 9, and Section 5.7 adds the
 * combination).
 *
 * Scenario: closed-loop clients at near-peak load; at t=60 s the
 * workload doubles and stays doubled. A perfect burst handler
 * reacts immediately: baselines request one more instance from
 * their scaling solution and forward half the workload once it is
 * ready; BeeHive raises the offloading ratio instead.
 */

#ifndef BEEHIVE_HARNESS_BURST_H
#define BEEHIVE_HARNESS_BURST_H

#include <map>
#include <string>
#include <vector>

#include "core/offload.h"
#include "harness/testbed.h"
#include "telemetry/critical_path.h"

namespace beehive::harness {

/** The scaling solutions compared in Figure 7. */
enum class Solution
{
    Burstable,
    OnDemand,
    Fargate,
    BeeHiveO,
    BeeHiveL,
    /**
     * Section 5.7's combination: BeeHive offloads the instant the
     * burst hits AND an on-demand instance is requested; when the
     * instance is ready, the offloading ratio drops to zero and the
     * new instance takes half the workload -- rapid provisioning
     * without the long-term Semi-FaaS overhead or cost.
     */
    Combo,
};

const char *solutionName(Solution solution);

/** How the burst's FaaS instances boot (BeeHive solutions only). */
enum class BurstVariant
{
    /** Every burst instance boots cold. */
    Cold,
    /** Function instances are cached and warmed before the burst
     * (Section 5.2's sub-second result). */
    Warm,
    /**
     * Snapshots are enabled and an early drill records the
     * endpoint's working set; a short FaaS keep-alive then expires
     * every cached instance well before the burst, so the burst's
     * fresh instances boot through the *restore* path (fault-free
     * shadow phase) instead of the full cold path.
     */
    Snapshot,
    /**
     * static_manifests is enabled, so every root gets a synthesized
     * prefetch manifest the moment it is enabled for offload --
     * before any instance exists. Unlike @ref Snapshot there is NO
     * recording drill: the burst's fresh instances take the restore
     * path on their *first* boot, off a working set that was never
     * observed, only inferred.
     */
    StaticManifest,
};

/** Burst experiment parameters. */
struct BurstOptions
{
    AppKind app = AppKind::Pybbs;
    Solution solution = Solution::BeeHiveO;
    uint64_t seed = 1;

    sim::SimTime duration = sim::SimTime::sec(180);
    sim::SimTime burst_at = sim::SimTime::sec(60);

    /** Closed-loop clients before the burst (0 = per-app default);
     * the burst adds the same number again ("twice as heavy"). */
    int base_clients = 0;

    BurstVariant variant = BurstVariant::Cold;

    /** Offloading ratio applied at the burst. */
    double offload_ratio = 0.5;

    /** Telemetry: serialize the run's span tree as Chrome trace
     * JSON into BurstResult::trace_json (needs beehive.telemetry). */
    bool export_trace = false;
    /** Restrict the export to one request id (0 = all requests). */
    uint64_t trace_request = 0;

    apps::FrameworkOptions framework;
    core::BeeHiveConfig beehive;
};

/** Results of one burst run. */
struct BurstResult
{
    /** Per-second p99 (seconds); index = experiment second. */
    std::vector<double> p99_per_second;
    std::vector<double> mean_per_second;

    double pre_burst_p99 = 0.0;
    /** Stabilized p99 after scaling completed. */
    double stable_p99 = 0.0;
    /** Seconds from the burst until tail latency stabilized
     * (negative when it never did; an instance-scaling baseline
     * cannot stabilize before its scale-out instance serves). */
    double stabilization_seconds = -1.0;
    /** Experiment second at which the scale-out instance of a
     * baseline or of Combo began serving (negative when it never
     * did, and for BeeHiveO/L). Only a baseline's stabilization
     * waits for it. */
    double instance_ready_seconds = -1.0;

    /** Scaling-related cost of the whole run (Table 3). */
    double scaling_cost = 0.0;

    uint64_t completed_requests = 0;
    core::OffloadStats offload; //!< zero for baselines

    /** @name Boot-path accounting (BeeHive solutions only) */
    /// @{
    uint64_t cold_boots = 0;
    uint64_t warm_boots = 0;
    uint64_t restore_boots = 0;
    /** SnapshotStore churn (zero when no store was constructed). */
    uint64_t manifests_synthesized = 0;
    uint64_t snapshot_refined_dropped = 0;
    /** Completed invocation traces (boot breakdown reporting). */
    std::vector<std::pair<vm::MethodId, core::RequestTrace>> traces;
    /** Qualified names of the roots in @ref traces (the program
     * dies with the testbed; names outlive it). */
    std::map<vm::MethodId, std::string> root_names;
    /// @}

    /** @name Telemetry (populated when beehive.telemetry is on) */
    /// @{
    /** Per-phase critical-path aggregate across client requests. */
    telemetry::PhaseAggregate breakdown;
    /** Chrome trace JSON (empty unless options.export_trace). */
    std::string trace_json;
    /** Span well-formedness violations (expected empty). */
    std::vector<std::string> span_violations;
    /// @}
};

/** Run one Figure 7 configuration. */
BurstResult runBurstExperiment(const BurstOptions &options);

/**
 * One cell of the burst matrix: the options that tell two Figure
 * 7-style runs apart. Table 3, Figure 9 and Section 5.7 read the
 * same cells Figure 7 plots, so one matrix serves all four.
 */
struct BurstCell
{
    AppKind app = AppKind::Pybbs;
    Solution solution = Solution::BeeHiveO;
    BurstVariant variant = BurstVariant::Cold;
    sim::SimTime duration = sim::SimTime::sec(180);
    sim::SimTime burst_at = sim::SimTime::sec(60);

    auto operator<=>(const BurstCell &) const = default;
};

/** Results of a burst matrix, one per distinct cell. */
using BurstMatrix = std::map<BurstCell, BurstResult>;

/**
 * Run each distinct cell of @p cells once, fanned over @p threads
 * (see runTrials), with the rest of its options taken from @p base.
 * A cell listed twice runs one trial. base.export_trace applies to
 * the cell equal to @p trace_cell only (none when null).
 */
BurstMatrix runBurstMatrix(const std::vector<BurstCell> &cells,
                           const BurstOptions &base,
                           unsigned threads = 0,
                           const BurstCell *trace_cell = nullptr);

/** Default near-peak client count for an app. */
int defaultClients(AppKind app);

} // namespace beehive::harness

#endif // BEEHIVE_HARNESS_BURST_H
