/**
 * @file
 * The throughput experiment (paper Section 5.3, Figure 8; also the
 * fixed-throughput tail measurements of Table 4 and Figure 10).
 *
 * Open-loop Poisson arrivals at a fixed offered rate; latency is
 * recorded after a warm-up window. Configurations: the vanilla JVM
 * on the always-on server, BeeHive-Single (the instrumented server
 * with offloading disabled -- isolates the write-barrier cost),
 * and BeeHive offloading to OpenWhisk or Lambda.
 */

#ifndef BEEHIVE_HARNESS_THROUGHPUT_H
#define BEEHIVE_HARNESS_THROUGHPUT_H

#include <string>
#include <vector>

#include "harness/testbed.h"
#include "telemetry/critical_path.h"

namespace beehive::harness {

/** Figure 8's configurations. */
enum class ThroughputConfig
{
    Vanilla,
    BeeHiveSingle,
    BeeHiveO,
    BeeHiveL,
};

const char *throughputConfigName(ThroughputConfig config);

/** One point of the latency-throughput curve. */
struct ThroughputPoint
{
    double offered_rps = 0.0;
    double achieved_rps = 0.0;
    double mean_latency = 0.0; //!< seconds
    double p99_latency = 0.0;  //!< seconds

    /** @name Telemetry (populated when beehive.telemetry is on) */
    /// @{
    telemetry::PhaseAggregate breakdown;
    /** Chrome trace JSON (empty unless options.export_trace). */
    std::string trace_json;
    /// @}
};

/** Sweep parameters. */
struct ThroughputOptions
{
    AppKind app = AppKind::Pybbs;
    ThroughputConfig config = ThroughputConfig::Vanilla;
    uint64_t seed = 1;
    sim::SimTime duration = sim::SimTime::sec(30);
    sim::SimTime warmup = sim::SimTime::sec(8);
    /** Offload ratio; negative = derive from offered load vs the
     * calibrated server saturation. */
    double offload_ratio = -1.0;

    /** Telemetry: serialize the span tree of each point's run as
     * Chrome trace JSON (needs beehive.telemetry). */
    bool export_trace = false;
    /** Restrict the export to one request id (0 = all requests). */
    uint64_t trace_request = 0;

    apps::FrameworkOptions framework;
    core::BeeHiveConfig beehive;
};

/** Run one offered-rate point. */
ThroughputPoint runThroughputPoint(const ThroughputOptions &options,
                                   double offered_rps);

/** Run a whole sweep. */
std::vector<ThroughputPoint>
runThroughputSweep(const ThroughputOptions &options,
                   const std::vector<double> &rates);

/** Calibrated vanilla saturation rate for an app. */
double saturationRps(AppKind app);

} // namespace beehive::harness

#endif // BEEHIVE_HARNESS_THROUGHPUT_H
