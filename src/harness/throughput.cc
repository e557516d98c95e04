#include "harness/throughput.h"

#include <algorithm>

#include "support/logging.h"
#include "telemetry/export.h"

namespace beehive::harness {

using sim::SimTime;

namespace {

/** Concurrent-offload cap of a sweep point (function instances in
 * flight). */
constexpr std::size_t kMaxOffloads = 160;

} // namespace

const char *
throughputConfigName(ThroughputConfig config)
{
    switch (config) {
      case ThroughputConfig::Vanilla: return "Vanilla";
      case ThroughputConfig::BeeHiveSingle: return "BeeHive-Single";
      case ThroughputConfig::BeeHiveO: return "BeeHiveO";
      case ThroughputConfig::BeeHiveL: return "BeeHiveL";
    }
    return "?";
}

double
saturationRps(AppKind app)
{
    SaturationCalibration cal;
    switch (app) {
      case AppKind::Thumbnail: return cal.thumbnail;
      case AppKind::Pybbs: return cal.pybbs;
      case AppKind::Blog: return cal.blog;
    }
    return 100.0;
}

ThroughputPoint
runThroughputPoint(const ThroughputOptions &options,
                   double offered_rps)
{
    bool offloading = options.config == ThroughputConfig::BeeHiveO ||
                      options.config == ThroughputConfig::BeeHiveL;

    TestbedOptions tb_opts;
    tb_opts.app = options.app;
    tb_opts.seed = options.seed;
    tb_opts.vanilla = options.config == ThroughputConfig::Vanilla;
    tb_opts.faas = options.config == ThroughputConfig::BeeHiveL
                       ? FaasFlavor::Lambda
                       : FaasFlavor::OpenWhisk;
    tb_opts.framework = options.framework;
    tb_opts.beehive = options.beehive;
    Testbed bed(tb_opts);

    if (offloading) {
        bool selected = bed.runProfilingPhase();
        bh_assert(selected, "profiler failed to select the handler");
    }
    SimTime t0 = bed.sim().now();

    if (offloading) {
        bed.manager()->setMaxConcurrentOffloads(kMaxOffloads);
        double ratio = options.offload_ratio;
        if (ratio < 0.0) {
            // Keep the server comfortably below saturation and push
            // the excess to FaaS.
            double sat = 0.85 * saturationRps(options.app);
            ratio = offered_rps <= sat
                        ? 0.0
                        : std::min(0.97, 1.0 - sat / offered_rps);
        }
        bed.manager()->setOffloadRatio(ratio);
    }

    workload::Recorder recorder;
    recorder.setWarmupCutoff(t0 + options.warmup);
    workload::OpenLoopArrivals arrivals(bed.sim(), bed.sink(),
                                        recorder);
    arrivals.run(offered_rps, t0, t0 + options.duration);
    bed.sim().runUntil(t0 + options.duration + SimTime::sec(3));

    ThroughputPoint point;
    point.offered_rps = offered_rps;
    point.achieved_rps = recorder.throughput(
        t0 + options.warmup, t0 + options.duration);
    point.mean_latency = recorder.latencies().mean();
    point.p99_latency = recorder.latencies().percentile(99);

    if (telemetry::Tracer *t = bed.tracer()) {
        point.breakdown = telemetry::aggregateBreakdown(*t);
        if (options.export_trace) {
            point.trace_json = telemetry::toChromeTraceJson(
                *t, options.trace_request);
        }
    }
    return point;
}

std::vector<ThroughputPoint>
runThroughputSweep(const ThroughputOptions &options,
                   const std::vector<double> &rates)
{
    std::vector<ThroughputPoint> points;
    for (double rps : rates)
        points.push_back(runThroughputPoint(options, rps));
    return points;
}

} // namespace beehive::harness
