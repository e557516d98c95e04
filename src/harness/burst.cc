#include "harness/burst.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "harness/parallel.h"
#include "snapshot/store.h"
#include "support/logging.h"
#include "telemetry/export.h"

namespace beehive::harness {

using sim::SimTime;

const char *
solutionName(Solution solution)
{
    switch (solution) {
      case Solution::Burstable: return "Burstable";
      case Solution::OnDemand: return "EC2";
      case Solution::Fargate: return "Fargate";
      case Solution::BeeHiveO: return "BeeHiveO";
      case Solution::BeeHiveL: return "BeeHiveL";
      case Solution::Combo: return "BeeHive+EC2";
    }
    return "?";
}

int
defaultClients(AppKind app)
{
    ClientCalibration cal;
    switch (app) {
      case AppKind::Thumbnail: return cal.thumbnail;
      case AppKind::Pybbs: return cal.pybbs;
      case AppKind::Blog: return cal.blog;
    }
    return 8;
}

namespace {

bool
isBeeHive(Solution solution)
{
    return solution == Solution::BeeHiveO ||
           solution == Solution::BeeHiveL ||
           solution == Solution::Combo;
}

cloud::ScalingKind
scalingKindOf(Solution solution)
{
    switch (solution) {
      case Solution::Burstable: return cloud::ScalingKind::Burstable;
      case Solution::OnDemand: return cloud::ScalingKind::OnDemand;
      case Solution::Fargate: return cloud::ScalingKind::Fargate;
      default: panic("not an instance-scaling solution");
    }
}

const cloud::InstanceType &
instanceTypeOf(Solution solution)
{
    switch (solution) {
      case Solution::Burstable: return cloud::t3XLarge();
      case Solution::OnDemand: return cloud::m4XLarge();
      case Solution::Fargate: return cloud::fargate4();
      default: panic("not an instance-scaling solution");
    }
}

} // namespace

BurstResult
runBurstExperiment(const BurstOptions &options)
{
    TestbedOptions tb_opts;
    tb_opts.app = options.app;
    tb_opts.seed = options.seed;
    tb_opts.vanilla = !isBeeHive(options.solution);
    tb_opts.faas = options.solution == Solution::BeeHiveL
                       ? FaasFlavor::Lambda
                       : FaasFlavor::OpenWhisk;
    tb_opts.framework = options.framework;
    tb_opts.beehive = options.beehive;
    if ((options.variant == BurstVariant::Snapshot ||
         options.variant == BurstVariant::StaticManifest) &&
        isBeeHive(options.solution)) {
        // Short keep-alive: cached instances must actually leave
        // the cache before the burst, or warm boots would mask the
        // restore path under study.
        tb_opts.beehive.snapshot_enabled =
            options.variant == BurstVariant::Snapshot;
        tb_opts.beehive.static_manifests =
            options.variant == BurstVariant::StaticManifest;
        tb_opts.faas_keep_alive = SimTime::sec(8);
    }
    Testbed bed(tb_opts);

    if (isBeeHive(options.solution)) {
        bool selected = bed.runProfilingPhase();
        bh_assert(selected, "profiler failed to select the handler");
    }
    // The profiling phase consumed some simulated time; rebase the
    // experiment timeline from here.
    SimTime t0 = bed.sim().now();
    auto at = [&](SimTime offset) { return t0 + offset; };

    int base = options.base_clients > 0 ? options.base_clients
                                        : defaultClients(options.app);

    // --- Request routing: everything to the primary server until a
    // baseline scale-out instance is ready, then alternate.
    auto second_sink = std::make_shared<workload::RequestSink>();
    workload::RequestSink primary = bed.sink();
    workload::RequestSink route =
        [primary, second_sink](int64_t id,
                               std::function<void()> done) {
            if (*second_sink && (id & 1)) {
                (*second_sink)(id, std::move(done));
                return;
            }
            primary(id, std::move(done));
        };

    workload::Recorder recorder;
    recorder.setWarmupCutoff(at(SimTime::sec(5)));
    workload::ClosedLoopClients clients(bed.sim(), route, recorder);
    clients.start(base, at(SimTime()));
    clients.startWindow(base, at(options.burst_at),
                        at(options.duration));

    // --- The burst handler.
    std::unique_ptr<cloud::InstanceScaler> scaler;
    double instance_ready = -1.0; //!< see BurstResult
    if (options.solution == Solution::Combo) {
        // Section 5.7: offload immediately, request an on-demand
        // instance, and stop offloading once it is ready.
        core::OffloadManager *mgr = bed.manager();
        scaler = std::make_unique<cloud::InstanceScaler>(
            bed.sim(), bed.network(), cloud::ScalingKind::OnDemand,
            cloud::m4XLarge(), "vpc");
        bed.sim().at(at(options.burst_at), [&, mgr] {
            mgr->setOffloadRatio(options.offload_ratio);
            scaler->requestInstance([&,
                                     mgr](cloud::Instance &machine) {
                core::BeeHiveServer &second =
                    bed.addBaselineServer(machine);
                *second_sink = bed.sinkTo(second);
                mgr->setOffloadRatio(0.0);
                instance_ready = (bed.sim().now() - t0).toSeconds();
            });
        });
    } else if (isBeeHive(options.solution)) {
        core::OffloadManager *mgr = bed.manager();
        if (options.variant == BurstVariant::Warm) {
            // Pre-burst drill: briefly offload so instances are
            // created, warmed, and parked in the platform cache
            // (always ending well before the burst).
            SimTime drill_on = options.burst_at - SimTime::sec(24);
            SimTime drill_off = options.burst_at - SimTime::sec(8);
            bed.sim().at(at(drill_on), [&, mgr] {
                mgr->setOffloadRatio(options.offload_ratio);
            });
            bed.sim().at(at(drill_off),
                         [mgr] { mgr->setOffloadRatio(0.0); });
        } else if (options.variant == BurstVariant::Snapshot) {
            // Recording drill, earlier than the warm one: the cold
            // boots it pays populate the snapshot store, and the
            // short keep-alive expires its instances before the
            // burst -- so the burst boots fresh instances from the
            // recorded images.
            SimTime drill_on = options.burst_at - SimTime::sec(30);
            SimTime drill_off = options.burst_at - SimTime::sec(20);
            bed.sim().at(at(drill_on), [&, mgr] {
                mgr->setOffloadRatio(options.offload_ratio);
            });
            bed.sim().at(at(drill_off),
                         [mgr] { mgr->setOffloadRatio(0.0); });
        }
        bed.sim().at(at(options.burst_at), [&, mgr] {
            mgr->setOffloadRatio(options.offload_ratio);
        });
    } else {
        scaler = std::make_unique<cloud::InstanceScaler>(
            bed.sim(), bed.network(), scalingKindOf(options.solution),
            instanceTypeOf(options.solution), "vpc");
        bed.sim().at(at(options.burst_at), [&] {
            scaler->requestInstance([&](cloud::Instance &machine) {
                core::BeeHiveServer &second =
                    bed.addBaselineServer(machine);
                *second_sink = bed.sinkTo(second);
                instance_ready = (bed.sim().now() - t0).toSeconds();
            });
        });
    }

    bed.sim().runUntil(at(options.duration));
    clients.stopAll();
    bed.sim().runUntil(at(options.duration) + SimTime::sec(2));

    // --- Analysis.
    BurstResult result;
    result.completed_requests = recorder.completed();
    std::size_t seconds =
        static_cast<std::size_t>(options.duration.toSeconds());
    std::size_t base_bucket =
        static_cast<std::size_t>(t0.toSeconds());
    for (std::size_t s = 0; s < seconds; ++s) {
        result.p99_per_second.push_back(
            recorder.series().bucketPercentile(base_bucket + s, 99));
        result.mean_per_second.push_back(
            recorder.series().bucketMean(base_bucket + s));
    }

    result.pre_burst_p99 = recorder.windowPercentile(
        at(options.burst_at - SimTime::sec(15)), at(options.burst_at),
        99);

    // Stabilization analysis: the first post-burst moment from
    // which the tail stays within a band around the run's own final
    // steady level (last fifth of the experiment, reported
    // alongside). A baseline's tail cannot settle before its
    // scale-out instance serves: until then it holds the overloaded
    // level, which the final window takes for "steady" when the
    // instance arrives late or never. So a baseline's search starts
    // at the arrival second, and one whose instance never arrived
    // never stabilized.
    result.stable_p99 = recorder.windowPercentile(
        at(options.duration - SimTime::sec(15)), at(options.duration),
        99);
    double burst_s = options.burst_at.toSeconds();
    double pre_band = std::max(result.pre_burst_p99 * 1.3,
                               result.pre_burst_p99 + 0.010);
    double threshold = std::max(result.stable_p99 * 1.25, pre_band);
    std::size_t search_from = static_cast<std::size_t>(burst_s);
    bool can_settle = !std::isnan(result.stable_p99);
    result.instance_ready_seconds = instance_ready;
    if (!isBeeHive(options.solution)) {
        if (instance_ready < 0)
            can_settle = false;
        else
            search_from = std::max(
                search_from, static_cast<std::size_t>(instance_ready));
    }
    if (can_settle) {
        for (std::size_t s = search_from;
             s + 2 < result.p99_per_second.size(); ++s) {
            bool stable = true;
            for (std::size_t k = s; k < s + 3; ++k) {
                double v = result.p99_per_second[k];
                if (std::isnan(v) || v > threshold) {
                    stable = false;
                    break;
                }
            }
            if (stable) {
                result.stabilization_seconds =
                    static_cast<double>(s) - burst_s;
                break;
            }
        }
    }

    if (isBeeHive(options.solution)) {
        result.scaling_cost =
            bed.platform()->accruedCost(bed.sim().now());
        result.offload = bed.manager()->stats();
        result.cold_boots = bed.platform()->coldBoots();
        result.warm_boots = bed.platform()->warmBoots();
        result.restore_boots = bed.platform()->restoreBoots();
        if (const auto *snaps = bed.server().snapshots()) {
            result.manifests_synthesized =
                snaps->manifestsSynthesized();
            result.snapshot_refined_dropped =
                snaps->refinedDropped();
        }
        result.traces = bed.manager()->traces();
        for (const auto &[root, trace] : result.traces) {
            if (!result.root_names.count(root))
                result.root_names[root] =
                    bed.program().qualifiedName(root);
        }
        if (scaler) // combo: FaaS + the on-demand instance
            result.scaling_cost +=
                scaler->accruedCost(bed.sim().now());
    } else {
        result.scaling_cost = scaler->accruedCost(bed.sim().now());
    }

    if (telemetry::Tracer *t = bed.tracer()) {
        result.breakdown = telemetry::aggregateBreakdown(*t);
        result.span_violations = telemetry::validateSpans(*t);
        if (options.export_trace) {
            result.trace_json = telemetry::toChromeTraceJson(
                *t, options.trace_request);
        }
    }
    return result;
}

BurstMatrix
runBurstMatrix(const std::vector<BurstCell> &cells,
               const BurstOptions &base, unsigned threads,
               const BurstCell *trace_cell)
{
    std::vector<BurstCell> distinct;
    for (const BurstCell &cell : cells) {
        if (std::find(distinct.begin(), distinct.end(), cell) ==
            distinct.end())
            distinct.push_back(cell);
    }
    std::vector<BurstResult> results = runTrials(
        distinct.size(),
        [&](std::size_t i) {
            const BurstCell &cell = distinct[i];
            BurstOptions opts = base;
            opts.app = cell.app;
            opts.solution = cell.solution;
            opts.variant = cell.variant;
            opts.duration = cell.duration;
            opts.burst_at = cell.burst_at;
            opts.export_trace = base.export_trace && trace_cell &&
                                cell == *trace_cell;
            return runBurstExperiment(opts);
        },
        threads);
    BurstMatrix matrix;
    for (std::size_t i = 0; i < distinct.size(); ++i)
        matrix.emplace(distinct[i], std::move(results[i]));
    return matrix;
}

} // namespace beehive::harness
