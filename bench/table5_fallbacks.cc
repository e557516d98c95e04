/**
 * @file
 * Table 5: fallback analysis on OpenWhisk.
 *
 * Mixed load at a 0.5 offloading ratio generates shadow executions
 * (one per fresh function instance) and steady-state offloaded
 * requests whose lock ownership ping-pongs between endpoints. Per
 * app we report, separately for the shadow phase and steady state:
 * average fallbacks per invocation, fallback overhead, remote
 * fetches, fetch overhead, and synchronized objects.
 *
 * Paper values (thumbnail/pybbs/blog): steady fallbacks 1/7/3 (all
 * synchronization), overhead 0.51/4.15/1.87 ms, remote fetching 0,
 * synchronized objects 5/88/29; shadow fallbacks 64/1525/348 with
 * 63/1518/345 remote fetches costing 207.75/695.51/246.60 ms.
 */

#include "bench/bench_common.h"
#include "harness/burst.h"
#include "harness/report.h"
#include "workload/clients.h"

using namespace beehive;
using namespace beehive::harness;
using namespace beehive::bench;
using sim::SimTime;

namespace {

struct Analysis
{
    double steady_fallbacks = 0;
    double steady_overhead_ms = 0;
    double steady_fetches = 0;
    double steady_sync_objects = 0;
    double shadow_fallbacks = 0;
    double shadow_fetches = 0;
    double shadow_fetch_ms = 0;
    uint64_t shadow_count = 0;
    uint64_t steady_count = 0;

    /** Per-endpoint boot-path breakdown of the same run. */
    std::vector<BootBreakdownRow> boots;
    std::map<vm::MethodId, std::string> root_names;

    /** Boot-path counters (static-manifest runs). */
    uint64_t restore_boots = 0;
    uint64_t cold_boots = 0;
    uint64_t manifests_synthesized = 0;

    /** Failure handling (chaos=on runs only; zero otherwise). */
    core::OffloadStats offload;
    chaos::ChaosStats chaos;
};

Analysis
analyze(AppKind app, const BenchArgs &args,
        bool static_manifests = false)
{
    TestbedOptions tb;
    tb.app = app;
    tb.seed = args.seed;
    tb.framework = benchFramework();
    tb.beehive.static_manifests = static_manifests;
    if (args.chaos) {
        // Failure columns: run the same drill under the storm plan
        // with the recovery stack on. With chaos off this block is
        // skipped entirely and the output stays byte-identical.
        tb.chaos = chaos::FaultPlan::storm(args.chaos_intensity);
        tb.chaos.blackhole = SimTime::sec(5);
        tb.beehive.failure_recovery = true;
        tb.beehive.offload_deadline = SimTime::sec(2);
        tb.beehive.offload_max_retries = 6;
        tb.beehive.retry_backoff_base = SimTime::msec(5);
        tb.beehive.breaker_threshold = 3;
    }
    Testbed bed(tb);
    if (!bed.runProfilingPhase())
        return {};
    SimTime t0 = bed.sim().now();
    SimTime duration =
        args.quick ? SimTime::sec(20) : SimTime::sec(60);

    bed.manager()->setOffloadRatio(0.5);
    workload::Recorder recorder;
    workload::ClosedLoopClients clients(bed.sim(), bed.sink(),
                                        recorder);
    clients.start(defaultClients(app) * 2, t0);
    bed.sim().runUntil(t0 + duration);
    clients.stopAll();
    bed.sim().runUntil(t0 + duration + SimTime::sec(5));

    Analysis out;
    for (const auto &[root, trace] : bed.manager()->traces()) {
        if (trace.shadow) {
            ++out.shadow_count;
            out.shadow_fallbacks +=
                static_cast<double>(trace.fallbacks);
            out.shadow_fetches +=
                static_cast<double>(trace.remoteFetches());
            out.shadow_fetch_ms += trace.fetch_time.toMillis();
        } else {
            ++out.steady_count;
            out.steady_fallbacks +=
                static_cast<double>(trace.fallbacks);
            out.steady_overhead_ms +=
                trace.fallback_time.toMillis();
            out.steady_fetches +=
                static_cast<double>(trace.remoteFetches());
            out.steady_sync_objects +=
                static_cast<double>(trace.synchronized_objects);
        }
    }
    if (out.shadow_count) {
        out.shadow_fallbacks /= out.shadow_count;
        out.shadow_fetches /= out.shadow_count;
        out.shadow_fetch_ms /= out.shadow_count;
    }
    if (out.steady_count) {
        out.steady_fallbacks /= out.steady_count;
        out.steady_overhead_ms /= out.steady_count;
        out.steady_fetches /= out.steady_count;
        out.steady_sync_objects /= out.steady_count;
    }
    out.boots = collectBootBreakdown(bed.manager()->traces());
    for (const BootBreakdownRow &r : out.boots)
        out.root_names[r.root] = bed.program().qualifiedName(r.root);
    out.restore_boots = bed.platform()->restoreBoots();
    out.cold_boots = bed.platform()->coldBoots();
    if (auto *snaps = bed.server().snapshots())
        out.manifests_synthesized = snaps->manifestsSynthesized();
    out.offload = bed.manager()->stats();
    if (bed.chaosEngine())
        out.chaos = bed.chaosEngine()->stats();
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchArgs args = parseArgs(argc, argv);

    Analysis a[3];
    int i = 0;
    for (AppKind app : kAllApps)
        a[i++] = analyze(app, args);

    auto row = [&](const char *name, double t, double p, double b,
                   const char *paper) {
        return std::vector<std::string>{name, fmt(t, 2), fmt(p, 2),
                                        fmt(b, 2), paper};
    };
    std::vector<std::vector<std::string>> rows = {
        row("Fallbacks", a[0].steady_fallbacks,
            a[1].steady_fallbacks, a[2].steady_fallbacks, "1/7/3"),
        row("Fallback overhead (ms)", a[0].steady_overhead_ms,
            a[1].steady_overhead_ms, a[2].steady_overhead_ms,
            "0.51/4.15/1.87"),
        row("Remote fetching", a[0].steady_fetches,
            a[1].steady_fetches, a[2].steady_fetches, "0/0/0"),
        row("Synchronized objects", a[0].steady_sync_objects,
            a[1].steady_sync_objects, a[2].steady_sync_objects,
            "5/88/29"),
        row("Fallbacks (shadow)", a[0].shadow_fallbacks,
            a[1].shadow_fallbacks, a[2].shadow_fallbacks,
            "64/1525/348"),
        row("Remote fetching (shadow)", a[0].shadow_fetches,
            a[1].shadow_fetches, a[2].shadow_fetches,
            "63/1518/345"),
        row("Fetching overhead (shadow) (ms)", a[0].shadow_fetch_ms,
            a[1].shadow_fetch_ms, a[2].shadow_fetch_ms,
            "207.75/695.51/246.60"),
    };
    printTable("Table 5: fallback analysis on OpenWhisk "
               "(avg per invocation)",
               {"Metric", "thumbnail", "pybbs", "blog", "paper"},
               rows);
    std::printf("\ninvocations analyzed: shadow %llu/%llu/%llu, "
                "steady %llu/%llu/%llu\n",
                (unsigned long long)a[0].shadow_count,
                (unsigned long long)a[1].shadow_count,
                (unsigned long long)a[2].shadow_count,
                (unsigned long long)a[0].steady_count,
                (unsigned long long)a[1].steady_count,
                (unsigned long long)a[2].steady_count);

    i = 0;
    for (AppKind app : kAllApps) {
        const Analysis &an = a[i++];
        auto name = [&an](vm::MethodId root) {
            auto it = an.root_names.find(root);
            return it != an.root_names.end() ? it->second
                                             : std::to_string(root);
        };
        printBootBreakdown(
            std::string("Boot-path breakdown: ") + appName(app),
            name, an.boots);
    }

    // --- static-restore row: the same drill with static_manifests
    // on. Every first boot restores from a synthesized manifest, so
    // the shadow-phase fetch storm (the 63/1518/345 row above)
    // collapses to the manifest's residual misses.
    Analysis s[3];
    i = 0;
    for (AppKind app : kAllApps)
        s[i++] = analyze(app, args, /*static_manifests=*/true);
    std::vector<std::vector<std::string>> static_rows = {
        {"Remote fetching (shadow)", fmt(s[0].shadow_fetches, 2),
         fmt(s[1].shadow_fetches, 2), fmt(s[2].shadow_fetches, 2),
         "63/1518/345 (cold)"},
        {"Fetching overhead (shadow) (ms)",
         fmt(s[0].shadow_fetch_ms, 2), fmt(s[1].shadow_fetch_ms, 2),
         fmt(s[2].shadow_fetch_ms, 2), "207.75/695.51/246.60 (cold)"},
        {"Restore boots",
         fmt(static_cast<double>(s[0].restore_boots), 0),
         fmt(static_cast<double>(s[1].restore_boots), 0),
         fmt(static_cast<double>(s[2].restore_boots), 0), "-"},
        {"Cold boots", fmt(static_cast<double>(s[0].cold_boots), 0),
         fmt(static_cast<double>(s[1].cold_boots), 0),
         fmt(static_cast<double>(s[2].cold_boots), 0), "-"},
        {"Manifests synthesized",
         fmt(static_cast<double>(s[0].manifests_synthesized), 0),
         fmt(static_cast<double>(s[1].manifests_synthesized), 0),
         fmt(static_cast<double>(s[2].manifests_synthesized), 0),
         "-"},
    };
    printTable("Table 5 follow-up: static-restore (synthesized "
               "manifests, first boot)",
               {"Metric", "thumbnail", "pybbs", "blog", "paper"},
               static_rows);

    // --- failure columns (chaos=on only, so the default output
    // above stays byte-identical to a chaos-free run).
    if (args.chaos) {
        std::vector<std::vector<std::string>> chaos_rows = {
            {"Faults injected",
             std::to_string(a[0].chaos.total()),
             std::to_string(a[1].chaos.total()),
             std::to_string(a[2].chaos.total())},
            {"Retries", std::to_string(a[0].offload.retries),
             std::to_string(a[1].offload.retries),
             std::to_string(a[2].offload.retries)},
            {"Deadline expirations",
             std::to_string(a[0].offload.deadline_expirations),
             std::to_string(a[1].offload.deadline_expirations),
             std::to_string(a[2].offload.deadline_expirations)},
            {"Boot failures",
             std::to_string(a[0].offload.boot_failures),
             std::to_string(a[1].offload.boot_failures),
             std::to_string(a[2].offload.boot_failures)},
            {"Local fallbacks",
             std::to_string(a[0].offload.local_fallbacks),
             std::to_string(a[1].offload.local_fallbacks),
             std::to_string(a[2].offload.local_fallbacks)},
            {"Breaker ejections",
             std::to_string(a[0].offload.breaker_ejections),
             std::to_string(a[1].offload.breaker_ejections),
             std::to_string(a[2].offload.breaker_ejections)},
        };
        printTable("Table 5 failure columns (chaos=on, intensity " +
                       fmt(args.chaos_intensity, 2) + ")",
                   {"Metric", "thumbnail", "pybbs", "blog"},
                   chaos_rows);
    }
    return 0;
}
