/**
 * @file
 * Fault storm: end-to-end failure handling under the chaos plane.
 *
 * Sweeps the canonical storm plan's intensity (FaultPlan::storm)
 * over a mixed offloaded workload with the full recovery stack on
 * (deadlines, bounded retries with backoff, circuit breaker,
 * graceful degradation, checksum-verified restores) and reports,
 * per intensity: request latency p50/p99, injected-fault counts per
 * class, and the recovery actions taken. The invariant under test
 * is *zero dropped requests*: every issued request completes even
 * at full intensity -- failed attempts are retried or re-executed
 * locally, and the exactly-once write guard keeps retries safe.
 *
 * Intensity 0 runs with no engine constructed, so its row doubles
 * as the fault-free baseline.
 *
 * Results go to stdout and to BENCH_faults.json in the working
 * directory; the last line is a machine-greppable summary and the
 * exit status is nonzero when any request was dropped.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "harness/burst.h"
#include "harness/report.h"
#include "workload/clients.h"

using namespace beehive;
using namespace beehive::harness;
using namespace beehive::bench;
using sim::SimTime;

namespace {

struct StormResult
{
    double intensity = 0.0;
    uint64_t issued = 0;
    uint64_t completed = 0;
    uint64_t dropped = 0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    core::OffloadStats offload;
    chaos::ChaosStats chaos;
    double degrade_factor = 1.0;
};

StormResult
runStorm(AppKind app, const BenchArgs &args, double intensity)
{
    TestbedOptions tb;
    tb.app = app;
    tb.seed = args.seed;
    tb.framework = benchFramework(args);
    // Full recovery stack: snapshots at sync points, per-attempt
    // deadlines, bounded backoff retries, breaker, degradation.
    tb.beehive.failure_recovery = true;
    tb.beehive.static_manifests = true;
    tb.beehive.offload_deadline = SimTime::sec(2);
    tb.beehive.offload_max_retries = 6;
    tb.beehive.retry_backoff_base = SimTime::msec(5);
    tb.beehive.breaker_threshold = 3;
    tb.beehive.graceful_degradation = true;
    // Short keep-alive: instance churn exercises the cold/restore
    // boot paths (and their crash injections) many times per run.
    tb.faas_keep_alive = SimTime::sec(5);
    tb.chaos = chaos::FaultPlan::storm(intensity);
    // A 5 s blackhole keeps dropped-message stalls well above the
    // offload deadline (so they surface as timeouts) but small
    // enough that the drain window below bounds every request.
    tb.chaos.blackhole = SimTime::sec(5);

    Testbed bed(tb);
    StormResult out;
    out.intensity = intensity;
    if (!bed.runProfilingPhase())
        return out;
    bed.manager()->setOffloadRatio(0.5);

    workload::Recorder recorder;
    workload::RequestSink raw = bed.sink();
    workload::RequestSink counted =
        [&out, raw](int64_t id, std::function<void()> done) {
            ++out.issued;
            raw(id, std::move(done));
        };
    workload::ClosedLoopClients clients(bed.sim(), counted, recorder);

    SimTime t0 = bed.sim().now();
    SimTime duration =
        args.quick ? SimTime::sec(10) : SimTime::sec(45);
    clients.start(defaultClients(app), t0);
    bed.sim().runUntil(t0 + duration);
    clients.stopAll();
    // Drain: every in-flight request must complete. A single
    // request can stack several blackholes (each DB hop is an
    // independent drop draw) on top of the full retry budget, so
    // the guard must dominate that tail -- the loop exits as soon
    // as the last request lands, so a generous guard costs nothing
    // in the common case. Anything still missing afterwards was
    // genuinely dropped.
    SimTime guard = bed.sim().now() + SimTime::sec(180);
    while (recorder.completed() < out.issued &&
           bed.sim().now() < guard)
        bed.sim().runUntil(bed.sim().now() + SimTime::sec(1));

    out.completed = recorder.completed();
    out.dropped = out.issued - out.completed;
    out.p50_ms = recorder.latencies().percentile(50.0) * 1e3;
    out.p99_ms = recorder.latencies().percentile(99.0) * 1e3;
    out.offload = bed.manager()->stats();
    out.degrade_factor = bed.manager()->degradeFactor();
    if (bed.chaosEngine())
        out.chaos = bed.chaosEngine()->stats();
    return out;
}

void
writeJson(const BenchArgs &args,
          const std::vector<std::pair<std::string, StormResult>> &runs,
          bool ok)
{
    std::FILE *json = std::fopen("BENCH_faults.json", "w");
    if (!json) {
        std::fprintf(stderr, "could not write BENCH_faults.json\n");
        return;
    }
    std::fprintf(json, "{\n  \"seed\": %llu,\n  \"quick\": %s,\n",
                 (unsigned long long)args.seed,
                 args.quick ? "true" : "false");
    std::fprintf(json, "  \"runs\": [\n");
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const auto &[app, r] = runs[i];
        const core::OffloadStats &o = r.offload;
        const chaos::ChaosStats &c = r.chaos;
        std::fprintf(
            json,
            "    {\"app\": \"%s\", \"intensity\": %.2f, "
            "\"issued\": %llu, \"completed\": %llu, "
            "\"dropped\": %llu, \"p50_ms\": %.3f, \"p99_ms\": %.3f,\n"
            "     \"offload\": {\"offloaded\": %llu, "
            "\"retries\": %llu, "
            "\"deadline_expirations\": %llu, "
            "\"boot_failures\": %llu, \"local_fallbacks\": %llu, "
            "\"shadows_abandoned\": %llu, "
            "\"breaker_ejections\": %llu, \"degradations\": %llu, "
            "\"corrupt_restores\": %llu},\n"
            "     \"chaos\": {\"net_drops\": %llu, "
            "\"net_spikes\": %llu, \"boot_crashes\": %llu, "
            "\"restore_crashes\": %llu, \"invoke_crashes\": %llu, "
            "\"throttles\": %llu, \"db_resets\": %llu, "
            "\"image_corruptions\": %llu, \"total\": %llu}}%s\n",
            app.c_str(), r.intensity,
            (unsigned long long)r.issued,
            (unsigned long long)r.completed,
            (unsigned long long)r.dropped, r.p50_ms, r.p99_ms,
            (unsigned long long)o.offloaded,
            (unsigned long long)o.retries,
            (unsigned long long)o.deadline_expirations,
            (unsigned long long)o.boot_failures,
            (unsigned long long)o.local_fallbacks,
            (unsigned long long)o.shadows_abandoned,
            (unsigned long long)o.breaker_ejections,
            (unsigned long long)o.degradations,
            (unsigned long long)o.corrupt_restores,
            (unsigned long long)c.net_drops,
            (unsigned long long)c.net_spikes,
            (unsigned long long)c.boot_crashes,
            (unsigned long long)c.restore_crashes,
            (unsigned long long)c.invoke_crashes,
            (unsigned long long)c.throttles,
            (unsigned long long)c.db_resets,
            (unsigned long long)c.image_corruptions,
            (unsigned long long)c.total(),
            i + 1 < runs.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n  \"ok\": %s\n}\n",
                 ok ? "true" : "false");
    std::fclose(json);
}

} // namespace

int
main(int argc, char **argv)
{
    BenchArgs args = parseArgs(argc, argv);

    std::vector<double> intensities =
        args.quick ? std::vector<double>{0.0, 0.5, 1.0}
                   : std::vector<double>{0.0, 0.25, 0.5, 0.75, 1.0};

    std::vector<std::pair<std::string, StormResult>> runs;
    bool ok = true;
    for (AppKind app : appsFor(args)) {
        std::vector<std::vector<std::string>> rows;
        for (double intensity : intensities) {
            StormResult r = runStorm(app, args, intensity);
            ok = ok && r.dropped == 0 && r.issued > 0;
            rows.push_back(
                {fmt(intensity, 2), fmt(r.p50_ms, 2),
                 fmt(r.p99_ms, 2),
                 std::to_string(r.chaos.total()),
                 std::to_string(r.offload.retries),
                 std::to_string(r.offload.local_fallbacks),
                 std::to_string(r.offload.breaker_ejections),
                 std::to_string(r.offload.degradations),
                 std::to_string(r.issued),
                 std::to_string(r.dropped)});
            runs.emplace_back(appName(app), r);
        }
        printTable(std::string("Fault storm: ") + appName(app),
                   {"intensity", "p50 ms", "p99 ms", "faults",
                    "retries", "fallbacks", "ejected",
                    "degraded", "issued", "dropped"},
                   rows);
    }

    writeJson(args, runs, ok);

    uint64_t faults = 0, retries = 0, dropped = 0;
    for (const auto &[app, r] : runs) {
        faults += r.chaos.total();
        retries += r.offload.retries;
        dropped += r.dropped;
    }
    // The summary line keeps its `recoveries=` key: every retry is
    // one recovery.
    std::printf("FAULTSTORM ok=%d faults=%llu recoveries=%llu "
                "dropped=%llu\n",
                ok ? 1 : 0, (unsigned long long)faults,
                (unsigned long long)retries,
                (unsigned long long)dropped);
    return ok ? 0 : 1;
}
