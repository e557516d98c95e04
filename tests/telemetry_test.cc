/**
 * @file
 * Telemetry subsystem tests: span tree well-formedness, critical-path
 * attribution (phases sum to end-to-end latency), Chrome trace-event
 * export, thread-count determinism, zero perturbation of the
 * simulation when enabled, a cross-check of the per-invocation
 * RequestTraces against the event-time function aggregates over a
 * seeded workload range (the fuzz suites' seed-loop convention),
 * and the pinned metrics export of a traced chaos run, whose counts
 * must equal those of the same run untraced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "cloud/faas.h"
#include "cloud/instance.h"
#include "core/function.h"
#include "core/server.h"
#include "harness/burst.h"
#include "harness/parallel.h"
#include "harness/testbed.h"
#include "telemetry/critical_path.h"
#include "telemetry/export.h"
#include "telemetry/telemetry.h"
#include "vm/code_builder.h"
#include "workload/clients.h"

namespace beehive::telemetry {
namespace {

using harness::AppKind;
using harness::BurstOptions;
using harness::BurstResult;
using harness::Solution;
using sim::SimTime;

std::size_t
idx(Phase p)
{
    return static_cast<std::size_t>(p);
}

// -------------------------------------------------------------------
// Minimal JSON syntax checker (no values retained). Enough to assert
// the exporter emits strictly valid JSON without a parser dependency.
// -------------------------------------------------------------------

class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text)
        : p_(text.c_str()), end_(p_ + text.size())
    {
    }

    bool
    valid()
    {
        ws();
        if (!value())
            return false;
        ws();
        return p_ == end_;
    }

  private:
    void
    ws()
    {
        while (p_ < end_ &&
               (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' ||
                *p_ == '\r'))
            ++p_;
    }

    bool
    lit(const char *s)
    {
        std::size_t n = std::strlen(s);
        if (static_cast<std::size_t>(end_ - p_) < n ||
            std::strncmp(p_, s, n) != 0)
            return false;
        p_ += n;
        return true;
    }

    bool
    string()
    {
        if (p_ >= end_ || *p_ != '"')
            return false;
        ++p_;
        while (p_ < end_ && *p_ != '"') {
            if (*p_ == '\\') {
                ++p_;
                if (p_ >= end_)
                    return false;
            }
            ++p_;
        }
        if (p_ >= end_)
            return false;
        ++p_; // closing quote
        return true;
    }

    bool
    number()
    {
        const char *start = p_;
        if (p_ < end_ && *p_ == '-')
            ++p_;
        while (p_ < end_ && std::isdigit(static_cast<unsigned char>(
                                *p_)))
            ++p_;
        if (p_ < end_ && *p_ == '.') {
            ++p_;
            while (p_ < end_ &&
                   std::isdigit(static_cast<unsigned char>(*p_)))
                ++p_;
        }
        if (p_ < end_ && (*p_ == 'e' || *p_ == 'E')) {
            ++p_;
            if (p_ < end_ && (*p_ == '+' || *p_ == '-'))
                ++p_;
            while (p_ < end_ &&
                   std::isdigit(static_cast<unsigned char>(*p_)))
                ++p_;
        }
        return p_ > start;
    }

    bool
    value()
    {
        if (p_ >= end_)
            return false;
        switch (*p_) {
          case '{': {
            ++p_;
            ws();
            if (p_ < end_ && *p_ == '}') {
                ++p_;
                return true;
            }
            while (true) {
                ws();
                if (!string())
                    return false;
                ws();
                if (p_ >= end_ || *p_ != ':')
                    return false;
                ++p_;
                ws();
                if (!value())
                    return false;
                ws();
                if (p_ < end_ && *p_ == ',') {
                    ++p_;
                    continue;
                }
                break;
            }
            if (p_ >= end_ || *p_ != '}')
                return false;
            ++p_;
            return true;
          }
          case '[': {
            ++p_;
            ws();
            if (p_ < end_ && *p_ == ']') {
                ++p_;
                return true;
            }
            while (true) {
                ws();
                if (!value())
                    return false;
                ws();
                if (p_ < end_ && *p_ == ',') {
                    ++p_;
                    continue;
                }
                break;
            }
            if (p_ >= end_ || *p_ != ']')
                return false;
            ++p_;
            return true;
          }
          case '"': return string();
          case 't': return lit("true");
          case 'f': return lit("false");
          case 'n': return lit("null");
          default: return number();
        }
    }

    const char *p_;
    const char *end_;
};

// -------------------------------------------------------------------
// Unit: span trees and critical-path attribution
// -------------------------------------------------------------------

TEST(TelemetryTest, CriticalPathSelfTimeSumsToRootDuration)
{
    sim::Simulation sim(1);
    Tracer t(sim, 64);
    uint64_t req = t.newRequest();

    // request [0, 100ms] -> exec [10, 60] -> db [20, 30];
    // request -> net [70, 90]. Self times: Request 30 ms, Exec 40,
    // Db 10, Net 20.
    SpanId root = kNoSpan, exec = kNoSpan, db = kNoSpan,
           net = kNoSpan;
    sim.at(SimTime::msec(0), [&] {
        root = t.begin("request", Phase::Request, 0, kNoSpan, req);
    });
    sim.at(SimTime::msec(10), [&] {
        exec = t.begin("exec", Phase::Exec, 0, root, req);
    });
    sim.at(SimTime::msec(20), [&] {
        db = t.begin("db", Phase::Db, 0, exec, req);
    });
    sim.at(SimTime::msec(30), [&] { t.end(db); });
    sim.at(SimTime::msec(60), [&] { t.end(exec); });
    sim.at(SimTime::msec(70), [&] {
        net = t.begin("net", Phase::Net, 0, root, req);
    });
    sim.at(SimTime::msec(90), [&] { t.end(net); });
    sim.at(SimTime::msec(100), [&] { t.end(root); });
    sim.runAll();

    EXPECT_TRUE(validateSpans(t).empty());

    auto b = analyzeRequest(t, req);
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(b->total.ns(), SimTime::msec(100).ns());
    EXPECT_EQ(b->sum().ns(), b->total.ns());
    EXPECT_EQ(b->by_phase[idx(Phase::Request)].ns(),
              SimTime::msec(30).ns());
    EXPECT_EQ(b->by_phase[idx(Phase::Exec)].ns(),
              SimTime::msec(40).ns());
    EXPECT_EQ(b->by_phase[idx(Phase::Db)].ns(),
              SimTime::msec(10).ns());
    EXPECT_EQ(b->by_phase[idx(Phase::Net)].ns(),
              SimTime::msec(20).ns());
}

TEST(TelemetryTest, ValidateSpansFlagsOverlappingSiblings)
{
    sim::Simulation sim(1);
    Tracer t(sim, 64);
    uint64_t req = t.newRequest();
    SpanId root = kNoSpan, a = kNoSpan, b = kNoSpan;
    sim.at(SimTime::msec(0), [&] {
        root = t.begin("request", Phase::Request, 0, kNoSpan, req);
    });
    sim.at(SimTime::msec(10), [&] {
        a = t.begin("a", Phase::Exec, 0, root, req);
    });
    sim.at(SimTime::msec(30), [&] {
        b = t.begin("b", Phase::Db, 0, root, req); // overlaps a
    });
    sim.at(SimTime::msec(40), [&] { t.end(a); });
    sim.at(SimTime::msec(50), [&] { t.end(b); });
    sim.at(SimTime::msec(60), [&] { t.end(root); });
    sim.runAll();

    EXPECT_FALSE(validateSpans(t).empty());
}

TEST(TelemetryTest, RingBufferDropsOldestAndSurvivesStaleEnds)
{
    sim::Simulation sim(1);
    Tracer t(sim, 4);
    std::vector<SpanId> ids;
    for (int i = 0; i < 10; ++i) {
        sim.after(SimTime::msec(1), [&] {
            ids.push_back(t.begin("s", Phase::Other, 0));
        });
        sim.runAll();
    }
    EXPECT_EQ(t.spansRecorded(), 10u);
    EXPECT_GT(t.spansDropped(), 0u);
    EXPECT_LE(t.spans().size(), 4u);
    // Ending a recycled span must be a safe no-op.
    for (SpanId id : ids)
        t.end(id);
    t.end(kNoSpan);
    EXPECT_LE(t.spans().size(), 4u);
}

TEST(TelemetryTest, MetricsRegistrySetAndCounter)
{
    sim::Simulation sim(1);
    Tracer t(sim, 8);
    MetricsRegistry &m = t.metrics();
    EXPECT_EQ(m.counter("nope"), 0u);
    m.set("a", 3);
    EXPECT_EQ(m.counter("a"), 3u);
    m.set("a", 7);
    EXPECT_EQ(m.counter("a"), 7u);
    EXPECT_EQ(m.counters().size(), 1u);
}

// -------------------------------------------------------------------
// Integration: full runs
// -------------------------------------------------------------------

BurstOptions
quickTelemetryBurst(uint64_t seed)
{
    BurstOptions opts;
    opts.app = AppKind::Thumbnail;
    opts.solution = Solution::BeeHiveO;
    opts.seed = seed;
    opts.duration = SimTime::sec(24);
    opts.burst_at = SimTime::sec(8);
    opts.beehive.telemetry = true;
    return opts;
}

TEST(TelemetryTest, BurstSpansWellFormedAndExporterEmitsValidJson)
{
    BurstOptions opts = quickTelemetryBurst(1);
    opts.export_trace = true;
    BurstResult r = runBurstExperiment(opts);
    ASSERT_GT(r.completed_requests, 0u);
    for (const std::string &v : r.span_violations)
        ADD_FAILURE() << v;
    EXPECT_GT(r.breakdown.requests, 0u);

    ASSERT_FALSE(r.trace_json.empty());
    EXPECT_TRUE(JsonChecker(r.trace_json).valid());
    EXPECT_NE(r.trace_json.find("\"traceEvents\""),
              std::string::npos);
    EXPECT_NE(r.trace_json.find("thread_name"), std::string::npos);
}

TEST(TelemetryTest, EnablingTelemetryDoesNotPerturbTheSimulation)
{
    BurstOptions on = quickTelemetryBurst(1);
    BurstOptions off = on;
    off.beehive.telemetry = false;
    BurstResult a = runBurstExperiment(on);
    BurstResult b = runBurstExperiment(off);
    ASSERT_GT(a.completed_requests, 0u);
    EXPECT_EQ(a.completed_requests, b.completed_requests);
    ASSERT_EQ(a.p99_per_second.size(), b.p99_per_second.size());
    EXPECT_EQ(0, std::memcmp(a.p99_per_second.data(),
                             b.p99_per_second.data(),
                             a.p99_per_second.size() *
                                 sizeof(double)));
    EXPECT_EQ(a.scaling_cost, b.scaling_cost);
    EXPECT_EQ(a.cold_boots, b.cold_boots);
    // And the disabled run produced no telemetry at all.
    EXPECT_EQ(b.breakdown.requests, 0u);
    EXPECT_TRUE(b.trace_json.empty());
}

TEST(TelemetryTest, SerialAndParallelRunsExportIdenticalTraces)
{
    std::vector<BurstOptions> trials = {quickTelemetryBurst(1),
                                        quickTelemetryBurst(2)};
    for (BurstOptions &opts : trials)
        opts.export_trace = true;
    auto run = [&](std::size_t i) {
        return runBurstExperiment(trials[i]);
    };
    std::vector<BurstResult> serial =
        harness::runTrials(trials.size(), run, /*threads=*/1);
    std::vector<BurstResult> parallel =
        harness::runTrials(trials.size(), run, /*threads=*/4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        ASSERT_FALSE(serial[i].trace_json.empty());
        EXPECT_EQ(serial[i].trace_json, parallel[i].trace_json);
        EXPECT_EQ(serial[i].breakdown.requests,
                  parallel[i].breakdown.requests);
    }
}

/**
 * Drive an offloading testbed directly so the tracer is still alive
 * for per-request analysis, then cross-check the per-invocation
 * RequestTraces against the offload manager's event-time
 * aggregates, taken at quiescence (no flight in progress, so every
 * counted event belongs to a completed invocation).
 * Seed-loop convention as in the fuzz suites (tests/fuzz_support.h
 * users): each seed is an independent randomized workload.
 */
TEST(TelemetryTest, CriticalPathAndRequestTraceCrossCheck)
{
    for (uint64_t seed = 1; seed <= 3; ++seed) {
        harness::TestbedOptions opts;
        opts.app = AppKind::Thumbnail;
        opts.seed = seed;
        opts.beehive.telemetry = true;
        harness::Testbed bed(opts);
        ASSERT_TRUE(bed.runProfilingPhase()) << "seed " << seed;
        bed.manager()->setOffloadRatio(0.6);

        workload::Recorder recorder;
        workload::ClosedLoopClients clients(bed.sim(), bed.sink(),
                                            recorder);
        clients.start(4, bed.sim().now());
        bed.sim().runUntil(bed.sim().now() + SimTime::sec(16));
        clients.stopAll();

        Tracer *t = bed.tracer();
        ASSERT_NE(t, nullptr);
        const core::OffloadStats &o = bed.manager()->stats();
        // Drain until every offload flight completed.
        for (int i = 0; i < 60 && o.flights != o.completed; ++i)
            bed.sim().runUntil(bed.sim().now() + SimTime::sec(1));
        ASSERT_EQ(o.flights, o.completed) << "seed " << seed;
        ASSERT_GT(o.completed, 0u) << "seed " << seed;

        // Span tree is well formed and every completed request's
        // phases sum exactly to its end-to-end duration.
        for (const std::string &v : validateSpans(*t))
            ADD_FAILURE() << "seed " << seed << ": " << v;
        std::size_t analyzed = 0;
        for (uint64_t req : requestIds(*t)) {
            auto b = analyzeRequest(*t, req);
            if (!b.has_value())
                continue; // still open at run end
            ++analyzed;
            EXPECT_EQ(b->sum().ns(), b->total.ns())
                << "seed " << seed << " request " << req;
        }
        EXPECT_GT(analyzed, 0u) << "seed " << seed;

        // Per-invocation traces against the event-time aggregates.
        const auto &traces = bed.manager()->traces();
        EXPECT_EQ(o.completed, traces.size());
        core::RequestTrace sum;
        uint64_t shadow_traces = 0;
        for (const auto &[root, trace] : traces) {
            sum.merge(trace);
            shadow_traces += trace.shadow ? 1 : 0;
        }
        const core::FunctionStats &f = bed.manager()->functionStats();
        EXPECT_EQ(f.invocations + f.resumes, traces.size())
            << "seed " << seed;
        EXPECT_EQ(f.shadow_invocations, shadow_traces)
            << "seed " << seed;
        EXPECT_EQ(f.code_fetches, sum.code_fetches) << "seed " << seed;
        EXPECT_EQ(f.data_fetches, sum.data_fetches) << "seed " << seed;
        EXPECT_EQ(f.native_fallbacks, sum.native_fallbacks)
            << "seed " << seed;
        EXPECT_EQ(f.sync_fallbacks, sum.sync_fallbacks)
            << "seed " << seed;
        EXPECT_EQ(f.connection_fallbacks, sum.connection_fallbacks)
            << "seed " << seed;
        // Function DB operations are counted by the proxy.
        EXPECT_EQ(bed.proxy().stats().offload_requests, sum.db_ops)
            << "seed " << seed;
    }
}

/** A storm with the full recovery stack, drained to quiescence. */
std::unique_ptr<harness::Testbed>
runChaosStorm(bool telemetry)
{
    harness::TestbedOptions opts;
    opts.app = AppKind::Thumbnail;
    opts.framework.native_scale = 200;
    opts.beehive.telemetry = telemetry;
    opts.beehive.snapshot_enabled = true;
    opts.beehive.failure_recovery = true;
    opts.beehive.offload_deadline = SimTime::sec(1);
    opts.beehive.offload_max_retries = 5;
    opts.beehive.retry_backoff_base = SimTime::msec(2);
    opts.beehive.breaker_threshold = 2;
    opts.chaos = chaos::FaultPlan::storm(0.6);
    opts.chaos.blackhole = SimTime::sec(2);
    auto bed = std::make_unique<harness::Testbed>(opts);
    EXPECT_TRUE(bed->runProfilingPhase());
    bed->manager()->setOffloadRatio(0.5);
    workload::Recorder recorder;
    workload::ClosedLoopClients clients(bed->sim(), bed->sink(),
                                        recorder);
    clients.start(4, bed->sim().now());
    bed->sim().runUntil(bed->sim().now() + SimTime::sec(8));
    clients.stopAll();
    SimTime guard = bed->sim().now() + SimTime::sec(120);
    while (clients.active() > 0 && bed->sim().now() < guard)
        bed->sim().runUntil(bed->sim().now() + SimTime::msec(100));
    EXPECT_EQ(clients.active(), 0);
    return bed;
}

/** FNV-1a over every recorded span, in id order. */
class SpanHash
{
  public:
    void
    add(const Span &s)
    {
        mix(s.id);
        mix(s.parent);
        mix(s.request);
        for (const char *c = s.name; *c; ++c)
            byte(static_cast<uint8_t>(*c));
        mix(static_cast<uint64_t>(s.phase));
        mix(s.track);
        mix(static_cast<uint64_t>(s.start.ns()));
        mix(static_cast<uint64_t>(s.end.ns()));
        mix(s.open ? 1 : 0);
    }

    uint64_t value() const { return h_; }

  private:
    void
    byte(uint8_t b)
    {
        h_ = (h_ ^ b) * 0x100000001b3ull;
    }

    void
    mix(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<uint8_t>(v >> (8 * i)));
    }

    uint64_t h_ = 0xcbf29ce484222325ull;
};

TEST(TelemetryTest, SpanStreamIsPinned)
{
    // A short traced pybbs run with offloading, a low-intensity
    // storm and a small server heap, so that the invocation spans of
    // both endpoints appear: DB round trips (with resets), fallbacks,
    // monitor waits, a GC pause, function returns and server
    // executions. Recorded before the server and function drove the
    // interpreter through one invocation engine, and re-recorded with
    // the retry policy set explicitly before the offload manager's
    // flights went through one lifecycle: span ids, parents, tracks
    // and simulated times must come out bit for bit as they did
    // then. It runs without an offload deadline: a deadline that
    // expires during a cold boot opens offload.retry beside the still
    // open boot.cold, which validateSpans() flags.
    harness::TestbedOptions opts;
    opts.app = AppKind::Pybbs;
    opts.framework.native_scale = 200;
    opts.beehive.telemetry = true;
    opts.beehive.failure_recovery = true;
    opts.beehive.offload_max_retries = 6;
    opts.beehive.retry_backoff_base = SimTime::msec(5);
    opts.beehive.breaker_threshold = 3;
    opts.beehive.server_alloc_bytes = 2u << 20;
    opts.chaos = chaos::FaultPlan::storm(0.1);
    opts.chaos.blackhole = SimTime::sec(2);
    harness::Testbed bed(opts);
    ASSERT_TRUE(bed.runProfilingPhase());
    bed.manager()->setOffloadRatio(0.5);
    workload::Recorder recorder;
    workload::ClosedLoopClients clients(bed.sim(), bed.sink(),
                                        recorder);
    clients.start(4, bed.sim().now());
    bed.sim().runUntil(bed.sim().now() + SimTime::sec(20));
    clients.stopAll();
    SimTime guard = bed.sim().now() + SimTime::sec(120);
    while (clients.active() > 0 && bed.sim().now() < guard)
        bed.sim().runUntil(bed.sim().now() + SimTime::msec(100));
    ASSERT_EQ(clients.active(), 0);
    const core::OffloadStats &o = bed.manager()->stats();
    for (int i = 0; i < 60 && o.flights != o.completed; ++i)
        bed.sim().runUntil(bed.sim().now() + SimTime::sec(1));
    ASSERT_EQ(o.flights, o.completed);

    Tracer *t = bed.tracer();
    ASSERT_NE(t, nullptr);
    ASSERT_EQ(t->spansDropped(), 0u);
    for (const std::string &v : validateSpans(*t))
        ADD_FAILURE() << v;
    SpanHash hash;
    std::set<std::string> names;
    for (const Span &s : t->spans()) {
        hash.add(s);
        names.insert(s.name);
    }
    for (const char *name :
         {"server.exec", "db.roundtrip", "sync.wait", "gc.pause",
          "fn.exec", "fallback.code", "fallback.data", "fn.return"})
        EXPECT_TRUE(names.count(name)) << name;
    EXPECT_GT(bed.chaosEngine()->stats().db_resets, 0u);
    EXPECT_EQ(hash.value(), 0xc86b53f9a40bc894ull)
        << std::hex << "0x" << hash.value();
}

TEST(TelemetryTest, SpanStreamIsPinnedForVolatileSyncs)
{
    // No app program makes a volatile access, so the run above never
    // syncs one. Here a handler reads a volatile field of a shared
    // server object, first on a function (which fetches the object,
    // then pulls it from the server) and then on the server (which
    // pulls it back from the function). Recorded with the span pin
    // above.
    sim::Simulation sim(7);
    Tracer tracer(sim, 1024);
    sim.setTracer(&tracer);
    net::Network net;
    net.setZoneLatency("vpc", "vpc", SimTime::usec(200));
    net.setZoneLatency("vpc", "db", SimTime::usec(250));
    vm::Program program;
    vm::Klass bytes;
    bytes.name = "Bytes";
    vm::Klass arr;
    arr.name = "Array";
    vm::Klass cell;
    cell.name = "Cell";
    cell.fields = {"next", "val"};
    core::BeeHiveConfig cfg;
    cfg.server_vm.bytes_klass = cfg.function_vm.bytes_klass =
        program.addKlass(bytes);
    cfg.server_vm.array_klass = cfg.function_vm.array_klass =
        program.addKlass(arr);
    vm::KlassId cell_k = program.addKlass(cell);
    vm::CodeBuilder b(program, cell_k, "readVolatile", 1);
    b.load(0).getVolatile(1).ret();
    vm::MethodId root = b.build();
    vm::NativeRegistry natives;
    db::RecordStore store;
    proxy::ConnectionProxy proxy(store);
    cloud::Instance db_machine(sim, net, cloud::m410XLarge(), "db", "db");
    cloud::Instance server_machine(sim, net, cloud::m4XLarge(),
                                   "server", "vpc");
    core::BeeHiveServer server(sim, net, program, natives, proxy,
                               db_machine.endpoint(), server_machine,
                               cfg);
    vm::Ref obj = server.heap().allocPlain(cell_k);
    server.heap().header(obj).flags |= vm::kFlagShared;
    server.heap().setField(obj, 1, vm::Value::ofInt(41));

    cloud::FaasPlatform platform(sim, net, cloud::openWhiskProfile());
    cloud::FunctionInstance *inst = nullptr;
    platform.acquire([&](cloud::FunctionInstance &i) { inst = &i; });
    sim.runUntil(SimTime::sec(5));
    ASSERT_NE(inst, nullptr);
    core::FunctionStats stats;
    core::BeeHiveFunction fn(server, platform, *inst, stats);
    int64_t fn_result = 0;
    fn.invoke(root, {vm::Value::ofRef(vm::markRemote(obj))},
              /*shadow=*/false,
              [&](vm::Value v, const core::RequestTrace &) {
                  fn_result = v.asInt();
              });
    sim.runUntil(SimTime::sec(6));
    EXPECT_EQ(fn_result, 41);
    EXPECT_EQ(stats.sync_fallbacks, 1u);
    int64_t server_result = 0;
    server.handleLocal(root, {vm::Value::ofRef(obj)},
                       [&](vm::Value v) { server_result = v.asInt(); });
    sim.runUntil(SimTime::sec(7));
    EXPECT_EQ(server_result, 41);

    for (const std::string &v : validateSpans(tracer))
        ADD_FAILURE() << v;
    SpanHash hash;
    std::vector<std::string> names;
    for (const Span &s : tracer.spans()) {
        hash.add(s);
        names.push_back(s.name);
    }
    EXPECT_EQ(std::count(names.begin(), names.end(), "sync.volatile"),
              2);
    EXPECT_EQ(hash.value(), 0x8f606a2da8dcbab9ull)
        << std::hex << "0x" << hash.value();
}

/** Field-by-field equality of an all-integer stats struct. */
template <typename T>
bool
sameCounts(const T &a, const T &b)
{
    static_assert(std::has_unique_object_representations_v<T>,
                  "stats struct must be padding-free integers");
    return std::memcmp(&a, &b, sizeof(T)) == 0;
}

TEST(TelemetryTest, HarvestExportsEachCountOnceWhateverTelemetry)
{
    std::unique_ptr<harness::Testbed> on = runChaosStorm(true);
    const core::ServerStats &server = on->server().stats();
    const gc::GcTotals &gc = on->server().collector().totals();
    const proxy::ConnectionProxy::Stats &proxy = on->proxy().stats();
    const core::OffloadStats &offload = on->manager()->stats();
    const core::FunctionStats &fn = on->manager()->functionStats();
    const chaos::ChaosStats &chaos = on->chaosEngine()->stats();
    const cloud::FaasPlatform &faas = *on->platform();
    ASSERT_GT(chaos.total(), 0u);
    ASSERT_GT(offload.retries, 0u);
    ASSERT_GT(offload.completed, 0u);

    // The exported name set is pinned: one name per count, no
    // second copy of any stats field.
    on->harvestMetrics();
    const auto &exported = on->tracer()->metrics().counters();
    std::string names;
    for (const auto &[name, v] : exported) {
        EXPECT_EQ(name.find("stat_"), std::string::npos) << name;
        names += name + " ";
    }
    EXPECT_EQ(names,
              "chaos.boot_crashes chaos.db_resets chaos.image_corruptions "
              "chaos.invoke_crashes chaos.net_drops chaos.net_spikes "
              "chaos.partition_drops chaos.restore_crashes "
              "chaos.throttles chaos.total db.ops db.resets "
              "faas.cache_expired faas.cold_boots faas.instances "
              "faas.restore_boots faas.warm_boots fallback.code "
              "fallback.connection fallback.data fallback.native "
              "fallback.sync fn.db_ops fn.db_resets fn.invocations "
              "fn.resumes fn.shadow_invocations gc.bytes_copied "
              "gc.cycles gc.fn_bytes_copied gc.fn_cycles "
              "offload.boot_failures offload.breaker_ejections "
              "offload.closure_installs offload.completed "
              "offload.corrupt_restores offload.deadline_expirations "
              "offload.degradations offload.degrade_recoveries "
              "offload.flights offload.kills offload.local "
              "offload.local_fallbacks offload.restore_boots "
              "offload.retries offload.shadow_flights "
              "offload.shadows_abandoned offload.warm_dispatches "
              "prefetch.klasses prefetch.objects prefetch.stale_objects "
              "proxy.attaches proxy.dup_writes_suppressed "
              "proxy.idem_writes_applied proxy.prepares "
              "proxy.read_retries proxy.reconnects proxy.shadow_aborts "
              "proxy.shadow_sessions proxy.shadow_writes server.queued "
              "server.requests sim.events_cancelled "
              "sim.events_dispatched sim.events_scheduled "
              "sync.bytes_transferred sync.monitor_contended "
              "sync.objects_transferred sync.remote_acquires vm.calls "
              "vm.instructions vm.native_calls ");

    // Every name perfbench/run.py reads, from its typed owner.
    const std::pair<const char *, uint64_t> read_by_perfbench[] = {
        {"sim.events_dispatched", on->sim().queue().dispatched()},
        {"vm.instructions", server.instructions},
        {"vm.native_calls", server.native_calls},
        {"server.requests", server.local_requests},
        {"db.ops", proxy.requests_routed - proxy.offload_requests},
        {"fn.db_ops", proxy.offload_requests},
        {"sync.objects_transferred",
         on->server().sync().stats().objects_transferred},
        {"offload.flights", offload.flights},
        {"offload.warm_dispatches", offload.offloaded},
        {"offload.completed", offload.completed},
        {"gc.cycles", gc.collections},
        {"gc.fn_cycles", fn.gc_cycles},
        {"gc.bytes_copied", gc.bytes_copied},
        {"gc.fn_bytes_copied", fn.gc_bytes_copied},
        {"faas.cold_boots", faas.coldBoots()},
        {"faas.warm_boots", faas.warmBoots()},
        {"faas.restore_boots", faas.restoreBoots()},
        {"chaos.total", chaos.total()},
        {"chaos.net_drops", chaos.net_drops}};
    for (const auto &[name, value] : read_by_perfbench) {
        auto it = exported.find(name);
        ASSERT_NE(it, exported.end()) << name;
        EXPECT_EQ(it->second, value) << name;
    }

    // Counting is not telemetry: the same run untraced counts
    // exactly the same events.
    std::unique_ptr<harness::Testbed> off = runChaosStorm(false);
    EXPECT_TRUE(sameCounts(server, off->server().stats()));
    EXPECT_TRUE(sameCounts(on->server().sync().stats(),
                           off->server().sync().stats()));
    EXPECT_TRUE(sameCounts(proxy, off->proxy().stats()));
    EXPECT_TRUE(sameCounts(offload, off->manager()->stats()));
    EXPECT_TRUE(sameCounts(fn, off->manager()->functionStats()));
    EXPECT_TRUE(sameCounts(chaos, off->chaosEngine()->stats()));
    const gc::GcTotals &off_gc = off->server().collector().totals();
    EXPECT_EQ(gc.collections, off_gc.collections);
    EXPECT_EQ(gc.bytes_copied, off_gc.bytes_copied);
    EXPECT_EQ(on->sim().queue().dispatched(),
              off->sim().queue().dispatched());
    EXPECT_EQ(faas.coldBoots(), off->platform()->coldBoots());
    EXPECT_EQ(faas.warmBoots(), off->platform()->warmBoots());
    EXPECT_EQ(faas.restoreBoots(), off->platform()->restoreBoots());
}

} // namespace
} // namespace beehive::telemetry
