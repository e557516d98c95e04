/**
 * @file
 * perfbench driver: runs ONE benchmark workload ONCE in this
 * process and prints one JSON line with its host-time, memory and
 * simulated results.
 *
 * Every layer is driven from outside, through public APIs only:
 * harness::Testbed builds the system, workload::* generates load
 * through this file's own RequestSink wrapper of
 * BeeHiveServer::handleLocal, and the simulation is advanced one
 * simulated second at a time. Between simulated seconds a fixed
 * reference kernel runs; its CPU time is recorded per pass and
 * excluded from the measured phase, so the caller can normalise
 * host cost by machine speed.
 *
 * Modes:
 *   --mode setup   Testbed construction + profiling phase only.
 *   --mode run     Set-up, then the measured phase.
 *   --trace        (run mode) telemetry on; also report per-layer
 *                  counters, the critical-path breakdown and the
 *                  host unit costs of layer kernels, and write the
 *                  benchmark's host-time spans as Chrome trace JSON
 *                  to --trace-out.
 *
 * Usage:
 *   perfbench_driver --workload steady-blog|burst-pybbs|storm-pybbs
 *                    --seed N --mode setup|run [--trace]
 *                    [--trace-out FILE]
 */

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <string>
#include <utility>
#include <vector>

#include "core/external.h"
#include "core/server.h"
#include "harness/testbed.h"
#include "sim/event_queue.h"
#include "telemetry/critical_path.h"
#include "vm/heap.h"
#include "vm/interpreter.h"
#include "workload/clients.h"

using namespace beehive;
using harness::AppKind;
using sim::SimTime;

namespace {

// ---------------------------------------------------------------
// Clocks and host-time spans
// ---------------------------------------------------------------

/** Process CPU seconds (user + system). */
double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** Monotonic wall-clock seconds (vDSO: cheap enough per DB op). */
double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
wallUs()
{
    using Clock = std::chrono::steady_clock;
    static const Clock::time_point origin = Clock::now();
    return std::chrono::duration<double, std::micro>(Clock::now() -
                                                     origin)
        .count();
}

/** One host-time span recorded around the benchmark's own calls. */
struct HostSpan
{
    const char *name;
    double start_us; //!< wall clock, for placement on a timeline
    double dur_us;   //!< wall clock
    double cpu_us;   //!< process CPU spent inside the span
};

/** Host-time span recorder (kept in memory, written at exit). */
class HostTrace
{
  public:
    explicit HostTrace(bool on) : on_(on) {}

    bool on() const { return on_; }

    /** RAII span; a no-op when tracing is off. */
    class Scope
    {
      public:
        Scope(HostTrace &t, const char *name) : t_(t), name_(name)
        {
            if (t_.on_) {
                wall_ = wallUs();
                cpu_ = cpuNow();
            }
        }
        ~Scope()
        {
            if (t_.on_) {
                t_.spans_.push_back({name_, wall_, wallUs() - wall_,
                                     (cpuNow() - cpu_) * 1e6});
            }
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        HostTrace &t_;
        const char *name_;
        double wall_ = 0.0;
        double cpu_ = 0.0;
    };

    void
    add(const char *name, double start_us, double dur_us,
        double cpu_us)
    {
        if (on_)
            spans_.push_back({name, start_us, dur_us, cpu_us});
    }

    /** Write the spans as Chrome trace-event JSON. */
    bool
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "{\"traceEvents\": [\n");
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const HostSpan &s = spans_[i];
            std::fprintf(f,
                         "{\"name\": \"%s\", \"ph\": \"X\", "
                         "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                         "\"dur\": %.3f, \"args\": {\"cpu_us\": "
                         "%.3f}}%s\n",
                         s.name, s.start_us, s.dur_us, s.cpu_us,
                         i + 1 < spans_.size() ? "," : "");
        }
        std::fprintf(f, "], \"displayTimeUnit\": \"ms\"}\n");
        return std::fclose(f) == 0;
    }

  private:
    bool on_;
    std::vector<HostSpan> spans_;
};

// ---------------------------------------------------------------
// Reference kernel
// ---------------------------------------------------------------

/**
 * A fixed unit of host work shaped like the simulator's own: node
 * allocation and pointer walks in an ordered map, hash-table churn,
 * and short-lived heap strings. Its CPU time per pass tracks how fast
 * this machine is running right now; the measured phase is expressed
 * in passes. (Of the candidate kernels tried -- these three, byte
 * hashing, a switch dispatch loop and a 16 MB pointer chase -- the
 * container churn tracked the simulator's run-to-run CPU variation
 * best; hashing and the pointer chase tracked it worst.)
 */
uint64_t
referencePass(uint64_t salt)
{
    uint64_t x = 0x9e3779b97f4a7c15ull ^ (salt * 2 + 1);
    auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    uint64_t acc = 0;
    std::map<uint64_t, uint64_t> tree;
    for (int i = 0; i < 40000; ++i) {
        tree[next() % 4096] += i;
        if (i % 3 == 0)
            tree.erase((x >> 12) % 4096);
    }
    for (const auto &[k, v] : tree)
        acc += k * v;
    std::unordered_map<uint64_t, uint64_t> table;
    for (int i = 0; i < 40000; ++i) {
        table[next() % 8192] += i;
        if (i % 3 == 0)
            table.erase((x >> 12) % 8192);
    }
    for (const auto &[k, v] : table)
        acc += k ^ v;
    std::vector<std::string> strs;
    for (int i = 0; i < 20000; ++i) {
        strs.emplace_back(16 + next() % 200,
                          static_cast<char>('a' + i % 26));
        if (strs.size() > 512) {
            std::size_t victim = x % strs.size();
            acc += strs[victim].size();
            strs[victim].swap(strs.back());
            strs.pop_back();
        }
    }
    return acc + strs.size();
}

/** Measured CPU seconds between two reference passes. */
constexpr double kRefEvery = 0.2;

// ---------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------

enum class Workload { SteadyBlog, BurstPybbs, StormPybbs };

/** Fixed shape of one workload (independent of the seed). */
struct Plan
{
    AppKind app = AppKind::Pybbs;
    bool profile = true;       //!< run the profiling phase
    double open_rps = 0.0;     //!< >0: open-loop Poisson arrivals
    int clients = 0;           //!< closed-loop clients from t0
    int burst_clients = 0;     //!< extra clients from burst_at
    SimTime burst_at;          //!< 0 = no burst
    double ratio_at_start = 0.0;
    double ratio_at_burst = 0.0;
    SimTime duration;          //!< measured simulated time
    SimTime warmup;            //!< latencies recorded after this
    SimTime drain_bound;       //!< max simulated drain after duration
};

/** Latency limit of sim_goodput_rps (every workload). */
constexpr double kGoodputLimitS = 1.0;

Plan
planFor(Workload w)
{
    Plan p;
    switch (w) {
      case Workload::SteadyBlog:
        // BeeHive server, offload off: 0.8 x the calibrated
        // 100 rps blog saturation, open loop.
        p.app = AppKind::Blog;
        p.profile = false;
        p.open_rps = 80.0;
        p.duration = SimTime::sec(40);
        p.warmup = SimTime::sec(5);
        p.drain_bound = SimTime::sec(30);
        break;
      case Workload::BurstPybbs:
        // Figure 7 BeeHiveO: 8 clients double at the burst, offload
        // ratio 0.5 from the burst on, cold OpenWhisk.
        p.app = AppKind::Pybbs;
        p.clients = 8;
        p.burst_clients = 8;
        p.burst_at = SimTime::sec(20);
        p.ratio_at_burst = 0.5;
        p.duration = SimTime::sec(35);
        p.warmup = SimTime::sec(5);
        p.drain_bound = SimTime::sec(30);
        break;
      case Workload::StormPybbs:
        // bench/fault_storm's pybbs plan at intensity 0.25.
        p.app = AppKind::Pybbs;
        p.clients = 8;
        p.ratio_at_start = 0.5;
        p.duration = SimTime::sec(150);
        p.warmup = SimTime();
        p.drain_bound = SimTime::sec(180);
        break;
    }
    return p;
}

harness::TestbedOptions
testbedOptions(Workload w, uint64_t seed, bool telemetry)
{
    harness::TestbedOptions tb;
    tb.app = planFor(w).app;
    tb.seed = seed;
    tb.framework.native_scale = 400; // the figure benches' setting
    tb.beehive.telemetry = telemetry;
    tb.beehive.telemetry_span_capacity = 1u << 21;
    if (w == Workload::StormPybbs) {
        // The fault_storm recovery stack, unchanged.
        tb.beehive.failure_recovery = true;
        tb.beehive.static_manifests = true;
        tb.beehive.offload_deadline = SimTime::sec(2);
        tb.beehive.offload_max_retries = 6;
        tb.beehive.retry_backoff_base = SimTime::msec(5);
        tb.beehive.breaker_threshold = 3;
        tb.beehive.graceful_degradation = true;
        tb.faas_keep_alive = SimTime::sec(5);
        tb.chaos = chaos::FaultPlan::storm(0.25);
        tb.chaos.blackhole = SimTime::sec(5);
    }
    return tb;
}

bool
parseWorkload(const std::string &s, Workload &out)
{
    if (s == "steady-blog")
        out = Workload::SteadyBlog;
    else if (s == "burst-pybbs")
        out = Workload::BurstPybbs;
    else if (s == "storm-pybbs")
        out = Workload::StormPybbs;
    else
        return false;
    return true;
}

// ---------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------

/** Flat JSON object writer (numbers keep every digit). */
class Json
{
  public:
    void
    num(const std::string &k, double v)
    {
        char b[64];
        if (std::isfinite(v))
            std::snprintf(b, sizeof b, "%.17g", v);
        else
            std::snprintf(b, sizeof b, "null");
        field(k, b);
    }
    void
    count(const std::string &k, uint64_t v)
    {
        field(k, std::to_string(v));
    }
    void
    obj(const std::string &k, const Json &j)
    {
        field(k, j.text());
    }
    /** @p v must already be valid JSON. */
    void
    raw(const std::string &k, const std::string &v)
    {
        field(k, v);
    }
    std::string text() const { return "{" + body_ + "}"; }

  private:
    void
    field(const std::string &k, const std::string &v)
    {
        if (!body_.empty())
            body_ += ", ";
        body_ += "\"" + k + "\": " + v;
    }
    std::string body_;
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return NAN;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

// ---------------------------------------------------------------
// Layer kernels (traced run only; excluded from the measured phase)
// ---------------------------------------------------------------

/** Host unit costs of the app-level layers, on the app's program. */
struct AppKernel
{
    uint64_t requests = 0;
    uint64_t instructions = 0;
    uint64_t native_calls = 0;
    uint64_t db_ops = 0;
    uint64_t materializations = 0;
    uint64_t gc_cycles = 0;
    double interp_cpu = 0.0;
    double db_cpu = 0.0;
    double materialize_cpu = 0.0;
    double gc_cpu = 0.0;
};

/**
 * Execute the app's entry handler directly on a fresh testbed's
 * server context, outside the simulator: every External (DB)
 * suspension is served by RecordStore::execute on the app's seeded
 * tables and core::tryMaterializeDbResponse, monitors are granted
 * at once (single interpreter), and the server collector runs
 * between requests, every tenth request. Each layer is timed on its
 * own, on the (cheaper to read) wall clock: the spans are microseconds
 * long and the process is single-threaded.
 */
AppKernel
runAppKernel(Workload w, uint64_t seed, int requests)
{
    harness::TestbedOptions tb = testbedOptions(w, seed, false);
    tb.chaos = chaos::FaultPlan{};
    harness::Testbed bed(tb);
    core::BeeHiveServer &server = bed.server();
    vm::VmContext &ctx = server.context();
    vm::MethodId entry = bed.app().entry();

    AppKernel k;
    uint64_t gc_before = server.collector().totals().collections;
    for (int r = 0; r < requests; ++r) {
        // The collector runs between requests (no frames of this
        // interpreter are live then), every tenth request.
        if (r % 10 == 9) {
            double c = wallNow();
            server.runGc();
            k.gc_cpu += wallNow() - c;
        }
        vm::Interpreter interp(ctx);
        interp.start(entry, {vm::Value::ofInt(1000000 + r)});
        double c = wallNow();
        bool done = false;
        while (!done) {
            vm::Suspend s = interp.run();
            switch (s.kind) {
              case vm::Suspend::Kind::Done: done = true; break;
              case vm::Suspend::Kind::Quantum: break;
              case vm::Suspend::Kind::External: {
                k.interp_cpu += wallNow() - c;
                auto payload =
                    std::any_cast<core::DbCallPayload>(s.external);
                double d = wallNow();
                db::Response resp = bed.store().execute(payload.request);
                double m = wallNow();
                std::optional<vm::Value> v =
                    core::tryMaterializeDbResponse(ctx, payload.request,
                                                   resp);
                double e = wallNow();
                if (!v) {
                    std::fprintf(stderr, "perfbench: kernel heap "
                                         "exhausted\n");
                    std::exit(3);
                }
                k.db_cpu += m - d;
                k.materialize_cpu += e - m;
                ++k.db_ops;
                ++k.materializations;
                interp.resumeExternal(*v);
                c = wallNow();
                break;
              }
              case vm::Suspend::Kind::MonitorAcquire:
                interp.grantMonitor(s.monitor_obj);
                break;
              case vm::Suspend::Kind::MonitorRelease:
                interp.grantRelease();
                break;
              case vm::Suspend::Kind::VolatileSync:
                interp.grantVolatile(s.monitor_obj);
                break;
              default:
                std::fprintf(stderr,
                             "perfbench: unexpected suspend %d in the "
                             "app kernel\n",
                             static_cast<int>(s.kind));
                std::exit(3);
            }
            interp.consumeCost();
        }
        k.interp_cpu += wallNow() - c;
        ++k.requests;
        k.instructions += interp.stats().instructions;
        k.native_calls += interp.stats().native_calls;
    }
    k.gc_cycles = server.collector().totals().collections - gc_before;
    return k;
}

/** Host ns per synchronized object, and objects per acquire. */
struct SyncKernel
{
    uint64_t objects = 0;
    double cpu = 0.0;
};

/**
 * Release-consistency sync between the server and one function
 * endpoint, through SyncManager's public protocol: @p objects
 * shared objects (an app klass with the most fields) are dirtied on
 * one side, then the other side acquires the lock object, so each
 * acquire flushes and pushes every object (copyObjectState with
 * address translation). Only the acquires are timed.
 */
SyncKernel
runSyncKernel(Workload w, uint64_t seed, int objects, int rounds)
{
    harness::TestbedOptions tb = testbedOptions(w, seed, false);
    tb.chaos = chaos::FaultPlan{};
    harness::Testbed bed(tb);
    core::BeeHiveServer &server = bed.server();
    const vm::Program &program = bed.program();
    vm::KlassId klass = 0;
    for (vm::KlassId k = 0; k < program.klassCount(); ++k) {
        if (program.klass(k).fields.size() >
            program.klass(klass).fields.size())
            klass = k;
    }
    const int fields = static_cast<int>(program.klass(klass).fields.size());

    const core::BeeHiveConfig &cfg = server.config();
    vm::Heap fn_heap(program, cfg.function_closure_bytes,
                     cfg.function_alloc_bytes);
    vm::VmConfig vcfg;
    vcfg.endpoint = 1;
    vm::VmContext fn_ctx(program, server.natives(), fn_heap, vcfg);
    fn_ctx.loadAll();
    uint16_t fn = server.registerFunction(&fn_ctx, server.endpoint());
    core::SyncManager &sync = server.sync();

    std::vector<std::pair<vm::Ref, vm::Ref>> objs; // (server, fn)
    for (int i = 0; i <= objects; ++i) {
        vm::Ref so = server.heap().allocPlain(klass);
        server.heap().header(so).flags |= vm::kFlagShared;
        vm::Ref fo = fn_heap.cloneFrom(server.heap(), so,
                                       vm::Heap::kClosureSpaceId);
        server.mappingFor(fn).add(so, fo);
        objs.emplace_back(so, fo);
    }
    const auto [server_lock, fn_lock] = objs[0];

    SyncKernel k;
    for (int r = 0; r < rounds; ++r) {
        for (int i = 1; i <= objects; ++i) {
            server.heap().setField(objs[i].first, r % fields,
                                   vm::Value::ofInt(r * 1000 + i));
            sync.markDirty(0, objs[i].first);
        }
        double c = cpuNow();
        core::SyncManager::SyncResult to_fn = sync.acquire(fn, fn_lock);
        k.cpu += cpuNow() - c;
        k.objects += to_fn.objects_transferred;
        for (int i = 1; i <= objects; ++i) {
            fn_heap.setField(objs[i].second, (r + 1) % fields,
                             vm::Value::ofInt(r * 1000 - i));
            sync.markDirty(fn, objs[i].second);
        }
        c = cpuNow();
        core::SyncManager::SyncResult to_server =
            sync.acquire(0, server_lock);
        k.cpu += cpuNow() - c;
        k.objects += to_server.objects_transferred;
    }
    return k;
}

/** Host ns per event: schedule + runOne, with a 25% cancel mix. */
double
eventKernelNs(uint64_t target)
{
    sim::EventQueue q;
    uint64_t fired = 0;
    uint64_t events = 0;
    int64_t now = 0;
    std::vector<sim::EventId> cancel;
    double c = cpuNow();
    while (events < target) {
        cancel.clear();
        for (int i = 0; i < 1024; ++i) {
            sim::EventId id =
                q.schedule(SimTime::nsec(now + (i * 7919) % 1024),
                           [&fired] { ++fired; });
            if (i % 4 == 0)
                cancel.push_back(id);
        }
        for (sim::EventId id : cancel)
            q.cancel(id);
        while (!q.empty()) {
            q.runOne();
            ++events;
        }
        now += 1024;
    }
    return ratio((cpuNow() - c) * 1e9, static_cast<double>(fired));
}

/** Host ms to build one function VM heap at the configured sizes. */
double
heapKernelMs(const vm::Program &program, const core::BeeHiveConfig &cfg,
             int reps)
{
    double total = 0.0;
    for (int i = 0; i < reps; ++i) {
        double c = cpuNow();
        {
            vm::Heap heap(program, cfg.function_closure_bytes,
                          cfg.function_alloc_bytes);
        }
        total += cpuNow() - c;
    }
    return total * 1e3 / reps;
}

// ---------------------------------------------------------------
// One run
// ---------------------------------------------------------------

struct Args
{
    Workload workload = Workload::SteadyBlog;
    uint64_t seed = 1;
    bool setup_only = false;
    bool trace = false;
    std::string trace_out;
};

int
runOnce(const Args &args)
{
    const Plan plan = planFor(args.workload);
    HostTrace ht(args.trace);
    Json out;

    // --- Set-up: Testbed construction + profiling phase.
    double c0 = cpuNow();
    double w0 = wallUs();
    auto bed = std::make_unique<harness::Testbed>(
        testbedOptions(args.workload, args.seed, args.trace));
    double testbed_s = cpuNow() - c0;
    ht.add("setup.testbed", w0, wallUs() - w0, testbed_s * 1e6);
    double profiling_s = 0.0;
    if (plan.profile) {
        double c1 = cpuNow();
        double w1 = wallUs();
        if (!bed->runProfilingPhase()) {
            std::fprintf(stderr,
                         "perfbench: profiler did not select the "
                         "handler\n");
            return 3;
        }
        profiling_s = cpuNow() - c1;
        ht.add("setup.profiling", w1, wallUs() - w1,
               profiling_s * 1e6);
    }
    out.num("setup_s", testbed_s + profiling_s);
    out.num("setup_testbed_s", testbed_s);
    out.num("setup_profiling_s", profiling_s);
    if (args.setup_only) {
        std::printf("%s\n", out.text().c_str());
        return 0;
    }

    sim::Simulation &sim = bed->sim();
    core::BeeHiveServer &server = bed->server();
    const vm::MethodId entry = bed->app().entry();

    // --- The benchmark's own request sink: counts issued and
    // completed requests per id, and times admission.
    uint64_t issued = 0, completed = 0, double_completions = 0;
    std::vector<uint8_t> completions;
    double admit_cpu = 0.0;
    int admit_depth = 0;
    workload::RequestSink sink = [&](int64_t id,
                                     std::function<void()> done) {
        ++issued;
        if (completions.size() <= static_cast<std::size_t>(id))
            completions.resize(static_cast<std::size_t>(id) + 1, 0);
        bool outer = admit_depth++ == 0;
        double c = outer ? cpuNow() : 0.0;
        double w = outer && ht.on() ? wallUs() : 0.0;
        server.handleLocal(
            entry, {vm::Value::ofInt(id)},
            [&, id, done = std::move(done)](vm::Value) {
                if (++completions[static_cast<std::size_t>(id)] > 1)
                    ++double_completions;
                ++completed;
                done();
            });
        --admit_depth;
        if (outer) {
            double cpu = cpuNow() - c;
            admit_cpu += cpu;
            if (ht.on())
                ht.add("server.admit", w, wallUs() - w, cpu * 1e6);
        }
    };

    workload::Recorder recorder;
    const SimTime t0 = sim.now();
    recorder.setWarmupCutoff(t0 + plan.warmup);
    std::unique_ptr<workload::ClosedLoopClients> clients;
    std::unique_ptr<workload::OpenLoopArrivals> arrivals;
    core::OffloadManager *mgr = bed->manager();
    if (plan.open_rps > 0.0) {
        arrivals = std::make_unique<workload::OpenLoopArrivals>(
            sim, sink, recorder);
        arrivals->run(plan.open_rps, t0, t0 + plan.duration);
    } else {
        clients = std::make_unique<workload::ClosedLoopClients>(
            sim, sink, recorder);
        clients->start(plan.clients, t0);
        if (plan.burst_clients > 0) {
            clients->startWindow(plan.burst_clients, t0 + plan.burst_at,
                                 t0 + plan.duration);
        }
    }
    if (mgr && plan.ratio_at_start > 0.0)
        mgr->setOffloadRatio(plan.ratio_at_start);
    if (mgr && plan.ratio_at_burst > 0.0) {
        sim.at(t0 + plan.burst_at,
               [mgr, r = plan.ratio_at_burst] { mgr->setOffloadRatio(r); });
    }

    // --- Measured phase, one simulated second at a time; a
    // reference pass runs before each second, outside the timing.
    std::vector<double> ref_cpu;
    // An unrecorded first pass grows the allocator's arena for the
    // kernel, so those page faults land outside the measured phase.
    uint64_t ref_sink = referencePass(0);
    double measured = 0.0;
    double sys0 = 0.0;
    {
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        sys0 = static_cast<double>(ru.ru_stime.tv_sec) +
               static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
    }
    double ref_total = 0.0;
    double since_ref = kRefEvery; // a pass before the first second
    auto step = [&](SimTime until) {
        if (since_ref >= kRefEvery) {
            double rw = ht.on() ? wallUs() : 0.0;
            double rc = cpuNow();
            ref_sink += referencePass(ref_cpu.size());
            double r = cpuNow() - rc;
            ref_cpu.push_back(r);
            ref_total += r;
            since_ref = 0.0;
            ht.add("ref.pass", rw, ht.on() ? wallUs() - rw : 0.0,
                   r * 1e6);
        }
        double sw = ht.on() ? wallUs() : 0.0;
        double c = cpuNow();
        sim.runUntil(until);
        double d = cpuNow() - c;
        measured += d;
        since_ref += d;
        ht.add("sim.second", sw, ht.on() ? wallUs() - sw : 0.0, d * 1e6);
    };
    const int64_t seconds = plan.duration.ns() / SimTime::sec(1).ns();
    for (int64_t s = 1; s <= seconds; ++s)
        step(t0 + SimTime::sec(s));
    if (clients)
        clients->stopAll();
    const SimTime end = t0 + plan.duration;
    while ((completed < issued ||
            (clients && clients->active() > 0)) &&
           sim.now() < end + plan.drain_bound)
        step(sim.now() + SimTime::sec(1));
    double sys_measured = 0.0;
    long max_rss_kb = 0;
    {
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        sys_measured = static_cast<double>(ru.ru_stime.tv_sec) +
                       static_cast<double>(ru.ru_stime.tv_usec) * 1e-6 -
                       sys0;
        max_rss_kb = ru.ru_maxrss;
    }
    // The recorded reference passes allocate little (a small map), so
    // the system time is the run's.

    // --- Simulated results (exact: compared bit for bit).
    const sim::SampleSet &lat = recorder.latencies();
    double p50 = lat.percentile(50.0);
    double p99 = lat.percentile(99.0);
    uint64_t beyond_p99 = 0, within_limit = 0;
    for (double v : lat.samples()) {
        if (v > p99)
            ++beyond_p99;
        if (v <= kGoodputLimitS)
            ++within_limit;
    }
    double measured_sim_s = (plan.duration - plan.warmup).toSeconds();
    double cost = cloud::m4XLarge().price_per_hour *
                  plan.duration.toSeconds() / 3600.0;
    if (bed->platform())
        cost += bed->platform()->accruedCost(sim.now());

    // Stabilization: harness/burst.cc's rule over the per-second p99
    // series (first post-burst second from which 3 consecutive
    // seconds stay under the band; -1 when never).
    double stabilize = -1.0;
    if (plan.burst_at.ns() > 0) {
        std::size_t base = static_cast<std::size_t>(t0.toSeconds());
        std::vector<double> p99s;
        for (int64_t s = 0; s < seconds; ++s)
            p99s.push_back(recorder.series().bucketPercentile(
                base + static_cast<std::size_t>(s), 99));
        double pre = recorder.windowPercentile(
            t0 + plan.burst_at - SimTime::sec(15), t0 + plan.burst_at,
            99);
        double stable = recorder.windowPercentile(
            end - SimTime::sec(15), end, 99);
        double pre_band = std::max(pre * 1.3, pre + 0.010);
        double threshold = std::max(stable * 1.25, pre_band);
        double burst_s = plan.burst_at.toSeconds();
        if (!std::isnan(stable)) {
            for (std::size_t s = static_cast<std::size_t>(burst_s);
                 s + 2 < p99s.size(); ++s) {
                bool ok = true;
                for (std::size_t k = s; k < s + 3; ++k) {
                    if (std::isnan(p99s[k]) || p99s[k] > threshold) {
                        ok = false;
                        break;
                    }
                }
                if (ok) {
                    stabilize = static_cast<double>(s) - burst_s;
                    break;
                }
            }
        }
    }

    Json simj;
    simj.count("issued", issued);
    simj.count("completed", completed);
    simj.count("failed", issued - std::min(issued, completed));
    simj.count("double_completions", double_completions);
    simj.count("samples", lat.count());
    simj.count("beyond_p99", beyond_p99);
    simj.num("sim_p50_ms", p50 * 1e3);
    simj.num("sim_p99_ms", p99 * 1e3);
    simj.num("sim_goodput_rps",
             static_cast<double>(within_limit) / measured_sim_s);
    simj.num("sim_done_frac",
             ratio(static_cast<double>(completed),
                   static_cast<double>(issued)));
    simj.num("sim_cost_usd", cost);
    simj.num("sim_stabilize_s", stabilize);
    simj.num("sim_end_s", (sim.now() - t0).toSeconds());
    simj.count("sim_events", sim.queue().dispatched());
    simj.num("goodput_limit_s", kGoodputLimitS);
    simj.num("measured_sim_s", measured_sim_s);
    simj.count("within_limit", within_limit);
    std::string lat_list;
    for (double v : lat.samples()) {
        char b[32];
        std::snprintf(b, sizeof b, "%s%.17g", lat_list.empty() ? "" : ",",
                      v);
        lat_list += b;
    }
    simj.raw("latencies_s", "[" + lat_list + "]");
    out.obj("sim", simj);

    Json host;
    host.num("measured_cpu_s", measured);
    host.num("sys_cpu_s", sys_measured);
    host.num("ref_pass_s", median(ref_cpu));
    host.count("ref_passes", ref_cpu.size());
    host.num("ref_total_s", ref_total);
    host.num("admit_cpu_s", admit_cpu);
    host.num("peak_rss_mb", static_cast<double>(max_rss_kb) / 1024.0);
    host.count("ref_checksum", ref_sink & 0xffff);
    out.obj("host", host);

    // --- Traced run: per-layer counters, breakdown, kernels.
    if (args.trace) {
        telemetry::Tracer *t = bed->tracer();
        Json layer;
        {
            HostTrace::Scope hs(ht, "harvest");
            bed->harvestMetrics();
        }
        const telemetry::MetricsRegistry &m = t->metrics();
        for (const auto &[name, v] : m.counters())
            layer.count(name, v);
        if (const cloud::FaasPlatform *p = bed->platform())
            layer.count("faas.instances_total", p->totalInstances());
        const proxy::ConnectionProxy::Stats &ps = bed->proxy().stats();
        layer.count("proxy.reconnects", ps.reconnects);
        layer.count("proxy.read_retries", ps.read_retries);
        layer.count("proxy.dup_writes_suppressed",
                    ps.dup_writes_suppressed);
        if (mgr) {
            const core::OffloadStats &o = mgr->stats();
            layer.count("offload.retries_total", o.retries);
            layer.count("offload.local_fallbacks_total",
                        o.local_fallbacks);
            layer.count("offload.deadline_expirations_total",
                        o.deadline_expirations);
            layer.count("offload.offloaded_total", o.offloaded);
        }
        layer.count("gc.server_bytes_copied",
                    server.collector().totals().bytes_copied);
        layer.count("spans_recorded", t->spansRecorded());
        layer.count("spans_dropped", t->spansDropped());
        out.obj("counters", layer);

        telemetry::PhaseAggregate agg;
        std::vector<std::string> violations;
        {
            HostTrace::Scope hs(ht, "critical_path");
            agg = telemetry::aggregateBreakdown(*t);
            violations = telemetry::validateSpans(*t);
        }
        // Per request, the phases must sum to the latency.
        uint64_t bad_sums = 0;
        const auto &tot = agg.total_ms.samples();
        for (std::size_t i = 0; i < tot.size(); ++i) {
            double sum = 0.0;
            for (std::size_t p = 0; p < telemetry::kPhaseCount; ++p) {
                const auto &v = agg.phase_ms[p].samples();
                sum += i < v.size() ? v[i] : NAN;
            }
            if (!(std::fabs(sum - tot[i]) <=
                  1e-6 * std::max(1.0, tot[i])))
                ++bad_sums;
        }
        Json cp;
        cp.count("requests", agg.requests);
        cp.num("total_ms", agg.total_ms.mean());
        for (std::size_t p = 0; p < telemetry::kPhaseCount; ++p) {
            auto phase = static_cast<telemetry::Phase>(p);
            cp.num(telemetry::phaseName(phase), agg.phase_ms[p].mean());
        }
        cp.count("bad_sums", bad_sums);
        cp.count("span_violations", violations.size());
        out.obj("critical_path", cp);
        for (std::size_t i = 0; i < std::min<std::size_t>(3, violations.size()); ++i)
            std::fprintf(stderr, "perfbench: span violation: %s\n",
                         violations[i].c_str());

        // Layer kernels.
        Json kj;
        {
            HostTrace::Scope hs(ht, "kernel.app");
            AppKernel k = runAppKernel(args.workload, args.seed + 7, 60);
            kj.num("vm_ns_per_instr",
                   ratio(k.interp_cpu * 1e9,
                         static_cast<double>(k.instructions)));
            kj.num("db_ns_per_op",
                   ratio(k.db_cpu * 1e9, static_cast<double>(k.db_ops)));
            kj.num("materialize_ns",
                   ratio(k.materialize_cpu * 1e9,
                         static_cast<double>(k.materializations)));
            kj.num("gc_us_per_cycle",
                   ratio(k.gc_cpu * 1e6,
                         static_cast<double>(k.gc_cycles)));
            kj.count("kernel_requests", k.requests);
            kj.count("kernel_gc_cycles", k.gc_cycles);
        }
        {
            HostTrace::Scope hs(ht, "kernel.sync");
            SyncKernel k = runSyncKernel(args.workload, args.seed + 7,
                                         335, 60);
            kj.num("sync_ns_per_object",
                   ratio(k.cpu * 1e9, static_cast<double>(k.objects)));
            kj.count("kernel_sync_objects", k.objects);
        }
        {
            HostTrace::Scope hs(ht, "kernel.events");
            kj.num("event_ns", eventKernelNs(2000000));
        }
        {
            HostTrace::Scope hs(ht, "kernel.heap");
            core::BeeHiveConfig cfg = server.config();
            kj.num("heap_ms_per_vm", heapKernelMs(bed->program(), cfg, 6));
        }
        out.obj("kernels", kj);
        if (!args.trace_out.empty() && !ht.write(args.trace_out)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         args.trace_out.c_str());
            return 3;
        }
    }
    std::printf("%s\n", out.text().c_str());
    std::fflush(stdout);
    // The process exits without tearing the testbed down: teardown
    // is not part of any metric.
    std::_Exit(0);
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "perfbench: %s needs a value\n",
                             a.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--workload") {
            if (!parseWorkload(next(), args.workload)) {
                std::fprintf(stderr, "perfbench: unknown workload\n");
                return 2;
            }
            have_workload = true;
        } else if (a == "--seed") {
            args.seed = std::strtoull(next().c_str(), nullptr, 10);
        } else if (a == "--mode") {
            std::string m = next();
            if (m != "setup" && m != "run") {
                std::fprintf(stderr, "perfbench: unknown mode\n");
                return 2;
            }
            args.setup_only = m == "setup";
        } else if (a == "--trace") {
            args.trace = true;
        } else if (a == "--trace-out") {
            args.trace_out = next();
        } else {
            std::fprintf(stderr, "perfbench: unknown argument %s\n",
                         a.c_str());
            return 2;
        }
    }
    if (!have_workload) {
        std::fprintf(stderr, "perfbench: --workload is required\n");
        return 2;
    }
    return runOnce(args);
}
