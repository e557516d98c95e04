/**
 * @file
 * Hot-path microbenchmarks: wall-clock cost of the simulator itself.
 *
 * Unlike the figure benches (which report *simulated* quantities,
 * fidelity-independent by construction), this bench measures how fast
 * the simulator's three hot paths run on the host:
 *
 *   - virtual dispatch: frozen vtable lookup vs the reference
 *     string-walking resolver (resolveVirtualUncached), over the
 *     real app corpus;
 *   - the interpreter: host nanoseconds per simulated bytecode
 *     instruction on a CallVirt-heavy loop;
 *   - the event queue: schedule/cancel/fire operations per second;
 *   - function-VM heap set-up: construct a function-sized Heap, make
 *     its first allocation, destroy it.
 *
 * It also runs a short workload against each application (vanilla
 * server) and reports the endpoint-wide inline-cache hit rate and
 * the fraction of CallVirt sites that stayed monomorphic.
 *
 * Results go to stdout and to BENCH_perf.json in the working
 * directory; the last line is a single machine-greppable trajectory
 * record for CI history.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "core/config.h"
#include "harness/report.h"
#include "sim/event_queue.h"
#include "support/logging.h"
#include "telemetry/export.h"
#include "vm/code_builder.h"
#include "vm/context.h"
#include "vm/heap.h"
#include "vm/interpreter.h"

using namespace beehive;
using namespace beehive::bench;
using namespace beehive::harness;
using sim::SimTime;

namespace {

using Clock = std::chrono::steady_clock;

double
elapsedNs(Clock::time_point t0)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
        .count();
}

/** Nanoseconds per dispatch for both resolvers + speedup. */
struct DispatchResult
{
    std::size_t pairs = 0;        //!< resolvable (klass, name) pairs
    uint64_t dispatches = 0;
    double uncached_ns = 0.0;
    double frozen_ns = 0.0;
    double speedup = 0.0;
};

/**
 * Time resolveVirtual (frozen vtables) against the reference walk
 * over every resolvable (klass, name) pair of a real app program.
 */
DispatchResult
benchDispatch(const vm::Program &program, uint64_t target)
{
    DispatchResult r;
    std::vector<std::pair<vm::KlassId, vm::NameId>> pairs;
    for (vm::KlassId k = 0; k < program.klassCount(); ++k) {
        for (vm::NameId n = 0; n < program.nameCount(); ++n) {
            if (program.resolveVirtualUncached(k, n) != vm::kNoMethod)
                pairs.push_back({k, n});
        }
    }
    r.pairs = pairs.size();
    if (pairs.empty())
        return r;

    const uint64_t rounds = (target + pairs.size() - 1) / pairs.size();
    r.dispatches = rounds * pairs.size();

    volatile uint64_t sink = 0;
    uint64_t acc = 0;
    Clock::time_point t0 = Clock::now();
    for (uint64_t round = 0; round < rounds; ++round) {
        for (const auto &[k, n] : pairs)
            acc += program.resolveVirtualUncached(k, n);
    }
    sink = acc;
    r.uncached_ns = elapsedNs(t0) / static_cast<double>(r.dispatches);

    program.freeze(); // table build cost outside the timed loop
    acc = 0;
    t0 = Clock::now();
    for (uint64_t round = 0; round < rounds; ++round) {
        for (const auto &[k, n] : pairs)
            acc += program.resolveVirtual(k, n);
    }
    sink = acc;
    (void)sink;
    r.frozen_ns = elapsedNs(t0) / static_cast<double>(r.dispatches);
    r.speedup = r.frozen_ns > 0.0 ? r.uncached_ns / r.frozen_ns : 0.0;
    return r;
}

/** Interpreter loop: host ns per simulated instruction. */
struct InterpResult
{
    uint64_t instructions = 0;
    double ns_per_instruction = 0.0;
    double ic_hit_rate = 0.0;
};

/**
 * A CallVirt-heavy loop on a two-klass hierarchy: main(n) folds
 * n calls of Derived.tick (which overrides Base.tick) into an
 * accumulator. Exercises dispatch, frames, and arithmetic -- the
 * instruction mix the figure benches spend their time in.
 */
InterpResult
benchInterpreter(uint64_t iterations)
{
    vm::Program program;
    vm::Klass base;
    base.name = "Base";
    vm::KlassId base_k = program.addKlass(base);
    vm::Klass derived;
    derived.name = "Derived";
    derived.super = base_k;
    vm::KlassId derived_k = program.addKlass(derived);

    {
        vm::CodeBuilder tick(program, base_k, "tick", 2);
        tick.load(1).pushI(1).add().ret();
        tick.build();
    }
    {
        vm::CodeBuilder tick(program, derived_k, "tick", 2);
        tick.load(1).pushI(3).add().ret();
        tick.build();
    }

    vm::CodeBuilder main(program, base_k, "main", 1);
    main.locals(2);
    auto loop = main.newLabel(), done = main.newLabel();
    main.newObj(derived_k)
        .store(1)
        .pushI(0)
        .store(2)
        .bind(loop)
        .load(0)
        .pushI(0)
        .cmpLe()
        .jnz(done)
        .load(1)
        .load(2)
        .callVirt("tick", 2)
        .store(2)
        .load(0)
        .pushI(1)
        .sub()
        .store(0)
        .jmp(loop)
        .bind(done)
        .load(2)
        .ret();
    vm::MethodId main_m = main.build();

    vm::NativeRegistry natives;
    vm::Heap heap(program, 1 << 20, 1 << 20);
    vm::VmConfig config;
    config.jit_threshold = 0; // steady-state: no warmup multiplier
    vm::VmContext ctx(program, natives, heap, config);
    ctx.loadAll();
    program.freeze();

    vm::Interpreter interp(ctx);
    interp.start(main_m,
                 {vm::Value::ofInt(static_cast<int64_t>(iterations))});
    Clock::time_point t0 = Clock::now();
    while (true) {
        vm::Suspend s = interp.run();
        if (s.kind == vm::Suspend::Kind::Done)
            break;
        bh_assert(s.kind == vm::Suspend::Kind::Quantum,
                  "unexpected suspend in perf loop");
    }
    double ns = elapsedNs(t0);

    InterpResult r;
    r.instructions = interp.stats().instructions;
    r.ns_per_instruction =
        ns / static_cast<double>(r.instructions ? r.instructions : 1);
    uint64_t hits = interp.stats().ic_hits;
    uint64_t misses = interp.stats().ic_misses;
    r.ic_hit_rate = hits + misses
                        ? static_cast<double>(hits) /
                              static_cast<double>(hits + misses)
                        : 0.0;
    return r;
}

/** Event-queue schedule/cancel/fire throughput. */
struct EventResult
{
    uint64_t operations = 0; //!< schedules + cancels + fires
    double ns_per_op = 0.0;
    double events_per_sec = 0.0;
};

/**
 * Batches of schedules with a 25% cancel mix, drained in time
 * order -- the pattern the CPU/network models produce (timeouts
 * armed and usually cancelled).
 */
EventResult
benchEventQueue(uint64_t target_ops)
{
    sim::EventQueue q;
    constexpr uint64_t kBatch = 1024;
    uint64_t fired = 0;
    uint64_t ops = 0;
    int64_t now = 0;
    std::vector<sim::EventId> cancelable;
    cancelable.reserve(kBatch / 4);

    Clock::time_point t0 = Clock::now();
    while (ops < target_ops) {
        cancelable.clear();
        for (uint64_t i = 0; i < kBatch; ++i) {
            sim::EventId id = q.schedule(
                SimTime::nsec(now + static_cast<int64_t>(i)),
                [&fired] { ++fired; });
            ++ops;
            if (i % 4 == 0)
                cancelable.push_back(id);
        }
        for (sim::EventId id : cancelable) {
            q.cancel(id);
            ++ops;
        }
        while (!q.empty()) {
            q.runOne();
            ++ops;
        }
        now += static_cast<int64_t>(kBatch);
    }
    double ns = elapsedNs(t0);

    EventResult r;
    r.operations = ops;
    r.ns_per_op = ns / static_cast<double>(ops);
    r.events_per_sec = static_cast<double>(fired) / (ns * 1e-9);
    return r;
}

/** Host cost of one function VM's heap lifetime. */
struct HeapResult
{
    uint64_t vms = 0;
    std::size_t reserved_bytes = 0; //!< closure + two semispaces
    double ns_per_vm = 0.0;
};

/**
 * Construct a Heap at the default function-VM sizes, make its first
 * allocation (a closure object, as closure installation does) and
 * destroy it -- the heap share of every simulated instance boot.
 */
HeapResult
benchHeapConstruct(uint64_t vms)
{
    vm::Program program;
    vm::Klass node;
    node.name = "Node";
    node.fields = {"next", "val"};
    vm::KlassId node_k = program.addKlass(node);
    core::BeeHiveConfig defaults;

    Clock::time_point t0 = Clock::now();
    for (uint64_t i = 0; i < vms; ++i) {
        vm::Heap heap(program, defaults.function_closure_bytes,
                      defaults.function_alloc_bytes);
        bh_assert(heap.allocPlain(node_k, true) != vm::kNullRef,
                  "first allocation failed");
    }
    double ns = elapsedNs(t0);

    HeapResult r;
    r.vms = vms;
    r.reserved_bytes = defaults.function_closure_bytes +
                       2 * defaults.function_alloc_bytes;
    r.ns_per_vm = ns / static_cast<double>(vms);
    return r;
}

/** Endpoint-wide inline-cache numbers after a real workload. */
struct CorpusResult
{
    std::string app;
    uint64_t hits = 0;
    uint64_t misses = 0;
    std::size_t sites = 0;
    std::size_t mono_sites = 0;
    /** Telemetry (populated when telemetry=on). */
    telemetry::PhaseAggregate breakdown;
    std::string trace_json; //!< empty unless export requested

    double
    hitRate() const
    {
        uint64_t total = hits + misses;
        return total ? static_cast<double>(hits) /
                           static_cast<double>(total)
                     : 0.0;
    }
    double
    monoFraction() const
    {
        return sites ? static_cast<double>(mono_sites) /
                           static_cast<double>(sites)
                     : 0.0;
    }
};

/** Drive one app (vanilla server) and read its context's caches. */
CorpusResult
benchAppCorpus(AppKind app, const BenchArgs &args, bool export_trace)
{
    TestbedOptions opts;
    opts.app = app;
    opts.seed = args.seed;
    opts.vanilla = true;
    opts.framework = benchFramework(args);
    opts.beehive.telemetry = args.telemetry;
    Testbed bed(opts);

    SimTime t0 = bed.sim().now();
    SimTime duration =
        args.quick ? SimTime::sec(3) : SimTime::sec(10);
    workload::Recorder recorder;
    workload::OpenLoopArrivals arrivals(bed.sim(), bed.sink(),
                                        recorder);
    arrivals.run(30.0, t0, t0 + duration);
    bed.sim().runUntil(t0 + duration + SimTime::sec(3));

    CorpusResult r;
    r.app = appName(app);
    vm::VmContext &ctx = bed.server().context();
    r.hits = ctx.icHits();
    r.misses = ctx.icMisses();
    ctx.forEachInlineCache(
        [&r](vm::MethodId, uint32_t, const vm::VmContext::InlineCache
                                          &line) {
            ++r.sites;
            if (line.fills == 1)
                ++r.mono_sites;
        });
    if (telemetry::Tracer *t = bed.tracer()) {
        bed.harvestMetrics();
        r.breakdown = telemetry::aggregateBreakdown(*t);
        if (export_trace) {
            r.trace_json =
                telemetry::toChromeTraceJson(*t, args.trace_request);
        }
    }
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchArgs args = parseArgs(argc, argv);
    const uint64_t dispatch_target = args.quick ? 200000 : 2000000;
    const uint64_t interp_iters = args.quick ? 100000 : 1000000;
    const uint64_t event_ops = args.quick ? 500000 : 5000000;
    const uint64_t heap_vms = args.quick ? 2000 : 20000;

    // A real app program gives the dispatch bench an honest corpus
    // (deep framework hierarchies, many names).
    TestbedOptions corpus_opts;
    corpus_opts.app = AppKind::Pybbs;
    corpus_opts.seed = args.seed;
    corpus_opts.vanilla = true;
    corpus_opts.framework = benchFramework(args);
    Testbed corpus_bed(corpus_opts);

    DispatchResult dispatch =
        benchDispatch(corpus_bed.program(), dispatch_target);
    InterpResult interp = benchInterpreter(interp_iters);
    EventResult events = benchEventQueue(event_ops);
    HeapResult heaps = benchHeapConstruct(heap_vms);

    std::vector<CorpusResult> corpus;
    uint64_t hits = 0, misses = 0;
    std::size_t sites = 0, mono = 0;
    for (AppKind app : appsFor(args)) {
        // --trace-out exports the first app's corpus run.
        bool export_trace =
            !args.trace_out.empty() && corpus.empty();
        corpus.push_back(benchAppCorpus(app, args, export_trace));
        const CorpusResult &r = corpus.back();
        hits += r.hits;
        misses += r.misses;
        sites += r.sites;
        mono += r.mono_sites;
    }
    double corpus_hit_rate =
        hits + misses ? static_cast<double>(hits) /
                            static_cast<double>(hits + misses)
                      : 0.0;
    double corpus_mono = sites ? static_cast<double>(mono) /
                                     static_cast<double>(sites)
                               : 0.0;

    std::printf("== perf_hotpath: simulator hot-path wall-clock ==\n");
    std::printf("dispatch: %zu (klass,name) pairs, %llu dispatches\n",
                dispatch.pairs,
                static_cast<unsigned long long>(dispatch.dispatches));
    std::printf("  uncached walk : %8.2f ns/dispatch\n",
                dispatch.uncached_ns);
    std::printf("  frozen vtable : %8.2f ns/dispatch\n",
                dispatch.frozen_ns);
    std::printf("  speedup       : %8.2fx %s\n", dispatch.speedup,
                dispatch.speedup >= 2.0 ? "(ok, >= 2x)"
                                        : "(BELOW 2x TARGET)");
    std::printf("interpreter: %llu instructions, %.2f ns/instr, "
                "IC hit rate %.4f\n",
                static_cast<unsigned long long>(interp.instructions),
                interp.ns_per_instruction, interp.ic_hit_rate);
    std::printf("event queue: %llu ops, %.2f ns/op, %.0f events/s\n",
                static_cast<unsigned long long>(events.operations),
                events.ns_per_op, events.events_per_sec);
    std::printf("heap_construct: %llu function VMs (%zu MB reserved), "
                "%.0f ns/VM\n",
                static_cast<unsigned long long>(heaps.vms),
                heaps.reserved_bytes >> 20, heaps.ns_per_vm);
    for (const CorpusResult &r : corpus) {
        std::printf("app %-9s: IC hit rate %.4f (%llu/%llu), "
                    "%zu sites, %.1f%% monomorphic\n",
                    r.app.c_str(), r.hitRate(),
                    static_cast<unsigned long long>(r.hits),
                    static_cast<unsigned long long>(r.hits +
                                                    r.misses),
                    r.sites, r.monoFraction() * 100.0);
    }
    if (!args.trace_out.empty() && !corpus.empty()) {
        telemetry::writeTraceFile(corpus.front().trace_json,
                                  args.trace_out);
    }
    if (args.telemetry) {
        for (const CorpusResult &r : corpus) {
            printPhaseBreakdown("Critical path (corpus run): " +
                                    r.app,
                                r.breakdown);
        }
    }

    std::FILE *json = std::fopen("BENCH_perf.json", "w");
    if (json) {
        std::fprintf(json, "{\n");
        std::fprintf(json,
                     "  \"dispatch\": {\"pairs\": %zu, "
                     "\"dispatches\": %llu, \"uncached_ns\": %.3f, "
                     "\"frozen_ns\": %.3f, \"speedup\": %.3f},\n",
                     dispatch.pairs,
                     static_cast<unsigned long long>(
                         dispatch.dispatches),
                     dispatch.uncached_ns, dispatch.frozen_ns,
                     dispatch.speedup);
        std::fprintf(json,
                     "  \"interpreter\": {\"instructions\": %llu, "
                     "\"ns_per_instruction\": %.3f, "
                     "\"ic_hit_rate\": %.5f},\n",
                     static_cast<unsigned long long>(
                         interp.instructions),
                     interp.ns_per_instruction, interp.ic_hit_rate);
        std::fprintf(json,
                     "  \"event_queue\": {\"operations\": %llu, "
                     "\"ns_per_op\": %.3f, "
                     "\"events_per_sec\": %.0f},\n",
                     static_cast<unsigned long long>(
                         events.operations),
                     events.ns_per_op, events.events_per_sec);
        std::fprintf(json,
                     "  \"heap_construct\": {\"vms\": %llu, "
                     "\"reserved_bytes\": %zu, "
                     "\"ns_per_vm\": %.1f},\n",
                     static_cast<unsigned long long>(heaps.vms),
                     heaps.reserved_bytes, heaps.ns_per_vm);
        std::fprintf(json, "  \"apps\": [\n");
        for (std::size_t i = 0; i < corpus.size(); ++i) {
            const CorpusResult &r = corpus[i];
            std::fprintf(
                json,
                "    {\"app\": \"%s\", \"ic_hits\": %llu, "
                "\"ic_misses\": %llu, \"ic_hit_rate\": %.5f, "
                "\"sites\": %zu, \"monomorphic_fraction\": %.5f}%s\n",
                r.app.c_str(),
                static_cast<unsigned long long>(r.hits),
                static_cast<unsigned long long>(r.misses),
                r.hitRate(), r.sites, r.monoFraction(),
                i + 1 < corpus.size() ? "," : "");
        }
        std::fprintf(json, "  ],\n");
        std::fprintf(json,
                     "  \"corpus_ic_hit_rate\": %.5f,\n"
                     "  \"corpus_monomorphic_fraction\": %.5f\n",
                     corpus_hit_rate, corpus_mono);
        std::fprintf(json, "}\n");
        std::fclose(json);
    } else {
        std::fprintf(stderr, "could not write BENCH_perf.json\n");
    }

    std::printf("PERF dispatch_speedup=%.2f ns_per_instr=%.2f "
                "events_per_sec=%.0f heap_ns_per_vm=%.0f "
                "ic_hit_rate=%.4f mono_fraction=%.4f\n",
                dispatch.speedup, interp.ns_per_instruction,
                events.events_per_sec, heaps.ns_per_vm,
                corpus_hit_rate, corpus_mono);
    // Nonzero when the headline target is missed (CI gates on it).
    return dispatch.speedup >= 2.0 && json ? 0 : 1;
}
