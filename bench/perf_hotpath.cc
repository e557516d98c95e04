/**
 * @file
 * Hot-path microbenchmarks: wall-clock cost of the simulator itself.
 *
 * Unlike the figure benches (which report *simulated* quantities,
 * fidelity-independent by construction), this bench measures how fast
 * the simulator's hot paths run on the host:
 *
 *   - virtual dispatch: frozen vtable lookup vs the reference
 *     string-walking resolver (resolveVirtualUncached), over the
 *     real app corpus;
 *   - the interpreter: host nanoseconds per simulated bytecode
 *     instruction on a CallVirt-heavy loop, and on the framework's
 *     config walk with and without quickening (vm/quicken.h);
 *   - calls: host nanoseconds per native call and per bytecode call
 *     from a quickened counting loop;
 *   - the event queue: schedule/cancel/fire operations per second;
 *   - function-VM heap set-up: construct a function-sized Heap, make
 *     its first allocation, destroy it;
 *   - field stores with and without the server's dirty-object write
 *     barrier;
 *   - remote-reference map lookups;
 *   - initial closure construction over a deep data graph.
 *
 * Results go to stdout and to BENCH_perf.json in the working
 * directory; the last line is a single machine-greppable trajectory
 * record for CI history.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "core/closure.h"
#include "core/config.h"
#include "sim/event_queue.h"
#include "support/logging.h"
#include "vm/code_builder.h"
#include "vm/context.h"
#include "vm/heap.h"
#include "vm/interpreter.h"
#include "vm/quicken.h"

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
    return r;
}

/** Host ns per call, through a native and through a bytecode method. */
struct CallResult
{
    uint64_t calls = 0; //!< per callee
    double native_ns = 0.0;
    double bytecode_ns = 0.0;
};

/**
 * count(n) calls one callee n times from a quickened counting loop:
 * LoadLeJnz, the call, Pop, LoadSubStore and Jmp. The callee is a
 * stateless 0-argument native, or a bytecode method returning a
 * constant; each time per call includes that loop's ten other
 * instructions.
 */
CallResult
benchCalls(uint64_t calls)
{
    vm::Program program;
    vm::Klass k;
    k.name = "Thread";
    vm::KlassId k_id = program.addKlass(k);
    vm::NativeRegistry natives;
    vm::Method native;
    native.name = "currentThread";
    native.is_native = true;
    native.native_category = vm::NativeCategory::Stateless;
    native.native_id = natives.add(
        "Thread.currentThread", vm::NativeCategory::Stateless,
        [](vm::VmContext &, std::span<const vm::Value>) {
            vm::NativeResult r;
            r.cost_ns = 30.0;
            r.ret = vm::Value::ofInt(1);
            return r;
        });
    vm::MethodId native_m = program.addMethod(k_id, native);
    vm::CodeBuilder one(program, k_id, "one", 0);
    one.pushI(1).ret();
    vm::MethodId bytecode_m = one.build();

    auto countLoop = [&](const std::string &name, vm::MethodId callee) {
        vm::CodeBuilder b(program, k_id, name, 1);
        auto top = b.newLabel(), done = b.newLabel();
        b.bind(top);
        b.load(0).pushI(0).cmpLe().jnz(done);
        b.call(callee).popv();
        b.load(0).pushI(1).sub().store(0);
        b.jmp(top);
        b.bind(done);
        b.pushI(0).ret();
        return b.build();
    };
    vm::MethodId native_loop = countLoop("countNative", native_m);
    vm::MethodId bytecode_loop = countLoop("countBytecode", bytecode_m);
    vm::quicken(program);

    vm::Heap heap(program, 1 << 20, 1 << 20);
    vm::VmConfig config;
    config.jit_threshold = 0;
    vm::VmContext ctx(program, natives, heap, config);
    ctx.loadAll();
    auto nsPerCall = [&](vm::MethodId entry) {
        vm::Interpreter interp(ctx);
        interp.start(entry,
                     {vm::Value::ofInt(static_cast<int64_t>(calls))});
        Clock::time_point t0 = Clock::now();
        while (interp.run().kind == vm::Suspend::Kind::Quantum) {
        }
        return elapsedNs(t0) / static_cast<double>(calls);
    };

    CallResult r;
    r.calls = calls;
    r.native_ns = nsPerCall(native_loop);
    r.bytecode_ns = nsPerCall(bytecode_loop);
    return r;
}

/** Config-walk loop: ns per instruction, unquickened and quickened. */
struct WalkResult
{
    uint64_t instructions = 0; //!< per form (both run the same)
    double plain_ns = 0.0;
    double quick_ns = 0.0;
};

/**
 * Framework::emitConfigWalk's loop over a @p nodes-long list, walked
 * @p walks times per run: the 18-instruction step that dominates the
 * pybbs handler, made of the five idioms quicken() fuses.
 */
WalkResult
benchConfigWalk(uint64_t walks)
{
    constexpr int64_t kNodes = 1500;
    vm::Program program;
    vm::Klass cfg_k;
    cfg_k.name = "Config";
    cfg_k.fields = {"value", "next"};
    cfg_k.statics = {"root"};
    vm::KlassId k = program.addKlass(cfg_k);

    // walk(times): locals 0 = times, 1 = cur, 2 = n.
    vm::CodeBuilder b(program, k, "walk", 1);
    b.locals(2);
    auto outer = b.newLabel(), top = b.newLabel(), done = b.newLabel(),
         finish = b.newLabel();
    b.bind(outer);
    b.load(0).pushI(0).cmpLe().jnz(finish);
    b.getStatic(k, 0).store(1);
    b.pushI(kNodes).store(2);
    b.bind(top);
    b.load(2).pushI(0).cmpLe().jnz(done);
    b.load(1).logNot().jnz(done);
    b.load(1).getField(0).popv();
    b.load(1).getField(1).store(1);
    b.load(2).pushI(1).sub().store(2);
    b.jmp(top);
    b.bind(done);
    b.load(0).pushI(1).sub().store(0);
    b.jmp(outer);
    b.bind(finish);
    b.pushI(0).ret();
    vm::MethodId walk = b.build();

    auto run = [&](const vm::Program &prog, uint64_t *instructions) {
        vm::NativeRegistry natives;
        vm::Heap heap(prog, 1 << 20, 1 << 20);
        vm::VmConfig config;
        config.jit_threshold = 0;
        vm::VmContext ctx(prog, natives, heap, config);
        ctx.loadAll();
        vm::Ref head = vm::kNullRef;
        for (int64_t i = 0; i < kNodes; ++i) {
            vm::Ref node = heap.allocPlain(k);
            heap.setField(node, 0, vm::Value::ofInt(i));
            heap.setField(node, 1, vm::Value::ofRef(head));
            head = node;
        }
        ctx.setStatic(k, 0, vm::Value::ofRef(head));
        vm::Interpreter interp(ctx);
        interp.start(walk, {vm::Value::ofInt(
                               static_cast<int64_t>(walks))});
        Clock::time_point t0 = Clock::now();
        while (interp.run().kind == vm::Suspend::Kind::Quantum) {
        }
        double ns = elapsedNs(t0);
        *instructions = interp.stats().instructions;
        return ns / static_cast<double>(*instructions);
    };

    WalkResult r;
    vm::Program quick = program;
    vm::quicken(quick);
    uint64_t quick_instructions = 0;
    r.plain_ns = run(program, &r.instructions);
    r.quick_ns = run(quick, &quick_instructions);
    bh_assert(quick_instructions == r.instructions,
              "quickening changed the instruction count");
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

/** A two-klass VM (Object, Node{next, val}) for the cases below. */
struct MicroVm
{
    MicroVm()
    {
        vm::Klass obj;
        obj.name = "Object";
        object_k = program.addKlass(obj);
        vm::Klass node;
        node.name = "Node";
        node.fields = {"next", "val"};
        node_k = program.addKlass(node);
        heap = std::make_unique<vm::Heap>(program, 8u << 20, 8u << 20);
        ctx = std::make_unique<vm::VmContext>(program, natives, *heap,
                                              vm::VmConfig{});
        ctx->loadAll();
    }

    vm::Program program;
    vm::NativeRegistry natives;
    std::unique_ptr<vm::Heap> heap;
    std::unique_ptr<vm::VmContext> ctx;
    vm::KlassId object_k = vm::kNoKlass;
    vm::KlassId node_k = vm::kNoKlass;
};

/** Field store cost without and with the dirty-object barrier. */
struct FieldWriteResult
{
    uint64_t writes = 0;
    double plain_ns = 0.0;   //!< no write observer installed
    double barrier_ns = 0.0; //!< server barrier on a shared object
};

/**
 * Store an int field repeatedly, first with no observer, then with
 * the BeeHive server's barrier (shared-flag test + dirty-set insert)
 * on a shared object.
 */
FieldWriteResult
benchFieldWrite(uint64_t writes)
{
    MicroVm m;
    vm::Ref obj = m.heap->allocPlain(m.node_k);
    auto storeLoop = [&] {
        Clock::time_point t0 = Clock::now();
        for (uint64_t i = 0; i < writes; ++i) {
            m.heap->setField(obj, 1,
                             vm::Value::ofInt(static_cast<int64_t>(i)));
        }
        return elapsedNs(t0) / static_cast<double>(writes);
    };

    FieldWriteResult r;
    r.writes = writes;
    r.plain_ns = storeLoop();
    std::set<vm::Ref> dirty;
    m.heap->setWriteObserver([&](vm::Ref o) {
        if (m.heap->header(o).flags & vm::kFlagShared)
            dirty.insert(o);
    });
    m.heap->header(obj).flags |= vm::kFlagShared;
    r.barrier_ns = storeLoop();
    return r;
}

/** Remote-reference map lookup cost. */
struct RemoteLookupResult
{
    uint64_t lookups = 0;
    double ns_per_lookup = 0.0;
};

/** Resolve remote refs round-robin over a 4096-entry map. */
RemoteLookupResult
benchRemoteLookup(uint64_t lookups)
{
    constexpr uint64_t kEntries = 4096;
    MicroVm m;
    for (uint64_t i = 0; i < kEntries; ++i) {
        m.ctx->mapRemote(vm::makeRef(1, 64 + i * 64),
                         vm::makeRef(0, 64 + i * 64));
    }
    volatile uint64_t sink = 0;
    uint64_t acc = 0;
    Clock::time_point t0 = Clock::now();
    for (uint64_t i = 0; i < lookups; ++i) {
        vm::Ref r = vm::markRemote(
            vm::makeRef(1, 64 + (i % kEntries) * 64));
        acc += m.ctx->lookupRemote(r);
    }
    sink = acc;
    (void)sink;

    RemoteLookupResult r;
    r.lookups = lookups;
    r.ns_per_lookup = elapsedNs(t0) / static_cast<double>(lookups);
    return r;
}

/** Initial-closure construction cost. */
struct ClosureResult
{
    uint64_t builds = 0;
    std::size_t objects = 0; //!< objects packed per closure
    double us_per_build = 0.0;
};

/**
 * Build the closure of a root whose sample argument heads a
 * 2000-node linked list; the data-depth limit (raised to 64) bounds
 * how much of the chain is packed.
 */
ClosureResult
benchClosureBuild(uint64_t builds)
{
    MicroVm m;
    vm::CodeBuilder b(m.program, m.node_k, "root", 1);
    b.load(0).ret();
    vm::MethodId root = b.build();
    vm::RootProfile profile;
    profile.klasses = {m.object_k, m.node_k};
    vm::Ref head = vm::kNullRef;
    for (int i = 0; i < 2000; ++i) {
        vm::Ref node = m.heap->allocPlain(m.node_k);
        m.heap->setField(node, 0, vm::Value::ofRef(head));
        head = node;
    }
    core::BeeHiveConfig cfg;
    cfg.closure_data_depth = 64;
    cfg.closure_max_objects = 4096;

    ClosureResult r;
    r.builds = builds;
    Clock::time_point t0 = Clock::now();
    for (uint64_t i = 0; i < builds; ++i) {
        core::ClosureBuilder builder(*m.ctx, cfg, Rng(42));
        core::Closure closure =
            builder.build(root, &profile, {vm::Value::ofRef(head)});
        r.objects = closure.objects.size();
    }
    r.us_per_build = elapsedNs(t0) * 1e-3 / static_cast<double>(builds);
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchArgs args = parseArgs(argc, argv);
    const uint64_t dispatch_target = args.quick ? 200000 : 2000000;
    // About 17 instructions per iteration: --quick times 20M.
    const uint64_t interp_iters = args.quick ? 1200000 : 6000000;
    const uint64_t config_walks = args.quick ? 1000 : 10000;
    const uint64_t calls = args.quick ? 2000000 : 20000000;
    const uint64_t event_ops = args.quick ? 500000 : 5000000;
    const uint64_t heap_vms = args.quick ? 2000 : 20000;
    const uint64_t field_writes = args.quick ? 2000000 : 20000000;
    const uint64_t remote_lookups = args.quick ? 2000000 : 20000000;
    const uint64_t closure_builds = args.quick ? 2000 : 20000;

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
    WalkResult walk = benchConfigWalk(config_walks);
    CallResult call = benchCalls(calls);
    EventResult events = benchEventQueue(event_ops);
    HeapResult heaps = benchHeapConstruct(heap_vms);
    FieldWriteResult fields = benchFieldWrite(field_writes);
    RemoteLookupResult remote = benchRemoteLookup(remote_lookups);
    ClosureResult closures = benchClosureBuild(closure_builds);

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
    std::printf("interpreter: %llu instructions, %.2f ns/instr\n",
                static_cast<unsigned long long>(interp.instructions),
                interp.ns_per_instruction);
    std::printf("config_walk: %llu instructions, %.2f ns/instr plain, "
                "%.2f ns/instr quickened\n",
                static_cast<unsigned long long>(walk.instructions),
                walk.plain_ns, walk.quick_ns);
    std::printf("native_call: %llu calls, %.2f ns/call\n",
                static_cast<unsigned long long>(call.calls),
                call.native_ns);
    std::printf("bytecode_call: %llu calls, %.2f ns/call\n",
                static_cast<unsigned long long>(call.calls),
                call.bytecode_ns);
    std::printf("event queue: %llu ops, %.2f ns/op, %.0f events/s\n",
                static_cast<unsigned long long>(events.operations),
                events.ns_per_op, events.events_per_sec);
    std::printf("heap_construct: %llu function VMs (%zu MB reserved), "
                "%.0f ns/VM\n",
                static_cast<unsigned long long>(heaps.vms),
                heaps.reserved_bytes >> 20, heaps.ns_per_vm);
    std::printf("field_write: %llu stores, %.2f ns plain, "
                "%.2f ns with dirty barrier\n",
                static_cast<unsigned long long>(fields.writes),
                fields.plain_ns, fields.barrier_ns);
    std::printf("remote_lookup: %llu lookups, %.2f ns/lookup\n",
                static_cast<unsigned long long>(remote.lookups),
                remote.ns_per_lookup);
    std::printf("closure_build: %llu closures of %zu objects, "
                "%.1f us/closure\n",
                static_cast<unsigned long long>(closures.builds),
                closures.objects, closures.us_per_build);

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
                     "\"ns_per_instruction\": %.3f},\n",
                     static_cast<unsigned long long>(
                         interp.instructions),
                     interp.ns_per_instruction);
        std::fprintf(json,
                     "  \"config_walk\": {\"instructions\": %llu, "
                     "\"plain_ns\": %.3f, \"quick_ns\": %.3f},\n",
                     static_cast<unsigned long long>(walk.instructions),
                     walk.plain_ns, walk.quick_ns);
        std::fprintf(json,
                     "  \"native_call\": {\"calls\": %llu, "
                     "\"ns_per_call\": %.3f},\n",
                     static_cast<unsigned long long>(call.calls),
                     call.native_ns);
        std::fprintf(json,
                     "  \"bytecode_call\": {\"calls\": %llu, "
                     "\"ns_per_call\": %.3f},\n",
                     static_cast<unsigned long long>(call.calls),
                     call.bytecode_ns);
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
        std::fprintf(json,
                     "  \"field_write\": {\"writes\": %llu, "
                     "\"plain_ns\": %.3f, \"barrier_ns\": %.3f},\n",
                     static_cast<unsigned long long>(fields.writes),
                     fields.plain_ns, fields.barrier_ns);
        std::fprintf(json,
                     "  \"remote_lookup\": {\"lookups\": %llu, "
                     "\"ns_per_lookup\": %.3f},\n",
                     static_cast<unsigned long long>(remote.lookups),
                     remote.ns_per_lookup);
        std::fprintf(json,
                     "  \"closure_build\": {\"builds\": %llu, "
                     "\"objects\": %zu, \"us_per_build\": %.2f}\n",
                     static_cast<unsigned long long>(closures.builds),
                     closures.objects, closures.us_per_build);
        std::fprintf(json, "}\n");
        std::fclose(json);
    } else {
        std::fprintf(stderr, "could not write BENCH_perf.json\n");
    }

    std::printf("PERF dispatch_speedup=%.2f ns_per_instr=%.2f "
                "native_call_ns=%.2f bytecode_call_ns=%.2f "
                "events_per_sec=%.0f heap_ns_per_vm=%.0f "
                "field_write_ns=%.2f barrier_write_ns=%.2f "
                "remote_lookup_ns=%.2f closure_build_us=%.1f\n",
                dispatch.speedup, interp.ns_per_instruction,
                call.native_ns, call.bytecode_ns,
                events.events_per_sec, heaps.ns_per_vm,
                fields.plain_ns, fields.barrier_ns,
                remote.ns_per_lookup, closures.us_per_build);
    // Nonzero when the headline target is missed (CI gates on it).
    return dispatch.speedup >= 2.0 && json ? 0 : 1;
}
