/**
 * @file
 * Static working-set inference: soundness and edge cases.
 *
 * The reachability analysis promises that, modulo counted escape
 * hatches, the dynamic fault set of an endpoint root is a subset of
 * the static manifest (vm/reachability_analysis.h). Three checks pin
 * that contract:
 *
 *   1. A many-seed fuzz cross-check: generated endpoint programs
 *      (shared scaffold + object graphs + a static-reading handler)
 *      run with interpreter recording on, and every recorded klass
 *      requirement, static access, field read and reachable
 *      pre-existing object must be covered by the manifest computed
 *      *before* the run.
 *   2. Call-graph SCCs that cycle through a native-method bridge
 *      must terminate and still be fully enumerated.
 *   3. Virtual dispatch through a receiver hint that is a
 *      *superclass* of every concrete override: the devirtualized
 *      call graph (and hence transitiveSummary) misses the
 *      override; the cone re-expansion must find it.
 */

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "fuzz_support.h"
#include "vm/analysis.h"
#include "vm/code_builder.h"
#include "vm/context.h"
#include "vm/heap.h"
#include "vm/interpreter.h"
#include "vm/natives.h"
#include "vm/program.h"
#include "vm/reachability_analysis.h"
#include "vm/value.h"

namespace beehive::vm {
namespace {

/** Run @p entry to completion; any fault or GC demand is a failure
 * (the fuzz heap is sized so neither can occur). */
void
runToDone(Interpreter &interp, MethodId entry,
          std::vector<Value> args)
{
    interp.start(entry, std::move(args));
    while (true) {
        Suspend s = interp.run();
        switch (s.kind) {
          case Suspend::Kind::Done:
            return;
          case Suspend::Kind::Quantum:
            continue;
          default:
            FAIL() << "unexpected suspension "
                   << static_cast<int>(s.kind);
            return;
        }
    }
}

// ---- Manifest-superset fuzz ---------------------------------------

class ManifestFuzz : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(ManifestFuzz, StaticManifestCoversDynamicWorkingSet)
{
    const uint64_t seed = GetParam();
    Program program;
    fuzztest::ManifestProgram mp =
        fuzztest::generateManifestProgram(program, seed);

    NativeRegistry natives;
    Heap heap(program, 1 << 16, 8 << 20); // big: no GC mid-fuzz
    VmConfig cfg;
    cfg.array_klass = mp.object_k;
    cfg.bytes_klass = mp.object_k;
    VmContext ctx(program, natives, heap, cfg);
    ctx.loadAll();

    // Server-side state the manifest must cover.
    Interpreter boot(ctx);
    runToDone(boot, mp.setup, {});
    runToDone(boot, mp.graph_setup, {});

    // Synthesis point: infer the manifest BEFORE the handler runs.
    ProgramAnalysis pa(program);
    ReachabilityAnalysis reach(program, pa);
    ReachReport rr = reach.analyzeRoot(mp.handler);
    EXPECT_EQ(rr.escape_hatches, 0u) << "seed " << seed;
    std::vector<Ref> objs = reach.resolveFootprint(rr, ctx);
    std::set<Ref> manifest(objs.begin(), objs.end());
    std::set<KlassId> closure(rr.klasses.begin(), rr.klasses.end());
    if (rr.needs_bytes_klass)
        closure.insert(cfg.bytes_klass);

    // Everything allocated past this watermark is handler-fresh and
    // exempt from coverage (a FaaS instance allocates those locally;
    // they can never be object-faulted from the server).
    const uint8_t pre_space = heap.allocSpaceId();
    const std::size_t watermark = heap.space(pre_space).used();
    auto pre_existing = [&](Ref r) {
        return refSpace(r) == Heap::kClosureSpaceId ||
               (refSpace(r) == pre_space &&
                refOffset(r) < watermark);
    };

    Interpreter run(ctx);
    run.enableRecording(true, /*field_reads=*/true);
    runToDone(run, mp.handler,
              {Value::ofInt(static_cast<int64_t>(seed))});

    // (a) Every klass the run required is in the static closure.
    for (KlassId k : run.recordedKlasses())
        EXPECT_TRUE(closure.count(k))
            << "klass " << program.klass(k).name
            << " escapes the closure, seed " << seed;

    // (b) Every static access and field read is admitted by the
    // abstract footprint (so footprint resolution walks it).
    for (const auto &[k, slot] : run.recordedStatics())
        EXPECT_TRUE(rr.footprint.statics.count({k, slot}))
            << "static " << program.klass(k).name << "." << slot
            << " escapes the footprint, seed " << seed;
    for (const auto &[k, idx] : run.recordedFieldReads())
        EXPECT_TRUE(rr.footprint.containsField(k, idx))
            << "field " << program.klass(k).name << "." << idx
            << " escapes the footprint, seed " << seed;

    // (c) Object superset: walk the live heap from the *recorded*
    // statics through the *recorded* field reads -- an independent
    // dynamic over-approximation of everything the handler could
    // have object-faulted on -- and demand each pre-existing object
    // is in the manifest.
    std::set<Ref> oracle;
    std::vector<Ref> work;
    auto visit = [&](Value v) {
        if (!v.isRef())
            return;
        Ref r = stripRemote(v.asRef());
        if (r == kNullRef || !pre_existing(r))
            return;
        if (oracle.insert(r).second)
            work.push_back(r);
    };
    for (const auto &[k, slot] : run.recordedStatics())
        visit(ctx.getStatic(k, slot));
    while (!work.empty()) {
        Ref r = work.back();
        work.pop_back();
        const ObjHeader &hdr = heap.header(r);
        for (uint32_t i = 0; i < hdr.count; ++i) {
            if (hdr.kind == ObjKind::Plain &&
                !run.recordedFieldReads().count({hdr.klass, i}))
                continue;
            if (hdr.kind == ObjKind::Bytes)
                break;
            visit(heap.field(r, i));
        }
    }
    for (Ref r : oracle)
        EXPECT_TRUE(manifest.count(r))
            << heap.describe(r)
            << " escapes the manifest, seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ManifestFuzz,
                         ::testing::Range<uint64_t>(1, 45));

// ---- Edge case: SCC through a native-method bridge ----------------

TEST(ReachabilityEdgeTest, SccThroughNativeBridgeTerminates)
{
    Program p;
    Klass ak;
    ak.name = "A";
    ak.statics = {"obj"}; // deliberately unhinted receiver slot
    KlassId a = p.addKlass(ak);
    Klass bk;
    bk.name = "B";
    KlassId b = p.addKlass(bk);
    Klass ck;
    ck.name = "C";
    KlassId c = p.addKlass(ck);

    // A.step: virtual "run" on an unhinted receiver. The analysis
    // cannot devirtualize, so the call unions every method named
    // "run" -- B.run (bytecode) and C.run (native).
    MethodId step;
    {
        CodeBuilder cb(p, a, "step", 0);
        cb.getStatic(a, 0).callVirt("run", 1).popv();
        cb.pushI(0).ret();
        step = cb.build();
    }
    // B.run calls A.step back: an SCC whose other edge is the
    // name-union above, with the native C.run bridging out of it.
    MethodId b_run;
    {
        CodeBuilder cb(p, b, "run", 1);
        cb.call(step).ret();
        b_run = cb.build();
    }
    Method nm;
    nm.name = "run";
    nm.num_args = 1;
    nm.is_native = true;
    MethodId c_run = p.addMethod(c, nm);

    ProgramAnalysis pa(p);
    ReachabilityAnalysis reach(p, pa);
    ReachReport rr = reach.analyzeRoot(step); // must terminate

    std::set<MethodId> methods(rr.methods.begin(),
                               rr.methods.end());
    EXPECT_TRUE(methods.count(step));
    EXPECT_TRUE(methods.count(b_run));
    EXPECT_TRUE(methods.count(c_run))
        << "native bridge dropped from the closure";
    std::set<KlassId> klasses(rr.klasses.begin(), rr.klasses.end());
    EXPECT_TRUE(klasses.count(a));
    EXPECT_TRUE(klasses.count(b));
    EXPECT_TRUE(klasses.count(c));
    // The name-union bounded the site: no escape hatch.
    EXPECT_EQ(rr.escape_hatches, 0u);
}

// ---- Edge case: override hidden behind a superclass hint ----------

TEST(ReachabilityEdgeTest, SuperclassHintConeFindsOverride)
{
    Program p;
    Klass basek;
    basek.name = "Base";
    KlassId base = p.addKlass(basek);
    Klass derivedk;
    derivedk.name = "Derived";
    derivedk.super = base;
    derivedk.statics = {"cache"};
    KlassId derived = p.addKlass(derivedk);
    Klass widgetk;
    widgetk.name = "Widget";
    KlassId widget = p.addKlass(widgetk);
    Klass holderk;
    holderk.name = "Holder";
    holderk.statics = {"svc"};
    KlassId holder = p.addKlass(holderk);
    // The declared type is the SUPERCLASS of the runtime value.
    p.hintStatic(holder, 0, base);

    MethodId base_work;
    {
        CodeBuilder cb(p, base, "work", 1);
        cb.pushI(1).ret();
        base_work = cb.build();
    }
    // The override allocates a klass and reads a static that
    // Base.work never touches.
    MethodId derived_work;
    {
        CodeBuilder cb(p, derived, "work", 1);
        cb.newObj(widget).popv();
        cb.getStatic(derived, 0).ret();
        derived_work = cb.build();
    }
    MethodId root;
    {
        CodeBuilder cb(p, holder, "handler", 0);
        cb.getStatic(holder, 0).callVirt("work", 1).ret();
        root = cb.build();
    }

    ProgramAnalysis pa(p);

    // The devirtualized graph resolves the site through the hint to
    // Base.work only, so the transitive summary misses the
    // override's static read -- the exact gap the cone fixes.
    EXPECT_FALSE(pa.transitiveSummary(root).statics_read.count(
        {derived, 0}));

    ReachabilityAnalysis reach(p, pa);
    ReachReport rr = reach.analyzeRoot(root);
    std::set<MethodId> methods(rr.methods.begin(),
                               rr.methods.end());
    EXPECT_TRUE(methods.count(base_work));
    EXPECT_TRUE(methods.count(derived_work))
        << "cone re-expansion missed the subclass override";
    EXPECT_GE(rr.cone_expansions, 1u);
    std::set<KlassId> klasses(rr.klasses.begin(), rr.klasses.end());
    EXPECT_TRUE(klasses.count(widget));
    EXPECT_TRUE(klasses.count(derived));
    EXPECT_TRUE(rr.footprint.statics.count({derived, 0}));
    EXPECT_EQ(rr.escape_hatches, 0u);
}

} // namespace
} // namespace beehive::vm
