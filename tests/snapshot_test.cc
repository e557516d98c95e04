/**
 * @file
 * Snapshot subsystem tests.
 *
 * Unit level: the store dedups and strips remote marks; staleness
 * revalidation drops moved semispace objects but keeps
 * closure-space ones; the modeled image size follows the recorded
 * shapes; a recording serves restores only after its first folded
 * boot; and across the fuzz generator's seeds the restore plan
 * covers every dynamically recorded class fault. Each app's
 * recorded image and static restore plan are pinned.
 *
 * Integration level (full testbed): with snapshots enabled and a
 * short keep-alive, expired instances come back via restore boots
 * whose pre-installed working set removes the shadow-phase fetch
 * storm; a server GC between recording and restoring makes the
 * image stale, and the restore falls back through the normal fetch
 * path with the staleness surfaced in the request trace; with the
 * knob off, the restore path is never taken.
 */

#include <gtest/gtest.h>

#include <set>

#include "core/offload.h"
#include "fuzz_support.h"
#include "gc/collector.h"
#include "harness/testbed.h"
#include "snapshot/store.h"
#include "vm/context.h"
#include "vm/heap.h"
#include "vm/interpreter.h"
#include "vm/program.h"
#include "workload/clients.h"

namespace beehive::snapshot {
namespace {

using sim::SimTime;

/** Program with the usual Object/Node pair; returns their ids. */
vm::Program
makeProgram(vm::KlassId &object_k, vm::KlassId &node_k)
{
    vm::Program program;
    vm::Klass obj;
    obj.name = "Object";
    object_k = program.addKlass(obj);
    vm::Klass node;
    node.name = "Node";
    node.fields = {"next", "payload"};
    node_k = program.addKlass(node);
    return program;
}

TEST(SnapshotStoreTest, RecordingDedupsAndStripsRemoteMark)
{
    vm::KlassId object_k, node_k;
    vm::Program program = makeProgram(object_k, node_k);
    vm::Heap heap(program, 1 << 16, 1 << 16);
    SnapshotStore store(heap);

    const vm::MethodId root = 1;
    vm::Ref a = heap.allocPlain(node_k);
    store.recordObjectFault(root, vm::markRemote(a), 0);
    store.recordObjectFault(root, a, 0); // same object, local form
    store.recordObjectFault(root, vm::kNullRef, 0);
    store.recordClassFault(root, node_k);
    store.recordClassFault(root, node_k);
    store.endRecordedBoot(root);

    ASSERT_TRUE(store.hasImage(root));
    RestorePlan plan = store.planRestore(root, 0);
    ASSERT_EQ(plan.objects.size(), 1u);
    EXPECT_EQ(plan.objects[0], a); // remote mark stripped
    EXPECT_FALSE(vm::isRemote(plan.objects[0]));
    EXPECT_EQ(plan.klasses.size(), 1u);
    EXPECT_EQ(plan.stale_objects, 0u);
    EXPECT_GT(plan.image_bytes, 0u);
}

TEST(SnapshotStoreTest, StaleEpochDropsSemispaceKeepsClosure)
{
    vm::KlassId object_k, node_k;
    vm::Program program = makeProgram(object_k, node_k);
    vm::Heap heap(program, 1 << 16, 1 << 16);
    SnapshotStore store(heap);

    const vm::MethodId root = 1;
    vm::Ref moving = heap.allocPlain(node_k); // semispace
    vm::Ref pinned =
        heap.allocPlain(node_k, /*in_closure=*/true);
    store.recordObjectFault(root, moving, 7);
    store.recordObjectFault(root, pinned, 7);
    store.endRecordedBoot(root);

    // Same epoch: both are prefetchable.
    RestorePlan fresh = store.planRestore(root, 7);
    EXPECT_EQ(fresh.objects.size(), 2u);
    EXPECT_EQ(fresh.stale_objects, 0u);
    EXPECT_EQ(store.verifyCoverage(root, 7), 0u);

    // A collection happened: the semispace address is meaningless,
    // the closure-space one never moves.
    RestorePlan stale = store.planRestore(root, 8);
    ASSERT_EQ(stale.objects.size(), 1u);
    EXPECT_EQ(stale.objects[0], pinned);
    EXPECT_EQ(stale.stale_objects, 1u);
    // Every recorded object is still accounted for: planned or
    // counted stale, never silently lost.
    EXPECT_EQ(store.verifyCoverage(root, 8), 0u);
    // The stale layers shrink the modeled transfer too.
    EXPECT_LT(stale.image_bytes, fresh.image_bytes);
}

TEST(SnapshotStoreTest, HeaderShapeChangeMakesRecordingStale)
{
    vm::KlassId object_k, node_k;
    vm::Program program = makeProgram(object_k, node_k);
    vm::Heap heap(program, 1 << 16, 1 << 16);
    SnapshotStore store(heap);

    const vm::MethodId root = 1;
    vm::Ref r = heap.allocPlain(node_k, /*in_closure=*/true);
    store.recordObjectFault(root, r, 0);
    store.endRecordedBoot(root);
    EXPECT_EQ(store.planRestore(root, 0).objects.size(), 1u);

    // The address now holds something else (shape revalidation).
    heap.header(r).klass = object_k;
    RestorePlan plan = store.planRestore(root, 0);
    EXPECT_EQ(plan.objects.size(), 0u);
    EXPECT_EQ(plan.stale_objects, 1u);
    EXPECT_EQ(store.verifyCoverage(root, 0), 0u);
}

TEST(SnapshotStoreTest, ImageBytesFollowTheRecordedShapes)
{
    vm::KlassId object_k, node_k;
    vm::Program program = makeProgram(object_k, node_k);
    vm::Heap heap(program, 1 << 16, 1 << 16);
    SnapshotStore store(heap);

    const vm::MethodId root = 1;
    vm::Ref plain = heap.allocPlain(node_k, /*in_closure=*/true);
    vm::Ref arr = heap.allocArray(object_k, 5);
    vm::Ref bytes = heap.allocBytes(object_k, "thirteen-long");
    store.recordClassFault(root, node_k);
    store.recordClassFault(root, object_k);
    for (vm::Ref r : {plain, arr, bytes})
        store.recordObjectFault(root, r, 4);
    store.endRecordedBoot(root);

    // 32 B header + 2 klasses x 4 B, then 36 B per object plus its
    // payload: 2 fields x 9 B, 5 elements x 9 B, 13 raw bytes.
    EXPECT_EQ(store.planRestore(root, 4).image_bytes,
              32u + 8 + (36 + 18) + (36 + 45) + (36 + 13));
    // One collection later, only the closure-space object is sent.
    EXPECT_EQ(store.planRestore(root, 5).image_bytes,
              32u + 8 + (36 + 18));
}

TEST(SnapshotStoreTest, NoImageBeforeTheFirstFoldedBoot)
{
    vm::KlassId object_k, node_k;
    vm::Program program = makeProgram(object_k, node_k);
    vm::Heap heap(program, 1 << 16, 1 << 16);
    SnapshotStore store(heap);

    store.recordClassFault(1, node_k);
    EXPECT_FALSE(store.hasImage(1)); // recording, nothing folded
    store.endRecordedBoot(1);
    EXPECT_TRUE(store.hasImage(1));
}

TEST(SnapshotStoreTest, SyntheticManifestServesImmediately)
{
    vm::KlassId object_k, node_k;
    vm::Program program = makeProgram(object_k, node_k);
    vm::Heap heap(program, 1 << 16, 1 << 16);
    SnapshotStore store(heap);

    const vm::MethodId root = 1;
    vm::Ref a = heap.allocPlain(node_k);
    store.synthesizeManifest(root, {node_k}, {a}, 0);

    // A recording would wait for its first folded boot, but a
    // synthetic manifest serves restores with ZERO boots folded:
    // that is the whole point of static inference.
    EXPECT_TRUE(store.hasImage(root));
    EXPECT_TRUE(store.isSynthetic(root));
    EXPECT_EQ(store.manifestsSynthesized(), 1u);
    RestorePlan plan = store.planRestore(root, 0);
    ASSERT_EQ(plan.klasses.size(), 1u);
    EXPECT_EQ(plan.klasses[0], node_k);
    ASSERT_EQ(plan.objects.size(), 1u);
    EXPECT_EQ(plan.objects[0], a);
}

TEST(SnapshotStoreTest, RecordedBootRefinesSyntheticManifest)
{
    vm::KlassId object_k, node_k;
    vm::Program program = makeProgram(object_k, node_k);
    vm::Heap heap(program, 1 << 16, 1 << 16);
    SnapshotStore store(heap);

    const vm::MethodId root = 1;
    vm::Ref a = heap.allocPlain(node_k);
    vm::Ref b = heap.allocPlain(node_k);
    store.synthesizeManifest(root, {node_k, object_k}, {a, b}, 0);
    const uint64_t synthetic_bytes =
        store.planRestore(root, 0).image_bytes;

    // A recorded boot confirms node_k and a; object_k and b are
    // static over-approximation and must be refined away.
    store.recordClassFault(root, node_k);
    store.recordObjectFault(root, a, 0);
    store.endRecordedBoot(root);

    EXPECT_FALSE(store.isSynthetic(root));
    EXPECT_EQ(store.refinedDropped(), 2u);
    RestorePlan plan = store.planRestore(root, 0);
    EXPECT_LT(plan.image_bytes, synthetic_bytes);
    ASSERT_EQ(plan.klasses.size(), 1u);
    EXPECT_EQ(plan.klasses[0], node_k);
    ASSERT_EQ(plan.objects.size(), 1u);
    EXPECT_EQ(plan.objects[0], a);
}

TEST(SnapshotStoreTest, FaultFreeBootKeepsSyntheticManifestWhole)
{
    vm::KlassId object_k, node_k;
    vm::Program program = makeProgram(object_k, node_k);
    vm::Heap heap(program, 1 << 16, 1 << 16);
    SnapshotStore store(heap);

    const vm::MethodId root = 1;
    store.synthesizeManifest(root, {node_k, object_k}, {}, 0);
    // A boot that faulted on NOTHING carries no refinement signal
    // (the prefetch itself is why it saw no faults); the manifest
    // must survive untouched.
    store.endRecordedBoot(root);
    EXPECT_EQ(store.refinedDropped(), 0u);
    EXPECT_EQ(store.planRestore(root, 0).klasses.size(), 2u);
}

TEST(SnapshotFuzzTest, RestorePlanCoversDynamicClassFaults)
{
    // Across the same seed range fuzz_test uses: run each generated
    // program on a VM with NO preloaded klasses, resolving every
    // class fault by hand while recording it, and require the
    // restore plan to be a superset of the realized fault set.
    for (uint64_t seed = 1; seed < 33; ++seed) {
        vm::KlassId object_k, node_k;
        vm::Program program = makeProgram(object_k, node_k);
        vm::MethodId entry = vm::fuzztest::generateProgram(
            program, object_k, node_k, seed);

        vm::Heap server_heap(program, 1 << 16, 1 << 20);
        SnapshotStore store(server_heap);

        vm::NativeRegistry natives;
        vm::Heap heap(program, 1 << 16, 1 << 20);
        vm::VmConfig cfg;
        cfg.array_klass = object_k;
        vm::VmContext ctx(program, natives, heap, cfg);
        gc::SemiSpaceCollector collector(heap);
        vm::Interpreter interp(ctx);
        collector.addValueRoots(
            [&](const auto &visit) { interp.forEachRoot(visit); });

        std::set<vm::KlassId> faulted;
        interp.start(entry, {});
        bool done = false;
        while (!done) {
            vm::Suspend s = interp.run();
            switch (s.kind) {
              case vm::Suspend::Kind::Done:
                done = true;
                break;
              case vm::Suspend::Kind::Quantum:
                break;
              case vm::Suspend::Kind::HeapFull:
                collector.collect();
                break;
              case vm::Suspend::Kind::ClassFault:
                faulted.insert(s.klass);
                store.recordClassFault(entry, s.klass);
                ctx.loadKlass(s.klass);
                break;
              default:
                FAIL() << "unexpected suspension "
                       << static_cast<int>(s.kind) << ", seed "
                       << seed;
            }
        }
        store.endRecordedBoot(entry);

        EXPECT_FALSE(faulted.empty()) << "seed " << seed;
        ASSERT_TRUE(store.hasImage(entry)) << "seed " << seed;
        RestorePlan plan = store.planRestore(entry, 0);
        std::set<vm::KlassId> planned(plan.klasses.begin(),
                                      plan.klasses.end());
        for (vm::KlassId k : faulted) {
            EXPECT_TRUE(planned.count(k))
                << "klass " << k
                << " faulted but missing from the restore plan, "
                << "seed " << seed;
        }
        EXPECT_EQ(store.verifyCoverage(entry, 0), 0u)
            << "seed " << seed;
    }
}

// -------------------------------------------------------------------
// Testbed integration: the restore boot path end to end.
// -------------------------------------------------------------------

struct DrillOutcome
{
    bool has_store = false;
    uint64_t restore_boots = 0;
    uint64_t cold_boots = 0;
    uint64_t expired = 0;
    uint64_t epoch_before_gc = 0;
    uint64_t epoch_after_gc = 0;
    uint64_t stale_forecast = 0; //!< store's own stale count pre-burst
    uint64_t completed_first = 0;
    uint64_t completed_total = 0;
    std::vector<std::pair<vm::MethodId, core::RequestTrace>> traces;
};

/**
 * Two load windows against one testbed with a 2 s FaaS keep-alive:
 * the first pays cold boots (and, when snapshots are on, records
 * them); the idle gap expires every cached instance; the second
 * boots fresh instances -- via restore when an image exists.
 */
DrillOutcome
runExpiryDrill(bool snapshot_on, bool gc_between)
{
    harness::TestbedOptions opts;
    opts.app = harness::AppKind::Thumbnail;
    opts.seed = 7;
    opts.beehive.snapshot_enabled = snapshot_on;
    opts.faas_keep_alive = SimTime::sec(2);
    harness::Testbed bed(opts);

    DrillOutcome out;
    if (!bed.runProfilingPhase()) {
        ADD_FAILURE() << "profiling phase selected no root";
        return out;
    }
    out.has_store = bed.server().snapshots() != nullptr;
    SimTime t0 = bed.sim().now();
    bed.manager()->setOffloadRatio(1.0);

    workload::Recorder recorder;
    workload::ClosedLoopClients clients(bed.sim(), bed.sink(),
                                        recorder);
    clients.startWindow(2, t0, t0 + SimTime::sec(4));
    // Run past last-release + keep-alive so the expiry sweep fires.
    bed.sim().runUntil(t0 + SimTime::sec(8));
    out.completed_first = recorder.completed();

    out.epoch_before_gc =
        bed.server().collector().totals().collections;
    if (gc_between)
        bed.server().runGc();
    out.epoch_after_gc =
        bed.server().collector().totals().collections;
    if (auto *snaps = bed.server().snapshots()) {
        for (const ImageComposition &c :
             snaps->compositions(out.epoch_after_gc))
            out.stale_forecast += c.stale_objects;
    }

    clients.startWindow(2, t0 + SimTime::sec(10),
                        t0 + SimTime::sec(14));
    bed.sim().runUntil(t0 + SimTime::sec(16));

    out.restore_boots = bed.platform()->restoreBoots();
    out.cold_boots = bed.platform()->coldBoots();
    out.expired = bed.platform()->expired();
    out.completed_total = recorder.completed();
    out.traces = bed.manager()->traces();
    return out;
}

double
meanShadowFetches(const DrillOutcome &out, cloud::BootKind kind,
                  uint64_t *count = nullptr)
{
    uint64_t fetches = 0, n = 0;
    for (const auto &[root, t] : out.traces) {
        if (!t.shadow || t.boot != kind)
            continue;
        fetches += t.remoteFetches();
        ++n;
    }
    if (count)
        *count = n;
    return n ? static_cast<double>(fetches) /
                   static_cast<double>(n)
             : 0.0;
}

TEST(SnapshotIntegrationTest, RestoreBootsPrefetchTheWorkingSet)
{
    DrillOutcome out = runExpiryDrill(/*snapshot_on=*/true,
                                      /*gc_between=*/false);
    ASSERT_TRUE(out.has_store);
    EXPECT_GT(out.expired, 0u); // the keep-alive sweep fired
    EXPECT_GT(out.cold_boots, 0u);
    ASSERT_GT(out.restore_boots, 0u);
    EXPECT_GT(out.completed_total, out.completed_first);

    uint64_t cold_shadows = 0, restore_shadows = 0;
    double cold_fetches = meanShadowFetches(
        out, cloud::BootKind::Cold, &cold_shadows);
    double restore_fetches = meanShadowFetches(
        out, cloud::BootKind::Restore, &restore_shadows);
    ASSERT_GT(cold_shadows, 0u);
    ASSERT_GT(restore_shadows, 0u);
    // The whole point: pre-installed working sets remove the
    // shadow-phase fault storm.
    EXPECT_LT(restore_fetches, cold_fetches);

    uint64_t prefetched = 0;
    for (const auto &[root, t] : out.traces)
        prefetched += t.prefetched_klasses + t.prefetched_objects;
    EXPECT_GT(prefetched, 0u);
}

TEST(SnapshotIntegrationTest, StaleImageFallsBackThroughFetchPath)
{
    DrillOutcome out = runExpiryDrill(/*snapshot_on=*/true,
                                      /*gc_between=*/true);
    ASSERT_TRUE(out.has_store);
    // The server collection invalidated semispace recordings...
    EXPECT_GT(out.epoch_after_gc, out.epoch_before_gc);
    // ...but restore boots still happen and every request still
    // completes: a stale image costs fetches, never correctness.
    ASSERT_GT(out.restore_boots, 0u);
    EXPECT_GT(out.completed_total, out.completed_first);

    uint64_t stale_traced = 0;
    for (const auto &[root, t] : out.traces)
        stale_traced += t.stale_prefetches;
    if (out.stale_forecast > 0) {
        // The dropped entries must be surfaced in the traces.
        EXPECT_GT(stale_traced, 0u);
    }
}

TEST(SnapshotIntegrationTest, DisabledKnobNeverTakesRestorePath)
{
    DrillOutcome out = runExpiryDrill(/*snapshot_on=*/false,
                                      /*gc_between=*/false);
    EXPECT_FALSE(out.has_store);
    EXPECT_EQ(out.restore_boots, 0u);
    EXPECT_GT(out.expired, 0u);
    for (const auto &[root, t] : out.traces) {
        EXPECT_NE(t.boot, cloud::BootKind::Restore);
        EXPECT_EQ(t.prefetched_klasses, 0u);
        EXPECT_EQ(t.prefetched_objects, 0u);
        EXPECT_EQ(t.stale_prefetches, 0u);
    }
}

// -------------------------------------------------------------------
// Pins: each app's recorded image and static restore plan.
// -------------------------------------------------------------------

/** A restore plan's sizes plus an FNV-1a hash of its klass and
 * object lists, in order. */
struct PlanPin
{
    uint64_t image_bytes = 0;
    std::size_t klasses = 0;
    std::size_t objects = 0;
    uint64_t stale_objects = 0;
    uint64_t hash = 0;

    bool operator==(const PlanPin &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const PlanPin &p)
{
    return os << "{" << p.image_bytes << ", " << p.klasses << ", "
              << p.objects << ", " << p.stale_objects << ", 0x"
              << std::hex << p.hash << std::dec << "}";
}

PlanPin
pinOf(const RestorePlan &plan)
{
    uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= 1099511628211ULL;
        }
    };
    for (vm::KlassId k : plan.klasses)
        mix(k);
    for (vm::Ref r : plan.objects)
        mix(r);
    return {plan.image_bytes, plan.klasses.size(), plan.objects.size(),
            plan.stale_objects, h};
}

/**
 * The restore plan of @p app's one enabled root: the static
 * manifest right after the profiling phase, or the image recorded
 * by hivelint's snapshot drill (all requests offloaded, two
 * closed-loop clients for 6 s, 2 s to drain).
 */
PlanPin
drillPin(harness::AppKind app, bool static_manifest)
{
    harness::TestbedOptions opts;
    opts.app = app;
    opts.beehive.snapshot_enabled = !static_manifest;
    opts.beehive.static_manifests = static_manifest;
    harness::Testbed bed(opts);
    if (!bed.runProfilingPhase()) {
        ADD_FAILURE() << "profiling phase selected no root";
        return {};
    }
    if (!static_manifest) {
        SimTime t0 = bed.sim().now();
        bed.manager()->setOffloadRatio(1.0);
        workload::Recorder recorder;
        workload::ClosedLoopClients clients(bed.sim(), bed.sink(),
                                            recorder);
        clients.start(2, t0);
        bed.sim().runUntil(t0 + SimTime::sec(6));
        clients.stopAll();
        bed.sim().runUntil(t0 + SimTime::sec(8));
    }
    SnapshotStore *snaps = bed.server().snapshots();
    uint64_t epoch = bed.server().collector().totals().collections;
    std::vector<ImageComposition> comps = snaps->compositions(epoch);
    if (comps.size() != 1u) {
        ADD_FAILURE() << comps.size() << " working sets, expected 1";
        return {};
    }
    return pinOf(snaps->planRestore(comps.front().root, epoch));
}

TEST(SnapshotPinTest, RestorePlansMatchThePins)
{
    // Each app's plan: image size, klass and object counts, stale
    // objects and a hash of the planned klasses and objects.
    struct Pin
    {
        harness::AppKind app;
        bool static_manifest;
        PlanPin want;
    };
    const Pin pins[] = {
        {harness::AppKind::Thumbnail, false,
         {3879, 1, 61, 0, 0x5e2cf643846a95bfULL}},
        {harness::AppKind::Thumbnail, true,
         {107735, 9, 1711, 0, 0x18d46e9c59ff4b8aULL}},
        {harness::AppKind::Pybbs, false,
         {94351, 2, 1497, 0, 0x14c30b01f2b93554ULL}},
        {harness::AppKind::Pybbs, true,
         {112226, 9, 1783, 0, 0x19e823cb18c095acULL}},
        {harness::AppKind::Blog, false,
         {21271, 2, 337, 0, 0x8cb94cb4ee6a3443ULL}},
        {harness::AppKind::Blog, true,
         {110966, 9, 1763, 0, 0xf1e9ebe3e2f54434ULL}},
    };
    for (const Pin &p : pins) {
        EXPECT_EQ(drillPin(p.app, p.static_manifest), p.want)
            << harness::appName(p.app)
            << (p.static_manifest ? " static" : " recorded");
    }
}

TEST(SnapshotIntegrationTest, StaticManifestFirstBootTakesRestorePath)
{
    harness::TestbedOptions opts;
    opts.app = harness::AppKind::Thumbnail;
    opts.seed = 7;
    opts.beehive.snapshot_enabled = false; // nothing was recorded...
    opts.beehive.static_manifests = true;  // ...only inferred
    opts.faas_keep_alive = SimTime::sec(2);
    harness::Testbed bed(opts);
    ASSERT_TRUE(bed.runProfilingPhase());

    // The knob alone constructs the store, and enableRoot filled it
    // with synthetic manifests before any FaaS instance existed.
    auto *snaps = bed.server().snapshots();
    ASSERT_NE(snaps, nullptr);
    EXPECT_GE(snaps->manifestsSynthesized(), 1u);

    SimTime t0 = bed.sim().now();
    bed.manager()->setOffloadRatio(1.0);
    workload::Recorder recorder;
    workload::ClosedLoopClients clients(bed.sim(), bed.sink(),
                                        recorder);
    clients.startWindow(2, t0, t0 + SimTime::sec(4));
    bed.sim().runUntil(t0 + SimTime::sec(6));
    EXPECT_GT(recorder.completed(), 0u);

    // The tentpole claim: the FIRST boot of every fresh acquisition
    // takes the restore path off the synthetic manifest -- no
    // recorded cold boot (and no fault storm) ever happens.
    EXPECT_GT(bed.platform()->restoreBoots(), 0u);
    EXPECT_EQ(bed.platform()->coldBoots(), 0u);
    uint64_t prefetched = 0;
    for (const auto &[root, t] : bed.manager()->traces())
        prefetched += t.prefetched_klasses + t.prefetched_objects;
    EXPECT_GT(prefetched, 0u);
}

} // namespace
} // namespace beehive::snapshot
