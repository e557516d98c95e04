/**
 * @file
 * Unit tests for the BeeHive core: mapping tables, the sync
 * manager, closure construction/installation, and the server
 * runtime's local execution path.
 */

#include <gtest/gtest.h>

#include "cloud/faas.h"
#include "cloud/instance.h"
#include "core/closure.h"
#include "core/config.h"
#include "core/external.h"
#include "core/function.h"
#include "core/mapping.h"
#include "core/server.h"
#include "core/sync.h"
#include "db/record_store.h"
#include "net/network.h"
#include "proxy/connection_proxy.h"
#include "sim/simulation.h"
#include "vm/code_builder.h"

namespace beehive::core {
namespace {

using vm::Ref;
using vm::Value;

/**
 * Common fixture: a small program with a Node klass, a database,
 * a proxy, a server machine, and a BeeHiveServer.
 */
class CoreTest : public ::testing::Test
{
  protected:
    CoreTest() : sim(7), proxy(store)
    {
        net.setZoneLatency("vpc", "vpc", sim::SimTime::usec(200));
        net.setZoneLatency("vpc", "db", sim::SimTime::usec(250));
        net.setJitter(0.0);

        vm::Klass obj;
        obj.name = "Object";
        object_k = program.addKlass(obj);
        vm::Klass bytes;
        bytes.name = "Bytes";
        bytes_k = program.addKlass(bytes);
        vm::Klass arr;
        arr.name = "Array";
        array_k = program.addKlass(arr);
        vm::Klass node;
        node.name = "Node";
        node.fields = {"next", "val"};
        node.statics = {"head"};
        node_k = program.addKlass(node);

        db_machine = std::make_unique<cloud::Instance>(
            sim, net, cloud::m410XLarge(), "db", "db");
        server_machine = std::make_unique<cloud::Instance>(
            sim, net, cloud::m4XLarge(), "server", "vpc");

        store.createTable("t");
    }

    /** Create the server (call after all klasses/methods exist). */
    BeeHiveServer &
    makeServer(BeeHiveConfig cfg = {})
    {
        cfg.server_vm.bytes_klass = bytes_k;
        cfg.server_vm.array_klass = array_k;
        cfg.function_vm.bytes_klass = bytes_k;
        cfg.function_vm.array_klass = array_k;
        server = std::make_unique<BeeHiveServer>(
            sim, net, program, natives, proxy,
            db_machine->endpoint(), *server_machine, cfg);
        return *server;
    }

    /** Build a server-heap list of n nodes; returns the head. */
    Ref
    makeList(int n)
    {
        vm::Heap &heap = server->heap();
        Ref head = vm::kNullRef;
        for (int i = 0; i < n; ++i) {
            Ref node = heap.allocPlain(node_k);
            heap.setField(node, 0, Value::ofRef(head));
            heap.setField(node, 1, Value::ofInt(i));
            head = node;
        }
        return head;
    }

    sim::Simulation sim;
    net::Network net;
    vm::Program program;
    vm::NativeRegistry natives;
    db::RecordStore store;
    proxy::ConnectionProxy proxy;
    std::unique_ptr<cloud::Instance> db_machine, server_machine;
    std::unique_ptr<BeeHiveServer> server;
    vm::KlassId object_k, bytes_k, array_k, node_k;
};

// ---------------------------------------------------------------------
// MappingTable
// ---------------------------------------------------------------------

TEST(MappingTableTest, BidirectionalLookup)
{
    MappingTable map;
    map.add(0x100, 0x8200);
    map.add(0x110, 0x8300);
    EXPECT_EQ(map.toRemote(0x100), 0x8200u);
    EXPECT_EQ(map.toServer(0x8300), 0x110u);
    EXPECT_EQ(map.toRemote(0x999), vm::kNullRef);
    EXPECT_EQ(map.toServer(0x999), vm::kNullRef);
    EXPECT_EQ(map.size(), 2u);
    EXPECT_GT(map.footprintBytes(), 0u);
}

TEST(MappingTableTest, GcVisitorUpdatesServerSide)
{
    MappingTable map;
    map.add(0x100, 0x8200);
    // Simulate a moving GC: 0x100 -> 0x500.
    map.forEachServerRef([](Ref &r) {
        if (r == 0x100)
            r = 0x500;
    });
    EXPECT_EQ(map.toRemote(0x500), 0x8200u);
    EXPECT_EQ(map.toServer(0x8200), 0x500u);
    EXPECT_EQ(map.toRemote(0x100), vm::kNullRef);
}

// ---------------------------------------------------------------------
// Closure construction and installation
// ---------------------------------------------------------------------

TEST_F(CoreTest, ClosureIncludesReachableData)
{
    vm::CodeBuilder b(program, node_k, "walk", 1);
    b.annotate("RequestMapping").load(0).ret();
    vm::MethodId root = b.build();
    makeServer();

    Ref head = makeList(5);
    vm::RootProfile profile;
    profile.klasses = {node_k};
    ClosureBuilder builder(server->context(), server->config(),
                           Rng(1));
    Closure closure =
        builder.build(root, &profile, {Value::ofRef(head)});

    EXPECT_EQ(closure.root, root);
    // Depth limit (default 3) truncates the 5-node list: head at
    // depth 0 plus up to 3 more levels.
    EXPECT_GE(closure.objects.size(), 2u);
    EXPECT_LE(closure.objects.size(), 5u);
    EXPECT_GT(closure.build_time.toMillis(), 0.0);
    EXPECT_GT(closure.dataBytes(server->heap()), 0u);
    EXPECT_GT(closure.codeBytes(program), 0u);
}

TEST_F(CoreTest, ClosureCoverageThinsKlassSet)
{
    vm::CodeBuilder b(program, node_k, "walk2", 0);
    b.pushI(0).ret();
    vm::MethodId root = b.build();
    BeeHiveConfig cfg;
    cfg.closure_klass_coverage = 0.5;
    makeServer(cfg);

    vm::RootProfile profile;
    for (vm::KlassId k = 0; k < program.klassCount(); ++k)
        profile.klasses.insert(k);
    // Average over seeds: roughly half the klasses make it.
    double total = 0;
    for (uint64_t seed = 1; seed <= 20; ++seed) {
        ClosureBuilder builder(server->context(), server->config(),
                               Rng(seed));
        total += static_cast<double>(
            builder.build(root, &profile, {}).klasses.size());
    }
    double avg = total / 20.0;
    EXPECT_GT(avg, 1.5);
    EXPECT_LT(avg, static_cast<double>(program.klassCount()));
}

TEST_F(CoreTest, InstallClosureCopiesObjectsAndMapsAddresses)
{
    vm::CodeBuilder b(program, node_k, "walk3", 1);
    b.load(0).ret();
    vm::MethodId root = b.build();
    makeServer();

    Ref head = makeList(3);
    vm::RootProfile profile;
    profile.klasses = {node_k, object_k};
    ClosureBuilder builder(server->context(), server->config(),
                           Rng(1));
    Closure closure =
        builder.build(root, &profile, {Value::ofRef(head)});

    // A function-side VM.
    vm::Heap fn_heap(program, 1 << 20, 1 << 20);
    vm::VmConfig fn_cfg;
    fn_cfg.check_remote_refs = true;
    fn_cfg.endpoint = 1;
    vm::VmContext fn_ctx(program, natives, fn_heap, fn_cfg);
    MappingTable map;
    PackageableRegistry packs;

    InstallResult result = installClosure(
        closure, server->context(), fn_ctx, map, packs);
    EXPECT_EQ(result.objects, closure.objects.size());
    EXPECT_GT(result.bytes, 0u);
    EXPECT_EQ(map.size(), closure.objects.size());

    // The head's copy lives in the function's closure space with
    // its value intact and a translated next pointer.
    Ref local_head = map.toRemote(head);
    ASSERT_NE(local_head, vm::kNullRef);
    EXPECT_EQ(vm::refSpace(local_head), vm::Heap::kClosureSpaceId);
    EXPECT_EQ(fn_heap.field(local_head, 1).asInt(), 2);
    Ref local_next = fn_heap.field(local_head, 0).asRef();
    EXPECT_FALSE(vm::isRemote(local_next));
    EXPECT_EQ(fn_heap.field(local_next, 1).asInt(), 1);

    // Server copies got the shared flag.
    EXPECT_TRUE(server->heap().header(head).flags & vm::kFlagShared);
    // Klasses loaded on the function.
    EXPECT_TRUE(fn_ctx.isLoaded(node_k));
}

TEST_F(CoreTest, InstallMarksExcludedTargetsRemote)
{
    vm::CodeBuilder b(program, node_k, "walk4", 1);
    b.load(0).ret();
    vm::MethodId root = b.build();
    BeeHiveConfig cfg;
    cfg.closure_data_depth = 1; // head + next only
    makeServer(cfg);

    Ref head = makeList(4);
    ClosureBuilder builder(server->context(), server->config(),
                           Rng(1));
    Closure closure = builder.build(root, nullptr,
                                    {Value::ofRef(head)});
    ASSERT_EQ(closure.objects.size(), 2u);

    vm::Heap fn_heap(program, 1 << 20, 1 << 20);
    vm::VmConfig fn_cfg;
    fn_cfg.check_remote_refs = true;
    vm::VmContext fn_ctx(program, natives, fn_heap, fn_cfg);
    MappingTable map;
    PackageableRegistry packs;
    installClosure(closure, server->context(), fn_ctx, map, packs);

    Ref local_head = map.toRemote(head);
    Ref local_next = fn_heap.field(local_head, 0).asRef();
    Ref next_next = fn_heap.field(local_next, 0).asRef();
    EXPECT_TRUE(vm::isRemote(next_next));
    // The remote address is the server address of node #1.
    Ref server_next =
        server->heap().field(head, 0).asRef();
    Ref server_nn = server->heap().field(server_next, 0).asRef();
    EXPECT_EQ(vm::stripRemote(next_next), server_nn);
}

TEST_F(CoreTest, FetchObjectIsIdempotentAndTranslates)
{
    makeServer();
    Ref head = makeList(2);

    vm::Heap fn_heap(program, 1 << 20, 1 << 20);
    vm::VmConfig fn_cfg;
    fn_cfg.check_remote_refs = true;
    vm::VmContext fn_ctx(program, natives, fn_heap, fn_cfg);
    MappingTable map;
    PackageableRegistry packs;

    auto [local, bytes] = fetchObject(vm::markRemote(head),
                                      server->context(), fn_ctx, map,
                                      packs);
    EXPECT_NE(local, vm::kNullRef);
    EXPECT_GT(bytes, 0u);
    EXPECT_EQ(fn_heap.field(local, 1).asInt(), 1);
    // The next pointer is remote (not yet fetched).
    EXPECT_TRUE(vm::isRemote(fn_heap.field(local, 0).asRef()));
    // Refetching returns the same copy at zero transfer.
    auto [again, bytes2] = fetchObject(head, server->context(),
                                       fn_ctx, map, packs);
    EXPECT_EQ(again, local);
    EXPECT_EQ(bytes2, 0u);
    // The function's remote map resolves it now.
    EXPECT_EQ(fn_ctx.lookupRemote(vm::markRemote(head)), local);
}

TEST_F(CoreTest, FetchedObjectLinksToAlreadyFetchedNeighbors)
{
    makeServer();
    Ref head = makeList(2);
    Ref tail = server->heap().field(head, 0).asRef();

    vm::Heap fn_heap(program, 1 << 20, 1 << 20);
    vm::VmContext fn_ctx(program, natives, fn_heap, vm::VmConfig{});
    MappingTable map;
    PackageableRegistry packs;

    auto [local_tail, b1] =
        fetchObject(tail, server->context(), fn_ctx, map, packs);
    auto [local_head, b2] =
        fetchObject(head, server->context(), fn_ctx, map, packs);
    // head's next field points at the already-present tail copy.
    EXPECT_EQ(fn_heap.field(local_head, 0).asRef(), local_tail);
}

TEST_F(CoreTest, PackageableMarshalHookRunsOnInstall)
{
    vm::Klass sock;
    sock.name = "SocketImpl";
    sock.fields = {"token"};
    vm::KlassId sock_k = program.addKlass(sock);

    vm::CodeBuilder b(program, node_k, "conn_root", 1);
    b.load(0).ret();
    vm::MethodId root = b.build();
    makeServer();

    // Server-side connection object holding the server ConnId.
    proxy::ConnId conn = proxy.openConnection(server->endpoint());
    Ref sobj = server->heap().allocPlain(sock_k);
    server->heap().setField(sobj, kSocketFieldToken,
                            Value::ofInt(static_cast<int64_t>(conn)));

    // The SocketImpl marshal hook performs the proxy prepare
    // handshake (Figure 4) and packs the minted ID.
    server->packageables().add(
        program, sock_k,
        [this](Ref server_obj, vm::Heap &server_heap, Ref fn_obj,
               vm::Heap &fn_heap) {
            auto cid = static_cast<proxy::ConnId>(
                server_heap.field(server_obj, kSocketFieldToken)
                    .asInt());
            proxy::OffloadId oid = proxy.prepare(cid);
            fn_heap.setFieldRaw(
                fn_obj, kSocketFieldToken,
                Value::ofInt(static_cast<int64_t>(oid)));
        });

    ClosureBuilder builder(server->context(), server->config(),
                           Rng(1));
    Closure closure = builder.build(root, nullptr,
                                    {Value::ofRef(sobj)});

    vm::Heap fn_heap(program, 1 << 20, 1 << 20);
    vm::VmContext fn_ctx(program, natives, fn_heap, vm::VmConfig{});
    MappingTable map;
    installClosure(closure, server->context(), fn_ctx, map,
                   server->packageables());

    Ref local = map.toRemote(sobj);
    ASSERT_NE(local, vm::kNullRef);
    EXPECT_TRUE(fn_heap.header(local).flags & vm::kFlagPacked);
    auto oid = static_cast<proxy::OffloadId>(
        fn_heap.field(local, kSocketFieldToken).asInt());
    EXPECT_NE(oid, static_cast<proxy::OffloadId>(conn));
    EXPECT_NE(proxy.descriptor(oid), nullptr);
}

TEST_F(CoreTest, PackingDisabledLeavesObjectUnpacked)
{
    vm::Klass sock;
    sock.name = "SocketImpl2";
    sock.fields = {"token"};
    vm::KlassId sock_k = program.addKlass(sock);
    vm::CodeBuilder b(program, node_k, "conn_root2", 1);
    b.load(0).ret();
    vm::MethodId root = b.build();
    makeServer();
    server->packageables().add(program, sock_k,
                               [](Ref, vm::Heap &, Ref, vm::Heap &) {
                                   FAIL() << "hook must not run";
                               });

    Ref sobj = server->heap().allocPlain(sock_k);
    ClosureBuilder builder(server->context(), server->config(),
                           Rng(1));
    Closure closure = builder.build(root, nullptr,
                                    {Value::ofRef(sobj)});
    vm::Heap fn_heap(program, 1 << 20, 1 << 20);
    vm::VmContext fn_ctx(program, natives, fn_heap, vm::VmConfig{});
    MappingTable map;
    installClosure(closure, server->context(), fn_ctx, map,
                   server->packageables(), /*pack_enabled=*/false);
    Ref local = map.toRemote(sobj);
    EXPECT_FALSE(fn_heap.header(local).flags & vm::kFlagPacked);
}

// ---------------------------------------------------------------------
// Argument and result transfer
// ---------------------------------------------------------------------

TEST_F(CoreTest, CopyArgsLandsInAllocSpaceWithDepthLimit)
{
    makeServer();
    Ref head = makeList(4);

    vm::Heap fn_heap(program, 1 << 20, 1 << 20);
    vm::VmContext fn_ctx(program, natives, fn_heap, vm::VmConfig{});
    auto out = copyArgsToFunction({Value::ofRef(head),
                                   Value::ofInt(9)},
                                  server->context(), fn_ctx, 1);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[1].asInt(), 9);
    Ref local = out[0].asRef();
    EXPECT_EQ(vm::refSpace(local), fn_heap.allocSpaceId());
    EXPECT_EQ(fn_heap.field(local, 1).asInt(), 3);
    // Depth 1: next is copied, next-next is remote.
    Ref next = fn_heap.field(local, 0).asRef();
    EXPECT_FALSE(vm::isRemote(next));
    EXPECT_TRUE(vm::isRemote(fn_heap.field(next, 0).asRef()));
}

TEST_F(CoreTest, CopyResultTranslatesMappedAndClonesUnmapped)
{
    makeServer();
    vm::Heap fn_heap(program, 1 << 20, 1 << 20);
    vm::VmContext fn_ctx(program, natives, fn_heap, vm::VmConfig{});
    MappingTable map;

    // Unmapped function-local result object.
    Ref fn_obj = fn_heap.allocPlain(node_k);
    fn_heap.setField(fn_obj, 1, Value::ofInt(77));
    Value out = copyResultToServer(Value::ofRef(fn_obj), fn_ctx,
                                   server->context(), map);
    ASSERT_TRUE(out.isRef());
    EXPECT_EQ(server->heap().field(out.asRef(), 1).asInt(), 77);

    // Mapped object: translate, no clone.
    Ref server_obj = server->heap().allocPlain(node_k);
    Ref fn_copy = fn_heap.allocPlain(node_k);
    map.add(server_obj, fn_copy);
    Value translated = copyResultToServer(
        Value::ofRef(fn_copy), fn_ctx, server->context(), map);
    EXPECT_EQ(translated.asRef(), server_obj);

    // Ints and nil pass through.
    EXPECT_EQ(copyResultToServer(Value::ofInt(4), fn_ctx,
                                 server->context(), map)
                  .asInt(),
              4);
}

// ---------------------------------------------------------------------
// SyncManager
// ---------------------------------------------------------------------

class SyncTest : public CoreTest
{
  protected:
    void
    SetUp() override
    {
        makeServer();
        fn_heap = std::make_unique<vm::Heap>(program, 1 << 20,
                                             1 << 20);
        vm::VmConfig cfg;
        cfg.endpoint = 1;
        fn_ctx = std::make_unique<vm::VmContext>(program, natives,
                                                 *fn_heap, cfg);
        fn_ctx->loadAll();
        // Hand-register as function endpoint 1.
        fn_id = server->registerFunction(fn_ctx.get(),
                                         server->endpoint());
        // Shared object present on both sides.
        server_obj = server->heap().allocPlain(node_k);
        server->heap().header(server_obj).flags |= vm::kFlagShared;
        fn_obj = fn_heap->cloneFrom(server->heap(), server_obj,
                                    vm::Heap::kClosureSpaceId);
        server->mappingFor(fn_id).add(server_obj, fn_obj);
    }

    std::unique_ptr<vm::Heap> fn_heap;
    std::unique_ptr<vm::VmContext> fn_ctx;
    uint16_t fn_id = 0;
    Ref server_obj = vm::kNullRef, fn_obj = vm::kNullRef;
};

TEST_F(SyncTest, UnsharedObjectsNeedNoRemoteAcquire)
{
    Ref local_only = fn_heap->allocPlain(node_k);
    EXPECT_FALSE(
        server->sync().needsRemoteAcquire(fn_id, local_only));
}

TEST_F(SyncTest, FirstAcquireByFunctionTransfersFromServer)
{
    // Server owns the lock initially (owner 0).
    EXPECT_TRUE(server->sync().needsRemoteAcquire(fn_id, fn_obj));
    server->heap().setField(server_obj, 1, Value::ofInt(41));
    // The write marked the server dirty set via the observer.
    EXPECT_GE(server->sync().dirtyCount(0), 1u);

    auto r = server->sync().acquire(fn_id, fn_obj);
    EXPECT_TRUE(r.remote);
    EXPECT_EQ(r.prev_owner, 0);
    // The function copy now sees the server's update.
    EXPECT_EQ(fn_heap->field(fn_obj, 1).asInt(), 41);
    // Ownership moved.
    EXPECT_FALSE(server->sync().needsRemoteAcquire(fn_id, fn_obj));
    EXPECT_TRUE(server->sync().needsRemoteAcquire(0, server_obj));
}

TEST_F(SyncTest, ServerReacquireSeesFunctionWrites)
{
    server->sync().acquire(fn_id, fn_obj);
    // Function updates the shared object (observer marks dirty).
    fn_heap->setField(fn_obj, 1, Value::ofInt(123));
    server->sync().markDirty(fn_id, fn_obj);

    auto r = server->sync().acquire(0, server_obj);
    EXPECT_TRUE(r.remote);
    EXPECT_EQ(r.prev_owner, fn_id);
    EXPECT_GE(r.objects_transferred, 1u);
    EXPECT_EQ(server->heap().field(server_obj, 1).asInt(), 123);
}

TEST_F(SyncTest, FunctionToFunctionSyncTranslatesAddresses)
{
    // Second function endpoint.
    vm::Heap heap2(program, 1 << 20, 1 << 20);
    vm::VmConfig cfg2;
    cfg2.endpoint = 2;
    vm::VmContext ctx2(program, natives, heap2, cfg2);
    ctx2.loadAll();
    uint16_t fn2 = server->registerFunction(&ctx2,
                                            server->endpoint());
    Ref fn2_obj = heap2.cloneFrom(server->heap(), server_obj,
                                  vm::Heap::kClosureSpaceId);
    server->mappingFor(fn2).add(server_obj, fn2_obj);

    // fn1 acquires and writes.
    server->sync().acquire(fn_id, fn_obj);
    fn_heap->setField(fn_obj, 1, Value::ofInt(55));
    server->sync().markDirty(fn_id, fn_obj);

    // fn2 acquires: happens-before mandates it sees 55 (Figure 6).
    auto r = server->sync().acquire(fn2, fn2_obj);
    EXPECT_TRUE(r.remote);
    EXPECT_EQ(r.prev_owner, fn_id);
    EXPECT_EQ(heap2.field(fn2_obj, 1).asInt(), 55);
    // And the server copy was updated in passing.
    EXPECT_EQ(server->heap().field(server_obj, 1).asInt(), 55);
}

TEST_F(SyncTest, ReacquireBySameOwnerIsFree)
{
    server->sync().acquire(fn_id, fn_obj);
    auto r = server->sync().acquire(fn_id, fn_obj);
    EXPECT_FALSE(r.remote);
    EXPECT_EQ(r.objects_transferred, 0u);
}

TEST_F(SyncTest, PromotionCarriesFunctionAllocatedObjects)
{
    server->sync().acquire(fn_id, fn_obj);
    // The function hangs a NEW (unmapped) object off the shared one.
    Ref fresh = fn_heap->allocPlain(node_k);
    fn_heap->setField(fresh, 1, Value::ofInt(900));
    fn_heap->setField(fn_obj, 0, Value::ofRef(fresh));
    server->sync().markDirty(fn_id, fn_obj);

    auto r = server->sync().acquire(0, server_obj);
    EXPECT_GE(r.objects_transferred, 2u);
    Ref promoted = server->heap().field(server_obj, 0).asRef();
    ASSERT_NE(promoted, vm::kNullRef);
    EXPECT_FALSE(vm::isRemote(promoted));
    EXPECT_EQ(server->heap().field(promoted, 1).asInt(), 900);
}

TEST_F(SyncTest, VolatileStyleSyncPropagatesState)
{
    // A volatile access uses the same acquire() data-transfer path
    // without the monitor queue: after the function "released" (was
    // last owner), a server-side acquire pulls its writes.
    server->sync().acquire(fn_id, fn_obj);
    fn_heap->setField(fn_obj, 1, Value::ofInt(404));
    server->sync().markDirty(fn_id, fn_obj);
    auto r = server->sync().acquire(0, server_obj);
    EXPECT_TRUE(r.remote);
    EXPECT_EQ(server->heap().field(server_obj, 1).asInt(), 404);
}

TEST_F(SyncTest, MonitorTableProvidesMutualExclusion)
{
    int granted = 0;
    auto grant_cb = [&](const SyncManager::SyncResult &) {
        ++granted;
    };
    int holder_a = 0, holder_b = 0;
    server->sync().acquireMonitor(fn_id, &holder_a, fn_obj, grant_cb);
    EXPECT_EQ(granted, 1); // uncontended: granted immediately
    server->sync().acquireMonitor(0, &holder_b, server_obj, grant_cb);
    EXPECT_EQ(granted, 1); // queued behind holder_a
    EXPECT_EQ(server->sync().heldMonitors(), 1u);
    server->sync().releaseMonitor(fn_id, &holder_a, fn_obj);
    EXPECT_EQ(granted, 2); // FIFO handoff
    server->sync().releaseMonitor(0, &holder_b, server_obj);
    EXPECT_EQ(server->sync().heldMonitors(), 0u);
}

TEST_F(SyncTest, ReentrantAcquireGrantsImmediately)
{
    int granted = 0;
    int holder = 0;
    auto cb = [&](const SyncManager::SyncResult &) { ++granted; };
    server->sync().acquireMonitor(fn_id, &holder, fn_obj, cb);
    server->sync().acquireMonitor(fn_id, &holder, fn_obj, cb);
    EXPECT_EQ(granted, 2);
}

TEST_F(SyncTest, AbandonHolderReleasesAndGrantsNext)
{
    int granted_b = 0;
    int holder_a = 0, holder_b = 0;
    server->sync().acquireMonitor(
        fn_id, &holder_a, fn_obj,
        [](const SyncManager::SyncResult &) {});
    server->sync().acquireMonitor(
        0, &holder_b, server_obj,
        [&](const SyncManager::SyncResult &) { ++granted_b; });
    EXPECT_EQ(granted_b, 0);
    // holder_a dies (failure injection path).
    server->sync().abandonHolder(&holder_a);
    EXPECT_EQ(granted_b, 1);
}

TEST_F(SyncTest, UnregisterRevertsLocksToServer)
{
    server->sync().acquire(fn_id, fn_obj);
    EXPECT_EQ(server->sync().owner(server_obj), fn_id);
    server->sync().unregisterFunction(fn_id);
    EXPECT_EQ(server->sync().owner(server_obj), 0);
}

// ---------------------------------------------------------------------
// Server local execution
// ---------------------------------------------------------------------

TEST_F(CoreTest, HandleLocalRunsRequestOnServerCpu)
{
    vm::CodeBuilder b(program, node_k, "compute_heavy", 1);
    b.annotate("RequestMapping");
    b.load(0).compute(2000000).pushI(5).mul().ret();
    vm::MethodId root = b.build();
    makeServer();

    Value result;
    sim::SimTime done_at;
    server->handleLocal(root, {Value::ofInt(8)}, [&](Value v) {
        result = v;
        done_at = sim.now();
    });
    sim.runUntil(sim::SimTime::sec(5));
    EXPECT_EQ(result.asInt(), 40);
    // ~2 ms of work (modulo warmup multiplier on a 0.92-speed core).
    EXPECT_GT(done_at.toMillis(), 1.9);
    EXPECT_LT(done_at.toMillis(), 40.0);
    EXPECT_EQ(server->stats().local_requests, 1u);
}

TEST_F(CoreTest, ConcurrentLocalRequestsShareTheCpu)
{
    vm::CodeBuilder b(program, node_k, "busy", 0);
    b.annotate("RequestMapping");
    b.compute(5000000).pushI(1).ret();
    vm::MethodId root = b.build();
    BeeHiveConfig cfg;
    cfg.server_vm.jit_threshold = 0; // no warmup, exact math
    makeServer(cfg);

    // 8 concurrent requests on 4 cores: ~2x the solo time.
    std::vector<double> done_ms;
    for (int i = 0; i < 8; ++i) {
        server->handleLocal(root, {}, [&](Value) {
            done_ms.push_back(sim.now().toMillis());
        });
    }
    sim.runUntil(sim::SimTime::sec(5));
    ASSERT_EQ(done_ms.size(), 8u);
    double solo = 5.0 / 0.92; // m4.xlarge speed factor
    for (double d : done_ms)
        EXPECT_NEAR(d, 2.0 * solo, solo * 0.25);
}

TEST_F(CoreTest, ProfilingRecordsCandidateExecutions)
{
    vm::CodeBuilder b(program, node_k, "profiled", 0);
    b.annotate("RequestMapping");
    b.newObj(node_k).popv().compute(3000000).pushI(0).ret();
    vm::MethodId root = b.build();
    makeServer();
    server->profiler().addCandidateAnnotation("RequestMapping");
    server->setProfiling(true);

    for (int i = 0; i < 5; ++i)
        server->handleLocal(root, {}, [](Value) {});
    sim.runUntil(sim::SimTime::sec(5));

    const vm::RootProfile *p = server->profiler().profile(root);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->invocations, 5u);
    EXPECT_GT(p->total_cost_ns, 5 * 3e6);
    EXPECT_TRUE(p->klasses.count(node_k));
}

TEST_F(CoreTest, DbCallFromServerRoutesThroughProxy)
{
    // A native that issues a DB put through the connection object.
    uint32_t nid = natives.add(
        "socketWrite0", vm::NativeCategory::Network,
        [](vm::VmContext &ctx, std::span<const Value> args) {
            vm::NativeResult r;
            DbCallPayload payload;
            payload.conn_ref = args[0].asRef();
            payload.conn_token = static_cast<uint64_t>(
                ctx.heap().field(args[0].asRef(), kSocketFieldToken)
                    .asInt());
            payload.request =
                db::Request(db::OpKind::Put, "t", args[1].asInt());
            payload.request.row.fields["body"] = "x";
            r.external = std::any(payload);
            return r;
        });
    vm::Klass sock;
    sock.name = "Sock";
    sock.fields = {"token"};
    vm::KlassId sock_k = program.addKlass(sock);
    vm::Method m;
    m.name = "write0";
    m.num_args = 2;
    m.is_native = true;
    m.native_id = nid;
    m.native_category = vm::NativeCategory::Network;
    vm::MethodId write0 = program.addMethod(sock_k, m);

    vm::CodeBuilder b(program, node_k, "dbreq", 1);
    b.load(0).pushI(42).call(write0).ret();
    vm::MethodId root = b.build();
    makeServer();

    proxy::ConnId conn = proxy.openConnection(server->endpoint());
    Ref sobj = server->heap().allocPlain(sock_k);
    server->heap().setField(
        sobj, kSocketFieldToken,
        Value::ofInt(static_cast<int64_t>(conn)));

    Value result;
    server->handleLocal(root, {Value::ofRef(sobj)},
                        [&](Value v) { result = v; });
    sim.runUntil(sim::SimTime::sec(5));
    EXPECT_EQ(result.asInt(), 1); // rows affected
    EXPECT_EQ(store.tableSize("t"), 1u);
    EXPECT_EQ(proxy.stats().requests_routed, 1u);
}

TEST_F(CoreTest, ServerRejectsProgramWithVerifierError)
{
    // Verify-on-load is the load-time gate: a program with one
    // Error finding (a pop from an empty operand stack) must never
    // reach the interpreter.
    vm::CodeBuilder b(program, node_k, "underflow", 0);
    b.popv().pushI(0).ret();
    b.build();
    EXPECT_DEATH(makeServer(), "rejected with 1 error\\(s\\)");
}

TEST_F(CoreTest, ServerGcKeepsMappingTableTargetsAlive)
{
    makeServer();
    Ref shared = server->heap().allocPlain(node_k);
    server->heap().setField(shared, 1, Value::ofInt(31));

    vm::Heap fn_heap(program, 1 << 20, 1 << 20);
    vm::VmConfig fcfg;
    fcfg.endpoint = 1;
    vm::VmContext fn_ctx(program, natives, fn_heap, fcfg);
    uint16_t fn_id = server->registerFunction(&fn_ctx,
                                              server->endpoint());
    server->mappingFor(fn_id).add(shared, 0x8888);

    // Garbage + GC: the shared object must survive and the table
    // must track its new address.
    for (int i = 0; i < 100; ++i)
        server->heap().allocPlain(node_k);
    server->runGc();

    Ref moved = server->mappingFor(fn_id).toServer(0x8888);
    ASSERT_NE(moved, vm::kNullRef);
    EXPECT_EQ(server->heap().field(moved, 1).asInt(), 31);
    EXPECT_EQ(server->collector().totals().collections, 1u);
}

/**
 * Property: under ANY interleaving of lock-protected increments
 * across many endpoints, release consistency preserves every
 * update (the counter equals the number of increments).
 */
class SyncInterleavingProperty
    : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(SyncInterleavingProperty, LockProtectedCountsAreExact)
{
    sim::Simulation sim(GetParam());
    net::Network net(GetParam());
    vm::Program program;
    vm::NativeRegistry natives;
    vm::Klass cell;
    cell.name = "Cell";
    cell.fields = {"count", "aux"};
    vm::KlassId cell_k = program.addKlass(cell);

    db::RecordStore store;
    proxy::ConnectionProxy proxy(store);
    cloud::Instance dbm(sim, net, cloud::m410XLarge(), "db", "db");
    cloud::Instance srv(sim, net, cloud::m4XLarge(), "srv", "vpc");
    BeeHiveConfig cfg;
    BeeHiveServer server(sim, net, program, natives, proxy,
                         dbm.endpoint(), srv, cfg);

    // Three shared counter cells on the server.
    constexpr int kCells = 3;
    vm::Ref server_cells[kCells];
    for (int c = 0; c < kCells; ++c) {
        server_cells[c] = server.heap().allocPlain(cell_k);
        server.heap().header(server_cells[c]).flags |=
            vm::kFlagShared;
        server.heap().setField(server_cells[c], 0,
                               vm::Value::ofInt(0));
    }

    // Four function endpoints, each with copies of all cells.
    constexpr int kFns = 4;
    std::vector<std::unique_ptr<vm::Heap>> heaps;
    std::vector<std::unique_ptr<vm::VmContext>> ctxs;
    uint16_t ids[kFns];
    vm::Ref local_cells[kFns][kCells];
    for (int f = 0; f < kFns; ++f) {
        heaps.push_back(std::make_unique<vm::Heap>(
            program, 1 << 20, 1 << 20));
        vm::VmConfig vcfg;
        vcfg.endpoint = static_cast<uint16_t>(f + 1);
        ctxs.push_back(std::make_unique<vm::VmContext>(
            program, natives, *heaps.back(), vcfg));
        ctxs.back()->loadAll();
        ids[f] = server.registerFunction(ctxs.back().get(),
                                         server.endpoint());
        for (int c = 0; c < kCells; ++c) {
            local_cells[f][c] = heaps[f]->cloneFrom(
                server.heap(), server_cells[c],
                vm::Heap::kClosureSpaceId);
            server.mappingFor(ids[f]).add(server_cells[c],
                                          local_cells[f][c]);
        }
    }

    // Random interleaving of increments: each op picks an
    // endpoint (0 = server) and a cell, acquires its monitor,
    // increments, releases. Grants are immediate (no sim delays),
    // so ops serialize exactly like same-thread lock use.
    Rng rng(GetParam() * 77 + 5);
    const int kOps = 400;
    int expected[kCells] = {0, 0, 0};
    for (int op = 0; op < kOps; ++op) {
        int who = static_cast<int>(rng.uniformInt(0, kFns));
        int c = static_cast<int>(rng.uniformInt(0, kCells - 1));
        int holder_token = op;
        if (who == 0) {
            bool granted = false;
            server.sync().acquireMonitor(
                0, &holder_token, server_cells[c],
                [&](const SyncManager::SyncResult &) {
                    granted = true;
                    int64_t v = server.heap()
                                    .field(server_cells[c], 0)
                                    .asInt();
                    server.heap().setField(server_cells[c], 0,
                                           vm::Value::ofInt(v + 1));
                });
            ASSERT_TRUE(granted);
            server.sync().releaseMonitor(0, &holder_token,
                                         server_cells[c]);
        } else {
            int f = who - 1;
            bool granted = false;
            server.sync().acquireMonitor(
                ids[f], &holder_token, local_cells[f][c],
                [&](const SyncManager::SyncResult &) {
                    granted = true;
                    int64_t v = heaps[f]->field(local_cells[f][c], 0)
                                    .asInt();
                    heaps[f]->setField(local_cells[f][c], 0,
                                       vm::Value::ofInt(v + 1));
                    server.sync().markDirty(ids[f],
                                            local_cells[f][c]);
                });
            ASSERT_TRUE(granted);
            server.sync().releaseMonitor(ids[f], &holder_token,
                                         local_cells[f][c]);
        }
        ++expected[c];
    }

    // Pull everything home: the server acquires each cell once.
    for (int c = 0; c < kCells; ++c) {
        int token = 10000 + c;
        server.sync().acquireMonitor(
            0, &token, server_cells[c],
            [](const SyncManager::SyncResult &) {});
        server.sync().releaseMonitor(0, &token, server_cells[c]);
        EXPECT_EQ(server.heap().field(server_cells[c], 0).asInt(),
                  expected[c])
            << "cell " << c << " seed " << GetParam();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SyncInterleavingProperty,
                         ::testing::Values(1, 2, 3, 7, 11, 42, 1234));

// ---------------------------------------------------------------------
// SyncPull: the flush-log replay against the log walk it replaced
// ---------------------------------------------------------------------

/**
 * A server heap with shared cells and three function heaps, each
 * holding copies of a subset of the cells, plus their mapping tables
 * and a server collector whose first roots are the cells (so two
 * worlds driven alike lay their survivors out alike).
 */
struct SyncWorld
{
    static constexpr int kFns = 3;

    SyncWorld(const vm::Program &program, vm::NativeRegistry &natives)
        : server_heap(program, 1 << 16, 1 << 18),
          server_ctx(program, natives, server_heap, vm::VmConfig{}),
          collector(server_heap)
    {
        server_ctx.loadAll();
        for (int f = 0; f < kFns; ++f) {
            fn_heaps.push_back(
                std::make_unique<vm::Heap>(program, 1 << 16, 1 << 16));
            vm::VmConfig cfg;
            cfg.endpoint = static_cast<uint16_t>(f + 1);
            fn_ctxs.push_back(std::make_unique<vm::VmContext>(
                program, natives, *fn_heaps.back(), cfg));
            fn_ctxs.back()->loadAll();
        }
        collector.addRefRoots([this](const auto &visit) {
            for (Ref &r : cells)
                visit(r);
            for (MappingTable &map : maps)
                map.forEachServerRef(visit);
        });
    }

    vm::Heap &heap(int e) { return e == 0 ? server_heap : *fn_heaps[e - 1]; }

    /** Endpoint @p e's copy of cell @p c (kNullRef: not shipped). */
    Ref copyOf(int e, int c) const
    {
        return e == 0 ? cells[c] : local[e - 1][c];
    }

    vm::Heap server_heap;
    vm::VmContext server_ctx;
    std::vector<std::unique_ptr<vm::Heap>> fn_heaps;
    std::vector<std::unique_ptr<vm::VmContext>> fn_ctxs;
    MappingTable maps[kFns];
    std::vector<Ref> cells;
    std::vector<Ref> local[kFns];
    gc::SemiSpaceCollector collector;
};

/**
 * The flush-log replay as it was before superseded marks: walk every
 * entry since the endpoint's last pull, apply an entry only when the
 * index names it its object's newest (latest == i + 1), and keep a
 * delivered set. Flushes and acquires follow SyncManager for what
 * this test drives (no promotion, no monitor queue).
 */
class LogWalkSync
{
  public:
    explicit LogWalkSync(SyncWorld &w) : w_(w)
    {
        w.collector.addRefRoots(
            [this](const auto &visit) { visitServerRefs(visit); });
    }

    void markDirty(uint16_t e, Ref local) { dirty_[e].insert(local); }

    SyncManager::SyncResult
    acquire(uint16_t e, Ref local)
    {
        SyncManager::SyncResult result;
        Ref server_ref = e == 0 ? local : w_.maps[e - 1].toServer(local);
        if (server_ref == vm::kNullRef)
            return result;
        auto it = owners_.find(server_ref);
        uint16_t prev = it == owners_.end() ? 0 : it->second;
        result.prev_owner = prev;
        if (prev == e)
            return result;
        ++stats_.remote_acquires;
        result.remote = true;
        flush(prev, result);
        pull(e, result);
        owners_[server_ref] = e;
        stats_.objects_transferred += result.objects_transferred;
        stats_.bytes_transferred += result.bytes_transferred;
        return result;
    }

    /** A monitor release publishes the releaser's writes. */
    void
    release(uint16_t e)
    {
        SyncManager::SyncResult publish;
        flush(e, publish);
    }

    const SyncManager::Stats &stats() const { return stats_; }

  private:
    template <typename Translate>
    static uint64_t
    copyState(vm::Heap &src_heap, Ref src, vm::Heap &dst_heap, Ref dst,
              Translate &&tr)
    {
        const vm::ObjHeader &src_hdr = src_heap.header(src);
        uint32_t n = std::min(src_hdr.count, dst_heap.header(dst).count);
        for (uint32_t i = 0; i < n; ++i)
            dst_heap.setFieldRaw(dst, i, tr(src_heap.field(src, i)));
        return src_hdr.size;
    }

    void
    logFlush(Ref server_ref)
    {
        log_.push_back(server_ref);
        latest_[server_ref] = log_.size();
    }

    void
    flush(uint16_t e, SyncManager::SyncResult &result)
    {
        std::set<Ref> queue;
        queue.swap(dirty_[e]);
        if (e == 0) {
            for (Ref r : queue)
                logFlush(r);
            return;
        }
        MappingTable &map = w_.maps[e - 1];
        auto translate = [&](Value v) -> Value {
            if (!v.isRef() || v.asRef() == vm::kNullRef ||
                vm::isRemote(v.asRef()))
                return v;
            Ref server_ref = map.toServer(v.asRef());
            if (server_ref == vm::kNullRef)
                ADD_FAILURE() << "the test never needs a promotion";
            return Value::ofRef(server_ref);
        };
        for (Ref local : queue) {
            Ref server_ref = map.toServer(local);
            if (server_ref == vm::kNullRef)
                continue;
            result.bytes_transferred += copyState(
                w_.heap(e), local, w_.server_heap, server_ref, translate);
            ++result.objects_transferred;
            logFlush(server_ref);
        }
    }

    void
    pull(uint16_t e, SyncManager::SyncResult &result)
    {
        std::size_t from = synced_upto_[e];
        synced_upto_[e] = log_.size();
        if (e == 0)
            return;
        MappingTable &map = w_.maps[e - 1];
        auto translate = [&](Value v) -> Value {
            if (!v.isRef() || v.asRef() == vm::kNullRef ||
                vm::isRemote(v.asRef()))
                return v;
            Ref local = map.toRemote(v.asRef());
            return Value::ofRef(local != vm::kNullRef
                                    ? local
                                    : vm::markRemote(v.asRef()));
        };
        std::set<Ref> delivered;
        for (std::size_t i = from; i < log_.size(); ++i) {
            Ref server_ref = log_[i];
            if (latest_[server_ref] != i + 1)
                continue;
            if (!delivered.insert(server_ref).second)
                continue;
            Ref local = map.toRemote(server_ref);
            if (local == vm::kNullRef || dirty_[e].count(local))
                continue;
            result.bytes_transferred += copyState(
                w_.server_heap, server_ref, w_.heap(e), local, translate);
            ++result.objects_transferred;
        }
    }

    template <typename Visit>
    void
    visitServerRefs(const Visit &visit)
    {
        std::vector<std::pair<Ref, uint16_t>> owners(owners_.begin(),
                                                     owners_.end());
        owners_.clear();
        for (auto &[ref, owner] : owners) {
            visit(ref);
            owners_[ref] = owner;
        }
        std::vector<Ref> dirty(dirty_[0].begin(), dirty_[0].end());
        dirty_[0].clear();
        for (Ref &r : dirty) {
            visit(r);
            dirty_[0].insert(r);
        }
        for (Ref &r : log_)
            visit(r);
        latest_.clear();
        for (std::size_t i = 0; i < log_.size(); ++i)
            latest_[log_[i]] = i + 1;
    }

    SyncWorld &w_;
    std::unordered_map<Ref, uint16_t> owners_;
    std::set<Ref> dirty_[SyncWorld::kFns + 1];
    std::size_t synced_upto_[SyncWorld::kFns + 1] = {};
    std::vector<Ref> log_;
    std::unordered_map<Ref, std::size_t> latest_;
    SyncManager::Stats stats_;
};

/**
 * Property: under random writes, publications (monitor releases,
 * republishing the same cells), acquires and server collections
 * across the server and three functions, SyncManager's replay
 * transfers exactly what the log walk does and leaves every copy on
 * every endpoint with the same fields.
 */
class SyncPullProperty : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(SyncPullProperty, ReplayMatchesTheLogWalk)
{
    vm::Program program;
    vm::NativeRegistry natives;
    vm::Klass cell;
    cell.name = "Cell";
    cell.fields = {"val", "link", "aux"};
    vm::KlassId cell_k = program.addKlass(cell);
    constexpr int kCells = 10;
    constexpr int kEndpoints = SyncWorld::kFns + 1;

    SyncWorld a(program, natives), b(program, natives);
    SyncManager sync;
    sync.registerServer(&a.server_ctx);
    for (int f = 0; f < SyncWorld::kFns; ++f) {
        sync.registerFunction(static_cast<uint16_t>(f + 1),
                              a.fn_ctxs[f].get(), &a.maps[f]);
    }
    a.collector.addRefRoots(
        [&](const auto &visit) { sync.forEachServerRef(visit); });
    LogWalkSync walk(b);

    Rng rng(GetParam() * 977 + 3);
    for (SyncWorld *w : {&a, &b}) {
        for (int c = 0; c < kCells; ++c) {
            Ref r = w->server_heap.allocPlain(cell_k);
            w->server_heap.header(r).flags |= vm::kFlagShared;
            w->server_heap.setFieldRaw(r, 0, Value::ofInt(c));
            w->cells.push_back(r);
        }
    }
    // Ship each cell to about two thirds of the functions.
    for (int f = 0; f < SyncWorld::kFns; ++f) {
        for (int c = 0; c < kCells; ++c) {
            bool ship = rng.uniformInt(0, 2) != 0;
            for (SyncWorld *w : {&a, &b}) {
                Ref local = vm::kNullRef;
                if (ship) {
                    local = w->fn_heaps[f]->cloneFrom(
                        w->server_heap, w->cells[c],
                        vm::Heap::kClosureSpaceId);
                    w->maps[f].add(w->cells[c], local);
                }
                w->local[f].push_back(local);
            }
        }
    }

    auto expect_same = [&](const SyncManager::SyncResult &x,
                           const SyncManager::SyncResult &y, int op) {
        EXPECT_EQ(x.prev_owner, y.prev_owner) << "op " << op;
        EXPECT_EQ(x.remote, y.remote) << "op " << op;
        EXPECT_EQ(x.objects_transferred, y.objects_transferred)
            << "op " << op;
        EXPECT_EQ(x.bytes_transferred, y.bytes_transferred)
            << "op " << op;
    };

    const int kOps = 400;
    int acquires = 0, collections = 0;
    for (int op = 0; op < kOps; ++op) {
        int64_t what = rng.uniformInt(0, 99);
        auto e = static_cast<uint16_t>(rng.uniformInt(0, kEndpoints - 1));
        int c = static_cast<int>(rng.uniformInt(0, kCells - 1));
        if (what >= 96) {
            a.collector.collect();
            b.collector.collect();
            ++collections;
        } else if (a.copyOf(e, c) == vm::kNullRef) {
            continue;
        } else if (what < 45) {
            // A write to the endpoint's copy: an int, or a link to
            // another cell's copy on the same endpoint (or nil).
            auto field = static_cast<uint32_t>(rng.uniformInt(0, 2));
            int target = static_cast<int>(rng.uniformInt(0, kCells - 1));
            int64_t n = rng.uniformInt(0, 999);
            for (SyncWorld *w : {&a, &b}) {
                Value v = Value::ofInt(n);
                if (field == 1) {
                    Ref t = w->copyOf(e, target);
                    v = t == vm::kNullRef ? Value::nil()
                                          : Value::ofRef(t);
                }
                w->heap(e).setFieldRaw(w->copyOf(e, c), field, v);
            }
            sync.markDirty(e, a.copyOf(e, c));
            walk.markDirty(e, b.copyOf(e, c));
        } else if (what < 70) {
            expect_same(sync.acquire(e, a.copyOf(e, c)),
                        walk.acquire(e, b.copyOf(e, c)), op);
            ++acquires;
        } else {
            // Acquire the monitor, then release it: the release
            // publishes the endpoint's writes (republishing cells).
            int token = op;
            SyncManager::SyncResult granted;
            sync.acquireMonitor(
                e, &token, a.copyOf(e, c),
                [&](const SyncManager::SyncResult &r) { granted = r; });
            sync.releaseMonitor(e, &token, a.copyOf(e, c));
            expect_same(granted, walk.acquire(e, b.copyOf(e, c)), op);
            walk.release(e);
            ++acquires;
        }

        ASSERT_EQ(sync.stats().remote_acquires,
                  walk.stats().remote_acquires) << "op " << op;
        ASSERT_EQ(sync.stats().objects_transferred,
                  walk.stats().objects_transferred) << "op " << op;
        ASSERT_EQ(sync.stats().bytes_transferred,
                  walk.stats().bytes_transferred) << "op " << op;
        for (int ep = 0; ep < kEndpoints; ++ep) {
            for (int k = 0; k < kCells; ++k) {
                Ref ra = a.copyOf(ep, k), rb = b.copyOf(ep, k);
                ASSERT_EQ(ra, rb);
                if (ra == vm::kNullRef)
                    continue;
                for (uint32_t i = 0; i < 3; ++i) {
                    ASSERT_EQ(a.heap(ep).field(ra, i),
                              b.heap(ep).field(rb, i))
                        << "op " << op << " endpoint " << ep
                        << " cell " << k << " field " << i;
                }
            }
        }
    }
    EXPECT_GT(acquires, 100);
    EXPECT_GT(collections, 0);
    EXPECT_GT(sync.stats().objects_transferred, 0u);
}

INSTANTIATE_TEST_SUITE_P(SyncPullSeeds, SyncPullProperty,
                         ::testing::Range<uint64_t>(1, 41));

TEST_F(CoreTest, MaterializeDbResponseShapes)
{
    makeServer();
    db::Request get(db::OpKind::Get, "t", 1);
    db::Response resp;
    resp.ok = true;
    db::Row row;
    row.id = 1;
    row.fields["body"] = "hello";
    resp.rows.push_back(db::Record::make(row.id, row));

    auto v = tryMaterializeDbResponse(server->context(), get, resp);
    ASSERT_TRUE(v.has_value());
    ASSERT_TRUE(v->isRef());
    vm::Heap &heap = server->heap();
    EXPECT_EQ(heap.count(v->asRef()), 1u);
    Ref cell = heap.elem(v->asRef(), 0).asRef();
    EXPECT_EQ(heap.bytes(cell), "1|body=hello");

    db::Request put(db::OpKind::Put, "t", 2);
    db::Response wr;
    wr.ok = true;
    wr.count = 1;
    auto n = tryMaterializeDbResponse(server->context(), put, wr);
    ASSERT_TRUE(n.has_value());
    EXPECT_EQ(n->asInt(), 1);
}

TEST_F(CoreTest, MaterializedRowWireFormatIsPinned)
{
    makeServer();
    db::Request scan(db::OpKind::Scan, "t", 0);
    db::Response resp;
    resp.ok = true;
    db::Row multi;
    multi.id = 42;
    // Inserted out of order: the wire follows the fields' key order.
    multi.fields["title"] = "t1";
    multi.fields["author"] = "ann";
    multi.fields["body"] = "x=y|z";
    resp.rows.push_back(db::Record::make(multi.id, multi));
    db::Row negative;
    negative.id = -9223372036854775807LL - 1;
    negative.fields["k"] = "v";
    resp.rows.push_back(db::Record::make(negative.id, negative));
    db::Row bare;
    bare.id = 0;
    resp.rows.push_back(db::Record::make(bare.id, bare));
    db::Row empties;
    empties.id = -7;
    empties.fields["a"] = "";
    empties.fields[""] = "";
    resp.rows.push_back(db::Record::make(empties.id, empties));

    auto v = tryMaterializeDbResponse(server->context(), scan, resp);
    ASSERT_TRUE(v.has_value());
    ASSERT_TRUE(v->isRef());
    vm::Heap &heap = server->heap();
    ASSERT_EQ(heap.count(v->asRef()), 4u);
    auto cell = [&](uint32_t i) {
        return std::string(heap.bytes(heap.elem(v->asRef(), i).asRef()));
    };
    EXPECT_EQ(cell(0), "42|author=ann|body=x=y|z|title=t1");
    EXPECT_EQ(cell(1), "-9223372036854775808|k=v");
    EXPECT_EQ(cell(2), "0");
    EXPECT_EQ(cell(3), "-7|=|a=");
}

TEST_F(CoreTest, BorrowedRowsPinReplacedRecordsUntilCollected)
{
    makeServer();
    for (int64_t id : {1, 2}) {
        db::Request put(db::OpKind::Put, "t", id);
        put.row.fields["body"] = std::string(200, 'a' + id);
        ASSERT_TRUE(store.execute(put).ok);
    }
    db::Request scan(db::OpKind::Scan, "t", 0);
    scan.limit = 2;
    db::Response resp = store.execute(scan);
    ASSERT_EQ(resp.rows.size(), 2u);
    db::RecordRef replaced = resp.rows[0], kept = resp.rows[1];
    std::string replaced_wire(replaced->wire());
    // The store's own handles (none once a Put replaces the record)
    // plus this test's.
    const long replaced_baseline = 1, kept_baseline = 2;

    auto materialized =
        tryMaterializeDbResponse(server->context(), scan, resp);
    ASSERT_TRUE(materialized.has_value());
    Value root = *materialized;
    resp.rows.clear();
    vm::Heap &heap = server->heap();
    Ref cell = heap.elem(root.asRef(), 0).asRef();
    ASSERT_TRUE(heap.header(cell).flags & vm::kFlagBorrowed);

    db::Request put(db::OpKind::Put, "t", 1);
    put.row.fields["body"] = "new";
    ASSERT_TRUE(store.execute(put).ok);
    EXPECT_EQ(replaced.use_count(), replaced_baseline + 1);

    server->collector().addValueRoots(
        [&](const auto &visit) { visit(root); });
    for (int cycle = 0; cycle < 2; ++cycle) {
        server->collector().collect();
        Ref moved = heap.elem(root.asRef(), 0).asRef();
        EXPECT_TRUE(heap.header(moved).flags & vm::kFlagBorrowed);
        EXPECT_EQ(heap.bytes(moved), replaced_wire) << "cycle " << cycle;
        EXPECT_EQ(heap.bytes(heap.elem(root.asRef(), 1).asRef()),
                  kept->wire());
    }
    EXPECT_EQ(replaced.use_count(), replaced_baseline + 1);

    root = Value::nil();
    server->collector().collect();
    server->collector().collect();
    EXPECT_EQ(replaced.use_count(), replaced_baseline);
    EXPECT_EQ(kept.use_count(), kept_baseline);
}

/**
 * Rows 1..n of table "t": every fourth one, from id 2, bare (a short
 * row, copied), the others with bodies long enough to be borrowed.
 */
void
putRows(db::RecordStore &store, int n)
{
    for (int64_t id = 1; id <= n; ++id) {
        db::Request put(db::OpKind::Put, "t", id);
        if (id % 4 != 2)
            put.row.fields["body"] =
                std::string(100 + 10 * id, static_cast<char>('a' + id % 26));
        ASSERT_TRUE(store.execute(put).ok);
    }
}

/** The bytes an object of @p payload bytes is charged. */
std::size_t
charge(std::size_t payload)
{
    return (sizeof(vm::ObjHeader) + payload + 7) & ~std::size_t{7};
}

/**
 * Scan "t" into @p ctx with room for the array and rows 0..k-1
 * only: the call fails where row-by-row allocation would and keeps
 * every handle in the response. A Put then replaces row k's record;
 * after @p collect the retry succeeds and every row reads the
 * record that was read.
 */
void
expectRetryAfterCollect(db::RecordStore &store, vm::VmContext &ctx,
                        const std::function<void()> &collect,
                        std::size_t k)
{
    SCOPED_TRACE(k);
    db::Request scan(db::OpKind::Scan, "t", 0);
    scan.limit = 8;
    db::Response resp = store.execute(scan);
    ASSERT_EQ(resp.rows.size(), 8u);
    const std::vector<db::RecordRef> read = resp.rows;

    vm::Heap &heap = ctx.heap();
    std::size_t room = charge(8 * sizeof(Value));
    for (std::size_t i = 0; i < k; ++i)
        room += charge(read[i]->wire().size());
    room += charge(read[k]->wire().size()) - 8;
    const vm::Space &space = heap.space(heap.allocSpaceId());
    std::size_t fill = space.capacity() - space.charged() - room;
    ASSERT_NE(heap.allocBytes(ctx.config().bytes_klass,
                              std::string(fill - sizeof(vm::ObjHeader),
                                          'f')),
              vm::kNullRef);
    uint64_t objects = heap.stats().objects_allocated;
    EXPECT_FALSE(tryMaterializeDbResponse(ctx, scan, resp).has_value());
    EXPECT_EQ(heap.stats().objects_allocated, objects + 1 + k);
    EXPECT_EQ(space.capacity() - space.charged(),
              charge(read[k]->wire().size()) - 8);
    for (std::size_t i = 0; i < read.size(); ++i)
        EXPECT_EQ(resp.rows[i], read[i]) << i;

    db::Request put(db::OpKind::Put, "t", read[k]->id());
    put.row.fields["body"] = "replaced between the read and the retry";
    ASSERT_TRUE(store.execute(put).ok);
    collect();
    std::optional<Value> v = tryMaterializeDbResponse(ctx, scan, resp);
    ASSERT_TRUE(v.has_value());
    ASSERT_EQ(heap.count(v->asRef()), read.size());
    for (uint32_t i = 0; i < read.size(); ++i) {
        EXPECT_EQ(heap.bytes(heap.elem(v->asRef(), i).asRef()),
                  read[i]->wire())
            << i;
    }
}

TEST_F(CoreTest, ServerMaterializationRetriesWhereRowByRowWould)
{
    BeeHiveConfig cfg;
    cfg.server_alloc_bytes = 1u << 20;
    makeServer(cfg);
    putRows(store, 8);
    // The first row, a short (copied) row, and a later long row.
    for (std::size_t k : {0, 1, 6}) {
        expectRetryAfterCollect(store, server->context(),
                                [&] { server->runGc(); }, k);
    }
}

TEST_F(CoreTest, FunctionMaterializationRetriesWhereRowByRowWould)
{
    BeeHiveConfig cfg;
    cfg.function_alloc_bytes = 1u << 20;
    makeServer(cfg);
    putRows(store, 8);
    cloud::FaasPlatform platform(sim, net, cloud::openWhiskProfile());
    cloud::FunctionInstance *inst = nullptr;
    platform.acquire([&](cloud::FunctionInstance &i) { inst = &i; });
    sim.runUntil(sim::SimTime::sec(5));
    ASSERT_NE(inst, nullptr);
    FunctionStats stats;
    BeeHiveFunction fn(*server, platform, *inst, stats);
    for (std::size_t k : {2, 5, 7}) {
        expectRetryAfterCollect(store, fn.context(),
                                [&] { fn.collector().collect(); }, k);
    }
}

TEST_F(CoreTest, MaterializationFiresNoWriteObserver)
{
    makeServer();
    putRows(store, 40);
    db::Request scan(db::OpKind::Scan, "t", 0);
    scan.limit = 40;
    db::Response resp = store.execute(scan);
    ASSERT_EQ(resp.rows.size(), 40u);
    vm::Heap &heap = server->heap();

    // Under the server's own observer, sync dirty tracking sees no
    // materialised array.
    std::size_t dirty = server->sync().dirtyCount(0);
    ASSERT_TRUE(tryMaterializeDbResponse(server->context(), scan, resp)
                    .has_value());
    EXPECT_EQ(server->sync().dirtyCount(0), dirty);

    int calls = 0;
    heap.setWriteObserver([&](Ref) { ++calls; });
    resp = store.execute(scan);
    auto materialized =
        tryMaterializeDbResponse(server->context(), scan, resp);
    ASSERT_TRUE(materialized.has_value());
    Value v = *materialized;
    ASSERT_EQ(heap.count(v.asRef()), 40u);
    EXPECT_EQ(calls, 0);
    // An ordinary store into the same array is observed.
    heap.setElem(v.asRef(), 0, Value::nil());
    EXPECT_EQ(calls, 1);
}

} // namespace
} // namespace beehive::core
