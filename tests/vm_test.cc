/**
 * @file
 * Unit tests for the HiveVM managed runtime: program metadata, heap,
 * code builder, and the steppable interpreter.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "vm/code_builder.h"
#include "vm/context.h"
#include "vm/heap.h"
#include "vm/interpreter.h"
#include "vm/natives.h"
#include "vm/profiler.h"
#include "support/rng.h"
#include "vm/program.h"
#include "vm/ref_table.h"
#include "vm/value.h"

namespace beehive::vm {
namespace {

/** Fixture wiring a Program + registry + heap + context together. */
class VmTest : public ::testing::Test
{
  protected:
    VmTest()
    {
        Klass obj;
        obj.name = "Object";
        object_k = program.addKlass(obj);

        Klass bytes;
        bytes.name = "Bytes";
        bytes_k = program.addKlass(bytes);

        Klass arr;
        arr.name = "Array";
        array_k = program.addKlass(arr);

        Klass point;
        point.name = "Point";
        point.fields = {"x", "y"};
        point_k = program.addKlass(point);

        Klass counter;
        counter.name = "Counter";
        counter.fields = {"value"};
        counter.statics = {"instances"};
        counter_k = program.addKlass(counter);
    }

    /** Create a context after all klasses/methods are defined. */
    VmContext &
    makeContext(VmConfig config = {})
    {
        config.bytes_klass = bytes_k;
        config.array_klass = array_k;
        heap = std::make_unique<Heap>(program, 1 << 20, 1 << 20);
        ctx = std::make_unique<VmContext>(program, natives, *heap,
                                          config);
        ctx->loadAll();
        return *ctx;
    }

    /** Run a started interpreter to completion, resolving nothing. */
    Value
    runToCompletion(Interpreter &interp)
    {
        while (true) {
            Suspend s = interp.run();
            switch (s.kind) {
              case Suspend::Kind::Done:
                return s.result;
              case Suspend::Kind::Quantum:
                continue;
              default:
                ADD_FAILURE() << "unexpected suspend kind "
                              << static_cast<int>(s.kind);
                return Value::nil();
            }
        }
    }

    Value
    callMethod(MethodId m, std::vector<Value> args = {})
    {
        Interpreter interp(*ctx);
        interp.start(m, std::move(args));
        return runToCompletion(interp);
    }

    Program program;
    NativeRegistry natives;
    std::unique_ptr<Heap> heap;
    std::unique_ptr<VmContext> ctx;
    KlassId object_k, bytes_k, array_k, point_k, counter_k;
};

// ---------------------------------------------------------------------
// Program metadata
// ---------------------------------------------------------------------

TEST_F(VmTest, KlassLookupByName)
{
    EXPECT_EQ(program.findKlass("Point"), point_k);
    EXPECT_EQ(program.findKlass("Nope"), kNoKlass);
    EXPECT_EQ(program.klass(point_k).fields.size(), 2u);
}

TEST_F(VmTest, MethodLookupByQualifiedName)
{
    CodeBuilder b(program, point_k, "norm", 1);
    b.pushI(0).ret();
    MethodId id = b.build();
    EXPECT_EQ(program.findMethod("Point.norm"), id);
    EXPECT_EQ(program.findMethod("Point.nothere"), kNoMethod);
    EXPECT_EQ(program.method(id).owner, point_k);
}

TEST_F(VmTest, FieldCountIncludesInheritedFields)
{
    Klass sub;
    sub.name = "Point3";
    sub.super = point_k;
    sub.fields = {"z"};
    KlassId sub_k = program.addKlass(sub);
    EXPECT_EQ(program.fieldCount(sub_k), 3u);
    EXPECT_EQ(program.fieldCount(point_k), 2u);
}

TEST_F(VmTest, VirtualResolutionWalksSuperChain)
{
    CodeBuilder base(program, point_k, "describe", 1);
    base.pushI(1).ret();
    MethodId base_m = base.build();

    Klass sub;
    sub.name = "FancyPoint";
    sub.super = point_k;
    KlassId sub_k = program.addKlass(sub);

    NameId name = program.internName("describe");
    EXPECT_EQ(program.resolveVirtual(sub_k, name), base_m);

    CodeBuilder over(program, sub_k, "describe", 1);
    over.pushI(2).ret();
    MethodId over_m = over.build();
    EXPECT_EQ(program.resolveVirtual(sub_k, name), over_m);
    EXPECT_EQ(program.resolveVirtual(point_k, name), base_m);
}

TEST_F(VmTest, AnnotationQueries)
{
    CodeBuilder b(program, point_k, "handler", 0);
    b.annotate("RequestMapping").pushI(0).ret();
    MethodId id = b.build();
    EXPECT_TRUE(program.method(id).hasAnnotation("RequestMapping"));
    EXPECT_FALSE(program.method(id).hasAnnotation("Autowired"));
    auto found = program.methodsWithAnnotation("RequestMapping");
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0], id);
}

TEST_F(VmTest, StringInterningDeduplicates)
{
    uint32_t a = program.internString("hello");
    uint32_t b = program.internString("hello");
    uint32_t c = program.internString("world");
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_EQ(program.stringAt(c), "world");
}

// ---------------------------------------------------------------------
// Reference encoding
// ---------------------------------------------------------------------

TEST(RefEncoding, RoundTripsSpaceAndOffset)
{
    Ref r = makeRef(2, 0x12345);
    EXPECT_EQ(refSpace(r), 2);
    EXPECT_EQ(refOffset(r), 0x12345u);
    EXPECT_FALSE(isRemote(r));
}

TEST(RefEncoding, RemoteBitIsMsb)
{
    Ref r = makeRef(1, 64);
    Ref remote = markRemote(r);
    EXPECT_TRUE(isRemote(remote));
    EXPECT_EQ(stripRemote(remote), r);
    EXPECT_EQ(refSpace(remote), 1);
    EXPECT_EQ(refOffset(remote), 64u);
}

TEST(ValueTest, TaggedAccessorsRoundTrip)
{
    EXPECT_EQ(Value::ofInt(-7).asInt(), -7);
    EXPECT_DOUBLE_EQ(Value::ofFloat(2.5).asFloat(), 2.5);
    EXPECT_EQ(Value::ofRef(makeRef(1, 8)).asRef(), makeRef(1, 8));
    EXPECT_TRUE(Value::nil().isNil());
}

TEST(ValueTest, Truthiness)
{
    EXPECT_FALSE(Value::nil().truthy());
    EXPECT_FALSE(Value::ofInt(0).truthy());
    EXPECT_TRUE(Value::ofInt(1).truthy());
    EXPECT_FALSE(Value::ofFloat(0.0).truthy());
    EXPECT_TRUE(Value::ofFloat(0.5).truthy());
    EXPECT_FALSE(Value::ofRef(kNullRef).truthy());
    EXPECT_TRUE(Value::ofRef(makeRef(1, 8)).truthy());
}

// ---------------------------------------------------------------------
// Heap
// ---------------------------------------------------------------------

TEST_F(VmTest, AllocPlainInitialisesFieldsToNil)
{
    makeContext();
    Ref r = heap->allocPlain(point_k);
    ASSERT_NE(r, kNullRef);
    EXPECT_EQ(heap->header(r).count, 2u);
    EXPECT_TRUE(heap->field(r, 0).isNil());
    EXPECT_TRUE(heap->field(r, 1).isNil());
}

TEST_F(VmTest, FieldStoreAndLoad)
{
    makeContext();
    Ref r = heap->allocPlain(point_k);
    heap->setField(r, 0, Value::ofInt(11));
    heap->setField(r, 1, Value::ofFloat(0.5));
    EXPECT_EQ(heap->field(r, 0).asInt(), 11);
    EXPECT_DOUBLE_EQ(heap->field(r, 1).asFloat(), 0.5);
}

TEST_F(VmTest, ArraysHoldTaggedSlots)
{
    makeContext();
    Ref arr = heap->allocArray(array_k, 5);
    EXPECT_EQ(heap->count(arr), 5u);
    heap->setElem(arr, 4, Value::ofInt(99));
    EXPECT_EQ(heap->elem(arr, 4).asInt(), 99);
    EXPECT_TRUE(heap->elem(arr, 0).isNil());
}

TEST_F(VmTest, BytesObjectsStorePayload)
{
    makeContext();
    Ref b = heap->allocBytes(bytes_k, "beehive");
    EXPECT_EQ(heap->bytes(b), "beehive");
    EXPECT_EQ(heap->count(b), 7u);
}

TEST_F(VmTest, ClosureSpaceAllocationsLandInSpaceZero)
{
    makeContext();
    Ref c = heap->allocPlain(point_k, /*in_closure=*/true);
    Ref a = heap->allocPlain(point_k, /*in_closure=*/false);
    EXPECT_EQ(refSpace(c), Heap::kClosureSpaceId);
    EXPECT_EQ(refSpace(a), heap->allocSpaceId());
}

TEST_F(VmTest, AllocationFailsGracefullyWhenSpaceExhausted)
{
    makeContext();
    Heap tiny(program, 4096, 256);
    Ref first = tiny.allocPlain(point_k);
    EXPECT_NE(first, kNullRef);
    // Exhaust the 256-byte semispace.
    Ref r = first;
    int allocated = 1;
    while ((r = tiny.allocPlain(point_k)) != kNullRef)
        ++allocated;
    EXPECT_GE(allocated, 1);
    EXPECT_EQ(r, kNullRef);
}

TEST_F(VmTest, CardMarkedOnClosureToAllocStore)
{
    makeContext();
    Ref closure_obj = heap->allocPlain(point_k, true);
    Ref young = heap->allocPlain(point_k, false);
    EXPECT_EQ(heap->cards().dirtyCount(), 0u);
    heap->setField(closure_obj, 0, Value::ofRef(young));
    EXPECT_EQ(heap->cards().dirtyCount(), 1u);
}

TEST_F(VmTest, CardNotMarkedForClosureInternalStores)
{
    makeContext();
    Ref a = heap->allocPlain(point_k, true);
    Ref b = heap->allocPlain(point_k, true);
    heap->setField(a, 0, Value::ofRef(b));
    heap->setField(a, 1, Value::ofInt(3));
    EXPECT_EQ(heap->cards().dirtyCount(), 0u);
}

TEST_F(VmTest, WriteObserverFiresOnEveryStore)
{
    makeContext();
    int fires = 0;
    heap->setWriteObserver([&](Ref) { ++fires; });
    Ref r = heap->allocPlain(point_k);
    heap->setField(r, 0, Value::ofInt(1));
    heap->setField(r, 1, Value::ofInt(2));
    EXPECT_EQ(fires, 2);
}

TEST_F(VmTest, ForEachObjectWalksAllocationOrder)
{
    makeContext();
    Ref a = heap->allocPlain(point_k);
    Ref b = heap->allocArray(array_k, 3);
    Ref c = heap->allocBytes(bytes_k, "xy");
    std::vector<Ref> seen;
    heap->forEachObject(heap->allocSpaceId(),
                        [&](Ref r) { seen.push_back(r); });
    ASSERT_EQ(seen.size(), 3u);
    EXPECT_EQ(seen[0], a);
    EXPECT_EQ(seen[1], b);
    EXPECT_EQ(seen[2], c);
}

TEST_F(VmTest, HeapStatsTrackAllocations)
{
    makeContext();
    heap->allocPlain(point_k);
    heap->allocBytes(bytes_k, "0123456789");
    EXPECT_EQ(heap->stats().objects_allocated, 2u);
    EXPECT_GT(heap->stats().bytes_allocated, 0u);
    EXPECT_GE(heap->stats().peak_used, heap->usedBytes() - 16);
}

TEST_F(VmTest, FittingRequestsStillFailSoftWhenSpaceIsFull)
{
    makeContext();
    Heap tiny(program, 4096, 256);
    while (tiny.allocPlain(point_k) != kNullRef) {
    }
    // 8 slots fit the empty semispace, so a GC could make room: the
    // caller sees kNullRef (HeapFull), not a panic.
    EXPECT_EQ(tiny.allocArray(array_k, 8), kNullRef);
    EXPECT_TRUE(tiny.allocWouldFail(8));
}

TEST_F(VmTest, ObjectsThatCanNeverFitPanic)
{
    makeContext();
    // 2^29 slots are 8 GiB, which wraps to 0 in 32 bits: a narrowed
    // size would carve out a header-only object and nil-fill past it.
    EXPECT_DEATH(heap->allocArray(array_k, uint64_t{1} << 29),
                 "object of 8589934592 payload bytes \\(count 536870912\\) "
                 "can never fit in heap space 1");
    // As many slots as the whole semispace has bytes / sizeof(Value).
    EXPECT_DEATH(heap->allocArray(array_k, (1 << 20) / sizeof(Value)),
                 "can never fit in heap space 1 of 1048576 bytes");
    EXPECT_DEATH(heap->allocArray(array_k, ~uint64_t{0}, true),
                 "can never fit in heap space 0");
    EXPECT_DEATH(heap->allocBytes(bytes_k, std::string(2 << 20, 'x')),
                 "object of 2097152 payload bytes");
}

TEST_F(VmTest, NewArrLengthIsNotTruncated)
{
    CodeBuilder b(program, object_k, "huge_array", 0);
    b.pushI((int64_t{1} << 32) + 5).newArr(array_k).arrLen().ret();
    MethodId m = b.build();
    makeContext();
    // Narrowed to 32 bits, a 2^32+5 length would be a 5-slot array.
    EXPECT_DEATH(callMethod(m),
                 "object of 68719476816 payload bytes "
                 "\\(count 4294967301\\) can never fit");
}

// ---------------------------------------------------------------------
// Heap arenas: lazily committed anonymous mappings
// ---------------------------------------------------------------------

static_assert(!std::is_copy_constructible_v<Space> &&
                  !std::is_copy_assignable_v<Space>,
              "a Space owns its mapping");
static_assert(std::is_nothrow_move_constructible_v<Space>,
              "a Space moves its mapping");

/** Default function-VM space size (BeeHiveConfig::function_*_bytes). */
constexpr std::size_t kFunctionSpaceBytes = 6u << 20;

TEST_F(VmTest, FreshArenasReadZeroAtBothEnds)
{
    makeContext();
    const uint8_t ids[] = {Heap::kClosureSpaceId, Heap::kAllocAId,
                           Heap::kAllocBId};
    Heap fresh(program, kFunctionSpaceBytes, kFunctionSpaceBytes);
    for (uint8_t id : ids) {
        const Space &s = fresh.space(id);
        EXPECT_EQ(*s.at(Space::firstOffset()), 0u) << "space " << int(id);
        EXPECT_EQ(*s.at(s.capacity() - 1), 0u) << "space " << int(id);
    }

    // Allocate, reset and allocate again in every space: the new
    // object is fully initialised and the untouched tail of the arena
    // still reads zero.
    for (uint8_t id : ids) {
        Space &s = fresh.space(id);
        ASSERT_NE(s.alloc(64), 0u);
        s.reset();
        bool closure = id == Heap::kClosureSpaceId;
        if (!closure && id != fresh.allocSpaceId())
            fresh.flipAllocSpace();
        Ref r = fresh.allocPlain(point_k, closure);
        ASSERT_EQ(r, makeRef(id, Space::firstOffset()));
        EXPECT_TRUE(fresh.field(r, 0).isNil()) << "space " << int(id);
        EXPECT_TRUE(fresh.field(r, 1).isNil()) << "space " << int(id);
        EXPECT_EQ(*s.at(s.capacity() - 1), 0u) << "space " << int(id);
    }
}

TEST(SpaceTest, MoveTransfersTheMapping)
{
    Space a(Heap::kAllocAId, 1 << 16);
    uint64_t off = a.alloc(16);
    *a.at(off) = 7;
    Space b(std::move(a));
    EXPECT_EQ(b.capacity(), std::size_t{1} << 16);
    EXPECT_EQ(b.used(), Space::firstOffset() + 16);
    EXPECT_EQ(*b.at(off), 7u);
    Space c(Heap::kAllocBId, 1 << 12);
    c = std::move(b);
    EXPECT_EQ(*c.at(off), 7u);
    EXPECT_EQ(c.id(), Heap::kAllocAId);
}

TEST(SpaceTest, UnmappableCapacityPanicsWithTheSize)
{
    EXPECT_DEATH(Space(Heap::kAllocAId, std::size_t{1} << 62),
                 "cannot map 4611686018427387904 bytes for heap space 1");
}

/** Byte @p j of the @p i-th allocation of a cycled-frontier run. */
uint8_t
cycledByte(std::size_t i, std::size_t j)
{
    return static_cast<uint8_t>(i * 131 + j * 7 + 1);
}

/**
 * Allocate @p s to exhaustion with a fixed request sequence, fill
 * the tail so the objects reach the last byte of capacity, and
 * write a pattern into every object. @return the offsets, the
 * tail's last.
 */
std::vector<uint64_t>
fillCycled(Space &s)
{
    std::vector<uint64_t> offsets;
    for (std::size_t i = 0;; ++i) {
        uint32_t bytes = static_cast<uint32_t>(24 + (i * 37) % 3000);
        uint64_t off = s.alloc(bytes);
        if (off == 0)
            break;
        offsets.push_back(off);
    }
    uint64_t tail = s.alloc(static_cast<uint32_t>(s.capacity() - s.used()));
    EXPECT_NE(tail, 0u);
    offsets.push_back(tail);
    EXPECT_EQ(s.used(), s.capacity());
    for (std::size_t i = 0; i < offsets.size(); ++i) {
        uint64_t end = i + 1 < offsets.size() ? offsets[i + 1]
                                              : s.capacity();
        for (uint64_t b = offsets[i]; b < end; ++b)
            *s.at(b) = cycledByte(i, b - offsets[i]);
    }
    return offsets;
}

TEST(SpaceTest, CycledFrontierReplaysOffsetsAndKeepsObjects)
{
    Space s(Heap::kAllocAId, 1 << 20);
    std::vector<uint64_t> first = fillCycled(s);

    s.reset();
    std::vector<uint64_t> second = fillCycled(s);
    EXPECT_EQ(second, first) << "a cycled space moved an object";

    bool intact = true;
    for (std::size_t i = 0; i < second.size() && intact; ++i) {
        uint64_t end = i + 1 < second.size() ? second[i + 1]
                                             : s.capacity();
        for (uint64_t b = second[i]; b < end; ++b) {
            if (*s.at(b) != cycledByte(i, b - second[i])) {
                ADD_FAILURE() << "object " << i << " differs at " << b;
                intact = false;
                break;
            }
        }
    }
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kShadowMemory = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kShadowMemory = true;
#else
constexpr bool kShadowMemory = false;
#endif
#else
constexpr bool kShadowMemory = false;
#endif

/** This process's resident set in KiB, from /proc/self/status. */
long
residentKiB()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmRSS:", 0) == 0)
            return std::stol(line.substr(6));
    }
    return -1;
}

TEST_F(VmTest, FunctionSizedHeapsCostOnlyTouchedPages)
{
#ifndef __linux__
    GTEST_SKIP() << "VmRSS comes from Linux /proc";
#endif
    if (kShadowMemory)
        GTEST_SKIP() << "sanitizer shadow memory distorts RSS";
    makeContext();
    long before = residentKiB();
    ASSERT_GT(before, 0);
    // 64 function VMs reserve 64 x 18 MB = 1152 MB of arenas; each
    // touches a closure object and an allocation-space object.
    std::vector<std::unique_ptr<Heap>> heaps;
    for (int i = 0; i < 64; ++i) {
        heaps.push_back(std::make_unique<Heap>(
            program, kFunctionSpaceBytes, kFunctionSpaceBytes));
        ASSERT_NE(heaps.back()->allocPlain(point_k, true), kNullRef);
        ASSERT_NE(heaps.back()->allocArray(array_k, 64), kNullRef);
    }
    long grown_kib = residentKiB() - before;
    EXPECT_LT(grown_kib, 32 * 1024)
        << "64 function-sized heaps grew RSS by " << grown_kib << " KiB";
}

TEST(SpaceTest, CycledSpaceCostsOnlyItsHighWaterMark)
{
#ifndef __linux__
    GTEST_SKIP() << "VmRSS comes from Linux /proc";
#endif
    if (kShadowMemory)
        GTEST_SKIP() << "sanitizer shadow memory distorts RSS";
    constexpr std::size_t kMark = 8u << 20;
    Space s(Heap::kAllocAId, 64u << 20);
    long before = residentKiB();
    ASSERT_GT(before, 0);
    // Write up to the mark, reset and write again: every cycle after
    // the first reuses the pages the first one committed.
    for (int cycle = 0; cycle < 4; ++cycle) {
        while (s.used() + 4096 <= kMark) {
            uint64_t off = s.alloc(4096);
            ASSERT_NE(off, 0u);
            std::memset(s.at(off), cycle + 1, 4096);
        }
        s.reset();
    }
    long grown_kib = residentKiB() - before;
    EXPECT_LT(grown_kib, static_cast<long>(kMark / 1024) + 4 * 1024)
        << "cycling a 64 MiB space through 8 MiB grew RSS by "
        << grown_kib << " KiB";
}

TEST_F(VmTest, BorrowedRowsKeepACycledServerHeapSmall)
{
#ifndef __linux__
    GTEST_SKIP() << "VmRSS comes from Linux /proc";
#endif
    if (kShadowMemory)
        GTEST_SKIP() << "sanitizer shadow memory distorts RSS";
    constexpr std::size_t kSemispace = 32u << 20; // server_alloc_bytes
    auto row = std::make_shared<const std::string>(620, 'r');
    Heap heap(program, 4u << 20, kSemispace);
    long before = residentKiB();
    ASSERT_GT(before, 0);
    // Fill the active semispace with blog-sized 44-row Scans until it
    // is exhausted, then drop it as a collection with nothing live
    // would: each cycle charges 32 MiB but touches only headers and
    // arrays.
    constexpr std::size_t kScanRows = 44;
    for (int cycle = 0; cycle < 6; ++cycle) {
        std::size_t rows = 0;
        while (true) {
            std::vector<std::shared_ptr<const std::string>> resp(kScanRows,
                                                                 row);
            if (heap.allocRowArray(array_k, bytes_k, std::span(resp),
                                   [](const std::string &r) {
                                       return std::string_view(r);
                                   }) == kNullRef) {
                break;
            }
            rows += kScanRows;
        }
        ASSERT_GT(rows, kSemispace / 700);
        heap.space(heap.allocSpaceId()).reset();
        heap.flipAllocSpace();
    }
    EXPECT_EQ(row.use_count(), 1) << "a flip kept its pins";
    long grown_kib = residentKiB() - before;
    EXPECT_LT(grown_kib, 8 * 1024)
        << "cycling 32 MiB semispaces of borrowed rows grew RSS by "
        << grown_kib << " KiB";
}

// ---------------------------------------------------------------------
// Interpreter: arithmetic and control flow
// ---------------------------------------------------------------------

TEST_F(VmTest, ArithmeticOnInts)
{
    CodeBuilder b(program, object_k, "calc", 0);
    // (7 + 3) * 2 - 5 = 15
    b.pushI(7).pushI(3).add().pushI(2).mul().pushI(5).sub().ret();
    MethodId m = b.build();
    makeContext();
    EXPECT_EQ(callMethod(m).asInt(), 15);
}

TEST_F(VmTest, DivModSemantics)
{
    CodeBuilder b(program, object_k, "divmod", 2);
    b.load(0).load(1).div().load(0).load(1).mod().add().ret();
    MethodId m = b.build();
    makeContext();
    // 17/5 + 17%5 = 3 + 2 = 5
    EXPECT_EQ(callMethod(m, {Value::ofInt(17), Value::ofInt(5)}).asInt(),
              5);
    // Division by zero yields 0 by definition.
    EXPECT_EQ(callMethod(m, {Value::ofInt(17), Value::ofInt(0)}).asInt(),
              0);
}

TEST_F(VmTest, FloatPromotion)
{
    CodeBuilder b(program, object_k, "favg", 0);
    b.pushI(1).pushF(2.0).add().pushF(2.0).div().ret();
    MethodId m = b.build();
    makeContext();
    EXPECT_DOUBLE_EQ(callMethod(m).asFloat(), 1.5);
}

TEST_F(VmTest, ComparisonsAndLogic)
{
    CodeBuilder b(program, object_k, "logic", 0);
    // (3 < 5) && !(2 >= 4)  -> 1
    b.pushI(3).pushI(5).cmpLt()
     .pushI(2).pushI(4).cmpGe().logNot()
     .logAnd().ret();
    MethodId m = b.build();
    makeContext();
    EXPECT_EQ(callMethod(m).asInt(), 1);
}

TEST_F(VmTest, LoopComputesSum)
{
    // sum 1..n via a loop.
    CodeBuilder b(program, object_k, "sum", 1);
    b.locals(1);
    auto loop = b.newLabel(), done = b.newLabel();
    b.pushI(0).store(1)
     .bind(loop)
     .load(0).pushI(0).cmpLe().jnz(done)
     .load(1).load(0).add().store(1)
     .load(0).pushI(1).sub().store(0)
     .jmp(loop)
     .bind(done)
     .load(1).ret();
    MethodId m = b.build();
    makeContext();
    EXPECT_EQ(callMethod(m, {Value::ofInt(100)}).asInt(), 5050);
}

TEST_F(VmTest, StackManipulationOps)
{
    CodeBuilder b(program, object_k, "stackops", 0);
    // push 1,2; swap -> 2,1; dup -> 2,1,1; add -> 2,2; sub -> 0
    b.pushI(1).pushI(2).swap().dup().add().sub().ret();
    MethodId m = b.build();
    makeContext();
    EXPECT_EQ(callMethod(m).asInt(), 0);
}

// ---------------------------------------------------------------------
// Interpreter: objects, fields, arrays, statics
// ---------------------------------------------------------------------

TEST_F(VmTest, ObjectCreateSetGet)
{
    CodeBuilder b(program, object_k, "mkpoint", 0);
    b.locals(1);
    b.newObj(point_k).store(0)
     .load(0).pushI(4).putField(0)
     .load(0).pushI(38).putField(1)
     .load(0).getField(0)
     .load(0).getField(1)
     .add().ret();
    MethodId m = b.build();
    makeContext();
    EXPECT_EQ(callMethod(m).asInt(), 42);
}

TEST_F(VmTest, ArrayFillAndSum)
{
    CodeBuilder b(program, object_k, "arrsum", 1);
    b.locals(3); // arr, i, acc
    auto fill = b.newLabel(), fdone = b.newLabel();
    auto sum = b.newLabel(), sdone = b.newLabel();
    b.load(0).newArr(array_k).store(1)
     .pushI(0).store(2);
    // locals: 0=n,1=arr,2=i,3=acc
    b.bind(fill)
     .load(2).load(0).cmpGe().jnz(fdone)
     .load(1).load(2).load(2).astore() // arr[i] = i
     .load(2).pushI(1).add().store(2)
     .jmp(fill)
     .bind(fdone)
     .pushI(0).store(2).pushI(0).store(3)
     .bind(sum)
     .load(2).load(0).cmpGe().jnz(sdone)
     .load(3).load(1).load(2).aload().add().store(3)
     .load(2).pushI(1).add().store(2)
     .jmp(sum)
     .bind(sdone)
     .load(3).ret();
    MethodId m = b.build();
    makeContext();
    EXPECT_EQ(callMethod(m, {Value::ofInt(10)}).asInt(), 45);
}

TEST_F(VmTest, ArrLenAndBytesLen)
{
    CodeBuilder b(program, object_k, "lens", 0);
    b.pushI(7).newArr(array_k).arrLen()
     .pushStr("abcde").bytesLen().add().ret();
    MethodId m = b.build();
    makeContext();
    EXPECT_EQ(callMethod(m).asInt(), 12);
}

TEST_F(VmTest, StaticsPersistAcrossInvocations)
{
    CodeBuilder b(program, counter_k, "bump", 0);
    b.getStatic(counter_k, 0).pushI(1).add()
     .dup().putStatic(counter_k, 0).ret();
    MethodId m = b.build();
    makeContext();
    ctx->setStatic(counter_k, 0, Value::ofInt(0));
    EXPECT_EQ(callMethod(m).asInt(), 1);
    EXPECT_EQ(callMethod(m).asInt(), 2);
    EXPECT_EQ(ctx->getStatic(counter_k, 0).asInt(), 2);
}

// ---------------------------------------------------------------------
// Interpreter: calls
// ---------------------------------------------------------------------

TEST_F(VmTest, StaticCallPassesArgsAndReturns)
{
    CodeBuilder callee(program, object_k, "mul3", 1);
    callee.load(0).pushI(3).mul().ret();
    MethodId mul3 = callee.build();

    CodeBuilder caller(program, object_k, "callsite", 1);
    caller.load(0).call(mul3).pushI(1).add().ret();
    MethodId m = caller.build();
    makeContext();
    EXPECT_EQ(callMethod(m, {Value::ofInt(5)}).asInt(), 16);
}

TEST_F(VmTest, RecursionWorks)
{
    // fib(n)
    CodeBuilder b(program, object_k, "fib", 1);
    auto base = b.newLabel();
    b.load(0).pushI(2).cmpLt().jnz(base)
     .load(0).pushI(1).sub().callSelf()
     .load(0).pushI(2).sub().callSelf()
     .add().ret()
     .bind(base)
     .load(0).ret();
    MethodId m = b.build();
    makeContext();
    EXPECT_EQ(callMethod(m, {Value::ofInt(10)}).asInt(), 55);
}

TEST_F(VmTest, VirtualDispatchSelectsOverride)
{
    CodeBuilder base(program, point_k, "tag", 1);
    base.pushI(100).ret();
    base.build();

    Klass sub;
    sub.name = "SubPoint";
    sub.super = point_k;
    KlassId sub_k = program.addKlass(sub);
    CodeBuilder over(program, sub_k, "tag", 1);
    over.pushI(200).ret();
    over.build();

    CodeBuilder driver(program, object_k, "dispatch", 0);
    driver.newObj(sub_k).callVirt("tag", 1)
          .newObj(point_k).callVirt("tag", 1)
          .add().ret();
    MethodId m = driver.build();
    makeContext();
    EXPECT_EQ(callMethod(m).asInt(), 300);
}

TEST_F(VmTest, DeepInterceptorChainExecutes)
{
    // Model a Spring-style chain: each interceptor wraps the next.
    MethodId inner;
    {
        CodeBuilder b(program, object_k, "business", 1);
        b.load(0).pushI(2).mul().ret();
        inner = b.build();
    }
    MethodId current = inner;
    for (int i = 0; i < 20; ++i) {
        CodeBuilder b(program, object_k,
                      "intercept" + std::to_string(i), 1);
        b.load(0).call(current).ret();
        current = b.build();
    }
    makeContext();
    EXPECT_EQ(callMethod(current, {Value::ofInt(21)}).asInt(), 42);
    // 20 interceptors + business method + ... frames all returned.
}

// ---------------------------------------------------------------------
// Interpreter: natives
// ---------------------------------------------------------------------

TEST_F(VmTest, NativeRunsLocallyAndReturns)
{
    uint32_t nid = natives.add(
        "Math.abs", NativeCategory::PureOnHeap,
        [](VmContext &, std::span<const Value> args) {
            NativeResult r;
            r.ret = Value::ofInt(std::abs(args[0].asInt()));
            r.cost_ns = 10;
            return r;
        });
    Method native;
    native.name = "abs";
    native.num_args = 1;
    native.is_native = true;
    native.native_id = nid;
    native.native_category = NativeCategory::PureOnHeap;
    MethodId abs_m = program.addMethod(object_k, native);

    CodeBuilder b(program, object_k, "useabs", 0);
    b.pushI(-5).call(abs_m).ret();
    MethodId m = b.build();
    makeContext();
    EXPECT_EQ(callMethod(m).asInt(), 5);
    EXPECT_EQ(ctx->nativeCount(NativeCategory::PureOnHeap), 1u);
}

TEST_F(VmTest, NativeExternalSuspendsAndResumes)
{
    uint32_t nid = natives.add(
        "Socket.read0", NativeCategory::Network,
        [](VmContext &, std::span<const Value> args) {
            NativeResult r;
            r.external = std::any(args[0].asInt());
            return r;
        });
    Method native;
    native.name = "read0";
    native.num_args = 1;
    native.is_native = true;
    native.native_id = nid;
    MethodId read_m = program.addMethod(object_k, native);

    CodeBuilder b(program, object_k, "io", 0);
    b.pushI(7).call(read_m).pushI(1).add().ret();
    MethodId m = b.build();
    makeContext();

    Interpreter interp(*ctx);
    interp.start(m, {});
    Suspend s = interp.run();
    ASSERT_EQ(s.kind, Suspend::Kind::External);
    EXPECT_EQ(std::any_cast<int64_t>(s.external), 7);
    // Driver completes the "I/O" and doubles the payload.
    interp.resumeExternal(Value::ofInt(14));
    s = interp.run();
    ASSERT_EQ(s.kind, Suspend::Kind::Done);
    EXPECT_EQ(s.result.asInt(), 15);
}

TEST_F(VmTest, NativeFallbackSuspendsAndRetries)
{
    uint32_t nid = natives.add(
        "Method.invoke0", NativeCategory::HiddenState,
        [](VmContext &, std::span<const Value> args) {
            NativeResult r;
            r.ret = Value::ofInt(args[0].asInt() * 10);
            return r;
        });
    Method native;
    native.name = "invoke0";
    native.num_args = 1;
    native.is_native = true;
    native.native_id = nid;
    MethodId m_native = program.addMethod(object_k, native);

    CodeBuilder b(program, object_k, "reflect", 0);
    b.pushI(4).call(m_native).ret();
    MethodId m = b.build();
    // An endpoint that checks remote references (a FaaS function)
    // runs a hidden-state native only on a local, packed receiver;
    // this one's receiver is an int.
    VmConfig cfg;
    cfg.check_remote_refs = true;
    makeContext(cfg);

    Interpreter interp(*ctx);
    interp.start(m, {});
    Suspend s = interp.run();
    ASSERT_EQ(s.kind, Suspend::Kind::NativeFallback);
    EXPECT_EQ(s.native_id, nid);
    // Driver performs the server round trip, then forces local run.
    ctx->forceNextNativeLocal();
    s = interp.run();
    ASSERT_EQ(s.kind, Suspend::Kind::Done);
    EXPECT_EQ(s.result.asInt(), 40);
}

// ---------------------------------------------------------------------
// Interpreter: faults and suspensions
// ---------------------------------------------------------------------

TEST_F(VmTest, ClassFaultOnUnloadedKlassAndRetry)
{
    CodeBuilder b(program, object_k, "mk", 0);
    b.newObj(point_k).getField(0).ret();
    MethodId m = b.build();
    makeContext();

    // Fresh context with only Object loaded.
    VmConfig cfg;
    cfg.bytes_klass = bytes_k;
    Heap heap2(program, 1 << 20, 1 << 20);
    VmContext faas(program, natives, heap2, cfg);
    faas.loadKlass(object_k);

    Interpreter interp(faas);
    interp.start(m, {});
    Suspend s = interp.run();
    ASSERT_EQ(s.kind, Suspend::Kind::ClassFault);
    EXPECT_EQ(s.klass, point_k);
    // Driver fetches the class file and installs it.
    faas.loadKlass(point_k);
    s = interp.run();
    ASSERT_EQ(s.kind, Suspend::Kind::Done);
    EXPECT_TRUE(s.result.isNil());
}

TEST_F(VmTest, QuantumSuspendAndCostAccounting)
{
    CodeBuilder b(program, object_k, "heavy", 0);
    b.compute(1000000).compute(1000000).pushI(1).ret();
    MethodId m = b.build();
    VmConfig cfg;
    cfg.quantum_ns = 500000; // 0.5 ms
    cfg.jit_threshold = 0;   // no warmup for exact cost math
    makeContext(cfg);

    Interpreter interp(*ctx);
    interp.start(m, {});
    double total = 0.0;
    int quanta = 0;
    while (true) {
        Suspend s = interp.run();
        total += interp.consumeCost();
        if (s.kind == Suspend::Kind::Done)
            break;
        ASSERT_EQ(s.kind, Suspend::Kind::Quantum);
        ++quanta;
    }
    EXPECT_GE(quanta, 2);
    EXPECT_NEAR(total, 2000000.0, 50000.0);
}

TEST_F(VmTest, HeapFullSuspendOnAllocation)
{
    CodeBuilder b(program, object_k, "churn", 0);
    auto loop = b.newLabel();
    b.bind(loop).newObj(point_k).popv().jmp(loop);
    MethodId m = b.build();
    makeContext();

    Heap tiny(program, 4096, 2048);
    VmConfig cfg;
    cfg.bytes_klass = bytes_k;
    VmContext small(program, natives, tiny, cfg);
    small.loadAll();
    Interpreter interp(small);
    interp.start(m, {});
    while (true) {
        Suspend s = interp.run();
        if (s.kind == Suspend::Kind::HeapFull)
            break;
        ASSERT_EQ(s.kind, Suspend::Kind::Quantum);
    }
    SUCCEED();
}

TEST_F(VmTest, RemoteRefLoadFaultsAndMapResolves)
{
    CodeBuilder b(program, object_k, "touch", 1);
    b.load(0).getField(0).ret();
    MethodId m = b.build();
    makeContext();

    VmConfig cfg;
    cfg.bytes_klass = bytes_k;
    cfg.check_remote_refs = true;
    cfg.endpoint = 1;
    Heap faas_heap(program, 1 << 20, 1 << 20);
    VmContext faas(program, natives, faas_heap, cfg);
    faas.loadAll();

    // A closure object whose field 0 is a remote reference.
    Ref local = faas_heap.allocPlain(point_k, true);
    Ref remote_addr = markRemote(makeRef(1, 0x400));
    faas_heap.setField(local, 0, Value::ofRef(remote_addr));

    Interpreter interp(faas);
    interp.start(m, {Value::ofRef(local)});
    Suspend s = interp.run();
    ASSERT_EQ(s.kind, Suspend::Kind::ObjectFault);
    EXPECT_EQ(s.remote_ref, remote_addr);

    // Driver fetches the object into the closure space and maps it.
    Ref fetched = faas_heap.allocPlain(point_k, true);
    faas_heap.setField(fetched, 0, Value::ofInt(123));
    faas.mapRemote(remote_addr, fetched);

    s = interp.run();
    ASSERT_EQ(s.kind, Suspend::Kind::Done);
    // The loaded ref was rewritten; result is field 0 of the fetch.
    // (touch returns obj.field0 which is the remote object itself;
    // the Done result is the fetched ref.)
    EXPECT_EQ(s.result.asRef(), fetched);
    // The remote bit was reset in the containing field.
    EXPECT_EQ(faas_heap.field(local, 0).asRef(), fetched);
    EXPECT_EQ(interp.stats().remote_hits, 1u);
}

TEST_F(VmTest, RemoteRefInLocalSlotFaultsOnLoad)
{
    CodeBuilder b(program, object_k, "uselocal", 1);
    b.load(0).getField(1).ret();
    MethodId m = b.build();
    makeContext();

    VmConfig cfg;
    cfg.bytes_klass = bytes_k;
    cfg.check_remote_refs = true;
    Heap faas_heap(program, 1 << 20, 1 << 20);
    VmContext faas(program, natives, faas_heap, cfg);
    faas.loadAll();

    Ref remote_addr = markRemote(makeRef(1, 0x800));
    Interpreter interp(faas);
    interp.start(m, {Value::ofRef(remote_addr)});
    Suspend s = interp.run();
    ASSERT_EQ(s.kind, Suspend::Kind::ObjectFault);

    Ref fetched = faas_heap.allocPlain(point_k, true);
    faas_heap.setField(fetched, 1, Value::ofInt(7));
    faas.mapRemote(remote_addr, fetched);
    s = interp.run();
    ASSERT_EQ(s.kind, Suspend::Kind::Done);
    EXPECT_EQ(s.result.asInt(), 7);
}

TEST_F(VmTest, ServerSideSkipsRemoteChecks)
{
    // With check_remote_refs=false (server), loads do not inspect
    // the remote bit ("checks are only added on the FaaS side").
    CodeBuilder b(program, object_k, "carry", 1);
    b.load(0).ret();
    MethodId m = b.build();
    makeContext(); // default config: server

    Ref weird = markRemote(makeRef(1, 0x123));
    Value out = callMethod(m, {Value::ofRef(weird)});
    EXPECT_EQ(out.asRef(), weird);
}

// ---------------------------------------------------------------------
// Interpreter: monitors
// ---------------------------------------------------------------------

TEST_F(VmTest, MonitorEnterSetsOwner)
{
    CodeBuilder b(program, object_k, "locked", 1);
    b.load(0).monitorEnter()
     .load(0).getField(0)
     .load(0).monitorExit()
     .ret();
    MethodId m = b.build();
    VmConfig cfg;
    cfg.endpoint = 3;
    makeContext(cfg);
    Ref obj = heap->allocPlain(point_k);
    heap->setField(obj, 0, Value::ofInt(5));
    EXPECT_EQ(callMethod(m, {Value::ofRef(obj)}).asInt(), 5);
    EXPECT_EQ(heap->header(obj).lock_owner, 4); // endpoint 3 + 1
}

TEST_F(VmTest, MonitorAcquireSuspendsWhenPolicySaysRemote)
{
    CodeBuilder b(program, object_k, "sync", 1);
    b.load(0).monitorEnter().pushI(1).ret();
    MethodId m = b.build();
    makeContext();

    bool asked = false;
    ctx->setMonitorPolicy([&](Ref) {
        if (asked)
            return false; // after the sync protocol ran
        asked = true;
        return true;
    });

    Ref obj = heap->allocPlain(point_k);
    Interpreter interp(*ctx);
    interp.start(m, {Value::ofRef(obj)});
    Suspend s = interp.run();
    ASSERT_EQ(s.kind, Suspend::Kind::MonitorAcquire);
    EXPECT_EQ(s.monitor_obj, Value::ofRef(obj).asRef());
    s = interp.run();
    ASSERT_EQ(s.kind, Suspend::Kind::Done);
}

TEST_F(VmTest, MonitorReleaseHookFires)
{
    CodeBuilder b(program, object_k, "lockpair", 1);
    b.load(0).monitorEnter().load(0).monitorExit().pushI(0).ret();
    MethodId m = b.build();
    makeContext();
    int releases = 0;
    ctx->setMonitorReleaseHook([&](Ref) { ++releases; });
    Ref obj = heap->allocPlain(point_k);
    callMethod(m, {Value::ofRef(obj)});
    EXPECT_EQ(releases, 1);
}

TEST_F(VmTest, MonitorReentrantAcquisitionCompletes)
{
    // HiveVM monitors are unowned flags, not counters: nested
    // enter/exit on the same object must still balance and fire the
    // release hook once per exit.
    CodeBuilder b(program, object_k, "reentrant", 1);
    b.load(0).monitorEnter()
     .load(0).monitorEnter()
     .load(0).getField(0)
     .load(0).monitorExit()
     .load(0).monitorExit()
     .ret();
    MethodId m = b.build();
    makeContext();
    int releases = 0;
    ctx->setMonitorReleaseHook([&](Ref) { ++releases; });
    Ref obj = heap->allocPlain(point_k);
    heap->setField(obj, 0, Value::ofInt(11));
    EXPECT_EQ(callMethod(m, {Value::ofRef(obj)}).asInt(), 11);
    EXPECT_EQ(releases, 2);
    EXPECT_EQ(heap->header(obj).lock_owner, 1); // endpoint 0 + 1
}

TEST_F(VmTest, MonitorReleasesOnceAcrossRecoveryUnwind)
{
    // Failure recovery unwinds to a frame snapshot and re-executes
    // the critical section. The re-run takes the monitor again, and
    // exactly one release reaches the hook: the one of the granted
    // (surviving) execution.
    CodeBuilder b(program, object_k, "cs", 1);
    b.load(0).monitorEnter()
     .load(0).pushI(1).putField(0)
     .load(0).monitorExit()
     .pushI(7).ret();
    MethodId m = b.build();
    makeContext();

    int asked = 0;
    // Policy: enters run locally, exits demand the sync protocol.
    ctx->setMonitorPolicy([&](Ref) { return (++asked % 2) == 0; });
    int releases = 0;
    ctx->setMonitorReleaseHook([&](Ref) { ++releases; });

    Ref obj = heap->allocPlain(point_k);
    Interpreter interp(*ctx);
    interp.start(m, {Value::ofRef(obj)});
    std::vector<Frame> entry = interp.snapshotFrames();

    Suspend s = interp.run();
    ASSERT_EQ(s.kind, Suspend::Kind::MonitorRelease);
    EXPECT_EQ(releases, 0); // suspended exit released nothing

    // The instance dies mid-exit: unwind and re-execute.
    interp.restoreFrames(entry);
    s = interp.run();
    ASSERT_EQ(s.kind, Suspend::Kind::MonitorRelease);
    interp.grantRelease();
    s = interp.run();
    ASSERT_EQ(s.kind, Suspend::Kind::Done);
    EXPECT_EQ(s.result.asInt(), 7);
    EXPECT_EQ(releases, 1);
    EXPECT_EQ(asked, 4); // enter/exit per execution
}

TEST_F(VmTest, MonitorOpsOnNullDie)
{
    CodeBuilder b(program, object_k, "null_lock", 1);
    b.load(0).monitorEnter().pushI(0).ret();
    MethodId m = b.build();
    makeContext();
    // A nil value is not a reference; a null reference is a null
    // dereference. Both are fatal before any monitor state changes.
    EXPECT_DEATH(callMethod(m, {Value::nil()}),
                 "expected a reference");
    EXPECT_DEATH(callMethod(m, {Value::ofRef(kNullRef)}),
                 "null dereference");
}

TEST_F(VmTest, VolatileAccessPlainSemanticsWithoutPolicy)
{
    CodeBuilder b(program, object_k, "vol_rw", 1);
    b.load(0).pushI(9).putVolatile(0)
     .load(0).getVolatile(0).ret();
    MethodId m = b.build();
    makeContext();
    Ref obj = heap->allocPlain(point_k);
    EXPECT_EQ(callMethod(m, {Value::ofRef(obj)}).asInt(), 9);
    EXPECT_EQ(heap->field(obj, 0).asInt(), 9);
}

TEST_F(VmTest, VolatileAccessSuspendsWhenPolicyDemandsSync)
{
    CodeBuilder b(program, object_k, "vol_read", 1);
    b.load(0).getVolatile(1).ret();
    MethodId m = b.build();
    makeContext();

    int asked = 0;
    ctx->setMonitorPolicy([&](Ref) { return ++asked == 1; });
    Ref obj = heap->allocPlain(point_k);
    heap->setField(obj, 1, Value::ofInt(17));

    Interpreter interp(*ctx);
    interp.start(m, {Value::ofRef(obj)});
    Suspend s = interp.run();
    ASSERT_EQ(s.kind, Suspend::Kind::VolatileSync);
    EXPECT_EQ(s.monitor_obj, obj);
    EXPECT_FALSE(s.volatile_write);
    // Driver performs the data sync and grants the access.
    interp.grantVolatile(obj);
    s = interp.run();
    ASSERT_EQ(s.kind, Suspend::Kind::Done);
    EXPECT_EQ(s.result.asInt(), 17);
}

TEST_F(VmTest, VolatileWriteFiresReleaseHook)
{
    CodeBuilder b(program, object_k, "vol_write", 1);
    b.load(0).pushI(5).putVolatile(0).pushI(0).ret();
    MethodId m = b.build();
    makeContext();
    int releases = 0;
    ctx->setMonitorReleaseHook([&](Ref) { ++releases; });
    Ref obj = heap->allocPlain(point_k);
    callMethod(m, {Value::ofRef(obj)});
    EXPECT_EQ(releases, 1);
    EXPECT_EQ(heap->field(obj, 0).asInt(), 5);
}

// ---------------------------------------------------------------------
// Interpreter: snapshots (failure recovery substrate)
// ---------------------------------------------------------------------

TEST_F(VmTest, SnapshotRestoreReExecutesFromSamePoint)
{
    CodeBuilder b(program, object_k, "longcalc", 1);
    b.locals(1);
    auto loop = b.newLabel(), done = b.newLabel();
    b.pushI(0).store(1)
     .bind(loop)
     .load(0).pushI(0).cmpLe().jnz(done)
     .load(1).load(0).add().store(1)
     .load(0).pushI(1).sub().store(0)
     .compute(200000) // force quantum suspensions mid-loop
     .jmp(loop)
     .bind(done)
     .load(1).ret();
    MethodId m = b.build();
    VmConfig cfg;
    cfg.quantum_ns = 100000;
    makeContext(cfg);

    Interpreter interp(*ctx);
    interp.start(m, {Value::ofInt(50)});
    // Run a few quanta, snapshot mid-flight.
    for (int i = 0; i < 5; ++i)
        ASSERT_EQ(interp.run().kind, Suspend::Kind::Quantum);
    auto snap = interp.snapshotFrames();

    // Finish the original.
    Value v1 = runToCompletion(interp);

    // Restore into a fresh interpreter: same result.
    Interpreter clone(*ctx);
    clone.restoreFrames(snap);
    Value v2 = runToCompletion(clone);
    EXPECT_EQ(v1.asInt(), 1275);
    EXPECT_EQ(v2.asInt(), 1275);
}

// ---------------------------------------------------------------------
// Interpreter: the flat value stack
// ---------------------------------------------------------------------

/** outer(x) -> mid(y) -> inner(a, b), each frame with a live operand. */
class FlatStackTest : public VmTest
{
  protected:
    void
    SetUp() override
    {
        CodeBuilder in(program, object_k, "inner", 2);
        in.locals(2);
        in.pushI(10).load(0).load(1).mul().add()
          .store(2).load(2).ret();
        inner = in.build();

        CodeBuilder mi(program, object_k, "mid", 1);
        mi.locals(2);
        mi.pushI(100).load(0).pushI(2).call(inner).add().ret();
        mid = mi.build();

        CodeBuilder ou(program, object_k, "outer", 1);
        ou.locals(1);
        ou.pushI(1000).load(0).call(mid).add().ret();
        outer = ou.build();

        VmConfig cfg;
        cfg.quantum_ns = 1; // suspend after every instruction
        makeContext(cfg);
    }

    /** Step @p interp until inner's first push has executed. */
    void
    pauseInInner(Interpreter &interp)
    {
        interp.start(outer, {Value::ofInt(7)});
        while (interp.frameDepth() < 3)
            ASSERT_EQ(interp.run().kind, Suspend::Kind::Quantum);
        ASSERT_EQ(interp.run().kind, Suspend::Kind::Quantum); // pushI 10
    }

    MethodId inner = kNoMethod, mid = kNoMethod, outer = kNoMethod;
};

TEST_F(FlatStackTest, SnapshotGivesEachFrameItsLocalsAndStack)
{
    Interpreter interp(*ctx);
    pauseInInner(interp);
    std::vector<Frame> snap = interp.snapshotFrames();
    ASSERT_EQ(snap.size(), 3u);

    const std::vector<MethodId> ids = {outer, mid, inner};
    // Arguments first, then nil up to num_locals.
    const std::vector<std::vector<Value>> locals = {
        {Value::ofInt(7), Value::nil()},
        {Value::ofInt(7), Value::nil(), Value::nil()},
        {Value::ofInt(7), Value::ofInt(2), Value::nil(), Value::nil()},
    };
    // The call arguments moved into the callee; what stays below
    // them is each caller's own operand stack.
    const std::vector<std::vector<Value>> stacks = {
        {Value::ofInt(1000)}, {Value::ofInt(100)}, {Value::ofInt(10)}};
    for (std::size_t i = 0; i < snap.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(snap[i].method, ids[i]);
        EXPECT_EQ(snap[i].locals.size(),
                  program.method(ids[i]).num_locals);
        EXPECT_EQ(snap[i].locals, locals[i]);
        EXPECT_EQ(snap[i].stack, stacks[i]);
    }
}

TEST_F(FlatStackTest, RestoredSnapshotRunsToTheSameResult)
{
    Interpreter whole(*ctx);
    whole.start(outer, {Value::ofInt(7)});
    Value expected = runToCompletion(whole);
    EXPECT_EQ(expected.asInt(), 1000 + 100 + 10 + 7 * 2);

    Interpreter paused(*ctx);
    pauseInInner(paused);
    std::vector<Frame> snap = paused.snapshotFrames();
    uint64_t before = paused.stats().instructions;

    Interpreter fresh(*ctx);
    fresh.restoreFrames(snap);
    EXPECT_EQ(fresh.frameDepth(), 3u);
    EXPECT_EQ(runToCompletion(fresh), expected);
    EXPECT_EQ(before + fresh.stats().instructions,
              whole.stats().instructions);
    // The paused original finishes the same way.
    EXPECT_EQ(runToCompletion(paused), expected);
    EXPECT_EQ(paused.stats().instructions, whole.stats().instructions);
}

TEST_F(FlatStackTest, RootsAreTheSnapshotLocalsAndStacksInOrder)
{
    Interpreter interp(*ctx);
    pauseInInner(interp);
    std::vector<Value> expected;
    for (const Frame &f : interp.snapshotFrames()) {
        expected.insert(expected.end(), f.locals.begin(), f.locals.end());
        expected.insert(expected.end(), f.stack.begin(), f.stack.end());
    }
    std::vector<Value> visited;
    interp.forEachRoot([&](Value &v) {
        visited.push_back(v);
        if (v.isInt())
            v = Value::ofInt(v.asInt() + 1); // roots are visited in place
    });
    EXPECT_EQ(visited, expected);

    std::vector<Value> after;
    interp.forEachRoot([&](Value &v) { after.push_back(v); });
    ASSERT_EQ(after.size(), expected.size());
    for (std::size_t i = 0; i < after.size(); ++i) {
        if (expected[i].isInt()) {
            EXPECT_EQ(after[i].asInt(), expected[i].asInt() + 1);
        }
    }
}

/** The arguments Method.invoke3 saw on its last call. */
std::vector<Value> invoke3_seen;

TEST_F(VmTest, NativeSeesArgumentSpanAndFallbackLeavesThemOnTheStack)
{
    std::vector<Value> &seen = invoke3_seen;
    seen.clear();
    uint32_t nid = natives.add(
        "Method.invoke3", NativeCategory::HiddenState,
        [](VmContext &, std::span<const Value> args) {
            invoke3_seen.assign(args.begin(), args.end());
            NativeResult r;
            r.ret = Value::ofInt(args[0].asInt() * 100 +
                                 args[1].asInt() * 10 + args[2].asInt());
            return r;
        });
    Method native;
    native.name = "invoke3";
    native.num_args = 3;
    native.is_native = true;
    native.native_id = nid;
    native.native_category = NativeCategory::HiddenState;
    MethodId m_native = program.addMethod(object_k, native);

    CodeBuilder b(program, object_k, "reflect3", 0);
    b.pushI(9).pushI(1).pushI(2).pushI(3).call(m_native).add().ret();
    MethodId m = b.build();
    makeContext();

    const std::vector<Value> args = {Value::ofInt(1), Value::ofInt(2),
                                     Value::ofInt(3)};
    Value local = callMethod(m);
    EXPECT_EQ(local.asInt(), 9 + 123);
    EXPECT_EQ(seen, args);

    // On a remote-checking endpoint the int receiver falls back.
    seen.clear();
    VmConfig cfg;
    cfg.check_remote_refs = true;
    makeContext(cfg);
    Interpreter interp(*ctx);
    interp.start(m, {});
    Suspend s = interp.run();
    ASSERT_EQ(s.kind, Suspend::Kind::NativeFallback);
    EXPECT_EQ(s.native_id, nid);
    EXPECT_TRUE(seen.empty());
    // The arguments are still the caller's stack top: retriable.
    std::vector<Frame> snap = interp.snapshotFrames();
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_EQ(snap[0].stack,
              (std::vector<Value>{Value::ofInt(9), Value::ofInt(1),
                                  Value::ofInt(2), Value::ofInt(3)}));

    ctx->forceNextNativeLocal();
    s = interp.run();
    ASSERT_EQ(s.kind, Suspend::Kind::Done);
    EXPECT_EQ(s.result, local);
    EXPECT_EQ(seen, args);
}

TEST_F(VmTest, StackUnderflowAndBadLocalSlotDie)
{
    CodeBuilder u(program, object_k, "underflows", 0);
    u.pushI(1).add().ret();
    MethodId underflow = u.build();

    CodeBuilder l(program, object_k, "bad_slot", 1);
    l.pushI(5).load(1).ret();
    MethodId bad_slot = l.build();

    CodeBuilder st(program, object_k, "bad_store", 1);
    st.pushI(0).store(3).pushI(0).ret();
    MethodId bad_store = st.build();

    CodeBuilder c(program, object_k, "caller", 0);
    c.pushI(4).call(bad_slot).ret();
    MethodId caller = c.build();
    makeContext();

    EXPECT_DEATH(callMethod(underflow), "stack underflow in underflows");
    EXPECT_DEATH(callMethod(bad_slot, {Value::ofInt(1)}),
                 "bad local slot");
    EXPECT_DEATH(callMethod(bad_store, {Value::ofInt(1)}),
                 "bad local slot");
    // Slot 1 of bad_slot's window is its operand stack's first
    // value, not a local, also when it is entered by a call.
    EXPECT_DEATH(callMethod(caller), "bad local slot");
    EXPECT_DEATH(callMethod(bad_slot, {}), "expects 1 args, got 0");
}

// ---------------------------------------------------------------------
// Warmup model
// ---------------------------------------------------------------------

TEST_F(VmTest, WarmupMultiplierDecaysAfterThreshold)
{
    CodeBuilder b(program, object_k, "warm", 0);
    b.compute(1000).pushI(0).ret();
    MethodId m = b.build();
    VmConfig cfg;
    cfg.jit_threshold = 3;
    cfg.cold_multiplier = 10.0;
    makeContext(cfg);

    Interpreter interp(*ctx);
    double costs[6];
    for (int i = 0; i < 6; ++i) {
        interp.start(m, {});
        runToCompletion(interp);
        costs[i] = interp.consumeCost();
    }
    // First three invocations are ~10x the later ones.
    EXPECT_GT(costs[0], costs[5] * 5.0);
    EXPECT_NEAR(costs[0], costs[1], costs[0] * 0.01);
    EXPECT_NEAR(costs[4], costs[5], costs[5] * 0.01);
    EXPECT_EQ(ctx->invocations(m), 6u);
}

// ---------------------------------------------------------------------
// Recording (profiling substrate)
// ---------------------------------------------------------------------

TEST_F(VmTest, RecordingCapturesKlassAndStaticUse)
{
    CodeBuilder b(program, counter_k, "record_me", 0);
    b.newObj(point_k).popv()
     .getStatic(counter_k, 0).popv()
     .pushI(0).ret();
    MethodId m = b.build();
    makeContext();

    Interpreter interp(*ctx);
    interp.enableRecording(true);
    interp.start(m, {});
    runToCompletion(interp);

    EXPECT_TRUE(interp.recordedKlasses().count(point_k));
    EXPECT_TRUE(interp.recordedKlasses().count(counter_k));
    EXPECT_TRUE(interp.recordedStatics().count({counter_k, 0}));

    interp.clearRecording();
    EXPECT_TRUE(interp.recordedKlasses().empty());
}

// ---------------------------------------------------------------------
// Profiler
// ---------------------------------------------------------------------

TEST_F(VmTest, ProfilerFiltersCandidatesByAnnotation)
{
    CodeBuilder a(program, object_k, "annotated", 0);
    a.annotate("RequestMapping").pushI(0).ret();
    MethodId am = a.build();
    CodeBuilder p(program, object_k, "plain", 0);
    p.pushI(0).ret();
    MethodId pm = p.build();

    Profiler prof(program);
    prof.addCandidateAnnotation("RequestMapping");
    EXPECT_TRUE(prof.isCandidate(am));
    EXPECT_FALSE(prof.isCandidate(pm));
}

TEST_F(VmTest, ProfilerSelectsByHeuristics)
{
    CodeBuilder hot(program, object_k, "hot", 0);
    hot.annotate("RequestMapping").pushI(0).ret();
    MethodId hot_m = hot.build();
    CodeBuilder cheap(program, object_k, "cheap", 0);
    cheap.annotate("RequestMapping").pushI(0).ret();
    MethodId cheap_m = cheap.build();
    CodeBuilder rare(program, object_k, "rare", 0);
    rare.annotate("RequestMapping").pushI(0).ret();
    MethodId rare_m = rare.build();

    Profiler prof(program);
    prof.addCandidateAnnotation("RequestMapping");
    // hot: 100 x 5ms. cheap: 10000 x 0.1ms (avg too short).
    // rare: 2 x 5ms (total too small).
    for (int i = 0; i < 100; ++i)
        prof.recordExecution(hot_m, 5e6, {}, {});
    for (int i = 0; i < 10000; ++i)
        prof.recordExecution(cheap_m, 1e5, {}, {});
    prof.recordExecution(rare_m, 5e6, {}, {});
    prof.recordExecution(rare_m, 5e6, {}, {});

    auto roots = prof.selectRoots(/*min_total=*/1e8, /*min_avg=*/1e6);
    ASSERT_EQ(roots.size(), 1u);
    EXPECT_EQ(roots[0], hot_m);

    const RootProfile *p = prof.profile(hot_m);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->invocations, 100u);
    EXPECT_DOUBLE_EQ(p->avgCostNs(), 5e6);
}

TEST_F(VmTest, CandidateProfilingCountsMonitorEnters)
{
    // Handler (annotated) locks twice; the wrapper around it locks
    // once more OUTSIDE the candidate extent.
    CodeBuilder h(program, counter_k, "locker", 1);
    h.annotate("RequestMapping");
    h.load(0).monitorEnter().load(0).monitorExit()
     .load(0).monitorEnter().load(0).monitorExit()
     .pushI(0).ret();
    MethodId handler = h.build();
    CodeBuilder w(program, object_k, "locker_wrap", 1);
    w.load(0).monitorEnter().load(0).monitorExit()
     .load(0).call(handler).ret();
    MethodId wrapper = w.build();

    makeContext();
    Profiler prof(program);
    prof.addCandidateAnnotation("RequestMapping");
    ctx->setProfiler(&prof);

    Ref obj = heap->allocPlain(point_k);
    Interpreter interp(*ctx);
    interp.enableCandidateProfiling(true);
    interp.start(wrapper, {Value::ofRef(obj)});
    runToCompletion(interp);

    const RootProfile *p = prof.profile(handler);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->monitor_enters, 2u); // wrapper's lock excluded
}

TEST_F(VmTest, ProfilerMergesUsageSets)
{
    CodeBuilder c(program, object_k, "cand", 0);
    c.annotate("RequestMapping").pushI(0).ret();
    MethodId cm = c.build();

    Profiler prof(program);
    prof.addCandidateAnnotation("RequestMapping");
    prof.recordExecution(cm, 1e6, {point_k}, {{counter_k, 0}});
    prof.recordExecution(cm, 1e6, {counter_k}, {});
    const RootProfile *p = prof.profile(cm);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->klasses.size(), 2u);
    EXPECT_EQ(p->statics.size(), 1u);
}

// ---------------------------------------------------------------------
// Property tests
// ---------------------------------------------------------------------

/** Property: sum(1..n) == n(n+1)/2 across a sweep of n. */
class SumProperty : public ::testing::TestWithParam<int64_t>
{};

TEST_P(SumProperty, LoopMatchesClosedForm)
{
    Program program;
    Klass obj;
    obj.name = "Object";
    KlassId object_k = program.addKlass(obj);
    CodeBuilder b(program, object_k, "sum", 1);
    b.locals(1);
    auto loop = b.newLabel(), done = b.newLabel();
    b.pushI(0).store(1)
     .bind(loop)
     .load(0).pushI(0).cmpLe().jnz(done)
     .load(1).load(0).add().store(1)
     .load(0).pushI(1).sub().store(0)
     .jmp(loop)
     .bind(done)
     .load(1).ret();
    MethodId m = b.build();

    NativeRegistry natives;
    Heap heap(program, 1 << 16, 1 << 16);
    VmContext ctx(program, natives, heap, VmConfig{});
    ctx.loadAll();
    Interpreter interp(ctx);
    interp.start(m, {Value::ofInt(GetParam())});
    Suspend s;
    do {
        s = interp.run();
    } while (s.kind == Suspend::Kind::Quantum);
    ASSERT_EQ(s.kind, Suspend::Kind::Done);
    int64_t n = GetParam();
    EXPECT_EQ(s.result.asInt(), n * (n + 1) / 2);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SumProperty,
                         ::testing::Values(0, 1, 2, 7, 100, 999, 5000));

// ---------------------------------------------------------------------
// RefTable
// ---------------------------------------------------------------------

TEST(RefTableTest, MissesReturnZeroAndNullIsNeverAKey)
{
    RefTable t;
    EXPECT_EQ(t.find(0x40), 0u);
    EXPECT_EQ(t.find(kNullRef), 0u);
    EXPECT_EQ(t.put(0x40, 7), 0u);
    EXPECT_EQ(t.put(0x40, 9), 7u); // overwrite returns the old value
    EXPECT_EQ(t.find(0x40), 9u);
    EXPECT_EQ(t.find(kNullRef), 0u);
    EXPECT_EQ(t.size(), 1u);
    EXPECT_DEATH(t.put(kNullRef, 1), "kNullRef is not a RefTable key");
}

/** The table's entries, gathered through forEach (each once). */
std::unordered_map<Ref, uint64_t>
contentsOf(const RefTable &t)
{
    std::unordered_map<Ref, uint64_t> out;
    t.forEach([&](Ref k, uint64_t v) {
        EXPECT_NE(k, kNullRef);
        EXPECT_TRUE(out.emplace(k, v).second) << "key visited twice";
    });
    return out;
}

/**
 * Property: a RefTable behaves like a std::unordered_map under random
 * puts, overwrites, lookups, reserves and GC-style rebuilds, with
 * keys that collide modulo every capacity the table passes through.
 */
class RefTableProperty : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(RefTableProperty, AgreesWithUnorderedMap)
{
    Rng rng(GetParam() * 131 + 17);
    RefTable table;
    std::unordered_map<Ref, uint64_t> model;
    auto lookup = [&](Ref k) -> uint64_t {
        auto it = model.find(k);
        return it == model.end() ? 0 : it->second;
    };
    auto draw_key = [&]() -> Ref {
        switch (rng.uniformInt(0, 3)) {
          case 0: // small dense keys
            return static_cast<Ref>(rng.uniformInt(1, 48));
          case 1: // equal modulo 2^4 .. 2^16: one residue, many keys
            return 5 + (static_cast<Ref>(rng.uniformInt(1, 60))
                        << rng.uniformInt(4, 16));
          case 2: // a remote-marked address
            return markRemote(makeRef(
                1, 8 * static_cast<uint64_t>(rng.uniformInt(1, 3000))));
          default: // heap-shaped: space id high, 8-byte offsets
            return makeRef(
                static_cast<uint8_t>(rng.uniformInt(0, 3)),
                8 * static_cast<uint64_t>(rng.uniformInt(1, 3000)));
        }
    };
    auto check_all = [&] {
        ASSERT_EQ(table.size(), model.size());
        ASSERT_EQ(contentsOf(table), model);
    };

    const int kOps = 4000;
    for (int op = 0; op < kOps; ++op) {
        int64_t what = rng.uniformInt(0, 99);
        if (what < 55) {
            Ref k = draw_key();
            uint64_t v = rng.next() | 1;
            ASSERT_EQ(table.put(k, v), lookup(k)) << "op " << op;
            model[k] = v;
        } else if (what < 65 && !model.empty()) {
            // Overwrite an existing key.
            auto it = model.begin();
            std::advance(it, rng.uniformInt(
                                 0, static_cast<int64_t>(model.size()) - 1));
            uint64_t v = rng.next() | 1;
            ASSERT_EQ(table.put(it->first, v), it->second);
            it->second = v;
        } else if (what < 93) {
            Ref k = what == 92 ? kNullRef : draw_key();
            ASSERT_EQ(table.find(k), lookup(k)) << "op " << op;
        } else if (what < 97) {
            table.reserve(static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<int64_t>(model.size()) * 3 + 64)));
            check_all();
        } else {
            // Collect, visit (a moving GC: an injective key map),
            // rebuild -- the mapping tables' pattern.
            std::vector<std::pair<Ref, uint64_t>> entries;
            table.forEach([&](Ref k, uint64_t v) {
                entries.emplace_back(k, v);
            });
            Ref shift = 8 * static_cast<Ref>(rng.uniformInt(1, 4096));
            table.clear();
            EXPECT_EQ(table.size(), 0u);
            EXPECT_TRUE(contentsOf(table).empty());
            model.clear();
            for (auto &[k, v] : entries) {
                table.put(k + shift, v);
                model[k + shift] = v;
            }
            check_all();
        }
    }
    check_all();
    // Growth crossed several doublings.
    EXPECT_GT(model.size(), 256u);
    for (const auto &[k, v] : model)
        ASSERT_EQ(table.find(k), v);
}

INSTANTIATE_TEST_SUITE_P(RefTableSeeds, RefTableProperty,
                         ::testing::Range<uint64_t>(1, 41));

// ---------------------------------------------------------------------
// Id-keyed VmContext tables
// ---------------------------------------------------------------------

TEST(VmContextTables, StaticsVisitInKlassOrderAndWarmupCounts)
{
    Program program;
    Klass a;
    a.name = "A";
    a.statics = {"x", "y"};
    KlassId ka = program.addKlass(a);
    Klass none;
    none.name = "NoStatics";
    KlassId kn = program.addKlass(none);
    Klass b;
    b.name = "B";
    b.statics = {"z"};
    KlassId kb = program.addKlass(b);

    NativeRegistry natives;
    Heap heap(program, 1 << 16, 1 << 16);
    VmConfig cfg;
    cfg.jit_threshold = 2;
    cfg.cold_multiplier = 8.0;
    VmContext ctx(program, natives, heap, cfg);
    // Load out of order: the visit order is still ascending klass id.
    ctx.loadKlass(kb);
    ctx.loadKlass(kn);
    ctx.loadKlass(ka);
    ctx.setStatic(ka, 0, Value::ofInt(1));
    ctx.setStatic(ka, 1, Value::ofInt(2));
    ctx.setStatic(kb, 0, Value::ofInt(3));
    std::vector<int64_t> seen;
    ctx.forEachStatic([&](Value &v) { seen.push_back(v.asInt()); });
    EXPECT_EQ(seen, (std::vector<int64_t>{1, 2, 3}));
    EXPECT_DEATH(ctx.getStatic(kn, 0), "statics of unloaded klass");

    // Method ids beyond the program's count grow the table on demand.
    MethodId far = static_cast<MethodId>(program.methodCount() + 40);
    EXPECT_EQ(ctx.invocations(far), 0u);
    EXPECT_DOUBLE_EQ(ctx.costMultiplier(far), 8.0);
    EXPECT_DOUBLE_EQ(ctx.methodEntered(far), 8.0);
    EXPECT_DOUBLE_EQ(ctx.methodEntered(far), 8.0);
    EXPECT_DOUBLE_EQ(ctx.methodEntered(far), 1.0);
    EXPECT_EQ(ctx.invocations(far), 3u);
    EXPECT_EQ(ctx.invocations(far - 1), 0u);
}

} // namespace
} // namespace beehive::vm
