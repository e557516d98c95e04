/**
 * @file
 * Unit and property tests for the two-space copying collector.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "gc/collector.h"
#include "vm/heap.h"
#include "vm/program.h"
#include "vm/value.h"

namespace beehive::gc {
namespace {

using vm::Heap;
using vm::KlassId;
using vm::Program;
using vm::Ref;
using vm::Space;
using vm::Value;

class GcTest : public ::testing::Test
{
  protected:
    GcTest()
    {
        vm::Klass node;
        node.name = "Node";
        node.fields = {"next", "payload"};
        node_k = program.addKlass(node);

        vm::Klass blob;
        blob.name = "Blob";
        blob_k = program.addKlass(blob);

        heap = std::make_unique<Heap>(program, 1 << 20, 1 << 20);
        collector = std::make_unique<SemiSpaceCollector>(*heap);
    }

    /** Build a singly linked list of @p n nodes in the alloc space. */
    Ref
    makeList(int n)
    {
        Ref head = vm::kNullRef;
        for (int i = 0; i < n; ++i) {
            Ref node = heap->allocPlain(node_k);
            EXPECT_NE(node, vm::kNullRef);
            heap->setField(node, 0, Value::ofRef(head));
            heap->setField(node, 1, Value::ofInt(i));
            head = node;
        }
        return head;
    }

    /** Sum the payloads of a list (checks copy integrity). */
    int64_t
    sumList(Ref head)
    {
        int64_t sum = 0;
        while (head != vm::kNullRef) {
            sum += heap->field(head, 1).asInt();
            head = heap->field(head, 0).asRef();
        }
        return sum;
    }

    Program program;
    KlassId node_k, blob_k;
    std::unique_ptr<Heap> heap;
    std::unique_ptr<SemiSpaceCollector> collector;
};

TEST_F(GcTest, UnreachableObjectsAreFreed)
{
    makeList(100); // garbage: no roots registered
    std::size_t used_before = heap->space(heap->allocSpaceId()).used();
    EXPECT_GT(used_before, vm::Space::firstOffset());
    GcCycleStats stats = collector->collect();
    EXPECT_EQ(stats.objects_copied, 0u);
    EXPECT_GT(stats.bytes_freed, 0u);
    EXPECT_EQ(heap->space(heap->allocSpaceId()).used(),
              vm::Space::firstOffset());
}

TEST_F(GcTest, RootedObjectsSurviveWithContentsIntact)
{
    Value root = Value::ofRef(makeList(50));
    collector->addValueRoots([&](const auto &visit) { visit(root); });
    int64_t before = sumList(root.asRef());

    GcCycleStats stats = collector->collect();
    EXPECT_EQ(stats.objects_copied, 50u);
    // Root was updated to the new location.
    EXPECT_EQ(vm::refSpace(root.asRef()), heap->allocSpaceId());
    EXPECT_EQ(sumList(root.asRef()), before);
}

TEST_F(GcTest, SharedSubgraphCopiedOnce)
{
    Ref shared = heap->allocPlain(node_k);
    heap->setField(shared, 1, Value::ofInt(7));
    Ref a = heap->allocPlain(node_k);
    Ref b = heap->allocPlain(node_k);
    heap->setField(a, 0, Value::ofRef(shared));
    heap->setField(b, 0, Value::ofRef(shared));

    Value ra = Value::ofRef(a), rb = Value::ofRef(b);
    collector->addValueRoots([&](const auto &visit) {
        visit(ra);
        visit(rb);
    });
    GcCycleStats stats = collector->collect();
    EXPECT_EQ(stats.objects_copied, 3u);
    // Both parents point to the same copy.
    EXPECT_EQ(heap->field(ra.asRef(), 0).asRef(),
              heap->field(rb.asRef(), 0).asRef());
    EXPECT_EQ(
        heap->field(heap->field(ra.asRef(), 0).asRef(), 1).asInt(), 7);
}

TEST_F(GcTest, CyclesAreHandled)
{
    Ref a = heap->allocPlain(node_k);
    Ref b = heap->allocPlain(node_k);
    heap->setField(a, 0, Value::ofRef(b));
    heap->setField(b, 0, Value::ofRef(a));
    heap->setField(a, 1, Value::ofInt(1));
    heap->setField(b, 1, Value::ofInt(2));

    Value root = Value::ofRef(a);
    collector->addValueRoots([&](const auto &visit) { visit(root); });
    GcCycleStats stats = collector->collect();
    EXPECT_EQ(stats.objects_copied, 2u);
    Ref na = root.asRef();
    Ref nb = heap->field(na, 0).asRef();
    EXPECT_EQ(heap->field(nb, 0).asRef(), na);
    EXPECT_EQ(heap->field(na, 1).asInt(), 1);
    EXPECT_EQ(heap->field(nb, 1).asInt(), 2);
}

TEST_F(GcTest, ClosureSpaceObjectsAreNeverCollectedOrMoved)
{
    Ref closure_obj = heap->allocPlain(node_k, /*in_closure=*/true);
    heap->setField(closure_obj, 1, Value::ofInt(42));
    std::size_t closure_used = heap->space(Heap::kClosureSpaceId).used();

    makeList(10); // garbage
    collector->collect();
    EXPECT_EQ(heap->space(Heap::kClosureSpaceId).used(), closure_used);
    EXPECT_EQ(heap->field(closure_obj, 1).asInt(), 42);
}

TEST_F(GcTest, DirtyCardKeepsYoungObjectAliveAndFixesPointer)
{
    Ref closure_obj = heap->allocPlain(node_k, true);
    Ref young = heap->allocPlain(node_k);
    heap->setField(young, 1, Value::ofInt(99));
    heap->setField(closure_obj, 0, Value::ofRef(young)); // marks card

    GcCycleStats stats = collector->collect();
    EXPECT_EQ(stats.objects_copied, 1u);
    EXPECT_GE(stats.cards_scanned, 1u);
    Ref moved = heap->field(closure_obj, 0).asRef();
    EXPECT_EQ(vm::refSpace(moved), heap->allocSpaceId());
    EXPECT_EQ(heap->field(moved, 1).asInt(), 99);
}

TEST_F(GcTest, CardStaysDirtyAcrossCollectionsWhileCrossRefExists)
{
    Ref closure_obj = heap->allocPlain(node_k, true);
    Ref young = heap->allocPlain(node_k);
    heap->setField(closure_obj, 0, Value::ofRef(young));

    collector->collect();
    EXPECT_GE(heap->cards().dirtyCount(), 1u);
    // Second GC still finds the young object via the re-marked card.
    GcCycleStats stats2 = collector->collect();
    EXPECT_EQ(stats2.objects_copied, 1u);

    // Break the reference: after the next GC the card is clean.
    heap->setField(closure_obj, 0, Value::nil());
    collector->collect();
    EXPECT_EQ(heap->cards().dirtyCount(), 0u);
}

TEST_F(GcTest, CleanClosureCardsAreNotScanned)
{
    // Lots of closure objects with no cross-space refs.
    for (int i = 0; i < 200; ++i)
        heap->allocPlain(node_k, true);
    GcCycleStats stats = collector->collect();
    EXPECT_EQ(stats.cards_scanned, 0u);
}

TEST_F(GcTest, RefRootProviderKeepsMappingTableTargetsAlive)
{
    // Model a server mapping table holding shared objects.
    std::vector<Ref> table{makeList(3)};
    collector->addRefRoots([&](const auto &visit) {
        for (Ref &r : table)
            visit(r);
    });
    GcCycleStats stats = collector->collect();
    EXPECT_EQ(stats.objects_copied, 3u);
    // Table entry updated to the moved address.
    EXPECT_EQ(vm::refSpace(table[0]), heap->allocSpaceId());
    EXPECT_EQ(sumList(table[0]), 0 + 1 + 2);
}

TEST_F(GcTest, RemoteRefsAreLeftUntouched)
{
    Ref obj = heap->allocPlain(node_k);
    Ref remote = vm::markRemote(vm::makeRef(1, 0x1000));
    heap->setField(obj, 0, Value::ofRef(remote));
    Value root = Value::ofRef(obj);
    collector->addValueRoots([&](const auto &visit) { visit(root); });
    collector->collect();
    EXPECT_EQ(heap->field(root.asRef(), 0).asRef(), remote);
}

TEST_F(GcTest, BytesObjectsSurviveCopy)
{
    Ref blob = heap->allocBytes(blob_k, "precious-payload");
    Ref holder = heap->allocPlain(node_k);
    heap->setField(holder, 0, Value::ofRef(blob));
    Value root = Value::ofRef(holder);
    collector->addValueRoots([&](const auto &visit) { visit(root); });
    collector->collect();
    Ref moved = heap->field(root.asRef(), 0).asRef();
    EXPECT_EQ(heap->bytes(moved), "precious-payload");
}

TEST_F(GcTest, AllocationSucceedsAfterCollection)
{
    Heap small(program, 1 << 16, 1 << 14); // 16 KB semispaces
    SemiSpaceCollector gc(small);
    // Fill the space with garbage until exhaustion, collect, repeat.
    int total_allocated = 0;
    for (int round = 0; round < 5; ++round) {
        while (small.allocPlain(node_k) != vm::kNullRef)
            ++total_allocated;
        GcCycleStats stats = gc.collect();
        EXPECT_GT(stats.bytes_freed, 0u);
    }
    EXPECT_GT(total_allocated, 1000);
}

TEST_F(GcTest, PauseModelScalesWithCopiedBytes)
{
    Value small_root = Value::ofRef(makeList(5));
    collector->addValueRoots(
        [&](const auto &visit) { visit(small_root); });
    GcCycleStats small_stats = collector->collect();

    Heap heap2(program, 1 << 20, 1 << 20);
    SemiSpaceCollector gc2(heap2);
    Ref head = vm::kNullRef;
    for (int i = 0; i < 5000; ++i) {
        Ref node = heap2.allocPlain(node_k);
        heap2.setField(node, 0, Value::ofRef(head));
        head = node;
    }
    Value big_root = Value::ofRef(head);
    gc2.addValueRoots([&](const auto &visit) { visit(big_root); });
    GcCycleStats big_stats = gc2.collect();

    EXPECT_GT(big_stats.pause, small_stats.pause);
    // Pauses stay in the low-millisecond regime the paper reports.
    EXPECT_LT(big_stats.pause.toMillis(), 10.0);
}

TEST_F(GcTest, TotalsAndMedianPauseAccumulate)
{
    EXPECT_TRUE(std::isnan(collector->medianPauseMs()));
    makeList(10);
    collector->collect();
    makeList(10);
    collector->collect();
    EXPECT_EQ(collector->totals().collections, 2u);
    EXPECT_FALSE(std::isnan(collector->medianPauseMs()));
}

/** A DB response's rows: handles to immutable row bytes. */
using Rows = std::vector<std::shared_ptr<const std::string>>;

/** The bytes a row handle owns. */
std::string_view
wireOf(const std::string &row)
{
    return row;
}

/** Materialise @p rows with the heap's one-pass row array. */
Ref
rowArray(Heap &heap, KlassId arr_k, KlassId row_k, Rows &rows)
{
    return heap.allocRowArray(arr_k, row_k, std::span(rows), wireOf);
}

/**
 * The row-by-row reference: an array, then one copied byte object per
 * row stored into it; kNullRef where an allocation fails.
 */
Ref
rowByRow(Heap &heap, KlassId arr_k, KlassId row_k, const Rows &rows)
{
    Ref arr = heap.allocArray(arr_k, rows.size());
    if (arr == vm::kNullRef)
        return vm::kNullRef;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        Ref cell = heap.allocBytes(row_k, *rows[i]);
        if (cell == vm::kNullRef)
            return vm::kNullRef;
        heap.setElem(arr, static_cast<uint32_t>(i), Value::ofRef(cell));
    }
    return arr;
}

/**
 * One allocation sequence on a heap that copies rows or borrows
 * them: per step a plain object and a response of 0-3 rows, every
 * third response's first row and every fifth array kept live
 * through @p roots.
 */
struct RowSequence
{
    static constexpr std::size_t kLens[] = {0,  5,   15,  16,
                                            17, 100, 620, 3000};

    RowSequence()
    {
        for (std::size_t i = 0; i < std::size(kLens); ++i) {
            std::string row(kLens[i], '\0');
            for (std::size_t j = 0; j < row.size(); ++j)
                row[j] = static_cast<char>('a' + (i * 7 + j) % 26);
            rows.push_back(std::make_shared<const std::string>(row));
        }
    }

    /** The response of step @p step: i % 4 rows from row i on. */
    Rows
    response(std::size_t step) const
    {
        Rows resp;
        for (std::size_t j = 0; j < step % 4; ++j)
            resp.push_back(rows[(step + j) % rows.size()]);
        return resp;
    }

    /**
     * Run steps [@p from, @p to) on @p heap; @return the index of the
     * first allocation that failed (2 per step: the object, then the
     * response), or 2 * @p to.
     */
    std::size_t
    run(Heap &heap, KlassId arr_k, KlassId obj_k, KlassId row_k,
        bool borrow, std::size_t from, std::size_t to,
        std::vector<Value> &roots) const
    {
        for (std::size_t i = from; i < to; ++i) {
            if (heap.allocPlain(obj_k) == vm::kNullRef)
                return 2 * i;
            Rows resp = response(i);
            Ref arr = borrow ? rowArray(heap, arr_k, row_k, resp)
                             : rowByRow(heap, arr_k, row_k, resp);
            if (arr == vm::kNullRef)
                return 2 * i + 1;
            if (i % 3 == 0 && !resp.empty())
                roots.push_back(heap.elem(arr, 0));
            if (i % 5 == 0)
                roots.push_back(Value::ofRef(arr));
        }
        return 2 * to;
    }

    std::vector<std::shared_ptr<const std::string>> rows;
};

void
expectSameStats(const GcCycleStats &a, const GcCycleStats &b)
{
    EXPECT_EQ(a.objects_copied, b.objects_copied);
    EXPECT_EQ(a.bytes_copied, b.bytes_copied);
    EXPECT_EQ(a.roots_visited, b.roots_visited);
    EXPECT_EQ(a.cards_scanned, b.cards_scanned);
    EXPECT_EQ(a.bytes_freed, b.bytes_freed);
    EXPECT_EQ(a.pause, b.pause);
}

TEST_F(GcTest, BorrowedRowsChargeAndCollectLikeCopiedRows)
{
    RowSequence seq;
    Heap copying(program, 1 << 16, 1 << 18);
    Heap borrowing(program, 1 << 16, 1 << 18);
    SemiSpaceCollector copy_gc(copying), borrow_gc(borrowing);
    std::vector<Value> copy_roots, borrow_roots;
    copy_gc.addValueRoots([&](const auto &visit) {
        for (Value &v : copy_roots)
            visit(v);
    });
    borrow_gc.addValueRoots([&](const auto &visit) {
        for (Value &v : borrow_roots)
            visit(v);
    });
    auto expectSameHeaps = [&] {
        for (uint8_t id : {Heap::kClosureSpaceId, Heap::kAllocAId,
                           Heap::kAllocBId}) {
            EXPECT_EQ(copying.space(id).charged(),
                      borrowing.space(id).charged())
                << "space " << int(id);
        }
        EXPECT_EQ(copying.allocSpaceId(), borrowing.allocSpaceId());
        EXPECT_EQ(copying.usedBytes(), borrowing.usedBytes());
        EXPECT_EQ(copying.stats().objects_allocated,
                  borrowing.stats().objects_allocated);
        EXPECT_EQ(copying.stats().bytes_allocated,
                  borrowing.stats().bytes_allocated);
        EXPECT_EQ(copying.stats().peak_used, borrowing.stats().peak_used);
        ASSERT_EQ(copy_roots.size(), borrow_roots.size());
        for (std::size_t i = 0; i < copy_roots.size(); ++i) {
            Ref c = copy_roots[i].asRef(), b = borrow_roots[i].asRef();
            ASSERT_EQ(copying.header(c).kind, borrowing.header(b).kind);
            EXPECT_EQ(copying.header(c).size, borrowing.header(b).size);
            if (copying.header(c).kind == vm::ObjKind::Bytes)
                EXPECT_EQ(copying.bytes(c), borrowing.bytes(b)) << i;
        }
    };

    constexpr std::size_t kSteps = 40;
    ASSERT_EQ(seq.run(copying, blob_k, node_k, blob_k, false, 0, kSteps,
                      copy_roots),
              2 * kSteps);
    ASSERT_EQ(seq.run(borrowing, blob_k, node_k, blob_k, true, 0, kSteps,
                      borrow_roots),
              2 * kSteps);
    expectSameHeaps();
    uint8_t id = borrowing.allocSpaceId();
    EXPECT_LT(borrowing.space(id).used(), copying.space(id).used());
    EXPECT_LT(borrowing.space(id).used(), borrowing.space(id).charged());

    // A collection with a live subset copies, frees and pauses alike,
    // and the borrowed survivors still occupy less arena.
    for (int cycle = 0; cycle < 2; ++cycle) {
        expectSameStats(copy_gc.collect(), borrow_gc.collect());
        expectSameHeaps();
        id = borrowing.allocSpaceId();
        EXPECT_LT(borrowing.space(id).used(), copying.space(id).used());
    }

    // Both exhaust the semispace on the same request.
    std::size_t copy_fail = seq.run(copying, blob_k, node_k, blob_k, false,
                                    kSteps, 100000, copy_roots);
    std::size_t borrow_fail = seq.run(borrowing, blob_k, node_k, blob_k,
                                      true, kSteps, 100000, borrow_roots);
    EXPECT_LT(copy_fail, 2u * 100000);
    EXPECT_EQ(copy_fail, borrow_fail);
    EXPECT_EQ(copying.allocWouldFail(64), borrowing.allocWouldFail(64));
    expectSameHeaps();
    expectSameStats(copy_gc.collect(), borrow_gc.collect());
    expectSameHeaps();
}

TEST_F(GcTest, ShortRowsAreCopiedNotBorrowed)
{
    const std::string row = "0123456789abcdefXYZ";
    Rows resp;
    for (std::size_t len : {0, 1, 15, 16, 17, 19})
        resp.push_back(std::make_shared<const std::string>(row, 0, len));
    Rows held = resp;
    Ref arr = rowArray(*heap, blob_k, blob_k, resp);
    ASSERT_NE(arr, vm::kNullRef);
    for (uint32_t i = 0; i < held.size(); ++i) {
        std::size_t len = held[i]->size();
        Ref r = heap->elem(arr, i).asRef();
        const vm::ObjHeader &hdr = heap->header(r);
        EXPECT_EQ(heap->bytes(r), std::string_view(row.data(), len));
        // Borrowing only pays once the copy would outgrow the pointer.
        EXPECT_EQ(bool(hdr.flags & vm::kFlagBorrowed), len > 16) << len;
        EXPECT_EQ(Heap::footprint(hdr),
                  len > 16 ? Heap::kBorrowedFootprint : hdr.size);
        // The heap took the borrowed rows' handles as their pins; a
        // copied row's handle stays with the response.
        EXPECT_EQ(resp[i] == nullptr, len > 16) << len;
    }
}

TEST_F(GcTest, BorrowedRowsCloneInlineOutOfTheirSemispaces)
{
    auto row = std::make_shared<const std::string>(300, 'r');
    std::weak_ptr<const std::string> alive = row;
    auto src = std::make_unique<Heap>(program, 1 << 16, 1 << 16);
    Heap dst(program, 1 << 16, 1 << 16);
    Rows resp{row};
    Ref arr = rowArray(*src, blob_k, blob_k, resp);
    ASSERT_NE(arr, vm::kNullRef);
    Ref b = src->elem(arr, 0).asRef();
    ASSERT_TRUE(src->header(b).flags & vm::kFlagBorrowed);
    ASSERT_EQ(Heap::footprint(src->header(b)), Heap::kBorrowedFootprint);

    Ref own_closure = src->cloneObject(b, Heap::kClosureSpaceId);
    Ref other_alloc = dst.cloneFrom(*src, b, dst.allocSpaceId());
    Ref other_closure = dst.cloneFrom(*src, b, Heap::kClosureSpaceId);
    for (auto [h, r] : {std::pair<Heap *, Ref>{src.get(), own_closure},
                        {&dst, other_alloc},
                        {&dst, other_closure}}) {
        const vm::ObjHeader &hdr = h->header(r);
        EXPECT_FALSE(hdr.flags & vm::kFlagBorrowed);
        EXPECT_EQ(hdr.size, src->header(b).size);
        EXPECT_EQ(Heap::footprint(hdr), hdr.size);
        EXPECT_EQ(h->bytes(r), *row);
    }
    std::string want = *row;

    // Nothing but the source heap's pin keeps the row; destroying the
    // heap releases it, and the inline copies read on.
    row.reset();
    EXPECT_FALSE(alive.expired());
    src.reset();
    EXPECT_TRUE(alive.expired());
    EXPECT_EQ(dst.bytes(other_alloc), want);
    EXPECT_EQ(dst.bytes(other_closure), want);
}

TEST_F(GcTest, RowArrayFailsWhereRowByRowFails)
{
    // Short (copied) and long (borrowed) rows, so the failing row is
    // either kind.
    Rows rows;
    for (std::size_t len : {620, 7, 100, 16, 3000, 17, 620, 0})
        rows.push_back(std::make_shared<const std::string>(
            len, static_cast<char>('a' + len % 26)));
    constexpr std::size_t kSemispace = 1 << 14;
    // Objects a failed response left allocated: 0 when its array
    // failed, 1 + k when row k did.
    std::set<uint64_t> failed_after;
    // Each filler leaves a different amount of room, so the response
    // fails at its array, at each row, or fits.
    for (std::size_t room = 0; room <= 6000; room += 8) {
        Heap ref_heap(program, 1 << 12, kSemispace);
        Heap heap(program, 1 << 12, kSemispace);
        for (Heap *h : {&ref_heap, &heap}) {
            std::size_t fill = kSemispace - Space::firstOffset() -
                               sizeof(vm::ObjHeader) - room;
            ASSERT_NE(h->allocBytes(blob_k, std::string(fill, 'f')),
                      vm::kNullRef);
        }
        Rows resp = rows;
        Ref want = rowByRow(ref_heap, node_k, blob_k, rows);
        Ref got = rowArray(heap, node_k, blob_k, resp);
        ASSERT_EQ(want == vm::kNullRef, got == vm::kNullRef) << room;
        for (uint8_t id : {Heap::kAllocAId, Heap::kAllocBId}) {
            EXPECT_EQ(ref_heap.space(id).charged(),
                      heap.space(id).charged())
                << room;
        }
        EXPECT_EQ(ref_heap.stats().objects_allocated,
                  heap.stats().objects_allocated)
            << room;
        EXPECT_EQ(ref_heap.stats().bytes_allocated,
                  heap.stats().bytes_allocated)
            << room;
        EXPECT_EQ(ref_heap.stats().peak_used, heap.stats().peak_used)
            << room;
        if (got != vm::kNullRef)
            continue;
        failed_after.insert(heap.stats().objects_allocated - 1);
        // The failed call kept every handle; a collection (nothing
        // is live) makes room and the retry borrows them.
        for (std::size_t i = 0; i < rows.size(); ++i)
            ASSERT_EQ(resp[i], rows[i]) << room;
        SemiSpaceCollector gc(heap);
        gc.collect();
        got = rowArray(heap, node_k, blob_k, resp);
        ASSERT_NE(got, vm::kNullRef) << room;
        ASSERT_EQ(heap.count(got), rows.size());
        for (uint32_t i = 0; i < rows.size(); ++i)
            EXPECT_EQ(heap.bytes(heap.elem(got, i).asRef()), *rows[i]);
    }
    // The array and every row failed for some room.
    EXPECT_EQ(failed_after.size(), rows.size() + 1);
}

/**
 * Property: after GC, a randomly shaped object graph reachable from
 * a root is isomorphic to what was built (checked via payload walk),
 * for various graph sizes.
 */
class GcGraphProperty : public ::testing::TestWithParam<int>
{};

TEST_P(GcGraphProperty, ReachableGraphSurvivesExactly)
{
    Program program;
    vm::Klass node;
    node.name = "Node";
    node.fields = {"a", "b", "val"};
    KlassId node_k = program.addKlass(node);
    Heap heap(program, 1 << 20, 1 << 20);
    SemiSpaceCollector gc(heap);

    const int n = GetParam();
    std::vector<Ref> nodes;
    for (int i = 0; i < n; ++i) {
        Ref r = heap.allocPlain(node_k);
        heap.setField(r, 2, Value::ofInt(i));
        nodes.push_back(r);
    }
    // Deterministic pseudo-random edges.
    for (int i = 0; i < n; ++i) {
        heap.setField(nodes[i], 0, Value::ofRef(nodes[(i * 7 + 3) % n]));
        heap.setField(nodes[i], 1,
                      Value::ofRef(nodes[(i * 13 + 1) % n]));
    }
    // Garbage interleaved.
    for (int i = 0; i < n; ++i)
        heap.allocPlain(node_k);

    Value root = Value::ofRef(nodes[0]);
    gc.addValueRoots([&](const auto &visit) { visit(root); });
    GcCycleStats stats = gc.collect();
    EXPECT_LE(stats.objects_copied, static_cast<uint64_t>(n));

    // Walk the copied graph: values and topology must match.
    std::set<Ref> visited;
    std::function<void(Ref, int)> check = [&](Ref r, int expect_val) {
        if (visited.count(r))
            return;
        visited.insert(r);
        EXPECT_EQ(heap.field(r, 2).asInt(), expect_val);
        int i = expect_val;
        check(heap.field(r, 0).asRef(), (i * 7 + 3) % n);
        check(heap.field(r, 1).asRef(), (i * 13 + 1) % n);
    };
    check(root.asRef(), 0);
    EXPECT_EQ(visited.size(), stats.objects_copied);
}

INSTANTIATE_TEST_SUITE_P(GraphSizes, GcGraphProperty,
                         ::testing::Values(1, 2, 5, 17, 100, 500));

} // namespace
} // namespace beehive::gc
