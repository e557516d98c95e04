/**
 * @file
 * The HiveVM object heap.
 *
 * Each endpoint VM owns a Heap with three arena spaces mirroring the
 * paper's Section 4.4 layout:
 *
 *   - the *closure space* (id 0) holds the copied initial closure
 *     plus any objects later fetched from remote endpoints; it is
 *     never collected while the instance lives;
 *   - two *allocation semispaces* (ids 1 and 2) serve normal object
 *     allocation and are collected by a copying collector (src/gc).
 *
 * A 512-byte card table covers the closure space so the collector
 * only scans cards known to contain closure->allocation references.
 *
 * Each space is its own anonymous private mapping. The kernel commits
 * (and zero-fills) a page on first touch, so a space's capacity
 * reserves address space only; host time and resident memory follow
 * the bytes the simulation actually touches (DESIGN.md §14.6).
 *
 * Objects are laid out in the arenas as a fixed header followed by
 * either tagged value slots (plain objects, arrays) or raw bytes
 * (strings/blobs). All addressing goes through Ref (see value.h).
 *
 * An object's header size is what the model counts: GC triggers,
 * statistics and transfer sizes follow it. A *borrowed* byte object
 * (a DB row, kFlagBorrowed) keeps that size but occupies only its
 * header and a pointer to bytes the heap pins, so its host footprint
 * is Heap::kBorrowedFootprint (DESIGN.md §14.8).
 */

#ifndef BEEHIVE_VM_HEAP_H
#define BEEHIVE_VM_HEAP_H

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "support/logging.h"
#include "vm/program.h"
#include "vm/value.h"

namespace beehive::vm {

/** Physical shape of a heap object. */
enum class ObjKind : uint8_t { Plain = 0, Array, Bytes };

/** Object flag bits. */
enum ObjFlags : uint8_t
{
    kFlagShared = 1 << 0,  //!< present in a server mapping table
    kFlagPacked = 1 << 1,  //!< native state marshalled (Packageable)
    kFlagDirtySync = 1 << 2, //!< on the endpoint's dirty-object list
    kFlagBorrowed = 1 << 3, //!< bytes payload pinned outside the heap
};

/** Header preceding every heap object. */
struct ObjHeader
{
    uint32_t klass = 0;
    ObjKind kind = ObjKind::Plain;
    uint8_t flags = 0;
    /** Last monitor owner: endpoint id + 1; 0 = never locked. */
    uint16_t lock_owner = 0;
    /** Field count / array length / byte length. */
    uint32_t count = 0;
    /**
     * Total object size in bytes including this header (8-aligned):
     * what the heap charges, also for a borrowed object.
     */
    uint32_t size = 0;
    /** Forwarding address during GC; kNullRef when not forwarded. */
    Ref forward = kNullRef;
};

static_assert(sizeof(ObjHeader) == 24, "header layout drifted");

/**
 * One contiguous arena. Offsets start at 8 so 0 stays null.
 *
 * The arena is mapped at construction and unmapped on destruction;
 * untouched bytes read zero. Move-only: it owns its mapping.
 *
 * A space keeps two tops: used(), the physical bump pointer that
 * heap walks follow, and charged(), the bytes the model counts
 * against capacity(). They differ only by the borrowed objects the
 * space holds.
 */
class Space
{
  public:
    /** Panics (with @p capacity in the message) if mapping fails. */
    Space(uint8_t id, std::size_t capacity);
    ~Space();

    Space(Space &&other) noexcept;
    Space &operator=(Space &&other) noexcept;
    Space(const Space &) = delete;
    Space &operator=(const Space &) = delete;

    /**
     * Bump-allocate @p bytes of arena and charge @p charged bytes
     * (both 8-aligned, @p charged >= @p bytes).
     * @return Arena offset, or 0 when the charge would exhaust the
     *         space.
     */
    uint64_t alloc(uint32_t bytes, uint32_t charged);
    /** An object charged exactly what it occupies. */
    uint64_t alloc(uint32_t bytes) { return alloc(bytes, bytes); }

    uint8_t *at(uint64_t offset);
    const uint8_t *at(uint64_t offset) const;

    uint8_t id() const { return id_; }
    /** Physical top: the end of the allocated objects. */
    std::size_t used() const { return top_; }
    /** Charged top: the end the objects' sizes add up to. */
    std::size_t charged() const { return charged_; }
    std::size_t capacity() const { return capacity_; }

    /** Offset where iteration of allocated objects begins. */
    static constexpr uint64_t firstOffset() { return 8; }

    /** Reset both tops (collection of a semispace). */
    void reset() { top_ = charged_ = firstOffset(); }

  private:
    uint8_t id_;
    uint8_t *mem_;
    std::size_t capacity_;
    std::size_t top_;
    std::size_t charged_;
};

/** Dirty-card tracking over the closure space (512-byte cards). */
class CardTable
{
  public:
    static constexpr std::size_t kCardBytes = 512;

    explicit CardTable(std::size_t space_capacity);

    /** Mark the card covering byte @p offset dirty. */
    void mark(uint64_t offset);

    bool isDirty(std::size_t card) const;
    std::size_t cardCount() const { return dirty_.size(); }
    std::size_t dirtyCount() const;

    /** Byte range covered by card @p card. */
    std::pair<uint64_t, uint64_t> cardRange(std::size_t card) const;

    /** Clear all dirty marks (after a GC cycle scanned them). */
    void clearAll();

  private:
    std::vector<bool> dirty_;
};

/** Allocation/GC statistics for Section 5.6 reporting. */
struct HeapStats
{
    uint64_t objects_allocated = 0;
    uint64_t bytes_allocated = 0;
    std::size_t peak_used = 0;
};

/**
 * The per-endpoint object heap.
 *
 * The heap itself is policy-free: collection lives in src/gc, write
 * observation (dirty-object lists for sync, Section 4.2) is a hook
 * installed by the BeeHive runtime.
 */
class Heap
{
  public:
    static constexpr uint8_t kClosureSpaceId = 0;
    static constexpr uint8_t kAllocAId = 1;
    static constexpr uint8_t kAllocBId = 2;

    /** Observer invoked after every reference-field store. */
    using WriteObserver = std::function<void(Ref obj)>;

    /**
     * Arena bytes of a borrowed object: its header, the borrowed
     * bytes' address and the index of the pin that keeps them alive.
     */
    static constexpr uint32_t kBorrowedFootprint = sizeof(ObjHeader) + 16;

    /** Arena bytes @p hdr's object occupies (its size unless borrowed). */
    static uint32_t
    footprint(const ObjHeader &hdr)
    {
        return hdr.flags & kFlagBorrowed ? kBorrowedFootprint : hdr.size;
    }

    /**
     * @param program Program supplying klass metadata.
     * @param closure_capacity Closure space size in bytes.
     * @param alloc_capacity Size of EACH allocation semispace.
     */
    Heap(const Program &program, std::size_t closure_capacity,
         std::size_t alloc_capacity);

    /**
     * @name Allocation
     * Each returns kNullRef when the target space is too full right
     * now (a GC may make room) and panics when the object could never
     * fit in that space.
     */
    /// @{
    /** Allocate a plain object of @p klass (fields nil-initialised). */
    Ref allocPlain(KlassId klass, bool in_closure = false);

    /** Allocate an array of @p len tagged slots. */
    Ref allocArray(KlassId klass, uint64_t len, bool in_closure = false);

    /** Allocate a byte object holding a copy of @p data. */
    Ref allocBytes(KlassId klass, std::string_view data,
                   bool in_closure = false);

    /**
     * Allocate, in the active semispace, the array a DB read returns:
     * an array of @p arr_klass whose element i is a byte object of
     * @p bytes_klass holding wire(*rows[i]), the immutable bytes that
     * rows[i] owns. Objects, charges and stats are exactly those of
     * allocArray() followed by one allocBytes() per row, and so is
     * the failure point: if row k does not fit, the array and rows
     * 0..k-1 stay allocated and the result is kNullRef.
     *
     * A row longer than the borrowed payload is borrowed (footprint
     * kBorrowedFootprint) and pinned until its semispace is
     * collected; a shorter one is copied. When the whole array fits,
     * the pins are the borrowed rows' handles, moved out of @p rows;
     * on failure every handle stays in @p rows, so the caller can
     * collect and retry. The array is new and in a semispace, so its
     * element stores need no card mark and fire no write observer.
     */
    template <typename Owner, typename Wire>
    Ref allocRowArray(KlassId arr_klass, KlassId bytes_klass,
                      std::span<std::shared_ptr<const Owner>> rows,
                      Wire wire);
    /// @}

    /** @name Object access */
    /// @{
    ObjHeader &header(Ref r);
    const ObjHeader &header(Ref r) const;

    Value field(Ref obj, uint32_t idx) const;
    /** Store a field; fires the write observer and card marking. */
    void setField(Ref obj, uint32_t idx, Value v);

    /** Array element accessors (same slot layout as fields). */
    Value elem(Ref arr, uint32_t idx) const { return field(arr, idx); }
    void setElem(Ref arr, uint32_t idx, Value v) { setField(arr, idx, v); }

    std::string_view bytes(Ref r) const;
    uint32_t count(Ref r) const;
    /// @}

    /** @name GC interface */
    /// @{
    Space &space(uint8_t id);
    const Space &space(uint8_t id) const;

    /** Id of the semispace currently serving allocations. */
    uint8_t allocSpaceId() const { return alloc_space_; }
    uint8_t otherAllocSpaceId() const
    {
        return alloc_space_ == kAllocAId ? kAllocBId : kAllocAId;
    }
    /**
     * Swap from-/to-space after a copying collection, dropping the
     * old from-space's pins.
     */
    void flipAllocSpace();

    CardTable &cards() { return cards_; }
    const CardTable &cards() const { return cards_; }

    /**
     * True when allocating an object of @p slots tagged slots in the
     * active semispace would fail.
     */
    bool allocWouldFail(uint32_t slots) const;

    /**
     * Shallow-copy a whole object (header + payload) into another
     * space. Field values are copied verbatim; the caller fixes
     * references. Used by the copying collector and by closure
     * construction.
     *
     * @return The clone's address, or kNullRef on exhaustion.
     */
    Ref cloneObject(Ref src, uint8_t dst_space);

    /**
     * Copy an object that lives in @p src_heap (this heap or another:
     * closure installation, sync promotion) into one of this heap's
     * spaces. Field values are copied verbatim; the caller translates
     * references. A borrowed object stays borrowed, sharing its pin,
     * only when it moves between this heap's semispaces; anywhere
     * else its bytes are copied inline and the flag is cleared.
     */
    Ref cloneFrom(const Heap &src_heap, Ref src, uint8_t dst_space);

    /**
     * Store a field without firing the write observer (collector
     * use); card marking still happens.
     */
    void setFieldRaw(Ref obj, uint32_t idx, Value v);
    /// @}

    void setWriteObserver(WriteObserver obs) { observer_ = std::move(obs); }

    const Program &program() const { return program_; }
    const HeapStats &stats() const { return stats_; }

    /** Bytes charged across closure + active semispace. */
    std::size_t usedBytes() const;

    /** Walk all objects in a space, in address order. */
    template <typename Fn>
    void forEachObject(uint8_t space_id, Fn &&fn);

    /** Deep human-readable dump of one object (debugging). */
    std::string describe(Ref r) const;

  private:
    /**
     * Carve out and initialise one object. Returns kNullRef when the
     * space is currently too full; panics when the object could never
     * fit in it (a GC would not help, so HeapFull would loop).
     */
    Ref allocObject(uint8_t space_id, KlassId klass, ObjKind kind,
                    uint64_t count, uint64_t payload_bytes);

    /**
     * The largest object space @p space_id could ever hold: its
     * capacity, and at most what the header's 32-bit size can say.
     */
    uint64_t objectLimit(uint8_t space_id) const
    {
        return std::min<uint64_t>(
            space(space_id).capacity() - Space::firstOffset(),
            std::numeric_limits<uint32_t>::max());
    }
    /**
     * Panic unless an object of @p payload_bytes fits under @p limit:
     * one that never could is a bug, not heap pressure (returning
     * kNullRef would make the caller collect and retry forever).
     */
    void
    requireFits(uint8_t space_id, uint64_t limit, uint64_t count,
                uint64_t payload_bytes) const
    {
        // Sizes stay 64-bit until they are known to fit.
        if (payload_bytes > limit ||
            ((sizeof(ObjHeader) + payload_bytes + 7) & ~uint64_t{7}) >
                limit) [[unlikely]] {
            neverFits(space_id, count, payload_bytes);
        }
    }
    [[noreturn]] void neverFits(uint8_t space_id, uint64_t count,
                                uint64_t payload_bytes) const;

    /** Bump both tops of @p space_id; kNullRef on exhaustion. */
    Ref rawAlloc(uint8_t space_id, uint32_t bytes, uint32_t charged);

    /** The payload of a borrowed object. */
    struct Borrowed
    {
        const char *data;
        uint64_t pin; //!< index into its semispace's pins
    };
    static_assert(sizeof(ObjHeader) + sizeof(Borrowed) ==
                      kBorrowedFootprint,
                  "borrowed layout drifted");

    Value *slots(Ref r);
    const Value *slots(Ref r) const;
    Borrowed *borrowed(Ref r);
    const Borrowed *borrowed(Ref r) const;

    const Program &program_;
    Space closure_;
    Space alloc_a_;
    Space alloc_b_;
    uint8_t alloc_space_ = kAllocAId;
    /**
     * Per semispace (A, B): the owners of the bytes its borrowed
     * objects point at, indexed by Borrowed::pin.
     */
    std::vector<std::shared_ptr<const void>> pins_[2];
    CardTable cards_;
    WriteObserver observer_;
    HeapStats stats_;
};

// Hot accessors, inline because the interpreter's dispatch loop
// calls them on every field access; their asserts stay.

inline uint8_t *
Space::at(uint64_t offset)
{
    bh_assert(offset >= firstOffset() && offset < capacity_,
              "offset %llu out of space %u",
              static_cast<unsigned long long>(offset), id_);
    return mem_ + offset;
}

inline const uint8_t *
Space::at(uint64_t offset) const
{
    bh_assert(offset >= firstOffset() && offset < capacity_,
              "offset %llu out of space %u",
              static_cast<unsigned long long>(offset), id_);
    return mem_ + offset;
}

inline uint64_t
Space::alloc(uint32_t bytes, uint32_t charged)
{
    bytes = (bytes + 7u) & ~7u;
    charged = (charged + 7u) & ~7u;
    bh_assert(bytes <= charged, "object charged less than it occupies");
    // The physical top never passes the charged one, so a charge
    // that fits leaves room for the bytes.
    if (charged_ + charged > capacity_)
        return 0;
    uint64_t offset = top_;
    top_ += bytes;
    charged_ += charged;
    return offset;
}

inline Space &
Heap::space(uint8_t id)
{
    switch (id) {
      case kClosureSpaceId: return closure_;
      case kAllocAId: return alloc_a_;
      case kAllocBId: return alloc_b_;
    }
    panic("bad space id %u", id);
}

inline const Space &
Heap::space(uint8_t id) const
{
    return const_cast<Heap *>(this)->space(id);
}

inline ObjHeader &
Heap::header(Ref r)
{
    bh_assert(r != kNullRef, "null deref");
    bh_assert(!isRemote(r), "header() on remote ref");
    return *reinterpret_cast<ObjHeader *>(
        space(refSpace(r)).at(refOffset(r)));
}

inline const ObjHeader &
Heap::header(Ref r) const
{
    return const_cast<Heap *>(this)->header(r);
}

inline Value *
Heap::slots(Ref r)
{
    return reinterpret_cast<Value *>(
        space(refSpace(r)).at(refOffset(r)) + sizeof(ObjHeader));
}

inline const Value *
Heap::slots(Ref r) const
{
    return const_cast<Heap *>(this)->slots(r);
}

inline Heap::Borrowed *
Heap::borrowed(Ref r)
{
    return reinterpret_cast<Borrowed *>(
        space(refSpace(r)).at(refOffset(r)) + sizeof(ObjHeader));
}

inline const Heap::Borrowed *
Heap::borrowed(Ref r) const
{
    return const_cast<Heap *>(this)->borrowed(r);
}

template <typename Fn>
void
Heap::forEachObject(uint8_t space_id, Fn &&fn)
{
    Space &s = space(space_id);
    uint64_t offset = Space::firstOffset();
    while (offset < s.used()) {
        Ref ref = makeRef(space_id, offset);
        const ObjHeader &hdr = header(ref);
        bh_assert(hdr.size >= sizeof(ObjHeader), "corrupt heap walk");
        fn(ref);
        offset += footprint(hdr);
    }
}

template <typename Owner, typename Wire>
Ref
Heap::allocRowArray(KlassId arr_klass, KlassId bytes_klass,
                    std::span<std::shared_ptr<const Owner>> rows, Wire wire)
{
    Ref arr = allocArray(arr_klass, rows.size());
    if (arr == kNullRef)
        return kNullRef;
    const uint8_t sid = alloc_space_;
    Space &s = space(sid);
    const uint64_t limit = objectLimit(sid);
    auto &pins = pins_[sid - kAllocAId];
    Value *slot = slots(arr);
    const std::size_t first_pin = pins.size();
    uint64_t bytes_allocated = 0;
    std::size_t done = 0;
    for (; done < rows.size(); ++done) {
        std::string_view w = wire(*rows[done]);
        requireFits(sid, limit, w.size(), w.size());
        uint32_t total = static_cast<uint32_t>(
            (sizeof(ObjHeader) + w.size() + 7) & ~std::size_t{7});
        // Borrowing only pays once the copy would outgrow the pointer.
        bool borrow = sizeof(ObjHeader) + w.size() > kBorrowedFootprint;
        uint64_t offset = s.alloc(borrow ? kBorrowedFootprint : total, total);
        if (offset == 0)
            break;
        uint8_t *at = s.at(offset);
        auto *hdr = new (at) ObjHeader();
        hdr->klass = bytes_klass;
        hdr->kind = ObjKind::Bytes;
        hdr->flags = borrow ? kFlagBorrowed : 0;
        hdr->count = static_cast<uint32_t>(w.size());
        hdr->size = total;
        if (borrow) {
            // The row's handle becomes its pin (w stays valid: the
            // pin owns its bytes now).
            new (at + sizeof(ObjHeader)) Borrowed{w.data(), pins.size()};
            pins.emplace_back(std::move(rows[done]));
        } else {
            std::memcpy(at + sizeof(ObjHeader), w.data(), w.size());
        }
        slot[done] = Value::ofRef(makeRef(sid, offset));
        bytes_allocated += total;
    }
    stats_.objects_allocated += done;
    stats_.bytes_allocated += bytes_allocated;
    stats_.peak_used = std::max(stats_.peak_used, usedBytes());
    if (done == rows.size())
        return arr;
    // Hand the caller a share of every handle the pins took, so it
    // can collect and retry; the pins keep the failed rows readable
    // until their semispace is collected.
    for (std::size_t i = 0, pin = first_pin; i < done; ++i) {
        if (header(slot[i].asRef()).flags & kFlagBorrowed)
            rows[i] = std::static_pointer_cast<const Owner>(pins[pin++]);
    }
    return kNullRef;
}

inline uint32_t
Heap::count(Ref r) const
{
    return header(r).count;
}

inline Value
Heap::field(Ref obj, uint32_t idx) const
{
    const ObjHeader &hdr = header(obj);
    bh_assert(hdr.kind != ObjKind::Bytes, "field access on bytes");
    bh_assert(idx < hdr.count, "field index %u out of %u in %s", idx,
              hdr.count, program_.klass(hdr.klass).name.c_str());
    return slots(obj)[idx];
}

} // namespace beehive::vm

#endif // BEEHIVE_VM_HEAP_H
