#include "vm/heap.h"

#include <sys/mman.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <utility>

#include "support/logging.h"
#include "support/strutil.h"

namespace beehive::vm {

namespace {

constexpr uint32_t
alignUp(uint32_t bytes)
{
    return (bytes + 7u) & ~7u;
}

} // namespace

Space::Space(uint8_t id, std::size_t capacity)
    : id_(id), mem_(nullptr), capacity_(capacity), top_(firstOffset()),
      charged_(firstOffset())
{
    bh_assert(capacity > firstOffset(), "space too small");
    // Anonymous private pages read zero until first written and are
    // committed one at a time on first touch, so the arena costs
    // host time and memory only for the bytes the heap touches.
    void *mem = mmap(nullptr, capacity, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (mem == MAP_FAILED) {
        panic("cannot map %zu bytes for heap space %u: %s", capacity, id,
              std::strerror(errno));
    }
    mem_ = static_cast<uint8_t *>(mem);
}

Space::~Space()
{
    if (mem_)
        munmap(mem_, capacity_);
}

Space::Space(Space &&other) noexcept
    : id_(other.id_), mem_(std::exchange(other.mem_, nullptr)),
      capacity_(std::exchange(other.capacity_, 0)), top_(other.top_),
      charged_(other.charged_)
{
}

Space &
Space::operator=(Space &&other) noexcept
{
    if (this != &other) {
        if (mem_)
            munmap(mem_, capacity_);
        id_ = other.id_;
        mem_ = std::exchange(other.mem_, nullptr);
        capacity_ = std::exchange(other.capacity_, 0);
        top_ = other.top_;
        charged_ = other.charged_;
    }
    return *this;
}

CardTable::CardTable(std::size_t space_capacity)
    : dirty_((space_capacity + kCardBytes - 1) / kCardBytes, false)
{
}

void
CardTable::mark(uint64_t offset)
{
    std::size_t card = offset / kCardBytes;
    bh_assert(card < dirty_.size(), "card out of range");
    dirty_[card] = true;
}

bool
CardTable::isDirty(std::size_t card) const
{
    bh_assert(card < dirty_.size(), "card out of range");
    return dirty_[card];
}

std::size_t
CardTable::dirtyCount() const
{
    return static_cast<std::size_t>(
        std::count(dirty_.begin(), dirty_.end(), true));
}

std::pair<uint64_t, uint64_t>
CardTable::cardRange(std::size_t card) const
{
    return {card * kCardBytes, (card + 1) * kCardBytes};
}

void
CardTable::clearAll()
{
    std::fill(dirty_.begin(), dirty_.end(), false);
}

Heap::Heap(const Program &program, std::size_t closure_capacity,
           std::size_t alloc_capacity)
    : program_(program),
      closure_(kClosureSpaceId, closure_capacity),
      alloc_a_(kAllocAId, alloc_capacity),
      alloc_b_(kAllocBId, alloc_capacity),
      cards_(closure_capacity)
{
}

void
Heap::flipAllocSpace()
{
    pins_[alloc_space_ - kAllocAId].clear();
    alloc_space_ = otherAllocSpaceId();
}

Ref
Heap::rawAlloc(uint8_t space_id, uint32_t bytes, uint32_t charged)
{
    uint64_t offset = space(space_id).alloc(bytes, charged);
    if (offset == 0)
        return kNullRef;
    return makeRef(space_id, offset);
}

void
Heap::neverFits(uint8_t space_id, uint64_t count,
                uint64_t payload_bytes) const
{
    panic("object of %llu payload bytes (count %llu) can never fit "
          "in heap space %u of %zu bytes",
          static_cast<unsigned long long>(payload_bytes),
          static_cast<unsigned long long>(count), space_id,
          space(space_id).capacity());
}

Ref
Heap::allocObject(uint8_t space_id, KlassId klass, ObjKind kind,
                  uint64_t count, uint64_t payload_bytes)
{
    requireFits(space_id, objectLimit(space_id), count, payload_bytes);
    uint32_t total = alignUp(static_cast<uint32_t>(
        sizeof(ObjHeader) + payload_bytes));
    Ref ref = rawAlloc(space_id, total, total);
    if (ref == kNullRef)
        return kNullRef;
    auto *hdr = new (space(space_id).at(refOffset(ref))) ObjHeader();
    hdr->klass = klass;
    hdr->kind = kind;
    hdr->count = static_cast<uint32_t>(count);
    hdr->size = total;
    if (kind != ObjKind::Bytes) {
        Value *s = slots(ref);
        for (uint32_t i = 0; i < hdr->count; ++i)
            s[i] = Value::nil();
    }
    ++stats_.objects_allocated;
    stats_.bytes_allocated += total;
    stats_.peak_used = std::max(stats_.peak_used, usedBytes());
    return ref;
}

Ref
Heap::allocPlain(KlassId klass, bool in_closure)
{
    uint32_t nfields = program_.fieldCount(klass);
    return allocObject(in_closure ? kClosureSpaceId : alloc_space_,
                       klass, ObjKind::Plain, nfields,
                       nfields * sizeof(Value));
}

Ref
Heap::allocArray(KlassId klass, uint64_t len, bool in_closure)
{
    // Saturate: a length whose byte size would wrap 64 bits can
    // never fit either, and allocObject says so.
    constexpr uint64_t kMaxLen =
        std::numeric_limits<uint64_t>::max() / sizeof(Value);
    uint64_t payload = len > kMaxLen
                           ? std::numeric_limits<uint64_t>::max()
                           : len * sizeof(Value);
    return allocObject(in_closure ? kClosureSpaceId : alloc_space_,
                       klass, ObjKind::Array, len, payload);
}

Ref
Heap::allocBytes(KlassId klass, std::string_view data, bool in_closure)
{
    Ref ref = allocObject(in_closure ? kClosureSpaceId : alloc_space_,
                          klass, ObjKind::Bytes, data.size(),
                          data.size());
    if (ref == kNullRef)
        return kNullRef;
    std::memcpy(space(refSpace(ref)).at(refOffset(ref)) +
                    sizeof(ObjHeader),
                data.data(), data.size());
    return ref;
}

void
Heap::setFieldRaw(Ref obj, uint32_t idx, Value v)
{
    ObjHeader &hdr = header(obj);
    bh_assert(hdr.kind != ObjKind::Bytes, "field store on bytes");
    bh_assert(idx < hdr.count, "field index %u out of %u", idx,
              hdr.count);
    slots(obj)[idx] = v;
    // Card marking: a closure-space object now (possibly) references
    // an allocation-space object; the collector must treat this card
    // as a root region.
    if (refSpace(obj) == kClosureSpaceId && v.isRef() &&
        v.asRef() != kNullRef && !isRemote(v.asRef()) &&
        refSpace(v.asRef()) != kClosureSpaceId) {
        cards_.mark(refOffset(obj));
    }
}

void
Heap::setField(Ref obj, uint32_t idx, Value v)
{
    setFieldRaw(obj, idx, v);
    if (observer_)
        observer_(obj);
}

Ref
Heap::cloneObject(Ref src, uint8_t dst_space)
{
    return cloneFrom(*this, src, dst_space);
}

Ref
Heap::cloneFrom(const Heap &src_heap, Ref src, uint8_t dst_space)
{
    const ObjHeader &hdr = src_heap.header(src);
    bool was_borrowed = hdr.flags & kFlagBorrowed;
    // Evacuation keeps a row borrowed; any other copy (another heap,
    // the closure space) owns its bytes.
    bool borrow = was_borrowed && &src_heap == this &&
                  dst_space != kClosureSpaceId;
    Ref dst = rawAlloc(dst_space, borrow ? kBorrowedFootprint : hdr.size,
                       hdr.size);
    if (dst == kNullRef)
        return kNullRef;
    uint8_t *to = space(dst_space).at(refOffset(dst));
    const uint8_t *from = src_heap.space(refSpace(src)).at(refOffset(src));
    if (!was_borrowed) {
        std::memcpy(to, from, hdr.size);
    } else if (borrow) {
        std::memcpy(to, from, kBorrowedFootprint);
        auto &pins = pins_[dst_space - kAllocAId];
        borrowed(dst)->pin = pins.size();
        pins.push_back(pins_[refSpace(src) - kAllocAId][borrowed(src)->pin]);
    } else {
        std::memcpy(to, from, sizeof(ObjHeader));
        std::memcpy(to + sizeof(ObjHeader), src_heap.borrowed(src)->data,
                    hdr.count);
        header(dst).flags &= ~kFlagBorrowed;
    }
    header(dst).forward = kNullRef;
    ++stats_.objects_allocated;
    stats_.bytes_allocated += hdr.size;
    stats_.peak_used = std::max(stats_.peak_used, usedBytes());
    return dst;
}

std::string_view
Heap::bytes(Ref r) const
{
    const ObjHeader &hdr = header(r);
    bh_assert(hdr.kind == ObjKind::Bytes, "bytes() on non-bytes");
    if (hdr.flags & kFlagBorrowed)
        return std::string_view(borrowed(r)->data, hdr.count);
    return std::string_view(
        reinterpret_cast<const char *>(
            space(refSpace(r)).at(refOffset(r)) + sizeof(ObjHeader)),
        hdr.count);
}

bool
Heap::allocWouldFail(uint32_t slots_needed) const
{
    const Space &s = space(alloc_space_);
    std::size_t need = sizeof(ObjHeader) + slots_needed * sizeof(Value);
    return s.charged() + need > s.capacity();
}

std::size_t
Heap::usedBytes() const
{
    return closure_.charged() + space(alloc_space_).charged();
}

std::string
Heap::describe(Ref r) const
{
    if (r == kNullRef)
        return "null";
    if (isRemote(r))
        return strprintf("remote(%llx)",
                         static_cast<unsigned long long>(stripRemote(r)));
    const ObjHeader &hdr = header(r);
    const char *kind = hdr.kind == ObjKind::Plain
                           ? "obj"
                           : hdr.kind == ObjKind::Array ? "arr" : "bytes";
    return strprintf("%s %s#%u@%llx", kind,
                     program_.klass(hdr.klass).name.c_str(), hdr.count,
                     static_cast<unsigned long long>(r));
}

} // namespace beehive::vm
