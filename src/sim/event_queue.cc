#include "sim/event_queue.h"

#include <algorithm>

#include "support/logging.h"

namespace beehive::sim {

uint32_t
EventQueue::acquireSlot()
{
    if (free_head_ != kNoSlot) {
        uint32_t idx = free_head_;
        free_head_ = slots_[idx].link;
        return idx;
    }
    bh_assert(slots_.size() < kNoSlot, "event slot pool exhausted");
    slots_.emplace_back();
    return static_cast<uint32_t>(slots_.size() - 1);
}

void
EventQueue::releaseSlot(uint32_t idx)
{
    Slot &s = slots_[idx];
    s.cb.reset();
    s.pending = false;
    ++s.generation;
    s.link = free_head_;
    free_head_ = idx;
}

uint32_t
EventQueue::pendingSlot(EventId id) const
{
    uint64_t hi = id >> 32;
    if (hi == 0 || hi > slots_.size())
        return kNoSlot;
    uint32_t idx = static_cast<uint32_t>(hi - 1);
    const Slot &s = slots_[idx];
    if (!s.pending || s.generation != static_cast<uint32_t>(id))
        return kNoSlot;
    return idx;
}

void
EventQueue::siftUp(uint32_t pos, const HeapEntry &e)
{
    while (pos > 0) {
        uint32_t parent = (pos - 1) / kArity;
        if (!before(e, heap_[parent]))
            break;
        place(pos, heap_[parent]);
        pos = parent;
    }
    place(pos, e);
}

void
EventQueue::siftDown(uint32_t pos, const HeapEntry &e)
{
    const auto n = static_cast<uint32_t>(heap_.size());
    for (;;) {
        uint64_t first = static_cast<uint64_t>(pos) * kArity + 1;
        if (first >= n)
            break;
        auto best = static_cast<uint32_t>(first);
        auto end = static_cast<uint32_t>(
            std::min<uint64_t>(first + kArity, n));
        for (uint32_t c = best + 1; c < end; ++c) {
            if (before(heap_[c], heap_[best]))
                best = c;
        }
        if (!before(heap_[best], e))
            break;
        place(pos, heap_[best]);
        pos = best;
    }
    place(pos, e);
}

void
EventQueue::resift(uint32_t pos, const HeapEntry &e)
{
    if (pos > 0 && before(e, heap_[(pos - 1) / kArity]))
        siftUp(pos, e);
    else
        siftDown(pos, e);
}

void
EventQueue::removeAt(uint32_t pos)
{
    HeapEntry last = heap_.back();
    heap_.pop_back();
    if (pos < heap_.size())
        resift(pos, last);
}

EventId
EventQueue::schedule(SimTime when, Callback cb)
{
    uint32_t idx = acquireSlot();
    Slot &s = slots_[idx];
    s.cb = std::move(cb);
    s.pending = true;
    heap_.emplace_back();
    siftUp(static_cast<uint32_t>(heap_.size() - 1),
           HeapEntry{when, next_seq_++, idx});
    ++scheduled_;
    return makeId(idx, s.generation);
}

bool
EventQueue::cancel(EventId id)
{
    uint32_t idx = pendingSlot(id);
    if (idx == kNoSlot)
        return false;
    removeAt(slots_[idx].link);
    releaseSlot(idx);
    ++cancelled_;
    return true;
}

bool
EventQueue::rearm(EventId id, SimTime when)
{
    uint32_t idx = pendingSlot(id);
    if (idx == kNoSlot)
        return false;
    // The key cancel() + schedule() would assign: the new time and
    // the next seq. Counted as that pair.
    resift(slots_[idx].link, HeapEntry{when, next_seq_++, idx});
    ++cancelled_;
    ++scheduled_;
    return true;
}

SimTime
EventQueue::runOne()
{
    bh_assert(!heap_.empty(), "runOne on empty event queue");
    HeapEntry top = heap_.front();
    removeAt(0);
    // Move the callback out and release the slot before invoking, so
    // the callback may schedule new events (possibly reusing this
    // very slot) without invalidating anything.
    Callback cb = std::move(slots_[top.slot].cb);
    releaseSlot(top.slot);
    ++dispatched_;
    cb();
    return top.when;
}

} // namespace beehive::sim
