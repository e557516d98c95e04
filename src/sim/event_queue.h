/**
 * @file
 * The discrete-event queue at the heart of the simulator.
 *
 * Events are closures scheduled at absolute simulated times. Ties are
 * broken by insertion order so execution is deterministic. Events may
 * be cancelled, or moved to a new time, through the EventId returned
 * at scheduling time.
 *
 * Internals (hot path, see DESIGN.md section 14.3): callbacks live in
 * a slab of pooled slots (SmallFn keeps captures inline, so the
 * common schedule/fire cycle allocates nothing once the pool is
 * warm), and the time-ordered index is an indexed 4-ary min-heap of
 * light {when, seq, slot} records. Each pending slot knows its
 * record's heap position, so cancel() removes the record at once and
 * rearm() re-keys it in place: the heap holds exactly the pending
 * events, never a stale record.
 *
 * Exactness: (when, seq) is a strict total order (seq is unique), so
 * the firing order depends only on the keys, never on the heap's
 * shape. rearm() assigns the key that cancel() plus schedule() of the
 * same callback would assign -- the new time and the next seq -- and
 * counts one cancel plus one schedule, so replacing that pair with a
 * rearm changes neither the firing order nor any counter.
 */

#ifndef BEEHIVE_SIM_EVENT_QUEUE_H
#define BEEHIVE_SIM_EVENT_QUEUE_H

#include <cstdint>
#include <vector>

#include "sim/sim_time.h"
#include "sim/small_fn.h"

namespace beehive::sim {

/**
 * Opaque handle identifying a scheduled event. Encodes {slot,
 * generation}; never 0, so 0 is usable as a "no event" sentinel.
 */
using EventId = uint64_t;

/** Time-ordered queue of pending simulation events. */
class EventQueue
{
  public:
    using Callback = SmallFn;

    /**
     * Schedule @p cb to run at absolute time @p when.
     *
     * @return A handle usable with cancel() and rearm().
     */
    EventId schedule(SimTime when, Callback cb);

    /**
     * Cancel a previously scheduled event.
     *
     * Cancelling an already-fired or already-cancelled event is a
     * harmless no-op (returns false).
     *
     * @retval true if the event was pending and is now cancelled.
     */
    bool cancel(EventId id);

    /**
     * Move a pending event to @p when, keeping its callback and id.
     *
     * Exactly equivalent to cancel(id) followed by schedule(when,
     * same callback): the event takes the next insertion sequence
     * number (so it fires after every event already scheduled for
     * @p when), and one cancel plus one schedule are counted.
     *
     * @retval false (and nothing changes) if @p id already fired or
     *         was cancelled.
     */
    bool rearm(EventId id, SimTime when);

    /** True if no runnable events remain. */
    bool empty() const { return heap_.empty(); }

    /** Time of the earliest pending event; max() when empty. */
    SimTime
    nextTime() const
    {
        return heap_.empty() ? SimTime::max() : heap_.front().when;
    }

    /**
     * Pop and run the earliest event.
     *
     * @return The time at which the event fired.
     */
    SimTime runOne();

    /** Number of events dispatched so far (for stats/tests). */
    uint64_t dispatched() const { return dispatched_; }

    /** Number of events scheduled so far (rearms count one each). */
    uint64_t scheduled() const { return scheduled_; }

    /** Number of events cancelled before firing (rearms count one
     * each). */
    uint64_t cancelled() const { return cancelled_; }

    /** Number of currently pending (not fired/cancelled) events. */
    std::size_t pending() const { return heap_.size(); }

  private:
    static constexpr uint32_t kNoSlot = UINT32_MAX;
    /** Children per heap node: a 4-ary heap is half as deep as a
     * binary one, and a node's children are adjacent in memory. */
    static constexpr uint32_t kArity = 4;

    /** One pooled callback slot, reused across events. */
    struct Slot
    {
        Callback cb;
        /**
         * Bumped every time the slot is released (fired or
         * cancelled); an EventId carrying an older generation is
         * stale. 32 bits wrap after 4 billion reuses of one slot --
         * far beyond any simulated run here.
         */
        uint32_t generation = 0;
        /** Free-list link while free; heap_ index while pending. */
        uint32_t link = kNoSlot;
        bool pending = false;
    };

    /** Light heap record; the callback stays in the slab. */
    struct HeapEntry
    {
        SimTime when;
        uint64_t seq;
        uint32_t slot;
    };

    static bool
    before(const HeapEntry &a, const HeapEntry &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    static EventId
    makeId(uint32_t slot, uint32_t generation)
    {
        return (static_cast<EventId>(slot) + 1) << 32 | generation;
    }

    /** Slot index of a pending event, or kNoSlot if @p id is stale. */
    uint32_t pendingSlot(EventId id) const;

    uint32_t acquireSlot();
    void releaseSlot(uint32_t idx);

    /** Store @p e at heap position @p pos and record it in its slot. */
    void
    place(uint32_t pos, const HeapEntry &e)
    {
        heap_[pos] = e;
        slots_[e.slot].link = pos;
    }

    /** Move the hole at @p pos up until @p e fits, then place it. */
    void siftUp(uint32_t pos, const HeapEntry &e);
    /** Move the hole at @p pos down until @p e fits, then place it. */
    void siftDown(uint32_t pos, const HeapEntry &e);
    /** Re-seat @p e at @p pos after its key changed either way. */
    void resift(uint32_t pos, const HeapEntry &e);
    /** Remove the record at heap position @p pos. */
    void removeAt(uint32_t pos);

    std::vector<HeapEntry> heap_;
    std::vector<Slot> slots_;
    uint32_t free_head_ = kNoSlot;
    uint64_t next_seq_ = 0;
    uint64_t dispatched_ = 0;
    uint64_t scheduled_ = 0;
    uint64_t cancelled_ = 0;
};

} // namespace beehive::sim

#endif // BEEHIVE_SIM_EVENT_QUEUE_H
