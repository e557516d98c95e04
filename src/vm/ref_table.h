/**
 * @file
 * RefTable: a flat open-addressing map from a heap Ref to a uint64_t.
 *
 * The Semi-FaaS address layer (the server's per-function mapping
 * tables, a function's remote map and the sync flush-log index) looks
 * refs up on every closure install, fetch and sync. Those tables only
 * grow, and a moving collection rebuilds them wholesale, so nothing
 * needs a node-based map: a RefTable keeps {key, value} pairs in one
 * power-of-two slot vector, probes linearly from a Fibonacci hash and
 * is at most half full. kNullRef marks an empty slot, so it is never
 * a key, and a lookup that misses returns 0. There is no erase.
 */

#ifndef BEEHIVE_VM_REF_TABLE_H
#define BEEHIVE_VM_REF_TABLE_H

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "support/logging.h"
#include "vm/value.h"

namespace beehive::vm {

class RefTable
{
  public:
    /** Value stored under @p key; 0 when it is absent. */
    uint64_t
    find(Ref key) const
    {
        if (slots_.empty())
            return 0;
        // An empty slot always exists and holds value 0, which is
        // also what a lookup of kNullRef itself stops at.
        for (std::size_t i = home(key);; i = next(i)) {
            const Slot &s = slots_[i];
            if (s.key == key || s.key == kNullRef)
                return s.value;
        }
    }

    /** Map @p key to @p value; returns the value it replaced (0 if new). */
    uint64_t
    put(Ref key, uint64_t value)
    {
        bh_assert(key != kNullRef, "kNullRef is not a RefTable key");
        if (slots_.empty())
            rehash(kMinSlots);
        std::size_t i = probe(key);
        if (slots_[i].key == key) {
            uint64_t old = slots_[i].value;
            slots_[i].value = value;
            return old;
        }
        if ((size_ + 1) * 2 > slots_.size()) {
            rehash(slots_.size() * 2);
            i = probe(key);
        }
        slots_[i] = Slot{key, value};
        ++size_;
        return 0;
    }

    /** Size the table so @p n entries fit without growing. */
    void
    reserve(std::size_t n)
    {
        std::size_t want = std::bit_ceil(std::max(n * 2, kMinSlots));
        if (want > slots_.size())
            rehash(want);
    }

    /** Drop every entry; the slots are kept. */
    void
    clear()
    {
        std::fill(slots_.begin(), slots_.end(), Slot{});
        size_ = 0;
    }

    std::size_t size() const { return size_; }

    /** Call @p fn(key, value) for every entry, in slot order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Slot &s : slots_) {
            if (s.key != kNullRef)
                fn(s.key, s.value);
        }
    }

  private:
    struct Slot
    {
        Ref key = kNullRef;
        uint64_t value = 0;
    };

    static constexpr std::size_t kMinSlots = 16;

    std::size_t
    home(Ref key) const
    {
        return static_cast<std::size_t>(
            (key * 0x9E3779B97F4A7C15ULL) >> shift_);
    }
    std::size_t next(std::size_t i) const
    {
        return (i + 1) & (slots_.size() - 1);
    }

    /** The slot holding @p key, or the empty slot ending its run. */
    std::size_t
    probe(Ref key) const
    {
        std::size_t i = home(key);
        while (slots_[i].key != key && slots_[i].key != kNullRef)
            i = next(i);
        return i;
    }

    void
    rehash(std::size_t n)
    {
        std::vector<Slot> old(n);
        old.swap(slots_);
        shift_ = 64 - std::countr_zero(n);
        for (const Slot &s : old) {
            if (s.key != kNullRef)
                slots_[probe(s.key)] = s;
        }
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    int shift_ = 64;
};

} // namespace beehive::vm

#endif // BEEHIVE_VM_REF_TABLE_H
