/**
 * @file
 * FastTrack-style dynamic race oracle.
 *
 * The runtime half of the race-detection pair (the static half is
 * vm/race_analysis.h): once installed on a VmContext
 * (VmContext::setRaceOracle), every interpreter on it reports its
 * monitor operations and heap accesses here and the oracle
 * maintains vector clocks -- one per execution context (request
 * thread or offloaded shadow thread), one per monitor object, plus
 * a shadow word per accessed location (object field, static slot,
 * or array object). A write that is not ordered after every
 * previous access to the same location by happens-before, or a
 * read not ordered after the previous write, is a concrete race.
 *
 * Races are reported as static RaceScopes -- (kind, klass, slot) --
 * so tests can cross-check the lockset detector directly: every
 * scope in races() must satisfy RaceAnalysis::reportedAt() (static
 * soundness), and static findings absent from any dynamic run bound
 * the false-positive rate.
 *
 * Granularity matches the static side: array elements share one
 * shadow word per array object (index-insensitive), and volatile
 * accesses synchronize (write = release, read = acquire on a
 * per-location clock) instead of racing. Shadow words are keyed by
 * Ref, so a moving GC invalidates them; oracle runs use heaps large
 * enough not to collect (documented limitation, DESIGN.md §12).
 */

#ifndef BEEHIVE_VM_RACE_ORACLE_H
#define BEEHIVE_VM_RACE_ORACLE_H

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "vm/race_analysis.h"
#include "vm/value.h"

namespace beehive::vm {

class RaceOracle
{
  public:
    explicit RaceOracle(const Program &program)
        : program_(program)
    {
    }

    /**
     * Register an execution context. @p parent = the forking
     * context's tid (its clock is inherited: fork edges order the
     * parent's setup before everything the child does), or -1 for
     * an initial context.
     */
    int newThread(int parent = -1);

    /** @name Synchronization events */
    /// @{
    void acquire(int tid, Ref monitor);
    void release(int tid, Ref monitor);
    /** A happens-before edge outside monitors (join, offload reply). */
    void ordered(int before_tid, int after_tid);
    /// @}

    /** @name Access events */
    /// @{
    void fieldAccess(int tid, Ref obj, KlassId klass, uint32_t slot,
                     bool is_write);
    void staticAccess(int tid, KlassId klass, uint32_t slot,
                      bool is_write);
    void elementAccess(int tid, Ref arr, KlassId klass,
                       bool is_write);
    void volatileAccess(int tid, Ref obj, KlassId klass,
                        uint32_t slot, bool is_write);
    /// @}

    /** Distinct scopes a concrete race was observed on. */
    const std::set<RaceScope> &races() const { return races_; }
    /** Human-readable description per detected race. */
    const std::vector<std::string> &reports() const
    {
        return reports_;
    }
    uint64_t checks() const { return checks_; }

  private:
    using Clock = std::vector<uint64_t>;

    struct Shadow
    {
        /** Last writer: (tid, clock); tid < 0 = no write yet. */
        int write_tid = -1;
        uint64_t write_clock = 0;
        /** Reads since the last write: tid -> clock. */
        std::map<int, uint64_t> reads;
    };

    /** Shadow-word key; statics use obj = kNullRef. */
    struct Loc
    {
        AccessRecord::Scope kind = AccessRecord::Scope::Field;
        Ref obj = kNullRef;
        KlassId klass = kNoKlass;
        uint32_t slot = 0;

        bool operator<(const Loc &o) const;
    };

    uint64_t clockOf(int tid, int observer_tid) const;
    void joinInto(Clock &dst, const Clock &src);
    void access(const Loc &loc, int tid, bool is_write);
    void raceAt(const Loc &loc, int tid, int other);

    const Program &program_;
    std::vector<Clock> threads_;
    std::map<Ref, Clock> monitors_;
    /** Per-location release clock for volatile acquire/release. */
    std::map<Loc, Clock> volatile_clocks_;
    std::map<Loc, Shadow> shadow_;
    std::set<RaceScope> races_;
    std::vector<std::string> reports_;
    uint64_t checks_ = 0;
};

} // namespace beehive::vm

#endif // BEEHIVE_VM_RACE_ORACLE_H
