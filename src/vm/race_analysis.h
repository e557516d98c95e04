/**
 * @file
 * Interprocedural lockset race detector over HiveVM bytecode.
 *
 * BeeHive's correctness story rests on offloaded shadow threads
 * synchronizing against the server heap through monitors: a program
 * with an unprotected shared access races silently *across the
 * server/FaaS boundary*, which is strictly worse than racing inside
 * one process. This pass is an Eraser-style lockset analysis layered
 * on the interprocedural framework (vm/analysis.h):
 *
 *  1. **Locksets per access.** Every static/field/element access
 *     site carries the lock tokens held around it intra-procedurally
 *     (AccessRecord). A top-down fixpoint over the devirtualized
 *     call graph adds the *context lockset*: the intersection, over
 *     all call paths reaching a method, of the locks held at the
 *     call sites (entry methods start from the empty set; the
 *     intersection lattice makes the fixpoint decreasing and
 *     therefore terminating).
 *
 *  2. **Sharing filter.** A scope -- a (klass, field) pair, a
 *     static slot, or a klass's array elements -- can only race if
 *     objects of that klass are reachable by more than one thread.
 *     Statics always are. Instance scopes count as *shared* when
 *     the receiver klass is reachable from a static root through
 *     the declared type hints or an observed store, or when the
 *     receiver klass is statically unknown (conservative widening).
 *     Accesses whose receiver is provably fresh and non-escaping
 *     are thread-local and never shared.
 *
 *  3. **Eraser lattice per scope.** ThreadLocal (all accesses on
 *     method-local receivers) -> ReadShared (shared, but never
 *     written through a shared receiver) -> ConsistentlyGuarded
 *     (the candidate lockset -- the intersection of the effective
 *     locksets of all shared accesses -- is non-empty) ->
 *     GuardedByUnknown (empty candidate set, but some access holds
 *     a lock whose identity the analysis lost) -> Unguarded (a
 *     shared write with a provably empty common lockset: a race
 *     finding).
 *
 * A monitor is *vacuous* when every scope ever accessed under it
 * (anywhere in the program) is ThreadLocal or ReadShared -- the
 * critical section protects no mutable shared state, so skipping
 * the cross-endpoint synchronization fallback for it would be
 * unobservable. hivelint reports vacuousLocks(); offload admission
 * does not consume them.
 *
 * The dynamic counterpart (vm/race_oracle.h) tracks vector clocks
 * at runtime; tests/race_test.cc cross-checks that every
 * dynamically observed race is statically reported.
 */

#ifndef BEEHIVE_VM_RACE_ANALYSIS_H
#define BEEHIVE_VM_RACE_ANALYSIS_H

#include <map>
#include <set>
#include <string>
#include <vector>

#include "vm/analysis.h"
#include "vm/program.h"

namespace beehive::vm {

/** Eraser-style guard state of one scope, weakest claim last. */
enum class GuardState : uint8_t
{
    ThreadLocal,         //!< only method-local receivers
    ReadShared,          //!< shared, never written
    ConsistentlyGuarded, //!< common lock on every shared access
    GuardedByUnknown,    //!< a held lock's identity was lost
    Unguarded,           //!< shared write with empty lockset: race
};

const char *toString(GuardState s);

/** What a lockset guards: a field, a static slot, or elements. */
struct RaceScope
{
    AccessRecord::Scope kind = AccessRecord::Scope::Field;
    KlassId klass = kNoKlass;
    uint32_t slot = 0;

    bool operator<(const RaceScope &o) const;
    bool operator==(const RaceScope &o) const;
};

std::string toString(const RaceScope &scope, const Program &program);

/** Classification of one scope, with the evidence. */
struct ScopeReport
{
    RaceScope scope;
    GuardState state = GuardState::ThreadLocal;
    /** Locks held on *every* shared access (guard candidates). */
    std::vector<LockToken> candidate;
    /** Shared accesses / shared writes seen. */
    uint32_t shared_accesses = 0;
    uint32_t shared_writes = 0;
    /** Example site: the worst access (a lockless shared write for
     * Unguarded, else any shared access). */
    MethodId method = kNoMethod;
    uint32_t pc = 0;

    std::string describe(const Program &program) const;
};

/**
 * The detector. Everything is computed eagerly; @p analysis and
 * @p program must outlive this object.
 */
class RaceAnalysis
{
  public:
    RaceAnalysis(const Program &program,
                 const ProgramAnalysis &analysis);

    /** Every classified scope, deterministically ordered. */
    const std::vector<ScopeReport> &scopes() const { return scopes_; }

    /** Unguarded shared writes only: the race findings. */
    const std::vector<ScopeReport> &findings() const
    {
        return findings_;
    }

    /**
     * Locks guarding nothing but thread-local or read-only-shared
     * scopes program-wide: skipping their cross-endpoint
     * synchronization fallback is unobservable. Empty when the
     * program has methods the analysis could not model (an
     * unresolved virtual call or a dataflow bailout widens every
     * claim, so no lock can be proven vacuous).
     */
    const std::set<LockToken> &vacuousLocks() const
    {
        return vacuous_;
    }

    /**
     * Interprocedural context lockset of @p id: locks held on every
     * call path from an entry to the method (excluding locks the
     * method takes itself).
     */
    const std::vector<LockToken> &contextLockset(MethodId id) const;

    /** Does the scope classify as statically reported (Unguarded or
     * GuardedByUnknown)? The dynamic-oracle cross-check treats both
     * as "the detector warned about this scope". */
    bool reportedAt(const RaceScope &scope) const;

    /** A method bailed or an unresolved virtual widened the result. */
    bool incomplete() const { return incomplete_; }

  private:
    void computeContexts();
    void computeSharedKlasses();
    void classify();

    const Program &program_;
    const ProgramAnalysis &analysis_;
    std::vector<std::vector<LockToken>> context_;
    /** Methods whose context is still ⊤ (never called, no entry). */
    std::vector<bool> context_top_;
    /** An unknown-identity lock is held on every path to the method. */
    std::vector<bool> context_unknown_;
    std::set<KlassId> shared_klasses_;
    std::map<RaceScope, GuardState> state_of_;
    std::vector<ScopeReport> scopes_;
    std::vector<ScopeReport> findings_;
    std::set<LockToken> vacuous_;
    bool incomplete_ = false;
};

} // namespace beehive::vm

#endif // BEEHIVE_VM_RACE_ANALYSIS_H
