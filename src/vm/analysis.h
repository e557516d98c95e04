/**
 * @file
 * Interprocedural dataflow framework over HiveVM bytecode.
 *
 * The framework builds a call graph (devirtualizing CallVirt sites
 * through an intra-method abstract interpretation where the receiver
 * klass is statically known), condenses it into strongly connected
 * components, and propagates per-method *effect summaries* bottom-up
 * in SCC order. Recursive cliques are widened by collapsing every
 * member of the SCC onto one fixed point, which is sound because all
 * summary domains are finite union lattices.
 *
 * Three client analyses are layered on top:
 *
 *  - **Escape/capture analysis** (captureForRoot): which statics and
 *    which (klass, field) pairs can be *read* by anything reachable
 *    from an endpoint root. hivelint reports it, and the static
 *    prefetch manifests rest on the same field-read facts. Objects
 *    the offloaded code allocates itself never need capture; the
 *    set is conservative, a superset of what the root can read.
 *
 *  - **Effect summaries** (transitiveSummary): per-method static
 *    reads/writes, monitor acquisitions (with lock identities),
 *    volatile touches, and hidden-state native calls. Monitors and
 *    volatiles on objects that are provably method-local (freshly
 *    allocated, never escaping) are *elided*: they cannot be
 *    contended across endpoints, so they do not demand a
 *    synchronization fallback. This upgrades roots the coarse PR 1
 *    buckets classified needs-fallback to offload-safe.
 *
 *  - **Lock-order analysis** (lockCycles): a program-wide lock graph
 *    with an edge A -> B whenever B can be acquired while A is held
 *    (directly or through a call), reported as potential deadlock
 *    cycles. BeeHive synchronizes monitors across local and offloaded
 *    frames, so an ABBA inversion can wedge both endpoints at once.
 *
 * All results are exposed through hivelint and run at server load
 * time next to the bytecode verifier.
 */

#ifndef BEEHIVE_VM_ANALYSIS_H
#define BEEHIVE_VM_ANALYSIS_H

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "vm/program.h"

namespace beehive::vm {

/**
 * Identity of a lock as far as the static analysis can tell. Two
 * tokens compare equal when they *may* denote the same runtime
 * monitor; Unknown tokens never participate in the lock graph.
 */
struct LockToken
{
    enum class Kind : uint8_t
    {
        Unknown,     //!< identity lost (joins, call results, args)
        AllocSite,   //!< object allocated at (method, pc)
        StaticSlot,  //!< object stored in statics[klass][slot]
        StaticElem,  //!< element of the array in statics[klass][slot]
    };

    Kind kind = Kind::Unknown;
    MethodId method = kNoMethod;  //!< AllocSite only
    uint32_t pc = 0;              //!< AllocSite only
    KlassId klass = kNoKlass;     //!< StaticSlot / StaticElem
    uint32_t slot = 0;            //!< StaticSlot / StaticElem

    bool operator<(const LockToken &o) const;
    bool operator==(const LockToken &o) const;
};

std::string toString(const LockToken &token, const Program &program);

/** How strongly an effect site constrains offloading. */
enum class EffectDemand : uint8_t
{
    Fallback,   //!< offloadable with a runtime fallback
    LocalOnly,  //!< must stay on the server
};

/** One bytecode site whose effect demands a fallback (with its pc). */
struct EffectSite
{
    enum class Kind : uint8_t
    {
        StaticWrite,
        SharedMonitor,
        SharedVolatile,
        HiddenNative,
        NetworkNative,
        UnresolvedVirtual,
    };

    Kind kind = Kind::StaticWrite;
    EffectDemand demand = EffectDemand::Fallback;
    MethodId method = kNoMethod;
    uint32_t pc = 0;
    std::string message;
    /** SharedMonitor only: identity of the acquired lock. */
    LockToken token;
};

/**
 * One static/field/element access site with the lockset held around
 * it intra-procedurally. The race detector (vm/race_analysis.h)
 * combines these with call-site lock contexts to compute the full
 * interprocedural lockset per access.
 */
struct AccessRecord
{
    enum class Scope : uint8_t
    {
        Field,   //!< instance field: (receiver klass, field index)
        Static,  //!< static slot: (klass, slot)
        Element, //!< array element: (array klass, all indices)
    };

    Scope scope = Scope::Field;
    /** Receiver/array/static klass; kNoKlass = statically unknown. */
    KlassId klass = kNoKlass;
    uint32_t slot = 0;
    bool is_write = false;
    bool is_volatile = false;
    /** Receiver provably fresh and non-escaping (thread-local). */
    bool receiver_local = false;
    /** Writes only: klass of the stored value when known. Feeds the
     * race detector's reachable-from-statics sharing closure. */
    KlassId stored_klass = kNoKlass;
    uint32_t pc = 0;
    /** Known-identity, non-elided locks held at the access. */
    std::vector<LockToken> held;
    /** A lock of unknown identity is also held. */
    bool held_unknown = false;
};

/**
 * One bytecode call site with the locks held around it: the edges
 * the top-down context-lockset propagation walks. Recorded for
 * every resolved bytecode call, held or not.
 */
struct CallSiteLocks
{
    std::vector<LockToken> held;
    bool held_unknown = false;
    std::vector<MethodId> callees;
};

/**
 * One devirtualized CallVirt site. The call graph keeps only the
 * single target the statically known receiver klass resolves to;
 * clients that must not under-approximate dynamic dispatch (the
 * reachability closure feeding prefetch manifests) re-expand the
 * site over every subclass of the receiver hint, because the hint
 * may be a superclass of the runtime receiver and each subclass can
 * override the callee.
 */
struct VirtualSite
{
    uint32_t pc = 0;
    NameId name = 0;              //!< the virtual method name
    KlassId receiver = kNoKlass;  //!< statically known receiver klass
};

/**
 * What one method (intra) or one call subtree (transitive) does to
 * state outside its own frame. Every domain is a finite set, so
 * unioning summaries is the lattice join.
 */
struct EffectSummary
{
    std::set<std::pair<KlassId, uint32_t>> statics_read;
    std::set<std::pair<KlassId, uint32_t>> statics_written;
    /** Instance field reads attributed to a receiver klass. */
    std::set<std::pair<KlassId, uint32_t>> fields_read;
    /** Field reads whose receiver klass is statically unknown. */
    std::set<uint32_t> fields_read_any_klass;
    /** Klasses natives read from C++ (all their fields captured). */
    std::set<KlassId> klasses_fully_read;
    /** Monitors acquired that shared state can observe. */
    std::set<LockToken> locks;
    /** Monitor pairs proven method-local and elided. */
    uint32_t monitors_elided = 0;
    /** Volatile accesses proven method-local and elided. */
    uint32_t volatiles_elided = 0;
    bool touches_shared_volatile = false;
    /** A CallVirt site resolved to nothing statically. */
    bool unresolved_virtual = false;
    /** Fallback-demanding sites (intra summaries only). */
    std::vector<EffectSite> sites;

    /** Union @p o into this summary (sites are not merged). */
    void join(const EffectSummary &o);
};

/**
 * Minimal capture set for one offload root: the statics and fields
 * that offloaded execution can read and which therefore must ship in
 * (or be reachable from) the closure.
 */
struct CaptureSet
{
    std::set<std::pair<KlassId, uint32_t>> statics;
    std::set<std::pair<KlassId, uint32_t>> fields;
    std::set<uint32_t> any_klass_fields;
    std::set<KlassId> full_klasses;
    /** Analysis widened to "everything" (unresolved virtual etc). */
    bool all_fields = false;

    /** May field @p index of an object of @p klass be read? */
    bool containsField(KlassId klass, uint32_t index) const;
    /** Number of distinct field facts, for reporting. */
    std::size_t fieldFactCount() const;
};

std::string toString(const CaptureSet &capture, const Program &program);

/** A cycle in the lock graph: a potential deadlock. */
struct LockCycle
{
    std::vector<LockToken> tokens;

    std::string describe(const Program &program) const;
};

/** Call graph with devirtualized edges and bottom-up SCC order. */
struct CallGraph
{
    /** Bytecode callees per method (deduplicated, sorted). */
    std::vector<std::vector<MethodId>> callees;
    /** Native callees per method (deduplicated, sorted). */
    std::vector<std::vector<MethodId>> natives;
    /** SCC id per method; ids are numbered in bottom-up order. */
    std::vector<uint32_t> scc_of;
    /** SCC member lists, index = SCC id (bottom-up). */
    std::vector<std::vector<MethodId>> sccs;
};

/**
 * The framework: builds everything eagerly in the constructor
 * (intra-method abstract interpretation, call graph, SCC
 * condensation, transitive summaries, lock graph). The program must
 * outlive the analysis.
 */
class ProgramAnalysis
{
  public:
    explicit ProgramAnalysis(const Program &program);

    const CallGraph &callGraph() const { return cg_; }

    /** Effects of @p id's own bytecode only (callees excluded). */
    const EffectSummary &methodSummary(MethodId id) const;

    /** Effects of @p id plus everything it can transitively call. */
    const EffectSummary &transitiveSummary(MethodId id) const;

    /**
     * Every method (bytecode and native) reachable from @p root,
     * root included, in deterministic (sorted) order.
     */
    std::vector<MethodId> reachableFrom(MethodId root) const;

    /** Minimal capture set for offloading @p root. */
    CaptureSet captureForRoot(MethodId root) const;

    /** Potential deadlock cycles in the program-wide lock graph. */
    const std::vector<LockCycle> &lockCycles() const { return cycles_; }

    /** Every static/field/element access site of @p id's bytecode. */
    const std::vector<AccessRecord> &accesses(MethodId id) const;

    /** Resolved bytecode call sites of @p id with held locksets. */
    const std::vector<CallSiteLocks> &callSiteLocks(MethodId id) const;

    /** Devirtualized CallVirt sites of @p id's bytecode. */
    const std::vector<VirtualSite> &virtualSites(MethodId id) const;

    /** Edges of the lock graph, for diagnostics. */
    const std::map<LockToken, std::set<LockToken>> &lockGraph() const
    {
        return lock_edges_;
    }

  private:
    void analyzeMethod(MethodId id);
    void condense();
    void computeTransitive();
    void buildLockGraph();

    const Program &program_;
    CallGraph cg_;
    /** name -> every method with that name (CallVirt widening). */
    std::map<std::string, std::vector<MethodId>> methods_by_name_;
    std::vector<EffectSummary> intra_;
    std::vector<EffectSummary> transitive_;
    std::vector<std::vector<AccessRecord>> accesses_;
    /** Call sites with their held locksets (all resolved calls). */
    std::vector<std::vector<CallSiteLocks>> locked_calls_;
    /** Devirtualized CallVirt sites per method. */
    std::vector<std::vector<VirtualSite>> virt_sites_;
    /** Intra-method lock nesting edges. */
    std::map<LockToken, std::set<LockToken>> lock_edges_;
    std::vector<LockCycle> cycles_;
};

} // namespace beehive::vm

#endif // BEEHIVE_VM_ANALYSIS_H
