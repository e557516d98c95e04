/**
 * @file
 * The steppable bytecode interpreter.
 *
 * The interpreter keeps its call frames in an explicit stack and can
 * suspend at any instruction boundary, returning a typed Suspend
 * describing why:
 *
 *   - Quantum: the configured compute budget was consumed; the
 *     endpoint driver charges the accumulated cost to the simulated
 *     CPU and resumes, giving processor-sharing fidelity;
 *   - ClassFault / ObjectFault: the paper's missing-code and
 *     missing-data fallbacks (Section 3.1); the instruction is NOT
 *     advanced, so resolving the fault and calling run() retries it;
 *   - NativeFallback: a native call this endpoint may not run
 *     locally (Section 3.2): a HiddenState native whose receiver is
 *     not a local, packed object, on an endpoint that checks remote
 *     references (a FaaS function);
 *   - MonitorAcquire: the monitor's last owner is another endpoint,
 *     so a JMM-style synchronization is required (Section 4.2);
 *   - External: a native requested an external operation (e.g. a
 *     database round trip via the proxy); resume with
 *     resumeExternal() once the driver has the result;
 *   - Done: the root method returned.
 *
 * All frames share one contiguous value stack. A live frame is a
 * window over it: its locals start at @c base, its operand stack at
 * @c stack_base, and the next frame's window begins where its stack
 * ends. A call leaves the arguments where the caller pushed them, so
 * they become the callee's first locals without a copy; a return
 * truncates the stack to the callee's base and pushes the result.
 * Natives read their arguments as a span over the caller's stack top.
 *
 * Because suspension happens only between instructions, the windows
 * can be materialised on demand as plain-data Frame snapshots for
 * failure recovery (Section 4.5) and rebuilt from them.
 *
 * run() is one register loop (runInner): every op has one handler in
 * it. It runs natives through their function pointers and bytecode
 * calls and returns itself, changing frames without leaving, and
 * keeps its dispatch state in locals; faults, barriers, stack growth,
 * observed accesses and candidate profiling go through cold helpers
 * that take no address of that state.
 */

#ifndef BEEHIVE_VM_INTERPRETER_H
#define BEEHIVE_VM_INTERPRETER_H

#include <any>
#include <cstddef>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "vm/context.h"
#include "vm/program.h"
#include "vm/value.h"

namespace beehive::vm {

/**
 * One activation record as plain data: the snapshot format of
 * Interpreter::snapshotFrames() and restoreFrames(). Live frames are
 * windows over the interpreter's value stack instead.
 */
struct Frame
{
    MethodId method = kNoMethod;
    uint32_t pc = 0;
    double cost_multiplier = 1.0;
    std::vector<Value> locals;
    std::vector<Value> stack;
};

/** Why run() returned. */
struct Suspend
{
    enum class Kind
    {
        Done,
        Quantum,
        ClassFault,
        ObjectFault,
        NativeFallback,
        MonitorAcquire,
        External,
        HeapFull,   //!< allocation failed; the driver must run a GC
        OffloadCall, //!< a call site redirected to FaaS (Semi-FaaS)
        MonitorRelease, //!< monitor of a shared object released
        VolatileSync,   //!< volatile access needs a JMM data sync
    };

    Kind kind = Kind::Done;
    Value result;                 //!< Done: the return value.
    KlassId klass = kNoKlass;     //!< ClassFault: the missing klass.
    Ref remote_ref = kNullRef;    //!< ObjectFault: the remote address.
    uint32_t native_id = 0;       //!< NativeFallback: which native.
    Ref monitor_obj = kNullRef;   //!< Monitor*/VolatileSync object.
    bool volatile_write = false;  //!< VolatileSync: release vs acquire.
    std::any external;            //!< External: driver-defined payload.
    MethodId offload_method = kNoMethod; //!< OffloadCall target.
    std::vector<Value> offload_args;     //!< OffloadCall arguments.
};

/** Counters a single interpreter accumulates (fallback analysis). */
struct InterpStats
{
    uint64_t instructions = 0;
    uint64_t calls = 0;
    uint64_t native_calls = 0;
    uint64_t monitor_enters = 0;
    uint64_t remote_hits = 0;   //!< remote refs resolved via the map
};

/** Executes one request at a time against a shared VmContext. */
class Interpreter
{
  public:
    explicit Interpreter(VmContext &ctx);

    /** Begin executing @p entry with the given arguments. Under
     * candidate profiling, a candidate @p entry starts recording
     * here. */
    void start(MethodId entry, std::vector<Value> args);

    /** True while there are frames to run. */
    bool running() const { return !frames_.empty(); }

    /** Execute until the next suspension point. */
    Suspend run();

    /**
     * CPU nanoseconds accumulated since the last call; the caller
     * charges them to the simulated CPU. Resets the accumulator.
     */
    double consumeCost();

    /** Complete an External/OffloadCall suspension with its result. */
    void resumeExternal(Value result);

    /**
     * Monitor grant: the driver calls this once the SyncManager
     * granted the MonitorAcquire suspension; the retried
     * MonitorEnter then proceeds instead of re-suspending (the
     * one-shot flag is what makes acquisition atomic under
     * contention).
     */
    void grantMonitor(Ref obj) { granted_monitor_ = obj; }

    /** Release bookkeeping done: let the MonitorExit retry pass. */
    void grantRelease() { release_granted_ = true; }

    /** Volatile data sync done: let the access retry proceed. */
    void grantVolatile(Ref obj) { granted_volatile_ = obj; }

    /**
     * Never redirect calls to FaaS from this interpreter (used for
     * the server-local execution of a handler whose offload attempt
     * chose the local path, and for vanilla baselines).
     */
    void setSuppressOffload(bool on) { suppress_offload_ = on; }

    /** @name Failure recovery (paper Section 4.5) */
    /// @{
    /** Copy of the current frame stack, outermost frame first. */
    std::vector<Frame> snapshotFrames() const;
    /** Replace the frame stack (re-execution from a sync point). */
    void restoreFrames(const std::vector<Frame> &frames);
    /// @}

    /**
     * Iterate every root reference (GC): outermost frame first, each
     * frame's locals, then its operand stack.
     */
    template <typename Fn>
    void
    forEachRoot(Fn &&fn)
    {
        // The windows tile values_[0, sp_) in exactly the root order.
        for (std::size_t i = 0; i < sp_; ++i)
            fn(values_[i]);
    }

    /** @name Profiling support */
    /// @{
    /**
     * Automatic candidate profiling: when enabled and the context
     * has a Profiler, entering (or starting at) a candidate method
     * starts recording its dynamic extent (klasses used, statics
     * touched, cost); returning from it flushes a RootProfile
     * sample. This is how framework plumbing around an annotated
     * handler stays out of the handler's profile (Section 4.3).
     */
    void enableCandidateProfiling(bool on)
    {
        candidate_profiling_ = on;
    }

    /**
     * Record the klasses used and the statics touched during
     * execution, as flat per-id marks the dispatch loop writes.
     * With @p field_reads, also record every (receiver klass, field)
     * pair read; that set is kept for hivelint and tests.
     */
    void
    enableRecording(bool on, bool field_reads = false)
    {
        recording_ = on;
        record_field_reads_ = field_reads;
        if (on)
            sizeMarks();
    }
    /** The marked klasses, as a set. */
    std::set<KlassId> recordedKlasses() const;
    /** The marked (klass, static slot) pairs, as a set. */
    std::set<std::pair<KlassId, uint32_t>> recordedStatics() const;
    /** (receiver klass, field index) pairs actually read; filled only
     * under enableRecording(true, true). */
    const std::set<std::pair<KlassId, uint32_t>> &
    recordedFieldReads() const
    {
        return recorded_field_reads_;
    }
    void clearRecording();
    /// @}

    /** @name Dynamic race oracle (VmContext::setRaceOracle) */
    /// @{
    /**
     * Execution-context id in the context's RaceOracle. start()
     * registers one lazily; drivers that model fork edges (offload
     * dispatch, test schedulers) can install a pre-forked tid
     * instead before calling start().
     */
    void setRaceTid(int tid) { race_tid_ = tid; }
    int raceTid() const { return race_tid_; }
    /// @}

    const InterpStats &stats() const { return stats_; }
    std::size_t frameDepth() const { return frames_.size(); }

    VmContext &context() { return ctx_; }

  private:
    /** A live frame: a window over values_. */
    struct Window
    {
        const Method *method = nullptr;
        MethodId id = kNoMethod;
        uint32_t pc = 0;
        double cost_multiplier = 1.0;
        /** Index of local 0 in values_. */
        std::size_t base = 0;
        /** Index of the operand stack bottom (base + locals). */
        std::size_t stack_base = 0;
    };

    /** Make values_ hold at least @p n values (amortised doubling). */
    [[gnu::cold]] void growValues(std::size_t n);

    /** Panic naming the method whose operand stack ran dry. */
    [[noreturn]] void stackUnderflow() const;

    /** @name Cold paths of the dispatch loop */
    /// @{
    /**
     * The read barrier on remote reference @p v (paper Section 4.1):
     * rewrite it to its local copy via the remote map, or fill @p out
     * with an ObjectFault.
     *
     * @retval true when execution may continue.
     */
    [[gnu::cold]] bool resolveRemote(Value &v, Suspend &out);
    /**
     * An object operand that is not a local, non-null reference:
     * panic on nil or null, and under @p check_remote resolve a
     * remote one in place (resolveRemote()).
     */
    [[gnu::cold]] bool resolveReceiver(Value &v, bool check_remote,
                                       Suspend &out);
    /** Record a read of @p obj's @p field (field-read recording). */
    [[gnu::cold]] void recordFieldRead(Ref obj, uint32_t field);
    /** Start profiling candidate @p id, just entered, at cost @p total. */
    [[gnu::cold]] void beginCandidate(MethodId id, double total);
    /** Flush the active candidate's profile at its Ret. */
    [[gnu::cold]] void flushCandidate(double total);
    /** Report a field, element or static access to the race oracle. */
    [[gnu::cold]] void observeField(Ref obj, uint32_t field, bool write);
    [[gnu::cold]] void observeElement(Ref arr, bool write);
    [[gnu::cold]] void observeStatic(KlassId klass, uint32_t slot,
                                     bool write);
    /**
     * The monitor and volatile ops on local object @p obj (Section
     * 4.2): consume a grant, or suspend for a sync with the object's
     * last owner (false, @p out filled); otherwise act.
     * accessVolatile() reads the field into at[0] or writes at[1]
     * into it; at[0] is the object.
     */
    [[gnu::cold]] bool enterMonitor(Ref obj, Suspend &out);
    [[gnu::cold]] bool exitMonitor(Ref obj, Suspend &out);
    [[gnu::cold]] bool accessVolatile(Value *at, uint32_t field, bool write,
                                      Suspend &out);
    /// @}

    /** @name Recording marks */
    /// @{
    /** Size the marks to the program (a no-op once they fit). */
    void sizeMarks();
    void
    markKlass(KlassId id)
    {
        if (!klass_marks_[id]) {
            klass_marks_[id] = 1;
            marked_klasses_.push_back(id);
        }
    }
    void
    markStatic(KlassId klass, uint32_t slot)
    {
        uint8_t &mark = static_marks_[static_base_[klass] + slot];
        if (!mark) {
            mark = 1;
            marked_statics_.emplace_back(klass, slot);
        }
    }
    /// @}

    /**
     * The dispatch loop of run(), with the dispatch state in locals:
     * every op's one handler. It returns when the quantum expires
     * after an instruction (true) or when @p out holds a suspension
     * (false). An instruction that suspends has charged exactly what
     * it did before the suspension point, and one that grows the
     * value stack or rewrites a remote local charges nothing for it.
     */
    bool runInner(double quantum_ns, double instr_ns, bool check_remote,
                  Suspend &out);

    /**
     * Push a frame for @p m whose arguments end at @p sp: nil-fill its
     * other locals (values_ must hold them) and return its window.
     */
    Window &pushFrame(MethodId id, const Method &m, std::size_t sp);
    /** Push a frame whose @c num_args arguments are the stack top. */
    void enterMethod(MethodId id, const Method &m);

    VmContext &ctx_;
    std::vector<Window> frames_;
    /**
     * The value stack: every frame's locals and operand stack,
     * outermost first, in values_[0, sp_). Slots at and above sp_
     * are dead; growValues() resizes the vector only to grow it.
     */
    std::vector<Value> values_;
    std::size_t sp_ = 0;
    double pending_cost_ = 0.0;
    double quantum_acc_ = 0.0;
    double cost_total_ = 0.0;
    bool awaiting_external_ = false;
    bool suppress_offload_ = false;
    bool candidate_profiling_ = false;
    Ref granted_monitor_ = kNullRef;
    Ref granted_volatile_ = kNullRef;
    bool release_granted_ = false;
    bool candidate_active_ = false;
    MethodId candidate_root_ = kNoMethod;
    std::size_t candidate_depth_ = 0;
    double candidate_cost_start_ = 0.0;
    uint64_t candidate_syncs_start_ = 0;
    int race_tid_ = -1;
    bool recording_ = false;
    bool record_field_reads_ = false;
    /** Klass marks by KlassId, and the marked ids in mark order. */
    std::vector<uint8_t> klass_marks_;
    std::vector<KlassId> marked_klasses_;
    /** Static marks by slot: klass k's slot s is static_base_[k] + s. */
    std::vector<uint32_t> static_base_;
    std::vector<uint8_t> static_marks_;
    std::vector<std::pair<KlassId, uint32_t>> marked_statics_;
    std::set<std::pair<KlassId, uint32_t>> recorded_field_reads_;
    InterpStats stats_;
};

} // namespace beehive::vm

#endif // BEEHIVE_VM_INTERPRETER_H
