#include "vm/interpreter.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <utility>

#include "support/logging.h"
#include "vm/profiler.h"
#include "vm/race_oracle.h"

// The dispatch loop's helper lambdas inline even into its cold paths:
// one out-of-line call taking their closure would move every local it
// captures (pc, sp, the count, the accumulators) into memory.
#define BH_LOOP_INLINE __attribute__((always_inline))

namespace beehive::vm {

Interpreter::Interpreter(VmContext &ctx) : ctx_(ctx)
{
}

void
Interpreter::start(MethodId entry, std::vector<Value> args)
{
    bh_assert(frames_.empty(), "start() while running");
    awaiting_external_ = false;
    if (ctx_.raceOracle() && race_tid_ < 0)
        race_tid_ = ctx_.raceOracle()->newThread();
    const Method &m = ctx_.program().method(entry);
    bh_assert(args.size() == m.num_args, "%s expects %u args, got %zu",
              m.name.c_str(), m.num_args, args.size());
    if (args.size() > values_.size())
        growValues(args.size());
    std::copy(args.begin(), args.end(), values_.begin());
    sp_ = args.size();
    enterMethod(entry, m);
    // A candidate started directly is profiled like one a caller
    // enters: its depth-1 Ret flushes the sample.
    if (candidate_profiling_ && ctx_.profiler() &&
        ctx_.profiler()->isCandidate(entry)) {
        beginCandidate(entry, cost_total_);
    }
}

void
Interpreter::growValues(std::size_t n)
{
    values_.resize(std::max({n, 2 * values_.size(), std::size_t{64}}));
}

void
Interpreter::stackUnderflow() const
{
    panic("stack underflow in %s", frames_.back().method->name.c_str());
}

double
Interpreter::consumeCost()
{
    double v = pending_cost_;
    pending_cost_ = 0.0;
    return v;
}

void
Interpreter::sizeMarks()
{
    const Program &program = ctx_.program();
    if (klass_marks_.size() == program.klassCount())
        return;
    klass_marks_.resize(program.klassCount(), 0);
    static_base_.assign(program.klassCount(), 0);
    uint32_t slots = 0;
    for (KlassId k = 0; k < program.klassCount(); ++k) {
        static_base_[k] = slots;
        slots += static_cast<uint32_t>(program.klass(k).statics.size());
    }
    // Marks already set keep their slots: klasses are only appended.
    static_marks_.resize(slots, 0);
}

std::set<KlassId>
Interpreter::recordedKlasses() const
{
    return {marked_klasses_.begin(), marked_klasses_.end()};
}

std::set<std::pair<KlassId, uint32_t>>
Interpreter::recordedStatics() const
{
    return {marked_statics_.begin(), marked_statics_.end()};
}

void
Interpreter::clearRecording()
{
    for (KlassId k : marked_klasses_)
        klass_marks_[k] = 0;
    marked_klasses_.clear();
    for (const auto &[k, slot] : marked_statics_)
        static_marks_[static_base_[k] + slot] = 0;
    marked_statics_.clear();
    recorded_field_reads_.clear();
}

BH_LOOP_INLINE inline Interpreter::Window &
Interpreter::pushFrame(MethodId id, const Method &m, std::size_t sp)
{
    bh_assert(!m.is_native, "enterMethod on native");
    Window w;
    w.method = &m;
    w.id = id;
    w.cost_multiplier = ctx_.methodEntered(id);
    // The arguments stay where the caller pushed them and become
    // locals [0, num_args); the remaining locals start out nil.
    w.base = sp - m.num_args;
    w.stack_base = w.base + m.num_locals;
    for (std::size_t i = sp; i < w.stack_base; ++i)
        values_[i] = Value::nil();
    frames_.push_back(w);
    ++stats_.calls;
    return frames_.back();
}

void
Interpreter::enterMethod(MethodId id, const Method &m)
{
    const std::size_t stack_base = sp_ - m.num_args + m.num_locals;
    if (stack_base > values_.size())
        growValues(stack_base);
    sp_ = pushFrame(id, m, sp_).stack_base;
}

bool
Interpreter::resolveRemote(Value &v, Suspend &out)
{
    const Ref r = v.asRef();
    const Ref local = ctx_.lookupRemote(r);
    if (local != kNullRef) {
        // Reset the remote bit in place so later loads are local
        // (paper Section 4.1).
        v = Value::ofRef(local);
        ++stats_.remote_hits;
        return true;
    }
    out.kind = Suspend::Kind::ObjectFault;
    out.remote_ref = r;
    return false;
}

bool
Interpreter::resolveReceiver(Value &v, bool check_remote, Suspend &out)
{
    bh_assert(v.isRef(), "expected a reference, got kind %d",
              static_cast<int>(v.kind));
    bh_assert(v.asRef() != kNullRef, "null dereference in %s",
              frames_.back().method->name.c_str());
    // The stack slot is the value's home, so the rewrite is already
    // the writeback.
    return !check_remote || !isRemote(v.asRef()) || resolveRemote(v, out);
}

void
Interpreter::recordFieldRead(Ref obj, uint32_t field)
{
    recorded_field_reads_.insert({ctx_.heap().header(obj).klass, field});
}

void
Interpreter::beginCandidate(MethodId id, double total)
{
    candidate_active_ = true;
    candidate_root_ = id;
    candidate_depth_ = frames_.size();
    candidate_cost_start_ = total;
    candidate_syncs_start_ = stats_.monitor_enters;
    recording_ = true;
    sizeMarks();
    clearRecording();
}

void
Interpreter::flushCandidate(double total)
{
    if (Profiler *profiler = ctx_.profiler()) {
        profiler->recordExecution(
            candidate_root_, total - candidate_cost_start_,
            recordedKlasses(), recordedStatics(),
            stats_.monitor_enters - candidate_syncs_start_);
    }
    candidate_active_ = false;
    recording_ = false;
}

void
Interpreter::observeField(Ref obj, uint32_t field, bool write)
{
    ctx_.raceOracle()->fieldAccess(race_tid_, obj,
                                   ctx_.heap().header(obj).klass, field,
                                   write);
}

void
Interpreter::observeElement(Ref arr, bool write)
{
    ctx_.raceOracle()->elementAccess(race_tid_, arr,
                                     ctx_.heap().header(arr).klass, write);
}

void
Interpreter::observeStatic(KlassId klass, uint32_t slot, bool write)
{
    ctx_.raceOracle()->staticAccess(race_tid_, klass, slot, write);
}

bool
Interpreter::enterMonitor(Ref obj, Suspend &out)
{
    if (granted_monitor_ == obj) {
        granted_monitor_ = kNullRef; // one-shot grant consumed
    } else if (ctx_.needsRemoteAcquire(obj)) {
        // Shared-object monitor: the driver must win it from the
        // SyncManager's monitor table before we proceed.
        out.kind = Suspend::Kind::MonitorAcquire;
        out.monitor_obj = obj;
        return false;
    }
    ctx_.heap().header(obj).lock_owner =
        static_cast<uint16_t>(ctx_.config().endpoint + 1);
    if (RaceOracle *ro = ctx_.raceOracle())
        ro->acquire(race_tid_, obj);
    ++stats_.monitor_enters;
    return true;
}

bool
Interpreter::exitMonitor(Ref obj, Suspend &out)
{
    if (release_granted_) {
        release_granted_ = false;
    } else if (ctx_.needsRemoteAcquire(obj)) {
        out.kind = Suspend::Kind::MonitorRelease;
        out.monitor_obj = obj;
        return false;
    }
    if (RaceOracle *ro = ctx_.raceOracle())
        ro->release(race_tid_, obj);
    ctx_.monitorReleased(obj);
    return true;
}

bool
Interpreter::accessVolatile(Value *at, uint32_t field, bool write,
                            Suspend &out)
{
    // Volatile accesses carry JMM acquire/release semantics: on a
    // shared object they synchronize state with the last releasing
    // endpoint before proceeding (Section 4.2: "other synchronization
    // operations, like volatile memory accesses, are also supported").
    const Ref obj = at[0].asRef();
    if (granted_volatile_ == obj) {
        granted_volatile_ = kNullRef;
    } else if (ctx_.needsRemoteAcquire(obj)) {
        out.kind = Suspend::Kind::VolatileSync;
        out.monitor_obj = obj;
        out.volatile_write = write;
        return false;
    }
    Heap &heap = ctx_.heap();
    RaceOracle *ro = ctx_.raceOracle();
    if (write) {
        heap.setField(obj, field, at[1]);
        if (ro)
            ro->volatileAccess(race_tid_, obj, heap.header(obj).klass, field,
                               true);
        ctx_.monitorReleased(obj); // release edge
    } else {
        if (recording_ && record_field_reads_)
            recordFieldRead(obj, field);
        if (ro)
            ro->volatileAccess(race_tid_, obj, heap.header(obj).klass, field,
                               false);
        at[0] = heap.field(obj, field);
    }
    return true;
}

namespace {

/**
 * BeeHive's one rule for natives on FaaS (paper Section 3.2): on an
 * endpoint that checks remote references, a HiddenState native runs
 * only on a local, packed (Packageable) receiver; every other native
 * runs where it is called.
 */
bool
nativeFallsBack(NativeCategory category, std::span<const Value> args,
                const Heap &heap, bool check_remote)
{
    if (category != NativeCategory::HiddenState || !check_remote)
        return false;
    const bool packed_receiver =
        !args.empty() && args[0].isRef() && args[0].asRef() != kNullRef &&
        !isRemote(args[0].asRef()) &&
        (heap.header(args[0].asRef()).flags & kFlagPacked);
    return !packed_receiver;
}

} // namespace

void
Interpreter::resumeExternal(Value result)
{
    bh_assert(awaiting_external_, "resumeExternal without suspension");
    awaiting_external_ = false;
    if (sp_ == values_.size())
        growValues(sp_ + 1);
    values_[sp_++] = result;
}

bool
Interpreter::runInner(double quantum_ns, double instr_ns, bool check_remote,
                      Suspend &out)
{
    // The dispatch state lives in locals. What the loop calls (a
    // native's function, an allocation, a cold helper) takes no
    // address of them, so GCC keeps them in registers; they go back
    // to the members at the exits. xmm registers are caller-saved,
    // so every call site on a warm path weighs against keeping the
    // accumulators there: rare work sits in [[gnu::cold]] members
    // and [[unlikely]] cases, and a push that must grow the value
    // stack jumps, before it charges anything, to the one `grow`
    // label. The frame's values are reloaded only when a call or a
    // return changes the frame, and the value stack's base and size
    // only when it grows.
    Window *fp = &frames_.back();
    const Method *m = fp->method;
    const Instr *code = m->code.data();
    std::size_t code_size = m->code.size();
    Value *vals = values_.data();
    std::size_t cap = values_.size();
    std::size_t base = fp->base;
    std::size_t stack_base = fp->stack_base;
    std::size_t num_locals = stack_base - base;
    double mult = fp->cost_multiplier;
    double step = instr_ns * mult;
    uint32_t pc = fp->pc;
    std::size_t sp = sp_;
    double pending = pending_cost_;
    double qacc = quantum_acc_;
    double total = cost_total_;
    uint64_t count = stats_.instructions;
    bool expired = false;

    const Program &program = ctx_.program();
    const NativeRegistry &natives = ctx_.natives();
    Heap &heap = ctx_.heap();
    const bool oracle = ctx_.raceOracle() != nullptr;
    const bool offload_calls = !suppress_offload_;
    // Candidate profiling flips these at a candidate's entry and at
    // its Ret: recording, the field reads it records, the profiler
    // whose candidates start it (while it waits for one) and the
    // frame depth whose Ret flushes it (while one runs).
    bool recording = recording_;
    bool record_reads = recording_ && record_field_reads_;
    const Profiler *profiler =
        candidate_profiling_ && !candidate_active_ ? ctx_.profiler()
                                                   : nullptr;
    std::size_t candidate_depth = candidate_active_ ? candidate_depth_ : 0;
    // The call being made: set by Call/CallNative and CallVirt.
    MethodId callee_id = kNoMethod;
    const Method *callee = nullptr;

    // Charge @p ns to the three accumulators, always in this order.
    auto spend = [&](double ns) BH_LOOP_INLINE {
        pending += ns;
        qacc += ns;
        total += ns;
    };
    // One instruction's count and charge.
    auto tick = [&]() BH_LOOP_INLINE {
        ++count;
        spend(step);
    };
    // A remote reference the read barrier must rewrite or fault on.
    auto needsBarrier = [&](Value v) BH_LOOP_INLINE {
        return check_remote && v.isRef() && isRemote(v.asRef());
    };
    auto isLocalObject = [](Value v) BH_LOOP_INLINE {
        return v.isRef() && v.asRef() != kNullRef && !isRemote(v.asRef());
    };
    // The object at vals[i]: a remote one is rewritten in place or
    // faults, nil and null panic.
    auto receiver = [&](std::size_t i) BH_LOOP_INLINE {
        return isLocalObject(vals[i]) ||
               resolveReceiver(vals[i], check_remote, out);
    };
    // A klass the instruction uses: recorded, and faulted on when it
    // is not loaded.
    auto useKlass = [&](KlassId k) BH_LOOP_INLINE {
        if (recording)
            markKlass(k);
        if (ctx_.isLoaded(k)) [[likely]]
            return true;
        out.kind = Suspend::Kind::ClassFault;
        out.klass = k;
        return false;
    };
    auto requireDepth = [&](std::size_t n) BH_LOOP_INLINE {
        if (sp - stack_base < n) [[unlikely]]
            stackUnderflow();
    };
    auto requireSlot = [&](int64_t slot) BH_LOOP_INLINE {
        bh_assert(static_cast<std::size_t>(slot) < num_locals,
                  "bad local slot");
    };
    // Switch to frame @p w: a callee just pushed, or a caller
    // returned to.
    auto enterFrame = [&](Window *w) BH_LOOP_INLINE {
        fp = w;
        m = w->method;
        code = m->code.data();
        code_size = m->code.size();
        base = w->base;
        stack_base = w->stack_base;
        num_locals = stack_base - base;
        mult = w->cost_multiplier;
        step = instr_ns * mult;
        pc = w->pc;
    };

    while (true) {
        // Cases that end in `break` advance the pc; jumps, calls and
        // the fused idioms set it themselves. An instruction that
        // suspends has charged what it did before suspending (its
        // tick, a CallVirt's vtable walk). A fault, a sync or a full
        // heap leaves the pc on it, so the driver's retry re-runs it;
        // a native's External and an OffloadCall leave it past the
        // call. Growing the value stack or rewriting a remote local
        // charges nothing.
        bh_assert(pc < code_size, "pc ran off method %s", m->name.c_str());
        const Instr &in = code[pc];
        switch (in.op) {
          case Op::Nop:
            tick();
            break;

          case Op::PushI:
            if (sp == cap)
                goto grow;
            tick();
            vals[sp++] = Value::ofInt(in.a);
            break;

          case Op::PushF: [[unlikely]] {
            if (sp == cap)
                goto grow;
            tick();
            double d;
            std::memcpy(&d, &in.a, sizeof d);
            vals[sp++] = Value::ofFloat(d);
            break;
          }

          case Op::PushNil:
            if (sp == cap)
                goto grow;
            tick();
            vals[sp++] = Value::nil();
            break;

          case Op::Load:
          load: {
            requireSlot(in.a);
            Value &slot = vals[base + in.a];
            if (needsBarrier(slot)) [[unlikely]] {
                // The load barrier: rewrite the slot in place (paper
                // Section 4.1) and dispatch again, or fault with the
                // Load charged.
                if (!resolveRemote(slot, out)) {
                    tick();
                    goto suspend;
                }
                continue;
            }
            if (sp == cap)
                goto grow;
            tick();
            vals[sp++] = slot;
            break;
          }

          case Op::Store:
            requireSlot(in.a);
            requireDepth(1);
            tick();
            vals[base + in.a] = vals[--sp];
            break;

          case Op::Dup:
            requireDepth(1);
            if (sp == cap)
                goto grow;
            tick();
            vals[sp] = vals[sp - 1];
            ++sp;
            break;

          case Op::Pop:
            requireDepth(1);
            tick();
            --sp;
            break;

          case Op::Swap: [[unlikely]]
            requireDepth(2);
            tick();
            std::swap(vals[sp - 1], vals[sp - 2]);
            break;

          case Op::Add: case Op::Sub: case Op::Mul: {
            requireDepth(2);
            tick();
            const Value b = vals[--sp];
            const Value a = vals[sp - 1];
            if (a.isInt() && b.isInt()) {
                const int64_t x = a.asInt(), y = b.asInt();
                vals[sp - 1] = Value::ofInt(in.op == Op::Add   ? x + y
                                            : in.op == Op::Sub ? x - y
                                                               : x * y);
            } else {
                const double x = a.asNumber(), y = b.asNumber();
                vals[sp - 1] = Value::ofFloat(in.op == Op::Add   ? x + y
                                              : in.op == Op::Sub ? x - y
                                                                 : x * y);
            }
            break;
          }

          case Op::Div: case Op::Mod: {
            requireDepth(2);
            tick();
            const Value b = vals[--sp];
            const Value a = vals[sp - 1];
            if (a.isInt() && b.isInt()) {
                // Division by zero yields 0 by definition in HiveVM;
                // the apps never rely on trapping.
                const int64_t x = a.asInt(), y = b.asInt();
                vals[sp - 1] = Value::ofInt(y == 0              ? 0
                                            : in.op == Op::Div ? x / y
                                                               : x % y);
            } else {
                const double x = a.asNumber(), y = b.asNumber();
                vals[sp - 1] =
                    Value::ofFloat(y == 0.0            ? 0.0
                                   : in.op == Op::Div ? x / y
                                                      : std::fmod(x, y));
            }
            break;
          }

          case Op::Neg: [[unlikely]] {
            requireDepth(1);
            tick();
            const Value a = vals[sp - 1];
            vals[sp - 1] = a.isInt() ? Value::ofInt(-a.asInt())
                                     : Value::ofFloat(-a.asNumber());
            break;
          }

          case Op::CmpEq: case Op::CmpNe: {
            requireDepth(2);
            tick();
            const Value b = vals[--sp];
            const Value a = vals[sp - 1];
            const bool eq = a.isRef() || b.isRef()
                                ? a == b
                                : a.asNumber() == b.asNumber();
            vals[sp - 1] = Value::ofInt((in.op == Op::CmpEq) == eq ? 1 : 0);
            break;
          }

          case Op::CmpLt: case Op::CmpLe: case Op::CmpGt: case Op::CmpGe: {
            requireDepth(2);
            tick();
            const double y = vals[--sp].asNumber();
            const double x = vals[sp - 1].asNumber();
            const bool r = in.op == Op::CmpLt   ? x < y
                           : in.op == Op::CmpLe ? x <= y
                           : in.op == Op::CmpGt ? x > y
                                                : x >= y;
            vals[sp - 1] = Value::ofInt(r ? 1 : 0);
            break;
          }

          case Op::And: case Op::Or: {
            requireDepth(2);
            tick();
            const bool b = vals[--sp].truthy();
            const bool a = vals[sp - 1].truthy();
            const bool r = in.op == Op::And ? a && b : a || b;
            vals[sp - 1] = Value::ofInt(r ? 1 : 0);
            break;
          }

          case Op::Not:
            requireDepth(1);
            tick();
            vals[sp - 1] = Value::ofInt(vals[sp - 1].truthy() ? 0 : 1);
            break;

          case Op::Jmp:
            tick();
            pc = static_cast<uint32_t>(in.a);
            goto next;

          case Op::Jz: case Op::Jnz:
            requireDepth(1);
            tick();
            if (vals[--sp].truthy() == (in.op == Op::Jnz)) {
                pc = static_cast<uint32_t>(in.a);
                goto next;
            }
            break;

          case Op::Compute:
            tick();
            spend(static_cast<double>(in.a) * mult);
            break;

          case Op::New: {
            const KlassId k = static_cast<KlassId>(in.a);
            if (sp == cap)
                goto grow;
            tick();
            if (!useKlass(k))
                goto suspend;
            const Ref r = heap.allocPlain(k);
            if (r == kNullRef) {
                out.kind = Suspend::Kind::HeapFull;
                goto suspend;
            }
            vals[sp++] = Value::ofRef(r);
            spend(10.0 * mult);
            break;
          }

          case Op::NewArr: [[unlikely]] {
            const KlassId k = static_cast<KlassId>(in.a);
            tick();
            if (!useKlass(k))
                goto suspend;
            requireDepth(1);
            const Value len = vals[sp - 1];
            bh_assert(len.isInt() && len.asInt() >= 0, "bad array length");
            const Ref r =
                heap.allocArray(k, static_cast<uint64_t>(len.asInt()));
            if (r == kNullRef) {
                out.kind = Suspend::Kind::HeapFull;
                goto suspend;
            }
            vals[sp - 1] = Value::ofRef(r);
            spend(10.0 * mult + 0.1 * static_cast<double>(len.asInt()));
            break;
          }

          case Op::NewBytes: [[unlikely]] {
            const KlassId k = ctx_.config().bytes_klass;
            bh_assert(k != kNoKlass, "bytes_klass not configured");
            if (sp == cap)
                goto grow;
            tick();
            if (!useKlass(k))
                goto suspend;
            const std::string &s =
                program.stringAt(static_cast<uint32_t>(in.a));
            const Ref r = heap.allocBytes(k, s);
            if (r == kNullRef) {
                out.kind = Suspend::Kind::HeapFull;
                goto suspend;
            }
            vals[sp++] = Value::ofRef(r);
            spend(5.0 * mult + 0.05 * static_cast<double>(s.size()));
            break;
          }

          case Op::GetField: {
            const uint32_t f = static_cast<uint32_t>(in.a);
            requireDepth(1);
            tick();
            if (!receiver(sp - 1))
                goto suspend;
            const Ref obj = vals[sp - 1].asRef();
            if (record_reads) [[unlikely]]
                recordFieldRead(obj, f);
            Value v = heap.field(obj, f);
            if (needsBarrier(v)) [[unlikely]] {
                // Reset the bit in the field itself.
                if (!resolveRemote(v, out))
                    goto suspend;
                heap.setField(obj, f, v);
            }
            if (oracle) [[unlikely]]
                observeField(obj, f, false);
            vals[sp - 1] = v;
            break;
          }

          case Op::PutField: [[unlikely]] {
            const uint32_t f = static_cast<uint32_t>(in.a);
            requireDepth(2);
            tick();
            if (!receiver(sp - 2))
                goto suspend;
            const Ref obj = vals[sp - 2].asRef();
            heap.setField(obj, f, vals[sp - 1]);
            sp -= 2;
            if (oracle) [[unlikely]]
                observeField(obj, f, true);
            break;
          }

          case Op::ALoad: {
            requireDepth(2);
            tick();
            if (!receiver(sp - 2))
                goto suspend;
            const Ref arr = vals[sp - 2].asRef();
            bh_assert(vals[sp - 1].isInt(), "array index must be int");
            const uint32_t idx = static_cast<uint32_t>(vals[sp - 1].asInt());
            Value v = heap.elem(arr, idx);
            if (needsBarrier(v)) [[unlikely]] {
                if (!resolveRemote(v, out))
                    goto suspend;
                heap.setElem(arr, idx, v);
            }
            if (oracle) [[unlikely]]
                observeElement(arr, false);
            vals[--sp - 1] = v;
            break;
          }

          case Op::AStore: [[unlikely]] {
            requireDepth(3);
            tick();
            if (!receiver(sp - 3))
                goto suspend;
            const Ref arr = vals[sp - 3].asRef();
            bh_assert(vals[sp - 2].isInt(), "array index must be int");
            heap.setElem(arr, static_cast<uint32_t>(vals[sp - 2].asInt()),
                         vals[sp - 1]);
            sp -= 3;
            if (oracle) [[unlikely]]
                observeElement(arr, true);
            break;
          }

          case Op::ArrLen: case Op::BytesLen:
            requireDepth(1);
            tick();
            if (!receiver(sp - 1))
                goto suspend;
            vals[sp - 1] = Value::ofInt(heap.count(vals[sp - 1].asRef()));
            break;

          case Op::GetStatic: {
            const KlassId k = static_cast<KlassId>(in.a);
            const uint32_t slot = static_cast<uint32_t>(in.b);
            if (sp == cap)
                goto grow;
            tick();
            if (!useKlass(k))
                goto suspend;
            Value v = ctx_.getStatic(k, slot);
            if (recording)
                markStatic(k, slot);
            if (needsBarrier(v)) [[unlikely]] {
                if (!resolveRemote(v, out))
                    goto suspend;
                ctx_.setStatic(k, slot, v);
            }
            if (oracle) [[unlikely]]
                observeStatic(k, slot, false);
            vals[sp++] = v;
            break;
          }

          case Op::PutStatic: {
            const KlassId k = static_cast<KlassId>(in.a);
            const uint32_t slot = static_cast<uint32_t>(in.b);
            tick();
            if (!useKlass(k))
                goto suspend;
            requireDepth(1);
            ctx_.setStatic(k, slot, vals[--sp]);
            if (recording)
                markStatic(k, slot);
            if (oracle) [[unlikely]]
                observeStatic(k, slot, true);
            break;
          }

          case Op::Call: case Op::CallNative:
            tick();
            callee_id = static_cast<MethodId>(in.a);
            callee = &program.method(callee_id);
            bh_assert(in.op != Op::CallNative || callee->is_native,
                      "CallNative on bytecode method");
            goto call;

          case Op::CallVirt: {
            const NameId name = static_cast<NameId>(in.a);
            const uint16_t nargs = static_cast<uint16_t>(in.b);
            bh_assert(nargs >= 1, "CallVirt needs a receiver");
            requireDepth(nargs);
            tick();
            if (!receiver(sp - nargs))
                goto suspend;
            const KlassId k = heap.header(vals[sp - nargs].asRef()).klass;
            callee_id = program.resolveVirtual(k, name);
            bh_assert(callee_id != kNoMethod, "no virtual %s on %s",
                      program.nameAt(name).c_str(),
                      program.klass(k).name.c_str());
            callee = &program.method(callee_id);
            bh_assert(callee->num_args == nargs,
                      "virtual arg count mismatch on %s",
                      program.nameAt(name).c_str());
            spend(5.0 * mult); // vtable walk
            goto call;
          }

          case Op::Ret: {
            // The caller's copy of the result may need a slot.
            const std::size_t depth = frames_.size();
            if (depth > 1 && base == cap)
                goto grow;
            tick();
            const Value result =
                sp == stack_base ? Value::nil() : vals[sp - 1];
            if (depth == candidate_depth) [[unlikely]] {
                // The candidate handler is returning: flush its profile.
                flushCandidate(total);
                recording = record_reads = false;
                profiler = candidate_profiling_ ? ctx_.profiler() : nullptr;
                candidate_depth = 0;
            }
            sp = base;
            frames_.pop_back();
            if (depth == 1) {
                out.kind = Suspend::Kind::Done;
                out.result = result;
                goto finish;
            }
            enterFrame(&frames_.back());
            vals[sp++] = result;
            goto next;
          }

          case Op::MonitorEnter: [[unlikely]]
            requireDepth(1);
            tick();
            if (!receiver(sp - 1) || !enterMonitor(vals[sp - 1].asRef(), out))
                goto suspend;
            --sp;
            spend(15.0 * mult);
            break;

          case Op::MonitorExit: [[unlikely]]
            requireDepth(1);
            tick();
            if (!receiver(sp - 1) || !exitMonitor(vals[sp - 1].asRef(), out))
                goto suspend;
            --sp;
            spend(10.0 * mult);
            break;

          case Op::GetVolatile: case Op::PutVolatile: [[unlikely]] {
            const bool write = in.op == Op::PutVolatile;
            requireDepth(write ? 2 : 1);
            const std::size_t at = sp - (write ? 2 : 1);
            tick();
            if (!receiver(at) ||
                !accessVolatile(vals + at, static_cast<uint32_t>(in.a), write,
                                out))
                goto suspend;
            sp = write ? at : at + 1;
            spend(8.0 * mult);
            break;
          }

          // Fused idioms (vm::quicken). Each runs its constituents in
          // order: one tick and one quantum check apiece. When the
          // quantum expires after k of them, the stack is what they
          // leave and the pc is the idiom's start + k, so the original
          // instructions (still in place) resume the idiom. A head
          // whose loaded value needs the barrier, or whose getField is
          // observed or has no local receiver, runs as its plain Load.
          // `seq` is the idiom, head first.

          case Op::LoadLeJnz: {
            // load n; pushI c; cmpLe; jnz L
            requireSlot(in.a);
            const Value v = vals[base + in.a];
            if (needsBarrier(v))
                goto load;
            if (cap - sp < 2)
                goto grow;
            const Instr *const seq = &in;
            tick(); // load n
            if (qacc >= quantum_ns) {
                vals[sp++] = v;
                pc += 1;
                goto expire;
            }
            tick(); // pushI c
            const Value c = Value::ofInt(seq[1].a);
            if (qacc >= quantum_ns) {
                vals[sp++] = v;
                vals[sp++] = c;
                pc += 2;
                goto expire;
            }
            tick(); // cmpLe
            const bool le = v.asNumber() <= c.asNumber();
            if (qacc >= quantum_ns) {
                vals[sp++] = Value::ofInt(le ? 1 : 0);
                pc += 3;
                goto expire;
            }
            tick(); // jnz L
            pc = le ? static_cast<uint32_t>(seq[3].a) : pc + 4;
            goto next;
          }

          case Op::LoadNotJnz: {
            // load x; not; jnz L
            requireSlot(in.a);
            const Value v = vals[base + in.a];
            if (needsBarrier(v))
                goto load;
            if (sp == cap)
                goto grow;
            const Instr *const seq = &in;
            tick(); // load x
            if (qacc >= quantum_ns) {
                vals[sp++] = v;
                pc += 1;
                goto expire;
            }
            tick(); // not
            const bool falsy = !v.truthy();
            if (qacc >= quantum_ns) {
                vals[sp++] = Value::ofInt(falsy ? 1 : 0);
                pc += 2;
                goto expire;
            }
            tick(); // jnz L
            pc = falsy ? static_cast<uint32_t>(seq[2].a) : pc + 3;
            goto next;
          }

          case Op::LoadFieldPop:
          case Op::LoadFieldStore: {
            // load x; getField f; pop    or    load x; getField f; store y
            requireSlot(in.a);
            const Value v = vals[base + in.a];
            if (oracle || record_reads || !isLocalObject(v))
                goto load;
            const Instr *const seq = &in;
            // The field is read before the load is charged; a value
            // the getField's barrier must rewrite or fault on runs the
            // idiom as its plain instructions.
            const Value fv =
                heap.field(v.asRef(), static_cast<uint32_t>(seq[1].a));
            if (needsBarrier(fv))
                goto load;
            if (sp == cap)
                goto grow;
            tick(); // load x
            if (qacc >= quantum_ns) {
                vals[sp++] = v;
                pc += 1;
                goto expire;
            }
            tick(); // getField f
            if (qacc >= quantum_ns) {
                vals[sp++] = fv;
                pc += 2;
                goto expire;
            }
            tick(); // pop or store y
            if (in.op == Op::LoadFieldStore) {
                requireSlot(seq[2].a);
                vals[base + seq[2].a] = fv;
            }
            pc += 3;
            goto next;
          }

          case Op::LoadSubStore: {
            // load n; pushI c; sub; store y
            requireSlot(in.a);
            const Value v = vals[base + in.a];
            if (needsBarrier(v))
                goto load;
            if (cap - sp < 2)
                goto grow;
            const Instr *const seq = &in;
            tick(); // load n
            if (qacc >= quantum_ns) {
                vals[sp++] = v;
                pc += 1;
                goto expire;
            }
            tick(); // pushI c
            const Value c = Value::ofInt(seq[1].a);
            if (qacc >= quantum_ns) {
                vals[sp++] = v;
                vals[sp++] = c;
                pc += 2;
                goto expire;
            }
            tick(); // sub
            const Value r =
                v.isInt() ? Value::ofInt(v.asInt() - c.asInt())
                          : Value::ofFloat(v.asNumber() - c.asNumber());
            if (qacc >= quantum_ns) {
                vals[sp++] = r;
                pc += 3;
                goto expire;
            }
            tick(); // store y
            requireSlot(seq[3].a);
            vals[base + seq[3].a] = r;
            pc += 4;
            goto next;
          }
        }
        ++pc;
      next:
        if (qacc >= quantum_ns)
            goto expire;
        continue;

      call: {
        // callee is the resolved target of a Call, CallNative or
        // CallVirt, whose tick (and vtable walk) is already charged.
        const Method &cm = *callee;
        if (!useKlass(cm.owner))
            goto suspend;
        bh_assert(sp - stack_base >= cm.num_args, "not enough args for %s%s",
                  cm.is_native ? "native " : "",
                  cm.is_native ? natives.get(cm.native_id).name.c_str()
                               : cm.name.c_str());
        // The one push that cannot wait for a dispatch again, because
        // the call is charged: a callee's locals, or a 0-argument
        // native's result.
        if (const std::size_t need =
                cm.is_native ? sp + (cm.num_args == 0)
                             : sp - cm.num_args + cm.num_locals;
            need > cap) [[unlikely]] {
            growValues(need);
            vals = values_.data();
            cap = values_.size();
        }
        if (cm.is_native) {
            const NativeMethod &native = natives.get(cm.native_id);
            // The arguments are read in place and popped only once the
            // native ran, so a fallback leaves the call retriable.
            const std::size_t args_at = sp - cm.num_args;
            const std::span<const Value> args(vals + args_at, cm.num_args);
            // A pending force-local one-shot is spent on this native.
            const bool forced = ctx_.forceLocalNativePending() &&
                                ctx_.consumeForceLocalNative();
            if (!forced &&
                nativeFallsBack(native.category, args, heap, check_remote)) {
                out.kind = Suspend::Kind::NativeFallback;
                out.native_id = cm.native_id;
                goto suspend;
            }
            ++pc;
            ++stats_.native_calls;
            ctx_.countNative(native.category);
            NativeResult result = native.fn(ctx_, args);
            sp = args_at;
            spend(result.cost_ns);
            if (result.external.has_value()) {
                awaiting_external_ = true;
                out.kind = Suspend::Kind::External;
                out.external = std::move(result.external);
                goto suspend;
            }
            vals[sp++] = result.ret;
            goto next;
        }
        const std::size_t args_at = sp - cm.num_args;
        if (offload_calls && ctx_.shouldOffload(callee_id)) [[unlikely]] {
            // Semi-FaaS split: redirect this call to a FaaS function.
            // The driver completes it via resumeExternal(). The
            // arguments leave the interpreter, so they are copied out.
            out.offload_args.assign(vals + args_at, vals + sp);
            sp = args_at;
            ++pc;
            awaiting_external_ = true;
            out.kind = Suspend::Kind::OffloadCall;
            out.offload_method = callee_id;
            goto suspend;
        }
        fp->pc = pc + 1;
        spend(20.0 * mult); // call overhead
        Window &callee_frame = pushFrame(callee_id, cm, sp);
        sp = callee_frame.stack_base;
        enterFrame(&callee_frame);
        if (profiler && profiler->isCandidate(callee_id)) [[unlikely]] {
            // Entering an annotated handler starts recording its
            // dynamic extent.
            beginCandidate(callee_id, total);
            recording = true;
            record_reads = record_field_reads_;
            profiler = nullptr;
            candidate_depth = frames_.size();
        }
        goto next;
      }

      grow:
        // A push must grow the value stack. Nothing is charged for it
        // yet, so the instruction is dispatched again.
        growValues(sp + 2);
        vals = values_.data();
        cap = values_.size();
    }

  expire:
    expired = true;
  suspend:
    fp->pc = pc;
  finish:
    sp_ = sp;
    pending_cost_ = pending;
    quantum_acc_ = qacc;
    cost_total_ = total;
    stats_.instructions = count;
    return expired;
}

Suspend
Interpreter::run()
{
    bh_assert(!frames_.empty(), "run() with no frames");
    bh_assert(!awaiting_external_,
              "run() while awaiting external completion");
    const VmConfig &config = ctx_.config();
    Suspend out;
    if (runInner(config.quantum_ns, config.instr_cost_ns,
                 config.check_remote_refs, out)) {
        quantum_acc_ = 0.0;
        out.kind = Suspend::Kind::Quantum;
    }
    return out;
}

std::vector<Frame>
Interpreter::snapshotFrames() const
{
    std::vector<Frame> frames;
    frames.reserve(frames_.size());
    for (std::size_t i = 0; i < frames_.size(); ++i) {
        const Window &w = frames_[i];
        // A frame's operand stack ends where the next window begins.
        const std::size_t end = i + 1 < frames_.size()
                                    ? frames_[i + 1].base
                                    : sp_;
        Frame f;
        f.method = w.id;
        f.pc = w.pc;
        f.cost_multiplier = w.cost_multiplier;
        f.locals.assign(values_.begin() + w.base,
                        values_.begin() + w.stack_base);
        f.stack.assign(values_.begin() + w.stack_base,
                       values_.begin() + end);
        frames.push_back(std::move(f));
    }
    return frames;
}

void
Interpreter::restoreFrames(const std::vector<Frame> &frames)
{
    frames_.clear();
    sp_ = 0;
    for (const Frame &f : frames) {
        Window w;
        w.method = &ctx_.program().method(f.method);
        w.id = f.method;
        w.pc = f.pc;
        w.cost_multiplier = f.cost_multiplier;
        w.base = sp_;
        w.stack_base = w.base + f.locals.size();
        const std::size_t end = w.stack_base + f.stack.size();
        if (end > values_.size())
            growValues(end);
        std::copy(f.locals.begin(), f.locals.end(),
                  values_.begin() + w.base);
        std::copy(f.stack.begin(), f.stack.end(),
                  values_.begin() + w.stack_base);
        sp_ = end;
        frames_.push_back(w);
    }
    awaiting_external_ = false;
}

} // namespace beehive::vm
