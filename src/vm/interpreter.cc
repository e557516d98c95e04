#include "vm/interpreter.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>

#include "support/logging.h"
#include "vm/profiler.h"
#include "vm/race_oracle.h"

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

void
Interpreter::charge(double ns)
{
    pending_cost_ += ns;
    quantum_acc_ += ns;
    cost_total_ += ns;
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

inline Interpreter::Window &
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
Interpreter::requireKlass(KlassId id, Suspend &out)
{
    if (recording_)
        markKlass(id);
    if (ctx_.isLoaded(id))
        return true;
    out.kind = Suspend::Kind::ClassFault;
    out.klass = id;
    return false;
}

bool
Interpreter::checkLoadedValue(Value &slot, Suspend &out)
{
    if (!ctx_.config().check_remote_refs)
        return true;
    if (!slot.isRef())
        return true;
    Ref r = slot.asRef();
    if (r == kNullRef || !isRemote(r))
        return true;
    Ref local = ctx_.lookupRemote(r);
    if (local != kNullRef) {
        // Reset the remote bit in place so later loads are local
        // (paper Section 4.1).
        slot = Value::ofRef(local);
        ++stats_.remote_hits;
        return true;
    }
    out.kind = Suspend::Kind::ObjectFault;
    out.remote_ref = r;
    return false;
}

template <typename Writeback>
bool
Interpreter::loadBarrier(Value &v, Suspend &out, Writeback &&writeback)
{
    if (!ctx_.config().check_remote_refs || !v.isRef() ||
        !isRemote(v.asRef()))
        return true;
    if (!checkLoadedValue(v, out))
        return false;
    writeback(v);
    return true;
}

bool
Interpreter::resolveRefSlow(Value &v, Suspend &out)
{
    bh_assert(v.isRef(), "expected a reference, got kind %d",
              static_cast<int>(v.kind));
    bh_assert(v.asRef() != kNullRef, "null dereference in %s",
              top().method->name.c_str());
    // The stack slot is the value's home, so the rewrite done by
    // checkLoadedValue() is already the writeback.
    return loadBarrier(v, out, [](Value &) {});
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

bool
Interpreter::invokeNative(const Method &m, Suspend &out)
{
    const NativeMethod &native = ctx_.natives().get(m.native_id);
    bh_assert(stackDepth() >= m.num_args,
              "not enough args for native %s", native.name.c_str());

    // The arguments are read in place and popped only once the
    // native ran, so a fallback suspension leaves the instruction
    // retriable.
    const std::size_t args_at = sp_ - m.num_args;
    std::span<const Value> args(values_.data() + args_at, m.num_args);

    if (!ctx_.consumeForceLocalNative() &&
        nativeFallsBack(native.category, args, ctx_.heap(),
                        ctx_.config().check_remote_refs)) {
        out.kind = Suspend::Kind::NativeFallback;
        out.native_id = m.native_id;
        return false;
    }

    ++top().pc;
    ++stats_.native_calls;
    ctx_.countNative(native.category);

    NativeResult result = native.fn(ctx_, args);
    sp_ = args_at;
    charge(result.cost_ns);
    if (result.external.has_value()) {
        awaiting_external_ = true;
        out.kind = Suspend::Kind::External;
        out.external = std::move(result.external);
        return false;
    }
    push(result.ret);
    return true;
}

bool
Interpreter::invoke(MethodId id, Suspend &out)
{
    const Method &m = ctx_.program().method(id);
    if (!requireKlass(m.owner, out))
        return false;
    if (m.is_native)
        return invokeNative(m, out);

    Window &f = top();
    bh_assert(stackDepth() >= m.num_args, "not enough args for %s",
              m.name.c_str());

    if (!suppress_offload_ && ctx_.shouldOffload(id)) {
        // Semi-FaaS split: redirect this call to a FaaS function.
        // The driver completes it via resumeExternal(). The
        // arguments leave the interpreter, so they are copied out.
        const std::size_t args_at = sp_ - m.num_args;
        out.offload_args.assign(values_.begin() + args_at,
                                values_.begin() + sp_);
        sp_ = args_at;
        ++f.pc;
        awaiting_external_ = true;
        out.kind = Suspend::Kind::OffloadCall;
        out.offload_method = id;
        return false;
    }

    ++f.pc;
    charge(20.0 * f.cost_multiplier); // call overhead
    enterMethod(id, m);

    // Candidate profiling: entering an annotated handler starts
    // recording its dynamic extent.
    if (candidate_profiling_ && !candidate_active_ &&
        ctx_.profiler() && ctx_.profiler()->isCandidate(id)) {
        candidate_active_ = true;
        candidate_root_ = id;
        candidate_depth_ = frames_.size();
        candidate_cost_start_ = cost_total_;
        candidate_syncs_start_ = stats_.monitor_enters;
        recording_ = true;
        sizeMarks();
        clearRecording();
    }
    return true;
}

void
Interpreter::resumeExternal(Value result)
{
    bh_assert(awaiting_external_, "resumeExternal without suspension");
    awaiting_external_ = false;
    push(result);
}

Interpreter::Stop
Interpreter::runInner(double quantum_ns, double instr_ns, bool check_remote,
                      Suspend &out)
{
    // The dispatch state lives in locals. What the loop calls (a
    // native's function, an allocation, the cold growth of frames_)
    // cannot reach them, so GCC keeps them in registers; they go
    // back to the members at the exits. The frame's values are
    // reloaded only when a call or a return changes the frame, and
    // values_ never grows in here.
    Window *fp = &frames_.back();
    const Method *m = fp->method;
    const Instr *code = m->code.data();
    std::size_t code_size = m->code.size();
    Value *const vals = values_.data();
    const std::size_t cap = values_.size();
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
    Stop stop = Stop::HandOff;

    const Program &program = ctx_.program();
    const NativeRegistry &natives = ctx_.natives();
    Heap &heap = ctx_.heap();
    // Observed accesses run on the outer switch: GetField, ALoad and
    // the fused field reads while a race oracle watches or field
    // reads are recorded, GetStatic and PutStatic under the oracle.
    const bool oracle = ctx_.raceOracle() != nullptr;
    const bool observed = oracle || (recording_ && record_field_reads_);
    const bool recording = recording_;
    // Calls the outer switch makes: into an offload candidate unless
    // offloading is suppressed, and into a profiler candidate while
    // candidate profiling waits for one. The active candidate's Ret
    // flushes its profile there too.
    const bool offload_calls = !suppress_offload_;
    const Profiler *const profiler =
        candidate_profiling_ && !candidate_active_ ? ctx_.profiler()
                                                   : nullptr;
    const std::size_t candidate_depth =
        candidate_active_ ? candidate_depth_ : 0;
    // The call being made: set by Call/CallNative and CallVirt.
    MethodId callee_id = kNoMethod;
    const Method *callee = nullptr;
    bool virtual_call = false;

    // charge() on the locals, in its order.
    auto spend = [&](double ns) {
        pending += ns;
        qacc += ns;
        total += ns;
    };
    // One instruction's count and charge.
    auto tick = [&] {
        ++count;
        spend(step);
    };
    // A reference the outer switch must resolve first: the load
    // barrier's rewrite or fault under check_remote_refs.
    auto needsBarrier = [&](Value v) {
        return check_remote && v.isRef() && isRemote(v.asRef());
    };
    auto isLocalObject = [](Value v) {
        return v.isRef() && v.asRef() != kNullRef && !isRemote(v.asRef());
    };
    auto requireDepth = [&](std::size_t n) {
        if (sp - stack_base < n) [[unlikely]]
            stackUnderflow();
    };
    auto requireSlot = [&](int64_t slot) {
        bh_assert(static_cast<std::size_t>(slot) < num_locals,
                  "bad local slot");
    };
    // Switch to frame @p w: a callee just pushed, or a caller
    // returned to.
    auto enterFrame = [&](Window *w) {
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
        // Cases that end in `break` advance the pc; jumps and the
        // fused idioms set it themselves. A case that cannot run here
        // jumps to `leave` before it charges or changes anything.
        bh_assert(pc < code_size, "pc ran off method %s", m->name.c_str());
        const Instr &in = code[pc];
        switch (in.op) {
          case Op::Nop:
            tick();
            break;

          case Op::PushI:
            if (sp == cap)
                goto leave;
            tick();
            vals[sp++] = Value::ofInt(in.a);
            break;

          case Op::PushNil:
            if (sp == cap)
                goto leave;
            tick();
            vals[sp++] = Value::nil();
            break;

          case Op::Load:
          load: {
            requireSlot(in.a);
            const Value v = vals[base + in.a];
            if (needsBarrier(v) || sp == cap)
                goto leave;
            tick();
            vals[sp++] = v;
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
                goto leave;
            tick();
            vals[sp] = vals[sp - 1];
            ++sp;
            break;

          case Op::Pop:
            requireDepth(1);
            tick();
            --sp;
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
            bool r = false;
            switch (in.op) {
              case Op::CmpLt: r = x < y; break;
              case Op::CmpLe: r = x <= y; break;
              case Op::CmpGt: r = x > y; break;
              case Op::CmpGe: r = x >= y; break;
              default: break;
            }
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

          case Op::GetField: {
            requireDepth(1);
            const Value recv = vals[sp - 1];
            if (observed || !isLocalObject(recv))
                goto leave;
            const Value v =
                heap.field(recv.asRef(), static_cast<uint32_t>(in.a));
            if (needsBarrier(v))
                goto leave;
            tick();
            vals[sp - 1] = v;
            break;
          }

          case Op::ALoad: {
            requireDepth(2);
            const Value arr = vals[sp - 2];
            if (observed || !isLocalObject(arr))
                goto leave;
            bh_assert(vals[sp - 1].isInt(), "array index must be int");
            const Value v = heap.elem(
                arr.asRef(), static_cast<uint32_t>(vals[sp - 1].asInt()));
            if (needsBarrier(v))
                goto leave;
            tick();
            vals[--sp - 1] = v;
            break;
          }

          case Op::ArrLen: case Op::BytesLen: {
            requireDepth(1);
            const Value obj = vals[sp - 1];
            if (!isLocalObject(obj))
                goto leave;
            tick();
            vals[sp - 1] = Value::ofInt(heap.count(obj.asRef()));
            break;
          }

          case Op::New: {
            const KlassId k = static_cast<KlassId>(in.a);
            if (!ctx_.isLoaded(k) || sp == cap)
                goto leave;
            tick();
            if (recording)
                markKlass(k);
            const Ref r = heap.allocPlain(k);
            if (r == kNullRef) {
                out.kind = Suspend::Kind::HeapFull;
                stop = Stop::Suspended;
                goto leave;
            }
            vals[sp++] = Value::ofRef(r);
            spend(10.0 * mult);
            break;
          }

          case Op::GetStatic: {
            const KlassId k = static_cast<KlassId>(in.a);
            const uint32_t slot = static_cast<uint32_t>(in.b);
            if (oracle || !ctx_.isLoaded(k))
                goto leave;
            const Value v = ctx_.getStatic(k, slot);
            if (needsBarrier(v) || sp == cap)
                goto leave;
            tick();
            if (recording) {
                markKlass(k);
                markStatic(k, slot);
            }
            vals[sp++] = v;
            break;
          }

          case Op::PutStatic: {
            const KlassId k = static_cast<KlassId>(in.a);
            const uint32_t slot = static_cast<uint32_t>(in.b);
            if (oracle || !ctx_.isLoaded(k))
                goto leave;
            requireDepth(1);
            tick();
            ctx_.setStatic(k, slot, vals[--sp]);
            if (recording) {
                markKlass(k);
                markStatic(k, slot);
            }
            break;
          }

          case Op::Call: case Op::CallNative:
            callee_id = static_cast<MethodId>(in.a);
            callee = &program.method(callee_id);
            bh_assert(in.op != Op::CallNative || callee->is_native,
                      "CallNative on bytecode method");
            virtual_call = false;
            goto call;

          case Op::CallVirt: {
            const NameId name = static_cast<NameId>(in.a);
            const uint16_t nargs = static_cast<uint16_t>(in.b);
            bh_assert(nargs >= 1, "CallVirt needs a receiver");
            requireDepth(nargs);
            const Value recv = vals[sp - nargs];
            if (!isLocalObject(recv))
                goto leave;
            const KlassId k = heap.header(recv.asRef()).klass;
            callee_id = program.resolveVirtual(k, name);
            bh_assert(callee_id != kNoMethod, "no virtual %s on %s",
                      program.nameAt(name).c_str(),
                      program.klass(k).name.c_str());
            callee = &program.method(callee_id);
            bh_assert(callee->num_args == nargs,
                      "virtual arg count mismatch on %s",
                      program.nameAt(name).c_str());
            virtual_call = true;
            goto call;
          }

          case Op::Ret: {
            // The active candidate's Ret flushes its profile on the
            // outer switch, which also grows the stack when the
            // caller's copy of the result needs it.
            const std::size_t depth = frames_.size();
            if (depth == candidate_depth || (depth > 1 && base == cap))
                goto leave;
            tick();
            const Value result =
                sp == stack_base ? Value::nil() : vals[sp - 1];
            sp = base;
            frames_.pop_back();
            if (depth == 1) {
                out.kind = Suspend::Kind::Done;
                out.result = result;
                stop = Stop::Suspended;
                goto finish;
            }
            enterFrame(&frames_.back());
            vals[sp++] = result;
            goto next;
          }

          // Fused idioms (vm::quicken). Each runs its constituents in
          // order: one tick and one quantum check apiece. When the
          // quantum expires after k of them, the stack is what they
          // leave and the pc is the idiom's start + k, so the original
          // instructions (still in place) resume the idiom. A head
          // whose idiom needs the outer switch runs as its plain Load.
          // `seq` is the idiom, head first.

          case Op::LoadLeJnz: {
            // load n; pushI c; cmpLe; jnz L
            requireSlot(in.a);
            const Value v = vals[base + in.a];
            if (needsBarrier(v) || cap - sp < 2)
                goto load;
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
            if (needsBarrier(v) || sp == cap)
                goto load;
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
            if (observed || !isLocalObject(v) || sp == cap)
                goto load;
            const Instr *const seq = &in;
            // The field is read before the load is charged; a value
            // the getField's barrier must rewrite or fault on runs the
            // idiom as its plain instructions.
            const Value fv =
                heap.field(v.asRef(), static_cast<uint32_t>(seq[1].a));
            if (needsBarrier(fv))
                goto load;
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
            if (needsBarrier(v) || cap - sp < 2)
                goto load;
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

          default:
            goto leave;
        }
        ++pc;
      next:
        if (qacc >= quantum_ns)
            goto expire;
        continue;

      call: {
        // callee is the resolved target of a Call, CallNative or
        // CallVirt; a CallVirt adds its vtable walk after the tick.
        const Method &cm = *callee;
        if (!ctx_.isLoaded(cm.owner))
            goto leave;
        if (cm.is_native) {
            const NativeMethod &native = natives.get(cm.native_id);
            bh_assert(sp - stack_base >= cm.num_args,
                      "not enough args for native %s", native.name.c_str());
            // The outer switch consumes a force-local one-shot, and
            // grows the stack for a 0-argument native's result.
            if (ctx_.forceLocalNativePending() ||
                (cm.num_args == 0 && sp == cap))
                goto leave;
            const std::size_t args_at = sp - cm.num_args;
            const std::span<const Value> args(vals + args_at, cm.num_args);
            tick();
            if (virtual_call)
                spend(5.0 * mult);
            if (recording)
                markKlass(cm.owner);
            if (nativeFallsBack(native.category, args, heap, check_remote)) {
                // The arguments stay on the stack: the call retries.
                out.kind = Suspend::Kind::NativeFallback;
                out.native_id = cm.native_id;
                stop = Stop::Suspended;
                goto leave;
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
                stop = Stop::Suspended;
                goto leave;
            }
            vals[sp++] = result.ret;
            goto next;
        }
        bh_assert(sp - stack_base >= cm.num_args, "not enough args for %s",
                  cm.name.c_str());
        if ((offload_calls && ctx_.isOffloadCandidate(callee_id)) ||
            (profiler && profiler->isCandidate(callee_id)) ||
            sp - cm.num_args + cm.num_locals > cap)
            goto leave;
        tick();
        if (virtual_call)
            spend(5.0 * mult);
        if (recording)
            markKlass(cm.owner);
        fp->pc = pc + 1;
        spend(20.0 * mult); // call overhead
        Window &callee_frame = pushFrame(callee_id, cm, sp);
        sp = callee_frame.stack_base;
        enterFrame(&callee_frame);
        goto next;
      }
    }

  expire:
    stop = Stop::Quantum;
  leave:
    fp->pc = pc;
  finish:
    sp_ = sp;
    pending_cost_ = pending;
    quantum_acc_ = qacc;
    cost_total_ = total;
    stats_.instructions = count;
    return stop;
}

Suspend
Interpreter::run()
{
    bh_assert(!frames_.empty(), "run() with no frames");
    bh_assert(!awaiting_external_,
              "run() while awaiting external completion");
    const double quantum_ns = ctx_.config().quantum_ns;
    const double instr_ns = ctx_.config().instr_cost_ns;
    const bool check_remote = ctx_.config().check_remote_refs;

    Suspend out;
    while (true) {
        switch (runInner(quantum_ns, instr_ns, check_remote, out)) {
          case Stop::Quantum:
            goto quantum;
          case Stop::Suspended:
            goto done;
          case Stop::HandOff:
            break;
        }

        // runInner() stopped before an instruction it hands over.
        // Call and Ret may reallocate frames_, so nothing below them
        // may touch `f`.
        Window &f = top();
        const Instr &in = f.method->code[f.pc];
        const double mult = f.cost_multiplier;

        // A push runInner() owns stops there only to grow the value
        // stack, and a Load (a fused head stops as its plain Load)
        // also to resolve a remote local. Neither charges: the loop
        // runs the instruction once it can. The reads it owns
        // (GetField, ALoad, ArrLen, BytesLen) stop on their slow
        // paths and run in full below.
        switch (baseOp(in.op)) {
          case Op::Load: {
            Value &slot = values_[f.base + in.a];
            if (check_remote && slot.isRef() && isRemote(slot.asRef())) {
                // The load barrier: rewrite the slot in place (paper
                // Section 4.1) or fault with the Load charged.
                if (!checkLoadedValue(slot, out)) {
                    ++stats_.instructions;
                    charge(instr_ns * mult);
                    goto done;
                }
                continue;
            }
            growValues(sp_ + 1);
            continue;
          }
          case Op::PushI:
          case Op::PushNil:
          case Op::Dup:
            growValues(sp_ + 1);
            continue;
          default:
            break;
        }

        ++stats_.instructions;
        charge(instr_ns * mult);

        switch (in.op) {
          case Op::PushF: {
            double d;
            int64_t bits = in.a;
            std::memcpy(&d, &bits, sizeof d);
            push(Value::ofFloat(d));
            break;
          }

          case Op::Swap: {
            Value a = pop();
            Value b = pop();
            push(a);
            push(b);
            break;
          }

          case Op::Neg: {
            Value a = pop();
            if (a.isInt())
                push(Value::ofInt(-a.asInt()));
            else
                push(Value::ofFloat(-a.asNumber()));
            break;
          }

          case Op::New: {
            KlassId k = static_cast<KlassId>(in.a);
            if (!requireKlass(k, out))
                goto done;
            Ref r = ctx_.heap().allocPlain(k);
            if (r == kNullRef) {
                out.kind = Suspend::Kind::HeapFull;
                goto done;
            }
            push(Value::ofRef(r));
            charge(10.0 * mult);
            break;
          }

          case Op::NewArr: {
            KlassId k = static_cast<KlassId>(in.a);
            if (!requireKlass(k, out))
                goto done;
            Value len = peek();
            bh_assert(len.isInt() && len.asInt() >= 0, "bad array length");
            Ref r = ctx_.heap().allocArray(
                k, static_cast<uint64_t>(len.asInt()));
            if (r == kNullRef) {
                out.kind = Suspend::Kind::HeapFull;
                goto done;
            }
            pop();
            push(Value::ofRef(r));
            charge(10.0 * mult + 0.1 * static_cast<double>(len.asInt()));
            break;
          }

          case Op::NewBytes: {
            KlassId k = ctx_.config().bytes_klass;
            bh_assert(k != kNoKlass, "bytes_klass not configured");
            if (!requireKlass(k, out))
                goto done;
            const std::string &s =
                ctx_.program().stringAt(static_cast<uint32_t>(in.a));
            Ref r = ctx_.heap().allocBytes(k, s);
            if (r == kNullRef) {
                out.kind = Suspend::Kind::HeapFull;
                goto done;
            }
            push(Value::ofRef(r));
            charge(5.0 * mult + 0.05 * static_cast<double>(s.size()));
            break;
          }

          case Op::BytesLen:
          case Op::ArrLen: {
            if (!resolveRef(peek(), out))
                goto done;
            Ref r = pop().asRef();
            push(Value::ofInt(ctx_.heap().count(r)));
            break;
          }

          case Op::GetField: {
            if (!resolveRef(peek(), out))
                goto done;
            Ref obj = peek().asRef();
            if (recording_ && record_field_reads_)
                recorded_field_reads_.insert(
                    {ctx_.heap().header(obj).klass,
                     static_cast<uint32_t>(in.a)});
            Value v = ctx_.heap().field(obj,
                                        static_cast<uint32_t>(in.a));
            if (!loadBarrier(v, out, [&](Value &nv) {
                    // Reset the bit in the field itself.
                    ctx_.heap().setField(obj, static_cast<uint32_t>(in.a),
                                         nv);
                }))
                goto done;
            if (RaceOracle *ro = ctx_.raceOracle())
                ro->fieldAccess(race_tid_, obj,
                                ctx_.heap().header(obj).klass,
                                static_cast<uint32_t>(in.a), false);
            pop();
            push(v);
            break;
          }

          case Op::PutField: {
            if (!resolveRef(peek(1), out))
                goto done;
            Value v = pop();
            Ref obj = pop().asRef();
            ctx_.heap().setField(obj, static_cast<uint32_t>(in.a), v);
            if (RaceOracle *ro = ctx_.raceOracle())
                ro->fieldAccess(race_tid_, obj,
                                ctx_.heap().header(obj).klass,
                                static_cast<uint32_t>(in.a), true);
            break;
          }

          case Op::ALoad: {
            if (!resolveRef(peek(1), out))
                goto done;
            Value idx_v = peek(0);
            bh_assert(idx_v.isInt(), "array index must be int");
            Ref arr = peek(1).asRef();
            uint32_t idx = static_cast<uint32_t>(idx_v.asInt());
            Value v = ctx_.heap().elem(arr, idx);
            if (!loadBarrier(v, out, [&](Value &nv) {
                    ctx_.heap().setElem(arr, idx, nv);
                }))
                goto done;
            if (RaceOracle *ro = ctx_.raceOracle())
                ro->elementAccess(race_tid_, arr,
                                  ctx_.heap().header(arr).klass, false);
            pop();
            pop();
            push(v);
            break;
          }

          case Op::AStore: {
            if (!resolveRef(peek(2), out))
                goto done;
            Value v = pop();
            Value idx = pop();
            Ref arr = pop().asRef();
            bh_assert(idx.isInt(), "array index must be int");
            ctx_.heap().setElem(arr, static_cast<uint32_t>(idx.asInt()), v);
            if (RaceOracle *ro = ctx_.raceOracle())
                ro->elementAccess(race_tid_, arr,
                                  ctx_.heap().header(arr).klass, true);
            break;
          }

          case Op::GetStatic: {
            KlassId k = static_cast<KlassId>(in.a);
            if (!requireKlass(k, out))
                goto done;
            Value v = ctx_.getStatic(k, static_cast<uint32_t>(in.b));
            if (recording_)
                markStatic(k, static_cast<uint32_t>(in.b));
            if (!loadBarrier(v, out, [&](Value &nv) {
                    ctx_.setStatic(k, static_cast<uint32_t>(in.b), nv);
                }))
                goto done;
            if (RaceOracle *ro = ctx_.raceOracle())
                ro->staticAccess(race_tid_, k,
                                 static_cast<uint32_t>(in.b), false);
            push(v);
            break;
          }

          case Op::PutStatic: {
            KlassId k = static_cast<KlassId>(in.a);
            if (!requireKlass(k, out))
                goto done;
            ctx_.setStatic(k, static_cast<uint32_t>(in.b), pop());
            if (recording_)
                markStatic(k, static_cast<uint32_t>(in.b));
            if (RaceOracle *ro = ctx_.raceOracle())
                ro->staticAccess(race_tid_, k,
                                 static_cast<uint32_t>(in.b), true);
            break;
          }

          case Op::Call:
          case Op::CallNative: {
            MethodId id = static_cast<MethodId>(in.a);
            bh_assert(in.op != Op::CallNative ||
                          ctx_.program().method(id).is_native,
                      "CallNative on bytecode method");
            if (!invoke(id, out))
                goto done;
            goto next; // pc handled by invoke
          }

          case Op::CallVirt: {
            NameId name = static_cast<NameId>(in.a);
            uint16_t nargs = static_cast<uint16_t>(in.b);
            bh_assert(nargs >= 1, "CallVirt needs a receiver");
            if (!resolveRef(peek(nargs - 1), out))
                goto done;
            Ref recv = peek(nargs - 1).asRef();
            KlassId k = ctx_.heap().header(recv).klass;
            MethodId id = ctx_.program().resolveVirtual(k, name);
            bh_assert(id != kNoMethod, "no virtual %s on %s",
                      ctx_.program().nameAt(name).c_str(),
                      ctx_.program().klass(k).name.c_str());
            bh_assert(ctx_.program().method(id).num_args == nargs,
                      "virtual arg count mismatch on %s",
                      ctx_.program().nameAt(name).c_str());
            charge(5.0 * mult); // vtable walk
            if (!invoke(id, out))
                goto done;
            goto next;
          }

          case Op::MonitorEnter: {
            if (!resolveRef(peek(), out))
                goto done;
            Ref obj = peek().asRef();
            if (granted_monitor_ == obj) {
                granted_monitor_ = kNullRef; // one-shot grant consumed
            } else if (ctx_.needsRemoteAcquire(obj)) {
                // Shared-object monitor: the driver must win it from
                // the SyncManager's monitor table before we proceed.
                out.kind = Suspend::Kind::MonitorAcquire;
                out.monitor_obj = obj;
                goto done;
            }
            pop();
            ctx_.heap().header(obj).lock_owner =
                static_cast<uint16_t>(ctx_.config().endpoint + 1);
            if (RaceOracle *ro = ctx_.raceOracle())
                ro->acquire(race_tid_, obj);
            ++stats_.monitor_enters;
            charge(15.0 * mult);
            break;
          }

          case Op::MonitorExit: {
            if (!resolveRef(peek(), out))
                goto done;
            Ref obj = peek().asRef();
            if (release_granted_) {
                release_granted_ = false;
            } else if (ctx_.needsRemoteAcquire(obj)) {
                out.kind = Suspend::Kind::MonitorRelease;
                out.monitor_obj = obj;
                goto done;
            }
            pop();
            if (RaceOracle *ro = ctx_.raceOracle())
                ro->release(race_tid_, obj);
            ctx_.monitorReleased(obj);
            charge(10.0 * mult);
            break;
          }

          case Op::GetVolatile:
          case Op::PutVolatile: {
            // Volatile accesses carry JMM acquire/release semantics:
            // on a shared object they synchronize state with the last
            // releasing endpoint before proceeding (Section 4.2:
            // "other synchronization operations, like volatile memory
            // accesses, are also supported").
            std::size_t obj_depth = in.op == Op::PutVolatile ? 1 : 0;
            if (!resolveRef(peek(obj_depth), out))
                goto done;
            Ref obj = peek(obj_depth).asRef();
            if (granted_volatile_ == obj) {
                granted_volatile_ = kNullRef;
            } else if (ctx_.needsRemoteAcquire(obj)) {
                out.kind = Suspend::Kind::VolatileSync;
                out.monitor_obj = obj;
                out.volatile_write = in.op == Op::PutVolatile;
                goto done;
            }
            if (in.op == Op::PutVolatile) {
                Value v = pop();
                Ref target = pop().asRef();
                ctx_.heap().setField(target,
                                     static_cast<uint32_t>(in.a), v);
                if (RaceOracle *ro = ctx_.raceOracle())
                    ro->volatileAccess(race_tid_, target,
                                       ctx_.heap().header(target).klass,
                                       static_cast<uint32_t>(in.a),
                                       true);
                ctx_.monitorReleased(target); // release edge
            } else {
                Ref target = pop().asRef();
                if (recording_ && record_field_reads_)
                    recorded_field_reads_.insert(
                        {ctx_.heap().header(target).klass,
                         static_cast<uint32_t>(in.a)});
                if (RaceOracle *ro = ctx_.raceOracle())
                    ro->volatileAccess(race_tid_, target,
                                       ctx_.heap().header(target).klass,
                                       static_cast<uint32_t>(in.a),
                                       false);
                push(ctx_.heap().field(target,
                                       static_cast<uint32_t>(in.a)));
            }
            charge(8.0 * mult);
            break;
          }

          case Op::Ret: {
            Value result =
                sp_ == f.stack_base ? Value::nil() : values_[sp_ - 1];
            if (candidate_active_ && frames_.size() == candidate_depth_) {
                // The candidate handler is returning: flush its profile.
                if (ctx_.profiler()) {
                    ctx_.profiler()->recordExecution(
                        candidate_root_,
                        cost_total_ - candidate_cost_start_,
                        recordedKlasses(), recordedStatics(),
                        stats_.monitor_enters - candidate_syncs_start_);
                }
                candidate_active_ = false;
                recording_ = false;
            }
            sp_ = f.base;
            frames_.pop_back();
            if (frames_.empty()) {
                out.kind = Suspend::Kind::Done;
                out.result = result;
                goto done;
            }
            push(result);
            goto next;
          }

          // runInner() runs these whenever they can run at all: a
          // push at the limit and a remote local were handled above,
          // and bad slots and underflow panic in the loop.
          case Op::Nop: case Op::PushI: case Op::PushNil: case Op::Load:
          case Op::Store: case Op::Dup: case Op::Pop:
          case Op::Add: case Op::Sub: case Op::Mul:
          case Op::Div: case Op::Mod:
          case Op::CmpEq: case Op::CmpNe: case Op::CmpLt: case Op::CmpLe:
          case Op::CmpGt: case Op::CmpGe:
          case Op::And: case Op::Or: case Op::Not:
          case Op::Jmp: case Op::Jz: case Op::Jnz: case Op::Compute:
          case Op::LoadLeJnz: case Op::LoadNotJnz: case Op::LoadFieldPop:
          case Op::LoadFieldStore: case Op::LoadSubStore:
            panic("op %d handed over by the inner loop in %s",
                  static_cast<int>(in.op), f.method->name.c_str());
        }

        ++f.pc;
      next:
        if (quantum_acc_ >= quantum_ns)
            goto quantum;
    }

  quantum:
    quantum_acc_ = 0.0;
    out.kind = Suspend::Kind::Quantum;
  done:
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
