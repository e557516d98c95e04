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
Interpreter::clearRecording()
{
    recorded_klasses_.clear();
    recorded_statics_.clear();
    recorded_field_reads_.clear();
}

void
Interpreter::enterMethod(MethodId id, const Method &m)
{
    bh_assert(!m.is_native, "enterMethod on native");
    Window w;
    w.method = &m;
    w.id = id;
    w.cost_multiplier = ctx_.methodEntered(id);
    // The arguments stay where the caller pushed them and become
    // locals [0, num_args); the remaining locals start out nil.
    w.base = sp_ - m.num_args;
    w.stack_base = w.base + m.num_locals;
    if (w.stack_base > values_.size())
        growValues(w.stack_base);
    for (std::size_t i = sp_; i < w.stack_base; ++i)
        values_[i] = Value::nil();
    sp_ = w.stack_base;
    frames_.push_back(w);
    ++stats_.calls;
}

bool
Interpreter::requireKlass(KlassId id, Suspend &out)
{
    if (recording_)
        recorded_klasses_.insert(id);
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
        ctx_.nativeDisposition(native, args) ==
            NativeDisposition::Fallback) {
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
    if (result.external) {
        awaiting_external_ = true;
        out.kind = Suspend::Kind::External;
        out.external = std::move(*result.external);
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

Suspend
Interpreter::run()
{
    bh_assert(!frames_.empty(), "run() with no frames");
    bh_assert(!awaiting_external_,
              "run() while awaiting external completion");
    const double quantum_ns = ctx_.config().quantum_ns;
    const double instr_ns = ctx_.config().instr_cost_ns;
    const bool check_remote = ctx_.config().check_remote_refs;

    // The cost accumulators and the instruction count live in locals
    // for the loop. spill() writes them back before invoke(), which
    // charges the members, and at every return; reload() picks up
    // what invoke() added. spend() makes charge()'s additions in
    // charge()'s order, so every sum is bit-identical.
    double pending = pending_cost_;
    double qacc = quantum_acc_;
    double total = cost_total_;
    uint64_t count = stats_.instructions;
    auto spend = [&](double ns) {
        pending += ns;
        qacc += ns;
        total += ns;
    };
    auto spill = [&] {
        pending_cost_ = pending;
        quantum_acc_ = qacc;
        cost_total_ = total;
        stats_.instructions = count;
    };
    auto reload = [&] {
        pending = pending_cost_;
        qacc = quantum_acc_;
        total = cost_total_;
        count = stats_.instructions;
    };

    // A quickened head (vm::quicken) runs fused only when its Load
    // needs no remote-ref rewrite and its @p pushes fit the value
    // stack without growing it; otherwise it runs as the plain Load.
    auto fusable = [&](Value v, std::size_t pushes) {
        return !(check_remote && v.isRef() && isRemote(v.asRef())) &&
               sp_ + pushes <= values_.size();
    };
    // The getField idioms also need a local non-null receiver, and
    // no field-read recording or race oracle (the plain GetField
    // feeds both).
    auto fusableField = [&](Value v) {
        return v.isRef() && v.asRef() != kNullRef && !isRemote(v.asRef()) &&
               !recording_ && !ctx_.raceOracle() &&
               sp_ + 1 <= values_.size();
    };

    // A fused idiom charges its constituents on copies of the
    // accumulators taken by fuse() and written back by commit(). The
    // loop's own copies live across calls, so GCC keeps them in
    // memory; these live only inside one idiom, in registers.
    double fp = 0.0, fq = 0.0, ft = 0.0;
    uint64_t fc = 0;
    auto fuse = [&] {
        fp = pending;
        fq = qacc;
        ft = total;
        fc = count;
    };
    auto constituent = [&](double ns) {
        ++fc;
        fp += ns;
        fq += ns;
        ft += ns;
    };
    auto commit = [&] {
        pending = fp;
        qacc = fq;
        total = ft;
        count = fc;
    };

    Suspend out;
    while (true) {
        // One instruction per iteration. Cases that end in `break`
        // advance the pc; jumps, calls, returns and the fused idioms
        // set it themselves and go straight to the quantum check.
        // Call and Ret may reallocate frames_, so nothing below them
        // may touch `f`.
        Window &f = top();
        const Method &m = *f.method;
        bh_assert(f.pc < m.code.size(), "pc ran off method %s",
                  m.name.c_str());
        const Instr &in = m.code[f.pc];
        const double mult = f.cost_multiplier;
        // One instruction's charge; a fused idiom pays it for each
        // of its constituents.
        const double step = instr_ns * mult;

        ++count;
        spend(step);

        switch (in.op) {
          case Op::Nop:
            break;

          case Op::PushI:
            push(Value::ofInt(in.a));
            break;

          case Op::PushF: {
            double d;
            int64_t bits = in.a;
            std::memcpy(&d, &bits, sizeof d);
            push(Value::ofFloat(d));
            break;
          }

          case Op::PushNil:
            push(Value::nil());
            break;

          case Op::Load:
          load: {
            bh_assert(static_cast<std::size_t>(in.a) < f.stack_base - f.base,
                      "bad local slot");
            if (!checkLoadedValue(values_[f.base + in.a], out))
                goto done;
            push(values_[f.base + in.a]);
            break;
          }

          case Op::Store: {
            bh_assert(static_cast<std::size_t>(in.a) < f.stack_base - f.base,
                      "bad local slot");
            values_[f.base + in.a] = pop();
            break;
          }

          case Op::Dup:
            push(peek());
            break;

          case Op::Pop:
            pop();
            break;

          case Op::Swap: {
            Value a = pop();
            Value b = pop();
            push(a);
            push(b);
            break;
          }

          case Op::Add: case Op::Sub: case Op::Mul:
          case Op::Div: case Op::Mod: {
            Value b = pop();
            Value a = pop();
            if (a.isInt() && b.isInt()) {
                int64_t x = a.asInt(), y = b.asInt(), r = 0;
                switch (in.op) {
                  case Op::Add: r = x + y; break;
                  case Op::Sub: r = x - y; break;
                  case Op::Mul: r = x * y; break;
                  // Division by zero yields 0 by definition in HiveVM;
                  // the apps never rely on trapping.
                  case Op::Div: r = y == 0 ? 0 : x / y; break;
                  case Op::Mod: r = y == 0 ? 0 : x % y; break;
                  default: break;
                }
                push(Value::ofInt(r));
            } else {
                double x = a.asNumber(), y = b.asNumber(), r = 0.0;
                switch (in.op) {
                  case Op::Add: r = x + y; break;
                  case Op::Sub: r = x - y; break;
                  case Op::Mul: r = x * y; break;
                  case Op::Div: r = y == 0.0 ? 0.0 : x / y; break;
                  case Op::Mod: r = y == 0.0 ? 0.0 : std::fmod(x, y); break;
                  default: break;
                }
                push(Value::ofFloat(r));
            }
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

          case Op::CmpEq: case Op::CmpNe: {
            Value b = pop();
            Value a = pop();
            bool eq;
            if (a.isRef() || b.isRef())
                eq = a == b;
            else
                eq = a.asNumber() == b.asNumber();
            push(Value::ofInt((in.op == Op::CmpEq) == eq ? 1 : 0));
            break;
          }

          case Op::CmpLt: case Op::CmpLe: case Op::CmpGt: case Op::CmpGe: {
            Value b = pop();
            Value a = pop();
            double x = a.asNumber(), y = b.asNumber();
            bool r = false;
            switch (in.op) {
              case Op::CmpLt: r = x < y; break;
              case Op::CmpLe: r = x <= y; break;
              case Op::CmpGt: r = x > y; break;
              case Op::CmpGe: r = x >= y; break;
              default: break;
            }
            push(Value::ofInt(r ? 1 : 0));
            break;
          }

          case Op::And: {
            Value b = pop();
            Value a = pop();
            push(Value::ofInt(a.truthy() && b.truthy() ? 1 : 0));
            break;
          }

          case Op::Or: {
            Value b = pop();
            Value a = pop();
            push(Value::ofInt(a.truthy() || b.truthy() ? 1 : 0));
            break;
          }

          case Op::Not:
            push(Value::ofInt(pop().truthy() ? 0 : 1));
            break;

          case Op::Jmp:
            f.pc = static_cast<uint32_t>(in.a);
            goto next;

          case Op::Jz:
            if (!pop().truthy()) {
                f.pc = static_cast<uint32_t>(in.a);
                goto next;
            }
            break;

          case Op::Jnz:
            if (pop().truthy()) {
                f.pc = static_cast<uint32_t>(in.a);
                goto next;
            }
            break;

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
            spend(10.0 * mult);
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
            spend(10.0 * mult + 0.1 * static_cast<double>(len.asInt()));
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
            spend(5.0 * mult + 0.05 * static_cast<double>(s.size()));
            break;
          }

          case Op::BytesLen: {
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
            if (recording_)
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

          case Op::ArrLen: {
            if (!resolveRef(peek(), out))
                goto done;
            Ref arr = pop().asRef();
            push(Value::ofInt(ctx_.heap().count(arr)));
            break;
          }

          case Op::GetStatic: {
            KlassId k = static_cast<KlassId>(in.a);
            if (!requireKlass(k, out))
                goto done;
            if (recording_)
                recorded_statics_.insert(
                    {k, static_cast<uint32_t>(in.b)});
            Value v = ctx_.getStatic(k, static_cast<uint32_t>(in.b));
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
            if (recording_)
                recorded_statics_.insert(
                    {k, static_cast<uint32_t>(in.b)});
            ctx_.setStatic(k, static_cast<uint32_t>(in.b), pop());
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
            spill();
            const bool ok = invoke(id, out);
            reload();
            if (!ok)
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
            spend(5.0 * mult); // vtable walk
            spill();
            const bool ok = invoke(id, out);
            reload();
            if (!ok)
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
            spend(15.0 * mult);
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
            spend(10.0 * mult);
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
                if (recording_)
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
            spend(8.0 * mult);
            break;
          }

          case Op::Compute:
            spend(static_cast<double>(in.a) * mult);
            break;

          // Fused idioms (vm::quicken). Each runs its constituents in
          // order: one count, one charge and one quantum check apiece.
          // When the quantum expires after k of them, the stack is what
          // they leave and the pc is the idiom's start + k, so the
          // original instructions (still in place) resume the idiom.
          // `seq` is the idiom, head first.

          case Op::LoadLeJnz: {
            // load n; pushI c; cmpLe; jnz L
            bh_assert(static_cast<std::size_t>(in.a) < f.stack_base - f.base,
                      "bad local slot");
            const Value v = values_[f.base + in.a];
            if (!fusable(v, 2))
                goto load;
            fuse();
            const Instr *const seq = &in;
            const uint32_t at = f.pc;
            if (fq >= quantum_ns) {
                values_[sp_++] = v;
                f.pc = at + 1;
                commit();
                goto quantum;
            }
            constituent(step); // pushI c
            const Value c = Value::ofInt(seq[1].a);
            if (fq >= quantum_ns) {
                values_[sp_++] = v;
                values_[sp_++] = c;
                f.pc = at + 2;
                commit();
                goto quantum;
            }
            constituent(step); // cmpLe
            const bool le = v.asNumber() <= c.asNumber();
            if (fq >= quantum_ns) {
                values_[sp_++] = Value::ofInt(le ? 1 : 0);
                f.pc = at + 3;
                commit();
                goto quantum;
            }
            constituent(step); // jnz L
            f.pc = le ? static_cast<uint32_t>(seq[3].a) : at + 4;
            commit();
            goto next;
          }

          case Op::LoadNotJnz: {
            // load x; not; jnz L
            bh_assert(static_cast<std::size_t>(in.a) < f.stack_base - f.base,
                      "bad local slot");
            const Value v = values_[f.base + in.a];
            if (!fusable(v, 1))
                goto load;
            fuse();
            const Instr *const seq = &in;
            const uint32_t at = f.pc;
            if (fq >= quantum_ns) {
                values_[sp_++] = v;
                f.pc = at + 1;
                commit();
                goto quantum;
            }
            constituent(step); // not
            const bool falsy = !v.truthy();
            if (fq >= quantum_ns) {
                values_[sp_++] = Value::ofInt(falsy ? 1 : 0);
                f.pc = at + 2;
                commit();
                goto quantum;
            }
            constituent(step); // jnz L
            f.pc = falsy ? static_cast<uint32_t>(seq[2].a) : at + 3;
            commit();
            goto next;
          }

          case Op::LoadFieldPop:
          case Op::LoadFieldStore: {
            // load x; getField f; pop    or    load x; getField f; store y
            bh_assert(static_cast<std::size_t>(in.a) < f.stack_base - f.base,
                      "bad local slot");
            const Value v = values_[f.base + in.a];
            if (!fusableField(v))
                goto load;
            fuse();
            const Instr *const seq = &in;
            const uint32_t at = f.pc;
            if (fq >= quantum_ns) {
                values_[sp_++] = v;
                f.pc = at + 1;
                commit();
                goto quantum;
            }
            constituent(step); // getField f
            const Ref obj = v.asRef();
            const uint32_t field = static_cast<uint32_t>(seq[1].a);
            Value fv = ctx_.heap().field(obj, field);
            if (!loadBarrier(fv, out, [&](Value &nv) {
                    ctx_.heap().setField(obj, field, nv);
                })) {
                // ObjectFault: the getField retries with its receiver.
                values_[sp_++] = v;
                f.pc = at + 1;
                commit();
                goto done;
            }
            if (fq >= quantum_ns) {
                values_[sp_++] = fv;
                f.pc = at + 2;
                commit();
                goto quantum;
            }
            constituent(step); // pop or store y
            if (in.op == Op::LoadFieldStore) {
                bh_assert(static_cast<std::size_t>(seq[2].a) <
                              f.stack_base - f.base,
                          "bad local slot");
                values_[f.base + seq[2].a] = fv;
            }
            f.pc = at + 3;
            commit();
            goto next;
          }

          case Op::LoadSubStore: {
            // load n; pushI c; sub; store y
            bh_assert(static_cast<std::size_t>(in.a) < f.stack_base - f.base,
                      "bad local slot");
            const Value v = values_[f.base + in.a];
            if (!fusable(v, 2))
                goto load;
            fuse();
            const Instr *const seq = &in;
            const uint32_t at = f.pc;
            if (fq >= quantum_ns) {
                values_[sp_++] = v;
                f.pc = at + 1;
                commit();
                goto quantum;
            }
            constituent(step); // pushI c
            const Value c = Value::ofInt(seq[1].a);
            if (fq >= quantum_ns) {
                values_[sp_++] = v;
                values_[sp_++] = c;
                f.pc = at + 2;
                commit();
                goto quantum;
            }
            constituent(step); // sub
            const Value r =
                v.isInt() ? Value::ofInt(v.asInt() - c.asInt())
                          : Value::ofFloat(v.asNumber() - c.asNumber());
            if (fq >= quantum_ns) {
                values_[sp_++] = r;
                f.pc = at + 3;
                commit();
                goto quantum;
            }
            constituent(step); // store y
            bh_assert(static_cast<std::size_t>(seq[3].a) < f.stack_base - f.base,
                      "bad local slot");
            values_[f.base + seq[3].a] = r;
            f.pc = at + 4;
            commit();
            goto next;
          }

          case Op::Ret: {
            Value result =
                sp_ == f.stack_base ? Value::nil() : values_[sp_ - 1];
            if (candidate_active_ && frames_.size() == candidate_depth_) {
                // The candidate handler is returning: flush its profile.
                if (ctx_.profiler()) {
                    ctx_.profiler()->recordExecution(
                        candidate_root_,
                        total - candidate_cost_start_,
                        recorded_klasses_, recorded_statics_,
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
        }

        ++f.pc;
      next:
        if (qacc >= quantum_ns)
            goto quantum;
    }

  quantum:
    qacc = 0.0;
    out.kind = Suspend::Kind::Quantum;
  done:
    spill();
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

void
Interpreter::forEachRoot(const std::function<void(Value &)> &fn)
{
    // The windows tile values_[0, sp_) in exactly the root order.
    for (std::size_t i = 0; i < sp_; ++i)
        fn(values_[i]);
}

} // namespace beehive::vm
