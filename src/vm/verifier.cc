#include "vm/verifier.h"

#include <algorithm>
#include <set>

#include "support/strutil.h"
#include "vm/dataflow.h"

namespace beehive::vm {

namespace {

/**
 * Abstract value of the verifier's lattice. Kinds mirror Value::Kind
 * plus the joins the dataflow needs: Num (int-or-float), Any
 * (statically unknown: arguments, field loads, call results).
 * Refinements sharpen Ref (shape, klass, array length) and Int
 * (constant) so field indices and array bounds can be checked.
 */
struct AbsType
{
    enum class Kind : uint8_t { Nil, Int, Float, Num, Ref, Any };
    enum class Shape : uint8_t { Unknown, Plain, Array, Bytes };

    Kind kind = Kind::Any;
    Shape shape = Shape::Unknown; //!< Ref only
    KlassId klass = kNoKlass;     //!< Ref/Plain: instance klass
    bool len_known = false;       //!< Ref/Array: length known
    uint32_t len = 0;
    bool const_known = false;     //!< Int: constant known
    int64_t cval = 0;

    static AbsType any() { return AbsType{}; }

    static AbsType
    nil()
    {
        AbsType t;
        t.kind = Kind::Nil;
        return t;
    }

    static AbsType
    integer()
    {
        AbsType t;
        t.kind = Kind::Int;
        return t;
    }

    static AbsType
    intConst(int64_t v)
    {
        AbsType t = integer();
        t.const_known = true;
        t.cval = v;
        return t;
    }

    static AbsType
    floating()
    {
        AbsType t;
        t.kind = Kind::Float;
        return t;
    }

    static AbsType
    number()
    {
        AbsType t;
        t.kind = Kind::Num;
        return t;
    }

    static AbsType
    obj(KlassId k)
    {
        AbsType t;
        t.kind = Kind::Ref;
        t.shape = Shape::Plain;
        t.klass = k;
        return t;
    }

    static AbsType
    array(bool len_known, uint32_t len)
    {
        AbsType t;
        t.kind = Kind::Ref;
        t.shape = Shape::Array;
        t.len_known = len_known;
        t.len = len;
        return t;
    }

    static AbsType
    bytesObj()
    {
        AbsType t;
        t.kind = Kind::Ref;
        t.shape = Shape::Bytes;
        return t;
    }

    bool isNumeric() const
    {
        return kind == Kind::Int || kind == Kind::Float ||
               kind == Kind::Num;
    }
    bool isRef() const { return kind == Kind::Ref; }

    bool
    operator==(const AbsType &o) const
    {
        return kind == o.kind && shape == o.shape &&
               klass == o.klass && len_known == o.len_known &&
               len == o.len && const_known == o.const_known &&
               cval == o.cval;
    }
    bool operator!=(const AbsType &o) const { return !(*this == o); }

    const char *
    name() const
    {
        switch (kind) {
          case Kind::Nil: return "nil";
          case Kind::Int: return "int";
          case Kind::Float: return "float";
          case Kind::Num: return "num";
          case Kind::Ref:
            switch (shape) {
              case Shape::Plain: return "ref";
              case Shape::Array: return "array";
              case Shape::Bytes: return "bytes";
              case Shape::Unknown: return "ref?";
            }
            return "ref";
          case Kind::Any: return "any";
        }
        return "?";
    }
};

/** Least upper bound of two abstract values. */
AbsType
merge(const AbsType &a, const AbsType &b)
{
    if (a == b)
        return a;
    if (a.kind == b.kind) {
        switch (a.kind) {
          case AbsType::Kind::Int: {
            // Constants disagree (equal ones hit the a == b case).
            return AbsType::integer();
          }
          case AbsType::Kind::Ref: {
            if (a.shape != b.shape) {
                AbsType t;
                t.kind = AbsType::Kind::Ref;
                return t;
            }
            AbsType t = a;
            if (t.klass != b.klass)
                t.klass = kNoKlass;
            if (!b.len_known || !a.len_known || a.len != b.len) {
                t.len_known = false;
                t.len = 0;
            }
            return t;
          }
          default:
            return a;
        }
    }
    if (a.isNumeric() && b.isNumeric())
        return AbsType::number();
    return AbsType::any();
}

const char *
opMnemonic(Op op)
{
    switch (op) {
      case Op::Nop: return "Nop";
      case Op::PushI: return "PushI";
      case Op::PushF: return "PushF";
      case Op::PushNil: return "PushNil";
      // A quickened head reads as its Load (vm/quicken.h).
      case Op::Load: case Op::LoadLeJnz: case Op::LoadNotJnz:
      case Op::LoadFieldPop: case Op::LoadFieldStore:
      case Op::LoadSubStore:
        return "Load";
      case Op::Store: return "Store";
      case Op::Dup: return "Dup";
      case Op::Pop: return "Pop";
      case Op::Swap: return "Swap";
      case Op::Add: return "Add";
      case Op::Sub: return "Sub";
      case Op::Mul: return "Mul";
      case Op::Div: return "Div";
      case Op::Mod: return "Mod";
      case Op::Neg: return "Neg";
      case Op::CmpEq: return "CmpEq";
      case Op::CmpNe: return "CmpNe";
      case Op::CmpLt: return "CmpLt";
      case Op::CmpLe: return "CmpLe";
      case Op::CmpGt: return "CmpGt";
      case Op::CmpGe: return "CmpGe";
      case Op::And: return "And";
      case Op::Or: return "Or";
      case Op::Not: return "Not";
      case Op::Jmp: return "Jmp";
      case Op::Jz: return "Jz";
      case Op::Jnz: return "Jnz";
      case Op::New: return "New";
      case Op::GetField: return "GetField";
      case Op::PutField: return "PutField";
      case Op::NewArr: return "NewArr";
      case Op::ALoad: return "ALoad";
      case Op::AStore: return "AStore";
      case Op::ArrLen: return "ArrLen";
      case Op::NewBytes: return "NewBytes";
      case Op::BytesLen: return "BytesLen";
      case Op::GetStatic: return "GetStatic";
      case Op::PutStatic: return "PutStatic";
      case Op::Call: return "Call";
      case Op::CallVirt: return "CallVirt";
      case Op::CallNative: return "CallNative";
      case Op::Ret: return "Ret";
      case Op::MonitorEnter: return "MonitorEnter";
      case Op::MonitorExit: return "MonitorExit";
      case Op::GetVolatile: return "GetVolatile";
      case Op::PutVolatile: return "PutVolatile";
      case Op::Compute: return "Compute";
    }
    return "?";
}

} // namespace

std::size_t
VerifyResult::errorCount() const
{
    return static_cast<std::size_t>(std::count_if(
        diagnostics.begin(), diagnostics.end(), [](const Diagnostic &d) {
            return d.severity == Severity::Error;
        }));
}

std::size_t
VerifyResult::warningCount() const
{
    return diagnostics.size() - errorCount();
}

const char *
diagCodeName(DiagCode code)
{
    switch (code) {
      case DiagCode::BadJumpTarget: return "bad-jump";
      case DiagCode::StackUnderflow: return "stack-underflow";
      case DiagCode::MergeMismatch: return "merge-mismatch";
      case DiagCode::BadLocalSlot: return "bad-local-slot";
      case DiagCode::BadKlassId: return "bad-klass-id";
      case DiagCode::BadMethodId: return "bad-method-id";
      case DiagCode::BadNameId: return "bad-name-id";
      case DiagCode::BadStringIndex: return "bad-string-index";
      case DiagCode::BadFieldIndex: return "bad-field-index";
      case DiagCode::BadStaticSlot: return "bad-static-slot";
      case DiagCode::BadCallArity: return "bad-call-arity";
      case DiagCode::BadImmediate: return "bad-immediate";
      case DiagCode::FallOffEnd: return "fall-off-end";
      case DiagCode::UnbalancedMonitor: return "unbalanced-monitor";
      case DiagCode::TypeMismatch: return "type-mismatch";
      case DiagCode::UnreachableCode: return "unreachable-code";
    }
    return "?";
}

std::string
toString(const Diagnostic &d, const Program &program)
{
    const char *sev =
        d.severity == Severity::Error ? "error" : "warning";
    std::string where = "?";
    if (d.method != kNoMethod && d.method < program.methodCount())
        where = program.qualifiedName(d.method);
    return strprintf("%s: %s+%u: [%s] %s", sev, where.c_str(), d.pc,
                     diagCodeName(d.code), d.message.c_str());
}

/** Dataflow state at one program point. */
struct Verifier::State
{
    std::vector<AbsType> locals;
    std::vector<AbsType> stack;
    int monitors = 0;
};

Verifier::Verifier(const Program &program, VerifyOptions options)
    : program_(program), options_(options)
{
}

VerifyResult
Verifier::verifyAll() const
{
    VerifyResult out;
    for (MethodId id = 0; id < program_.methodCount(); ++id)
        verifyMethod(id, out);
    return out;
}

void
Verifier::verifyMethod(MethodId id, VerifyResult &out) const
{
    const Method &m = program_.method(id);
    if (m.is_native)
        return; // no bytecode to verify

    auto emit = [&](Severity sev, DiagCode code, uint32_t pc,
                    std::string msg) {
        out.diagnostics.push_back(
            Diagnostic{sev, code, id, pc, std::move(msg)});
    };

    if (m.code.empty()) {
        emit(Severity::Error, DiagCode::FallOffEnd, 0,
             "method has no code and no Ret");
        return;
    }
    if (m.num_args > m.num_locals) {
        emit(Severity::Error, DiagCode::BadLocalSlot, 0,
             strprintf("num_args %u exceeds num_locals %u",
                       m.num_args, m.num_locals));
        return;
    }

    // ---- Flat operand validation over every instruction ---------
    // These checks need no dataflow, so they also cover unreachable
    // code. Any error here aborts the dataflow pass: simulating with
    // malformed operands would only cascade.
    const std::size_t n = m.code.size();
    std::size_t flat_errors = 0;
    auto err = [&](DiagCode code, uint32_t pc, std::string msg) {
        emit(Severity::Error, code, pc, std::move(msg));
        ++flat_errors;
    };
    auto outside = [](int64_t operand, std::size_t limit) {
        return operand < 0 || static_cast<std::size_t>(operand) >= limit;
    };

    for (uint32_t pc = 0; pc < n; ++pc) {
        const Instr &in = m.code[pc];
        const Op op = baseOp(in.op);
        switch (op) {
          case Op::Jmp: case Op::Jz: case Op::Jnz:
            if (outside(in.a, n))
                err(DiagCode::BadJumpTarget, pc,
                    strprintf("%s target %lld outside [0, %zu)",
                              opMnemonic(op),
                              static_cast<long long>(in.a), n));
            break;
          case Op::Load: case Op::Store:
            if (outside(in.a, m.num_locals))
                err(DiagCode::BadLocalSlot, pc,
                    strprintf("%s slot %lld outside %u locals",
                              opMnemonic(op),
                              static_cast<long long>(in.a),
                              m.num_locals));
            break;
          case Op::New: case Op::NewArr:
            if (outside(in.a, program_.klassCount()))
                err(DiagCode::BadKlassId, pc,
                    strprintf("%s klass id %lld out of range",
                              opMnemonic(op),
                              static_cast<long long>(in.a)));
            break;
          case Op::GetStatic: case Op::PutStatic: {
            if (outside(in.a, program_.klassCount())) {
                err(DiagCode::BadKlassId, pc,
                    strprintf("%s klass id %lld out of range",
                              opMnemonic(op),
                              static_cast<long long>(in.a)));
                break;
            }
            const Klass &k =
                program_.klass(static_cast<KlassId>(in.a));
            if (outside(in.b, k.statics.size()))
                err(DiagCode::BadStaticSlot, pc,
                    strprintf("%s slot %lld outside %zu statics "
                              "of %s",
                              opMnemonic(op),
                              static_cast<long long>(in.b),
                              k.statics.size(), k.name.c_str()));
            break;
          }
          case Op::GetField: case Op::PutField:
          case Op::GetVolatile: case Op::PutVolatile:
            if (in.a < 0)
                err(DiagCode::BadFieldIndex, pc,
                    strprintf("%s negative field index %lld",
                              opMnemonic(op),
                              static_cast<long long>(in.a)));
            break;
          case Op::Call: case Op::CallNative: {
            if (outside(in.a, program_.methodCount())) {
                err(DiagCode::BadMethodId, pc,
                    strprintf("%s method id %lld out of range",
                              opMnemonic(op),
                              static_cast<long long>(in.a)));
                break;
            }
            const Method &callee =
                program_.method(static_cast<MethodId>(in.a));
            if (op == Op::CallNative && !callee.is_native)
                err(DiagCode::BadMethodId, pc,
                    strprintf("CallNative targets bytecode method "
                              "%s",
                              callee.name.c_str()));
            break;
          }
          case Op::CallVirt:
            if (outside(in.a, program_.nameCount()))
                err(DiagCode::BadNameId, pc,
                    strprintf("CallVirt name id %lld out of range",
                              static_cast<long long>(in.a)));
            if (in.b < 1)
                err(DiagCode::BadImmediate, pc,
                    "CallVirt needs at least the receiver "
                    "argument");
            break;
          case Op::NewBytes:
            if (outside(in.a, program_.stringCount()))
                err(DiagCode::BadStringIndex, pc,
                    strprintf("NewBytes string index %lld out of "
                              "range",
                              static_cast<long long>(in.a)));
            break;
          case Op::Compute:
            if (in.a < 0)
                err(DiagCode::BadImmediate, pc,
                    strprintf("Compute of negative duration %lld",
                              static_cast<long long>(in.a)));
            break;
          default:
            break;
        }
    }

    if (flat_errors > 0)
        return;

    analyzeDataflow(id, m, out);
}

void
Verifier::analyzeDataflow(MethodId id, const Method &m,
                          VerifyResult &out) const
{
    const std::size_t n = m.code.size();
    const bool strict = options_.strict_types;

    // The worklist re-executes a block whenever its entry state
    // changes, so body checks run more than once; report each
    // (pc, code) finding only the first time it fires.
    std::set<std::pair<uint32_t, uint8_t>> reported;
    auto emit = [&](Severity sev, DiagCode code, uint32_t pc,
                    std::string msg) {
        if (reported.insert({pc, static_cast<uint8_t>(code)}).second)
            out.diagnostics.push_back(
                Diagnostic{sev, code, id, pc, std::move(msg)});
    };

    // ---- Worklist dataflow over the basic blocks -----------------
    BlockDataflow<State> flow(m.code);
    std::set<uint32_t> merge_reported; //!< dedupe join diagnostics

    State entry;
    entry.locals.assign(m.num_locals, AbsType::nil());
    for (uint16_t i = 0; i < m.num_args; ++i)
        entry.locals[i] = AbsType::any();

    auto join = [&](uint32_t target, State &t, const State &s) {
        if (t.stack.size() != s.stack.size()) {
            if (merge_reported.insert(target).second)
                emit(Severity::Error, DiagCode::MergeMismatch,
                     target,
                     strprintf("stack depth %zu meets %zu at merge "
                               "point",
                               t.stack.size(), s.stack.size()));
            return false;
        }
        if (t.monitors != s.monitors) {
            if (merge_reported.insert(target | 0x80000000u).second)
                emit(Severity::Error, DiagCode::UnbalancedMonitor,
                     target,
                     strprintf("monitor depth %d meets %d at merge "
                               "point",
                               t.monitors, s.monitors));
            return false;
        }
        bool changed = false;
        for (auto [into, from] : {std::pair{&t.stack, &s.stack},
                                  std::pair{&t.locals, &s.locals}}) {
            for (std::size_t i = 0; i < into->size(); ++i) {
                AbsType merged = merge((*into)[i], (*from)[i]);
                if (merged != (*into)[i]) {
                    (*into)[i] = merged;
                    changed = true;
                }
            }
        }
        return changed;
    };

    // One instruction's transfer. need() stops the pass on
    // underflow: subsequent effects would be garbage.
    auto step = [&](uint32_t pc, State &st) {
        const Instr &in = m.code[pc];
        const Op op = baseOp(in.op);

        auto need = [&](std::size_t depth) {
            if (st.stack.size() >= depth)
                return true;
            emit(Severity::Error, DiagCode::StackUnderflow, pc,
                 strprintf("%s needs %zu operand(s), stack has "
                           "%zu",
                           opMnemonic(op), depth,
                           st.stack.size()));
            flow.stop();
            return false;
        };
        auto pop = [&] {
            AbsType t = st.stack.back();
            st.stack.pop_back();
            return t;
        };
        auto push = [&](AbsType t) {
            st.stack.push_back(std::move(t));
        };
        auto peekAt = [&](std::size_t depth) -> AbsType & {
            return st.stack[st.stack.size() - 1 - depth];
        };

        /** A value about to be dereferenced. */
        auto checkRef = [&](const AbsType &t, const char *what) {
            if (t.isRef())
                return;
            if (t.kind == AbsType::Kind::Any) {
                if (strict)
                    emit(Severity::Error, DiagCode::TypeMismatch,
                         pc,
                         strprintf("%s dereferences a value of "
                                   "statically unknown kind",
                                   what));
                return;
            }
            emit(Severity::Error, DiagCode::TypeMismatch, pc,
                 strprintf("%s dereferences a %s value", what,
                           t.name()));
        };

        /** A value used as an array index / length. */
        auto checkInt = [&](const AbsType &t, const char *what) {
            if (t.kind == AbsType::Kind::Int)
                return;
            if (t.kind == AbsType::Kind::Any ||
                t.kind == AbsType::Kind::Num) {
                if (strict)
                    emit(Severity::Error, DiagCode::TypeMismatch,
                         pc,
                         strprintf("%s is not provably an int",
                                   what));
                return;
            }
            emit(Severity::Error, DiagCode::TypeMismatch, pc,
                 strprintf("%s is a %s value, int required",
                           what, t.name()));
        };

        /** Field access against a known receiver klass. */
        auto checkFieldIndex = [&](const AbsType &recv) {
            if (recv.kind == AbsType::Kind::Ref &&
                recv.shape == AbsType::Shape::Plain &&
                recv.klass != kNoKlass) {
                uint32_t fields =
                    program_.fieldCount(recv.klass);
                if (static_cast<uint64_t>(in.a) >= fields)
                    emit(Severity::Error,
                         DiagCode::BadFieldIndex, pc,
                         strprintf(
                             "%s index %lld outside %u fields "
                             "of %s",
                             opMnemonic(op),
                             static_cast<long long>(in.a),
                             fields,
                             program_.klass(recv.klass)
                                 .name.c_str()));
            } else if (strict) {
                emit(Severity::Error, DiagCode::TypeMismatch, pc,
                     strprintf("%s on a receiver of statically "
                               "unknown klass",
                               opMnemonic(op)));
            }
        };

        /** An array element access: index kind, array, bounds. */
        auto checkElement = [&](const AbsType &arr, const AbsType &idx) {
            checkInt(idx, op == Op::ALoad ? "ALoad index" : "AStore index");
            checkRef(arr, opMnemonic(op));
            if (arr.kind == AbsType::Kind::Ref &&
                arr.shape == AbsType::Shape::Array &&
                arr.len_known && idx.const_known &&
                (idx.cval < 0 ||
                 idx.cval >= static_cast<int64_t>(arr.len)))
                emit(Severity::Error, DiagCode::BadFieldIndex, pc,
                     strprintf("%s index %lld outside array of length "
                               "%u",
                               opMnemonic(op),
                               static_cast<long long>(idx.cval),
                               arr.len));
            else if (strict &&
                     !(arr.shape == AbsType::Shape::Array &&
                       arr.len_known && idx.const_known))
                emit(Severity::Error, DiagCode::TypeMismatch, pc,
                     strprintf("%s bounds not statically provable",
                               opMnemonic(op)));
        };

        switch (op) {
          case Op::Nop:
          case Op::Compute:
          case Op::Jmp:
            break;

          case Op::PushI:
            push(AbsType::intConst(in.a));
            break;
          case Op::PushF:
            push(AbsType::floating());
            break;
          case Op::PushNil:
            push(AbsType::nil());
            break;

          case Op::Load:
          // Unreachable after baseOp(); listed for -Wswitch.
          case Op::LoadLeJnz: case Op::LoadNotJnz:
          case Op::LoadFieldPop: case Op::LoadFieldStore:
          case Op::LoadSubStore:
            push(st.locals[in.a]);
            break;
          case Op::Store:
            if (!need(1))
                break;
            st.locals[in.a] = pop();
            break;

          case Op::Dup:
            if (!need(1))
                break;
            push(peekAt(0));
            break;
          case Op::Pop:
          case Op::Jz: case Op::Jnz: // pops the condition
          case Op::PutStatic:
            if (!need(1))
                break;
            pop();
            break;
          case Op::Swap:
            if (!need(2))
                break;
            std::swap(peekAt(0), peekAt(1));
            break;

          case Op::Add: case Op::Sub: case Op::Mul:
          case Op::Div: case Op::Mod: {
            if (!need(2))
                break;
            AbsType b = pop();
            AbsType a = pop();
            for (const AbsType *t : {&a, &b}) {
                if (t->isRef() || t->kind == AbsType::Kind::Nil)
                    emit(Severity::Warning,
                         DiagCode::TypeMismatch, pc,
                         strprintf("%s on a %s operand",
                                   opMnemonic(op),
                                   t->name()));
            }
            if (a.kind == AbsType::Kind::Int &&
                b.kind == AbsType::Kind::Int)
                push(AbsType::integer());
            else if (a.kind == AbsType::Kind::Float ||
                     b.kind == AbsType::Kind::Float)
                push(AbsType::floating());
            else
                push(AbsType::number());
            break;
          }

          case Op::Neg: {
            if (!need(1))
                break;
            AbsType a = pop();
            if (a.kind == AbsType::Kind::Int)
                push(AbsType::integer());
            else if (a.kind == AbsType::Kind::Float)
                push(AbsType::floating());
            else
                push(AbsType::number());
            break;
          }

          case Op::CmpEq: case Op::CmpNe:
          case Op::CmpLt: case Op::CmpLe:
          case Op::CmpGt: case Op::CmpGe:
          case Op::And: case Op::Or:
            if (!need(2))
                break;
            pop();
            pop();
            push(AbsType::integer());
            break;

          case Op::Not:
            if (!need(1))
                break;
            pop();
            push(AbsType::integer());
            break;

          case Op::New:
            push(AbsType::obj(static_cast<KlassId>(in.a)));
            break;

          case Op::NewArr: {
            if (!need(1))
                break;
            AbsType len = pop();
            checkInt(len, "NewArr length");
            if (len.kind == AbsType::Kind::Int &&
                len.const_known && len.cval < 0)
                emit(Severity::Error, DiagCode::BadImmediate,
                     pc,
                     strprintf("NewArr of negative length %lld",
                               static_cast<long long>(
                                   len.cval)));
            else if (strict && !len.const_known)
                emit(Severity::Error, DiagCode::TypeMismatch,
                     pc,
                     "NewArr length is not provably "
                     "non-negative");
            bool known = len.kind == AbsType::Kind::Int &&
                         len.const_known && len.cval >= 0;
            push(AbsType::array(
                known, known ? static_cast<uint32_t>(len.cval)
                             : 0));
            break;
          }

          case Op::NewBytes:
            push(AbsType::bytesObj());
            break;

          case Op::BytesLen:
          case Op::ArrLen:
            if (!need(1))
                break;
            checkRef(peekAt(0), opMnemonic(op));
            pop();
            push(AbsType::integer());
            break;

          case Op::GetField:
          case Op::GetVolatile: {
            if (!need(1))
                break;
            AbsType recv = pop();
            checkRef(recv, opMnemonic(op));
            checkFieldIndex(recv);
            push(AbsType::any());
            break;
          }

          case Op::PutField:
          case Op::PutVolatile: {
            if (!need(2))
                break;
            pop(); // value
            AbsType recv = pop();
            checkRef(recv, opMnemonic(op));
            checkFieldIndex(recv);
            break;
          }

          case Op::ALoad: {
            if (!need(2))
                break;
            AbsType idx = pop();
            AbsType arr = pop();
            checkElement(arr, idx);
            push(AbsType::any());
            break;
          }

          case Op::AStore: {
            if (!need(3))
                break;
            pop(); // value
            AbsType idx = pop();
            AbsType arr = pop();
            checkElement(arr, idx);
            break;
          }

          case Op::GetStatic:
            push(AbsType::any());
            break;

          case Op::Call:
          case Op::CallNative: {
            const Method &callee =
                program_.method(static_cast<MethodId>(in.a));
            if (!need(callee.num_args))
                break;
            for (uint16_t i = 0; i < callee.num_args; ++i)
                pop();
            push(AbsType::any());
            break;
          }

          case Op::CallVirt: {
            uint16_t nargs = static_cast<uint16_t>(in.b);
            if (!need(nargs))
                break;
            AbsType recv = peekAt(nargs - 1);
            checkRef(recv, "CallVirt receiver");
            if (recv.kind == AbsType::Kind::Ref &&
                recv.shape == AbsType::Shape::Plain &&
                recv.klass != kNoKlass) {
                MethodId resolved = program_.resolveVirtual(
                    recv.klass, static_cast<NameId>(in.a));
                if (resolved == kNoMethod)
                    emit(Severity::Error, DiagCode::BadMethodId,
                         pc,
                         strprintf(
                             "no virtual %s on %s",
                             program_
                                 .nameAt(static_cast<NameId>(
                                     in.a))
                                 .c_str(),
                             program_.klass(recv.klass)
                                 .name.c_str()));
                else if (program_.method(resolved).num_args !=
                         nargs)
                    emit(Severity::Error, DiagCode::BadCallArity,
                         pc,
                         strprintf(
                             "CallVirt passes %u args, %s "
                             "takes %u",
                             nargs,
                             program_.qualifiedName(resolved)
                                 .c_str(),
                             program_.method(resolved)
                                 .num_args));
            } else if (strict) {
                emit(Severity::Error, DiagCode::TypeMismatch,
                     pc,
                     "CallVirt receiver klass not statically "
                     "known");
            }
            for (uint16_t i = 0; i < nargs; ++i)
                pop();
            push(AbsType::any());
            break;
          }

          case Op::MonitorEnter:
          case Op::MonitorExit:
            if (!need(1))
                break;
            checkRef(peekAt(0), opMnemonic(op));
            pop();
            if (op == Op::MonitorEnter)
                ++st.monitors;
            else if (st.monitors == 0)
                emit(Severity::Error,
                     DiagCode::UnbalancedMonitor, pc,
                     "MonitorExit without a matching "
                     "MonitorEnter on this path");
            else
                --st.monitors;
            break;

          case Op::Ret:
            if (st.monitors != 0)
                emit(Severity::Error,
                     DiagCode::UnbalancedMonitor, pc,
                     strprintf("method returns still holding "
                               "%d monitor(s)",
                               st.monitors));
            break;
        }
    };

    flow.solve(entry, step, join, [&](const State &) {
        emit(Severity::Error, DiagCode::FallOffEnd,
             static_cast<uint32_t>(n - 1),
             "control reaches the end of the method without Ret");
    });

    // ---- Unreachable-code report --------------------------------
    if (!options_.check_unreachable || flow.stopped())
        return;
    // A branch or Ret ends its block, so only whole blocks are ever
    // unreached: report each run of them.
    const std::set<uint32_t> &leaders = flow.leaders();
    for (auto it = leaders.begin(); it != leaders.end();) {
        if (flow.states().count(*it) != 0) {
            ++it;
            continue;
        }
        const uint32_t start = *it;
        while (it != leaders.end() && flow.states().count(*it) == 0)
            ++it;
        const uint32_t end =
            it == leaders.end() ? static_cast<uint32_t>(n) : *it;
        emit(Severity::Warning, DiagCode::UnreachableCode, start,
             strprintf("%u unreachable instruction(s) at [%u, %u)",
                       end - start, start, end));
    }
}

} // namespace beehive::vm
