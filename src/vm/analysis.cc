#include "vm/analysis.h"

#include <algorithm>
#include <deque>
#include <tuple>

#include "support/logging.h"
#include "support/strutil.h"
#include "vm/dataflow.h"

namespace beehive::vm {

namespace {

const char *
categoryName(NativeCategory c)
{
    switch (c) {
      case NativeCategory::PureOnHeap: return "pure-on-heap";
      case NativeCategory::HiddenState: return "hidden-state";
      case NativeCategory::Network: return "network";
      case NativeCategory::Stateless: return "stateless";
    }
    return "?";
}

std::string
staticName(const Program &program, KlassId klass, uint32_t slot)
{
    if (klass < program.klassCount() &&
        slot < program.klass(klass).statics.size())
        return program.klass(klass).name + "." +
               program.klass(klass).statics[slot];
    return strprintf("static[%u][%u]", klass, slot);
}

/**
 * Abstract value tracked per stack/local slot: the exact dynamic
 * klass when statically known, the element klass for arrays, whether
 * the value is freshly allocated in this method (with the alloc-site
 * pcs that may have produced it), and a lock-identity token.
 */
struct AbsVal
{
    KlassId klass = kNoKlass;
    KlassId elem = kNoKlass;
    bool fresh = false;
    std::set<uint32_t> sites;
    LockToken token;

    bool operator==(const AbsVal &o) const
    {
        return klass == o.klass && elem == o.elem &&
               fresh == o.fresh && sites == o.sites &&
               token == o.token;
    }
};

AbsVal
joinVal(const AbsVal &a, const AbsVal &b)
{
    AbsVal r;
    r.klass = a.klass == b.klass ? a.klass : kNoKlass;
    r.elem = a.elem == b.elem ? a.elem : kNoKlass;
    r.fresh = a.fresh && b.fresh;
    r.sites = a.sites;
    r.sites.insert(b.sites.begin(), b.sites.end());
    r.token = a.token == b.token ? a.token : LockToken{};
    return r;
}

/** Dataflow state at one program point. */
struct AbsState
{
    std::vector<AbsVal> locals;
    std::vector<AbsVal> stack;
    /** Values whose monitors are currently held, outermost first. */
    std::vector<AbsVal> held;
};

/**
 * Strongly connected components of the graph whose edges leave node
 * v for the nodes in @p adj[v], by an iterative Tarjan walk.
 * Components come out in completion order, which is reverse
 * topological: a component precedes every component that reaches
 * it. Each lists its members in the order they leave Tarjan's stack.
 */
std::vector<std::vector<uint32_t>>
stronglyConnected(const std::vector<std::vector<uint32_t>> &adj)
{
    const std::size_t n = adj.size();
    std::vector<uint32_t> index(n, UINT32_MAX), low(n, 0);
    std::vector<bool> on_stack(n, false);
    std::vector<uint32_t> stack;
    uint32_t next_index = 0;
    struct Frame
    {
        uint32_t v;
        std::size_t child;
    };
    std::vector<Frame> frames;
    auto visit = [&](uint32_t v) {
        index[v] = low[v] = next_index++;
        stack.push_back(v);
        on_stack[v] = true;
        frames.push_back(Frame{v, 0});
    };
    std::vector<std::vector<uint32_t>> sccs;
    for (uint32_t root = 0; root < n; ++root) {
        if (index[root] != UINT32_MAX)
            continue;
        visit(root);
        while (!frames.empty()) {
            Frame &f = frames.back();
            if (f.child < adj[f.v].size()) {
                uint32_t w = adj[f.v][f.child++];
                if (index[w] == UINT32_MAX)
                    visit(w);
                else if (on_stack[w])
                    low[f.v] = std::min(low[f.v], index[w]);
                continue;
            }
            uint32_t v = f.v;
            frames.pop_back();
            if (!frames.empty())
                low[frames.back().v] =
                    std::min(low[frames.back().v], low[v]);
            if (low[v] != index[v])
                continue;
            std::vector<uint32_t> &members = sccs.emplace_back();
            uint32_t w;
            do {
                w = stack.back();
                stack.pop_back();
                on_stack[w] = false;
                members.push_back(w);
            } while (w != v);
        }
    }
    return sccs;
}

} // namespace

// ---- LockToken ---------------------------------------------------

bool
LockToken::operator<(const LockToken &o) const
{
    return std::tie(kind, method, pc, klass, slot) <
           std::tie(o.kind, o.method, o.pc, o.klass, o.slot);
}

bool
LockToken::operator==(const LockToken &o) const
{
    return kind == o.kind && method == o.method && pc == o.pc &&
           klass == o.klass && slot == o.slot;
}

std::string
toString(const LockToken &token, const Program &program)
{
    switch (token.kind) {
      case LockToken::Kind::Unknown:
        return "<unknown lock>";
      case LockToken::Kind::AllocSite:
        return strprintf("new@%s+%u",
                         program.qualifiedName(token.method).c_str(),
                         token.pc);
      case LockToken::Kind::StaticSlot:
        return staticName(program, token.klass, token.slot);
      case LockToken::Kind::StaticElem:
        return staticName(program, token.klass, token.slot) + "[*]";
    }
    return "?";
}

// ---- EffectSummary / CaptureSet / LockCycle ----------------------

void
EffectSummary::join(const EffectSummary &o)
{
    statics_read.insert(o.statics_read.begin(), o.statics_read.end());
    statics_written.insert(o.statics_written.begin(),
                           o.statics_written.end());
    fields_read.insert(o.fields_read.begin(), o.fields_read.end());
    fields_read_any_klass.insert(o.fields_read_any_klass.begin(),
                                 o.fields_read_any_klass.end());
    klasses_fully_read.insert(o.klasses_fully_read.begin(),
                              o.klasses_fully_read.end());
    locks.insert(o.locks.begin(), o.locks.end());
    monitors_elided += o.monitors_elided;
    volatiles_elided += o.volatiles_elided;
    touches_shared_volatile |= o.touches_shared_volatile;
    unresolved_virtual |= o.unresolved_virtual;
}

bool
CaptureSet::containsField(KlassId klass, uint32_t index) const
{
    if (all_fields)
        return true;
    if (full_klasses.count(klass) != 0)
        return true;
    if (any_klass_fields.count(index) != 0)
        return true;
    return fields.count({klass, index}) != 0;
}

std::size_t
CaptureSet::fieldFactCount() const
{
    return fields.size() + any_klass_fields.size();
}

std::string
toString(const CaptureSet &capture, const Program &program)
{
    (void)program;
    if (capture.all_fields)
        return strprintf("capture widened to all fields "
                         "(%zu static(s))",
                         capture.statics.size());
    return strprintf("captures %zu static(s), %zu field fact(s), "
                     "%zu fully-read klass(es)",
                     capture.statics.size(),
                     capture.fieldFactCount(),
                     capture.full_klasses.size());
}

std::string
LockCycle::describe(const Program &program) const
{
    std::string s = "potential deadlock cycle: ";
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        s += toString(tokens[i], program);
        s += " -> ";
    }
    s += tokens.empty() ? "?" : toString(tokens.front(), program);
    return s;
}

// ---- ProgramAnalysis ---------------------------------------------

ProgramAnalysis::ProgramAnalysis(const Program &program)
    : program_(program)
{
    const std::size_t n = program_.methodCount();
    for (MethodId id = 0; id < n; ++id)
        methods_by_name_[program_.method(id).name].push_back(id);
    intra_.resize(n);
    transitive_.resize(n);
    accesses_.resize(n);
    locked_calls_.resize(n);
    virt_sites_.resize(n);
    cg_.callees.resize(n);
    cg_.natives.resize(n);
    for (MethodId id = 0; id < n; ++id)
        analyzeMethod(id);
    condense();
    computeTransitive();
    buildLockGraph();
}

const EffectSummary &
ProgramAnalysis::methodSummary(MethodId id) const
{
    bh_assert(id < intra_.size(), "bad method id %u", id);
    return intra_[id];
}

const EffectSummary &
ProgramAnalysis::transitiveSummary(MethodId id) const
{
    bh_assert(id < transitive_.size(), "bad method id %u", id);
    return transitive_[id];
}

const std::vector<AccessRecord> &
ProgramAnalysis::accesses(MethodId id) const
{
    bh_assert(id < accesses_.size(), "bad method id %u", id);
    return accesses_[id];
}

const std::vector<CallSiteLocks> &
ProgramAnalysis::callSiteLocks(MethodId id) const
{
    bh_assert(id < locked_calls_.size(), "bad method id %u", id);
    return locked_calls_[id];
}

const std::vector<VirtualSite> &
ProgramAnalysis::virtualSites(MethodId id) const
{
    bh_assert(id < virt_sites_.size(), "bad method id %u", id);
    return virt_sites_[id];
}

void
ProgramAnalysis::analyzeMethod(MethodId id)
{
    const Method &m = program_.method(id);
    EffectSummary &sum = intra_[id];

    if (m.is_native) {
        // Synthesize a summary from the native's category. Hidden-
        // state and network natives read owner fields from C++ (e.g.
        // socketRead0 reads SocketImpl.token), invisible to bytecode
        // scanning, so the whole owner klass counts as read.
        switch (m.native_category) {
          case NativeCategory::PureOnHeap:
          case NativeCategory::Stateless:
            break;
          case NativeCategory::HiddenState:
          case NativeCategory::Network: {
            bool packageable =
                m.owner != kNoKlass &&
                program_.klass(m.owner).packageable;
            EffectSite site;
            site.kind =
                m.native_category == NativeCategory::Network
                    ? EffectSite::Kind::NetworkNative
                    : EffectSite::Kind::HiddenNative;
            site.method = id;
            site.pc = 0;
            if (packageable) {
                site.demand = EffectDemand::Fallback;
                site.message = strprintf(
                    "calls %s native %s on Packageable %s "
                    "(fallback/pack handles it)",
                    categoryName(m.native_category), m.name.c_str(),
                    program_.klass(m.owner).name.c_str());
            } else {
                site.demand = EffectDemand::LocalOnly;
                site.message = strprintf(
                    "calls %s native %s on non-Packageable owner "
                    "-- off-heap state cannot be rebuilt on FaaS",
                    categoryName(m.native_category), m.name.c_str());
            }
            sum.sites.push_back(std::move(site));
            if (m.owner != kNoKlass)
                sum.klasses_fully_read.insert(m.owner);
            break;
          }
        }
        return;
    }

    if (m.code.empty())
        return;

    BlockDataflow<AbsState> flow(m.code);
    AbsState entry;
    entry.locals.assign(m.num_locals, AbsVal{});

    auto join = [&](uint32_t, AbsState &t, const AbsState &s) {
        if (t.stack.size() != s.stack.size()) {
            flow.stop(); // the verifier reports this shape
            return false;
        }
        bool changed = false;
        auto joinVec = [&](std::vector<AbsVal> &dst,
                           const std::vector<AbsVal> &src) {
            std::size_t lim = std::min(dst.size(), src.size());
            for (std::size_t i = 0; i < lim; ++i) {
                AbsVal j = joinVal(dst[i], src[i]);
                if (!(j == dst[i])) {
                    dst[i] = j;
                    changed = true;
                }
            }
        };
        if (t.held.size() > s.held.size()) {
            t.held.resize(s.held.size());
            changed = true;
        }
        joinVec(t.stack, s.stack);
        joinVec(t.locals, s.locals);
        joinVec(t.held, s.held);
        return changed;
    };

    // ---- Escape set ---------------------------------------------
    // Alloc-site pcs whose objects may be visible outside this
    // frame: stored to a static/field/array slot, passed to any
    // call, or returned.
    std::set<uint32_t> escaped;
    auto escape = [&](const AbsVal &v) {
        escaped.insert(v.sites.begin(), v.sites.end());
    };
    // Provably method-local: fresh on all paths and no contributing
    // alloc site escapes. Monitors/volatiles on such values cannot
    // be contended across endpoints.
    auto elidable = [&](const AbsVal &v) {
        if (!v.fresh || v.sites.empty())
            return false;
        for (uint32_t s : v.sites)
            if (escaped.count(s) != 0)
                return false;
        return true;
    };

    std::set<MethodId> callees;
    std::set<MethodId> natives;

    /**
     * kFlow iterates block entry states to their fixpoint; kEscape
     * collects escaping alloc sites; kCollect fills the effect
     * summary, call edges and lock facts using the final escape set.
     */
    enum Mode { kFlow, kEscape, kCollect } mode = kFlow;

    // One instruction's transfer in the current mode.
    auto step = [&](uint32_t pc, AbsState &st) {
        const Instr &in = m.code[pc];
        const Op op = baseOp(in.op);
        auto pop = [&]() -> AbsVal {
            if (st.stack.empty()) {
                flow.stop();
                return AbsVal{};
            }
            AbsVal v = st.stack.back();
            st.stack.pop_back();
            return v;
        };
        auto push = [&](AbsVal v) {
            st.stack.push_back(std::move(v));
        };
        // A fresh object of @p klass, allocated at this pc.
        auto allocated = [&](KlassId klass) {
            AbsVal v;
            v.klass = klass;
            v.fresh = true;
            v.sites = {pc};
            v.token.kind = LockToken::Kind::AllocSite;
            v.token.method = id;
            v.token.pc = pc;
            return v;
        };
        auto heldTokens = [&]() {
            std::vector<LockToken> out;
            for (const AbsVal &h : st.held)
                if (!elidable(h) &&
                    h.token.kind != LockToken::Kind::Unknown)
                    out.push_back(h.token);
            return out;
        };
        auto heldUnknown = [&]() {
            for (const AbsVal &h : st.held)
                if (!elidable(h) &&
                    h.token.kind == LockToken::Kind::Unknown)
                    return true;
            return false;
        };
        auto recordAccess = [&](AccessRecord::Scope scope,
                                KlassId klass, uint32_t slot,
                                bool is_write, bool is_volatile,
                                bool receiver_local,
                                KlassId stored_klass = kNoKlass) {
            AccessRecord rec;
            rec.scope = scope;
            rec.klass = klass;
            rec.slot = slot;
            rec.is_write = is_write;
            rec.is_volatile = is_volatile;
            rec.receiver_local = receiver_local;
            rec.stored_klass = stored_klass;
            rec.pc = pc;
            rec.held = heldTokens();
            rec.held_unknown = heldUnknown();
            accesses_[id].push_back(std::move(rec));
        };
        // A volatile access: free on a provably method-local
        // receiver, a release-consistency sync otherwise.
        auto touchVolatile = [&](const AbsVal &recv) {
            if (elidable(recv)) {
                ++sum.volatiles_elided;
                return;
            }
            sum.touches_shared_volatile = true;
            sum.sites.push_back(EffectSite{
                EffectSite::Kind::SharedVolatile,
                EffectDemand::Fallback, id, pc,
                "touches a volatile field (needs "
                "release consistency sync)"});
        };
        auto recordCall = [&](const std::vector<MethodId> &ts) {
            std::vector<MethodId> bytecode;
            for (MethodId t : ts) {
                if (program_.method(t).is_native)
                    natives.insert(t);
                else {
                    callees.insert(t);
                    bytecode.push_back(t);
                }
            }
            if (!bytecode.empty())
                locked_calls_[id].push_back(
                    CallSiteLocks{heldTokens(), heldUnknown(),
                                  std::move(bytecode)});
        };

        switch (op) {
          case Op::Nop:
          case Op::Compute:
          case Op::Jmp:
            break;
          case Op::PushI:
          case Op::PushF:
          case Op::PushNil:
            push(AbsVal{});
            break;
          case Op::Load:
          // Unreachable after baseOp(); listed for -Wswitch.
          case Op::LoadLeJnz: case Op::LoadNotJnz:
          case Op::LoadFieldPop: case Op::LoadFieldStore:
          case Op::LoadSubStore: {
            auto slot = static_cast<std::size_t>(in.a);
            push(slot < st.locals.size() ? st.locals[slot]
                                         : AbsVal{});
            break;
          }
          case Op::Store: {
            AbsVal v = pop();
            auto slot = static_cast<std::size_t>(in.a);
            if (slot < st.locals.size())
                st.locals[slot] = std::move(v);
            break;
          }
          case Op::Dup:
            if (st.stack.empty()) {
                flow.stop();
                break;
            }
            push(st.stack.back());
            break;
          case Op::Pop:
          case Op::Jz: // pops the condition
          case Op::Jnz:
            pop();
            break;
          case Op::Swap:
            if (st.stack.size() < 2) {
                flow.stop();
                break;
            }
            std::swap(st.stack[st.stack.size() - 1],
                      st.stack[st.stack.size() - 2]);
            break;
          case Op::Add: case Op::Sub: case Op::Mul:
          case Op::Div: case Op::Mod:
          case Op::CmpEq: case Op::CmpNe: case Op::CmpLt:
          case Op::CmpLe: case Op::CmpGt: case Op::CmpGe:
          case Op::And: case Op::Or:
            pop();
            pop();
            push(AbsVal{});
            break;
          case Op::Neg:
          case Op::Not:
          case Op::BytesLen:
          case Op::ArrLen:
            pop();
            push(AbsVal{});
            break;
          case Op::New:
            push(allocated(static_cast<KlassId>(in.a)));
            break;
          case Op::NewArr:
            pop(); // length
            push(allocated(static_cast<KlassId>(in.a)));
            break;
          case Op::NewBytes:
            push(allocated(kNoKlass));
            break;
          case Op::GetField:
          case Op::GetVolatile: {
            AbsVal recv = pop();
            auto index = static_cast<uint32_t>(in.a);
            if (mode == kCollect) {
                if (recv.klass != kNoKlass)
                    sum.fields_read.insert({recv.klass, index});
                else
                    sum.fields_read_any_klass.insert(index);
                recordAccess(AccessRecord::Scope::Field,
                             recv.klass, index, false,
                             op == Op::GetVolatile,
                             elidable(recv));
                if (op == Op::GetVolatile)
                    touchVolatile(recv);
            }
            AbsVal v;
            if (recv.klass != kNoKlass) {
                TypeHint h =
                    program_.fieldHint(recv.klass, index);
                v.klass = h.type;
                v.elem = h.elem;
            }
            push(std::move(v));
            break;
          }
          case Op::PutField:
          case Op::PutVolatile: {
            AbsVal val = pop();
            AbsVal recv = pop();
            if (mode == kEscape)
                escape(val);
            if (mode == kCollect)
                recordAccess(AccessRecord::Scope::Field,
                             recv.klass,
                             static_cast<uint32_t>(in.a), true,
                             op == Op::PutVolatile,
                             elidable(recv), val.klass);
            if (mode == kCollect && op == Op::PutVolatile)
                touchVolatile(recv);
            break;
          }
          case Op::ALoad: {
            pop(); // index
            AbsVal arr = pop();
            if (mode == kCollect)
                recordAccess(AccessRecord::Scope::Element,
                             arr.klass, 0, false, false,
                             elidable(arr));
            AbsVal v;
            v.klass = arr.elem;
            if (arr.token.kind ==
                LockToken::Kind::StaticSlot) {
                v.token.kind = LockToken::Kind::StaticElem;
                v.token.klass = arr.token.klass;
                v.token.slot = arr.token.slot;
            }
            push(std::move(v));
            break;
          }
          case Op::AStore: {
            AbsVal val = pop();
            pop(); // index
            AbsVal arr = pop();
            if (mode == kEscape)
                escape(val);
            if (mode == kCollect)
                recordAccess(AccessRecord::Scope::Element,
                             arr.klass, 0, true, false,
                             elidable(arr), val.klass);
            break;
          }
          case Op::GetStatic: {
            AbsVal v;
            auto k = static_cast<KlassId>(in.a);
            auto slot = static_cast<uint32_t>(in.b);
            if (k < program_.klassCount() &&
                slot < program_.klass(k).statics.size()) {
                TypeHint h = program_.staticHint(k, slot);
                v.klass = h.type;
                v.elem = h.elem;
                v.token.kind = LockToken::Kind::StaticSlot;
                v.token.klass = k;
                v.token.slot = slot;
                if (mode == kCollect) {
                    sum.statics_read.insert({k, slot});
                    recordAccess(AccessRecord::Scope::Static,
                                 k, slot, false, false, false);
                }
            }
            push(std::move(v));
            break;
          }
          case Op::PutStatic: {
            AbsVal val = pop();
            if (mode == kEscape)
                escape(val);
            if (mode == kCollect) {
                auto k = static_cast<KlassId>(in.a);
                auto slot = static_cast<uint32_t>(in.b);
                if (k < program_.klassCount() &&
                    slot <
                        program_.klass(k).statics.size()) {
                    sum.statics_written.insert({k, slot});
                    recordAccess(AccessRecord::Scope::Static,
                                 k, slot, true, false, false,
                                 val.klass);
                    sum.sites.push_back(EffectSite{
                        EffectSite::Kind::StaticWrite,
                        EffectDemand::Fallback, id, pc,
                        strprintf(
                            "writes static %s.%s (needs "
                            "write-back fallback)",
                            program_.klass(k).name.c_str(),
                            program_.klass(k)
                                .statics[slot]
                                .c_str())});
                }
            }
            break;
          }
          case Op::Call:
          case Op::CallNative: {
            auto callee_id = static_cast<MethodId>(in.a);
            if (callee_id >= program_.methodCount()) {
                push(AbsVal{});
                break;
            }
            const Method &callee = program_.method(callee_id);
            for (uint16_t i = 0; i < callee.num_args; ++i) {
                AbsVal arg = pop();
                if (mode == kEscape)
                    escape(arg);
            }
            if (mode == kCollect)
                recordCall({callee_id});
            push(AbsVal{});
            break;
          }
          case Op::CallVirt: {
            int64_t nargs = in.b;
            if (nargs < 1 ||
                static_cast<std::size_t>(nargs) >
                    st.stack.size()) {
                flow.stop();
                break;
            }
            AbsVal recv =
                st.stack[st.stack.size() -
                         static_cast<std::size_t>(nargs)];
            for (int64_t i = 0; i < nargs; ++i) {
                AbsVal arg = pop();
                if (mode == kEscape)
                    escape(arg);
            }
            std::vector<MethodId> targets;
            const bool named =
                in.a >= 0 &&
                static_cast<std::size_t>(in.a) < program_.nameCount();
            bool unresolved = !named;
            if (named) {
                auto name_id = static_cast<NameId>(in.a);
                if (recv.klass != kNoKlass) {
                    // Receiver klass statically known: the
                    // call devirtualizes to one target.
                    MethodId r = program_.resolveVirtual(
                        recv.klass, name_id);
                    if (r != kNoMethod)
                        targets.push_back(r);
                    else
                        unresolved = true;
                } else {
                    auto it = methods_by_name_.find(
                        program_.nameAt(name_id));
                    if (it != methods_by_name_.end() &&
                        !it->second.empty())
                        targets = it->second;
                    else
                        unresolved = true;
                }
            }
            if (mode == kCollect) {
                if (unresolved) {
                    std::string name =
                        named ? program_.nameAt(
                                    static_cast<NameId>(in.a))
                              : strprintf("#%lld",
                                          static_cast<long long>(
                                              in.a));
                    sum.unresolved_virtual = true;
                    sum.sites.push_back(EffectSite{
                        EffectSite::Kind::UnresolvedVirtual,
                        EffectDemand::Fallback, id, pc,
                        strprintf("virtual call %s resolves "
                                  "to nothing statically",
                                  name.c_str())});
                } else {
                    recordCall(targets);
                    if (recv.klass != kNoKlass) {
                        // Devirtualized through the receiver
                        // hint; remember the site so closure
                        // clients can re-expand it over the
                        // hint's subclass cone.
                        virt_sites_[id].push_back(VirtualSite{
                            pc, static_cast<NameId>(in.a),
                            recv.klass});
                    }
                }
            }
            push(AbsVal{});
            break;
          }
          case Op::MonitorEnter: {
            AbsVal v = pop();
            if (mode == kCollect) {
                if (elidable(v)) {
                    ++sum.monitors_elided;
                } else {
                    if (v.token.kind !=
                        LockToken::Kind::Unknown) {
                        sum.locks.insert(v.token);
                        for (const LockToken &h :
                             heldTokens()) {
                            // Re-acquiring the same object is
                            // reentrant, but two *distinct*
                            // elements of one array are not.
                            if (!(h == v.token) ||
                                h.kind ==
                                    LockToken::Kind::
                                        StaticElem)
                                lock_edges_[h].insert(
                                    v.token);
                        }
                    }
                    sum.sites.push_back(EffectSite{
                        EffectSite::Kind::SharedMonitor,
                        EffectDemand::Fallback, id, pc,
                        "acquires a monitor (needs "
                        "cross-endpoint synchronization "
                        "fallback)",
                        v.token});
                }
            }
            st.held.push_back(std::move(v));
            break;
          }
          case Op::MonitorExit:
            pop();
            if (!st.held.empty())
                st.held.pop_back();
            break;
          case Op::Ret:
            if (mode == kEscape && !st.stack.empty())
                escape(st.stack.back());
            break;
        }
    };

    // Phase 1: fixpoint over block-entry states.
    flow.solve(entry, step, join, [](const AbsState &) {});
    // Phase 2: collect the escape set with stable entry states.
    mode = kEscape;
    flow.replay(step);
    // Phase 3: collect effects, calls and locks, now that
    // elidability is decidable.
    mode = kCollect;
    flow.replay(step);

    if (flow.stopped()) {
        // Malformed bytecode the verifier flags separately; widen
        // this method's effects to "unknown" so captures and
        // classifications stay conservative.
        sum.unresolved_virtual = true;
        sum.sites.push_back(EffectSite{
            EffectSite::Kind::UnresolvedVirtual,
            EffectDemand::Fallback, id, 0,
            "dataflow analysis could not model this method; "
            "treating its effects as unknown"});
    }

    cg_.callees[id].assign(callees.begin(), callees.end());
    cg_.natives[id].assign(natives.begin(), natives.end());
}

void
ProgramAnalysis::condense()
{
    const std::size_t n = program_.methodCount();
    std::vector<std::vector<MethodId>> adj(n);
    for (MethodId v = 0; v < n; ++v) {
        adj[v] = cg_.callees[v];
        adj[v].insert(adj[v].end(), cg_.natives[v].begin(),
                      cg_.natives[v].end());
    }
    // SCC completion order is reverse-topological, so ids come out
    // bottom-up: callees before callers.
    cg_.sccs = stronglyConnected(adj);
    cg_.scc_of.assign(n, UINT32_MAX);
    for (uint32_t scc_id = 0; scc_id < cg_.sccs.size(); ++scc_id)
        for (MethodId m : cg_.sccs[scc_id])
            cg_.scc_of[m] = scc_id;
}

void
ProgramAnalysis::computeTransitive()
{
    // Bottom-up over the condensation. Within an SCC every member
    // collapses onto one joined summary -- the "widening at
    // recursion": context is dropped, the finite union lattice
    // guarantees the fixpoint in one pass.
    for (uint32_t s = 0; s < cg_.sccs.size(); ++s) {
        EffectSummary joined;
        for (MethodId m : cg_.sccs[s]) {
            joined.join(intra_[m]);
            for (MethodId c : cg_.callees[m])
                if (cg_.scc_of[c] != s)
                    joined.join(transitive_[c]);
            for (MethodId c : cg_.natives[m])
                if (cg_.scc_of[c] != s)
                    joined.join(transitive_[c]);
        }
        for (MethodId m : cg_.sccs[s])
            transitive_[m] = joined;
    }
}

void
ProgramAnalysis::buildLockGraph()
{
    // Interprocedural edges: a call made while holding H can
    // acquire every lock in the callee subtree's transitive set.
    for (MethodId m = 0; m < locked_calls_.size(); ++m) {
        for (const CallSiteLocks &lc : locked_calls_[m]) {
            for (MethodId c : lc.callees) {
                for (const LockToken &t :
                     transitive_[c].locks) {
                    for (const LockToken &h : lc.held) {
                        if (!(h == t) ||
                            h.kind ==
                                LockToken::Kind::StaticElem)
                            lock_edges_[h].insert(t);
                    }
                }
            }
        }
    }

    // Cycle detection: Tarjan over the token graph; any SCC with
    // more than one node -- or a self-loop -- is a potential
    // deadlock.
    std::vector<LockToken> nodes;
    std::map<LockToken, uint32_t> node_id;
    std::vector<std::vector<uint32_t>> adj;
    auto intern = [&](const LockToken &t) {
        auto [it, fresh] = node_id.try_emplace(
            t, static_cast<uint32_t>(nodes.size()));
        if (fresh) {
            nodes.push_back(t);
            adj.emplace_back();
        }
        return it->second;
    };
    for (const auto &[from, tos] : lock_edges_) {
        const uint32_t f = intern(from);
        for (const LockToken &to : tos) {
            const uint32_t t = intern(to);
            adj[f].push_back(t);
        }
    }

    for (const std::vector<uint32_t> &members : stronglyConnected(adj)) {
        const bool self_loop =
            members.size() == 1 &&
            std::count(adj[members[0]].begin(), adj[members[0]].end(),
                       members[0]) != 0;
        if (members.size() > 1 || self_loop) {
            LockCycle cycle;
            for (auto it = members.rbegin(); it != members.rend(); ++it)
                cycle.tokens.push_back(nodes[*it]);
            cycles_.push_back(std::move(cycle));
        }
    }
}

std::vector<MethodId>
ProgramAnalysis::reachableFrom(MethodId root) const
{
    std::vector<MethodId> out;
    if (root >= program_.methodCount())
        return out;
    std::set<MethodId> visited{root};
    std::deque<MethodId> work{root};
    while (!work.empty()) {
        MethodId id = work.front();
        work.pop_front();
        for (const auto *edges : {&cg_.callees[id], &cg_.natives[id]})
            for (MethodId c : *edges)
                if (visited.insert(c).second)
                    work.push_back(c);
    }
    out.assign(visited.begin(), visited.end());
    return out;
}

CaptureSet
ProgramAnalysis::captureForRoot(MethodId root) const
{
    CaptureSet cap;
    if (root >= program_.methodCount()) {
        cap.all_fields = true;
        return cap;
    }
    const EffectSummary &t = transitive_[root];
    cap.statics = t.statics_read;
    cap.statics.insert(t.statics_written.begin(),
                       t.statics_written.end());
    cap.fields = t.fields_read;
    cap.any_klass_fields = t.fields_read_any_klass;
    cap.full_klasses = t.klasses_fully_read;
    cap.all_fields = t.unresolved_virtual;
    return cap;
}

} // namespace beehive::vm
