/**
 * @file
 * Frozen-vtable dispatch tests.
 *
 * The frozen tables (Program::resolveVirtual) must agree with the
 * reference string-walking resolver (resolveVirtualUncached) on
 * every (klass, name) pair -- over hand-built shadowing hierarchies,
 * over the full application corpus, and over fuzzed programs -- and
 * must refreeze transparently after any program mutation. CallVirt
 * in the interpreter must reach the receiver's override through
 * them.
 *
 * Quickened programs (vm/quicken.h) must run exactly like their
 * unquickened twins: hand-built idiom loops suspended after every
 * constituent, a snapshot restored mid-idiom, a jump into an idiom,
 * each fallback to the plain Load, and every app end to end.
 */

#include <gtest/gtest.h>

#include <any>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/external.h"
#include "core/server.h"
#include "fuzz_support.h"
#include "harness/testbed.h"
#include "quicken_support.h"
#include "support/rng.h"
#include "vm/code_builder.h"
#include "vm/context.h"
#include "vm/interpreter.h"
#include "vm/profiler.h"
#include "vm/program.h"
#include "vm/quicken.h"
#include "vm/race_oracle.h"
#include "vm/verifier.h"

namespace beehive::vm {
namespace {

/** Assert both resolvers agree on every (klass, name) pair. */
void
expectOracleAgreement(const Program &program)
{
    for (KlassId k = 0; k < program.klassCount(); ++k) {
        for (NameId n = 0; n < program.nameCount(); ++n) {
            ASSERT_EQ(program.resolveVirtual(k, n),
                      program.resolveVirtualUncached(k, n))
                << "klass " << program.klass(k).name << " name "
                << program.nameAt(n);
        }
    }
}

MethodId
addTrivialMethod(Program &program, KlassId owner,
                 const std::string &name)
{
    CodeBuilder b(program, owner, name, 1);
    b.pushI(static_cast<int64_t>(program.methodCount())).ret();
    return b.build();
}

// ---------------------------------------------------------------------
// Frozen vtables vs the reference walk
// ---------------------------------------------------------------------

TEST(FrozenVtable, OverrideShadowingEdgeCases)
{
    Program program;
    Klass a;
    a.name = "A";
    KlassId a_k = program.addKlass(a);
    Klass b;
    b.name = "B";
    b.super = a_k;
    KlassId b_k = program.addKlass(b);
    Klass c;
    c.name = "C";
    c.super = b_k;
    KlassId c_k = program.addKlass(c);

    // "m" on A and C (skipping B); "mid" only on B; "leaf" only on C.
    MethodId a_m = addTrivialMethod(program, a_k, "m");
    MethodId c_m = addTrivialMethod(program, c_k, "m");
    MethodId b_mid = addTrivialMethod(program, b_k, "mid");
    MethodId c_leaf = addTrivialMethod(program, c_k, "leaf");

    NameId m = program.internName("m");
    NameId mid = program.internName("mid");
    NameId leaf = program.internName("leaf");
    NameId ghost = program.internName("ghost"); // never defined

    EXPECT_EQ(program.resolveVirtual(a_k, m), a_m);
    EXPECT_EQ(program.resolveVirtual(b_k, m), a_m); // inherited
    EXPECT_EQ(program.resolveVirtual(c_k, m), c_m); // shadowed
    EXPECT_EQ(program.resolveVirtual(a_k, mid), kNoMethod);
    EXPECT_EQ(program.resolveVirtual(b_k, mid), b_mid);
    EXPECT_EQ(program.resolveVirtual(c_k, mid), b_mid);
    EXPECT_EQ(program.resolveVirtual(c_k, leaf), c_leaf);
    EXPECT_EQ(program.resolveVirtual(b_k, leaf), kNoMethod);
    EXPECT_EQ(program.resolveVirtual(c_k, ghost), kNoMethod);
    expectOracleAgreement(program);
}

TEST(FrozenVtable, RefreezesAfterMethodAddition)
{
    Program program;
    Klass base;
    base.name = "Base";
    KlassId base_k = program.addKlass(base);
    Klass sub;
    sub.name = "Sub";
    sub.super = base_k;
    KlassId sub_k = program.addKlass(sub);

    MethodId base_m = addTrivialMethod(program, base_k, "work");
    NameId work = program.internName("work");
    EXPECT_EQ(program.resolveVirtual(sub_k, work), base_m);
    EXPECT_TRUE(program.frozen());

    // Adding an override must invalidate and rebuild the tables.
    MethodId sub_m = addTrivialMethod(program, sub_k, "work");
    EXPECT_FALSE(program.frozen());
    EXPECT_EQ(program.resolveVirtual(sub_k, work), sub_m);
    EXPECT_EQ(program.resolveVirtual(base_k, work), base_m);
    EXPECT_TRUE(program.frozen());
}

TEST(FrozenVtable, RefreezesAfterNameInterningAndKlassAddition)
{
    Program program;
    Klass base;
    base.name = "Base";
    KlassId base_k = program.addKlass(base);
    MethodId base_m = addTrivialMethod(program, base_k, "work");
    NameId work = program.internName("work");
    EXPECT_EQ(program.resolveVirtual(base_k, work), base_m);

    // A new name widens every row; a new klass adds one.
    NameId fresh = program.internName("fresh");
    EXPECT_FALSE(program.frozen());
    EXPECT_EQ(program.resolveVirtual(base_k, fresh), kNoMethod);

    Klass sub;
    sub.name = "Sub";
    sub.super = base_k;
    KlassId sub_k = program.addKlass(sub);
    EXPECT_EQ(program.resolveVirtual(sub_k, work), base_m);
    expectOracleAgreement(program);
}

TEST(FrozenVtable, NonConstAccessConservativelyInvalidates)
{
    Program program;
    Klass base;
    base.name = "Base";
    KlassId base_k = program.addKlass(base);
    addTrivialMethod(program, base_k, "work");
    NameId work = program.internName("work");
    program.resolveVirtual(base_k, work);
    EXPECT_TRUE(program.frozen());

    // Mutable accessors may rewire anything; the tables must not be
    // trusted afterwards.
    program.klass(base_k);
    EXPECT_FALSE(program.frozen());
    expectOracleAgreement(program);
    EXPECT_TRUE(program.frozen());
    program.method(MethodId{0});
    EXPECT_FALSE(program.frozen());
    expectOracleAgreement(program);
}

TEST(FrozenVtable, CachedFieldCountsMatchWalk)
{
    Program program;
    Klass a;
    a.name = "A";
    a.fields = {"x", "y"};
    KlassId a_k = program.addKlass(a);
    Klass b;
    b.name = "B";
    b.super = a_k;
    b.fields = {"z"};
    KlassId b_k = program.addKlass(b);

    // Unfrozen: the walking path.
    EXPECT_EQ(program.fieldCount(b_k), 3u);
    // Frozen: the cached path must agree.
    program.freeze();
    EXPECT_EQ(program.fieldCount(a_k), 2u);
    EXPECT_EQ(program.fieldCount(b_k), 3u);
}

TEST(FrozenVtable, OracleAgreesOnAppCorpus)
{
    using harness::AppKind;
    for (AppKind app : {AppKind::Thumbnail, AppKind::Pybbs,
                        AppKind::Blog}) {
        harness::TestbedOptions opts;
        opts.app = app;
        opts.vanilla = true;
        harness::Testbed bed(opts);
        expectOracleAgreement(bed.program());
    }
}

TEST(FrozenVtable, FuzzedHierarchiesAgreeWithOracle)
{
    // Random inheritance forests with a small shared name pool (so
    // overrides and shadowing are common), cross-checked pair by
    // pair; each program is mutated mid-test to exercise refreeze.
    const char *pool[] = {"alpha", "beta", "gamma", "delta", "eps"};
    for (uint64_t seed = 1; seed <= 20; ++seed) {
        Rng rng(seed);
        Program program;
        std::vector<KlassId> klasses;
        int nklasses = static_cast<int>(rng.uniformInt(3, 12));
        for (int i = 0; i < nklasses; ++i) {
            Klass k;
            k.name = "K" + std::to_string(i);
            if (i > 0 && rng.uniformInt(0, 3) != 0)
                k.super = klasses[static_cast<std::size_t>(
                    rng.uniformInt(0, i - 1))];
            klasses.push_back(program.addKlass(k));
        }
        for (KlassId k : klasses) {
            for (const char *name : pool) {
                if (rng.uniformInt(0, 2) == 0)
                    addTrivialMethod(program, k, name);
            }
        }
        for (const char *name : pool)
            program.internName(name);
        expectOracleAgreement(program);

        // Mutate: one more override somewhere, then re-check.
        KlassId victim = klasses[static_cast<std::size_t>(
            rng.uniformInt(0, nklasses - 1))];
        const char *name =
            pool[static_cast<std::size_t>(rng.uniformInt(0, 4))];
        if (program.findMethod(program.klass(victim).name + "." +
                               name) == kNoMethod) {
            addTrivialMethod(program, victim, name);
            EXPECT_FALSE(program.frozen());
        }
        expectOracleAgreement(program);
    }
}

TEST(FrozenVtable, FuzzSupportProgramsAgreeWithOracle)
{
    // The suite's shared fuzz generators build realistic programs
    // (scaffold klasses, handlers, helper methods); the frozen
    // tables must agree with the walk on all of them too.
    for (uint64_t seed = 1; seed <= 5; ++seed) {
        Program race_program;
        fuzztest::generateRaceProgram(race_program, seed);
        expectOracleAgreement(race_program);

        Program manifest_program;
        fuzztest::generateManifestProgram(manifest_program, seed);
        expectOracleAgreement(manifest_program);
    }
}

// ---------------------------------------------------------------------
// CallVirt through the interpreter
// ---------------------------------------------------------------------

/** Program with Base.tick / Derived.tick and a CallVirt loop whose
 * receiver is selectable per iteration (monomorphic or flapping). */
class CallVirtTest : public ::testing::Test
{
  protected:
    CallVirtTest()
    {
        Klass base;
        base.name = "Base";
        base_k = program.addKlass(base);
        Klass derived;
        derived.name = "Derived";
        derived.super = base_k;
        derived_k = program.addKlass(derived);

        {
            CodeBuilder tick(program, base_k, "tick", 2);
            tick.load(1).pushI(1).add().ret();
            tick.build();
        }
        {
            CodeBuilder tick(program, derived_k, "tick", 2);
            tick.load(1).pushI(3).add().ret();
            tick.build();
        }
    }

    /**
     * main(n): acc = 0; repeat n times calling tick at ONE CallVirt
     * site; the receiver is Derived every iteration when @p flap is
     * false, and alternates Base/Derived by parity when true.
     */
    MethodId
    buildMain(bool flap)
    {
        CodeBuilder b(program, base_k,
                      flap ? "mainFlap" : "mainMono", 1);
        b.locals(3);
        auto loop = b.newLabel(), done = b.newLabel();
        auto use_a = b.newLabel(), call = b.newLabel();
        b.newObj(derived_k)
            .store(1)
            .newObj(flap ? base_k : derived_k)
            .store(2)
            .pushI(0)
            .store(3)
            .bind(loop)
            .load(0)
            .pushI(0)
            .cmpLe()
            .jnz(done)
            .load(0)
            .pushI(2)
            .mod()
            .jnz(use_a)
            .load(2)
            .jmp(call)
            .bind(use_a)
            .load(1)
            .bind(call)
            .load(3)
            .callVirt("tick", 2)
            .store(3)
            .load(0)
            .pushI(1)
            .sub()
            .store(0)
            .jmp(loop)
            .bind(done)
            .load(3)
            .ret();
        return b.build();
    }

    Value
    runMain(VmContext &ctx, MethodId m, int64_t n)
    {
        Interpreter interp(ctx);
        interp.start(m, {Value::ofInt(n)});
        while (true) {
            Suspend s = interp.run();
            if (s.kind == Suspend::Kind::Done)
                return s.result;
            EXPECT_EQ(s.kind, Suspend::Kind::Quantum);
        }
    }

    VmContext &
    makeContext()
    {
        heap = std::make_unique<Heap>(program, 1 << 20, 1 << 20);
        ctx = std::make_unique<VmContext>(program, natives, *heap,
                                          VmConfig{});
        ctx->loadAll();
        return *ctx;
    }

    Program program;
    NativeRegistry natives;
    std::unique_ptr<Heap> heap;
    std::unique_ptr<VmContext> ctx;
    KlassId base_k = kNoKlass, derived_k = kNoKlass;
};

TEST_F(CallVirtTest, MonomorphicSiteCallsOverride)
{
    MethodId m = buildMain(/*flap=*/false);
    VmContext &c = makeContext();
    Value result = runMain(c, m, 100);
    EXPECT_EQ(result.asInt(), 300); // 100 * Derived.tick(+3)
}

TEST_F(CallVirtTest, FlappingReceiverResolvesEveryCall)
{
    MethodId m = buildMain(/*flap=*/true);
    VmContext &c = makeContext();
    Value result = runMain(c, m, 100);
    // Odd n uses Derived (+3), even uses Base (+1): 50 each.
    EXPECT_EQ(result.asInt(), 200);
}


// ---------------------------------------------------------------------
// Quickening: fused idioms against the unquickened twin
// ---------------------------------------------------------------------

using quickentest::fusedHeads;
using quickentest::headsSuspendedAtEveryConstituent;
using quickentest::lockstep;
using quickentest::Seen;
using quickentest::Twins;
using quickentest::TwinVm;

/**
 * main(n, f): a countdown loop made of all five idioms, with int and
 * float operands, a call between idioms and a Not branch that is
 * taken on every other iteration. Returns the number of calls made.
 */
struct IdiomProgram
{
    IdiomProgram()
    {
        Klass node;
        node.name = "Node";
        node.fields = {"value", "next"};
        node_k = program.addKlass(node);

        CodeBuilder bump(program, node_k, "bump", 1);
        bump.load(0).pushI(1).add().ret();
        MethodId bump_m = bump.build();

        // Locals: 0 = n, 1 = f, 2 = node, 3 = calls, 4 = flag.
        CodeBuilder b(program, node_k, "main", 2);
        b.locals(3);
        auto top = b.newLabel(), done = b.newLabel(), skip = b.newLabel();
        b.newObj(node_k).store(2);
        b.load(2).pushI(5).putField(0);
        b.load(2).load(2).putField(1); // node.next = node
        b.pushI(0).store(3);
        b.pushI(0).store(4);
        b.bind(top);
        b.load(0).pushI(0).cmpLe().jnz(done);  // LoadLeJnz, int
        b.load(1).pushI(0).cmpLe().jnz(done);  // LoadLeJnz, float
        b.load(2).logNot().jnz(done);          // LoadNotJnz, never taken
        b.load(4).logNot().jnz(skip);          // LoadNotJnz, alternating
        b.load(3).call(bump_m).store(3);
        b.bind(skip);
        b.load(4).logNot().store(4);
        b.load(2).getField(0).popv();          // LoadFieldPop
        b.load(2).getField(1).store(2);        // LoadFieldStore
        b.load(0).pushI(1).sub().store(0);     // LoadSubStore, int
        b.load(1).pushI(1).sub().store(1);     // LoadSubStore, float
        b.jmp(top);
        b.bind(done);
        b.load(3).ret();
        main = b.build();
    }

    static std::vector<Value>
    args(int64_t n)
    {
        return {Value::ofInt(n),
                Value::ofFloat(static_cast<double>(n) + 0.5)};
    }

    Program program;
    KlassId node_k = kNoKlass;
    MethodId main = kNoMethod;
};

/**
 * An instruction cost that is not a binary fraction, so charging a
 * fused idiom in one sum instead of constituent by constituent would
 * change consumeCost()'s bits; a quantum of @p instrs instructions.
 */
VmConfig
idiomConfig(int instrs)
{
    VmConfig cfg;
    cfg.instr_cost_ns = 1.1;
    cfg.quantum_ns = 1.1 * instrs - 0.05;
    return cfg;
}

TEST(Quicken, RewritesOnlyIdiomHeads)
{
    IdiomProgram p;
    Program quick = p.program;
    EXPECT_EQ(quicken(quick), 8u);
    EXPECT_EQ(quicken(quick), 0u) << "quicken() must be idempotent";

    std::vector<Op> heads;
    for (MethodId id = 0; id < quick.methodCount(); ++id) {
        const std::vector<Instr> &before = p.program.method(id).code;
        const std::vector<Instr> &after = quick.method(id).code;
        ASSERT_EQ(before.size(), after.size());
        for (std::size_t pc = 0; pc < after.size(); ++pc) {
            // Only the op of a head changes; it reads as its Load.
            EXPECT_EQ(baseOp(after[pc].op), before[pc].op);
            EXPECT_EQ(after[pc].a, before[pc].a);
            EXPECT_EQ(after[pc].b, before[pc].b);
            if (after[pc].op != before[pc].op)
                heads.push_back(after[pc].op);
        }
    }
    EXPECT_EQ(heads, (std::vector<Op>{
                         Op::LoadLeJnz, Op::LoadLeJnz, Op::LoadNotJnz,
                         Op::LoadNotJnz, Op::LoadFieldPop,
                         Op::LoadFieldStore, Op::LoadSubStore,
                         Op::LoadSubStore}));

    // Near misses and truncated idioms are no idiom; quickenedOp()
    // reports Op::Load wherever none starts.
    std::vector<Instr> code = {
        {Op::Load, 0, 0}, {Op::PushI, 0, 0}, {Op::CmpLt, 0, 0},
        {Op::Jnz, 0, 0},  {Op::Load, 0, 0},  {Op::GetField, 0, 0},
        {Op::Dup, 0, 0},  {Op::Load, 0, 0},  {Op::Not, 0, 0},
        {Op::Jz, 0, 0},   {Op::Load, 0, 0},  {Op::PushI, 1, 0},
        {Op::Sub, 0, 0}};
    for (std::size_t pc = 0; pc < code.size(); ++pc)
        EXPECT_EQ(quickenedOp(code, pc), Op::Load) << pc;

    // The verifier reads the quickened program as the original.
    EXPECT_EQ(Verifier(quick).verifyAll().diagnostics.size(),
              Verifier(p.program).verifyAll().diagnostics.size());
}

TEST(Quicken, QuantumAfterEveryConstituentMatchesTwin)
{
    IdiomProgram p;
    for (int instrs = 1; instrs <= 24; ++instrs) {
        SCOPED_TRACE(instrs);
        Twins twins(p.program, idiomConfig(instrs));
        ASSERT_EQ(twins.heads(), 8u);
        std::vector<Seen> seen = twins.run(p.main, IdiomProgram::args(9));
        ASSERT_FALSE(seen.empty());
        ASSERT_EQ(seen.back().kind, Suspend::Kind::Done);
        EXPECT_EQ(twins.quick().interp.snapshotFrames().size(), 0u);
        if (instrs == 1) {
            // A one-instruction quantum stops after every
            // constituent of every idiom at least once.
            EXPECT_EQ(headsSuspendedAtEveryConstituent(
                          twins.quickProgram(), seen),
                      8u);
        }
    }
    Twins twins(p.program, idiomConfig(1000));
    std::vector<Seen> seen = twins.run(p.main, IdiomProgram::args(9));
    ASSERT_EQ(seen.back().kind, Suspend::Kind::Done);
}

TEST(Quicken, SnapshotRestoredMidIdiomMatchesTwin)
{
    IdiomProgram p;
    Twins twins(p.program, idiomConfig(3));
    const std::vector<std::pair<MethodId, uint32_t>> heads =
        fusedHeads(twins.quickProgram());
    auto midIdiom = [&](const Seen &s) {
        for (auto [method, head] : heads)
            if (s.method == method && s.pc > head &&
                s.pc < head + quickentest::idiomLength(
                                  twins.quickProgram()
                                      .method(method)
                                      .code[head]
                                      .op))
                return true;
        return false;
    };

    twins.plain().interp.start(p.main, IdiomProgram::args(9));
    twins.quick().interp.start(p.main, IdiomProgram::args(9));
    int restored = 0;
    for (int step = 0; step < 400 && restored < 5; ++step) {
        std::vector<Seen> seen = lockstep(twins.plain().interp,
                                          twins.quick().interp, {}, 1);
        ASSERT_EQ(seen.size(), 1u);
        ASSERT_NE(seen[0].kind, Suspend::Kind::Done);
        if (!midIdiom(seen[0]))
            continue;
        // Re-execution from a snapshot taken inside an idiom: fresh
        // interpreters over each twin's heap resume from the
        // quickened twin's frames and must still agree to the end.
        const std::vector<Frame> frames =
            twins.quick().interp.snapshotFrames();
        Interpreter plain(twins.plain().ctx), quick(twins.quick().ctx);
        plain.restoreFrames(frames);
        quick.restoreFrames(frames);
        std::vector<Seen> rest = lockstep(plain, quick);
        ASSERT_FALSE(rest.empty());
        EXPECT_EQ(rest.back().kind, Suspend::Kind::Done);
        ++restored;
    }
    EXPECT_EQ(restored, 5);
}

TEST(Quicken, JumpIntoAConstituentMatchesTwin)
{
    // n counts down; odd n takes the idiom from its head, even n
    // pushes its own operand and jumps straight to the idiom's pushI.
    Program program;
    Klass k;
    k.name = "K";
    KlassId k_id = program.addKlass(k);
    CodeBuilder b(program, k_id, "main", 1);
    b.locals(1);
    auto top = b.newLabel(), odd = b.newLabel(), mid = b.newLabel(),
         notmid = b.newLabel(), done = b.newLabel();
    b.pushI(0).store(1);
    b.bind(top);
    b.load(0).pushI(0).cmpLe().jnz(done);
    b.load(0).pushI(2).mod().jnz(odd);
    b.load(0).jmp(mid);
    b.bind(odd);
    b.load(0).bind(mid).pushI(1).sub().store(0);
    // The same for a Not idiom: jump over the head to the `not`.
    b.load(1).jmp(notmid);
    b.load(1).bind(notmid).logNot().jnz(top);
    b.pushI(0).store(1);
    b.jmp(top);
    b.bind(done);
    b.load(0).ret();
    MethodId main = b.build();

    for (int instrs = 1; instrs <= 6; ++instrs) {
        SCOPED_TRACE(instrs);
        Twins twins(program, idiomConfig(instrs));
        EXPECT_EQ(twins.heads(), 3u);
        std::vector<Seen> seen = twins.run(main, {Value::ofInt(7)});
        ASSERT_FALSE(seen.empty());
        EXPECT_EQ(seen.back().kind, Suspend::Kind::Done);
    }
}

/**
 * Fallback programs. main(x): x.value is read and dropped, x.next
 * stored into a local, and x tested with not, so every local and
 * field the fused idioms see comes from the test.
 */
struct FallbackProgram
{
    FallbackProgram()
    {
        Klass node;
        node.name = "Node";
        node.fields = {"value", "next"};
        node_k = program.addKlass(node);
        CodeBuilder b(program, node_k, "main", 1);
        b.locals(1);
        auto done = b.newLabel();
        b.load(0).logNot().jnz(done);      // LoadNotJnz
        b.load(0).getField(0).popv();      // LoadFieldPop
        b.load(0).getField(1).store(1);    // LoadFieldStore
        b.load(1).getField(0).store(0);    // LoadFieldStore on next
        b.bind(done);
        b.load(0).ret();
        main = b.build();
    }

    /** Allocate node -> next in @p vm; returns node. */
    Ref
    seed(TwinVm &vm, Value next_field) const
    {
        Ref next = vm.heap.allocPlain(node_k);
        vm.heap.setField(next, 0, Value::ofInt(42));
        Ref node = vm.heap.allocPlain(node_k);
        vm.heap.setField(node, 0, Value::ofInt(7));
        vm.heap.setField(node, 1, next_field.isNil()
                                      ? Value::ofRef(next)
                                      : next_field);
        return node;
    }

    Program program;
    KlassId node_k = kNoKlass;
    MethodId main = kNoMethod;
};

VmConfig
remoteConfig(int instrs)
{
    VmConfig cfg = idiomConfig(instrs);
    cfg.check_remote_refs = true;
    return cfg;
}

/**
 * Quanta for the fallback tests: stops inside the idioms, and one long
 * enough that every idiom runs fused to its end.
 */
constexpr int kFallbackQuanta[] = {1, 2, 3, 1000};

TEST(Quicken, RemoteLocalFallsBackToPlainLoad)
{
    FallbackProgram p;
    for (int instrs : kFallbackQuanta)
    for (bool mapped : {true, false}) {
        SCOPED_TRACE(testing::Message() << instrs << " mapped " << mapped);
        Twins twins(p.program, remoteConfig(instrs));
        Ref node = kNullRef;
        for (TwinVm *vm : {&twins.plain(), &twins.quick()}) {
            node = p.seed(*vm, Value::nil());
            if (mapped)
                vm->ctx.mapRemote(markRemote(node), node);
        }
        // ObjectFault: map the ref, as a fetch would, and retry.
        auto resolve = [&](Interpreter &interp, const Suspend &s) {
            if (s.kind != Suspend::Kind::ObjectFault)
                return false;
            interp.context().mapRemote(s.remote_ref, node);
            return true;
        };
        std::vector<Seen> seen = twins.run(
            p.main, {Value::ofRef(markRemote(node))}, resolve);
        ASSERT_FALSE(seen.empty());
        EXPECT_EQ(seen.back().kind, Suspend::Kind::Done);
        EXPECT_EQ(twins.quick().interp.stats().remote_hits, 1u);
        bool faulted = false;
        for (const Seen &s : seen)
            faulted = faulted || (s.kind == Suspend::Kind::ObjectFault &&
                                  s.pc == 0);
        EXPECT_EQ(faulted, !mapped);
    }
}

TEST(Quicken, RemoteFieldTakesTheGetFieldBarrier)
{
    FallbackProgram p;
    for (int instrs : kFallbackQuanta)
    for (bool mapped : {true, false}) {
        SCOPED_TRACE(testing::Message() << instrs << " mapped " << mapped);
        Twins twins(p.program, remoteConfig(instrs));
        Ref node = kNullRef, next = kNullRef;
        for (TwinVm *vm : {&twins.plain(), &twins.quick()}) {
            next = vm->heap.allocPlain(p.node_k);
            vm->heap.setField(next, 0, Value::ofInt(42));
            node = p.seed(*vm, Value::ofRef(markRemote(next)));
            if (mapped)
                vm->ctx.mapRemote(markRemote(next), next);
        }
        auto resolve = [&](Interpreter &interp, const Suspend &s) {
            if (s.kind != Suspend::Kind::ObjectFault)
                return false;
            interp.context().mapRemote(s.remote_ref, next);
            return true;
        };
        std::vector<Seen> seen =
            twins.run(p.main, {Value::ofRef(node)}, resolve);
        ASSERT_FALSE(seen.empty());
        EXPECT_EQ(seen.back().kind, Suspend::Kind::Done);
        // The barrier reset the remote bit in the field itself.
        EXPECT_EQ(twins.quick().heap.field(node, 1), Value::ofRef(next));
        EXPECT_EQ(twins.plain().heap.field(node, 1), Value::ofRef(next));
        // Unmapped, the fault stops the idiom at its getField (pc 7),
        // with the receiver still on the stack.
        bool faulted = false;
        for (const Seen &s : seen)
            faulted = faulted || (s.kind == Suspend::Kind::ObjectFault &&
                                  s.pc == 7);
        EXPECT_EQ(faulted, !mapped);
    }
}

/** Run main(receiver) to its end on one twin (a death-test body). */
void
runToEnd(TwinVm &vm, MethodId main, Value receiver)
{
    vm.interp.start(main, {receiver});
    while (vm.interp.run().kind == Suspend::Kind::Quantum) {
    }
}

TEST(QuickenDeathTest, NullReceiverPanicsLikeTheTwin)
{
    FallbackProgram p;
    // A null receiver is falsy, so main's not-branch would skip the
    // field reads; read through local 1 instead.
    CodeBuilder b(p.program, p.node_k, "deref", 1);
    b.locals(1);
    b.load(0).getField(0).popv().pushI(0).ret();
    MethodId deref = b.build();
    Twins twins(p.program, idiomConfig(1000));
    EXPECT_DEATH(runToEnd(twins.plain(), deref, Value::ofRef(kNullRef)),
                 "null dereference in deref");
    EXPECT_DEATH(runToEnd(twins.quick(), deref, Value::ofRef(kNullRef)),
                 "null dereference in deref");
    EXPECT_DEATH(runToEnd(twins.quick(), deref, Value::ofInt(3)),
                 "expected a reference, got kind 1");
}

TEST(Quicken, RecordingMatchesTwin)
{
    FallbackProgram p;
    for (int instrs : kFallbackQuanta) {
        SCOPED_TRACE(instrs);
        Twins twins(p.program, idiomConfig(instrs));
        Ref node = kNullRef;
        for (TwinVm *vm : {&twins.plain(), &twins.quick()}) {
            node = p.seed(*vm, Value::nil());
            vm->interp.enableRecording(true, /*field_reads=*/true);
        }
        std::vector<Seen> seen = twins.run(p.main, {Value::ofRef(node)});
        ASSERT_FALSE(seen.empty());
        EXPECT_EQ(seen.back().kind, Suspend::Kind::Done);
        EXPECT_EQ(twins.quick().interp.recordedFieldReads().size(), 2u);
        EXPECT_EQ(twins.plain().interp.recordedFieldReads(),
                  twins.quick().interp.recordedFieldReads());
    }
}

TEST(Quicken, RaceOracleSeesTheSameAccesses)
{
    FallbackProgram p;
    for (int instrs : kFallbackQuanta) {
        SCOPED_TRACE(instrs);
        Twins twins(p.program, idiomConfig(instrs));
        RaceOracle plain_oracle(p.program), quick_oracle(p.program);
        twins.plain().ctx.setRaceOracle(&plain_oracle);
        twins.quick().ctx.setRaceOracle(&quick_oracle);
        Ref node = kNullRef;
        for (TwinVm *vm : {&twins.plain(), &twins.quick()})
            node = p.seed(*vm, Value::nil());
        std::vector<Seen> seen = twins.run(p.main, {Value::ofRef(node)});
        ASSERT_FALSE(seen.empty());
        EXPECT_EQ(seen.back().kind, Suspend::Kind::Done);
        EXPECT_GT(quick_oracle.checks(), 0u);
        EXPECT_EQ(plain_oracle.checks(), quick_oracle.checks());
    }
}

TEST(Quicken, GrowingTheValueStackFallsBack)
{
    // rec(n) recurses n deep, one value-stack slot per frame, with
    // an idiom at the top of every frame; the value stack starts at
    // 64 slots, so some heads find no room for their pushes and run
    // as the plain Load, which grows the stack.
    Program program;
    Klass k;
    k.name = "K";
    KlassId k_id = program.addKlass(k);
    CodeBuilder b(program, k_id, "rec", 1);
    auto base = b.newLabel();
    b.load(0).pushI(0).cmpLe().jnz(base);  // LoadLeJnz
    b.load(0).logNot().jnz(base);          // LoadNotJnz
    b.load(0).pushI(1).sub().store(0);     // LoadSubStore
    b.load(0).callSelf().ret();
    b.bind(base);
    b.pushI(0).ret();
    MethodId rec = b.build();
    for (int instrs : {1, 4, 1000}) {
        SCOPED_TRACE(instrs);
        Twins twins(program, idiomConfig(instrs));
        std::vector<Seen> seen = twins.run(rec, {Value::ofInt(70)});
        ASSERT_FALSE(seen.empty());
        EXPECT_EQ(seen.back().kind, Suspend::Kind::Done);
    }
}

// The slow paths of the dispatch loop (Interpreter::runInner): stack
// growth, the read barrier, observed reads, candidate calls, natives.
// Each must run like the unquickened twin.

TEST(HandOff, PushAtTheValueStackLimitGrowsIt)
{
    // push(n) recurses 150 deep, one value-stack slot per frame, and
    // each frame pushes with PushI, PushNil, Dup and a plain Load at
    // the next four slots, so every one of those ops meets a push at
    // exactly the stack's size (64, then 128) in some frame.
    Program program;
    Klass k;
    k.name = "K";
    KlassId k_id = program.addKlass(k);
    CodeBuilder b(program, k_id, "push", 1);
    auto base = b.newLabel();
    b.pushI(7).pushNil().dup().load(0);
    b.popv().popv().popv().popv();
    b.load(0).logNot().jnz(base);      // LoadNotJnz
    b.load(0).pushI(1).sub().callSelf().ret();
    b.bind(base);
    b.pushI(0).ret();
    MethodId push = b.build();
    for (int instrs : {1, 3, 1000}) {
        SCOPED_TRACE(instrs);
        Twins twins(program, idiomConfig(instrs));
        std::vector<Seen> seen = twins.run(push, {Value::ofInt(150)});
        ASSERT_FALSE(seen.empty());
        EXPECT_EQ(seen.back().kind, Suspend::Kind::Done);
        EXPECT_EQ(twins.quick().interp.stats().calls, 151u);
    }
}

/**
 * main(x, arr): a plain Load of x, a plain GetField of x.next and a
 * plain ALoad of arr[0], none of them the head of an idiom, each
 * followed by dup; pop; pop so its value is on the stack once.
 */
struct PlainReadProgram
{
    PlainReadProgram()
    {
        Klass node;
        node.name = "Node";
        node.fields = {"value", "next"};
        node_k = program.addKlass(node);
        Klass arr;
        arr.name = "Array";
        arr_k = program.addKlass(arr);
        CodeBuilder b(program, node_k, "main", 2);
        b.load(0).dup().popv().popv();
        b.load(0).getField(1).dup().popv().popv();
        b.load(1).pushI(0).aload().dup().popv().popv();
        b.load(1).arrLen().popv();
        b.pushI(0).ret();
        main = b.build();
    }

    VmConfig
    config(int instrs, bool check_remote) const
    {
        VmConfig cfg = idiomConfig(instrs);
        cfg.check_remote_refs = check_remote;
        cfg.array_klass = arr_k;
        return cfg;
    }

    Program program;
    KlassId node_k = kNoKlass;
    KlassId arr_k = kNoKlass;
    MethodId main = kNoMethod;
};

TEST(HandOff, RemoteLocalFieldAndElementTakeTheBarrier)
{
    PlainReadProgram p;
    for (int instrs : kFallbackQuanta)
    for (bool mapped : {true, false}) {
        SCOPED_TRACE(testing::Message() << instrs << " mapped " << mapped);
        Twins twins(p.program, p.config(instrs, true));
        // x = remote node, node.next = remote next, arr[0] = remote elem.
        Ref node = kNullRef, next = kNullRef, elem = kNullRef;
        Ref arr = kNullRef;
        for (TwinVm *vm : {&twins.plain(), &twins.quick()}) {
            next = vm->heap.allocPlain(p.node_k);
            elem = vm->heap.allocPlain(p.node_k);
            node = vm->heap.allocPlain(p.node_k);
            vm->heap.setField(node, 1, Value::ofRef(markRemote(next)));
            arr = vm->heap.allocArray(p.arr_k, 1);
            vm->heap.setElem(arr, 0, Value::ofRef(markRemote(elem)));
            if (mapped) {
                for (Ref r : {node, next, elem})
                    vm->ctx.mapRemote(markRemote(r), r);
            }
        }
        // ObjectFault: map the ref, as a fetch would, and retry.
        auto resolve = [&](Interpreter &interp, const Suspend &s) {
            if (s.kind != Suspend::Kind::ObjectFault)
                return false;
            interp.context().mapRemote(s.remote_ref,
                                       stripRemote(s.remote_ref));
            return true;
        };
        std::vector<Seen> seen =
            twins.run(p.main, {Value::ofRef(markRemote(node)),
                               Value::ofRef(arr)},
                      resolve);
        ASSERT_FALSE(seen.empty());
        EXPECT_EQ(seen.back().kind, Suspend::Kind::Done);
        // The local, the field and the element, each rewritten once.
        EXPECT_EQ(twins.quick().interp.stats().remote_hits, 3u);
        std::vector<uint32_t> faults;
        for (const Seen &s : seen)
            if (s.kind == Suspend::Kind::ObjectFault)
                faults.push_back(s.pc);
        // Unmapped, each read faults at itself, nothing charged twice.
        const std::vector<uint32_t> expected_faults =
            mapped ? std::vector<uint32_t>{}
                   : std::vector<uint32_t>{0, 5, 11};
        EXPECT_EQ(faults, expected_faults);
        for (TwinVm *vm : {&twins.plain(), &twins.quick()}) {
            EXPECT_EQ(vm->heap.field(node, 1), Value::ofRef(next));
            EXPECT_EQ(vm->heap.elem(arr, 0), Value::ofRef(elem));
        }
    }
}

TEST(HandOff, ObservedReadsRunOnThePlainPath)
{
    // Field-read recording and the race oracle are fed only by the
    // plain GetField and ALoad; while either is on, the fused field
    // idioms run as their plain instructions.
    PlainReadProgram p;
    for (int instrs : kFallbackQuanta)
    for (bool oracle : {false, true}) {
        SCOPED_TRACE(testing::Message() << instrs << " oracle " << oracle);
        Program program = p.program;
        CodeBuilder b(program, p.node_k, "walk", 1);
        b.locals(1);
        b.load(0).getField(0).popv();      // LoadFieldPop
        b.load(0).getField(1).store(1);    // LoadFieldStore
        b.load(1).load(1).call(p.main).ret();
        MethodId walk = b.build();
        Twins twins(program, p.config(instrs, false));
        RaceOracle plain_oracle(program), quick_oracle(program);
        Ref node = kNullRef;
        for (TwinVm *vm : {&twins.plain(), &twins.quick()}) {
            if (oracle)
                vm->ctx.setRaceOracle(vm == &twins.plain() ? &plain_oracle
                                                           : &quick_oracle);
            else
                vm->interp.enableRecording(true, /*field_reads=*/true);
            // main(arr, arr) reads arr's slot 1 as main's x.next.
            Ref arr = vm->heap.allocArray(p.arr_k, 2);
            node = vm->heap.allocPlain(p.node_k);
            vm->heap.setField(node, 1, Value::ofRef(arr));
            vm->heap.setElem(arr, 0, Value::ofInt(3));
        }
        std::vector<Seen> seen = twins.run(walk, {Value::ofRef(node)});
        ASSERT_FALSE(seen.empty());
        EXPECT_EQ(seen.back().kind, Suspend::Kind::Done);
        if (oracle) {
            EXPECT_GT(quick_oracle.checks(), 0u);
            EXPECT_EQ(plain_oracle.checks(), quick_oracle.checks());
        } else {
            EXPECT_EQ(twins.quick().interp.recordedFieldReads().size(), 3u);
            EXPECT_EQ(twins.plain().interp.recordedFieldReads(),
                      twins.quick().interp.recordedFieldReads());
        }
    }
}

TEST(HandOff, QuantumExpiringRightAfterReentry)
{
    // Swap, Neg and PushF charge one instruction each, like every
    // other plain op (Div among them), so a quantum of k instructions
    // suspends at pc k with k charges summed one by one, wherever k
    // falls.
    Program program;
    Klass k;
    k.name = "K";
    KlassId k_id = program.addKlass(k);
    CodeBuilder b(program, k_id, "main", 0);
    b.pushI(1).pushI(2).swap().popv();
    b.neg().pushF(0.5).popv().pushI(3).div();
    b.pushI(4).swap().popv().popv().pushI(0).ret();
    MethodId main = b.build();
    // Every instruction but the Ret, which ends the run instead.
    const std::size_t length = program.method(main).code.size() - 1;
    for (uint32_t instrs = 1; instrs < length; ++instrs) {
        SCOPED_TRACE(instrs);
        VmConfig cfg = idiomConfig(static_cast<int>(instrs));
        cfg.jit_threshold = 0; // every step costs instr_cost_ns
        Twins twins(program, cfg);
        twins.quick().interp.start(main, {});
        Suspend s = twins.quick().interp.run();
        ASSERT_EQ(s.kind, Suspend::Kind::Quantum);
        const std::vector<Frame> frames =
            twins.quick().interp.snapshotFrames();
        ASSERT_EQ(frames.size(), 1u);
        EXPECT_EQ(frames[0].pc, instrs);
        double expected = 0.0;
        for (uint32_t i = 0; i < instrs; ++i)
            expected += 1.1;
        EXPECT_TRUE(quickentest::sameBits(
            twins.quick().interp.consumeCost(), expected));
        EXPECT_EQ(twins.quick().interp.stats().instructions, instrs);

        Twins again(program, cfg);
        std::vector<Seen> seen = again.run(main, {});
        ASSERT_FALSE(seen.empty());
        EXPECT_EQ(seen.back().kind, Suspend::Kind::Done);
    }
}

/** Register a native and add it to @p owner as a method. */
MethodId
addNative(Program &program, NativeRegistry &natives, KlassId owner,
          const std::string &name, NativeCategory category,
          uint16_t num_args, NativeFn fn)
{
    Method m;
    m.name = name;
    m.num_args = num_args;
    m.is_native = true;
    m.native_id = natives.add(name, category, fn);
    m.native_category = category;
    return program.addMethod(owner, m);
}

/** A klass named @p name with @p statics static slots. */
KlassId
addKlass(Program &program, const std::string &name,
         std::vector<std::string> statics = {})
{
    Klass k;
    k.name = name;
    k.fields = {"value"};
    k.statics = std::move(statics);
    return program.addKlass(k);
}

TEST(HandOff, OffloadPolicyIsAskedOnceAtEachCandidateCall)
{
    // main(n) calls helper and then handler n times; only handler is
    // an offload candidate, and its klass faults in on the first
    // call. The offload manager's policy draws from its RNG, so
    // asking it twice for one call, or at all for another method,
    // would change the run.
    Program program;
    const KlassId k = addKlass(program, "K");
    const KlassId lazy_k = addKlass(program, "Lazy");
    CodeBuilder h(program, lazy_k, "handler", 1);
    h.load(0).pushI(1).add().ret();
    const MethodId handler = h.build();
    CodeBuilder g(program, k, "helper", 1);
    g.load(0).pushI(2).mul().ret();
    const MethodId helper = g.build();
    CodeBuilder b(program, k, "main", 1);
    b.locals(1);
    auto top = b.newLabel(), done = b.newLabel();
    b.pushI(0).store(1);
    b.bind(top);
    b.load(0).pushI(0).cmpLe().jnz(done);
    b.load(1).call(helper).call(handler).store(1);
    b.load(0).pushI(1).sub().store(0);
    b.jmp(top);
    b.bind(done);
    b.load(1).ret();
    const MethodId main = b.build();
    quicken(program);

    for (int instrs : {1, 3, 1000})
    for (bool offload : {false, true}) {
        SCOPED_TRACE(testing::Message() << instrs << " offload " << offload);
        NativeRegistry natives;
        Heap heap(program, 1 << 16, 1 << 20);
        VmContext ctx(program, natives, heap, idiomConfig(instrs));
        ctx.loadKlass(k);
        std::vector<MethodId> asked;
        ctx.setOffloadPolicy([&](MethodId id) {
            asked.push_back(id);
            return offload;
        });
        ctx.markOffloadCandidate(handler);
        Interpreter interp(ctx);
        interp.start(main, {Value::ofInt(5)});
        int faults = 0, offloads = 0;
        Suspend s;
        do {
            s = interp.run();
            if (s.kind == Suspend::Kind::ClassFault) {
                EXPECT_EQ(s.klass, lazy_k);
                ctx.loadKlass(s.klass);
                ++faults;
            } else if (s.kind == Suspend::Kind::OffloadCall) {
                // The FaaS side runs handler: x + 1.
                ASSERT_EQ(s.offload_method, handler);
                ASSERT_EQ(s.offload_args.size(), 1u);
                interp.resumeExternal(
                    Value::ofInt(s.offload_args[0].asInt() + 1));
                ++offloads;
            } else {
                ASSERT_TRUE(s.kind == Suspend::Kind::Quantum ||
                            s.kind == Suspend::Kind::Done)
                    << static_cast<int>(s.kind);
            }
        } while (s.kind != Suspend::Kind::Done);
        EXPECT_EQ(s.result.asInt(), 31); // x -> 2x + 1, five times
        EXPECT_EQ(faults, 1);
        EXPECT_EQ(asked, std::vector<MethodId>(5, handler));
        EXPECT_EQ(offloads, offload ? 5 : 0);
    }
}

/** Method.invoke0(receiver, x): x * 10, a hidden-state native. */
NativeResult
invoke0(VmContext &, std::span<const Value> args)
{
    NativeResult r;
    r.cost_ns = 150.0;
    r.ret = Value::ofInt(args[1].asInt() * 10);
    return r;
}

TEST(HandOff, HiddenStateNativeNeedsALocalPackedReceiverOnAFunction)
{
    // main(recv) = 5 + invoke0(recv, 4). On an endpoint that checks
    // remote references (a FaaS function) the native runs only on a
    // local, packed receiver; otherwise the call suspends with its
    // arguments on the stack and runs once forceNextNativeLocal()
    // forces it.
    Program program;
    const KlassId k = addKlass(program, "Method");
    NativeRegistry natives;
    const MethodId invoke = addNative(program, natives, k, "Method.invoke0",
                                      NativeCategory::HiddenState, 2,
                                      invoke0);
    CodeBuilder b(program, k, "main", 1);
    b.pushI(5).load(0).pushI(4).call(invoke).add().ret();
    const MethodId main = b.build();
    const uint32_t call_pc = 3;

    enum class Receiver { Unpacked, Packed, Null, Int };
    for (bool check_remote : {false, true})
    for (Receiver kind : {Receiver::Unpacked, Receiver::Packed,
                          Receiver::Null, Receiver::Int}) {
        SCOPED_TRACE(testing::Message() << "check_remote " << check_remote
                                        << " receiver "
                                        << static_cast<int>(kind));
        VmConfig cfg = idiomConfig(1000);
        cfg.check_remote_refs = check_remote;
        TwinVm vm(program, natives, cfg, 1 << 20);
        Value recv = Value::ofInt(7);
        if (kind == Receiver::Null) {
            recv = Value::ofRef(kNullRef);
        } else if (kind != Receiver::Int) {
            const Ref obj = vm.heap.allocPlain(k);
            if (kind == Receiver::Packed)
                vm.heap.header(obj).flags |= kFlagPacked;
            recv = Value::ofRef(obj);
        }
        vm.interp.start(main, {recv});
        Suspend s = vm.interp.run();
        const bool falls_back = check_remote && kind != Receiver::Packed;
        if (falls_back) {
            ASSERT_EQ(s.kind, Suspend::Kind::NativeFallback);
            EXPECT_EQ(s.native_id, program.method(invoke).native_id);
            EXPECT_EQ(vm.interp.stats().native_calls, 0u);
            const std::vector<Frame> frames = vm.interp.snapshotFrames();
            ASSERT_EQ(frames.size(), 1u);
            EXPECT_EQ(frames[0].pc, call_pc);
            EXPECT_EQ(frames[0].stack,
                      (std::vector<Value>{Value::ofInt(5), recv,
                                          Value::ofInt(4)}));
            vm.ctx.forceNextNativeLocal();
            s = vm.interp.run();
        }
        ASSERT_EQ(s.kind, Suspend::Kind::Done);
        EXPECT_EQ(s.result.asInt(), 45);
        EXPECT_EQ(vm.interp.stats().native_calls, 1u);
        EXPECT_EQ(vm.ctx.nativeCount(NativeCategory::HiddenState), 1u);
    }
}

/** Thread.currentThread(): 1, a stateless native. */
NativeResult
currentThread(VmContext &, std::span<const Value>)
{
    NativeResult r;
    r.cost_ns = 30.0;
    r.ret = Value::ofInt(1);
    return r;
}

TEST(HandOff, ForceLocalOneShotIsConsumedByOneNative)
{
    // main(recv) = currentThread() + invoke0(recv, 1) + invoke0(recv, 2)
    // on a function endpoint, with an unpacked receiver: the one-shot
    // is taken by the next native, whatever its category, and by no
    // other.
    Program program;
    const KlassId k = addKlass(program, "Method");
    NativeRegistry natives;
    const MethodId current = addNative(program, natives, k,
                                       "Thread.currentThread",
                                       NativeCategory::Stateless, 0,
                                       currentThread);
    const MethodId invoke = addNative(program, natives, k, "Method.invoke0",
                                      NativeCategory::HiddenState, 2,
                                      invoke0);
    CodeBuilder b(program, k, "main", 1);
    b.call(current);
    b.load(0).pushI(1).call(invoke).add();
    b.load(0).pushI(2).call(invoke).add();
    b.ret();
    const MethodId main = b.build();
    VmConfig cfg = idiomConfig(1000);
    cfg.check_remote_refs = true;
    TwinVm vm(program, natives, cfg, 1 << 20);
    const Value recv = Value::ofRef(vm.heap.allocPlain(k));
    vm.interp.start(main, {recv});

    auto pc = [&] { return vm.interp.snapshotFrames().back().pc; };
    // Taken by currentThread, so the first invoke0 falls back.
    vm.ctx.forceNextNativeLocal();
    Suspend s = vm.interp.run();
    ASSERT_EQ(s.kind, Suspend::Kind::NativeFallback);
    EXPECT_EQ(pc(), 3u);
    EXPECT_FALSE(vm.ctx.forceLocalNativePending());
    EXPECT_EQ(vm.interp.stats().native_calls, 1u);
    // Taken by the first invoke0 alone: the second falls back.
    vm.ctx.forceNextNativeLocal();
    s = vm.interp.run();
    ASSERT_EQ(s.kind, Suspend::Kind::NativeFallback);
    EXPECT_EQ(pc(), 7u);
    EXPECT_FALSE(vm.ctx.forceLocalNativePending());
    EXPECT_EQ(vm.interp.stats().native_calls, 2u);
    vm.ctx.forceNextNativeLocal();
    s = vm.interp.run();
    ASSERT_EQ(s.kind, Suspend::Kind::Done);
    EXPECT_EQ(s.result.asInt(), 1 + 10 + 20);
    EXPECT_EQ(vm.interp.stats().native_calls, 3u);
}

/** Calls left for countdown(); each call takes one. */
int64_t countdown_left = 0;

/** countdown(): the calls left after this one. */
NativeResult
countdown(VmContext &, std::span<const Value>)
{
    NativeResult r;
    r.cost_ns = 30.0;
    r.ret = Value::ofInt(--countdown_left);
    return r;
}

TEST(HandOff, ZeroArgumentNativeAtTheValueStackLimitGrowsIt)
{
    // rec() has one local and no arguments: frame i's local is slot
    // i, and its only push is countdown()'s result at slot i + 1, so
    // frame 63 calls the native with the stack exactly full (64
    // slots), and its result must grow the stack first.
    Program program;
    const KlassId k = addKlass(program, "K");
    NativeRegistry natives;
    const MethodId tick = addNative(program, natives, k, "countdown",
                                    NativeCategory::Stateless, 0,
                                    countdown);
    CodeBuilder b(program, k, "rec", 0);
    b.locals(1);
    auto base = b.newLabel();
    b.call(tick).jz(base);
    b.callSelf().ret();
    b.bind(base);
    b.pushI(0).ret();
    const MethodId rec = b.build();
    for (int instrs : {1, 2, 1000}) {
        SCOPED_TRACE(instrs);
        countdown_left = 150;
        TwinVm vm(program, natives, idiomConfig(instrs), 1 << 20);
        vm.interp.start(rec, {});
        Suspend s;
        do {
            s = vm.interp.run();
        } while (s.kind == Suspend::Kind::Quantum);
        ASSERT_EQ(s.kind, Suspend::Kind::Done);
        EXPECT_EQ(s.result.asInt(), 0);
        EXPECT_EQ(vm.interp.stats().native_calls, 150u);
        EXPECT_EQ(vm.interp.stats().calls, 150u);
    }
}

/** Socket.read0(a, b): an External request carrying 100a + b. */
NativeResult
socketRead(VmContext &, std::span<const Value> args)
{
    NativeResult r;
    r.cost_ns = 250.0;
    r.external = std::any(args[0].asInt() * 100 + args[1].asInt());
    return r;
}

TEST(HandOff, ExternalNativeLeavesPcPastTheCallAndItsArgumentsPopped)
{
    Program program;
    const KlassId k = addKlass(program, "Socket");
    NativeRegistry natives;
    const MethodId read = addNative(program, natives, k, "Socket.read0",
                                    NativeCategory::Network, 2, socketRead);
    CodeBuilder b(program, k, "main", 0);
    b.pushI(9).pushI(4).pushI(2).call(read).add().ret();
    const MethodId main = b.build();
    for (int instrs : {1, 1000}) {
        SCOPED_TRACE(instrs);
        TwinVm vm(program, natives, idiomConfig(instrs), 1 << 20);
        vm.interp.start(main, {});
        Suspend s;
        do {
            s = vm.interp.run();
        } while (s.kind == Suspend::Kind::Quantum);
        ASSERT_EQ(s.kind, Suspend::Kind::External);
        EXPECT_EQ(std::any_cast<int64_t>(s.external), 402);
        const std::vector<Frame> frames = vm.interp.snapshotFrames();
        ASSERT_EQ(frames.size(), 1u);
        EXPECT_EQ(frames[0].pc, 4u);
        EXPECT_EQ(frames[0].stack, std::vector<Value>{Value::ofInt(9)});
        EXPECT_EQ(vm.interp.stats().native_calls, 1u);
        vm.interp.resumeExternal(Value::ofInt(5));
        do {
            s = vm.interp.run();
        } while (s.kind == Suspend::Kind::Quantum);
        ASSERT_EQ(s.kind, Suspend::Kind::Done);
        EXPECT_EQ(s.result.asInt(), 14);
    }
}

TEST(HandOff, ProfilerCandidateRecordsOneExecutionPerCall)
{
    // entry(n) allocates an Outside object, then calls the annotated
    // handler n times through a wrapper. The handler allocates a
    // Used object, reads a static and a field, and calls a helper
    // and a native. Each call must flush exactly one sample, holding
    // what the handler's extent used and nothing from outside it,
    // whatever the quantum.
    Program program;
    const KlassId entry_k = addKlass(program, "Entry");
    const KlassId handler_k = addKlass(program, "Handler");
    const KlassId used_k = addKlass(program, "Used");
    const KlassId outside_k = addKlass(program, "Outside");
    const KlassId counter_k = addKlass(program, "Counter", {"a", "hits"});
    const KlassId helper_k = addKlass(program, "Helper");
    NativeRegistry natives;
    const MethodId current = addNative(program, natives, helper_k,
                                       "Thread.currentThread",
                                       NativeCategory::Stateless, 0,
                                       currentThread);
    CodeBuilder hb(program, helper_k, "helper", 1);
    hb.load(0).call(current).add().ret();
    const MethodId helper = hb.build();
    CodeBuilder h(program, handler_k, "handler", 1);
    h.annotate("RequestMapping");
    h.locals(1);
    h.newObj(used_k).store(1);
    h.load(1).getField(0).popv();
    h.getStatic(counter_k, 1).popv();
    h.load(0).call(helper).ret();
    const MethodId handler = h.build();
    CodeBuilder w(program, entry_k, "wrapper", 1);
    w.load(0).call(handler).ret();
    const MethodId wrapper = w.build();
    CodeBuilder e(program, entry_k, "entry", 1);
    auto top = e.newLabel(), done = e.newLabel();
    e.newObj(outside_k).popv();
    e.bind(top);
    e.load(0).pushI(0).cmpLe().jnz(done);
    e.load(0).call(wrapper).popv();
    e.load(0).pushI(1).sub().store(0);
    e.jmp(top);
    e.bind(done);
    e.newObj(outside_k).popv();
    e.pushI(0).ret();
    const MethodId entry = e.build();

    double cost = -1.0;
    for (int instrs : {1, 3, 7, 1000}) {
        SCOPED_TRACE(instrs);
        TwinVm vm(program, natives, idiomConfig(instrs), 1 << 20);
        Profiler prof(program);
        prof.addCandidateAnnotation("RequestMapping");
        vm.ctx.setProfiler(&prof);
        vm.interp.enableCandidateProfiling(true);
        vm.interp.start(entry, {Value::ofInt(4)});
        while (vm.interp.run().kind == Suspend::Kind::Quantum) {
        }
        const RootProfile *p = prof.profile(handler);
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(p->invocations, 4u);
        EXPECT_EQ(p->klasses,
                  (std::set<KlassId>{used_k, counter_k, helper_k}));
        EXPECT_EQ(p->statics,
                  (std::set<std::pair<KlassId, uint32_t>>{{counter_k, 1}}));
        if (cost < 0.0)
            cost = p->total_cost_ns;
        EXPECT_TRUE(quickentest::sameBits(p->total_cost_ns, cost));
        // Field reads are recorded only when a caller asks.
        EXPECT_TRUE(vm.interp.recordedFieldReads().empty());
    }
}

/** A method of raw @p code over @p locals slots, never verified. */
MethodId
rawMethod(Program &program, const std::string &name, uint16_t locals,
          std::vector<Instr> code)
{
    Method m;
    m.name = name;
    m.num_locals = locals;
    m.code = std::move(code);
    return program.addMethod(0, m);
}

/** Start @p entry with no arguments and run it to its end. */
void
runRaw(const Program &program, MethodId entry)
{
    NativeRegistry natives;
    TwinVm vm(program, natives, idiomConfig(1000), 1 << 16);
    vm.interp.start(entry, {});
    while (vm.interp.run().kind == Suspend::Kind::Quantum) {
    }
}

TEST(HandOffDeathTest, UnderflowAndBadSlotsPanicAsBefore)
{
    Program program;
    Klass k;
    k.name = "K";
    program.addKlass(k);
    for (Op op : {Op::Pop, Op::Dup, Op::Store, Op::Add, Op::CmpLt,
                  Op::CmpEq, Op::And, Op::Not, Op::Jz, Op::GetField,
                  Op::ALoad, Op::ArrLen}) {
        SCOPED_TRACE(static_cast<int>(op));
        MethodId m = rawMethod(program,
                               "dry" + std::to_string(static_cast<int>(op)),
                               1,
                               {{op, 0, 0}, {Op::Ret, 0, 0}});
        EXPECT_DEATH(runRaw(program, m), "stack underflow in dry");
    }
    MethodId load = rawMethod(program, "load", 1,
                              {{Op::Load, 3, 0}, {Op::Ret, 0, 0}});
    EXPECT_DEATH(runRaw(program, load), "bad local slot");
    MethodId store = rawMethod(program, "store", 1,
                               {{Op::PushI, 1, 0},
                                {Op::Store, 3, 0},
                                {Op::Ret, 0, 0}});
    EXPECT_DEATH(runRaw(program, store), "bad local slot");
    // A fused head whose idiom stores to a bad slot.
    MethodId idiom = rawMethod(program, "idiom", 1,
                               {{Op::Load, 0, 0},
                                {Op::PushI, 1, 0},
                                {Op::Sub, 0, 0},
                                {Op::Store, 3, 0},
                                {Op::PushI, 0, 0},
                                {Op::Ret, 0, 0}});
    Program quick = program;
    ASSERT_EQ(quicken(quick), 1u);
    EXPECT_DEATH(runRaw(quick, idiom), "bad local slot");
}

/** Rewrite every quickened head back to its Load: the oracle. */
void
dequicken(Program &program)
{
    for (auto [method, pc] : fusedHeads(program))
        program.method(method).code[pc].op = Op::Load;
}

/** One request through the server; the sim time it finished at. */
std::pair<Value, sim::SimTime>
serve(harness::Testbed &bed, int64_t id)
{
    Value out;
    bool done = false;
    bed.server().handleLocal(bed.app().entry(), {Value::ofInt(id)},
                             [&](Value v) {
                                 out = v;
                                 done = true;
                             });
    const sim::SimTime guard = bed.sim().now() + sim::SimTime::sec(120);
    while (!done && bed.sim().now() < guard)
        bed.sim().runUntil(bed.sim().now() + sim::SimTime::msec(10));
    EXPECT_TRUE(done);
    return {out, bed.sim().now()};
}

TEST(Quicken, EveryAppRunsLikeItsUnquickenedTwin)
{
    // The harness quickens every app program; its dequickened twin
    // must serve the same requests (profiling, shadow and offloaded
    // runs on FaaS interpreters included) at the same simulated
    // times with the same interpreter work.
    using harness::AppKind;
    for (AppKind app : {AppKind::Thumbnail, AppKind::Pybbs,
                        AppKind::Blog}) {
        SCOPED_TRACE(harness::appName(app));
        harness::TestbedOptions opts;
        opts.app = app;
        opts.framework.native_scale = 2000;
        opts.framework.interceptor_depth = 5;
        opts.framework.stub_variants = 8;
        opts.framework.generated_klasses = 40;
        opts.framework.config_objects = 120;
        opts.profiling_requests = 6;
        harness::Testbed quick(opts), plain(opts);
        EXPECT_GT(fusedHeads(quick.program()).size(), 10u);
        dequicken(plain.program());
        ASSERT_TRUE(fusedHeads(plain.program()).empty());

        EXPECT_EQ(quick.runProfilingPhase(), plain.runProfilingPhase());
        for (harness::Testbed *bed : {&quick, &plain})
            bed->manager()->setOffloadRatio(1.0);
        for (int64_t id = 1; id <= 6; ++id) {
            auto [qv, qt] = serve(quick, id);
            auto [pv, pt] = serve(plain, id);
            EXPECT_EQ(qv, pv) << id;
            EXPECT_EQ(qt, pt) << id;
        }
        EXPECT_EQ(quick.server().stats().instructions,
                  plain.server().stats().instructions);
        EXPECT_EQ(quick.server().stats().calls,
                  plain.server().stats().calls);
        const core::OffloadStats &qs = quick.manager()->stats();
        const core::OffloadStats &ps = plain.manager()->stats();
        EXPECT_GT(quick.server().stats().instructions, 10000u);
        EXPECT_GT(qs.shadows + qs.offloaded, 0u);
        EXPECT_EQ(qs.shadows, ps.shadows);
        EXPECT_EQ(qs.offloaded, ps.offloaded);
        ASSERT_EQ(quick.manager()->traces().size(),
                  plain.manager()->traces().size());
        for (std::size_t i = 0; i < quick.manager()->traces().size(); ++i) {
            const core::RequestTrace &q = quick.manager()->traces()[i].second;
            const core::RequestTrace &t = plain.manager()->traces()[i].second;
            EXPECT_EQ(q.fallbacks, t.fallbacks) << i;
            EXPECT_EQ(q.remoteFetches(), t.remoteFetches()) << i;
            EXPECT_EQ(q.duration, t.duration) << i;
        }
    }
}

/**
 * Every suspension of the app's entry handler serving requests 1-3
 * on a bare interpreter over a fresh server's context, with a
 * quantum of @p quantum_ns, hashed by hashSuspension(). Database
 * calls go straight to the proxy and monitors are granted at once,
 * so the hash depends on the interpreter alone.
 */
uint64_t
entryHandlerHash(harness::AppKind app, double quantum_ns)
{
    harness::TestbedOptions opts;
    opts.app = app;
    harness::Testbed bed(opts);
    VmContext &ctx = bed.server().context();
    ctx.config().quantum_ns = quantum_ns;
    quickentest::Fnv1a hash;
    for (int64_t id = 1; id <= 3; ++id) {
        Interpreter interp(ctx);
        interp.setSuppressOffload(true);
        interp.start(bed.app().entry(), {Value::ofInt(id)});
        while (true) {
            Suspend s = interp.run();
            quickentest::hashSuspension(hash, interp, s);
            if (s.kind == Suspend::Kind::Done)
                break;
            switch (s.kind) {
              case Suspend::Kind::Quantum:
                break;
              case Suspend::Kind::External: {
                auto call = std::any_cast<core::DbCallPayload>(s.external);
                db::Response resp = bed.proxy().request(
                    static_cast<proxy::ConnId>(call.conn_token),
                    call.request);
                std::optional<Value> v =
                    core::tryMaterializeDbResponse(ctx, call.request, resp);
                EXPECT_TRUE(v.has_value()) << "server heap exhausted";
                if (!v)
                    return 0;
                interp.resumeExternal(*v);
                break;
              }
              case Suspend::Kind::MonitorAcquire:
                interp.grantMonitor(s.monitor_obj);
                break;
              case Suspend::Kind::MonitorRelease:
                interp.grantRelease();
                break;
              case Suspend::Kind::VolatileSync:
                interp.grantVolatile(s.monitor_obj);
                break;
              default:
                ADD_FAILURE() << "unexpected suspension "
                              << static_cast<int>(s.kind);
                return 0;
            }
        }
        EXPECT_GT(interp.stats().instructions, 5000u);
    }
    return hash.value();
}

TEST(PinnedCost, EntryHandlersChargeLikeTheExactLoop)
{
    // Recorded from the dispatch loop that charged every instruction
    // through the member accumulators one at a time. A change to the
    // order or grouping of the charges, to the quantum boundaries or
    // to the instruction count changes these hashes; the twin tests
    // cannot see it, because both twins run through the same loop.
    // A quantum of 1 ns suspends after every instruction.
    using harness::AppKind;
    struct Pin
    {
        AppKind app;
        double quantum_ns;
        uint64_t hash;
    };
    constexpr Pin kPins[] = {
        {AppKind::Blog, 1.0, 0xf0eda1552a56ed7dull},
        {AppKind::Blog, 7000.0, 0x1c911eb47131984full},
        {AppKind::Blog, 100000.0, 0xaccc4f1b427ed42eull},
        {AppKind::Pybbs, 1.0, 0x307a502bc97b6527ull},
        {AppKind::Pybbs, 7000.0, 0x62cea6566fe41220ull},
        {AppKind::Pybbs, 100000.0, 0x61333d5bb5fd1b58ull},
        {AppKind::Thumbnail, 1.0, 0xc5a44bd67d4fc7ddull},
        {AppKind::Thumbnail, 7000.0, 0x8f814c3b8e58200cull},
        {AppKind::Thumbnail, 100000.0, 0xf9103c30f6133c18ull},
    };
    for (const Pin &pin : kPins) {
        SCOPED_TRACE(testing::Message()
                     << harness::appName(pin.app) << " quantum "
                     << pin.quantum_ns);
        const uint64_t got = entryHandlerHash(pin.app, pin.quantum_ns);
        EXPECT_EQ(got, pin.hash) << std::hex << "0x" << got;
    }
}

/**
 * A testbed built from @p opts, at offload ratio 1.0 after its
 * profiling phase,
 * serving requests 1-6 (the first one's offload runs as a shadow),
 * with a pause after the first for its shadow to warm the instance,
 * hashed: each request's result and finish time, each completed
 * invocation's root, duration bits, fallbacks by kind and
 * synchronized objects, and the server's and the functions'
 * instruction totals. A function faults on klasses and objects and
 * syncs monitors, so this pins the charges of paths a server context
 * never takes. @p fn_stats, when given, receives the functions'
 * counts.
 */
uint64_t
offloadedInvocationsHash(const harness::TestbedOptions &opts,
                         core::FunctionStats *fn_stats = nullptr)
{
    harness::Testbed bed(opts);
    EXPECT_TRUE(bed.runProfilingPhase());
    bed.manager()->setOffloadRatio(1.0);
    quickentest::Fnv1a hash;
    for (int64_t id = 1; id <= 6; ++id) {
        auto [v, t] = serve(bed, id);
        hash.add(v.isInt() ? static_cast<uint64_t>(v.asInt()) : 0);
        hash.add(static_cast<uint64_t>(t.ns()));
        // Let the shadow finish warming its instance.
        if (id == 1)
            bed.sim().runUntil(t + sim::SimTime::sec(30));
    }
    const core::OffloadStats &os = bed.manager()->stats();
    EXPECT_GT(os.shadows, 0u);
    EXPECT_GT(os.offloaded, 0u);
    for (const auto &[root, trace] : bed.manager()->traces()) {
        hash.add(root);
        hash.add(trace.shadow);
        hash.add(static_cast<uint64_t>(trace.duration.ns()));
        hash.add(trace.code_fetches);
        hash.add(trace.data_fetches);
        hash.add(trace.native_fallbacks);
        hash.add(trace.sync_fallbacks);
        hash.add(trace.connection_fallbacks);
        hash.add(trace.synchronized_objects);
    }
    hash.add(bed.server().stats().instructions);
    hash.add(bed.manager()->functionStats().instructions);
    EXPECT_GT(bed.manager()->functionStats().instructions, 10000u);
    if (fn_stats)
        *fn_stats = bed.manager()->functionStats();
    return hash.value();
}

TEST(PinnedCost, OffloadedInvocationsChargeLikeTheParent)
{
    // Recorded from the build whose outer switch ran every faulting,
    // observed or syncing instruction. A function's klass and object
    // faults and monitor syncs retry an instruction after charging
    // part of it; a change to what a suspending instruction charges
    // moves an invocation's duration and these hashes.
    using harness::AppKind;
    struct Pin
    {
        AppKind app;
        uint64_t hash;
    };
    constexpr Pin kPins[] = {
        {AppKind::Blog, 0xe50011400497b43aull},
        {AppKind::Pybbs, 0xe89679a6c6f6ee37ull},
        {AppKind::Thumbnail, 0x006ab08862573029ull},
    };
    for (const Pin &pin : kPins) {
        SCOPED_TRACE(harness::appName(pin.app));
        harness::TestbedOptions opts;
        opts.app = pin.app;
        const uint64_t got = offloadedInvocationsHash(opts);
        EXPECT_EQ(got, pin.hash) << std::hex << "0x" << got;
    }
}

TEST(PinnedCost, BareClosuresAndUnpackedReceiversChargeLikeTheParent)
{
    // The pins above never reach two function-side paths: every
    // closure ships the klasses its root allocates, and every
    // hidden-state native's receiver arrives packed. A closure that
    // ships no klass but the root's own (klass coverage 0) makes the
    // first New, NewArr or NewBytes of each klass fault; with
    // Packageable off, a hidden-state native on an unpacked receiver
    // falls back to the server. Recorded before the static passes
    // shared one dataflow engine.
    using harness::AppKind;
    enum class Variant { BareClosure, Unpacked };
    struct Pin
    {
        AppKind app;
        Variant variant;
        uint64_t hash;
    };
    constexpr Pin kPins[] = {
        {AppKind::Blog, Variant::BareClosure, 0xe3aae71820323ad0ull},
        {AppKind::Blog, Variant::Unpacked, 0x54dec2d92f06dc23ull},
        {AppKind::Pybbs, Variant::BareClosure, 0x0409a9602f91be33ull},
        {AppKind::Pybbs, Variant::Unpacked, 0x95a1a8e8befd239eull},
        {AppKind::Thumbnail, Variant::BareClosure, 0x0af678b172d2d72aull},
        {AppKind::Thumbnail, Variant::Unpacked, 0xd14d67d19fb92af9ull},
    };
    for (const Pin &pin : kPins) {
        const bool bare = pin.variant == Variant::BareClosure;
        SCOPED_TRACE(testing::Message()
                     << harness::appName(pin.app)
                     << (bare ? " bare closure" : " unpacked"));
        harness::TestbedOptions opts;
        opts.app = pin.app;
        if (bare)
            opts.beehive.closure_klass_coverage = 0.0;
        else
            opts.beehive.packageable_enabled = false;
        core::FunctionStats fn;
        const uint64_t got = offloadedInvocationsHash(opts, &fn);
        EXPECT_EQ(got, pin.hash) << std::hex << "0x" << got;
        // A bare closure fetches more code than each shadow's one
        // fetch in the pins above.
        if (bare)
            EXPECT_GT(fn.code_fetches, 1u);
        else
            EXPECT_GT(fn.native_fallbacks, 0u);
    }
}

TEST(PinnedCost, AllocationFaultsAndANativeFallbackOnAFunction)
{
    // main(recv) allocates an instance, an array and a byte object,
    // each of a klass its function has not loaded, then calls a
    // hidden-state native on its unpacked receiver, on an endpoint
    // that checks remote references: each allocation faults once and
    // the native falls back once. Every suspension is hashed, at a
    // quantum of one instruction and of a thousand. Recorded before
    // the static passes shared one dataflow engine.
    Program program;
    const KlassId k = addKlass(program, "Method");
    const KlassId lazy_k = addKlass(program, "Lazy");
    const KlassId arr_k = addKlass(program, "Lazy[]");
    const KlassId bytes_k = addKlass(program, "Bytes");
    NativeRegistry natives;
    const MethodId invoke = addNative(program, natives, k, "Method.invoke0",
                                      NativeCategory::HiddenState, 2,
                                      invoke0);
    CodeBuilder b(program, k, "main", 1);
    b.newObj(lazy_k).popv().pushI(3).newArr(arr_k).popv();
    b.pushStr("payload").popv();
    b.pushI(5).load(0).pushI(4).call(invoke).add().ret();
    const MethodId main = b.build();

    struct Pin
    {
        int instrs;
        uint64_t hash;
    };
    constexpr Pin kPins[] = {{1, 0xc5322b380df7912eull},
                             {1000, 0x2b21a8933e072cd5ull}};
    for (const Pin &pin : kPins) {
        SCOPED_TRACE(testing::Message() << "quantum " << pin.instrs);
        VmConfig cfg = idiomConfig(pin.instrs);
        cfg.check_remote_refs = true;
        cfg.bytes_klass = bytes_k;
        Heap heap(program, 1 << 16, 1 << 20);
        VmContext ctx(program, natives, heap, cfg);
        ctx.loadKlass(k);
        const Ref recv = heap.allocPlain(k);
        Interpreter interp(ctx);
        interp.start(main, {Value::ofRef(recv)});
        quickentest::Fnv1a hash;
        std::vector<KlassId> faults;
        int fallbacks = 0;
        Suspend s;
        do {
            s = interp.run();
            quickentest::hashSuspension(hash, interp, s);
            if (s.kind == Suspend::Kind::ClassFault) {
                faults.push_back(s.klass);
                ctx.loadKlass(s.klass);
            } else if (s.kind == Suspend::Kind::NativeFallback) {
                ++fallbacks;
                ctx.forceNextNativeLocal();
            } else {
                ASSERT_TRUE(s.kind == Suspend::Kind::Quantum ||
                            s.kind == Suspend::Kind::Done)
                    << static_cast<int>(s.kind);
            }
        } while (s.kind != Suspend::Kind::Done);
        EXPECT_EQ(s.result.asInt(), 45);
        EXPECT_EQ(faults, (std::vector<KlassId>{lazy_k, arr_k, bytes_k}));
        EXPECT_EQ(fallbacks, 1);
        EXPECT_EQ(hash.value(), pin.hash)
            << std::hex << "0x" << hash.value();
    }
}

/**
 * Every RootProfile the profiling phase leaves for @p app's
 * candidates, and the roots Testbed::runProfilingPhase() selects from
 * them, hashed: invocations, the bits of the total cost, the klasses,
 * the statics and the monitor enters.
 */
uint64_t
profilingPhaseHash(harness::AppKind app)
{
    harness::TestbedOptions opts;
    opts.app = app;
    harness::Testbed bed(opts);
    EXPECT_TRUE(bed.runProfilingPhase());
    const Profiler &prof = bed.server().profiler();
    quickentest::Fnv1a hash;
    for (MethodId root : prof.candidates()) {
        hash.add(root);
        const RootProfile *p = prof.profile(root);
        if (!p) {
            hash.add(~uint64_t{0});
            continue;
        }
        hash.add(p->invocations);
        uint64_t cost_bits;
        std::memcpy(&cost_bits, &p->total_cost_ns, sizeof cost_bits);
        hash.add(cost_bits);
        hash.add(p->klasses.size());
        for (KlassId k : p->klasses)
            hash.add(k);
        hash.add(p->statics.size());
        for (const auto &[k, slot] : p->statics)
            hash.add(uint64_t{k} << 32 | slot);
        hash.add(p->monitor_enters);
    }
    for (MethodId root : prof.selectRoots(5e6, 1e6))
        hash.add(root);
    return hash.value();
}

TEST(PinnedProfile, ProfilingPhaseRecordsTheSameSets)
{
    // Recorded from the build whose recording inserted every klass
    // and static into std::sets as it ran; the flat marks must feed
    // the profiler the same sets, costs and counts.
    using harness::AppKind;
    struct Pin
    {
        AppKind app;
        uint64_t hash;
    };
    constexpr Pin kPins[] = {
        {AppKind::Blog, 0x82a6a5fdd46607faull},
        {AppKind::Pybbs, 0xa263b347799fbccdull},
        {AppKind::Thumbnail, 0x85345a989746375eull},
    };
    for (const Pin &pin : kPins) {
        SCOPED_TRACE(harness::appName(pin.app));
        const uint64_t got = profilingPhaseHash(pin.app);
        EXPECT_EQ(got, pin.hash) << std::hex << "0x" << got;
    }
}

} // namespace
} // namespace beehive::vm
