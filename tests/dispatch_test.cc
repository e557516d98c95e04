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
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fuzz_support.h"
#include "harness/testbed.h"
#include "support/rng.h"
#include "vm/code_builder.h"
#include "vm/context.h"
#include "vm/interpreter.h"
#include "vm/program.h"

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

} // namespace
} // namespace beehive::vm
