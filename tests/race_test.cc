/**
 * @file
 * Tests for the race-detection pair: the interprocedural lockset
 * analysis (vm/race_analysis.h), the dynamic vector-clock oracle
 * (vm/race_oracle.h), and the cross-check between them -- every race
 * the oracle observes on a generated lock-discipline program must be
 * statically reported (soundness), and static findings the oracle
 * never confirms bound the false-positive rate.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <set>

#include "fuzz_support.h"
#include "vm/analysis.h"
#include "vm/code_builder.h"
#include "vm/context.h"
#include "vm/heap.h"
#include "vm/interpreter.h"
#include "vm/natives.h"
#include "vm/offload_analysis.h"
#include "vm/program.h"
#include "vm/race_analysis.h"
#include "vm/race_oracle.h"

namespace beehive::vm {
namespace {

// ---------------------------------------------------------------------
// Static lockset analysis
// ---------------------------------------------------------------------

/** Fixture with one shared klass: fields + static slots for locks. */
class RaceAnalysisTest : public ::testing::Test
{
  protected:
    RaceAnalysisTest()
    {
        Klass box;
        box.name = "Box";
        box.fields = {"val"};
        // Slot 0: a published Box; slots 1/2: lock objects. The
        // type hints make Box reachable from a static root, so
        // instance scopes on Box count as shared.
        box.statics = {"shared", "lock", "lock2"};
        box_k = program.addKlass(box);
        program.hintStatic(box_k, 0, box_k);
        program.hintStatic(box_k, 1, box_k);
        program.hintStatic(box_k, 2, box_k);
    }

    GuardState
    stateOf(const RaceAnalysis &ra, const RaceScope &scope)
    {
        for (const ScopeReport &r : ra.scopes())
            if (r.scope == scope)
                return r.state;
        ADD_FAILURE() << "scope not classified";
        return GuardState::ThreadLocal;
    }

    static RaceScope
    fieldScope(KlassId k, uint32_t slot)
    {
        return RaceScope{AccessRecord::Scope::Field, k, slot};
    }

    static LockToken
    staticLock(KlassId k, uint32_t slot)
    {
        LockToken t;
        t.kind = LockToken::Kind::StaticSlot;
        t.klass = k;
        t.slot = slot;
        return t;
    }

    Program program;
    KlassId box_k;
};

TEST_F(RaceAnalysisTest, UnguardedSharedWriteIsAFinding)
{
    CodeBuilder b(program, box_k, "bare", 0);
    b.getStatic(box_k, 0).pushI(7).putField(0).pushNil().ret();
    b.build();

    ProgramAnalysis pa(program);
    RaceAnalysis ra(program, pa);
    RaceScope scope = fieldScope(box_k, 0);
    EXPECT_EQ(stateOf(ra, scope), GuardState::Unguarded);
    ASSERT_EQ(ra.findings().size(), 1u);
    EXPECT_EQ(ra.findings()[0].scope, scope);
    EXPECT_TRUE(ra.reportedAt(scope));
}

TEST_F(RaceAnalysisTest, ConsistentGuardIsClean)
{
    CodeBuilder b(program, box_k, "locked", 0);
    b.getStatic(box_k, 1).monitorEnter()
     .getStatic(box_k, 0).pushI(7).putField(0)
     .getStatic(box_k, 1).monitorExit()
     .pushNil().ret();
    b.build();

    ProgramAnalysis pa(program);
    RaceAnalysis ra(program, pa);
    RaceScope scope = fieldScope(box_k, 0);
    EXPECT_EQ(stateOf(ra, scope), GuardState::ConsistentlyGuarded);
    EXPECT_TRUE(ra.findings().empty());
    EXPECT_FALSE(ra.reportedAt(scope));
}

TEST_F(RaceAnalysisTest, InconsistentLocksRaceAcrossMethods)
{
    CodeBuilder a(program, box_k, "under_lock1", 0);
    a.getStatic(box_k, 1).monitorEnter()
     .getStatic(box_k, 0).pushI(1).putField(0)
     .getStatic(box_k, 1).monitorExit()
     .pushNil().ret();
    a.build();
    CodeBuilder b(program, box_k, "under_lock2", 0);
    b.getStatic(box_k, 2).monitorEnter()
     .getStatic(box_k, 0).pushI(2).putField(0)
     .getStatic(box_k, 2).monitorExit()
     .pushNil().ret();
    b.build();

    ProgramAnalysis pa(program);
    RaceAnalysis ra(program, pa);
    RaceScope scope = fieldScope(box_k, 0);
    // Candidate lockset = {lock} ∩ {lock2} = ∅ on a written scope.
    EXPECT_EQ(stateOf(ra, scope), GuardState::Unguarded);
    EXPECT_TRUE(ra.reportedAt(scope));
}

TEST_F(RaceAnalysisTest, ContextLocksetCoversCallees)
{
    // The helper writes bare; every caller holds the same lock, so
    // the interprocedural context lockset keeps the scope guarded.
    CodeBuilder h(program, box_k, "helper", 0);
    h.getStatic(box_k, 0).pushI(7).putField(0).pushNil().ret();
    MethodId helper = h.build();

    CodeBuilder c(program, box_k, "caller", 0);
    c.getStatic(box_k, 1).monitorEnter()
     .call(helper).popv()
     .getStatic(box_k, 1).monitorExit()
     .pushNil().ret();
    c.build();

    ProgramAnalysis pa(program);
    RaceAnalysis ra(program, pa);
    const std::vector<LockToken> &ctx = ra.contextLockset(helper);
    ASSERT_EQ(ctx.size(), 1u);
    EXPECT_EQ(ctx[0], staticLock(box_k, 1));
    EXPECT_EQ(stateOf(ra, fieldScope(box_k, 0)),
              GuardState::ConsistentlyGuarded);

    // A second entry calling the helper without the lock empties
    // the intersection: the same write becomes a race.
    CodeBuilder d(program, box_k, "bare_caller", 0);
    d.call(helper).popv().pushNil().ret();
    d.build();
    ProgramAnalysis pa2(program);
    RaceAnalysis ra2(program, pa2);
    EXPECT_TRUE(ra2.contextLockset(helper).empty());
    EXPECT_EQ(stateOf(ra2, fieldScope(box_k, 0)),
              GuardState::Unguarded);
}

TEST_F(RaceAnalysisTest, FreshReceiverIsThreadLocal)
{
    CodeBuilder b(program, box_k, "fresh", 0);
    b.locals(1);
    b.newObj(box_k).store(0)
     .load(0).pushI(7).putField(0)
     .load(0).getField(0).ret();
    b.build();

    ProgramAnalysis pa(program);
    RaceAnalysis ra(program, pa);
    // Box is a shared klass (static hints), but every access goes
    // through a provably fresh receiver.
    EXPECT_EQ(stateOf(ra, fieldScope(box_k, 0)),
              GuardState::ThreadLocal);
    EXPECT_TRUE(ra.findings().empty());
}

TEST_F(RaceAnalysisTest, ReadOnlySharedScopeIsNotAFinding)
{
    CodeBuilder b(program, box_k, "reader", 0);
    b.getStatic(box_k, 0).getField(0).ret();
    b.build();

    ProgramAnalysis pa(program);
    RaceAnalysis ra(program, pa);
    EXPECT_EQ(stateOf(ra, fieldScope(box_k, 0)),
              GuardState::ReadShared);
    EXPECT_TRUE(ra.findings().empty());
}

TEST_F(RaceAnalysisTest, UnknownLockIdentityWarnsWithoutError)
{
    // Locking an argument: the monitor is real but its identity is
    // lost, so the scope lands in GuardedByUnknown -- reported to
    // the cross-check, but not an Unguarded finding.
    CodeBuilder b(program, box_k, "arg_lock", 1);
    b.load(0).monitorEnter()
     .getStatic(box_k, 0).pushI(7).putField(0)
     .load(0).monitorExit()
     .pushNil().ret();
    b.build();

    ProgramAnalysis pa(program);
    RaceAnalysis ra(program, pa);
    RaceScope scope = fieldScope(box_k, 0);
    EXPECT_EQ(stateOf(ra, scope), GuardState::GuardedByUnknown);
    EXPECT_TRUE(ra.findings().empty());
    EXPECT_TRUE(ra.reportedAt(scope));
}

TEST_F(RaceAnalysisTest, ReadOnlyLockIsVacuous)
{
    // The handler locks around reads only: the monitor protects no
    // mutable shared state anywhere in the program, so the race
    // detector proves it vacuous. Offload admission does not use
    // that: the root still needs the monitor fallback.
    CodeBuilder b(program, box_k, "read_handler", 0);
    b.getStatic(box_k, 1).monitorEnter()
     .getStatic(box_k, 0).getField(0)
     .getStatic(box_k, 1).monitorExit()
     .ret();
    MethodId root = b.build();

    ProgramAnalysis pa(program);
    RaceAnalysis ra(program, pa);
    EXPECT_EQ(ra.vacuousLocks().count(staticLock(box_k, 1)), 1u);

    OffloadAnalysis plain(program);
    EXPECT_EQ(plain.classifyRoot(root).klass,
              OffloadClass::NeedsFallback);
}

TEST_F(RaceAnalysisTest, SharedWriteForfeitsVacuousness)
{
    CodeBuilder b(program, box_k, "write_handler", 0);
    b.getStatic(box_k, 1).monitorEnter()
     .getStatic(box_k, 0).pushI(7).putField(0)
     .getStatic(box_k, 1).monitorExit()
     .pushNil().ret();
    MethodId root = b.build();

    ProgramAnalysis pa(program);
    RaceAnalysis ra(program, pa);
    EXPECT_EQ(ra.vacuousLocks().count(staticLock(box_k, 1)), 0u);
    OffloadAnalysis plain(program);
    EXPECT_EQ(plain.classifyRoot(root).klass,
              OffloadClass::NeedsFallback);
}

// ---------------------------------------------------------------------
// Dynamic oracle (direct API)
// ---------------------------------------------------------------------

TEST(RaceOracleTest, UnorderedWritesRace)
{
    Program program;
    Klass box;
    box.name = "Box";
    box.fields = {"val"};
    KlassId box_k = program.addKlass(box);

    RaceOracle o(program);
    int t0 = o.newThread();
    int t1 = o.newThread();
    Ref obj = makeRef(0, 0x100);
    o.fieldAccess(t0, obj, box_k, 0, /*is_write=*/true);
    o.fieldAccess(t1, obj, box_k, 0, /*is_write=*/true);
    RaceScope scope{AccessRecord::Scope::Field, box_k, 0};
    EXPECT_EQ(o.races().count(scope), 1u);
    EXPECT_FALSE(o.reports().empty());
}

TEST(RaceOracleTest, MonitorOrderingSuppressesRace)
{
    Program program;
    Klass box;
    box.name = "Box";
    box.fields = {"val"};
    KlassId box_k = program.addKlass(box);

    RaceOracle o(program);
    int t0 = o.newThread();
    int t1 = o.newThread();
    Ref obj = makeRef(0, 0x100);
    Ref lock = makeRef(0, 0x200);
    o.acquire(t0, lock);
    o.fieldAccess(t0, obj, box_k, 0, true);
    o.release(t0, lock);
    o.acquire(t1, lock);
    o.fieldAccess(t1, obj, box_k, 0, true);
    o.release(t1, lock);
    EXPECT_TRUE(o.races().empty());
}

TEST(RaceOracleTest, ForkEdgeOrdersParentInitialization)
{
    Program program;
    Klass box;
    box.name = "Box";
    box.fields = {"val"};
    KlassId box_k = program.addKlass(box);

    RaceOracle o(program);
    int parent = o.newThread();
    Ref obj = makeRef(0, 0x100);
    o.fieldAccess(parent, obj, box_k, 0, true);
    int child = o.newThread(parent);
    o.fieldAccess(child, obj, box_k, 0, true); // ordered: no race
    EXPECT_TRUE(o.races().empty());

    int stranger = o.newThread(); // no fork edge
    o.fieldAccess(stranger, obj, box_k, 0, true);
    EXPECT_EQ(o.races().size(), 1u);
}

TEST(RaceOracleTest, VolatileHandshakeOrdersPlainAccesses)
{
    Program program;
    Klass box;
    box.name = "Box";
    box.fields = {"data", "flag"};
    KlassId box_k = program.addKlass(box);

    RaceOracle o(program);
    int t0 = o.newThread();
    int t1 = o.newThread();
    Ref obj = makeRef(0, 0x100);
    o.fieldAccess(t0, obj, box_k, 0, true);       // plain write
    o.volatileAccess(t0, obj, box_k, 1, true);    // release
    o.volatileAccess(t1, obj, box_k, 1, false);   // acquire
    o.fieldAccess(t1, obj, box_k, 0, true);       // ordered now
    EXPECT_TRUE(o.races().empty());
}

// ---------------------------------------------------------------------
// Two interpreters, one heap: the blocking round-robin driver
// ---------------------------------------------------------------------

/**
 * Run setup on a parent context, then interleave the two workers
 * with real mutual exclusion: a MonitorPolicy that always suspends
 * routes every monitor operation through this driver, which grants
 * acquisitions only while no other interpreter holds the object.
 */
void
runRaceProgram(Program &program, const fuzztest::RaceProgram &rp,
               RaceOracle &oracle, uint64_t seed)
{
    NativeRegistry natives;
    Heap heap(program, 1 << 22, 1 << 22);
    VmConfig cfg;
    // A tiny quantum forces context switches every few bytecodes;
    // vary it by seed for interleaving diversity.
    cfg.quantum_ns = 30.0 + static_cast<double>(seed % 7) * 40.0;
    VmContext ctx(program, natives, heap, cfg);
    ctx.loadAll();
    ctx.setRaceOracle(&oracle);

    int parent_tid = -1;
    {
        Interpreter setup(ctx);
        setup.start(rp.setup, {});
        for (;;) {
            Suspend s = setup.run();
            if (s.kind == Suspend::Kind::Done)
                break;
            ASSERT_EQ(s.kind, Suspend::Kind::Quantum);
        }
        parent_tid = setup.raceTid();
    }
    ASSERT_GE(parent_tid, 0);

    ctx.setMonitorPolicy([](Ref) { return true; });

    Interpreter w0(ctx), w1(ctx);
    w0.setRaceTid(oracle.newThread(parent_tid));
    w1.setRaceTid(oracle.newThread(parent_tid));
    w0.start(rp.worker[0], {});
    w1.start(rp.worker[1], {});

    Interpreter *interp[2] = {&w0, &w1};
    std::set<Ref> held[2];
    Ref blocked_on[2] = {kNullRef, kNullRef};
    bool done[2] = {false, false};
    int cur = static_cast<int>(seed % 2);
    for (uint64_t steps = 0;; ++steps) {
        ASSERT_LT(steps, 1000000u) << "driver did not terminate";
        if (done[0] && done[1])
            break;
        if (done[cur] || blocked_on[cur] != kNullRef) {
            cur ^= 1;
            ASSERT_FALSE(done[cur] || blocked_on[cur] != kNullRef)
                << "both workers blocked: deadlock";
        }
        Suspend s = interp[cur]->run();
        switch (s.kind) {
          case Suspend::Kind::Done:
            done[cur] = true;
            cur ^= 1;
            break;
          case Suspend::Kind::Quantum:
            cur ^= 1;
            break;
          case Suspend::Kind::MonitorAcquire:
            if (held[cur ^ 1].count(s.monitor_obj) != 0) {
                blocked_on[cur] = s.monitor_obj;
                cur ^= 1;
            } else {
                held[cur].insert(s.monitor_obj);
                interp[cur]->grantMonitor(s.monitor_obj);
            }
            break;
          case Suspend::Kind::MonitorRelease:
            held[cur].erase(s.monitor_obj);
            interp[cur]->grantRelease();
            if (blocked_on[cur ^ 1] == s.monitor_obj)
                blocked_on[cur ^ 1] = kNullRef;
            break;
          case Suspend::Kind::VolatileSync:
            interp[cur]->grantVolatile(s.monitor_obj);
            break;
          default:
            FAIL() << "unexpected suspend kind "
                   << static_cast<int>(s.kind);
        }
    }
}

TEST(RaceDriverTest, HandBuiltRacyProgramRacesDynamically)
{
    Program program;
    fuzztest::RaceProgram rp;
    Klass shared;
    shared.name = "RaceShared";
    shared.fields = {"a", "b", "c"};
    shared.statics = {"box0", "box1", "lock0", "lock1", "arr"};
    rp.shared_k = program.addKlass(shared);
    program.hintStatic(rp.shared_k, 0, rp.shared_k);

    CodeBuilder s(program, rp.shared_k, "setup", 0);
    s.locals(1);
    s.newObj(rp.shared_k).store(0)
     .load(0).pushI(0).putField(0)
     .load(0).putStatic(rp.shared_k, 0)
     .pushNil().ret();
    rp.setup = s.build();
    for (int w = 0; w < 2; ++w) {
        CodeBuilder b(program, rp.shared_k,
                      "worker" + std::to_string(w), 0);
        b.getStatic(rp.shared_k, 0).pushI(w).putField(0)
         .pushI(0).ret();
        rp.worker[w] = b.build();
    }

    RaceOracle oracle(program);
    runRaceProgram(program, rp, oracle, 1);
    RaceScope scope{AccessRecord::Scope::Field, rp.shared_k, 0};
    EXPECT_EQ(oracle.races().count(scope), 1u);

    // ... and the static detector reports it.
    ProgramAnalysis pa(program);
    RaceAnalysis ra(program, pa);
    EXPECT_TRUE(ra.reportedAt(scope));
}

TEST(RaceDriverTest, LockedProgramIsDynamicallyRaceFree)
{
    Program program;
    fuzztest::RaceProgram rp;
    Klass shared;
    shared.name = "RaceShared";
    shared.fields = {"a", "b", "c"};
    shared.statics = {"box0", "box1", "lock0", "lock1", "arr"};
    rp.shared_k = program.addKlass(shared);
    program.hintStatic(rp.shared_k, 0, rp.shared_k);
    program.hintStatic(rp.shared_k, 2, rp.shared_k);

    CodeBuilder s(program, rp.shared_k, "setup", 0);
    s.locals(1);
    s.newObj(rp.shared_k).store(0)
     .load(0).pushI(0).putField(0)
     .load(0).putStatic(rp.shared_k, 0)
     .newObj(rp.shared_k).putStatic(rp.shared_k, 2)
     .pushNil().ret();
    rp.setup = s.build();
    for (int w = 0; w < 2; ++w) {
        CodeBuilder b(program, rp.shared_k,
                      "worker" + std::to_string(w), 0);
        b.getStatic(rp.shared_k, 2).monitorEnter()
         .getStatic(rp.shared_k, 0).pushI(w).putField(0)
         .getStatic(rp.shared_k, 0).getField(0).popv()
         .getStatic(rp.shared_k, 2).monitorExit()
         .pushI(0).ret();
        rp.worker[w] = b.build();
    }

    RaceOracle oracle(program);
    runRaceProgram(program, rp, oracle, 2);
    RaceScope scope{AccessRecord::Scope::Field, rp.shared_k, 0};
    EXPECT_EQ(oracle.races().count(scope), 0u);
    EXPECT_GT(oracle.checks(), 0u);
}

// ---------------------------------------------------------------------
// Fuzz cross-check: dynamic oracle vs static detector
// ---------------------------------------------------------------------

TEST(RaceFuzzTest, EveryDynamicRaceIsStaticallyReported)
{
    const uint64_t kSeeds = 40; // acceptance floor is 32
    uint64_t total_dynamic = 0;
    uint64_t total_static = 0;
    uint64_t unconfirmed_static = 0;
    for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
        Program program;
        fuzztest::RaceProgram rp =
            fuzztest::generateRaceProgram(program, seed);
        RaceOracle oracle(program);
        runRaceProgram(program, rp, oracle, seed);
        if (::testing::Test::HasFatalFailure())
            return;

        ProgramAnalysis pa(program);
        RaceAnalysis ra(program, pa);
        EXPECT_FALSE(ra.incomplete()) << "seed " << seed;

        // Soundness: zero static false negatives.
        for (const RaceScope &scope : oracle.races())
            EXPECT_TRUE(ra.reportedAt(scope))
                << "seed " << seed << ": dynamic race on "
                << toString(scope, program)
                << " missed by the lockset analysis";
        total_dynamic += oracle.races().size();

        // Precision: static findings the oracle never confirmed in
        // this run (includes init-publication writes in setup, the
        // classic Eraser false-positive class).
        for (const ScopeReport &f : ra.findings()) {
            ++total_static;
            if (oracle.races().count(f.scope) == 0)
                ++unconfirmed_static;
        }
    }
    EXPECT_GT(total_dynamic, 0u) << "fuzz corpus never raced";
    EXPECT_GT(total_static, 0u);
    double fp_rate =
        total_static == 0
            ? 0.0
            : static_cast<double>(unconfirmed_static) /
                  static_cast<double>(total_static);
    std::printf("[ race-fuzz ] %llu seeds: %llu dynamic race "
                "scopes, %llu static findings, %.1f%% not confirmed "
                "dynamically (static FP upper bound)\n",
                static_cast<unsigned long long>(kSeeds),
                static_cast<unsigned long long>(total_dynamic),
                static_cast<unsigned long long>(total_static),
                100.0 * fp_rate);
}

TEST(RaceFuzzTest, FullyDisciplinedSeedHasNoDynamicRaces)
{
    // Find a seed whose generated discipline has no buggy scope:
    // the run must then be dynamically race-free end to end.
    for (uint64_t seed = 1; seed <= 400; ++seed) {
        Program program;
        fuzztest::RaceProgram rp =
            fuzztest::generateRaceProgram(program, seed);
        bool clean = true;
        for (int s = 0; s < fuzztest::kRaceScopes; ++s)
            clean = clean && !rp.buggy[s];
        if (!clean)
            continue;
        RaceOracle oracle(program);
        runRaceProgram(program, rp, oracle, seed);
        EXPECT_TRUE(oracle.races().empty())
            << "seed " << seed << " raced: "
            << (oracle.reports().empty() ? "?"
                                         : oracle.reports()[0]);
        return;
    }
    GTEST_SKIP() << "no fully disciplined seed in range";
}

} // namespace
} // namespace beehive::vm
