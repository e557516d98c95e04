/**
 * @file
 * Randomized program fuzzing.
 *
 * A seeded generator emits random (but well-formed) bytecode that
 * mixes arithmetic, object allocation, field traffic, and object
 * graph rewiring. Two invariants are checked across many seeds:
 *
 *   1. Determinism: two fresh VMs produce identical results.
 *   2. GC transparency: a VM with a deliberately tiny allocation
 *      space -- forcing many copying collections mid-program --
 *      produces exactly the same result as one that never collects.
 *
 * A second generator emits *raw instruction streams* -- plausible
 * chunks spliced with outright garbage -- and uses the bytecode
 * verifier (strict typing) as a crash oracle:
 *
 *   3. Any program the verifier accepts runs in the interpreter
 *      without crashing (the interpreter's asserts abort the
 *      process, so a soundness hole fails the suite loudly).
 *      Rejected programs are never executed.
 *
 * Both generators' programs also run against their quickened twins
 * (vm/quicken.h) in lockstep: the same suspensions, costs, counts
 * and frames after every run().
 */

#include <gtest/gtest.h>

#include "fuzz_support.h"
#include "gc/collector.h"
#include "quicken_support.h"
#include "support/rng.h"
#include "vm/analysis.h"
#include "vm/code_builder.h"
#include "vm/context.h"
#include "vm/heap.h"
#include "vm/interpreter.h"
#include "vm/program.h"
#include "vm/quicken.h"
#include "vm/verifier.h"

namespace beehive::vm {
namespace {

using fuzztest::generateProgram;

/** Run to completion on a heap of the given size; GC on demand. */
int64_t
execute(Program &program, MethodId entry, KlassId array_k,
        std::size_t alloc_bytes, uint64_t *gcs_out)
{
    NativeRegistry natives;
    Heap heap(program, 1 << 16, alloc_bytes);
    VmConfig cfg;
    cfg.array_klass = array_k;
    VmContext ctx(program, natives, heap, cfg);
    ctx.loadAll();
    gc::SemiSpaceCollector collector(heap);
    Interpreter interp(ctx);
    collector.addValueRoots(
        [&](const auto &visit) { interp.forEachRoot(visit); });

    interp.start(entry, {});
    while (true) {
        Suspend s = interp.run();
        switch (s.kind) {
          case Suspend::Kind::Done:
            if (gcs_out)
                *gcs_out = collector.totals().collections;
            return s.result.asInt();
          case Suspend::Kind::Quantum:
            continue;
          case Suspend::Kind::HeapFull:
            collector.collect();
            continue;
          default:
            ADD_FAILURE() << "unexpected suspension "
                          << static_cast<int>(s.kind);
            return INT64_MIN;
        }
    }
}

class FuzzProperty : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(FuzzProperty, DeterministicAndGcTransparent)
{
    Program program;
    Klass obj;
    obj.name = "Object";
    KlassId object_k = program.addKlass(obj);
    Klass node;
    node.name = "Node";
    node.fields = {"next", "payload"};
    KlassId node_k = program.addKlass(node);

    MethodId entry =
        generateProgram(program, object_k, node_k, GetParam());

    // Plenty of heap: zero collections expected.
    uint64_t gcs_big = 0;
    int64_t big = execute(program, entry, object_k, 1 << 20,
                          &gcs_big);
    EXPECT_EQ(gcs_big, 0u);

    // Determinism.
    int64_t big2 = execute(program, entry, object_k, 1 << 20,
                           nullptr);
    EXPECT_EQ(big, big2);

    // Tiny heap: many collections, same answer.
    uint64_t gcs_small = 0;
    int64_t small = execute(program, entry, object_k, 2048,
                            &gcs_small);
    EXPECT_GT(gcs_small, 0u) << "seed " << GetParam();
    EXPECT_EQ(big, small) << "GC changed program behaviour, seed "
                          << GetParam();
}

TEST_P(FuzzProperty, QuickenedTwinAgrees)
{
    Program program;
    Klass obj;
    obj.name = "Object";
    KlassId object_k = program.addKlass(obj);
    Klass node;
    node.name = "Node";
    node.fields = {"next", "payload"};
    KlassId node_k = program.addKlass(node);
    MethodId entry =
        generateProgram(program, object_k, node_k, GetParam());

    VmConfig cfg;
    cfg.array_klass = object_k;
    cfg.quantum_ns = 37.0; // a suspension every few instructions
    quickentest::Twins twins(program, cfg);
    std::vector<quickentest::Seen> seen = twins.run(entry, {});
    ASSERT_FALSE(seen.empty());
    EXPECT_EQ(seen.back().kind, Suspend::Kind::Done)
        << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzProperty,
                         ::testing::Range<uint64_t>(1, 33));

TEST_P(FuzzProperty, StaticCaptureCoversDynamicReads)
{
    // 4. Capture soundness: every (klass, field) pair and every
    //    static the interpreter actually reads must be inside the
    //    static capture set the escape analysis computed for the
    //    entry: the analysis promises a superset of the reads.
    Program program;
    Klass obj;
    obj.name = "Object";
    KlassId object_k = program.addKlass(obj);
    Klass node;
    node.name = "Node";
    node.fields = {"next", "payload"};
    KlassId node_k = program.addKlass(node);
    MethodId entry =
        generateProgram(program, object_k, node_k, GetParam());

    CaptureSet capture =
        ProgramAnalysis(program).captureForRoot(entry);

    NativeRegistry natives;
    Heap heap(program, 1 << 16, 1 << 20);
    VmConfig cfg;
    cfg.array_klass = object_k;
    VmContext ctx(program, natives, heap, cfg);
    ctx.loadAll();
    gc::SemiSpaceCollector collector(heap);
    Interpreter interp(ctx);
    collector.addValueRoots(
        [&](const auto &visit) { interp.forEachRoot(visit); });
    interp.enableRecording(true, /*field_reads=*/true);

    interp.start(entry, {});
    while (true) {
        Suspend s = interp.run();
        if (s.kind == Suspend::Kind::Done)
            break;
        if (s.kind == Suspend::Kind::Quantum)
            continue;
        if (s.kind == Suspend::Kind::HeapFull) {
            collector.collect();
            continue;
        }
        FAIL() << "unexpected suspension "
               << static_cast<int>(s.kind);
    }

    for (const auto &[klass, index] : interp.recordedFieldReads())
        EXPECT_TRUE(capture.containsField(klass, index))
            << "dynamic read of klass " << klass << " field "
            << index << " outside the static capture, seed "
            << GetParam();
    if (!capture.all_fields) {
        for (const auto &s : interp.recordedStatics())
            EXPECT_TRUE(capture.statics.count(s))
                << "dynamic static access outside the capture, "
                << "seed " << GetParam();
    }
}

// -------------------------------------------------------------------
// Verifier as crash oracle over raw instruction streams.
// -------------------------------------------------------------------

constexpr uint16_t kStreamLocals = 4;

/**
 * Append a random instruction stream to @p code: mostly well-typed
 * chunks (each stack-neutral), occasionally raw garbage with wild
 * operands. @p node_k has 2 fields and 2 statics; @p str0 is a
 * valid string-pool index.
 */
void
emitRandomStream(Rng &rng, std::vector<Instr> &code, KlassId node_k,
                 uint32_t str0)
{
    auto ins = [&](Op op, int64_t a = 0, int64_t b = 0) {
        code.push_back(Instr{op, a, b});
    };

    const int chunks = static_cast<int>(rng.uniformInt(2, 10));
    for (int c = 0; c < chunks; ++c) {
        if (rng.chance(0.12)) {
            // Garbage: any opcode, wild operands. Most of these make
            // the verifier reject the whole program.
            int n = static_cast<int>(rng.uniformInt(1, 3));
            for (int i = 0; i < n; ++i)
                ins(static_cast<Op>(
                        rng.uniformInt(0, static_cast<int64_t>(
                                              Op::Compute))),
                    rng.uniformInt(-3, 40), rng.uniformInt(-2, 8));
            continue;
        }
        switch (rng.uniformInt(0, 9)) {
          case 0: // int into a local
            ins(Op::PushI, rng.uniformInt(-99, 99));
            ins(Op::Store, rng.uniformInt(0, kStreamLocals - 1));
            break;
          case 1: // arithmetic over locals of unknown kind
            ins(Op::Load, rng.uniformInt(0, kStreamLocals - 1));
            ins(Op::Load, rng.uniformInt(0, kStreamLocals - 1));
            ins(rng.chance(0.5) ? Op::Add
                                : (rng.chance(0.5) ? Op::Mul
                                                   : Op::Div));
            ins(Op::Store, rng.uniformInt(0, kStreamLocals - 1));
            break;
          case 2: // field round trip on a fresh object
            ins(Op::New, node_k);
            ins(Op::PushI, rng.uniformInt(0, 9));
            ins(Op::PutField, rng.uniformInt(0, 1));
            break;
          case 3: // field load
            ins(Op::New, node_k);
            ins(Op::GetField, rng.uniformInt(0, 1));
            ins(Op::Pop);
            break;
          case 4: { // array element access with provable bounds
            int64_t len = rng.uniformInt(1, 16);
            ins(Op::PushI, len);
            ins(Op::NewArr, node_k);
            ins(Op::PushI, rng.uniformInt(0, len - 1));
            ins(Op::ALoad);
            ins(Op::Pop);
            break;
          }
          case 5: // bytes + length
            ins(Op::NewBytes, str0);
            ins(Op::BytesLen);
            ins(Op::Store, rng.uniformInt(0, kStreamLocals - 1));
            break;
          case 6: // statics traffic
            ins(Op::PushI, rng.uniformInt(0, 99));
            ins(Op::PutStatic, node_k, rng.uniformInt(0, 1));
            ins(Op::GetStatic, node_k, rng.uniformInt(0, 1));
            ins(Op::Pop);
            break;
          case 7: // balanced monitor pair (depth-wise)
            ins(Op::New, node_k);
            ins(Op::MonitorEnter);
            ins(Op::New, node_k);
            ins(Op::MonitorExit);
            break;
          case 8: { // bounded countdown loop (backward jump, merge)
            int64_t s = rng.uniformInt(0, kStreamLocals - 1);
            ins(Op::PushI, rng.uniformInt(1, 5));
            ins(Op::Store, s);
            int64_t top = static_cast<int64_t>(code.size());
            ins(Op::Load, s);
            ins(Op::Jz, top + 6); // -> first instr after the Jmp
            ins(Op::Load, s);
            ins(Op::PushI, 1);
            ins(Op::Sub);
            ins(Op::Store, s);
            code.push_back(Instr{Op::Jmp, top, 0});
            break;
          }
          default: // modelled compute + stack shuffling
            ins(Op::PushI, rng.uniformInt(0, 5));
            ins(Op::Dup);
            ins(Op::Swap);
            ins(Op::Pop);
            ins(Op::Pop);
            ins(Op::Compute, rng.uniformInt(0, 200));
            break;
        }
    }

    if (rng.chance(0.85)) {
        ins(Op::PushI, 7);
        ins(Op::Ret);
    }
    // else: fall off the end -- a rejection the oracle must catch.
}

/**
 * Build the stream of @p seed into an empty @p program: a Node klass
 * (returned in @p node_k) and one method, `stream`, over
 * kStreamLocals locals.
 *
 * @return The stream's method, or kNoMethod when the strict verifier
 *         rejects the program.
 */
MethodId
buildStream(uint64_t seed, Program &program, KlassId &node_k)
{
    Rng rng(seed * 0x9E3779B97F4A7C15ull);
    Klass node;
    node.name = "Node";
    node.fields = {"next", "payload"};
    node.statics = {"a", "b"};
    node_k = program.addKlass(node);
    uint32_t str0 = program.internString("fuzz");
    Method m;
    m.name = "stream";
    m.num_locals = kStreamLocals;
    emitRandomStream(rng, m.code, node_k, str0);
    MethodId entry = program.addMethod(node_k, m);
    VerifyOptions options;
    options.strict_types = true;
    return Verifier(program, options).verifyAll().ok() ? entry : kNoMethod;
}

/**
 * Run an oracle-accepted program under a budget. Nontermination and
 * heap exhaustion are allowed (the oracle only promises "no crash"),
 * so the run is abandoned once the budget is spent.
 */
void
executeBudgeted(Program &program, MethodId entry, KlassId node_k)
{
    NativeRegistry natives;
    Heap heap(program, 1 << 16, 1 << 20);
    VmConfig cfg;
    cfg.quantum_ns = 2000.0; // ~1k instructions per quantum
    cfg.bytes_klass = node_k;
    cfg.array_klass = node_k;
    VmContext ctx(program, natives, heap, cfg);
    ctx.loadAll();
    gc::SemiSpaceCollector collector(heap);
    Interpreter interp(ctx);
    collector.addValueRoots(
        [&](const auto &visit) { interp.forEachRoot(visit); });

    interp.start(entry, {});
    int heap_fulls = 0;
    for (int budget = 0; budget < 64; ++budget) {
        Suspend s = interp.run();
        switch (s.kind) {
          case Suspend::Kind::Done:
            return;
          case Suspend::Kind::Quantum:
            continue;
          case Suspend::Kind::HeapFull:
            if (++heap_fulls > 8)
                return; // live set does not fit; not a crash
            collector.collect();
            continue;
          default:
            ADD_FAILURE() << "verified program suspended with "
                          << static_cast<int>(s.kind);
            return;
        }
    }
}

TEST(VerifierOracle, AcceptedStreamsExecuteWithoutCrashing)
{
    int accepted = 0;
    int rejected = 0;
    constexpr uint64_t kPrograms = 10000;

    for (uint64_t seed = 1; seed <= kPrograms; ++seed) {
        Program program;
        KlassId node_k = kNoKlass;
        MethodId entry = buildStream(seed, program, node_k);
        if (entry == kNoMethod) {
            ++rejected; // rejected programs are never executed
            continue;
        }
        ++accepted;
        executeBudgeted(program, entry, node_k);
    }

    // The oracle is only meaningful when both populations are big.
    EXPECT_GT(accepted, 1000) << "generator too hostile";
    EXPECT_GT(rejected, 1000) << "generator too tame";
}

TEST(VerifierOracle, AcceptedStreamsRunLikeTheirQuickenedTwins)
{
    // The countdown chunk is a load/pushI/sub/store idiom and random
    // chunks splice others, so accepted streams carry fused heads;
    // each must run like its unquickened twin while its budget lasts.
    int quickened = 0;
    for (uint64_t seed = 1; seed <= 3000; ++seed) {
        Program program;
        KlassId node_k = kNoKlass;
        MethodId entry = buildStream(seed, program, node_k);
        if (entry == kNoMethod)
            continue;

        VmConfig cfg;
        cfg.quantum_ns = 41.0;
        cfg.bytes_klass = node_k;
        cfg.array_klass = node_k;
        quickentest::Twins twins(program, cfg);
        if (twins.heads() == 0)
            continue;
        ++quickened;
        twins.run(entry, {}, {}, /*max_runs=*/64);
        if (::testing::Test::HasFailure()) {
            ADD_FAILURE() << "seed " << seed;
            return;
        }
    }
    EXPECT_GT(quickened, 200);
}

TEST(VerifierOracle, AcceptedStreamsChargeLikeTheExactLoop)
{
    // Every suspension of every accepted stream among seeds 1-3000,
    // plain and quickened, hashed in seed order while a 64-run budget
    // lasts. Recorded from the dispatch loop that charged every
    // instruction through the member accumulators one at a time; the
    // instruction cost is not a binary fraction, so grouping two
    // charges into one add changes the cost bits as well as the
    // quantum boundaries.
    constexpr uint64_t kPinned = 0xa82e86207432d509ull;
    quickentest::Fnv1a hash;
    int accepted = 0;
    for (uint64_t seed = 1; seed <= 3000; ++seed) {
        Program program;
        KlassId node_k = kNoKlass;
        MethodId entry = buildStream(seed, program, node_k);
        if (entry == kNoMethod)
            continue;
        ++accepted;

        Program quick = program;
        quicken(quick);
        VmConfig cfg;
        cfg.instr_cost_ns = 1.1;
        cfg.quantum_ns = 41.0;
        cfg.bytes_klass = node_k;
        cfg.array_klass = node_k;
        NativeRegistry natives;
        for (const Program *p : {&program, &quick}) {
            quickentest::TwinVm vm(*p, natives, cfg, 1 << 20);
            vm.interp.start(entry, {});
            for (int budget = 0; budget < 64; ++budget) {
                Suspend s = vm.interp.run();
                quickentest::hashSuspension(hash, vm.interp, s);
                if (s.kind != Suspend::Kind::Quantum)
                    break;
            }
        }
    }
    EXPECT_GT(accepted, 1000);
    EXPECT_EQ(hash.value(), kPinned) << std::hex << "0x" << hash.value();
}

} // namespace
} // namespace beehive::vm
