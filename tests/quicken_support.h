/**
 * @file
 * Lockstep differential runs of a quickened program against its
 * unquickened twin (vm/quicken.h), shared by dispatch_test and
 * fuzz_test.
 *
 * The twins are two copies of one program, the second passed through
 * vm::quicken(), each with its own heap, context and interpreter on
 * identical configurations. After every run() they must agree on the
 * Suspend, bit for bit on consumeCost(), on stats().instructions and
 * on snapshotFrames(): quickening may change host time only.
 *
 * Both twins run through the same dispatch loop, so the twins alone
 * cannot tell a change to that loop's charging. SuspensionHash pins
 * it instead: a hash over every suspension of a run, compared with
 * constants recorded from a build whose loop is known to be exact.
 */

#ifndef BEEHIVE_TESTS_QUICKEN_SUPPORT_H
#define BEEHIVE_TESTS_QUICKEN_SUPPORT_H

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "vm/context.h"
#include "vm/heap.h"
#include "vm/interpreter.h"
#include "vm/program.h"
#include "vm/quicken.h"

namespace beehive::vm::quickentest {

/** Bitwise double equality (consumeCost() must be bit-identical). */
inline bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** 64-bit FNV-1a over the little-endian bytes of 64-bit words. */
class Fnv1a
{
  public:
    void
    add(uint64_t word)
    {
        for (int i = 0; i < 8; ++i) {
            hash_ ^= (word >> (8 * i)) & 0xff;
            hash_ *= 0x100000001b3ull;
        }
    }

    uint64_t value() const { return hash_; }

  private:
    uint64_t hash_ = 0xcbf29ce484222325ull;
};

/**
 * Mix one suspension of @p interp into @p hash: its kind, the frame
 * depth, the top frame's pc and operand-stack depth, the bits of
 * consumeCost() (which this consumes) and stats().instructions.
 */
inline void
hashSuspension(Fnv1a &hash, Interpreter &interp, const Suspend &s)
{
    hash.add(static_cast<uint64_t>(s.kind));
    const std::vector<Frame> frames = interp.snapshotFrames();
    hash.add(frames.size());
    hash.add(frames.empty() ? 0 : frames.back().pc);
    hash.add(frames.empty() ? 0 : frames.back().stack.size());
    const double cost = interp.consumeCost();
    uint64_t bits;
    std::memcpy(&bits, &cost, sizeof bits);
    hash.add(bits);
    hash.add(interp.stats().instructions);
}

/** Every fused head of @p program, as (method, pc). */
inline std::vector<std::pair<MethodId, uint32_t>>
fusedHeads(const Program &program)
{
    std::vector<std::pair<MethodId, uint32_t>> heads;
    for (MethodId id = 0; id < program.methodCount(); ++id) {
        const std::vector<Instr> &code = program.method(id).code;
        for (uint32_t pc = 0; pc < code.size(); ++pc) {
            if (code[pc].op != baseOp(code[pc].op))
                heads.emplace_back(id, pc);
        }
    }
    return heads;
}

/** Constituents of the idiom a fused @p op heads, the head included. */
inline uint32_t
idiomLength(Op op)
{
    switch (op) {
      case Op::LoadNotJnz:
      case Op::LoadFieldPop:
      case Op::LoadFieldStore:
        return 3;
      case Op::LoadLeJnz:
      case Op::LoadSubStore:
        return 4;
      default:
        return 1;
    }
}

inline void
expectSameFrames(const std::vector<Frame> &a, const std::vector<Frame> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].method, b[i].method) << "frame " << i;
        EXPECT_EQ(a[i].pc, b[i].pc) << "frame " << i;
        EXPECT_TRUE(sameBits(a[i].cost_multiplier, b[i].cost_multiplier))
            << "frame " << i;
        EXPECT_EQ(a[i].locals, b[i].locals) << "frame " << i;
        EXPECT_EQ(a[i].stack, b[i].stack) << "frame " << i;
    }
}

inline void
expectSameSuspend(const Suspend &a, const Suspend &b)
{
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.result, b.result);
    EXPECT_EQ(a.klass, b.klass);
    EXPECT_EQ(a.remote_ref, b.remote_ref);
    EXPECT_EQ(a.native_id, b.native_id);
    EXPECT_EQ(a.monitor_obj, b.monitor_obj);
    EXPECT_EQ(a.volatile_write, b.volatile_write);
    EXPECT_EQ(a.offload_method, b.offload_method);
    EXPECT_EQ(a.offload_args, b.offload_args);
}

/** One VM over one program: heap, context and interpreter. */
struct TwinVm
{
    TwinVm(const Program &program, NativeRegistry &natives,
           const VmConfig &config, std::size_t alloc_bytes)
        : heap(program, 1 << 16, alloc_bytes),
          ctx(program, natives, heap, config), interp(ctx)
    {
        ctx.loadAll();
    }

    Heap heap;
    VmContext ctx;
    Interpreter interp;
};

/** A suspension of the quickened twin and its top frame's (method, pc). */
struct Seen
{
    Suspend::Kind kind = Suspend::Kind::Done;
    MethodId method = kNoMethod;
    uint32_t pc = 0;
};

/**
 * Answers a suspension other than Quantum and Done (e.g. maps a
 * remote ref after an ObjectFault) on one twin's interpreter, the
 * same way for both; returns false to stop the run.
 */
using Resolver = std::function<bool(Interpreter &, const Suspend &)>;

/**
 * Run two started interpreters in lockstep, comparing them after
 * every run(): the same Suspend, a bit-identical consumeCost(), the
 * same instruction and remote-hit counts and the same
 * snapshotFrames(). Stops at Done, at the first difference, at a
 * suspension @p resolve declines (or any, without one), or after
 * @p max_runs runs.
 *
 * @return The quickened side's suspensions, in order.
 */
inline std::vector<Seen>
lockstep(Interpreter &plain, Interpreter &quick,
         const Resolver &resolve = {}, int max_runs = 100000)
{
    std::vector<Seen> seen;
    for (int run = 0; run < max_runs; ++run) {
        Suspend a = plain.run();
        Suspend b = quick.run();
        expectSameSuspend(a, b);
        EXPECT_TRUE(sameBits(plain.consumeCost(), quick.consumeCost()));
        EXPECT_EQ(plain.stats().instructions, quick.stats().instructions);
        EXPECT_EQ(plain.stats().remote_hits, quick.stats().remote_hits);
        const std::vector<Frame> fa = plain.snapshotFrames();
        const std::vector<Frame> fb = quick.snapshotFrames();
        expectSameFrames(fa, fb);
        if (::testing::Test::HasFailure())
            break;
        Seen s;
        s.kind = b.kind;
        if (!fb.empty()) {
            s.method = fb.back().method;
            s.pc = fb.back().pc;
        }
        seen.push_back(s);
        if (b.kind == Suspend::Kind::Done)
            break;
        if (b.kind == Suspend::Kind::Quantum)
            continue;
        if (!resolve || !resolve(plain, a) || !resolve(quick, b))
            break;
    }
    return seen;
}

/** A program and its quickened copy, with one VM each. */
class Twins
{
  public:
    /** Copies @p original twice and quickens the second copy. */
    Twins(const Program &original, const VmConfig &config,
          std::size_t alloc_bytes = 1 << 20)
        : plain_(original), quick_(original)
    {
        heads_ = quicken(quick_);
        plain_vm_ = std::make_unique<TwinVm>(plain_, natives_, config,
                                             alloc_bytes);
        quick_vm_ = std::make_unique<TwinVm>(quick_, natives_, config,
                                             alloc_bytes);
    }

    TwinVm &plain() { return *plain_vm_; }
    TwinVm &quick() { return *quick_vm_; }
    const Program &quickProgram() const { return quick_; }
    /** Heads quicken() rewrote in the copy. */
    std::size_t heads() const { return heads_; }

    /** start() @p entry on both twins, then lockstep() them. */
    std::vector<Seen>
    run(MethodId entry, const std::vector<Value> &args,
        const Resolver &resolve = {}, int max_runs = 100000)
    {
        plain().interp.start(entry, args);
        quick().interp.start(entry, args);
        return lockstep(plain().interp, quick().interp, resolve,
                        max_runs);
    }

  private:
    NativeRegistry natives_;
    Program plain_;
    Program quick_;
    std::size_t heads_ = 0;
    std::unique_ptr<TwinVm> plain_vm_;
    std::unique_ptr<TwinVm> quick_vm_;
};

/**
 * Fused heads whose idiom saw a Quantum suspension after each of
 * its constituents but the last (pc = head + k, 0 < k < length).
 */
inline std::size_t
headsSuspendedAtEveryConstituent(const Program &quickened,
                                 const std::vector<Seen> &seen)
{
    std::size_t covered = 0;
    for (auto [method, head] : fusedHeads(quickened)) {
        const uint32_t len =
            idiomLength(quickened.method(method).code[head].op);
        bool all = true;
        for (uint32_t k = 1; k < len; ++k) {
            bool hit = false;
            for (const Seen &s : seen)
                hit = hit || (s.kind == Suspend::Kind::Quantum &&
                              s.method == method && s.pc == head + k);
            all = all && hit;
        }
        covered += all ? 1 : 0;
    }
    return covered;
}

} // namespace beehive::vm::quickentest

#endif // BEEHIVE_TESTS_QUICKEN_SUPPORT_H
