/**
 * @file
 * The per-method dataflow engine of HiveVM's static passes: the
 * verifier (vm/verifier.h) and ProgramAnalysis (vm/analysis.h).
 *
 * BlockDataflow splits a method's code into basic blocks and
 * iterates the blocks' entry states to a fixpoint over a FIFO
 * worklist. A client brings only its lattice: a transfer step per
 * instruction and a join. BlockDataflow owns the control flow: a Jmp
 * goes to its target, a Jz or Jnz to its target and then to the next
 * pc, a Ret ends its path, and any other block falls through to the
 * next one.
 */

#ifndef BEEHIVE_VM_DATAFLOW_H
#define BEEHIVE_VM_DATAFLOW_H

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <vector>

#include "vm/program.h"

namespace beehive::vm {

inline bool
isBranch(Op op)
{
    return op == Op::Jmp || op == Op::Jz || op == Op::Jnz;
}

/** Block-entry states of one method, solved over a worklist. */
template <typename State>
class BlockDataflow
{
  public:
    /**
     * Find the block leaders of @p code: pc 0, every in-range branch
     * target and the pc after each branch or Ret. A branch or Ret
     * therefore always ends its block.
     */
    explicit BlockDataflow(const std::vector<Instr> &code) : code_(code)
    {
        leaders_.insert(0);
        for (uint32_t pc = 0; pc < code.size(); ++pc) {
            const Op op = baseOp(code[pc].op);
            if (isBranch(op) && inRange(code[pc].a))
                leaders_.insert(static_cast<uint32_t>(code[pc].a));
            if ((isBranch(op) || op == Op::Ret) && pc + 1 < code.size())
                leaders_.insert(pc + 1);
        }
    }

    /** Every block's first pc, in pc order. */
    const std::set<uint32_t> &leaders() const { return leaders_; }

    /** The pc after the last instruction of @p leader's block. */
    uint32_t
    blockEnd(uint32_t leader) const
    {
        auto it = leaders_.upper_bound(leader);
        return it == leaders_.end() ? static_cast<uint32_t>(code_.size())
                                    : *it;
    }

    /** The entry state of every block reached, by leader. */
    const std::map<uint32_t, State> &states() const { return states_; }

    /** End the pass: no further step, join or block runs. */
    void stop() { stopped_ = true; }
    bool stopped() const { return stopped_; }

    /**
     * Iterate block entry states to a fixpoint, starting at pc 0 in
     * @p entry. A block first reached takes the state that reaches
     * it; a later arrival is merged by @p join, and the block is
     * queued again when that changed its state.
     *
     * @param step step(pc, st) applies the instruction at pc to st.
     * @param join join(leader, into, from) merges from into the
     *        entry state of a reached block; returns whether into
     *        changed.
     * @param fall_off fall_off(st) runs when control passes the last
     *        instruction.
     */
    template <typename Step, typename Join, typename FallOff>
    void
    solve(const State &entry, Step &&step, Join &&join, FallOff &&fall_off)
    {
        std::deque<uint32_t> work;
        std::set<uint32_t> queued;
        auto flowTo = [&](uint32_t leader, const State &st) {
            auto [it, fresh] = states_.try_emplace(leader, st);
            if ((fresh || join(leader, it->second, st)) &&
                queued.insert(leader).second)
                work.push_back(leader);
        };
        flowTo(0, entry);
        while (!work.empty() && !stopped_) {
            const uint32_t leader = work.front();
            work.pop_front();
            queued.erase(leader);
            State st = states_.at(leader);
            const uint32_t end = runBlock(leader, st, step);
            const Instr &last = code_[end - 1];
            const Op op = baseOp(last.op);
            if (stopped_ || op == Op::Ret)
                continue;
            if (isBranch(op) && inRange(last.a))
                flowTo(static_cast<uint32_t>(last.a), st);
            if (stopped_ || op == Op::Jmp)
                continue;
            if (end < code_.size())
                flowTo(end, st);
            else
                fall_off(st);
        }
    }

    /**
     * Run @p step once more over every reached block, in leader
     * order, from its final entry state. Nothing runs after stop().
     */
    template <typename Step>
    void
    replay(Step &&step)
    {
        for (const auto &[leader, entry] : states_) {
            State st = entry;
            runBlock(leader, st, step);
        }
    }

  private:
    bool
    inRange(int64_t target) const
    {
        return target >= 0 &&
               static_cast<std::size_t>(target) < code_.size();
    }

    /** Step through @p leader's block; returns its end. */
    template <typename Step>
    uint32_t
    runBlock(uint32_t leader, State &st, Step &step)
    {
        const uint32_t end = blockEnd(leader);
        for (uint32_t pc = leader; pc < end && !stopped_; ++pc)
            step(pc, st);
        return end;
    }

    const std::vector<Instr> &code_;
    std::set<uint32_t> leaders_;
    std::map<uint32_t, State> states_;
    bool stopped_ = false;
};

} // namespace beehive::vm

#endif // BEEHIVE_VM_DATAFLOW_H
