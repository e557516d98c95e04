#include "vm/quicken.h"

#include <utility>

namespace beehive::vm {

Op
quickenedOp(const std::vector<Instr> &code, std::size_t pc)
{
    const std::size_t n = code.size();
    if (pc >= n || baseOp(code[pc].op) != Op::Load)
        return Op::Load;
    // The op at pc + k, or Nop past the end (no idiom contains Nop).
    auto at = [&](std::size_t k) {
        return pc + k < n ? code[pc + k].op : Op::Nop;
    };
    switch (at(1)) {
      case Op::PushI:
        if (at(2) == Op::CmpLe && at(3) == Op::Jnz)
            return Op::LoadLeJnz;
        if (at(2) == Op::Sub && at(3) == Op::Store)
            return Op::LoadSubStore;
        break;
      case Op::Not:
        if (at(2) == Op::Jnz)
            return Op::LoadNotJnz;
        break;
      case Op::GetField:
        if (at(2) == Op::Pop)
            return Op::LoadFieldPop;
        if (at(2) == Op::Store)
            return Op::LoadFieldStore;
        break;
      default:
        break;
    }
    return Op::Load;
}

std::size_t
quicken(Program &program)
{
    std::size_t rewritten = 0;
    for (MethodId id = 0; id < program.methodCount(); ++id) {
        const std::vector<Instr> &code =
            std::as_const(program).method(id).code;
        for (std::size_t pc = 0; pc < code.size(); ++pc) {
            if (baseOp(code[pc].op) != Op::Load)
                continue;
            const Op op = quickenedOp(code, pc);
            if (op == code[pc].op)
                continue;
            // Mutable access only where a head changes: it
            // invalidates the frozen vtables (Program::method).
            program.method(id).code[pc].op = op;
            ++rewritten;
        }
    }
    return rewritten;
}

} // namespace beehive::vm
