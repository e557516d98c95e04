/**
 * @file
 * Load-time quickening: exact superinstructions for the idioms the
 * framework and app code generators emit (DESIGN.md §14.9).
 *
 * quicken() rewrites only the head Load of each matched idiom into a
 * fused op (Op::LoadLeJnz ...) and leaves the idiom's other
 * instructions in place after it:
 *
 *   load n; pushI c; cmpLe; jnz L   -> LoadLeJnz
 *   load x; not; jnz L              -> LoadNotJnz
 *   load x; getField f; pop         -> LoadFieldPop
 *   load x; getField f; store y     -> LoadFieldStore
 *   load n; pushI c; sub; store y   -> LoadSubStore
 *
 * The interpreter runs a fused head as its constituents, one count,
 * one charge and one quantum check each, in the original order, so
 * a quickened program's simulated behaviour is the unquickened
 * one's. A jump into the middle of an idiom, a quantum suspension
 * and the frame snapshots see the original instructions. Every
 * other reader of Method::code reads baseOp(), i.e. Load.
 *
 * The harness quickens each app program once it is built; an
 * unquickened Program is the oracle the tests run against.
 */

#ifndef BEEHIVE_VM_QUICKEN_H
#define BEEHIVE_VM_QUICKEN_H

#include <cstddef>
#include <vector>

#include "vm/program.h"

namespace beehive::vm {

/**
 * The fused op for the idiom starting at @p pc of @p code, or
 * Op::Load when none starts there. Matches on baseOp(), so an
 * already quickened head maps to itself.
 */
Op quickenedOp(const std::vector<Instr> &code, std::size_t pc);

/**
 * Quicken every bytecode method of @p program in place. Idempotent.
 *
 * @return The number of heads rewritten by this call.
 */
std::size_t quicken(Program &program);

} // namespace beehive::vm

#endif // BEEHIVE_VM_QUICKEN_H
