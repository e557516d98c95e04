/**
 * @file
 * Native method registry.
 *
 * Web frameworks lean heavily on native invocations (paper Table 2:
 * a single pybbs request makes >260k of them). HiveVM models native
 * methods as C++ handlers registered by id; a handler reads its
 * arguments in place, as a span over the caller's operand stack, so a
 * native call copies nothing. Each handler is tagged with the paper's
 * four categories -- pure on-heap, hidden state, network, and
 * stateless -- which drive BeeHive's offloadability
 * policy (Section 3.2): pure/stateless run anywhere, hidden-state
 * natives need a *packed* Packageable receiver on FaaS, and network
 * natives route through the connection proxy. The interpreter applies
 * that rule itself from the category (Interpreter::run), so a native
 * is only a table entry: a plain function pointer, called by id.
 */

#ifndef BEEHIVE_VM_NATIVES_H
#define BEEHIVE_VM_NATIVES_H

#include <any>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "support/logging.h"
#include "vm/program.h"
#include "vm/value.h"

namespace beehive::vm {

class VmContext;

/** Outcome of a native handler. */
struct NativeResult
{
    /** Return value pushed to the caller's stack. */
    Value ret = Value::nil();

    /** CPU nanoseconds this native consumed. */
    double cost_ns = 0.0;

    /**
     * When it holds a value, the interpreter suspends with an
     * External request carrying this payload instead of completing
     * the call; the endpoint performs the operation (e.g. a database
     * round trip via the proxy) and resumes the interpreter with the
     * real return value. Handlers must not mutate the heap before
     * requesting external completion.
     */
    std::any external;
};

/**
 * A native method implementation: a plain function, so a handler
 * keeps no state of its own. The arguments are a read-only view of
 * the caller's operand-stack top, in push order; it is valid only
 * for the duration of the call (the interpreter pops the arguments
 * once the handler returns).
 */
using NativeFn = NativeResult (*)(VmContext &, std::span<const Value>);

/** Registered native method. */
struct NativeMethod
{
    std::string name;
    NativeCategory category = NativeCategory::PureOnHeap;
    NativeFn fn;
};

/** Id-keyed registry of native methods for one Program. */
class NativeRegistry
{
  public:
    /** Register a native; returns its id. */
    uint32_t add(std::string name, NativeCategory category, NativeFn fn);

    const NativeMethod &
    get(uint32_t id) const
    {
        bh_assert(id < natives_.size(), "bad native id %u", id);
        return natives_[id];
    }
    bool has(uint32_t id) const { return id < natives_.size(); }
    std::size_t size() const { return natives_.size(); }

    /** Lookup by name (kNoNative when absent). */
    static constexpr uint32_t kNoNative = UINT32_MAX;
    uint32_t find(const std::string &name) const;

  private:
    std::vector<NativeMethod> natives_;
    std::map<std::string, uint32_t> by_name_;
};

} // namespace beehive::vm

#endif // BEEHIVE_VM_NATIVES_H
