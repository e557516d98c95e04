/**
 * @file
 * Initial-closure construction and installation (Sections 3.1, 3.2).
 *
 * A closure is the unit of offloading: starting from a selected root
 * method, BeeHive packs the code (klasses the profiler saw the
 * root's dynamic extent use) and the data (objects reachable from
 * the request arguments and from accessed statics, up to a depth
 * and size budget) and ships them to a FaaS instance.
 *
 * Dynamic profiling is inherently incomplete, so the closure is
 * too: a configurable fraction of the profiled klass set is
 * included, and object traversal is truncated -- everything else
 * becomes a missing-code or missing-data fallback at run time,
 * which is precisely the behaviour the paper's fallback mechanism
 * (and Table 5's shadow-phase fetch counts) exists to absorb.
 *
 * Packageable native state (Section 3.2): when an object of a
 * packageable klass is copied to the function, its registered
 * marshal hook runs, translating native state into something valid
 * on the FaaS side. The flagship user is the SocketImpl klass whose
 * hook performs the proxy *prepare* handshake and packs the minted
 * connection ID (Section 3.3).
 */

#ifndef BEEHIVE_CORE_CLOSURE_H
#define BEEHIVE_CORE_CLOSURE_H

#include <functional>
#include <map>
#include <vector>

#include "core/config.h"
#include "core/mapping.h"
#include "sim/sim_time.h"
#include "support/rng.h"
#include "vm/context.h"
#include "vm/profiler.h"

namespace beehive::core {

/** The initial closure for one root method. */
struct Closure
{
    vm::MethodId root = vm::kNoMethod;
    /** Code part: klass ids to pre-load on the function. */
    std::vector<vm::KlassId> klasses;
    /** Data part: server addresses in BFS order. */
    std::vector<vm::Ref> objects;
    /** Static slots whose values ship with the closure. */
    std::vector<std::pair<vm::KlassId, uint32_t>> statics;

    /** Transfer size of the code part. */
    uint64_t codeBytes(const vm::Program &program) const;
    /** Transfer size of the data part. */
    uint64_t dataBytes(const vm::Heap &server_heap) const;

    /** Modelled closure computation time (~133.66 ms in §5.6). */
    sim::SimTime build_time;
};

/**
 * Marshal hook for a packageable klass: adjusts the function-side
 * copy's native state (paper Section 3.2).
 */
using PackHook = std::function<void(
    vm::Ref server_obj, vm::Heap &server_heap, vm::Ref fn_obj,
    vm::Heap &fn_heap)>;

/** Registry of packageable klasses and their marshal hooks. */
class PackageableRegistry
{
  public:
    /** Register @p hook for @p klass (also sets klass.packageable). */
    void add(vm::Program &program, vm::KlassId klass, PackHook hook);

    bool isPackageable(vm::KlassId klass) const;

    /** Run the hook (no-op when none registered). */
    void marshal(vm::KlassId klass, vm::Ref server_obj,
                 vm::Heap &server_heap, vm::Ref fn_obj,
                 vm::Heap &fn_heap) const;

    std::size_t size() const { return hooks_.size(); }

  private:
    std::map<vm::KlassId, PackHook> hooks_;
};

/** Builds initial closures from profiles on the server. */
class ClosureBuilder
{
  public:
    ClosureBuilder(vm::VmContext &server_ctx, const BeeHiveConfig &config,
                   Rng rng);

    /**
     * Construct the initial closure for @p root.
     *
     * @param profile The root's recorded profile (may be null: the
     *        closure then contains only the root's own klass).
     * @param sample_args Arguments of a representative invocation;
     *        their reachable graphs seed the data part.
     */
    Closure build(vm::MethodId root, const vm::RootProfile *profile,
                  const std::vector<vm::Value> &sample_args);

  private:
    vm::VmContext &server_;
    BeeHiveConfig config_;
    Rng rng_;
};

/** Result of installing a closure on a function instance. */
struct InstallResult
{
    uint64_t objects = 0;
    uint64_t bytes = 0; //!< total transfer size (code + data)
};

/**
 * Install @p closure into a function VM: load the klasses, copy the
 * objects into the function's closure space (fixing internal
 * references, marking excluded targets remote, running packageable
 * marshal hooks), copy static values, and record all address pairs
 * in @p map. Server-side copies get the shared flag.
 */
InstallResult installClosure(const Closure &closure,
                             vm::VmContext &server_ctx,
                             vm::VmContext &fn_ctx, MappingTable &map,
                             const PackageableRegistry &packageables,
                             bool pack_enabled = true);

/**
 * Copy one object from the server into a function's closure space
 * (missing-data fallback service). References to objects already
 * mapped become local; everything else becomes remote. Packageable
 * state is marshalled. Registers the address pair in @p map and the
 * function's remote map.
 *
 * @return The function-local address and the transfer size.
 */
std::pair<vm::Ref, uint64_t>
fetchObject(vm::Ref server_ref, vm::VmContext &server_ctx,
            vm::VmContext &fn_ctx, MappingTable &map,
            const PackageableRegistry &packageables,
            bool pack_enabled = true);

/**
 * Copy an argument graph into the function's allocation space for
 * one invocation (depth-limited; excluded references are remote).
 * No mappings are recorded: argument copies die with the request.
 */
std::vector<vm::Value>
copyArgsToFunction(const std::vector<vm::Value> &args,
                   vm::VmContext &server_ctx, vm::VmContext &fn_ctx,
                   int max_depth);

/**
 * Materialize an offloaded invocation's return value on the server:
 * mapped refs translate back; unmapped function objects are cloned.
 */
vm::Value copyResultToServer(vm::Value result, vm::VmContext &fn_ctx,
                             vm::VmContext &server_ctx,
                             const MappingTable &map);

} // namespace beehive::core

#endif // BEEHIVE_CORE_CLOSURE_H
