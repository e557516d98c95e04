/**
 * @file
 * Static offloadability analysis over HiveVM bytecode.
 *
 * The OffloadManager decides *when* to offload; this pass answers
 * *whether* an endpoint root can be offloaded at all, before a single
 * request runs. It reads the interprocedural effect summaries from
 * vm/analysis.h -- `Call` and `CallNative` resolve statically,
 * `CallVirt` devirtualizes when the receiver klass is statically
 * known and otherwise unions every same-named method in the program
 * -- and classifies the root by what the reachable methods do:
 *
 *   - **OffloadSafe**: only pure-on-heap / stateless natives, no
 *     static writes, no monitors. A function instance can run this
 *     root with nothing but the closure.
 *   - **NeedsFallback**: reachable behaviour the paper handles with
 *     a runtime fallback -- hidden-state or network natives on
 *     Packageable klasses (Section 3.2), `PutStatic` (write-back),
 *     monitors/volatiles (Section 4.2 synchronization), or a
 *     virtual call the analysis cannot bound. Offloading works but
 *     leans on the fallback machinery.
 *   - **LocalOnly**: a hidden-state or network native whose owner
 *     klass is not Packageable is reachable; there is no way to
 *     rebuild that native's off-heap state on the function side, so
 *     offloading this root is statically known to be unsound.
 */

#ifndef BEEHIVE_VM_OFFLOAD_ANALYSIS_H
#define BEEHIVE_VM_OFFLOAD_ANALYSIS_H

#include <string>
#include <vector>

#include "vm/analysis.h"
#include "vm/program.h"

namespace beehive::vm {

/** Static offloadability of an endpoint root. */
enum class OffloadClass : uint8_t
{
    OffloadSafe,   //!< no fallback-triggering behaviour reachable
    NeedsFallback, //!< offloadable, relies on runtime fallbacks
    LocalOnly,     //!< statically unsound to offload
};

const char *toString(OffloadClass c);

/** Why a root landed in its class (one human-readable reason each). */
struct OffloadReason
{
    OffloadClass demands = OffloadClass::OffloadSafe;
    MethodId method = kNoMethod; //!< the reachable method at fault
    uint32_t pc = 0;
    std::string message;
};

/** Full classification of one root. */
struct RootReport
{
    MethodId root = kNoMethod;
    OffloadClass klass = OffloadClass::OffloadSafe;
    /** Every method the call-graph walk reached (root included). */
    std::vector<MethodId> reachable;
    /** Reasons of NeedsFallback/LocalOnly strength, worst first. */
    std::vector<OffloadReason> reasons;
};

/** Render a report as one log-friendly line. */
std::string toString(const RootReport &report,
                     const Program &program);

/**
 * Classification facade over the interprocedural framework
 * (vm/analysis.h). PR 1's hand-rolled call-graph walk is gone: the
 * reachable set, the per-site reasons, and the class now all come
 * from effect summaries, which also buys monitor/volatile elision --
 * a root whose only monitors guard freshly allocated, non-escaping
 * objects is OffloadSafe where the coarse walk said NeedsFallback.
 */
class OffloadAnalysis
{
  public:
    explicit OffloadAnalysis(const Program &program);

    /** Classify @p root; walks its reachable call graph. */
    RootReport classifyRoot(MethodId root) const;

    /** Convenience: classification without the evidence. */
    OffloadClass classOf(MethodId root) const
    {
        return classifyRoot(root).klass;
    }

    /** Minimal capture set for @p root: what it can read. */
    CaptureSet captureForRoot(MethodId root) const
    {
        return analysis_.captureForRoot(root);
    }

    /** The underlying framework (summaries, lock graph, ...). */
    const ProgramAnalysis &analysis() const { return analysis_; }

  private:
    const Program &program_;
    ProgramAnalysis analysis_;
};

} // namespace beehive::vm

#endif // BEEHIVE_VM_OFFLOAD_ANALYSIS_H
