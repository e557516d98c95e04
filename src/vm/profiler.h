/**
 * @file
 * Candidate-method profiler (paper Section 4.3).
 *
 * BeeHive must choose *root methods* whose dynamic extent becomes
 * the initial closure. Web frameworks bury business logic under
 * dynamically generated interceptor stubs, so invocation counts
 * alone would select framework plumbing. The paper's insight is to
 * restrict candidates to methods the developer already annotated
 * (e.g. Spring's request mappings) and then profile only those.
 *
 * The profiler records, per candidate root: invocation count,
 * accumulated execution time, and the sets of klasses and static
 * fields its dynamic extent used. Root selection applies the
 * paper's two heuristics: large accumulated time, and average time
 * above a floor (to avoid offloading sub-millisecond methods).
 */

#ifndef BEEHIVE_VM_PROFILER_H
#define BEEHIVE_VM_PROFILER_H

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "vm/program.h"

namespace beehive::vm {

/** Accumulated profile of one candidate root method. */
struct RootProfile
{
    uint64_t invocations = 0;
    double total_cost_ns = 0.0;
    /** Monitor acquisitions observed in the dynamic extent. */
    uint64_t monitor_enters = 0;
    /** Klasses used in the dynamic extent (closure code set). */
    std::set<KlassId> klasses;
    /** Static fields accessed (closure data roots). */
    std::set<std::pair<KlassId, uint32_t>> statics;

    double
    avgCostNs() const
    {
        return invocations == 0 ? 0.0
                                : total_cost_ns /
                                      static_cast<double>(invocations);
    }
};

/** Records candidate-method behaviour on the server. */
class Profiler
{
  public:
    explicit Profiler(const Program &program) : program_(program) {}

    /**
     * Declare which annotation marks offloading candidates
     * (e.g. "RequestMapping"). May be called multiple times.
     */
    void addCandidateAnnotation(const std::string &name);

    /** A flat mark per method id: the interpreter asks at calls. */
    bool
    isCandidate(MethodId id) const
    {
        return id < candidate_marks_.size() && candidate_marks_[id];
    }
    /** Every candidate, in ascending id order. */
    std::vector<MethodId> candidates() const;

    /** Merge one observed execution of @p root into its profile. */
    void recordExecution(MethodId root, double cost_ns,
                         const std::set<KlassId> &klasses,
                         const std::set<std::pair<KlassId, uint32_t>>
                             &statics,
                         uint64_t monitor_enters = 0);

    /** Profile lookup (nullptr when never executed). */
    const RootProfile *profile(MethodId root) const;

    /**
     * Root selection heuristics (Section 4.3): candidates whose
     * accumulated time is large and whose average time is not short.
     *
     * @param min_total_ns Floor on accumulated execution time.
     * @param min_avg_ns Floor on average execution time (the paper
     *        suggests ~1 ms to avoid large relative overhead).
     * @return Selected roots, highest accumulated time first.
     */
    std::vector<MethodId> selectRoots(double min_total_ns,
                                      double min_avg_ns) const;

  private:
    const Program &program_;
    /** Candidates by method id; grows on demand. */
    std::vector<uint8_t> candidate_marks_;
    std::map<MethodId, RootProfile> profiles_;
};

} // namespace beehive::vm

#endif // BEEHIVE_VM_PROFILER_H
