#include "vm/profiler.h"

#include <algorithm>

#include "support/logging.h"

namespace beehive::vm {

void
Profiler::addCandidateAnnotation(const std::string &name)
{
    for (MethodId id : program_.methodsWithAnnotation(name)) {
        if (id >= candidate_marks_.size())
            candidate_marks_.resize(id + 1, 0);
        candidate_marks_[id] = 1;
    }
}

std::vector<MethodId>
Profiler::candidates() const
{
    std::vector<MethodId> out;
    for (MethodId id = 0; id < candidate_marks_.size(); ++id) {
        if (candidate_marks_[id])
            out.push_back(id);
    }
    return out;
}

void
Profiler::recordExecution(
    MethodId root, double cost_ns, const std::set<KlassId> &klasses,
    const std::set<std::pair<KlassId, uint32_t>> &statics,
    uint64_t monitor_enters)
{
    bh_assert(isCandidate(root), "recording a non-candidate root");
    RootProfile &p = profiles_[root];
    ++p.invocations;
    p.total_cost_ns += cost_ns;
    p.monitor_enters += monitor_enters;
    p.klasses.insert(klasses.begin(), klasses.end());
    p.statics.insert(statics.begin(), statics.end());
}

const RootProfile *
Profiler::profile(MethodId root) const
{
    auto it = profiles_.find(root);
    return it == profiles_.end() ? nullptr : &it->second;
}

std::vector<MethodId>
Profiler::selectRoots(double min_total_ns, double min_avg_ns) const
{
    std::vector<MethodId> out;
    for (const auto &[id, p] : profiles_) {
        if (p.total_cost_ns >= min_total_ns &&
            p.avgCostNs() >= min_avg_ns) {
            out.push_back(id);
        }
    }
    std::sort(out.begin(), out.end(), [&](MethodId a, MethodId b) {
        return profiles_.at(a).total_cost_ns >
               profiles_.at(b).total_cost_ns;
    });
    return out;
}

} // namespace beehive::vm
