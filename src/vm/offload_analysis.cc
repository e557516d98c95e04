#include "vm/offload_analysis.h"

#include <algorithm>

#include "support/strutil.h"

namespace beehive::vm {

namespace {

bool
worse(OffloadClass a, OffloadClass b)
{
    return static_cast<uint8_t>(a) > static_cast<uint8_t>(b);
}

} // namespace

const char *
toString(OffloadClass c)
{
    switch (c) {
      case OffloadClass::OffloadSafe: return "offload-safe";
      case OffloadClass::NeedsFallback: return "needs-fallback";
      case OffloadClass::LocalOnly: return "local-only";
    }
    return "?";
}

std::string
toString(const RootReport &report, const Program &program)
{
    std::string s = strprintf(
        "%s: %s (%zu reachable method(s)",
        program.qualifiedName(report.root).c_str(),
        toString(report.klass), report.reachable.size());
    if (report.reasons.empty())
        return s + ")";
    const OffloadReason &top = report.reasons.front();
    s += strprintf("; %s+%u: %s",
                   program.qualifiedName(top.method).c_str(), top.pc,
                   top.message.c_str());
    if (report.reasons.size() > 1)
        s += strprintf(" and %zu more", report.reasons.size() - 1);
    return s + ")";
}

OffloadAnalysis::OffloadAnalysis(const Program &program)
    : program_(program), analysis_(program)
{
}

RootReport
OffloadAnalysis::classifyRoot(MethodId root) const
{
    RootReport report;
    report.root = root;
    if (root >= program_.methodCount())
        return report;

    report.reachable = analysis_.reachableFrom(root);
    for (MethodId id : report.reachable) {
        for (const EffectSite &site :
             analysis_.methodSummary(id).sites) {
            OffloadReason r;
            r.demands = site.demand == EffectDemand::LocalOnly
                            ? OffloadClass::LocalOnly
                            : OffloadClass::NeedsFallback;
            r.method = site.method;
            r.pc = site.pc;
            r.message = site.message;
            if (worse(r.demands, report.klass))
                report.klass = r.demands;
            report.reasons.push_back(std::move(r));
        }
    }
    std::stable_sort(report.reasons.begin(), report.reasons.end(),
                     [](const OffloadReason &a,
                        const OffloadReason &b) {
                         return worse(a.demands, b.demands);
                     });
    return report;
}

} // namespace beehive::vm
