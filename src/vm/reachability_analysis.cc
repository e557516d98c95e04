#include "vm/reachability_analysis.h"

#include <algorithm>
#include <deque>
#include <set>

#include "support/logging.h"
#include "vm/context.h"
#include "vm/heap.h"

namespace beehive::vm {

ReachabilityAnalysis::ReachabilityAnalysis(
    const Program &program, const ProgramAnalysis &analysis)
    : program_(program), analysis_(analysis)
{
    const std::size_t n = program_.klassCount();
    cones_.resize(n);
    for (KlassId k = 0; k < n; ++k)
        cones_[k].push_back(k);
    // Every klass is in the cone of each of its (transitive)
    // superclasses; one super-chain walk per klass covers them all.
    for (KlassId k = 0; k < n; ++k) {
        KlassId s = program_.klass(k).super;
        while (s != kNoKlass) {
            cones_[s].push_back(k);
            s = program_.klass(s).super;
        }
    }
    for (auto &cone : cones_)
        std::sort(cone.begin(), cone.end());
}

const std::vector<KlassId> &
ReachabilityAnalysis::subclassCone(KlassId k) const
{
    bh_assert(k < cones_.size(), "bad klass id %u", k);
    return cones_[k];
}

ReachReport
ReachabilityAnalysis::analyzeRoot(MethodId root) const
{
    ReachReport out;
    out.root = root;
    if (root >= program_.methodCount()) {
        out.footprint.all_fields = true;
        ++out.escape_hatches;
        return out;
    }

    // Method closure: the devirtualized call graph, re-expanding
    // every VirtualSite over the receiver hint's subclass cone so a
    // subclass override hidden behind a superclass hint cannot be
    // missed.
    std::set<MethodId> visited;
    std::deque<MethodId> work;
    visited.insert(root);
    work.push_back(root);
    const CallGraph &cg = analysis_.callGraph();
    auto enqueue = [&](MethodId m) {
        if (m < program_.methodCount() && visited.insert(m).second)
            work.push_back(m);
    };
    while (!work.empty()) {
        MethodId m = work.front();
        work.pop_front();
        for (MethodId c : cg.callees[m])
            enqueue(c);
        for (MethodId c : cg.natives[m])
            enqueue(c);
        for (const VirtualSite &site : analysis_.virtualSites(m)) {
            MethodId devirt =
                program_.resolveVirtual(site.receiver, site.name);
            for (KlassId k : subclassCone(site.receiver)) {
                MethodId r = program_.resolveVirtual(k, site.name);
                if (r == kNoMethod || visited.count(r))
                    continue;
                enqueue(r);
                if (r != devirt)
                    ++out.cone_expansions;
            }
        }
    }
    out.methods.assign(visited.begin(), visited.end());

    // Footprint: join the *intra* summaries of the expanded set.
    // transitiveSummary(root) would be cheaper but follows only the
    // devirtualized edges, so it can miss cone-added methods.
    for (MethodId m : out.methods) {
        const EffectSummary &s = analysis_.methodSummary(m);
        CaptureSet &fp = out.footprint;
        fp.statics.insert(s.statics_read.begin(),
                          s.statics_read.end());
        fp.statics.insert(s.statics_written.begin(),
                          s.statics_written.end());
        fp.fields.insert(s.fields_read.begin(),
                         s.fields_read.end());
        fp.any_klass_fields.insert(s.fields_read_any_klass.begin(),
                                   s.fields_read_any_klass.end());
        fp.full_klasses.insert(s.klasses_fully_read.begin(),
                               s.klasses_fully_read.end());
        if (s.unresolved_virtual)
            fp.all_fields = true;
        for (const EffectSite &site : s.sites) {
            if (site.kind == EffectSite::Kind::UnresolvedVirtual)
                ++out.escape_hatches;
        }
    }

    // Klass closure: everything the missing-code fallback can
    // requireKlass() while running the reachable set -- method
    // owners (faulted at every call), allocation operands, and
    // static-slot owners. NewBytes allocates the ambient byte klass
    // of the VM configuration, which is invisible in bytecode; it
    // is flagged for the caller to resolve.
    std::set<KlassId> klasses;
    auto add_klass = [&](KlassId k) {
        if (k != kNoKlass && k < program_.klassCount())
            klasses.insert(k);
    };
    for (MethodId m : out.methods) {
        const Method &method = program_.method(m);
        add_klass(method.owner);
        for (const Instr &in : method.code) {
            switch (baseOp(in.op)) {
              case Op::New:
              case Op::NewArr:
                add_klass(static_cast<KlassId>(in.a));
                break;
              case Op::NewBytes:
                out.needs_bytes_klass = true;
                break;
              case Op::GetStatic:
              case Op::PutStatic:
                add_klass(static_cast<KlassId>(in.a));
                break;
              default:
                break;
            }
        }
    }
    for (const auto &[k, slot] : out.footprint.statics)
        add_klass(k);
    for (KlassId k : out.footprint.full_klasses)
        add_klass(k);
    out.klasses.assign(klasses.begin(), klasses.end());
    return out;
}

std::vector<Ref>
ReachabilityAnalysis::resolveFootprint(const ReachReport &report,
                                       VmContext &server) const
{
    std::vector<Ref> out;
    std::set<Ref> seen;
    std::deque<Ref> work;
    Heap &heap = server.heap();
    auto visit = [&](Value v) {
        if (!v.isRef())
            return;
        Ref r = stripRemote(v.asRef());
        if (r == kNullRef || !seen.insert(r).second)
            return;
        out.push_back(r);
        work.push_back(r);
    };

    // Roots: the footprint's static slots, in set (deterministic)
    // order. Slots beyond the klass's declared statics can only
    // come from malformed bytecode the verifier flags; skip them.
    for (const auto &[k, slot] : report.footprint.statics) {
        if (k >= program_.klassCount() || !server.isLoaded(k))
            continue;
        if (slot >= program_.klass(k).statics.size())
            continue;
        visit(server.getStatic(k, slot));
    }

    while (!work.empty()) {
        Ref r = work.front();
        work.pop_front();
        const ObjHeader &hdr = heap.header(r);
        switch (hdr.kind) {
          case ObjKind::Plain:
            for (uint32_t i = 0; i < hdr.count; ++i) {
                if (report.footprint.containsField(hdr.klass, i))
                    visit(heap.field(r, i));
            }
            break;
          case ObjKind::Array:
            // Element access paths are not tracked per index; any
            // reachable array contributes every element.
            for (uint32_t i = 0; i < hdr.count; ++i)
                visit(heap.elem(r, i));
            break;
          default: // Bytes: no reference slots
            break;
        }
    }
    return out;
}

} // namespace beehive::vm
