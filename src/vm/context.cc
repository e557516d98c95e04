#include "vm/context.h"

#include "support/logging.h"
#include "vm/profiler.h"

namespace beehive::vm {

VmContext::VmContext(const Program &program, NativeRegistry &natives,
                     Heap &heap, VmConfig config)
    : program_(program), natives_(natives), heap_(heap),
      config_(config), loaded_(program.klassCount(), false),
      statics_(program.klassCount()),
      invocation_counts_(program.methodCount(), 0)
{
}

void
VmContext::loadKlass(KlassId id)
{
    bh_assert(id < loaded_.size(), "bad klass id");
    if (loaded_[id])
        return;
    loaded_[id] = true;
    ++loaded_count_;
    // Statics come into existence (zeroed) when the klass loads.
    const Klass &k = program_.klass(id);
    if (!k.statics.empty())
        statics_[id].assign(k.statics.size(), Value::nil());
}

void
VmContext::loadAll()
{
    for (KlassId id = 0; id < program_.klassCount(); ++id)
        loadKlass(id);
}

void
VmContext::markOffloadCandidate(MethodId id)
{
    if (id >= offload_marks_.size())
        offload_marks_.resize(id + 1, 0);
    offload_marks_[id] = 1;
}

void
VmContext::mapRemote(Ref remote, Ref local)
{
    remote_map_.put(stripRemote(remote), local);
}

double
VmContext::costMultiplier(MethodId id) const
{
    return invocations(id) < config_.jit_threshold
               ? config_.cold_multiplier
               : 1.0;
}

uint64_t
VmContext::invocations(MethodId id) const
{
    return id < invocation_counts_.size() ? invocation_counts_[id] : 0;
}

} // namespace beehive::vm
