#include "vm/context.h"

#include "support/logging.h"
#include "vm/profiler.h"

namespace beehive::vm {

VmContext::VmContext(const Program &program, NativeRegistry &natives,
                     Heap &heap, VmConfig config)
    : program_(program), natives_(natives), heap_(heap),
      config_(config), loaded_(program.klassCount(), false)
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
    if (!k.statics.empty()) {
        statics_.try_emplace(
            id, std::vector<Value>(k.statics.size(), Value::nil()));
    }
}

void
VmContext::loadAll()
{
    for (KlassId id = 0; id < program_.klassCount(); ++id)
        loadKlass(id);
}

Value
VmContext::getStatic(KlassId klass, uint32_t slot)
{
    auto it = statics_.find(klass);
    bh_assert(it != statics_.end(), "statics of unloaded klass");
    bh_assert(slot < it->second.size(), "bad static slot");
    return it->second[slot];
}

void
VmContext::setStatic(KlassId klass, uint32_t slot, Value v)
{
    auto it = statics_.find(klass);
    bh_assert(it != statics_.end(), "statics of unloaded klass");
    bh_assert(slot < it->second.size(), "bad static slot");
    it->second[slot] = v;
}

void
VmContext::mapRemote(Ref remote, Ref local)
{
    remote_map_[stripRemote(remote)] = local;
}

Ref
VmContext::lookupRemote(Ref remote) const
{
    auto it = remote_map_.find(stripRemote(remote));
    return it == remote_map_.end() ? kNullRef : it->second;
}

double
VmContext::methodEntered(MethodId id)
{
    uint64_t &count = invocation_counts_[id];
    double mult = count < config_.jit_threshold ? config_.cold_multiplier
                                                : 1.0;
    ++count;
    return mult;
}

double
VmContext::costMultiplier(MethodId id) const
{
    auto it = invocation_counts_.find(id);
    uint64_t count = it == invocation_counts_.end() ? 0 : it->second;
    return count < config_.jit_threshold ? config_.cold_multiplier : 1.0;
}

uint64_t
VmContext::invocations(MethodId id) const
{
    auto it = invocation_counts_.find(id);
    return it == invocation_counts_.end() ? 0 : it->second;
}

} // namespace beehive::vm
