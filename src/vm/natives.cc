#include "vm/natives.h"

#include "support/logging.h"

namespace beehive::vm {

uint32_t
NativeRegistry::add(std::string name, NativeCategory category,
                    NativeFn fn)
{
    bh_assert(by_name_.find(name) == by_name_.end(),
              "duplicate native %s", name.c_str());
    uint32_t id = static_cast<uint32_t>(natives_.size());
    by_name_[name] = id;
    natives_.push_back(NativeMethod{std::move(name), category, fn});
    return id;
}

uint32_t
NativeRegistry::find(const std::string &name) const
{
    auto it = by_name_.find(name);
    return it == by_name_.end() ? kNoNative : it->second;
}

} // namespace beehive::vm
