#include "vm/program.h"

#include <algorithm>

#include "support/logging.h"

namespace beehive::vm {

bool
Method::hasAnnotation(const std::string &name) const
{
    return std::any_of(annotations.begin(), annotations.end(),
                       [&](const Annotation &a) { return a.name == name; });
}

KlassId
Program::addKlass(Klass klass)
{
    bh_assert(klass_by_name_.find(klass.name) == klass_by_name_.end(),
              "duplicate klass %s", klass.name.c_str());
    KlassId id = static_cast<KlassId>(klasses_.size());
    klass_by_name_[klass.name] = id;
    klasses_.push_back(std::move(klass));
    touch();
    return id;
}

MethodId
Program::addMethod(KlassId owner, Method method)
{
    bh_assert(owner < klasses_.size(), "bad owner klass");
    method.owner = owner;
    MethodId id = static_cast<MethodId>(methods_.size());
    std::string qname = klasses_[owner].name + "." + method.name;
    bh_assert(method_by_qname_.find(qname) == method_by_qname_.end(),
              "duplicate method %s", qname.c_str());
    method_by_qname_[qname] = id;
    klasses_[owner].methods.push_back(id);
    methods_.push_back(std::move(method));
    touch();
    return id;
}

uint32_t
Program::internString(const std::string &s)
{
    auto it = string_ids_.find(s);
    if (it != string_ids_.end())
        return it->second;
    uint32_t id = static_cast<uint32_t>(strings_.size());
    strings_.push_back(s);
    string_ids_[s] = id;
    return id;
}

NameId
Program::internName(const std::string &s)
{
    auto it = name_ids_.find(s);
    if (it != name_ids_.end())
        return it->second;
    NameId id = static_cast<NameId>(names_.size());
    names_.push_back(s);
    name_ids_[s] = id;
    touch(); // widens every frozen vtable
    return id;
}

Klass &
Program::klass(KlassId id)
{
    bh_assert(id < klasses_.size(), "bad klass id %u", id);
    // Mutable access may rewire methods/supers behind our back;
    // conservatively invalidate the frozen tables.
    touch();
    return klasses_[id];
}

Method &
Program::method(MethodId id)
{
    bh_assert(id < methods_.size(), "bad method id %u", id);
    touch(); // a renamed method would invalidate the vtables
    return methods_[id];
}

const std::string &
Program::stringAt(uint32_t idx) const
{
    bh_assert(idx < strings_.size(), "bad string index");
    return strings_[idx];
}

const std::string &
Program::nameAt(NameId id) const
{
    bh_assert(id < names_.size(), "bad name id");
    return names_[id];
}

KlassId
Program::findKlass(const std::string &name) const
{
    auto it = klass_by_name_.find(name);
    return it == klass_by_name_.end() ? kNoKlass : it->second;
}

MethodId
Program::findMethod(const std::string &qualified) const
{
    auto it = method_by_qname_.find(qualified);
    return it == method_by_qname_.end() ? kNoMethod : it->second;
}

MethodId
Program::resolveVirtualUncached(KlassId klass_id, NameId name) const
{
    const std::string &mname = nameAt(name);
    KlassId k = klass_id;
    while (k != kNoKlass) {
        const Klass &kl = klasses_[k];
        for (MethodId mid : kl.methods) {
            if (methods_[mid].name == mname)
                return mid;
        }
        k = kl.super;
    }
    return kNoMethod;
}

void
Program::freeze() const
{
    const std::size_t nnames = names_.size();
    vtable_stride_ = nnames;
    vtable_flat_.assign(klasses_.size() * nnames, kNoMethod);
    field_counts_.assign(klasses_.size(), 0);
    std::vector<char> built(klasses_.size(), 0);
    std::vector<KlassId> chain;
    for (KlassId root = 0; root < klasses_.size(); ++root) {
        if (built[root])
            continue;
        // Collect the unbuilt tail of the super chain, then build
        // top-down so each row starts from its super's.
        chain.clear();
        for (KlassId k = root; k != kNoKlass && !built[k];
             k = klasses_[k].super)
            chain.push_back(k);
        for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
            const KlassId id = *it;
            const Klass &kl = klasses_[id];
            MethodId *vt = vtable_flat_.data() + id * nnames;
            if (kl.super != kNoKlass) {
                const MethodId *sup =
                    vtable_flat_.data() + kl.super * nnames;
                std::copy(sup, sup + nnames, vt); // inherit
                field_counts_[id] = field_counts_[kl.super];
            }
            field_counts_[id] +=
                static_cast<uint32_t>(kl.fields.size());
            // Method names within one klass are unique (addMethod
            // asserts the qualified name), so overriding the
            // inherited entry reproduces the walk's first-match
            // semantics exactly.
            for (MethodId mid : kl.methods) {
                auto nit = name_ids_.find(methods_[mid].name);
                if (nit != name_ids_.end())
                    vt[nit->second] = mid;
            }
            built[id] = 1;
        }
    }
    frozen_epoch_ = mutation_epoch_;
}

uint32_t
Program::fieldCount(KlassId id) const
{
    bh_assert(id < klasses_.size(), "bad klass id %u", id);
    if (frozen())
        return field_counts_[id];
    uint32_t count = 0;
    KlassId k = id;
    while (k != kNoKlass) {
        count += static_cast<uint32_t>(klasses_[k].fields.size());
        k = klasses_[k].super;
    }
    return count;
}

void
Program::hintStatic(KlassId klass_id, uint32_t slot, KlassId type,
                    KlassId elem)
{
    Klass &k = klass(klass_id);
    bh_assert(slot < k.statics.size(), "bad static slot %u", slot);
    if (k.static_hints.size() <= slot)
        k.static_hints.resize(k.statics.size());
    k.static_hints[slot] = TypeHint{type, elem};
}

void
Program::hintField(KlassId klass_id, uint32_t index, KlassId type,
                   KlassId elem)
{
    Klass &k = klass(klass_id);
    bh_assert(index < fieldCount(klass_id), "bad field index %u", index);
    if (k.field_hints.size() <= index)
        k.field_hints.resize(index + 1);
    k.field_hints[index] = TypeHint{type, elem};
}

TypeHint
Program::staticHint(KlassId klass_id, uint32_t slot) const
{
    const Klass &k = klass(klass_id);
    if (slot < k.static_hints.size())
        return k.static_hints[slot];
    return TypeHint{};
}

TypeHint
Program::fieldHint(KlassId klass_id, uint32_t index) const
{
    // Field indices are flat across the super chain, so any klass in
    // the chain may carry the declaration.
    KlassId k = klass_id;
    while (k != kNoKlass) {
        const Klass &kl = klass(k);
        if (index < kl.field_hints.size()
            && kl.field_hints[index].type != kNoKlass)
            return kl.field_hints[index];
        k = kl.super;
    }
    return TypeHint{};
}

std::string
Program::qualifiedName(MethodId id) const
{
    if (id >= methods_.size())
        return "<bad-method>";
    const Method &m = methods_[id];
    if (m.owner >= klasses_.size())
        return m.name;
    return klasses_[m.owner].name + "." + m.name;
}

std::vector<MethodId>
Program::methodsWithAnnotation(const std::string &name) const
{
    std::vector<MethodId> out;
    for (MethodId id = 0; id < methods_.size(); ++id) {
        if (methods_[id].hasAnnotation(name))
            out.push_back(id);
    }
    return out;
}

} // namespace beehive::vm
