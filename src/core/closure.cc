#include "core/closure.h"

#include <deque>
#include <set>
#include <unordered_map>

#include "support/logging.h"

namespace beehive::core {

using vm::Heap;
using vm::ObjKind;
using vm::Ref;
using vm::Value;

namespace {

/** Closure computation rate (entities packed per second);
 * calibrated so a pybbs-sized closure costs ~134 ms (Section 5.6),
 * fully overlapped with the cold boot. */
constexpr double kClosurePackRate = 3500.0;

} // namespace

uint64_t
Closure::codeBytes(const vm::Program &program) const
{
    uint64_t bytes = 0;
    for (vm::KlassId k : klasses)
        bytes += program.klass(k).code_bytes;
    return bytes;
}

uint64_t
Closure::dataBytes(const Heap &server_heap) const
{
    uint64_t bytes = 0;
    for (Ref r : objects)
        bytes += server_heap.header(r).size;
    return bytes;
}

void
PackageableRegistry::add(vm::Program &program, vm::KlassId klass,
                         PackHook hook)
{
    program.klass(klass).packageable = true;
    hooks_[klass] = std::move(hook);
}

bool
PackageableRegistry::isPackageable(vm::KlassId klass) const
{
    return hooks_.count(klass) > 0;
}

void
PackageableRegistry::marshal(vm::KlassId klass, Ref server_obj,
                             Heap &server_heap, Ref fn_obj,
                             Heap &fn_heap) const
{
    auto it = hooks_.find(klass);
    if (it != hooks_.end() && it->second)
        it->second(server_obj, server_heap, fn_obj, fn_heap);
}

ClosureBuilder::ClosureBuilder(vm::VmContext &server_ctx,
                               const BeeHiveConfig &config, Rng rng)
    : server_(server_ctx), config_(config), rng_(rng)
{
}

Closure
ClosureBuilder::build(vm::MethodId root, const vm::RootProfile *profile,
                      const std::vector<Value> &sample_args)
{
    Closure closure;
    closure.root = root;
    const vm::Program &program = server_.program();
    Heap &heap = server_.heap();

    // --- Code part: the profiled klass set, randomly thinned to
    // model profiling incompleteness. The root's own klass always
    // ships (the function could not even start without it).
    std::set<vm::KlassId> code;
    code.insert(program.method(root).owner);
    if (profile) {
        for (vm::KlassId k : profile->klasses) {
            if (rng_.chance(config_.closure_klass_coverage))
                code.insert(k);
        }
        // Statics ship with their owning klass.
        for (const auto &[k, slot] : profile->statics) {
            code.insert(k);
            closure.statics.emplace_back(k, slot);
        }
    }
    closure.klasses.assign(code.begin(), code.end());

    // --- Data part: BFS from sample args + accessed statics.
    std::deque<std::pair<Ref, int>> queue;
    std::set<Ref> seen;
    auto enqueue = [&](Value v, int depth) {
        if (!v.isRef() || v.asRef() == vm::kNullRef ||
            vm::isRemote(v.asRef())) {
            return;
        }
        Ref r = v.asRef();
        if (seen.insert(r).second)
            queue.emplace_back(r, depth);
    };
    for (const Value &arg : sample_args)
        enqueue(arg, 0);
    for (const auto &[k, slot] : closure.statics)
        enqueue(server_.getStatic(k, slot), 0);

    while (!queue.empty() &&
           closure.objects.size() < config_.closure_max_objects) {
        auto [ref, depth] = queue.front();
        queue.pop_front();
        closure.objects.push_back(ref);
        if (depth >= config_.closure_data_depth)
            continue;
        const vm::ObjHeader &hdr = heap.header(ref);
        if (hdr.kind == ObjKind::Bytes)
            continue;
        for (uint32_t i = 0; i < hdr.count; ++i)
            enqueue(heap.field(ref, i), depth + 1);
    }

    // Closure computation time: proportional to the traversed and
    // packed entities (fully overlappable with cold boot, §5.6).
    double entities = static_cast<double>(closure.objects.size() +
                                          closure.klasses.size());
    closure.build_time =
        sim::SimTime::seconds(entities / kClosurePackRate);
    return closure;
}

namespace {

/**
 * Translate one field value for a function-side copy: included
 * objects become local refs, everything else a remote ref carrying
 * the server address.
 */
Value
translateForFunction(Value v,
                     const std::unordered_map<Ref, Ref> &local_of)
{
    if (!v.isRef() || v.asRef() == vm::kNullRef)
        return v;
    Ref r = v.asRef();
    if (vm::isRemote(r))
        return v;
    auto it = local_of.find(r);
    if (it != local_of.end())
        return Value::ofRef(it->second);
    return Value::ofRef(vm::markRemote(r));
}

} // namespace

InstallResult
installClosure(const Closure &closure, vm::VmContext &server_ctx,
               vm::VmContext &fn_ctx, MappingTable &map,
               const PackageableRegistry &packageables,
               bool pack_enabled)
{
    InstallResult result;
    Heap &server_heap = server_ctx.heap();
    Heap &fn_heap = fn_ctx.heap();
    const vm::Program &program = server_ctx.program();

    for (vm::KlassId k : closure.klasses) {
        fn_ctx.loadKlass(k);
        result.bytes += program.klass(k).code_bytes;
    }

    // Size the address tables once for every object pass 2 maps.
    map.reserve(closure.objects.size());
    fn_ctx.reserveRemote(closure.objects.size());

    // Pass 1: clone every object into the function's closure space.
    std::unordered_map<Ref, Ref> local_of;
    for (Ref server_ref : closure.objects) {
        Ref local = fn_heap.cloneFrom(server_heap, server_ref,
                                      Heap::kClosureSpaceId);
        bh_assert(local != vm::kNullRef,
                  "function closure space exhausted");
        local_of[server_ref] = local;
        result.bytes += server_heap.header(server_ref).size;
        ++result.objects;
    }

    // Pass 2: fix references, set flags, marshal native state,
    // record mappings.
    for (Ref server_ref : closure.objects) {
        Ref local = local_of[server_ref];
        vm::ObjHeader &server_hdr = server_heap.header(server_ref);
        vm::ObjHeader &local_hdr = fn_heap.header(local);
        server_hdr.flags |= vm::kFlagShared;
        if (local_hdr.kind != ObjKind::Bytes) {
            for (uint32_t i = 0; i < local_hdr.count; ++i) {
                fn_heap.setFieldRaw(
                    local, i,
                    translateForFunction(fn_heap.field(local, i),
                                         local_of));
            }
        }
        if (pack_enabled &&
            packageables.isPackageable(local_hdr.klass)) {
            local_hdr.flags |= vm::kFlagPacked;
            packageables.marshal(local_hdr.klass, server_ref,
                                 server_heap, local, fn_heap);
        }
        map.add(server_ref, local);
        fn_ctx.mapRemote(server_ref, local);
    }

    // Statics: translated values for each shipped slot.
    for (const auto &[k, slot] : closure.statics) {
        fn_ctx.setStatic(
            k, slot,
            translateForFunction(server_ctx.getStatic(k, slot),
                                 local_of));
    }
    return result;
}

std::pair<Ref, uint64_t>
fetchObject(Ref server_ref, vm::VmContext &server_ctx,
            vm::VmContext &fn_ctx, MappingTable &map,
            const PackageableRegistry &packageables, bool pack_enabled)
{
    server_ref = vm::stripRemote(server_ref);
    Heap &server_heap = server_ctx.heap();
    Heap &fn_heap = fn_ctx.heap();

    // Idempotent: already fetched objects are returned as-is.
    Ref existing = map.toRemote(server_ref);
    if (existing != vm::kNullRef)
        return {existing, 0};

    Ref local = fn_heap.cloneFrom(server_heap, server_ref,
                                  Heap::kClosureSpaceId);
    bh_assert(local != vm::kNullRef,
              "function closure space exhausted on fetch");
    vm::ObjHeader &local_hdr = fn_heap.header(local);
    vm::ObjHeader &server_hdr = server_heap.header(server_ref);
    server_hdr.flags |= vm::kFlagShared;

    if (local_hdr.kind != ObjKind::Bytes) {
        for (uint32_t i = 0; i < local_hdr.count; ++i) {
            Value v = fn_heap.field(local, i);
            if (!v.isRef() || v.asRef() == vm::kNullRef ||
                vm::isRemote(v.asRef())) {
                continue;
            }
            // Server-address field: already-fetched targets become
            // local, the rest remote.
            Ref known = map.toRemote(v.asRef());
            fn_heap.setFieldRaw(
                local, i,
                Value::ofRef(known != vm::kNullRef
                                 ? known
                                 : vm::markRemote(v.asRef())));
        }
    }
    if (pack_enabled && packageables.isPackageable(local_hdr.klass)) {
        local_hdr.flags |= vm::kFlagPacked;
        packageables.marshal(local_hdr.klass, server_ref, server_heap,
                             local, fn_heap);
    }
    map.add(server_ref, local);
    fn_ctx.mapRemote(server_ref, local);
    return {local, server_hdr.size};
}

std::vector<Value>
copyArgsToFunction(const std::vector<Value> &args,
                   vm::VmContext &server_ctx, vm::VmContext &fn_ctx,
                   int max_depth)
{
    Heap &server_heap = server_ctx.heap();
    Heap &fn_heap = fn_ctx.heap();

    // BFS-copy the argument graphs into the allocation space.
    std::unordered_map<Ref, Ref> local_of;
    std::deque<std::pair<Ref, int>> queue;
    auto intern = [&](Value v, int depth) -> Value {
        if (!v.isRef() || v.asRef() == vm::kNullRef ||
            vm::isRemote(v.asRef())) {
            return v;
        }
        Ref r = v.asRef();
        auto it = local_of.find(r);
        if (it != local_of.end())
            return Value::ofRef(it->second);
        if (depth > max_depth)
            return Value::ofRef(vm::markRemote(r));
        Ref local = fn_heap.cloneFrom(server_heap, r,
                                      fn_heap.allocSpaceId());
        bh_assert(local != vm::kNullRef,
                  "function heap exhausted copying args");
        local_of[r] = local;
        queue.emplace_back(r, depth);
        return Value::ofRef(local);
    };

    std::vector<Value> out;
    out.reserve(args.size());
    for (const Value &arg : args)
        out.push_back(intern(arg, 0));

    while (!queue.empty()) {
        auto [server_ref, depth] = queue.front();
        queue.pop_front();
        Ref local = local_of[server_ref];
        const vm::ObjHeader &hdr = fn_heap.header(local);
        if (hdr.kind == ObjKind::Bytes)
            continue;
        for (uint32_t i = 0; i < hdr.count; ++i) {
            fn_heap.setFieldRaw(
                local, i, intern(fn_heap.field(local, i), depth + 1));
        }
    }
    return out;
}

vm::Value
copyResultToServer(Value result, vm::VmContext &fn_ctx,
                   vm::VmContext &server_ctx, const MappingTable &map)
{
    if (!result.isRef() || result.asRef() == vm::kNullRef)
        return result;
    Ref r = result.asRef();
    if (vm::isRemote(r))
        return Value::ofRef(vm::stripRemote(r)); // it IS a server ref

    Heap &fn_heap = fn_ctx.heap();
    Heap &server_heap = server_ctx.heap();

    std::unordered_map<Ref, Ref> server_of;
    std::function<Value(Value)> intern = [&](Value v) -> Value {
        if (!v.isRef() || v.asRef() == vm::kNullRef)
            return v;
        Ref fr = v.asRef();
        if (vm::isRemote(fr))
            return Value::ofRef(vm::stripRemote(fr));
        Ref mapped = map.toServer(fr);
        if (mapped != vm::kNullRef)
            return Value::ofRef(mapped);
        auto it = server_of.find(fr);
        if (it != server_of.end())
            return Value::ofRef(it->second);
        Ref clone = server_heap.cloneFrom(fn_heap, fr,
                                          server_heap.allocSpaceId());
        bh_assert(clone != vm::kNullRef,
                  "server heap exhausted materializing result");
        server_of[fr] = clone;
        const vm::ObjHeader &hdr = server_heap.header(clone);
        if (hdr.kind != ObjKind::Bytes) {
            for (uint32_t i = 0; i < hdr.count; ++i) {
                server_heap.setFieldRaw(
                    clone, i, intern(server_heap.field(clone, i)));
            }
        }
        return Value::ofRef(clone);
    };
    return intern(result);
}

} // namespace beehive::core
