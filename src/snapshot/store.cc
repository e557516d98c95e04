#include "snapshot/store.h"

#include "chaos/chaos.h"

namespace beehive::snapshot {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

void
fnv(uint64_t &h, uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xff;
        h *= kFnvPrime;
    }
}

} // namespace

uint64_t
SnapshotStore::metaChecksum(const WorkingSet &ws)
{
    uint64_t h = kFnvOffset;
    for (vm::KlassId k : ws.klasses)
        fnv(h, k);
    for (const RecordedObject &o : ws.objects) {
        fnv(h, o.ref);
        fnv(h, o.klass);
        fnv(h, o.kind);
        fnv(h, o.count);
        fnv(h, o.size);
        fnv(h, o.gc_epoch);
    }
    return h;
}

SnapshotStore::SnapshotStore(const vm::Heap &server_heap)
    : heap_(server_heap)
{
}

void
SnapshotStore::recordClassFault(vm::MethodId root, vm::KlassId klass)
{
    WorkingSet &ws = roots_[root];
    if (ws.synthetic)
        ++ws.faults_since_synthesis;
    if (!ws.klass_set.insert(klass).second) {
        // A recorded fault landing on a synthetic entry confirms
        // it: the static over-approximation was right here.
        ws.unconfirmed_klasses.erase(klass);
        return;
    }
    ws.klasses.push_back(klass);
    ws.sealed = false;
}

void
SnapshotStore::recordObjectFault(vm::MethodId root,
                                 vm::Ref server_ref,
                                 uint64_t gc_epoch)
{
    server_ref = vm::stripRemote(server_ref);
    if (server_ref == vm::kNullRef)
        return;
    WorkingSet &ws = roots_[root];
    if (ws.synthetic)
        ++ws.faults_since_synthesis;
    if (!ws.object_set.insert(server_ref).second) {
        ws.unconfirmed_objects.erase(server_ref);
        return;
    }
    // The fault was just served from this address, so the header is
    // valid right now; its shape is remembered for revalidation.
    const vm::ObjHeader &hdr = heap_.header(server_ref);
    ws.objects.push_back({server_ref, hdr.klass,
                          static_cast<uint8_t>(hdr.kind), hdr.count,
                          hdr.size, gc_epoch});
    ws.sealed = false;
}

void
SnapshotStore::endRecordedBoot(vm::MethodId root)
{
    WorkingSet &ws = roots_[root];
    ++ws.folded_boots;
    if (!ws.synthetic || ws.faults_since_synthesis == 0)
        return;
    // Refinement: intersect the static over-approximation with what
    // the recorded boot actually touched. Unconfirmed synthetic
    // entries are dropped -- if one turns out to be needed later it
    // just faults through the idempotent fetch path, so this trades
    // bytes for precision, never correctness.
    std::vector<vm::KlassId> kept_klasses;
    for (vm::KlassId k : ws.klasses) {
        if (ws.unconfirmed_klasses.count(k)) {
            ws.klass_set.erase(k);
            ++refined_dropped_;
        } else {
            kept_klasses.push_back(k);
        }
    }
    ws.klasses = std::move(kept_klasses);
    std::vector<RecordedObject> kept_objects;
    for (const RecordedObject &o : ws.objects) {
        if (ws.unconfirmed_objects.count(o.ref)) {
            ws.object_set.erase(o.ref);
            ++refined_dropped_;
        } else {
            kept_objects.push_back(o);
        }
    }
    ws.objects = std::move(kept_objects);
    ws.unconfirmed_klasses.clear();
    ws.unconfirmed_objects.clear();
    ws.faults_since_synthesis = 0;
    ws.synthetic = false; // now a recorded working set
    ws.sealed = false;
}

void
SnapshotStore::synthesizeManifest(
    vm::MethodId root, const std::vector<vm::KlassId> &klasses,
    const std::vector<vm::Ref> &objects, uint64_t gc_epoch)
{
    WorkingSet &ws = roots_[root];
    ws.synthetic = true;
    ++manifests_synthesized_;
    for (vm::KlassId k : klasses) {
        if (!ws.klass_set.insert(k).second)
            continue;
        ws.klasses.push_back(k);
        ws.unconfirmed_klasses.insert(k);
    }
    for (vm::Ref ref : objects) {
        ref = vm::stripRemote(ref);
        if (ref == vm::kNullRef || !ws.object_set.insert(ref).second)
            continue;
        const vm::ObjHeader &hdr = heap_.header(ref);
        ws.objects.push_back({ref, hdr.klass,
                              static_cast<uint8_t>(hdr.kind),
                              hdr.count, hdr.size, gc_epoch});
        ws.unconfirmed_objects.insert(ref);
    }
    ws.sealed = false;
}

bool
SnapshotStore::isSynthetic(vm::MethodId root) const
{
    auto it = roots_.find(root);
    return it != roots_.end() && it->second.synthetic;
}

bool
SnapshotStore::hasImage(vm::MethodId root) const
{
    auto it = roots_.find(root);
    if (it == roots_.end())
        return false;
    const WorkingSet &ws = it->second;
    // A recording serves restores once one boot has been folded;
    // synthetic manifests serve them from boot one: inferring the
    // working set statically is the whole point of the
    // `static_manifests` knob.
    if (!ws.synthetic && ws.folded_boots == 0)
        return false;
    return !ws.klasses.empty() || !ws.objects.empty();
}

bool
SnapshotStore::isFresh(const RecordedObject &obj,
                       uint64_t current_gc_epoch) const
{
    uint8_t space = vm::refSpace(obj.ref);
    if (space != vm::Heap::kClosureSpaceId) {
        // Semispace objects move or die in every collection; the
        // address is only meaningful under the epoch it was
        // recorded at.
        if (obj.gc_epoch != current_gc_epoch)
            return false;
        if (space != heap_.allocSpaceId())
            return false;
    }
    if (vm::refOffset(obj.ref) + sizeof(vm::ObjHeader) >
        heap_.space(space).used()) {
        return false;
    }
    const vm::ObjHeader &hdr = heap_.header(obj.ref);
    return hdr.klass == obj.klass &&
           static_cast<uint8_t>(hdr.kind) == obj.kind &&
           hdr.count == obj.count && hdr.size == obj.size;
}

uint64_t
SnapshotStore::imageBytes(const WorkingSet &ws,
                          uint64_t current_gc_epoch) const
{
    uint64_t n = 32 + 4 * ws.klasses.size();
    for (const RecordedObject &o : ws.objects) {
        if (!isFresh(o, current_gc_epoch))
            continue;
        bool bytes =
            o.kind == static_cast<uint8_t>(vm::ObjKind::Bytes);
        n += 36 + (bytes ? o.count : 9 * uint64_t{o.count});
    }
    return n;
}

RestorePlan
SnapshotStore::planRestore(vm::MethodId root,
                           uint64_t current_gc_epoch)
{
    RestorePlan plan;
    plan.root = root;
    auto it = roots_.find(root);
    if (it == roots_.end())
        return plan;
    WorkingSet &ws = it->second;
    // Seal lazily: a boot's faults change the set one entry at a
    // time, and re-hashing it at each would be quadratic.
    if (!ws.sealed) {
        ws.checksum = metaChecksum(ws);
        ws.sealed = true;
    }

    if (chaos_ && chaos_->enabled() && chaos_->corruptImage()) {
        // Injected storage corruption: flip stored metadata without
        // touching the seal, exactly like a bad sector under a
        // stale checksum.
        if (!ws.objects.empty())
            ws.objects.front().size ^= 0x2a;
        else if (!ws.klasses.empty())
            ws.klasses.front() ^= 0x1;
    }
    if (ws.checksum != metaChecksum(ws)) {
        // Verification failed: never restore from a corrupt image.
        // Drop it so the endpoint re-records from scratch; the
        // caller degrades to the ordinary cold-boot path.
        roots_.erase(it);
        plan.corrupted = true;
        return plan;
    }

    plan.klasses = ws.klasses; // first-fault order
    for (const RecordedObject &o : ws.objects) {
        if (isFresh(o, current_gc_epoch))
            plan.objects.push_back(o.ref);
        else
            ++plan.stale_objects;
    }
    plan.image_bytes = imageBytes(ws, current_gc_epoch);
    return plan;
}

std::vector<ImageComposition>
SnapshotStore::compositions(uint64_t current_gc_epoch) const
{
    std::vector<ImageComposition> out;
    for (const auto &[root, ws] : roots_) {
        ImageComposition c;
        c.root = root;
        c.klasses = ws.klasses.size();
        c.objects = ws.objects.size();
        for (const RecordedObject &o : ws.objects) {
            if (!isFresh(o, current_gc_epoch))
                ++c.stale_objects;
        }
        c.image_bytes = imageBytes(ws, current_gc_epoch);
        c.folded_boots = ws.folded_boots;
        c.synthetic = ws.synthetic;
        out.push_back(c);
    }
    return out;
}

uint64_t
SnapshotStore::verifyCoverage(vm::MethodId root,
                              uint64_t current_gc_epoch)
{
    auto it = roots_.find(root);
    if (it == roots_.end())
        return 0;
    RestorePlan plan = planRestore(root, current_gc_epoch);
    std::set<vm::KlassId> plan_klasses(plan.klasses.begin(),
                                       plan.klasses.end());
    std::set<vm::Ref> plan_objects(plan.objects.begin(),
                                   plan.objects.end());
    uint64_t missing = 0;
    const WorkingSet &ws = it->second;
    for (vm::KlassId k : ws.klasses) {
        if (!plan_klasses.count(k))
            ++missing;
    }
    uint64_t accounted = plan.objects.size() + plan.stale_objects;
    if (accounted != ws.objects.size())
        missing += ws.objects.size() > accounted
                       ? ws.objects.size() - accounted
                       : accounted - ws.objects.size();
    for (const RecordedObject &o : ws.objects) {
        if (!plan_objects.count(o.ref) &&
            isFresh(o, current_gc_epoch)) {
            ++missing;
        }
    }
    return missing;
}

} // namespace beehive::snapshot
