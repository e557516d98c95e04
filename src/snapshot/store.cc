#include "snapshot/store.h"

#include <algorithm>

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

SnapshotStore::SnapshotStore(const vm::Program &program,
                             const vm::Heap &server_heap,
                             uint64_t budget_bytes,
                             uint32_t min_boots)
    : program_(program), heap_(server_heap),
      budget_bytes_(budget_bytes), min_boots_(min_boots)
{
}

SnapshotStore::WorkingSet &
SnapshotStore::workingSetFor(vm::MethodId root)
{
    if (!roots_.count(root) && evicted_roots_.erase(root))
        ++re_records_;
    return roots_[root];
}

void
SnapshotStore::recordClassFault(vm::MethodId root, vm::KlassId klass)
{
    WorkingSet &ws = workingSetFor(root);
    if (ws.synthetic)
        ++ws.faults_since_synthesis;
    if (!ws.klass_set.insert(klass).second) {
        // A recorded fault landing on a synthetic entry confirms
        // it: the static over-approximation was right here.
        ws.unconfirmed_klasses.erase(klass);
        return;
    }
    ws.klasses.push_back(klass);
    uint64_t bytes = program_.klass(klass).code_bytes;
    ws.bytes += bytes;
    total_bytes_ += bytes;
    reseal(ws);
}

void
SnapshotStore::recordObjectFault(vm::MethodId root,
                                 vm::Ref server_ref,
                                 uint64_t gc_epoch)
{
    server_ref = vm::stripRemote(server_ref);
    if (server_ref == vm::kNullRef)
        return;
    WorkingSet &ws = workingSetFor(root);
    if (ws.synthetic)
        ++ws.faults_since_synthesis;
    if (!ws.object_set.insert(server_ref).second) {
        ws.unconfirmed_objects.erase(server_ref);
        return;
    }
    // The fault was just served from this address, so the header is
    // valid right now; its shape is remembered for revalidation.
    const vm::ObjHeader &hdr = heap_.header(server_ref);
    RecordedObject obj;
    obj.ref = server_ref;
    obj.klass = hdr.klass;
    obj.kind = static_cast<uint8_t>(hdr.kind);
    obj.count = hdr.count;
    obj.size = hdr.size;
    obj.gc_epoch = gc_epoch;
    ws.objects.push_back(obj);
    ws.bytes += hdr.size;
    total_bytes_ += hdr.size;
    reseal(ws);
}

void
SnapshotStore::endRecordedBoot(vm::MethodId root)
{
    WorkingSet &ws = workingSetFor(root);
    ++ws.folded_boots;
    ws.lru = ++lru_clock_;
    if (ws.synthetic && ws.faults_since_synthesis > 0) {
        // Refinement: intersect the static over-approximation with
        // what the recorded boot actually touched. Unconfirmed
        // synthetic entries are dropped -- if one turns out to be
        // needed later it just faults through the idempotent fetch
        // path, so this trades bytes for precision, never
        // correctness.
        std::vector<vm::KlassId> kept_klasses;
        for (vm::KlassId k : ws.klasses) {
            if (ws.unconfirmed_klasses.count(k)) {
                ws.klass_set.erase(k);
                uint64_t bytes = program_.klass(k).code_bytes;
                ws.bytes -= bytes;
                total_bytes_ -= bytes;
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
                ws.bytes -= o.size;
                total_bytes_ -= o.size;
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
        reseal(ws);
    }
    evictOverBudget();
}

void
SnapshotStore::synthesizeManifest(
    vm::MethodId root, const std::vector<vm::KlassId> &klasses,
    const std::vector<vm::Ref> &objects, uint64_t gc_epoch)
{
    WorkingSet &ws = workingSetFor(root);
    ws.synthetic = true;
    ++manifests_synthesized_;
    for (vm::KlassId k : klasses) {
        if (!ws.klass_set.insert(k).second)
            continue;
        ws.klasses.push_back(k);
        ws.unconfirmed_klasses.insert(k);
        uint64_t bytes = program_.klass(k).code_bytes;
        ws.bytes += bytes;
        total_bytes_ += bytes;
    }
    for (vm::Ref ref : objects) {
        ref = vm::stripRemote(ref);
        if (ref == vm::kNullRef || !ws.object_set.insert(ref).second)
            continue;
        const vm::ObjHeader &hdr = heap_.header(ref);
        RecordedObject obj;
        obj.ref = ref;
        obj.klass = hdr.klass;
        obj.kind = static_cast<uint8_t>(hdr.kind);
        obj.count = hdr.count;
        obj.size = hdr.size;
        obj.gc_epoch = gc_epoch;
        ws.objects.push_back(obj);
        ws.unconfirmed_objects.insert(ref);
        ws.bytes += hdr.size;
        total_bytes_ += hdr.size;
    }
    reseal(ws);
    ws.lru = ++lru_clock_;
    evictOverBudget();
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
    // Synthetic manifests serve restores from boot one: inferring
    // the working set statically is the whole point of the
    // `static_manifests` knob.
    if (!ws.synthetic && ws.folded_boots < min_boots_)
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

void
SnapshotStore::computeBase(std::set<vm::KlassId> &base_klasses,
                           std::set<vm::Ref> &base_objects) const
{
    std::map<vm::KlassId, int> klass_refs;
    std::map<vm::Ref, int> object_refs;
    for (const auto &[root, ws] : roots_) {
        if (ws.folded_boots == 0)
            continue;
        for (vm::KlassId k : ws.klasses)
            ++klass_refs[k];
        for (const RecordedObject &o : ws.objects)
            ++object_refs[o.ref];
    }
    for (const auto &[k, n] : klass_refs) {
        if (n >= 2)
            base_klasses.insert(k);
    }
    for (const auto &[r, n] : object_refs) {
        if (n >= 2)
            base_objects.insert(r);
    }
}

SnapshotImage
SnapshotStore::buildBaseImage(uint64_t current_gc_epoch) const
{
    std::set<vm::KlassId> base_klasses;
    std::set<vm::Ref> base_objects;
    computeBase(base_klasses, base_objects);

    SnapshotImage image;
    image.klasses.assign(base_klasses.begin(), base_klasses.end());
    // Canonical object order for the shared layer: by address.
    for (const auto &[root, ws] : roots_) {
        for (const RecordedObject &o : ws.objects) {
            if (!base_objects.count(o.ref))
                continue;
            base_objects.erase(o.ref); // each object once
            if (!isFresh(o, current_gc_epoch))
                continue;
            ImageObject img;
            img.server_ref = o.ref;
            img.klass = o.klass;
            img.kind = o.kind;
            img.space = vm::refSpace(o.ref);
            img.count = o.count;
            img.size = o.size;
            img.gc_epoch = o.gc_epoch;
            SnapshotImage::capturePayload(heap_, o.ref, img);
            image.objects.push_back(std::move(img));
        }
    }
    std::sort(image.objects.begin(), image.objects.end(),
              [](const ImageObject &a, const ImageObject &b) {
                  return a.server_ref < b.server_ref;
              });
    return image;
}

SnapshotImage
SnapshotStore::buildDeltaImage(vm::MethodId root,
                               uint64_t current_gc_epoch) const
{
    SnapshotImage image;
    auto it = roots_.find(root);
    if (it == roots_.end())
        return image;
    std::set<vm::KlassId> base_klasses;
    std::set<vm::Ref> base_objects;
    computeBase(base_klasses, base_objects);

    const WorkingSet &ws = it->second;
    for (vm::KlassId k : ws.klasses) {
        if (!base_klasses.count(k))
            image.klasses.push_back(k);
    }
    std::sort(image.klasses.begin(), image.klasses.end());
    for (const RecordedObject &o : ws.objects) {
        if (base_objects.count(o.ref))
            continue;
        if (!isFresh(o, current_gc_epoch))
            continue;
        ImageObject img;
        img.server_ref = o.ref;
        img.klass = o.klass;
        img.kind = o.kind;
        img.space = vm::refSpace(o.ref);
        img.count = o.count;
        img.size = o.size;
        img.gc_epoch = o.gc_epoch;
        SnapshotImage::capturePayload(heap_, o.ref, img);
        image.objects.push_back(std::move(img));
    }
    return image;
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
    ws.lru = ++lru_clock_;

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
        // Evict it so the endpoint re-records from scratch; the
        // caller degrades to the ordinary cold-boot path.
        total_bytes_ -= ws.bytes;
        evicted_roots_.insert(root);
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

    SnapshotImage base = buildBaseImage(current_gc_epoch);
    SnapshotImage delta = buildDeltaImage(root, current_gc_epoch);
    plan.image_bytes = base.byteSize() + delta.byteSize();
    plan.base_hash = base.contentHash();
    plan.delta_hash = delta.contentHash();
    return plan;
}

std::vector<ImageComposition>
SnapshotStore::compositions(uint64_t current_gc_epoch) const
{
    std::set<vm::KlassId> base_klasses;
    std::set<vm::Ref> base_objects;
    computeBase(base_klasses, base_objects);
    SnapshotImage base = buildBaseImage(current_gc_epoch);
    uint64_t base_bytes = base.byteSize();
    uint64_t base_hash = base.contentHash();

    std::vector<ImageComposition> out;
    for (const auto &[root, ws] : roots_) {
        ImageComposition c;
        c.root = root;
        c.klasses = ws.klasses.size();
        c.objects = ws.objects.size();
        for (vm::KlassId k : ws.klasses) {
            if (base_klasses.count(k))
                ++c.base_klasses;
        }
        for (const RecordedObject &o : ws.objects) {
            if (base_objects.count(o.ref))
                ++c.base_objects;
            if (!isFresh(o, current_gc_epoch))
                ++c.stale_objects;
        }
        SnapshotImage delta =
            buildDeltaImage(root, current_gc_epoch);
        c.base_bytes = base_bytes;
        c.delta_bytes = delta.byteSize();
        c.base_hash = base_hash;
        c.delta_hash = delta.contentHash();
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

void
SnapshotStore::evictOverBudget()
{
    while (total_bytes_ > budget_bytes_ && roots_.size() > 1) {
        auto victim = roots_.end();
        for (auto it = roots_.begin(); it != roots_.end(); ++it) {
            if (victim == roots_.end() ||
                it->second.lru < victim->second.lru) {
                victim = it;
            }
        }
        total_bytes_ -= victim->second.bytes;
        evicted_roots_.insert(victim->first);
        roots_.erase(victim);
        ++evictions_;
    }
}

} // namespace beehive::snapshot
