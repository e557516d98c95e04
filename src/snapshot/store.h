/**
 * @file
 * The snapshot store: record-and-prefetch working sets per endpoint.
 *
 * On an offload endpoint's first cold boots the BeeHive runtime
 * records the *realized* working set -- every klass the function
 * class-faulted on and every server object it object-faulted on --
 * and folds it into this store. Once one boot was folded, a
 * fresh instance for that endpoint takes a *restore boot*: the
 * platform charges `restore_boot_base + image_bytes / bandwidth`
 * and the recorded working set is pre-installed on the function VM
 * before the shadow execution starts, so the Table 5 fault storm
 * never happens.
 *
 * One working set per endpoint: every server enables exactly one
 * offload root, so the store holds at most one image per root and
 * is bounded by the enabled roots; nothing is layered or evicted.
 *
 * Staleness: recorded server addresses in the allocation semispaces
 * are only valid while the server GC epoch they were recorded under
 * is still current (the copying collector moves or frees them);
 * closure-space addresses never move. planRestore() revalidates
 * every entry against the live heap and silently drops stale ones --
 * they simply fault at run time through the normal fetch path, so a
 * stale image degrades to extra fetches, never to a wrong answer.
 *
 * Synthesis: under the `static_manifests` knob the offload manager
 * feeds this store *statically inferred* working sets
 * (vm/reachability_analysis.h) via synthesizeManifest(). A
 * synthetic manifest serves restore boots immediately -- no cold
 * boot ever has to be recorded first -- and is refined by whatever
 * recorded boots do happen later: entries of the static
 * over-approximation that no recorded boot confirms are dropped
 * (the intersection claws back the overfetch), which is safe
 * because a dropped entry that turns out to be needed simply
 * faults through the idempotent fetch path.
 */

#ifndef BEEHIVE_SNAPSHOT_STORE_H
#define BEEHIVE_SNAPSHOT_STORE_H

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "vm/heap.h"
#include "vm/program.h"

namespace beehive::chaos {
class ChaosEngine;
}

namespace beehive::snapshot {

/** Everything a restore boot pre-installs for one endpoint. */
struct RestorePlan
{
    vm::MethodId root = vm::kNoMethod;
    /** Klasses to pre-load, first-fault order. */
    std::vector<vm::KlassId> klasses;
    /** Epoch-fresh server objects to prefetch, first-fault order. */
    std::vector<vm::Ref> objects;
    /** Recorded objects dropped by staleness revalidation. */
    uint64_t stale_objects = 0;
    /** Stored image failed checksum verification: the plan is empty,
     * the image was dropped, the caller must cold-boot instead. */
    bool corrupted = false;
    /** Modeled transfer size of the image (see imageBytes()). */
    uint64_t image_bytes = 0;
};

/** Per-endpoint image composition (hivelint / report). */
struct ImageComposition
{
    vm::MethodId root = vm::kNoMethod;
    std::size_t klasses = 0;
    std::size_t objects = 0;
    uint64_t image_bytes = 0; //!< as a restore plan would model it
    uint64_t folded_boots = 0;
    uint64_t stale_objects = 0; //!< stale right now (vs live heap)
    bool synthetic = false;     //!< static manifest, not yet refined
};

/** Records working sets and plans restore boots. */
class SnapshotStore
{
  public:
    /** @param server_heap The live server heap recordings refer to. */
    explicit SnapshotStore(const vm::Heap &server_heap);

    /** @name Recording (driven by the cold-boot fault handlers) */
    /// @{
    void recordClassFault(vm::MethodId root, vm::KlassId klass);
    void recordObjectFault(vm::MethodId root, vm::Ref server_ref,
                           uint64_t gc_epoch);
    /** Fold one finished cold boot. */
    void endRecordedBoot(vm::MethodId root);
    /// @}

    /**
     * Install a statically inferred working set for @p root (klass
     * closure + resolved object footprint). The endpoint serves
     * restore boots immediately, before any boot is folded.
     * Recorded faults landing on synthetic entries *confirm* them;
     * when a recorded boot ends, still-unconfirmed synthetic
     * entries are dropped (refinement).
     */
    void synthesizeManifest(vm::MethodId root,
                            const std::vector<vm::KlassId> &klasses,
                            const std::vector<vm::Ref> &objects,
                            uint64_t gc_epoch);

    /** Is @p root's image (still) a static, unrefined manifest? */
    bool isSynthetic(vm::MethodId root) const;

    /** True when @p root has an image ready for restore boots: a
     * synthetic manifest, or a recording with one folded boot. */
    bool hasImage(vm::MethodId root) const;

    /**
     * Build the restore plan for @p root against the live heap at
     * @p current_gc_epoch. Stale entries are dropped and counted.
     */
    RestorePlan planRestore(vm::MethodId root,
                            uint64_t current_gc_epoch);

    /** Composition summary of every recorded endpoint. */
    std::vector<ImageComposition>
    compositions(uint64_t current_gc_epoch) const;

    /**
     * Coverage invariant: every recorded object is either in the
     * restore plan or counted stale, and every recorded klass is in
     * the plan. @return the number of violations (0 = sound).
     */
    uint64_t verifyCoverage(vm::MethodId root,
                            uint64_t current_gc_epoch);

    /** @name Introspection */
    /// @{
    uint64_t recordedRoots() const { return roots_.size(); }
    uint64_t manifestsSynthesized() const
    {
        return manifests_synthesized_;
    }
    /** Synthetic entries dropped by recorded-boot refinement. */
    uint64_t refinedDropped() const { return refined_dropped_; }
    /// @}

    /** Attach the fault-injection engine (nullptr detaches). With
     * chaos armed, planRestore() may find its stored metadata
     * corrupted; the checksum seal catches it and the restore falls
     * back to the cold path. */
    void setChaos(chaos::ChaosEngine *chaos) { chaos_ = chaos; }

  private:
    struct RecordedObject
    {
        vm::Ref ref = vm::kNullRef;
        uint32_t klass = 0;
        uint8_t kind = 0;
        uint32_t count = 0;
        uint32_t size = 0;
        uint64_t gc_epoch = 0;
    };

    struct WorkingSet
    {
        std::vector<vm::KlassId> klasses; //!< first-fault order
        std::set<vm::KlassId> klass_set;
        std::vector<RecordedObject> objects; //!< first-fault order
        std::set<vm::Ref> object_set;
        uint64_t folded_boots = 0;
        /** Statically synthesized, not yet refined by a recording. */
        bool synthetic = false;
        /** Synthetic entries no recorded fault has confirmed yet. */
        std::set<vm::KlassId> unconfirmed_klasses;
        std::set<vm::Ref> unconfirmed_objects;
        /** Faults recorded since synthesis (refinement trigger). */
        uint64_t faults_since_synthesis = 0;
        /** Integrity seal over the recorded metadata (klass list +
         * object shapes), valid while `sealed`; a mutation unseals
         * it and planRestore() seals it before reading the image. */
        uint64_t checksum = 0;
        bool sealed = false;
    };

    /** Is @p obj still the object that was recorded? */
    bool isFresh(const RecordedObject &obj,
                 uint64_t current_gc_epoch) const;

    /** Modeled transfer size of @p ws's image at
     * @p current_gc_epoch: a 32-byte header, 4 B per klass and, per
     * fresh object, a 36-byte shape record plus its payload
     * (`count` bytes for a Bytes object, a 9-byte tagged slot per
     * field or element otherwise). Stale objects are not sent. */
    uint64_t imageBytes(const WorkingSet &ws,
                        uint64_t current_gc_epoch) const;

    /** FNV-1a over the working set's persistent metadata. */
    static uint64_t metaChecksum(const WorkingSet &ws);

    const vm::Heap &heap_;
    std::map<vm::MethodId, WorkingSet> roots_;
    uint64_t manifests_synthesized_ = 0;
    uint64_t refined_dropped_ = 0;
    chaos::ChaosEngine *chaos_ = nullptr;
};

} // namespace beehive::snapshot

#endif // BEEHIVE_SNAPSHOT_STORE_H
