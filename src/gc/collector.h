/**
 * @file
 * BeeHive's low-pause two-space garbage collector (paper Section 4.4).
 *
 * The FaaS execution model gives objects two sharply different
 * lifecycles: everything in the initial closure (plus later remote
 * fetches) is assumed useful for as long as the instance lives,
 * while objects created during a request die with it. The heap
 * (src/vm) therefore keeps a *closure space* that is never
 * collected and a pair of *allocation semispaces*; this collector
 * performs a Cheney copying collection of the active semispace.
 *
 * Roots are:
 *   - interpreter frames and statics (registered value-root
 *     providers);
 *   - server-side address mapping tables (registered ref-root
 *     providers), so shared objects stay alive and the tables are
 *     updated when objects move -- exactly the paper's server GC
 *     extension;
 *   - closure-space objects on *dirty cards*: the heap marks a
 *     512-byte card whenever a closure->allocation reference is
 *     stored, so only marked cards are scanned instead of the whole
 *     closure space.
 *
 * The collector does real copying and pointer fixup; in addition it
 * *models* the pause duration from the work performed so the
 * simulation can charge it (Section 5.6 reports millisecond-scale
 * median pauses that can overlap with network waits).
 */

#ifndef BEEHIVE_GC_COLLECTOR_H
#define BEEHIVE_GC_COLLECTOR_H

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/sim_time.h"
#include "sim/stats.h"
#include "support/function_ref.h"
#include "vm/heap.h"
#include "vm/value.h"

namespace beehive::gc {

/** Statistics of one collection cycle. */
struct GcCycleStats
{
    uint64_t objects_copied = 0;
    uint64_t bytes_copied = 0;
    uint64_t roots_visited = 0;
    uint64_t cards_scanned = 0;
    uint64_t bytes_freed = 0;
    /** Modelled stop-the-world pause. */
    sim::SimTime pause;
};

/** Lifetime totals across cycles: the one count of the server's
 * collections (exported as `gc.*`); there is no telemetry hook. */
struct GcTotals
{
    uint64_t collections = 0;
    uint64_t bytes_copied = 0;
    sim::SampleSet pause_ms; //!< per-cycle pauses (median stats)
};

/** Cost model for the pause estimate. */
struct GcCostModel
{
    double base_ns = 350000.0;      //!< fixed stop/scan overhead
    double per_copied_byte_ns = 1.6;
    double per_card_ns = 1800.0;
    double per_root_ns = 20.0;
};

/** Copying collector over a Heap's allocation semispaces. */
class SemiSpaceCollector
{
  public:
    /**
     * Visits every value slot that may hold a root reference. The
     * visitors are called once per root, so they are non-owning
     * references; providers are called once per collection.
     */
    using ValueVisitor = FunctionRef<void(vm::Value &)>;
    /** A provider enumerates its roots through the visitor. */
    using ValueRootProvider =
        std::function<void(const ValueVisitor &)>;

    /** Visits raw Ref roots (e.g. mapping-table entries). */
    using RefVisitor = FunctionRef<void(vm::Ref &)>;
    using RefRootProvider = std::function<void(const RefVisitor &)>;

    explicit SemiSpaceCollector(vm::Heap &heap,
                                GcCostModel model = GcCostModel{});

    /** Register a provider of value roots (frames, statics). */
    void addValueRoots(ValueRootProvider p);

    /** Register a provider of ref roots (mapping tables). */
    void addRefRoots(RefRootProvider p);

    /**
     * Run one stop-the-world copying collection.
     *
     * On return the previously active semispace is empty and the
     * heap allocates from the other one.
     */
    GcCycleStats collect();

    const GcTotals &totals() const { return totals_; }

    /** Median pause across all cycles so far (ms; NaN when none). */
    double medianPauseMs() const;

  private:
    /** Copy a from-space object to to-space (idempotent). */
    vm::Ref evacuate(vm::Ref ref);

    /** Evacuate the target of a value slot if needed. */
    void processValue(vm::Value &v);

    vm::Heap &heap_;
    GcCostModel model_;
    std::vector<ValueRootProvider> value_roots_;
    std::vector<RefRootProvider> ref_roots_;
    GcTotals totals_;

    // Per-cycle working state.
    uint8_t from_space_ = 0;
    uint8_t to_space_ = 0;
    GcCycleStats cycle_;
};

} // namespace beehive::gc

#endif // BEEHIVE_GC_COLLECTOR_H
