/**
 * @file
 * Critical-path attribution: fold one request's span tree into a
 * per-phase breakdown whose phases sum to end-to-end latency.
 *
 * Attribution is by *self time*: each span contributes its duration
 * minus the union of its children's intervals to its own Phase.
 * For a well-nested tree (children contained in their parent,
 * siblings non-overlapping -- which the instrumentation guarantees
 * and validateSpans() checks), the per-phase sums add up exactly to
 * the root span's duration.
 */

#ifndef BEEHIVE_TELEMETRY_CRITICAL_PATH_H
#define BEEHIVE_TELEMETRY_CRITICAL_PATH_H

#include <optional>
#include <string>
#include <vector>

#include "sim/stats.h"
#include "telemetry/telemetry.h"

namespace beehive::telemetry {

/** Per-phase self-time breakdown of one request. */
struct PhaseBreakdown
{
    uint64_t request = 0;
    SpanId root = kNoSpan;
    sim::SimTime total; //!< root span duration (end-to-end)
    sim::SimTime by_phase[kPhaseCount];

    /** Sum over phases; equals total for a well-nested tree. */
    sim::SimTime sum() const;
};

/** Mean per-phase breakdown across completed requests. */
struct PhaseAggregate
{
    uint64_t requests = 0; //!< requests with a complete span tree
    sim::SampleSet total_ms;
    sim::SampleSet phase_ms[kPhaseCount];
};

/** Request ids with at least one surviving span, ascending. */
std::vector<uint64_t> requestIds(const Tracer &t);

/**
 * Breakdown for @p request. nullopt when the request has no root
 * span or any span in its tree is still open (incomplete request).
 */
std::optional<PhaseBreakdown> analyzeRequest(const Tracer &t,
                                             uint64_t request);

/** Aggregate analyzeRequest over every completed request. */
PhaseAggregate aggregateBreakdown(const Tracer &t);

/**
 * Structural well-formedness check over all surviving spans:
 * negative durations, children escaping their parent's interval,
 * overlapping siblings, and child spans whose parent was recorded
 * under a different request. Open spans are skipped (a run may end
 * with work in flight). Returns human-readable violations; empty
 * means well formed.
 */
std::vector<std::string> validateSpans(const Tracer &t);

} // namespace beehive::telemetry

#endif // BEEHIVE_TELEMETRY_CRITICAL_PATH_H
