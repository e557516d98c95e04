/**
 * @file
 * Output helpers: the benches print the paper's tables and figure
 * series through these so everything lines up consistently.
 */

#ifndef BEEHIVE_HARNESS_REPORT_H
#define BEEHIVE_HARNESS_REPORT_H

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/trace.h"
#include "telemetry/critical_path.h"
#include "vm/program.h"

namespace beehive::harness {

/** Print a titled, column-aligned table to stdout. */
void printTable(const std::string &title,
                const std::vector<std::string> &headers,
                const std::vector<std::vector<std::string>> &rows);

/**
 * Print a figure series as "label, t0 v0, t1 v1, ..." CSV lines
 * (one line per label) with a titled header.
 */
void printSeriesHeader(const std::string &title,
                       const std::string &x_label,
                       const std::string &y_label);
void printSeries(const std::string &label,
                 const std::vector<double> &xs,
                 const std::vector<double> &ys);

/** Shorthand number formatting. */
std::string fmt(double v, int decimals = 2);

/**
 * Per-endpoint boot-path breakdown aggregated from invocation
 * traces: how many invocations ran on cold-, warm- and
 * restore-booted instances, how many remote fetches (the fault
 * storm) each boot kind paid, and what a restore boot pre-installed.
 */
struct BootBreakdownRow
{
    vm::MethodId root = vm::kNoMethod;
    /** Invocations indexed by cloud::BootKind. */
    uint64_t boots[4] = {0, 0, 0, 0};
    /** Remote fetches (code+data) indexed by cloud::BootKind. */
    uint64_t fetches[4] = {0, 0, 0, 0};
    uint64_t prefetched_klasses = 0;
    uint64_t prefetched_objects = 0;
    uint64_t stale_prefetches = 0;
};

/** Aggregate completed traces into per-root boot breakdown rows. */
std::vector<BootBreakdownRow> collectBootBreakdown(
    const std::vector<std::pair<vm::MethodId, core::RequestTrace>>
        &traces);

/**
 * Print the boot breakdown (mean fetches per boot kind).
 *
 * @param name Resolves a root method id to a printable name (pass
 *        a wrapper over Program::qualifiedName while the program is
 *        alive, or a lookup over recorded names afterwards).
 */
void printBootBreakdown(
    const std::string &title,
    const std::function<std::string(vm::MethodId)> &name,
    const std::vector<BootBreakdownRow> &rows);

/**
 * Store-level churn of one run's SnapshotStore: how many manifests
 * were synthesized statically, how many synthetic entries recorded
 * boots refined away, and how many prefetches were stale. Printed
 * next to the boot breakdown.
 */
struct SnapshotChurn
{
    uint64_t manifests_synthesized = 0;
    uint64_t refined_dropped = 0;
    uint64_t stale_prefetches = 0; //!< summed over the traces
};

void printSnapshotChurn(const std::string &title,
                        const SnapshotChurn &churn);

/**
 * Print a critical-path phase aggregate: one row per phase with the
 * total and per-request mean milliseconds of self-time attributed
 * to it, plus a closing total row. The phase rows sum to the total
 * (the analyzer attributes every nanosecond of a request's root
 * span to exactly one phase), so the table reads as "where did the
 * end-to-end latency go".
 */
void printPhaseBreakdown(const std::string &title,
                         const telemetry::PhaseAggregate &agg);

} // namespace beehive::harness

#endif // BEEHIVE_HARNESS_REPORT_H
