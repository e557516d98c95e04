/**
 * @file
 * The offload manager: BeeHive's scaling brain.
 *
 * Incoming requests are split between local execution and FaaS
 * offload by the *offloading ratio* (Section 3.1: "BeeHive can scale
 * in and out by setting the ratio"); a burst handler (in the
 * experiment harness) raises the ratio when a burst hits and lowers
 * it when capacity returns.
 *
 * For each offloaded request the manager acquires a function
 * instance from the platform (cold or warm), installs the root's
 * initial closure on first contact, and applies shadow execution
 * (Section 3.4): the first invocation per (instance, root) runs as
 * a side-effect-free duplicate while the real request is served
 * locally, hiding cold boot + JVM warmup + fallback storms from
 * users. Warmed instances serve real offloaded requests.
 *
 * Failure recovery (Section 4.5): with recovery enabled, functions
 * snapshot their stack at each synchronization point; when an
 * instance is killed mid-invocation the manager reruns the request
 * on a fresh instance, resuming from the snapshot when one exists.
 *
 * End-to-end failure handling (the fault-injection plane rides on
 * these mechanisms; all of them are off by default and
 * byte-identical-off):
 *
 *   - per-flight invocation deadlines (config.offload_deadline):
 *     an attempt that has not completed by the deadline is aborted
 *     and retried or re-executed locally;
 *   - bounded retries with capped exponential backoff and
 *     deterministic jitter (config.offload_max_retries /
 *     retry_backoff_*); exhausting the budget falls back to a
 *     suppressed local execution, so no request is ever dropped;
 *   - exactly-once: every offloaded attempt keys its database
 *     writes with (flight id, write seq) idempotency keys, so a
 *     retry or local fallback never double-applies a write;
 *   - a per-instance circuit breaker (config.breaker_threshold):
 *     instances accumulating failure strikes are ejected from the
 *     pool instead of being recycled;
 *   - graceful degradation (config.graceful_degradation): a
 *     sliding window of attempt outcomes halves the effective
 *     offload ratio on error-rate spikes and doubles it back on
 *     clean windows.
 */

#ifndef BEEHIVE_CORE_OFFLOAD_H
#define BEEHIVE_CORE_OFFLOAD_H

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "cloud/faas.h"
#include "core/closure.h"
#include "core/function.h"
#include "core/server.h"
#include "telemetry/telemetry.h"
#include "vm/offload_analysis.h"

namespace beehive::chaos {
class ChaosEngine;
}

namespace beehive::core {

/** Offload manager event counts. */
struct OffloadStats
{
    uint64_t local = 0;         //!< requests served on the server
    uint64_t flights = 0;       //!< offload flights opened
    uint64_t completed = 0;     //!< flights completed remotely
    uint64_t offloaded = 0;     //!< real offloaded requests
    uint64_t shadows = 0;       //!< shadow executions launched
    uint64_t restores = 0;      //!< restore boots taken from images
    uint64_t closure_installs = 0;
    /** @name Failure handling (chaos / deadline / retry plane) */
    /// @{
    uint64_t retries = 0;           //!< failed attempts re-dispatched
    uint64_t kills = 0;             //!< instances killed mid-invocation
    uint64_t deadline_expirations = 0;
    uint64_t boot_failures = 0;     //!< boot crashes + throttles
    uint64_t local_fallbacks = 0;   //!< retries exhausted -> local
    uint64_t shadows_abandoned = 0; //!< failed shadows not retried
    uint64_t breaker_ejections = 0; //!< instances struck out
    uint64_t degradations = 0;      //!< effective ratio halvings
    uint64_t degrade_recoveries = 0;//!< ratio doublings back up
    uint64_t corrupt_restores = 0;  //!< images failing checksum
    /// @}
    /** @name Enabled roots the static analysis did not find
     * offload-safe */
    /// @{
    uint64_t roots_needs_fallback = 0;
    uint64_t roots_local_only = 0;
    /// @}
};

/** Routes requests between the server and FaaS functions. */
class OffloadManager
{
  public:
    using DoneCb = BeeHiveServer::DoneCb;

    /**
     * Creating the manager installs the offload policy and dispatch
     * hook on the server: annotated handler call sites then
     * redirect to FaaS per the offloading ratio.
     */
    OffloadManager(BeeHiveServer &server,
                   cloud::FaasPlatform &platform);

    /** @name Scaling control */
    /// @{
    /** Set the fraction of requests sent to FaaS (0 disables). */
    void setOffloadRatio(double ratio);
    double offloadRatio() const { return ratio_; }

    /**
     * The ratio actually applied to offload decisions: the
     * configured ratio scaled by the degradation factor. Bitwise
     * equal to offloadRatio() while no degradation is active.
     */
    double effectiveRatio() const
    {
        return degrade_factor_ >= 1.0 ? ratio_
                                      : ratio_ * degrade_factor_;
    }

    /** Current graceful-degradation factor in (0, 1]. */
    double degradeFactor() const { return degrade_factor_; }

    /** Cap concurrent offloaded invocations (excess runs locally). */
    void setMaxConcurrentOffloads(std::size_t n) { max_offloads_ = n; }
    /// @}

    /**
     * Declare @p root offloadable and remember representative
     * arguments for closure construction. Typically fed from
     * Profiler::selectRoots(). Runs the static offloadability
     * analysis on @p root: the classification is logged and
     * counted in stats().
     */
    void enableRoot(vm::MethodId root,
                    std::vector<vm::Value> sample_args);

    bool isEnabled(vm::MethodId root) const;

    /** Static classification recorded when @p root was enabled. */
    vm::OffloadClass classification(vm::MethodId root) const;

    /**
     * Main entry: serve one request, locally or offloaded per the
     * current ratio.
     */
    void handleRequest(vm::MethodId root, std::vector<vm::Value> args,
                       DoneCb done);

    /**
     * Kill the function currently running @p victim_index-th
     * in-flight offloaded invocation (failure injection). The
     * request is recovered on a fresh instance.
     *
     * @retval false when no in-flight offloaded invocation exists.
     */
    bool injectFailure();

    /**
     * True when some in-flight invocation has passed a sync point
     * and holds a snapshot it could be resumed from (i.e. a kill
     * right now would recover by resume rather than by full
     * re-execution). Failure-injection helpers use this to place a
     * kill on the paper's Section 4.5 resume path deterministically.
     */
    bool snapshotAvailable();

    /**
     * Attach the fault-injection engine (nullptr detaches). The
     * engine's scheduled KillInvocation events route through
     * injectFailure(); probabilistic mid-invocation crashes are
     * drawn at each dispatch.
     */
    void setChaos(chaos::ChaosEngine *chaos);

    const OffloadStats &stats() const { return stats_; }

    /** Function-side event counts over every instance. */
    const FunctionStats &functionStats() const { return fn_stats_; }

    /** All completed traces as (root, trace) pairs (Table 5). */
    const std::vector<std::pair<vm::MethodId, RequestTrace>> &
    traces() const
    {
        return traces_;
    }

    /** The closure built for @p root (closure metrics; may build). */
    const Closure &closureFor(vm::MethodId root);

    BeeHiveServer &server() { return server_; }
    cloud::FaasPlatform &platform() { return platform_; }

  private:
    struct RootState
    {
        bool enabled = false;
        bool closure_built = false;
        vm::OffloadClass klass = vm::OffloadClass::OffloadSafe;
        Closure closure;
        std::vector<vm::Value> sample_args;
    };

    struct InFlight
    {
        vm::MethodId root = vm::kNoMethod;
        std::vector<vm::Value> args;
        DoneCb done;
        cloud::FunctionInstance *instance = nullptr;
        bool shadow = false;
        /** Instance boots through the restore path; @ref plan is
         * pre-installed before the first dispatch. */
        bool restore = false;
        snapshot::RestorePlan plan;
        /**
         * Failed attempts so far. Doubles as the attempt *era*:
         * every asynchronous continuation of an attempt captures
         * the era it was dispatched under and bails out when the
         * flight has since failed over to a newer attempt, so
         * stale boot/transfer/crash callbacks can never dispatch
         * on a flight that already moved on.
         */
        uint32_t attempts = 0;
        /** Armed per-attempt deadline (cancelled on completion). */
        sim::EventId deadline_event = 0;
        bool deadline_armed = false;
        /** Recovery state captured when the serving instance died. */
        bool had_snapshot = false;
        std::vector<vm::Frame> snapshot;
        uint64_t snapshot_seq = 0;
        /** Telemetry: the request this flight records under and its
         * umbrella span. A shadow conversion re-roots both (the
         * shadow outlives the user request, so it gets its own
         * request id to keep span trees well nested). */
        uint64_t trace_request = 0;
        telemetry::SpanId span = telemetry::kNoSpan;
    };

    void offload(vm::MethodId root, std::vector<vm::Value> args,
                 DoneCb done);

    /**
     * Serve the user's request by a suppressed local execution and
     * turn the flight into a shadow (cold path and cached-unwarmed
     * path both use this).
     */
    void shadowLocalLeg(InFlight &flight, vm::MethodId root);

    /** OffloadCall dispatch from a server-side interpreter. */
    void dispatchOffloadCall(vm::MethodId root,
                             std::vector<vm::Value> args, DoneCb done);

    /** Run the invocation once the instance + closure are ready. */
    void dispatchOn(cloud::FunctionInstance &inst, uint64_t flight_id);

    BeeHiveFunction &functionOf(cloud::FunctionInstance &inst);

    void finishFlight(uint64_t flight_id, vm::Value result,
                      const RequestTrace &trace);

    /** @name Failure handling */
    /// @{
    /**
     * Kill the instance serving @p flight_id mid-invocation
     * (failure injection / chaos crash), capturing recovery state,
     * then fail the attempt.
     */
    void killFlight(uint64_t flight_id);

    /**
     * One attempt of @p flight_id failed (deadline, boot failure,
     * kill; the caller counts the cause). Tears the attempt down,
     * applies the circuit breaker and degradation bookkeeping, and
     * either schedules a retry (after backoff) or falls back to
     * local execution.
     */
    void failFlight(uint64_t flight_id);

    /** Re-dispatch a failed flight on a fresh instance. */
    void retryAttempt(uint64_t flight_id);

    /** Retry budget exhausted: serve the request locally (real
     * flights) or abandon it (shadows). */
    void localFallback(uint64_t flight_id);

    /** A boot crash or throttle failed attempt @p era. */
    void onBootFailure(uint64_t flight_id, uint32_t era);

    void armDeadline(uint64_t flight_id);
    void cancelDeadline(InFlight &flight);

    /** Backoff before retry attempt @p attempt: capped exponential
     * with deterministic (mix64-derived) jitter. */
    sim::SimTime backoffDelay(uint64_t flight_id,
                              uint32_t attempt) const;

    /** Circuit breaker: strike the failed instance; eject it at
     * the threshold, otherwise recycle it into the warm pool. */
    void releaseFailedInstance(InFlight &flight);

    /** Feed the graceful-degradation window (no-op when off). */
    void noteOutcome(bool ok);

    /** Chaos: maybe schedule a mid-invocation crash of the attempt
     * that is being dispatched right now. */
    void maybeScheduleInvokeCrash(uint64_t flight_id);
    /// @}

    BeeHiveServer &server_;
    cloud::FaasPlatform &platform_;
    double ratio_ = 0.0;
    std::size_t max_offloads_ = 64;
    std::size_t active_offloads_ = 0;
    std::map<vm::MethodId, RootState> roots_;
    std::map<uint64_t, InFlight> flights_;
    uint64_t next_flight_ = 1;
    OffloadStats stats_;
    FunctionStats fn_stats_;
    std::vector<std::pair<vm::MethodId, RequestTrace>> traces_;
    Rng rng_;
    chaos::ChaosEngine *chaos_ = nullptr;
    /** Circuit breaker: failure strikes per live instance. */
    std::map<cloud::FunctionInstance *, uint32_t> strikes_;
    /** Graceful degradation: recent attempt outcomes + factor. */
    std::deque<bool> outcome_window_;
    double degrade_factor_ = 1.0;
};

} // namespace beehive::core

#endif // BEEHIVE_CORE_OFFLOAD_H
