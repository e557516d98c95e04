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
 * snapshot their stack at each synchronization point; a failed
 * attempt reruns on a fresh instance, resuming from its snapshot
 * when it has one. Every flight goes through one lifecycle: each
 * continuation finds it through live() by attempt era, launch()
 * starts every attempt and retire() ends the flight. Its failure
 * handling (the fault-injection plane rides on it):
 *
 *   - bounded retries (config.offload_max_retries, default 6) with
 *     capped exponential backoff (retry_backoff_base, 5 ms) and
 *     deterministic jitter; exhausting the budget falls back to a
 *     suppressed local execution, so no request is ever dropped;
 *   - exactly-once: every offloaded attempt keys its database
 *     writes with (flight id, write seq) idempotency keys, so a
 *     retry or local fallback never double-applies a write;
 *   - a per-instance circuit breaker (config.breaker_threshold, 3):
 *     instances failing that many attempts in a row are ejected
 *     from the pool instead of being recycled.
 *
 * None of the three has an "off" value: the constructor rejects 0.
 * Off by default, and changing no output while off:
 *
 *   - per-flight invocation deadlines (config.offload_deadline):
 *     an attempt that has not completed by the deadline is aborted
 *     and retried or re-executed locally;
 *   - graceful degradation (config.graceful_degradation): a
 *     sliding window of attempt outcomes halves the effective
 *     offload ratio on error-rate spikes and doubles it back on
 *     clean windows.
 */

#ifndef BEEHIVE_CORE_OFFLOAD_H
#define BEEHIVE_CORE_OFFLOAD_H

#include <deque>
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
     * Kill the function of the oldest in-flight offloaded
     * invocation that is running (failure injection). The request
     * is recovered on a fresh instance.
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
         * the era it was dispatched under and finds the flight
         * through live(), so stale boot/transfer/crash callbacks
         * can never dispatch on a flight that already moved on.
         */
        uint32_t attempts = 0;
        /** Armed per-attempt deadline; 0 when none is armed (live
         * event ids are never 0). */
        sim::EventId deadline_event = 0;
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

    /** Run the first attempt once the flight's instance is up. */
    void dispatchOn(uint64_t flight_id, InFlight &flight);

    /** Start an attempt on the flight's instance: resume from the
     * captured snapshot, if any, else invoke afresh. */
    void launch(uint64_t flight_id, InFlight &flight);

    /** Install @p root's closure; returns the transfer time. */
    sim::SimTime installClosure(BeeHiveFunction &fn, vm::MethodId root);

    /** The flight while attempt @p era is current, else nullptr. */
    InFlight *live(uint64_t flight_id, uint32_t era);

    /** Remove the flight, cancel its deadline, free its slot. */
    InFlight retire(uint64_t flight_id);

    BeeHiveFunction &functionOf(cloud::FunctionInstance &inst);

    /** The function mid-invocation for @p flight, or nullptr. */
    BeeHiveFunction *busyFunction(const InFlight &flight);

    void finishFlight(uint64_t flight_id, vm::Value result,
                      const RequestTrace &trace);

    /** @name Failure handling */
    /// @{
    /**
     * Kill @p fn, which is serving @p flight_id mid-invocation
     * (failure injection / chaos crash), capturing recovery state,
     * then fail the attempt.
     */
    void killFlight(uint64_t flight_id, InFlight &flight,
                    BeeHiveFunction &fn);

    /** Copy the serving function's snapshot if this flight took it. */
    bool captureSnapshot(uint64_t flight_id, InFlight &flight);

    /**
     * One attempt of @p flight_id failed (deadline, boot failure,
     * kill), counted in @p cause. Tears the attempt down,
     * strikes a surviving instance (ejecting it at the breaker
     * threshold, else recycling it), notes the outcome, and
     * either schedules a retry (after backoff) or falls back to
     * local execution.
     */
    void failFlight(uint64_t flight_id, InFlight &flight,
                    uint64_t &cause);

    /** Re-dispatch a failed flight on a fresh instance. */
    void retryAttempt(uint64_t flight_id, InFlight &flight);

    /** Retry budget exhausted: serve the request locally (real
     * flights) or abandon it (shadows). */
    void localFallback(uint64_t flight_id);

    void armDeadline(uint64_t flight_id, InFlight &flight);
    void cancelDeadline(InFlight &flight);

    /** Backoff before retry attempt @p attempt: capped exponential
     * with deterministic (mix64-derived) jitter. */
    sim::SimTime backoffDelay(uint64_t flight_id,
                              uint32_t attempt) const;

    /** Feed the graceful-degradation window (no-op when off). */
    void noteOutcome(bool ok);

    /** Chaos: maybe schedule a mid-invocation crash of attempt
     * @p era, which is being dispatched right now. */
    void maybeScheduleInvokeCrash(uint64_t flight_id, uint32_t era);
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
