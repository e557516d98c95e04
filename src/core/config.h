/**
 * @file
 * BeeHive runtime configuration knobs.
 */

#ifndef BEEHIVE_CORE_CONFIG_H
#define BEEHIVE_CORE_CONFIG_H

#include <cstdint>

#include "sim/sim_time.h"
#include "vm/context.h"

namespace beehive::core {

/**
 * Tunables of the offloading framework. Fixed policy parameters
 * (retry backoff ceiling and jitter, degradation window, snapshot
 * store budget, klass fetch overhead, DB reconnect delay, server
 * closure space and thread pool, fallback service time, closure
 * pack rate) are named constants in the module that reads them
 * instead. Verification is not a knob either: the server always
 * verifies its program at load and rejects one with any
 * Error-severity finding.
 */
struct BeeHiveConfig
{
    /**
     * VM configuration template for the server. The instruction
     * cost includes the dirty-object write barrier (the paper
     * charges it at ~7% of pybbs peak throughput; disable for the
     * vanilla baseline by resetting instr_cost_ns).
     */
    vm::VmConfig server_vm;

    /**
     * VM configuration template for function instances. One full
     * execution (the shadow) is enough to warm a function's JIT
     * state, matching the paper's "when the shadow execution
     * finishes, the warmup phase is passed".
     */
    vm::VmConfig function_vm = [] {
        vm::VmConfig c;
        c.jit_threshold = 1;
        return c;
    }();

    /**
     * Server allocation-space size. Spaces are lazily committed, so
     * this reserves address space; host time and memory follow the
     * bytes the server heap actually touches.
     */
    std::size_t server_alloc_bytes = 32u << 20;

    /**
     * Fraction of the profiled klass set included in the initial
     * closure. Dynamic profiling is inherently incomplete (the
     * paper's motivation for the fallback mechanism); values < 1
     * model paths the profile run never saw.
     */
    double closure_klass_coverage = 0.85;

    /** BFS depth limit when packing data from the argument graph. */
    int closure_data_depth = 3;

    /** Object count cap of the initial closure. */
    std::size_t closure_max_objects = 4096;

    /**
     * Heap sizes of a function-side VM. Closures and per-request
     * allocations are small (Section 5.6: a few MB of peak heap per
     * function). Spaces are lazily committed, so a size costs
     * address space, not host time: a function VM boots and stays
     * resident for the pages it touches, whatever it reserves.
     */
    std::size_t function_closure_bytes = 6u << 20;
    std::size_t function_alloc_bytes = 6u << 20;

    /**
     * Enable stack-snapshot capture at sync points so failed FaaS
     * invocations can resume (Section 4.5). Optional in the paper.
     */
    bool failure_recovery = false;

    /** Enable shadow execution of the first offloaded invocation. */
    bool shadow_execution = true;

    /** Enable the Packageable native-state mechanism (ablation). */
    bool packageable_enabled = true;

    /** Enable proxy-based connection offload (ablation). */
    bool proxy_enabled = true;

    /**
     * Record the realized working set of cold boots (class and
     * object faults of the shadow phase) into one snapshot image
     * per endpoint, and boot subsequent fresh instances of the
     * same endpoint through the *restore* path with the recorded
     * set pre-installed. Off by default so all existing experiment
     * numbers stay bit-identical; a stale image degrades to the
     * normal fetch path, never to a wrong answer.
     */
    bool snapshot_enabled = false;

    /**
     * Synthesize a *static* prefetch manifest for every enabled
     * root (vm/reachability_analysis.h): the klass closure and the
     * server-object footprint the reachability analysis infers are
     * folded into the snapshot store at enableRoot time, so even
     * the endpoint's *first* boot takes the restore path -- no
     * recorded cold boot (and no Table 5 fault storm) required.
     * Recorded boots, when they happen, refine the static
     * over-approximation by intersection. Off by default so all
     * existing experiment numbers stay bit-identical; an imprecise
     * manifest costs overfetch bytes through the idempotent fetch
     * path, never correctness.
     */
    bool static_manifests = false;

    /**
     * Install the telemetry tracer (src/telemetry/): causal span
     * recording through the whole request lifecycle, critical-path
     * attribution, and the Chrome trace exporter. Off by default
     * with zero overhead -- every span site is a single null-pointer
     * check and no RNG draw or event reordering happens either way,
     * so all experiment output stays byte-identical unless enabled.
     * Counting is not telemetry: every event is counted in its
     * module's stats whether this is on or off, and
     * Testbed::harvestMetrics() exports the counts.
     */
    bool telemetry = false;

    /** Span ring-buffer capacity when telemetry is on; the oldest
     * spans are overwritten (and counted as dropped) beyond it. */
    std::size_t telemetry_span_capacity = 1u << 18;

    /**
     * Per-offload invocation deadline (Section 4.5 hardening): a
     * flight whose attempt has not completed within this window is
     * failed and retried or re-executed locally. Zero (the default)
     * disables the deadline machinery entirely -- no events are
     * scheduled, so all prior experiment output stays byte-identical.
     */
    sim::SimTime offload_deadline;

    /**
     * Maximum retry attempts for a failed offload before falling
     * back to local re-execution. Must be positive: the
     * OffloadManager rejects 0, which once meant "unlimited".
     */
    uint32_t offload_max_retries = 6;

    /**
     * Base delay of the exponential retry backoff (doubled per
     * attempt, capped at 2 s, jittered deterministically by up to
     * 25%). Must be positive: the OffloadManager rejects 0, which
     * once meant "retry synchronously".
     */
    sim::SimTime retry_backoff_base = sim::SimTime::msec(5);

    /**
     * Consecutive per-instance failures (deadline expiry, crash)
     * before the circuit breaker ejects the instance instead of
     * releasing it back to the warm pool. Must be positive: the
     * OffloadManager rejects 0, which once disabled the breaker.
     */
    uint32_t breaker_threshold = 3;

    /**
     * Automatically lower the effective offload ratio when the
     * FaaS error rate spikes and restore it once flights complete
     * cleanly again: an error rate of at least half over the last
     * 16 flights halves the ratio (floored at 5% of the configured
     * ratio). Off by default: with it off the dispatch path
     * performs no outcome bookkeeping and the offload coin flip is
     * bitwise-identical to prior behaviour.
     */
    bool graceful_degradation = false;
};

} // namespace beehive::core

#endif // BEEHIVE_CORE_CONFIG_H
