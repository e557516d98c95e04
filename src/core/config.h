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

/** What to do with bytecode verifier findings at Program load. */
enum class VerifyMode : uint8_t
{
    Off,    //!< trust the program (seed behaviour)
    Warn,   //!< log every diagnostic, keep going
    Strict, //!< any Error-severity diagnostic is fatal
};

/**
 * Tunables of the offloading framework. Fixed policy parameters
 * (retry backoff ceiling and jitter, degradation window, snapshot
 * store budget, klass fetch overhead, DB reconnect delay) are named
 * constants in the module that reads them instead.
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
     * Server heap sizing. Each space is lazily committed, so these
     * sizes reserve address space; host time and memory follow the
     * bytes the server heap actually touches.
     */
    std::size_t server_closure_bytes = 4u << 20;
    std::size_t server_alloc_bytes = 32u << 20;

    /**
     * Server request-thread pool size: requests beyond this queue
     * (bounding both memory and, like any real servlet container,
     * producing queueing latency under overload).
     */
    std::size_t server_max_active = 128;

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

    /** Server-side handling cost of one fallback request. */
    sim::SimTime fallback_service = sim::SimTime::usec(40);

    /** Closure computation rate (entities packed per second);
     * calibrated so a pybbs-sized closure costs ~134 ms (Section
     * 5.6), fully overlapped with the cold boot. */
    double closure_pack_rate = 3500.0;

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
     * Run the bytecode verifier over the whole Program when the
     * server constructs its VM. Warn logs diagnostics through
     * support/logging; Strict turns any Error-severity finding into
     * a fatal load failure (a corrupt Program must not reach the
     * interpreter).
     */
    VerifyMode verify_on_load = VerifyMode::Warn;

    /**
     * Prune closure object traversal using the interprocedural
     * capture analysis (vm/analysis.h): plain-object fields no
     * reachable code can read are not shipped. Off by default so
     * that closure contents stay bit-identical to prior behaviour
     * unless the deployment opts in; the missing-data fallback makes
     * enabling it safe regardless.
     */
    bool capture_slimming = false;

    /**
     * Record the realized working set of cold boots (class and
     * object faults of the shadow phase) into content-addressed
     * snapshot images, and boot subsequent fresh instances of the
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
     * recording through the whole request lifecycle, the metrics
     * registry, critical-path attribution, and the Chrome trace
     * exporter. Off by default with zero overhead -- every
     * instrumentation site is a single null-pointer check and no
     * RNG draw or event reordering happens either way, so all
     * experiment output stays byte-identical unless enabled.
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
     * back to local re-execution. Zero (the default) means
     * *unlimited* retries, preserving the legacy failure_recovery
     * behaviour where every killed invocation recovers.
     */
    uint32_t offload_max_retries = 0;

    /**
     * Base delay of the exponential retry backoff (doubled per
     * attempt, capped at 2 s, jittered deterministically by up to
     * 25%). Zero (the default) retries synchronously, preserving
     * the legacy recovery ordering.
     */
    sim::SimTime retry_backoff_base;

    /**
     * Consecutive per-instance failures (deadline expiry, crash)
     * before the circuit breaker ejects the instance instead of
     * releasing it back to the warm pool. Zero (the default)
     * disables the breaker.
     */
    uint32_t breaker_threshold = 0;

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
