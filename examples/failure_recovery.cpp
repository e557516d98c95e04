/**
 * @file
 * Failure recovery (paper Section 4.5): kill a function instance
 * mid-invocation and watch the request recover on a fresh one,
 * resuming from the stack snapshot captured at the last
 * synchronization point.
 *
 * Run: ./build/examples/failure_recovery
 */

#include <cstdio>

#include "harness/testbed.h"

using namespace beehive;
using namespace beehive::harness;
using sim::SimTime;

int
main()
{
    TestbedOptions options;
    options.app = AppKind::Pybbs;
    options.beehive.failure_recovery = true;
    Testbed bed(options);
    bed.runProfilingPhase();
    bed.manager()->setOffloadRatio(1.0);

    // Warm one instance (request 1 runs locally + shadow).
    bool warm_done = false;
    bed.server().handleLocal(bed.app().entry(), {vm::Value::ofInt(1)},
                             [&](vm::Value) { warm_done = true; });
    while (!warm_done ||
           bed.manager()->platform().inUseCount() > 0) {
        bed.sim().runUntil(bed.sim().now() + SimTime::msec(100));
    }
    std::printf("instance warmed (shadow completed)\n");

    // Launch a real offloaded request...
    bool done = false;
    SimTime started = bed.sim().now();
    bed.server().handleLocal(bed.app().entry(), {vm::Value::ofInt(2)},
                             [&](vm::Value) { done = true; });

    // ...and kill the function while it runs. Wait until the
    // invocation has passed a synchronization point: a kill before
    // the first sync point recovers by re-executing from scratch
    // (there is no snapshot of *this* request yet -- the leftover
    // shadow snapshot belongs to the warm-up request and must not
    // be resumed), while a kill after one resumes from the shipped
    // stack, which is the Section 4.5 path this example shows.
    bool injected = false;
    for (int i = 0; i < 5000 && !injected && !done; ++i) {
        bed.sim().runUntil(bed.sim().now() + SimTime::msec(2));
        if (bed.manager()->snapshotAvailable())
            injected = bed.manager()->injectFailure();
    }
    std::printf("failure injected past a sync point: %s\n",
                injected ? "yes" : "no (request finished first)");

    while (!done)
        bed.sim().runUntil(bed.sim().now() + SimTime::msec(100));

    const core::OffloadStats &stats = bed.manager()->stats();
    const core::FunctionStats &fn = bed.manager()->functionStats();
    std::printf("request completed after %.1f ms\n",
                (bed.sim().now() - started).toMillis());
    std::printf("recoveries performed: %llu (resumed from a sync-"
                "point snapshot: %llu)\n",
                (unsigned long long)stats.retries,
                (unsigned long long)fn.resumes);
    std::printf("\nWith failure_recovery enabled, functions ship "
                "their stack (translated to server addresses) at "
                "every synchronization point; the offload manager "
                "reruns the invocation on a new instance from that "
                "snapshot -- re-execution never violates the JMM "
                "because the failed function's unsynchronized "
                "writes were never visible (Section 4.5).\n");
    return 0;
}
