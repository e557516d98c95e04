/**
 * @file
 * Stress tests: sustained end-to-end load on deliberately tiny
 * heaps so garbage collection, card-table maintenance, mapping-
 * table fixups, and cross-endpoint synchronization all run many
 * times while correctness invariants are checked continuously.
 */

#include <gtest/gtest.h>

#include "core/function.h"
#include "harness/testbed.h"
#include "workload/clients.h"

namespace beehive::harness {
namespace {

using sim::SimTime;

TEST(Stress, HundredsOfRequestsOnTinyHeapsStayCorrect)
{
    TestbedOptions opts;
    opts.app = AppKind::Pybbs;
    opts.framework.native_scale = 2000;
    opts.framework.interceptor_depth = 4;
    opts.framework.generated_klasses = 24;
    opts.framework.config_objects = 80;
    // Tiny heaps: the blog/pybbs allocation churn forces frequent
    // collections on both endpoints.
    opts.beehive.server_alloc_bytes = 3u << 20;
    opts.beehive.function_closure_bytes = 2u << 20;
    opts.beehive.function_alloc_bytes = 1u << 20;
    Testbed bed(opts);
    ASSERT_TRUE(bed.runProfilingPhase());
    // Root selection turned server profiling off; this test counts
    // server-side handler executions through the profiler, so it
    // turns it back on.
    bed.server().setProfiling(true);

    std::size_t comments_before = bed.store().tableSize("comments");
    uint64_t gc_before = bed.server().collector().totals().collections;

    bed.manager()->setOffloadRatio(0.5);
    workload::Recorder recorder;
    workload::ClosedLoopClients clients(bed.sim(), bed.sink(),
                                        recorder);
    clients.start(6, bed.sim().now());
    SimTime end = bed.sim().now() + SimTime::sec(40);
    bed.sim().runUntil(end);
    clients.stopAll();
    bed.sim().runUntil(end + SimTime::sec(5));

    // Liveness: plenty of requests completed.
    EXPECT_GT(recorder.completed(), 300u);

    // Correctness: every completed real request inserted exactly
    // one comment (shadow duplicates are intercepted; overwrites
    // can only come from the same request id).
    std::size_t inserted =
        bed.store().tableSize("comments") - comments_before;
    uint64_t shadows = bed.manager()->stats().shadows;
    EXPECT_GE(inserted + shadows, recorder.completed());

    // The server GC really ran, and so did function GCs.
    EXPECT_GT(bed.server().collector().totals().collections, gc_before);
    uint64_t fn_gcs = 0;
    double max_pause_ms = 0;
    for (const auto &inst : bed.platform()->instances()) {
        if (!inst->runtime_state)
            continue;
        auto fn = std::static_pointer_cast<core::BeeHiveFunction>(
            inst->runtime_state);
        fn_gcs += fn->collector().totals().collections;
        for (double p : fn->collector().totals().pause_ms.samples())
            max_pause_ms = std::max(max_pause_ms, p);
    }
    EXPECT_GT(fn_gcs, 10u);
    // Low-pause property: even under churn, pauses stay small.
    EXPECT_LT(max_pause_ms, 25.0);

    // Shared counters survived every collection and sync: pull the
    // authoritative values home with a final local request.
    bed.manager()->setOffloadRatio(0.0);
    bool done = false;
    bed.server().handleLocal(bed.app().entry(),
                             {vm::Value::ofInt(999999)},
                             [&](vm::Value) { done = true; });
    while (!done)
        bed.sim().runUntil(bed.sim().now() + SimTime::msec(100));

    vm::KlassId shared_k = bed.program().findKlass("pybbs/SharedState");
    ASSERT_NE(shared_k, vm::kNoKlass);
    vm::Ref locks =
        bed.server().context().getStatic(shared_k, 0).asRef();
    int64_t total_hits = 0;
    for (uint32_t i = 0; i < apps::PybbsApp::kLocks; ++i) {
        vm::Ref lock = bed.server().heap().elem(locks, i).asRef();
        total_hits += bed.server().heap().field(lock, 0).asInt();
    }
    // Each handler execution bumps each of the 7 lock counters
    // exactly once. The profiler (turned back on after the
    // profiling phase) counts every server-side execution; function-side
    // executions are the real offloads plus shadows. Any lost
    // update would break the exact equality.
    const vm::RootProfile *profile =
        bed.server().profiler().profile(bed.app().handler());
    ASSERT_NE(profile, nullptr);
    int64_t executions =
        static_cast<int64_t>(profile->invocations) +
        static_cast<int64_t>(bed.manager()->stats().offloaded) +
        static_cast<int64_t>(shadows);
    EXPECT_EQ(total_hits,
              executions * static_cast<int64_t>(apps::PybbsApp::kLocks));
}

TEST(Stress, FailureInjectionUnderLoadNeverLosesRequests)
{
    TestbedOptions opts;
    opts.app = AppKind::Blog;
    opts.framework.native_scale = 2000;
    opts.framework.interceptor_depth = 4;
    opts.framework.generated_klasses = 24;
    opts.framework.config_objects = 60;
    opts.beehive.failure_recovery = true;
    Testbed bed(opts);
    ASSERT_TRUE(bed.runProfilingPhase());

    bed.manager()->setOffloadRatio(0.8);
    workload::Recorder recorder;
    workload::ClosedLoopClients clients(bed.sim(), bed.sink(),
                                        recorder);
    clients.start(5, bed.sim().now());

    // Periodically kill whatever function is busy.
    int kills = 0;
    for (int round = 0; round < 60; ++round) {
        bed.sim().runUntil(bed.sim().now() + SimTime::msec(400));
        if (bed.manager()->injectFailure())
            ++kills;
    }
    clients.stopAll();
    // Everything in flight must still complete (recovery).
    SimTime guard = bed.sim().now() + SimTime::sec(120);
    while (clients.active() > 0 && bed.sim().now() < guard)
        bed.sim().runUntil(bed.sim().now() + SimTime::msec(200));
    EXPECT_EQ(clients.active(), 0);
    EXPECT_GT(kills, 5);
    EXPECT_GE(bed.manager()->stats().retries,
              static_cast<uint64_t>(kills));
    EXPECT_GT(recorder.completed(), 100u);
}

} // namespace
} // namespace beehive::harness
