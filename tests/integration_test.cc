/**
 * @file
 * End-to-end integration tests: full BeeHive stack (apps through
 * framework, offloading, shadow execution, sync, recovery) on the
 * assembled testbed.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "harness/burst.h"
#include "harness/testbed.h"
#include "harness/throughput.h"
#include "workload/clients.h"

namespace beehive::harness {
namespace {

using sim::SimTime;

/** Small/fast framework shape for tests. */
apps::FrameworkOptions
fastFramework()
{
    apps::FrameworkOptions fw;
    fw.native_scale = 2000;
    fw.interceptor_depth = 5;
    fw.stub_variants = 8;
    fw.generated_klasses = 40;
    fw.config_objects = 120;
    return fw;
}

TestbedOptions
fastOptions(AppKind app, bool vanilla = false)
{
    TestbedOptions opts;
    opts.app = app;
    opts.vanilla = vanilla;
    opts.framework = fastFramework();
    opts.profiling_requests = 12;
    return opts;
}

/** Run one request synchronously; returns its result. */
vm::Value
runOne(Testbed &bed, int64_t id)
{
    vm::Value out;
    bool done = false;
    bed.server().handleLocal(bed.app().entry(),
                             {vm::Value::ofInt(id)}, [&](vm::Value v) {
                                 out = v;
                                 done = true;
                             });
    SimTime guard = bed.sim().now() + SimTime::sec(120);
    while (!done && bed.sim().now() < guard)
        bed.sim().runUntil(bed.sim().now() + SimTime::msec(100));
    EXPECT_TRUE(done) << "request did not complete";
    return out;
}

/** Drive the sim until predicate or timeout. */
template <typename Pred>
bool
runUntil(Testbed &bed, SimTime limit, Pred pred)
{
    while (!pred() && bed.sim().now() < limit)
        bed.sim().runUntil(bed.sim().now() + SimTime::msec(100));
    return pred();
}

TEST(Integration, VanillaRequestCompletesThroughChain)
{
    for (AppKind app :
         {AppKind::Thumbnail, AppKind::Pybbs, AppKind::Blog}) {
        Testbed bed(fastOptions(app, /*vanilla=*/true));
        vm::Value v = runOne(bed, 1);
        EXPECT_EQ(v.asInt(), 200) << appName(app);
    }
}

TEST(Integration, PybbsRequestTouchesDatabase)
{
    Testbed bed(fastOptions(AppKind::Pybbs, true));
    std::size_t comments = bed.store().tableSize("comments");
    runOne(bed, 7);
    EXPECT_EQ(bed.store().tableSize("comments"), comments + 1);
    EXPECT_GT(bed.proxy().stats().requests_routed, 70u);
}

TEST(Integration, ProfilingSelectsAnnotatedHandler)
{
    Testbed bed(fastOptions(AppKind::Pybbs));
    EXPECT_TRUE(bed.runProfilingPhase());
    const vm::RootProfile *p =
        bed.server().profiler().profile(bed.app().handler());
    ASSERT_NE(p, nullptr);
    EXPECT_GE(p->invocations, 10u);
    EXPECT_GT(p->avgCostNs(), 1e6); // > 1 ms average
    // The profile saw the config klass and shared statics.
    EXPECT_FALSE(p->klasses.empty());
    EXPECT_FALSE(p->statics.empty());
}

TEST(Integration, ShadowThenRealOffload)
{
    TestbedOptions opts = fastOptions(AppKind::Pybbs);
    Testbed bed(opts);
    ASSERT_TRUE(bed.runProfilingPhase());
    bed.manager()->setOffloadRatio(1.0);

    // First offload-marked request: runs locally, launches shadow.
    runOne(bed, 100);
    EXPECT_EQ(bed.manager()->stats().shadows, 1u);
    EXPECT_EQ(bed.manager()->stats().offloaded, 0u);

    // Wait for the shadow to finish (instance warmed).
    ASSERT_TRUE(runUntil(bed, bed.sim().now() + SimTime::sec(60), [&] {
        return bed.manager()->traces().size() >= 1;
    }));
    const auto &shadow_trace = bed.manager()->traces()[0].second;
    EXPECT_TRUE(shadow_trace.shadow);
    // The shadow pays the fallback storm: code + data fetches.
    EXPECT_GT(shadow_trace.remoteFetches(), 50u);
    EXPECT_GT(shadow_trace.fetch_time, SimTime::msec(10));

    // Interleave a local request so lock ownership moves back to
    // the server (the realistic mixed-load pattern), then offload.
    bed.manager()->setOffloadRatio(0.0);
    runOne(bed, 101);
    bed.manager()->setOffloadRatio(1.0);
    std::size_t before = bed.manager()->traces().size();
    runOne(bed, 102);
    EXPECT_GE(bed.manager()->stats().offloaded, 1u);
    ASSERT_GT(bed.manager()->traces().size(), before);
    // Steady-state: fallbacks collapse to (mostly) synchronization.
    const auto &steady = bed.manager()->traces().back().second;
    EXPECT_FALSE(steady.shadow);
    EXPECT_LT(steady.remoteFetches(), 10u);
    EXPECT_GE(steady.sync_fallbacks, 1u);
    EXPECT_EQ(steady.native_fallbacks, 0u);
    EXPECT_EQ(steady.connection_fallbacks, 0u);
    EXPECT_GT(steady.db_ops, 70u);
}

TEST(Integration, ShadowWritesAreInvisibleRealWritesLand)
{
    Testbed bed(fastOptions(AppKind::Pybbs));
    ASSERT_TRUE(bed.runProfilingPhase());
    std::size_t base = bed.store().tableSize("comments");

    bed.manager()->setOffloadRatio(1.0);
    // Request 500: local real (+1 comment) + shadow duplicate
    // (intercepted, +0).
    runOne(bed, 500);
    ASSERT_TRUE(runUntil(bed, bed.sim().now() + SimTime::sec(60), [&] {
        return bed.manager()->traces().size() >= 1;
    }));
    EXPECT_EQ(bed.store().tableSize("comments"), base + 1);

    // Request 501: offloaded for real; its comment lands via the
    // shared proxied connection.
    runOne(bed, 501);
    EXPECT_EQ(bed.store().tableSize("comments"), base + 2);
    EXPECT_GT(bed.proxy().stats().offload_requests, 0u);
}

TEST(Integration, OffloadRatioZeroKeepsEverythingLocal)
{
    Testbed bed(fastOptions(AppKind::Blog));
    ASSERT_TRUE(bed.runProfilingPhase());
    bed.manager()->setOffloadRatio(0.0);
    auto before = bed.manager()->stats();
    runOne(bed, 300);
    runOne(bed, 301);
    EXPECT_EQ(bed.manager()->stats().shadows, before.shadows);
    EXPECT_EQ(bed.manager()->stats().offloaded, before.offloaded);
}

TEST(Integration, NativeCensusMatchesTable2Shape)
{
    // Full fidelity on the native mix (scale 1) is too slow for a
    // unit test; scale 50 keeps the census exactly proportional for
    // pure/hidden and EXACT for network ops (db rounds aren't
    // scaled).
    TestbedOptions opts = fastOptions(AppKind::Pybbs, true);
    opts.framework.native_scale = 50;
    Testbed bed(opts);
    auto &ctx = bed.server().context();
    ctx.resetNativeCounts();
    runOne(bed, 1);
    // Network: exactly 248 per request (Table 2).
    EXPECT_EQ(ctx.nativeCount(vm::NativeCategory::Network), 248u);
    // Pure on-heap / hidden state: the scaled loop counts.
    EXPECT_EQ(ctx.nativeCount(vm::NativeCategory::PureOnHeap),
              static_cast<uint64_t>(226643 / 50));
    // Hidden-state: scaled loop + interceptor chain reflection.
    uint64_t hidden =
        ctx.nativeCount(vm::NativeCategory::HiddenState);
    EXPECT_GE(hidden, static_cast<uint64_t>(34749 / 50));
    EXPECT_LE(hidden, static_cast<uint64_t>(34749 / 50) + 40);
    EXPECT_GE(ctx.nativeCount(vm::NativeCategory::Stateless),
              static_cast<uint64_t>(415 / 50));
}

TEST(Integration, SteadyStateSyncCountsMatchAppLocks)
{
    Testbed bed(fastOptions(AppKind::Pybbs));
    ASSERT_TRUE(bed.runProfilingPhase());
    bed.manager()->setOffloadRatio(1.0);
    runOne(bed, 900); // local + shadow
    ASSERT_TRUE(runUntil(bed, bed.sim().now() + SimTime::sec(60), [&] {
        return bed.manager()->traces().size() >= 1;
    }));
    // A steady-state offloaded request synchronizes on the 7 pybbs
    // locks (their owners ping-pong between server and function):
    // run a local request first so the server re-takes ownership.
    bed.manager()->setOffloadRatio(0.0);
    runOne(bed, 905);
    bed.manager()->setOffloadRatio(1.0);
    runOne(bed, 901);
    const auto &steady = bed.manager()->traces().back().second;
    EXPECT_EQ(steady.sync_fallbacks,
              static_cast<uint64_t>(apps::PybbsApp::kLocks));
    EXPECT_GT(steady.synchronized_objects, 0u);
}

TEST(Integration, SharedCountersConsistentAcrossEndpoints)
{
    // Lock-protected counters must not lose updates regardless of
    // where requests execute (JMM release consistency, Section 4.2).
    Testbed bed(fastOptions(AppKind::Thumbnail));
    ASSERT_TRUE(bed.runProfilingPhase());
    uint64_t profiled = bed.server().stats().local_requests;

    bed.manager()->setOffloadRatio(1.0);
    const int extra = 6;
    for (int i = 0; i < extra; ++i)
        runOne(bed, 1000 + i);
    // Shadows also bump the in-memory shared counter (memory states
    // on FaaS are only "invisible" until synchronized; external DB
    // effects are what shadow suppresses). Count all executions:
    // profiled locals + extra requests + completed shadows.
    ASSERT_TRUE(runUntil(bed, bed.sim().now() + SimTime::sec(60), [&] {
        return !bed.manager()->platform().inUseCount();
    }));
    uint64_t shadows = bed.manager()->stats().shadows;
    // Read the counter from the server copy after syncing: run one
    // more local request and inspect.
    bed.manager()->setOffloadRatio(0.0);
    runOne(bed, 2000);
    auto &heap = bed.server().heap();
    vm::KlassId stats_k = bed.program().findKlass("thumbnail/Stats");
    vm::Ref stats =
        bed.server().context().getStatic(stats_k, 0).asRef();
    // The last local request re-acquired the lock, pulling all
    // function-side updates home.
    uint64_t processed =
        static_cast<uint64_t>(heap.field(stats, 0).asInt());
    EXPECT_EQ(processed, profiled + extra + shadows + 1);
}

TEST(Integration, FailureRecoveryReRunsInvocation)
{
    TestbedOptions opts = fastOptions(AppKind::Pybbs);
    opts.beehive.failure_recovery = true;
    Testbed bed(opts);
    ASSERT_TRUE(bed.runProfilingPhase());
    bed.manager()->setOffloadRatio(1.0);
    runOne(bed, 600); // warms one instance via shadow
    ASSERT_TRUE(runUntil(bed, bed.sim().now() + SimTime::sec(60), [&] {
        return bed.manager()->traces().size() >= 1;
    }));

    // Launch a real offloaded request but kill the function while
    // it runs.
    bool done = false;
    bed.server().handleLocal(bed.app().entry(),
                             {vm::Value::ofInt(601)},
                             [&](vm::Value) { done = true; });
    // Let it get going, then inject the failure.
    bool injected = false;
    for (int i = 0; i < 2000 && !injected; ++i) {
        bed.sim().runUntil(bed.sim().now() + SimTime::msec(2));
        injected = bed.manager()->injectFailure();
    }
    EXPECT_TRUE(injected) << "no in-flight offload to kill";
    ASSERT_TRUE(runUntil(bed, bed.sim().now() + SimTime::sec(120),
                         [&] { return done; }));
    EXPECT_GE(bed.manager()->stats().retries, 1u);
}

TEST(Integration, VanillaLatencyRisesWithConcurrentClients)
{
    // The Figure 2 mechanism: more closed-loop clients on a fixed
    // 4-vCPU server push latency up.
    auto p99_at = [&](int clients) {
        Testbed bed(fastOptions(AppKind::Pybbs, true));
        workload::Recorder recorder;
        workload::ClosedLoopClients pool(bed.sim(), bed.sink(),
                                         recorder);
        recorder.setWarmupCutoff(SimTime::sec(3));
        pool.start(clients, SimTime());
        bed.sim().runUntil(SimTime::sec(18));
        pool.stopAll();
        bed.sim().runUntil(SimTime::sec(20));
        return recorder.latencies().percentile(99);
    };
    double low = p99_at(2);
    double high = p99_at(24);
    EXPECT_FALSE(std::isnan(low));
    EXPECT_FALSE(std::isnan(high));
    EXPECT_GT(high, low * 1.8);
}

TEST(Integration, OffloadingExtendsSaturationThroughput)
{
    // Figure 8's headline: with offloading, the system sustains
    // offered loads beyond the single server's saturation point.
    ThroughputOptions opts;
    opts.app = AppKind::Blog;
    opts.framework = fastFramework();
    opts.duration = SimTime::sec(15);
    opts.warmup = SimTime::sec(6);

    double sat = saturationRps(AppKind::Blog);
    double beyond = sat * 1.8;

    opts.config = ThroughputConfig::Vanilla;
    ThroughputPoint vanilla = runThroughputPoint(opts, beyond);
    opts.config = ThroughputConfig::BeeHiveO;
    ThroughputPoint beehive = runThroughputPoint(opts, beyond);

    // Vanilla melts down (queueing latency far above service time);
    // BeeHive keeps the tail in a sane regime and serves the load.
    EXPECT_GT(vanilla.p99_latency, beehive.p99_latency * 2.0);
    EXPECT_GE(beehive.achieved_rps, beyond * 0.85);
}

} // namespace
} // namespace beehive::harness
