/**
 * @file
 * Tests for the experiment harness: testbed assembly, burst and
 * throughput drivers, report formatting, and cross-cutting paper
 * properties that the benches rely on.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "harness/burst.h"
#include "harness/report.h"
#include "harness/testbed.h"
#include "harness/throughput.h"

namespace beehive::harness {
namespace {

using sim::SimTime;

apps::FrameworkOptions
tinyFramework()
{
    apps::FrameworkOptions fw;
    fw.native_scale = 4000;
    fw.interceptor_depth = 4;
    fw.stub_variants = 5;
    fw.generated_klasses = 24;
    fw.config_objects = 60;
    return fw;
}

TEST(Report, FmtHandlesNan)
{
    EXPECT_EQ(fmt(NAN), "-");
    EXPECT_EQ(fmt(1.2345, 2), "1.23");
    EXPECT_EQ(fmt(7, 0), "7");
}

TEST(TestbedTest, AssemblesAllThreeApps)
{
    for (AppKind app :
         {AppKind::Thumbnail, AppKind::Pybbs, AppKind::Blog}) {
        TestbedOptions opts;
        opts.app = app;
        opts.framework = tinyFramework();
        Testbed bed(opts);
        EXPECT_STREQ(bed.app().name(), appName(app));
        EXPECT_NE(bed.manager(), nullptr);
        EXPECT_NE(bed.platform(), nullptr);
        // The database was seeded.
        EXPECT_GT(bed.store().tableSize(
                      app == AppKind::Thumbnail ? "images"
                      : app == AppKind::Pybbs   ? "topics"
                                                : "posts"),
                  100u);
    }
}

TEST(TestbedTest, VanillaModeHasNoOffloadMachinery)
{
    TestbedOptions opts;
    opts.app = AppKind::Blog;
    opts.vanilla = true;
    opts.framework = tinyFramework();
    Testbed bed(opts);
    EXPECT_EQ(bed.manager(), nullptr);
    EXPECT_EQ(bed.platform(), nullptr);
}

TEST(TestbedTest, LambdaFlavorUsesAppInstanceType)
{
    TestbedOptions opts;
    opts.app = AppKind::Thumbnail; // computation-intensive: 2 GB
    opts.faas = FaasFlavor::Lambda;
    opts.framework = tinyFramework();
    Testbed bed(opts);
    EXPECT_DOUBLE_EQ(
        bed.platform()->profile().instance_type.memory_gb, 2.0);
    EXPECT_EQ(bed.platform()->profile().zone, "lambda");

    TestbedOptions opts2;
    opts2.app = AppKind::Pybbs;
    opts2.faas = FaasFlavor::Lambda;
    opts2.framework = tinyFramework();
    Testbed bed2(opts2);
    EXPECT_DOUBLE_EQ(
        bed2.platform()->profile().instance_type.memory_gb, 1.0);
}

TEST(TestbedTest, SameSeedSameResults)
{
    auto run = [] {
        TestbedOptions opts;
        opts.app = AppKind::Blog;
        opts.vanilla = true;
        opts.seed = 123;
        opts.framework = tinyFramework();
        Testbed bed(opts);
        workload::Recorder rec;
        workload::ClosedLoopClients clients(bed.sim(), bed.sink(),
                                            rec);
        clients.start(3, SimTime());
        bed.sim().runUntil(SimTime::sec(10));
        return std::make_pair(rec.completed(),
                              rec.latencies().mean());
    };
    auto a = run();
    auto b = run();
    EXPECT_EQ(a.first, b.first);
    EXPECT_DOUBLE_EQ(a.second, b.second);
}

TEST(TestbedTest, BaselineServerServesRequests)
{
    TestbedOptions opts;
    opts.app = AppKind::Blog;
    opts.vanilla = true;
    opts.framework = tinyFramework();
    Testbed bed(opts);
    cloud::Instance extra(bed.sim(), bed.network(), cloud::m4XLarge(),
                          "extra", "vpc");
    core::BeeHiveServer &second = bed.addBaselineServer(extra);
    bool done = false;
    bed.sinkTo(second)(1, [&] { done = true; });
    bed.sim().runUntil(SimTime::sec(30));
    EXPECT_TRUE(done);
    EXPECT_EQ(second.stats().local_requests, 1u);
}

TEST(ThroughputTest, UncontendedLatencyIndependentOfRate)
{
    ThroughputOptions opts;
    opts.app = AppKind::Blog;
    opts.config = ThroughputConfig::Vanilla;
    opts.framework = tinyFramework();
    opts.duration = SimTime::sec(12);
    opts.warmup = SimTime::sec(4);
    ThroughputPoint low = runThroughputPoint(opts, 10.0);
    ThroughputPoint mid = runThroughputPoint(opts, 30.0);
    EXPECT_NEAR(low.mean_latency, mid.mean_latency,
                low.mean_latency * 0.25);
    EXPECT_NEAR(low.achieved_rps, 10.0, 2.0);
    EXPECT_NEAR(mid.achieved_rps, 30.0, 4.0);
}

TEST(ThroughputTest, BeeHiveSingleCarriesBarrierCost)
{
    // BeeHive-Single = barriers on, offloading off: slightly more
    // CPU per request than vanilla (the paper's ~7% peak-throughput
    // cost for pybbs).
    VmCalibration cal;
    EXPECT_GT(cal.beehive_instr_ns, cal.vanilla_instr_ns * 1.05);
    EXPECT_LT(cal.beehive_instr_ns, cal.vanilla_instr_ns * 1.10);
}

TEST(BurstTest, BurstableAbsorbsBurstAlmostInstantly)
{
    BurstOptions opts;
    opts.app = AppKind::Blog;
    opts.solution = Solution::Burstable;
    opts.framework = tinyFramework();
    opts.duration = SimTime::sec(60);
    opts.burst_at = SimTime::sec(20);
    BurstResult r = runBurstExperiment(opts);
    ASSERT_GE(r.stabilization_seconds, 0.0);
    EXPECT_LE(r.stabilization_seconds, 5.0);
    // Always-on billing.
    EXPECT_GT(r.scaling_cost, 0.0);
}

TEST(BurstTest, BeeHiveStabilizesFasterThanFargate)
{
    BurstOptions opts;
    opts.app = AppKind::Blog;
    opts.framework = tinyFramework();
    opts.duration = SimTime::sec(120);
    opts.burst_at = SimTime::sec(30);

    opts.solution = Solution::BeeHiveO;
    BurstResult beehive = runBurstExperiment(opts);
    opts.solution = Solution::Fargate;
    BurstResult fargate = runBurstExperiment(opts);

    ASSERT_GE(beehive.stabilization_seconds, 0.0);
    ASSERT_GE(fargate.stabilization_seconds, 0.0);
    EXPECT_LT(beehive.stabilization_seconds,
              fargate.stabilization_seconds / 3.0);
    EXPECT_GT(beehive.offload.shadows, 0u);
    // enableRoot ran the static offloadability analysis: blog's
    // handler synchronizes on shared cache state, so the root is
    // classified needs-fallback (and never local-only).
    EXPECT_EQ(beehive.offload.roots_needs_fallback, 1u);
    EXPECT_EQ(beehive.offload.roots_local_only, 0u);
}

TEST(BurstTest, WarmFaasStabilizesSubSecondish)
{
    BurstOptions opts;
    opts.app = AppKind::Blog;
    opts.solution = Solution::BeeHiveO;
    opts.warm_faas = true;
    opts.framework = tinyFramework();
    opts.duration = SimTime::sec(100);
    opts.burst_at = SimTime::sec(40);
    BurstResult r = runBurstExperiment(opts);
    ASSERT_GE(r.stabilization_seconds, 0.0);
    // Per-second buckets: "sub-second" shows as 0 or 1.
    EXPECT_LE(r.stabilization_seconds, 1.0);
}

} // namespace
} // namespace beehive::harness
