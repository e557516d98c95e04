/**
 * @file
 * Tests for the experiment harness: testbed assembly, burst and
 * throughput drivers, report formatting, and cross-cutting paper
 * properties that the benches rely on.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

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
    opts.variant = BurstVariant::Warm;
    opts.framework = tinyFramework();
    opts.duration = SimTime::sec(100);
    opts.burst_at = SimTime::sec(40);
    BurstResult r = runBurstExperiment(opts);
    ASSERT_GE(r.stabilization_seconds, 0.0);
    // Per-second buckets: "sub-second" shows as 0 or 1.
    EXPECT_LE(r.stabilization_seconds, 1.0);
}

TEST(BurstTest, InstanceNotReadyInWindowNeverStabilizes)
{
    // EC2 needs ~95 s to serve; a 40 s burst window ends first, and
    // the overloaded tail it holds must not read as "stabilized".
    BurstOptions opts;
    opts.app = AppKind::Blog;
    opts.solution = Solution::OnDemand;
    opts.framework = tinyFramework();
    opts.duration = SimTime::sec(60);
    opts.burst_at = SimTime::sec(20);
    BurstResult r = runBurstExperiment(opts);
    EXPECT_LT(r.instance_ready_seconds, 0.0);
    EXPECT_EQ(r.stabilization_seconds, -1.0);
}

TEST(BurstTest, BaselineStabilizesNoEarlierThanItsInstance)
{
    // fig07's --quick window: Fargate's instance arrives near its
    // end, after the overloaded tail has filled the final window
    // that defines "steady".
    BurstOptions opts;
    opts.app = AppKind::Blog;
    opts.solution = Solution::Fargate;
    opts.framework = tinyFramework();
    opts.duration = SimTime::sec(90);
    opts.burst_at = SimTime::sec(30);
    BurstResult r = runBurstExperiment(opts);
    ASSERT_GE(r.instance_ready_seconds, 30.0);
    ASSERT_LT(r.instance_ready_seconds, 90.0);
    ASSERT_GE(r.stabilization_seconds, 0.0);
    EXPECT_GE(30.0 + r.stabilization_seconds,
              std::floor(r.instance_ready_seconds));
}

TEST(BurstTest, ComboHandsOffToItsInstance)
{
    // Section 5.7: Combo offloads from the burst until its on-demand
    // instance serves (~95 s later), then stops offloading. The
    // window outlasts the boot, so the hand-off happens.
    BurstOptions opts;
    opts.app = AppKind::Blog;
    opts.framework = tinyFramework();
    opts.duration = SimTime::sec(150);
    opts.burst_at = SimTime::sec(30);
    opts.solution = Solution::Combo;
    BurstResult combo = runBurstExperiment(opts);
    opts.solution = Solution::BeeHiveO;
    BurstResult beehive = runBurstExperiment(opts);

    ASSERT_GE(combo.instance_ready_seconds, 30.0 + 60.0);
    ASSERT_LT(combo.instance_ready_seconds, 150.0);
    EXPECT_LT(beehive.instance_ready_seconds, 0.0);
    EXPECT_GT(combo.offload.flights, 0u);
    EXPECT_LT(combo.offload.flights, beehive.offload.flights);
    // Offloading stops at the hand-off: Combo flies about what
    // BeeHiveO flies in the seconds before the instance served (3%
    // slack). Had the ratio stayed up, the primary would go on
    // offloading half of its share, about 10% more flights here.
    double before_handoff =
        (combo.instance_ready_seconds - 30.0) / (150.0 - 30.0);
    EXPECT_LT(static_cast<double>(combo.offload.flights),
              static_cast<double>(beehive.offload.flights) *
                  before_handoff * 1.03);
}

/** A short cold burst cell (seconds of simulated time). */
BurstCell
shortCell(Solution sol)
{
    BurstCell cell;
    cell.app = AppKind::Thumbnail;
    cell.solution = sol;
    cell.duration = SimTime::sec(24);
    cell.burst_at = SimTime::sec(8);
    return cell;
}

TEST(BurstMatrixTest, CellListedTwiceRunsOneTrial)
{
    // Table 3 and Figure 9 both list the cold cells.
    BurstOptions base;
    base.framework = tinyFramework();
    BurstCell cell = shortCell(Solution::Burstable);
    BurstMatrix matrix = runBurstMatrix({cell, cell}, base, 1);
    ASSERT_EQ(matrix.size(), 1u);
    EXPECT_GT(matrix.at(cell).completed_requests, 0u);
}

TEST(BurstMatrixTest, CellResultEqualsDirectRun)
{
    BurstOptions base;
    base.seed = 7;
    base.framework = tinyFramework();
    BurstCell cell = shortCell(Solution::BeeHiveO);
    BurstMatrix matrix = runBurstMatrix(
        {shortCell(Solution::Burstable), cell}, base, 2);
    ASSERT_EQ(matrix.size(), 2u);
    const BurstResult &m = matrix.at(cell);

    BurstOptions opts = base;
    opts.app = cell.app;
    opts.solution = cell.solution;
    opts.duration = cell.duration;
    opts.burst_at = cell.burst_at;
    BurstResult d = runBurstExperiment(opts);

    // Bitwise: warmup seconds are NaN.
    auto sameBits = [](const std::vector<double> &a,
                       const std::vector<double> &b) {
        return a.size() == b.size() &&
               std::memcmp(a.data(), b.data(),
                           a.size() * sizeof(double)) == 0;
    };
    EXPECT_TRUE(sameBits(m.p99_per_second, d.p99_per_second));
    EXPECT_TRUE(sameBits(m.mean_per_second, d.mean_per_second));
    EXPECT_EQ(m.pre_burst_p99, d.pre_burst_p99);
    EXPECT_EQ(m.stable_p99, d.stable_p99);
    EXPECT_EQ(m.stabilization_seconds, d.stabilization_seconds);
    EXPECT_EQ(m.instance_ready_seconds, d.instance_ready_seconds);
    EXPECT_EQ(m.scaling_cost, d.scaling_cost);
    EXPECT_EQ(m.completed_requests, d.completed_requests);
    EXPECT_EQ(m.offload.flights, d.offload.flights);
    EXPECT_EQ(m.offload.offloaded, d.offload.offloaded);
    EXPECT_EQ(m.offload.shadows, d.offload.shadows);
    EXPECT_EQ(m.cold_boots, d.cold_boots);
    EXPECT_EQ(m.warm_boots, d.warm_boots);
    EXPECT_EQ(m.restore_boots, d.restore_boots);
    EXPECT_EQ(m.manifests_synthesized, d.manifests_synthesized);
    EXPECT_EQ(m.snapshot_refined_dropped, d.snapshot_refined_dropped);
    EXPECT_EQ(m.traces.size(), d.traces.size());
    EXPECT_EQ(m.root_names, d.root_names);
    EXPECT_GT(m.offload.offloaded, 0u);
}

} // namespace
} // namespace beehive::harness
