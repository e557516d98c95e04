/**
 * @file
 * Unit tests for the cloud simulator: scaling solutions, the FaaS
 * platform with its instance cache, and billing.
 */

#include <gtest/gtest.h>

#include "cloud/billing.h"
#include "cloud/faas.h"
#include "cloud/instance.h"
#include "cloud/scaling.h"
#include "net/network.h"
#include "sim/simulation.h"

namespace beehive::cloud {
namespace {

using sim::SimTime;

class CloudTest : public ::testing::Test
{
  protected:
    CloudTest() : sim(42)
    {
        net.setZoneLatency("vpc", "vpc", SimTime::usec(200));
        net.setZoneLatency("vpc", "lambda", SimTime::usec(700));
    }

    sim::Simulation sim;
    net::Network net;
};

TEST_F(CloudTest, InstanceTypeCatalogueMatchesPaperSetup)
{
    EXPECT_EQ(m4XLarge().vcpus, 4);
    EXPECT_EQ(m4Large().vcpus, 2);
    EXPECT_EQ(m410XLarge().vcpus, 40);
    EXPECT_DOUBLE_EQ(lambda1G().vcpus, 0.6);
    EXPECT_DOUBLE_EQ(lambda2G().vcpus, 1.2);
    EXPECT_DOUBLE_EQ(lambda1G().memory_gb, 1.0);
}

TEST_F(CloudTest, InstanceCpuMatchesShape)
{
    Instance server(sim, net, m4XLarge(), "srv", "vpc");
    EXPECT_EQ(server.cpu().cores(), 4);
    Instance lam(sim, net, lambda1G(), "fn", "lambda");
    EXPECT_EQ(lam.cpu().cores(), 1);
    EXPECT_NEAR(lam.cpu().speed(), 0.6, 1e-9);
    Instance lam2(sim, net, lambda2G(), "fn2", "lambda");
    EXPECT_EQ(lam2.cpu().cores(), 1);
    EXPECT_NEAR(lam2.cpu().speed(), 1.2, 1e-9);
}

TEST_F(CloudTest, ScalingTraitsReproduceTable1)
{
    // Table 1's qualitative rows.
    EXPECT_EQ(scalingTraits(ScalingKind::Reserved).min_running_time,
              "1 year");
    EXPECT_FALSE(scalingTraits(ScalingKind::Reserved).auto_scaling);
    EXPECT_TRUE(scalingTraits(ScalingKind::Fargate).auto_scaling);
    EXPECT_TRUE(scalingTraits(ScalingKind::Faas).auto_scaling);
    EXPECT_EQ(scalingTraits(ScalingKind::Faas).config_granularity,
              "MB");
    // Preparation: on-demand/Fargate ~40 s; FaaS under a second.
    EXPECT_NEAR(
        scalingTraits(ScalingKind::OnDemand).preparation.toSeconds(),
        40.0, 1.0);
    EXPECT_LT(scalingTraits(ScalingKind::Faas).preparation,
              SimTime::sec(1));
}

TEST_F(CloudTest, OnDemandInstanceTakesPrepPlusLaunch)
{
    InstanceScaler scaler(sim, net, ScalingKind::OnDemand, m4XLarge(),
                          "vpc");
    SimTime ready_at;
    scaler.requestInstance([&](Instance &) { ready_at = sim.now(); });
    sim.runUntil(SimTime::sec(300));
    // ~40 s prep + ~55 s service launch with jitter.
    EXPECT_GT(ready_at, SimTime::sec(80));
    EXPECT_LT(ready_at, SimTime::sec(115));
}

TEST_F(CloudTest, BurstableInstanceIsReadyAlmostImmediately)
{
    InstanceScaler scaler(sim, net, ScalingKind::Burstable, t3XLarge(),
                          "vpc");
    SimTime ready_at = SimTime::max();
    scaler.requestInstance([&](Instance &) { ready_at = sim.now(); });
    sim.runUntil(SimTime::sec(10));
    EXPECT_LT(ready_at, SimTime::sec(1));
}

TEST_F(CloudTest, FargateFasterThanOnDemandButSlowerThanFaas)
{
    InstanceScaler fargate(sim, net, ScalingKind::Fargate, fargate4(),
                           "vpc");
    InstanceScaler ec2(sim, net, ScalingKind::OnDemand, m4XLarge(),
                       "vpc");
    SimTime fargate_ready, ec2_ready;
    fargate.requestInstance(
        [&](Instance &) { fargate_ready = sim.now(); });
    ec2.requestInstance([&](Instance &) { ec2_ready = sim.now(); });
    sim.runUntil(SimTime::sec(300));
    EXPECT_LT(fargate_ready, ec2_ready);
    EXPECT_GT(fargate_ready, SimTime::sec(30));
}

TEST_F(CloudTest, BurstableCostAccruesFromTimeZero)
{
    InstanceScaler scaler(sim, net, ScalingKind::Burstable, t3XLarge(),
                          "vpc");
    sim.runUntil(SimTime::sec(3600));
    // One always-on instance for an hour.
    EXPECT_NEAR(scaler.accruedCost(sim.now()),
                t3XLarge().price_per_hour, 1e-6);
}

TEST_F(CloudTest, OnDemandCostAccruesOnlyAfterLaunch)
{
    InstanceScaler scaler(sim, net, ScalingKind::OnDemand, m4XLarge(),
                          "vpc");
    sim.runUntil(SimTime::sec(1800));
    EXPECT_DOUBLE_EQ(scaler.accruedCost(sim.now()), 0.0);
    scaler.requestInstance([](Instance &) {});
    sim.runUntil(SimTime::sec(5400));
    double cost = scaler.accruedCost(sim.now());
    // Billed for ~1 h minus provisioning.
    EXPECT_GT(cost, m4XLarge().price_per_hour * 0.95);
    EXPECT_LT(cost, m4XLarge().price_per_hour * 1.01);
}

TEST_F(CloudTest, FaasColdBootTakesAboutASecond)
{
    FaasPlatform ow(sim, net, openWhiskProfile());
    SimTime got_at;
    ow.acquire([&](FunctionInstance &) { got_at = sim.now(); });
    sim.runUntil(SimTime::sec(10));
    EXPECT_GT(got_at, SimTime::msec(500));
    EXPECT_LT(got_at, SimTime::msec(2000));
    EXPECT_EQ(ow.coldBoots(), 1u);
    EXPECT_EQ(ow.warmBoots(), 0u);
}

TEST_F(CloudTest, WarmBootReusesCachedInstance)
{
    FaasPlatform ow(sim, net, openWhiskProfile());
    FunctionInstance *first = nullptr;
    ow.acquire([&](FunctionInstance &inst) {
        first = &inst;
        ow.release(inst);
    });
    sim.runUntil(SimTime::sec(5));
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(ow.warmCount(), 1u);

    SimTime start = sim.now();
    SimTime got_at;
    FunctionInstance *second = nullptr;
    ow.acquire([&](FunctionInstance &inst) {
        second = &inst;
        got_at = sim.now();
    });
    sim.runUntil(SimTime::sec(10));
    EXPECT_EQ(second, first);
    EXPECT_LT(got_at - start, SimTime::msec(100));
    EXPECT_EQ(ow.warmBoots(), 1u);
}

TEST_F(CloudTest, RuntimeStateSurvivesWarmReuse)
{
    FaasPlatform ow(sim, net, openWhiskProfile());
    ow.acquire([&](FunctionInstance &inst) {
        inst.runtime_state = std::make_shared<int>(1234);
        ow.release(inst);
    });
    sim.runUntil(SimTime::sec(5));
    int seen = 0;
    ow.acquire([&](FunctionInstance &inst) {
        seen = *std::static_pointer_cast<int>(inst.runtime_state);
    });
    sim.runUntil(SimTime::sec(10));
    EXPECT_EQ(seen, 1234);
}

TEST_F(CloudTest, ConcurrentAcquiresLaunchSeparateInstances)
{
    FaasPlatform ow(sim, net, openWhiskProfile());
    int got = 0;
    for (int i = 0; i < 5; ++i)
        ow.acquire([&](FunctionInstance &) { ++got; });
    sim.runUntil(SimTime::sec(10));
    EXPECT_EQ(got, 5);
    EXPECT_EQ(ow.totalInstances(), 5u);
    EXPECT_EQ(ow.coldBoots(), 5u);
    EXPECT_EQ(ow.inUseCount(), 5u);
}

TEST_F(CloudTest, CacheExpiryForcesColdBoot)
{
    FaasProfile p = openWhiskProfile();
    p.keep_alive = SimTime::sec(30);
    FaasPlatform ow(sim, net, p);
    ow.acquire([&](FunctionInstance &inst) { ow.release(inst); });
    sim.runUntil(SimTime::sec(5));
    EXPECT_EQ(ow.warmCount(), 1u);
    // Wait past keep-alive.
    sim.runUntil(SimTime::sec(60));
    ow.acquire([&](FunctionInstance &) {});
    sim.runUntil(SimTime::sec(70));
    EXPECT_EQ(ow.coldBoots(), 2u);
    EXPECT_EQ(ow.warmBoots(), 0u);
}

TEST_F(CloudTest, PrewarmFillsThePool)
{
    FaasPlatform ow(sim, net, openWhiskProfile());
    bool done = false;
    ow.prewarm(4, [&] { done = true; });
    sim.runUntil(SimTime::sec(10));
    EXPECT_TRUE(done);
    EXPECT_EQ(ow.warmCount(), 4u);
    // Subsequent burst of acquires is all warm.
    int got = 0;
    for (int i = 0; i < 4; ++i)
        ow.acquire([&](FunctionInstance &) { ++got; });
    sim.runUntil(SimTime::sec(11));
    EXPECT_EQ(got, 4);
    EXPECT_EQ(ow.warmBoots(), 4u);
}

TEST_F(CloudTest, DestroyRemovesInstanceFromPool)
{
    FaasPlatform ow(sim, net, openWhiskProfile());
    ow.acquire([&](FunctionInstance &inst) { ow.destroy(inst); });
    sim.runUntil(SimTime::sec(5));
    EXPECT_EQ(ow.warmCount(), 0u);
    ow.acquire([](FunctionInstance &) {});
    sim.runUntil(SimTime::sec(10));
    EXPECT_EQ(ow.coldBoots(), 2u);
}

TEST_F(CloudTest, FaasCostScalesWithBusyTime)
{
    FaasPlatform lambda(sim, net, lambdaProfile(1.0));
    FunctionInstance *held = nullptr;
    lambda.acquire([&](FunctionInstance &inst) { held = &inst; });
    sim.runUntil(SimTime::sec(2));
    ASSERT_NE(held, nullptr);
    // Hold the function busy for 100 s.
    sim.runUntil(SimTime::sec(102));
    lambda.release(*held);
    double cost = lambda.accruedCost(sim.now());
    // ~100 GB-seconds at $0.0000166667 plus invocation fee.
    EXPECT_NEAR(cost, 100.0 * 0.0000166667, 0.0004);
    EXPECT_GT(cost, 0.0);
}

TEST_F(CloudTest, LambdaZoneHasHigherLatencyThanVpc)
{
    FaasPlatform ow(sim, net, openWhiskProfile());
    FaasPlatform lambda(sim, net, lambdaProfile(1.0));
    net::EndpointId server = net.addNode("server", "vpc");
    net::EndpointId ow_ep = net::kNoEndpoint;
    net::EndpointId lam_ep = net::kNoEndpoint;
    ow.acquire([&](FunctionInstance &i) {
        ow_ep = i.machine->endpoint();
    });
    lambda.acquire([&](FunctionInstance &i) {
        lam_ep = i.machine->endpoint();
    });
    sim.runUntil(SimTime::sec(10));
    EXPECT_LT(net.baseLatency(server, ow_ep),
              net.baseLatency(server, lam_ep));
}

TEST_F(CloudTest, RestoreBootIsDeterministicAndPaysImageTransfer)
{
    FaasProfile p = openWhiskProfile();
    FaasPlatform ow(sim, net, p);
    SimTime start = sim.now();
    SimTime got_at;
    ow.acquireRestore(0, [&](FunctionInstance &inst) {
        got_at = sim.now();
        EXPECT_EQ(inst.last_boot, BootKind::Restore);
        ow.release(inst);
    });
    sim.runUntil(SimTime::sec(5));
    EXPECT_EQ(ow.restoreBoots(), 1u);
    EXPECT_EQ(ow.coldBoots(), 0u);
    // No jitter draw: exactly the base latency for an empty image.
    EXPECT_EQ(got_at - start, p.restore_boot_base);
    EXPECT_LT(got_at - start, p.cold_boot_mean);

    // A non-empty image adds its transfer time on top.
    SimTime start2 = sim.now();
    SimTime got_at2;
    ow.acquireRestore(64u << 20, [&](FunctionInstance &inst) {
        got_at2 = sim.now();
        ow.release(inst);
    });
    sim.runUntil(SimTime::sec(30));
    EXPECT_EQ(ow.restoreBoots(), 2u);
    EXPECT_GT(got_at2 - start2, p.restore_boot_base);
}

TEST_F(CloudTest, ScheduledSweepExpiresIdleCacheWithoutTraffic)
{
    FaasProfile p = openWhiskProfile();
    p.keep_alive = SimTime::sec(30);
    FaasPlatform ow(sim, net, p);
    ow.acquire([&](FunctionInstance &inst) { ow.release(inst); });
    sim.runUntil(SimTime::sec(25));
    EXPECT_EQ(ow.warmCount(), 1u);
    // No acquire ever scans the pool again: the scheduled sweep
    // alone must retire the cache entry at keep-alive expiry.
    sim.runUntil(SimTime::sec(40));
    EXPECT_EQ(ow.warmCount(), 0u);
    EXPECT_EQ(ow.expired(), 1u);
}

TEST_F(CloudTest, SweepTimerIgnoresReacquiredInstances)
{
    FaasProfile p = openWhiskProfile();
    p.keep_alive = SimTime::sec(10);
    FaasPlatform ow(sim, net, p);
    FunctionInstance *held = nullptr;
    ow.acquire([&](FunctionInstance &inst) { ow.release(inst); });
    sim.runUntil(SimTime::sec(5));
    ow.acquire([&](FunctionInstance &inst) { held = &inst; });
    // The first release's timer fires around t=11 while the
    // instance is busy again; the idle-epoch guard makes it a no-op.
    sim.runUntil(SimTime::sec(30));
    ASSERT_NE(held, nullptr);
    EXPECT_EQ(ow.warmBoots(), 1u);
    EXPECT_EQ(ow.expired(), 0u);
    ow.release(*held);
    sim.runUntil(SimTime::sec(45));
    EXPECT_EQ(ow.expired(), 1u);
    EXPECT_EQ(ow.warmCount(), 0u);
}

TEST(CostReport, AccumulatesAndMerges)
{
    CostReport report;
    report.add("server", 0.10);
    report.add("faas", 0.02);
    report.add("server", 0.05);
    EXPECT_DOUBLE_EQ(report.total(), 0.17);
    EXPECT_DOUBLE_EQ(report.get("server"), 0.15);
    EXPECT_DOUBLE_EQ(report.get("missing"), 0.0);
    EXPECT_EQ(report.lines().size(), 2u);
}

} // namespace
} // namespace beehive::cloud
