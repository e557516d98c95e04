/**
 * @file
 * Unit tests for the simulated network.
 */

#include <gtest/gtest.h>

#include "net/network.h"

namespace beehive::net {
namespace {

using sim::SimTime;

class NetworkTest : public ::testing::Test
{
  protected:
    NetworkTest()
    {
        net.setJitter(0.0); // deterministic latencies for assertions
        server = net.addNode("server-1", "vpc");
        faas = net.addNode("ow-inst-1", "vpc");
        lambda = net.addNode("lambda-1", "lambda");
        dbn = net.addNode("db-1", "db");
        net.setZoneLatency("vpc", "vpc", SimTime::usec(200));
        net.setZoneLatency("vpc", "lambda", SimTime::usec(700));
        net.setZoneLatency("vpc", "db", SimTime::usec(250));
    }

    Network net;
    EndpointId server, faas, lambda, dbn;
};

TEST_F(NetworkTest, NodeMetadata)
{
    EXPECT_EQ(net.nodeName(server), "server-1");
    EXPECT_EQ(net.nodeZone(lambda), "lambda");
    EXPECT_EQ(net.nodeCount(), 4u);
}

TEST_F(NetworkTest, ZonePairLatencyIsSymmetric)
{
    EXPECT_EQ(net.baseLatency(server, lambda), SimTime::usec(700));
    EXPECT_EQ(net.baseLatency(lambda, server), SimTime::usec(700));
}

TEST_F(NetworkTest, IntraZoneLatency)
{
    EXPECT_EQ(net.baseLatency(server, faas), SimTime::usec(200));
}

TEST_F(NetworkTest, SelfDeliveryIsFree)
{
    EXPECT_EQ(net.baseLatency(server, server), SimTime());
    EXPECT_EQ(net.oneWay(server, server, 1000000), SimTime());
}

TEST_F(NetworkTest, UnknownZonePairUsesDefault)
{
    net.setDefaultLatency(SimTime::msec(5));
    EXPECT_EQ(net.baseLatency(lambda, dbn), SimTime::msec(5));
}

TEST_F(NetworkTest, TransferTimeScalesWithSize)
{
    net.setBandwidth(1e9); // 1 GB/s
    SimTime small = net.oneWay(server, faas, 1000);
    SimTime big = net.oneWay(server, faas, 10000000);
    // 10 MB at 1 GB/s adds 10 ms.
    EXPECT_NEAR((big - small).toMillis(), 10.0, 0.1);
}

TEST_F(NetworkTest, RoundTripIsSumOfOneWays)
{
    SimTime rt = net.roundTrip(server, dbn, 100, 100);
    EXPECT_NEAR(rt.toMicros(), 500.0, 1.0);
}

TEST(NetworkZoneTable, ThreeZoneLatenciesArePinned)
{
    Network net;
    // Latencies set before any node names their zones...
    net.setZoneLatency("vpc", "lambda", SimTime::usec(700));
    net.setZoneLatency("db", "db", SimTime::usec(20));
    const EndpointId n[] = {
        net.addNode("s1", "vpc"),    net.addNode("l1", "lambda"),
        net.addNode("d1", "db"),     net.addNode("s2", "vpc"),
        net.addNode("l2", "lambda"), net.addNode("d2", "db"),
    };
    // ... and after; a pair set again in either order is replaced.
    net.setZoneLatency("db", "vpc", SimTime::usec(250));
    net.setZoneLatency("lambda", "vpc", SimTime::usec(650));

    // One-way microseconds by node index; -1 is the default latency
    // (vpc-vpc, lambda-lambda and lambda-db are unset), 0 self.
    const int64_t expect[6][6] = {
        {0, 650, 250, -1, 650, 250},   {650, 0, -1, 650, -1, -1},
        {250, -1, 0, 250, -1, 20},     {-1, 650, 250, 0, 650, 250},
        {650, -1, -1, 650, 0, -1},     {250, -1, 20, 250, -1, 0},
    };
    for (SimTime fallback : {SimTime::usec(200), SimTime::msec(5)}) {
        net.setDefaultLatency(fallback);
        for (int a = 0; a < 6; ++a) {
            for (int b = 0; b < 6; ++b) {
                SimTime want = expect[a][b] < 0
                                   ? fallback
                                   : SimTime::usec(expect[a][b]);
                EXPECT_EQ(net.baseLatency(n[a], n[b]), want)
                    << a << " -> " << b;
            }
        }
    }
    EXPECT_EQ(net.nodeZone(n[2]), "db");

    // A zone first named by a latency, then by a node.
    net.setZoneLatency("az2", "vpc", SimTime::usec(900));
    EndpointId far = net.addNode("a1", "az2");
    EXPECT_EQ(net.baseLatency(far, n[0]), SimTime::usec(900));
    EXPECT_EQ(net.baseLatency(n[3], far), SimTime::usec(900));
    EXPECT_EQ(net.baseLatency(far, n[2]), SimTime::msec(5));
    EXPECT_EQ(net.baseLatency(n[1], n[0]), SimTime::usec(650));
    EXPECT_EQ(net.nodeZone(far), "az2");
}

TEST(NetworkJitter, JitterPerturbsButStaysPositive)
{
    Network net(7);
    net.setJitter(0.2);
    EndpointId a = net.addNode("a", "z1");
    EndpointId b = net.addNode("b", "z2");
    net.setZoneLatency("z1", "z2", SimTime::usec(500));
    bool saw_different = false;
    SimTime first = net.oneWay(a, b, 0);
    for (int i = 0; i < 100; ++i) {
        SimTime t = net.oneWay(a, b, 0);
        EXPECT_GT(t.ns(), 0);
        // Never below 50% of nominal.
        EXPECT_GE(t.toMicros(), 250.0);
        if (t != first)
            saw_different = true;
    }
    EXPECT_TRUE(saw_different);
}

TEST(NetworkJitter, SameSeedSameSequence)
{
    auto run = [] {
        Network net(42);
        net.setJitter(0.1);
        EndpointId a = net.addNode("a", "z1");
        EndpointId b = net.addNode("b", "z2");
        net.setZoneLatency("z1", "z2", SimTime::usec(500));
        std::vector<int64_t> seq;
        for (int i = 0; i < 20; ++i)
            seq.push_back(net.oneWay(a, b, 100).ns());
        return seq;
    };
    EXPECT_EQ(run(), run());
}

} // namespace
} // namespace beehive::net
