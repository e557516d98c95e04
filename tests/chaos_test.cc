/**
 * @file
 * Fault-injection plane and end-to-end failure handling.
 *
 * Three property families:
 *  - isolation: chaos off (or enabled with all-zero rates) is
 *    byte-identical to a tree without the subsystem, and the chaos
 *    RNG stream is independent of the workload streams (same seed +
 *    same plan => identical fault sequence AND identical latencies);
 *  - recoverability: kills during the shadow phase, crashes during
 *    restore boots, and kills at every point of a real invocation
 *    all recover without losing the request;
 *  - exactly-once: across a 48-seed fuzz of full fault schedules,
 *    the number of writes applied at the record store equals the
 *    fault-free count -- retries and local re-executions never
 *    double-apply a side effect.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "chaos/chaos.h"
#include "harness/testbed.h"
#include "workload/clients.h"

namespace beehive::harness {
namespace {

using sim::SimTime;

/** Outcome of one closed-loop run used for bitwise comparisons. */
struct RunResult
{
    std::vector<double> latencies;
    uint64_t completed = 0;
    uint64_t faults = 0;
    uint64_t retries = 0;
};

RunResult
runWorkload(TestbedOptions opts, SimTime duration)
{
    Testbed bed(opts);
    EXPECT_TRUE(bed.runProfilingPhase());
    bed.manager()->setOffloadRatio(0.5);
    workload::Recorder recorder;
    workload::ClosedLoopClients clients(bed.sim(), bed.sink(),
                                        recorder);
    clients.start(4, bed.sim().now());
    bed.sim().runUntil(bed.sim().now() + duration);
    clients.stopAll();
    SimTime guard = bed.sim().now() + SimTime::sec(120);
    while (clients.active() > 0 && bed.sim().now() < guard)
        bed.sim().runUntil(bed.sim().now() + SimTime::msec(100));
    EXPECT_EQ(clients.active(), 0);
    RunResult out;
    out.latencies = recorder.latencies().samples();
    out.completed = recorder.completed();
    if (bed.chaosEngine())
        out.faults = bed.chaosEngine()->stats().total();
    out.retries = bed.manager()->stats().retries;
    return out;
}

void
expectSameBits(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.completed, b.completed);
    ASSERT_EQ(a.latencies.size(), b.latencies.size());
    EXPECT_EQ(0, std::memcmp(a.latencies.data(), b.latencies.data(),
                             a.latencies.size() * sizeof(double)));
}

TestbedOptions
quickOptions(AppKind app = AppKind::Thumbnail)
{
    TestbedOptions opts;
    opts.app = app;
    opts.framework.native_scale = 200;
    return opts;
}

/** Recovery stack used by the fault-bearing tests. */
void
enableRecovery(TestbedOptions &opts)
{
    opts.beehive.failure_recovery = true;
    opts.beehive.offload_deadline = SimTime::sec(1);
    opts.beehive.offload_max_retries = 5;
    opts.beehive.retry_backoff_base = SimTime::msec(2);
    opts.beehive.breaker_threshold = 2;
    opts.beehive.graceful_degradation = true;
}

/** Storm plan with a short blackhole so dropped messages resolve
 * within test guards. */
chaos::FaultPlan
testStorm(double intensity)
{
    chaos::FaultPlan plan = chaos::FaultPlan::storm(intensity);
    plan.blackhole = SimTime::sec(2);
    return plan;
}

// --- isolation ------------------------------------------------------

TEST(Chaos, OffIsByteIdenticalToZeroRatePlan)
{
    // A constructed engine whose plan injects nothing must draw no
    // RNG and perturb no latency: the run is bitwise identical to
    // one with no engine at all.
    RunResult off = runWorkload(quickOptions(), SimTime::sec(8));

    TestbedOptions zeroed = quickOptions();
    zeroed.chaos.enabled = true; // all rates at their 0.0 defaults
    RunResult zero_rates = runWorkload(zeroed, SimTime::sec(8));

    ASSERT_GT(off.completed, 20u);
    EXPECT_EQ(zero_rates.faults, 0u);
    expectSameBits(off, zero_rates);
}

TEST(Chaos, SameSeedSamePlanSameFaultsAndLatencies)
{
    TestbedOptions opts = quickOptions();
    enableRecovery(opts);
    opts.chaos = testStorm(0.6);
    RunResult first = runWorkload(opts, SimTime::sec(8));
    RunResult second = runWorkload(opts, SimTime::sec(8));
    ASSERT_GT(first.completed, 10u);
    EXPECT_GT(first.faults, 0u);
    EXPECT_EQ(first.faults, second.faults);
    EXPECT_EQ(first.retries, second.retries);
    expectSameBits(first, second);
}

// --- recoverability -------------------------------------------------

TEST(Chaos, KillDuringShadowPhaseRecovers)
{
    TestbedOptions opts = quickOptions(AppKind::Pybbs);
    opts.beehive.failure_recovery = true;
    Testbed bed(opts);
    ASSERT_TRUE(bed.runProfilingPhase());
    bed.manager()->setOffloadRatio(1.0);

    // The first offloaded request cold-boots an instance and runs
    // as a shadow while the local leg serves the user. Kill the
    // shadow mid-run.
    bool done = false;
    bed.server().handleLocal(bed.app().entry(),
                             {vm::Value::ofInt(42)},
                             [&](vm::Value) { done = true; });
    bool killed = false;
    SimTime guard = bed.sim().now() + SimTime::sec(30);
    while ((!done || !killed) && bed.sim().now() < guard) {
        bed.sim().runUntil(bed.sim().now() + SimTime::msec(1));
        if (!killed)
            killed = bed.manager()->injectFailure();
    }
    EXPECT_TRUE(done);   // the user never waits on the shadow
    ASSERT_TRUE(killed); // and the kill really landed
    // The shadow retries on a fresh instance and finishes warming.
    bed.sim().runUntil(bed.sim().now() + SimTime::sec(60));
    EXPECT_GE(bed.manager()->stats().shadows, 1u);
    EXPECT_GE(bed.manager()->stats().retries, 1u);
}

TEST(Chaos, CrashDuringRestoreBootRecovers)
{
    TestbedOptions opts = quickOptions(AppKind::Thumbnail);
    enableRecovery(opts);
    // Every restore boot dies mid-restore; the retry cold-boots.
    opts.beehive.static_manifests = true;
    opts.chaos.enabled = true;
    opts.chaos.restore_crash = 1.0;
    Testbed bed(opts);
    ASSERT_TRUE(bed.runProfilingPhase());
    bed.manager()->setOffloadRatio(1.0);

    workload::Recorder recorder;
    workload::ClosedLoopClients clients(bed.sim(), bed.sink(),
                                        recorder);
    clients.start(3, bed.sim().now());
    bed.sim().runUntil(bed.sim().now() + SimTime::sec(10));
    clients.stopAll();
    SimTime guard = bed.sim().now() + SimTime::sec(60);
    while (clients.active() > 0 && bed.sim().now() < guard)
        bed.sim().runUntil(bed.sim().now() + SimTime::msec(100));

    EXPECT_EQ(clients.active(), 0);
    EXPECT_GT(recorder.completed(), 20u);
    EXPECT_GE(bed.chaosEngine()->stats().restore_crashes, 1u);
    EXPECT_GE(bed.manager()->stats().boot_failures, 1u);
}

TEST(Chaos, DegradationHalvesToFloorThenRecovers)
{
    TestbedOptions opts = quickOptions(AppKind::Thumbnail);
    enableRecovery(opts);
    opts.chaos.enabled = true;
    opts.chaos.invoke_crash = 1.0; // every dispatched attempt dies
    Testbed bed(opts);
    ASSERT_TRUE(bed.runProfilingPhase());
    bed.manager()->setOffloadRatio(1.0);

    workload::Recorder recorder;
    workload::ClosedLoopClients clients(bed.sim(), bed.sink(),
                                        recorder);
    clients.start(4, bed.sim().now());

    // Sample the factor often enough to see every step: while
    // faults land it only ever halves, clamped at the 5% floor.
    double factor = bed.manager()->degradeFactor();
    EXPECT_EQ(factor, 1.0);
    SimTime guard = bed.sim().now() + SimTime::sec(120);
    while (factor > 0.05 && bed.sim().now() < guard) {
        bed.sim().runUntil(bed.sim().now() + SimTime::msec(1));
        double next = bed.manager()->degradeFactor();
        if (next != factor) {
            EXPECT_EQ(next, std::max(0.05, factor * 0.5));
            factor = next;
        }
    }
    EXPECT_EQ(factor, 0.05);
    EXPECT_GT(bed.manager()->stats().degradations, 0u);
    EXPECT_GE(bed.chaosEngine()->stats().invoke_crashes, 1u);

    // A clean stretch: with invocation crashes detached, windows of
    // successful flights double the factor back up to 1.0.
    bed.manager()->setChaos(nullptr);
    guard = bed.sim().now() + SimTime::sec(600);
    while (factor < 1.0 && bed.sim().now() < guard) {
        bed.sim().runUntil(bed.sim().now() + SimTime::msec(100));
        double next = bed.manager()->degradeFactor();
        EXPECT_GE(next, factor);
        factor = next;
    }
    EXPECT_EQ(factor, 1.0);
    EXPECT_GT(bed.manager()->stats().degrade_recoveries, 0u);

    clients.stopAll();
    guard = bed.sim().now() + SimTime::sec(60);
    while (clients.active() > 0 && bed.sim().now() < guard)
        bed.sim().runUntil(bed.sim().now() + SimTime::msec(100));
    EXPECT_EQ(clients.active(), 0);
}

/**
 * Kill-at-every-sync-point: warm an instance, then issue one real
 * offloaded request and kill the serving instance after @p
 * kill_step milliseconds -- the parameter sweep lands the kill
 * before, between, and after each of the invocation's
 * synchronization points. Returns the number of writes the store
 * applied for the measured request.
 */
uint64_t
killAtStepRun(int kill_step, bool *killed_out)
{
    TestbedOptions opts = quickOptions(AppKind::Pybbs);
    opts.beehive.failure_recovery = true;
    Testbed bed(opts);
    EXPECT_TRUE(bed.runProfilingPhase());
    bed.manager()->setOffloadRatio(1.0);

    // Warm-up request: cold boot + shadow + local leg. Drain until
    // the shadow completes so the next offload is a real one.
    bool warm_done = false;
    bed.server().handleLocal(bed.app().entry(),
                             {vm::Value::ofInt(123)},
                             [&](vm::Value) { warm_done = true; });
    SimTime guard = bed.sim().now() + SimTime::sec(60);
    while (!warm_done && bed.sim().now() < guard)
        bed.sim().runUntil(bed.sim().now() + SimTime::msec(10));
    EXPECT_TRUE(warm_done);
    bed.sim().runUntil(bed.sim().now() + SimTime::sec(30));
    EXPECT_GE(bed.manager()->stats().shadows, 1u);

    uint64_t writes = 0;
    bed.store().setWriteObserver(
        [&writes](const db::Request &) { ++writes; });

    bool done = false;
    bed.server().handleLocal(bed.app().entry(),
                             {vm::Value::ofInt(456)},
                             [&](vm::Value) { done = true; });
    bool killed = false;
    int step = 0;
    guard = bed.sim().now() + SimTime::sec(60);
    while (!done && bed.sim().now() < guard) {
        bed.sim().runUntil(bed.sim().now() + SimTime::msec(1));
        if (!killed && step++ == kill_step)
            killed = bed.manager()->injectFailure();
    }
    EXPECT_TRUE(done);
    bed.sim().runUntil(bed.sim().now() + SimTime::sec(5));
    if (killed_out)
        *killed_out = killed;
    return writes;
}

class KillAtEverySyncPoint : public ::testing::TestWithParam<int>
{};

TEST_P(KillAtEverySyncPoint, RequestCompletesWritesApplyOnce)
{
    // Fault-free reference: the measured request's applied writes.
    static uint64_t baseline = killAtStepRun(-1, nullptr);
    ASSERT_GT(baseline, 0u);

    bool killed = false;
    uint64_t writes = killAtStepRun(GetParam(), &killed);
    // Whether the kill landed mid-invocation (early steps) or the
    // request already finished (late steps), the request completed
    // and the store applied each write exactly once: full replays
    // are deduplicated by idempotency key, snapshot resumes
    // continue the write sequence.
    EXPECT_EQ(writes, baseline) << "kill step " << GetParam()
                                << " killed=" << killed;
}

INSTANTIATE_TEST_SUITE_P(SyncPoints, KillAtEverySyncPoint,
                         ::testing::Range(0, 12));

// --- exactly-once under fuzzed fault schedules ---------------------

/** Applied-write count of N sequential fully-offloaded requests
 * (fixed ids, so the expected write set is seed-independent). */
uint64_t
fuzzRun(uint64_t seed, bool chaos_on)
{
    TestbedOptions opts = quickOptions(AppKind::Pybbs);
    opts.seed = seed;
    opts.profiling_requests = 8;
    if (chaos_on) {
        enableRecovery(opts);
        opts.chaos = testStorm(0.7);
    }
    Testbed bed(opts);
    EXPECT_TRUE(bed.runProfilingPhase());
    uint64_t writes = 0;
    bed.store().setWriteObserver(
        [&writes](const db::Request &) { ++writes; });
    bed.manager()->setOffloadRatio(1.0);
    for (int i = 0; i < 6; ++i) {
        bool done = false;
        bed.server().handleLocal(bed.app().entry(),
                                 {vm::Value::ofInt(5000 + i)},
                                 [&](vm::Value) { done = true; });
        SimTime guard = bed.sim().now() + SimTime::sec(90);
        while (!done && bed.sim().now() < guard)
            bed.sim().runUntil(bed.sim().now() + SimTime::msec(5));
        EXPECT_TRUE(done) << "seed " << seed << " request " << i;
    }
    // Let straggling shadows/retries finish (their writes are either
    // overlay-intercepted or key-suppressed, so the count is final).
    bed.sim().runUntil(bed.sim().now() + SimTime::sec(20));
    return writes;
}

TEST(Chaos, FuzzedFaultSchedulesApplyWritesExactlyOnce)
{
    uint64_t baseline = fuzzRun(1, /*chaos_on=*/false);
    ASSERT_GT(baseline, 0u);
    for (uint64_t seed = 1; seed <= 48; ++seed) {
        EXPECT_EQ(fuzzRun(seed, /*chaos_on=*/true), baseline)
            << "seed " << seed;
    }
}

// --- DB reset retry on both endpoints ------------------------------

/** One keyed pybbs request, run locally or offloaded. */
struct ResetRun
{
    bool done = false;
    SimTime finished;
    uint64_t writes = 0; //!< writes the store applied for it
    uint64_t server_resets = 0;
    uint64_t fn_resets = 0;
    uint64_t trace_resets = 0; //!< of the request's invocation
    SimTime reconnect_delay; //!< the proxy's first backoff step
    /** When each of its DB operations reached the store, and whether
     * it was a write. */
    std::vector<std::pair<SimTime, bool>> ops;
};

/**
 * Run one request with a nonzero request key: on the server
 * (handleLocal with offloading suppressed) or offloaded to an
 * instance a warm-up request already warmed. A timed FaultEvent
 * arms one DB reset at @p reset_at (none when zero).
 */
ResetRun
resetRun(bool offloaded, SimTime reset_at)
{
    TestbedOptions opts = quickOptions(AppKind::Pybbs);
    opts.beehive.failure_recovery = true;
    opts.chaos.enabled = true; // all rates zero: only the event fires
    if (reset_at > SimTime()) {
        opts.chaos.events.push_back(
            {reset_at, chaos::FaultEvent::Kind::DbReset, 1});
    }
    Testbed bed(opts);
    EXPECT_TRUE(bed.runProfilingPhase());
    if (offloaded) {
        bed.manager()->setOffloadRatio(1.0);
        bool warm_done = false;
        bed.server().handleLocal(bed.app().entry(),
                                 {vm::Value::ofInt(123)},
                                 [&](vm::Value) { warm_done = true; });
        SimTime guard = bed.sim().now() + SimTime::sec(60);
        while (!warm_done && bed.sim().now() < guard)
            bed.sim().runUntil(bed.sim().now() + SimTime::msec(10));
        EXPECT_TRUE(warm_done);
        bed.sim().runUntil(bed.sim().now() + SimTime::sec(30));
    }

    ResetRun out;
    bed.store().setWriteObserver(
        [&out](const db::Request &) { ++out.writes; });
    bed.store().setFaultHook([&](const db::Request &req) {
        out.ops.emplace_back(bed.sim().now(),
                             req.kind == db::OpKind::Put ||
                                 req.kind == db::OpKind::Delete);
        return bed.chaosEngine()->resetDbConnection();
    });
    auto done = [&](vm::Value) {
        out.done = true;
        out.finished = bed.sim().now();
    };
    if (offloaded) {
        bed.server().handleLocal(bed.app().entry(),
                                 {vm::Value::ofInt(456)}, done);
    } else {
        bed.server().handleLocal(bed.app().entry(),
                                 {vm::Value::ofInt(456)}, done,
                                 /*suppress_offload=*/true,
                                 /*request_key=*/99);
    }
    SimTime guard = bed.sim().now() + SimTime::sec(60);
    while (!out.done && bed.sim().now() < guard)
        bed.sim().runUntil(bed.sim().now() + SimTime::msec(1));
    bed.sim().runUntil(bed.sim().now() + SimTime::sec(5));
    out.reconnect_delay = bed.proxy().reconnectDelay(0);
    out.server_resets = bed.server().stats().db_resets;
    out.fn_resets = bed.manager()->functionStats().db_resets;
    if (offloaded && !bed.manager()->traces().empty())
        out.trace_resets = bed.manager()->traces().back().second.db_resets;
    return out;
}

TEST(Chaos, InvocationRetriesAResetWriteOnEitherEndpoint)
{
    for (bool offloaded : {false, true}) {
        SCOPED_TRACE(offloaded ? "offloaded" : "server-local");
        ResetRun clean = resetRun(offloaded, SimTime());
        ASSERT_TRUE(clean.done);
        ASSERT_GT(clean.writes, 0u);
        // Arm the reset between the first write and the operation
        // before it, so that the write is the one it hits.
        auto first_write =
            std::find_if(clean.ops.begin(), clean.ops.end(),
                         [](const auto &op) { return op.second; });
        ASSERT_NE(first_write, clean.ops.end());
        ASSERT_NE(first_write, clean.ops.begin());
        SimTime before = std::prev(first_write)->first;
        ASSERT_LT(before, first_write->first);
        SimTime reset_at =
            before + SimTime::nsec((first_write->first - before).ns() / 2);

        ResetRun hit = resetRun(offloaded, reset_at);
        ASSERT_TRUE(hit.done);
        // The write is re-issued once, under the same idempotency
        // key, and applied once.
        EXPECT_EQ(hit.writes, clean.writes);
        EXPECT_EQ(hit.ops.size(), clean.ops.size() + 1);
        EXPECT_EQ(hit.server_resets, offloaded ? 0u : 1u);
        EXPECT_EQ(hit.fn_resets, offloaded ? 1u : 0u);
        EXPECT_EQ(hit.trace_resets, offloaded ? 1u : 0u);
        EXPECT_GE(hit.finished.ns() - clean.finished.ns(),
                  hit.reconnect_delay.ns());
    }
}

// --- DB reset handling at the proxy --------------------------------

TEST(Chaos, ProxyAbsorbsReadResetWithOneRetry)
{
    db::RecordStore store;
    store.createTable("t");
    const db::Field fields[] = {{"v", "x"}};
    store.load("t", {db::Record::make(1, fields)});
    proxy::ConnectionProxy proxy(store);
    proxy::ConnId conn = proxy.openConnection(1);

    int armed = 1;
    store.setFaultHook(
        [&armed](const db::Request &) { return armed-- > 0; });

    db::Response resp =
        proxy.request(conn, db::Request(db::OpKind::Get, "t", 1));
    // Reads are idempotent: the proxy reconnects and re-issues
    // transparently, surfacing only the absorbed-reset count.
    EXPECT_TRUE(resp.ok);
    EXPECT_FALSE(resp.reset);
    EXPECT_EQ(resp.resets, 1u);
    ASSERT_EQ(resp.rows.size(), 1u);
    EXPECT_EQ(proxy.stats().reconnects, 1u);
    EXPECT_EQ(proxy.stats().read_retries, 1u);
}

TEST(Chaos, KeyedWriteResetRetriesExactlyOnce)
{
    db::RecordStore store;
    store.createTable("t");
    proxy::ConnectionProxy proxy(store);
    proxy::ConnId conn = proxy.openConnection(1);

    uint64_t applied = 0;
    store.setWriteObserver(
        [&applied](const db::Request &) { ++applied; });
    int armed = 1;
    store.setFaultHook(
        [&armed](const db::Request &) { return armed-- > 0; });

    db::Request put(db::OpKind::Put, "t", 7);
    put.row.id = 7;
    put.row.fields["v"] = "y";

    // The reset lands before the write executes: nothing applied,
    // the caller re-issues with the same idempotency key.
    db::Response first = proxy.request(conn, put, /*idem_key=*/777);
    EXPECT_TRUE(first.reset);
    EXPECT_FALSE(first.ok);
    EXPECT_EQ(applied, 0u);

    db::Response second = proxy.request(conn, put, 777);
    EXPECT_TRUE(second.ok);
    EXPECT_EQ(applied, 1u);

    // A duplicate (retried attempt) replays the stored response
    // instead of double-applying.
    db::Response third = proxy.request(conn, put, 777);
    EXPECT_TRUE(third.ok);
    EXPECT_EQ(applied, 1u);
    EXPECT_EQ(proxy.stats().dup_writes_suppressed, 1u);
    EXPECT_EQ(proxy.stats().idem_writes_applied, 1u);
    EXPECT_EQ(store.tableSize("t"), 1u);
}

} // namespace
} // namespace beehive::harness
