/**
 * @file
 * Unit tests for the discrete-event simulation core.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/cpu.h"
#include "sim/event_queue.h"
#include "sim/sim_time.h"
#include "sim/simulation.h"
#include "sim/stats.h"

namespace beehive::sim {
namespace {

TEST(SimTime, UnitConversions)
{
    EXPECT_EQ(SimTime::usec(3).ns(), 3000);
    EXPECT_EQ(SimTime::msec(2).ns(), 2000000);
    EXPECT_EQ(SimTime::sec(1).ns(), 1000000000);
    EXPECT_DOUBLE_EQ(SimTime::msec(1500).toSeconds(), 1.5);
    EXPECT_DOUBLE_EQ(SimTime::seconds(0.25).toMillis(), 250.0);
}

TEST(SimTime, Arithmetic)
{
    SimTime t = SimTime::sec(1) + SimTime::msec(500);
    EXPECT_DOUBLE_EQ(t.toSeconds(), 1.5);
    t -= SimTime::msec(1500);
    EXPECT_EQ(t, SimTime());
    EXPECT_EQ((SimTime::sec(2) * 0.5), SimTime::sec(1));
}

TEST(SimTime, Ordering)
{
    EXPECT_LT(SimTime::msec(1), SimTime::msec(2));
    EXPECT_GT(SimTime::max(), SimTime::sec(1000000));
}

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(SimTime::msec(5), [&] { order.push_back(2); });
    q.schedule(SimTime::msec(1), [&] { order.push_back(1); });
    q.schedule(SimTime::msec(9), [&] { order.push_back(3); });
    while (!q.empty())
        q.runOne();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.schedule(SimTime::msec(7), [&order, i] { order.push_back(i); });
    while (!q.empty())
        q.runOne();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue q;
    bool ran = false;
    EventId id = q.schedule(SimTime::msec(1), [&] { ran = true; });
    EXPECT_TRUE(q.cancel(id));
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelTwiceIsNoOp)
{
    EventQueue q;
    EventId id = q.schedule(SimTime::msec(1), [] {});
    EXPECT_TRUE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id));
    EXPECT_FALSE(q.cancel(99999));
}

TEST(EventQueue, NextTimeReflectsEarliestPending)
{
    EventQueue q;
    EXPECT_EQ(q.nextTime(), SimTime::max());
    q.schedule(SimTime::msec(5), [] {});
    EventId early = q.schedule(SimTime::msec(2), [] {});
    EXPECT_EQ(q.nextTime(), SimTime::msec(2));
    q.cancel(early);
    EXPECT_EQ(q.nextTime(), SimTime::msec(5));
}

TEST(EventQueue, CallbackMayScheduleMoreEvents)
{
    EventQueue q;
    int fired = 0;
    std::function<void()> chain = [&] {
        if (++fired < 5)
            q.schedule(SimTime::msec(fired), chain);
    };
    q.schedule(SimTime(), chain);
    while (!q.empty())
        q.runOne();
    EXPECT_EQ(fired, 5);
}

TEST(EventQueue, CancelAfterFireReturnsFalse)
{
    // Regression: the old lazy-deletion queue remembered cancelled
    // ids in a set forever, so cancelling an already-FIRED event
    // reported true. The slab queue's generation check reports the
    // truth: nothing was cancelled.
    EventQueue q;
    int fired = 0;
    EventId id = q.schedule(SimTime::msec(1), [&] { ++fired; });
    EXPECT_EQ(q.runOne(), SimTime::msec(1));
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id)); // and stays false
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, StaleIdDoesNotCancelSlotReuser)
{
    // Cancelling frees the slot immediately; a new event may reuse
    // it. The old EventId must not be able to kill the newcomer.
    EventQueue q;
    bool first = false, second = false;
    EventId id1 = q.schedule(SimTime::msec(1), [&] { first = true; });
    EXPECT_TRUE(q.cancel(id1));
    EventId id2 = q.schedule(SimTime::msec(2), [&] { second = true; });
    EXPECT_FALSE(q.cancel(id1)); // stale generation
    EXPECT_EQ(q.pending(), 1u);
    while (!q.empty())
        q.runOne();
    EXPECT_FALSE(first);
    EXPECT_TRUE(second);
    EXPECT_FALSE(q.cancel(id2)); // fired, not cancellable
}

TEST(EventQueue, ConstAccessorsSkipCancelledTop)
{
    // empty()/nextTime() are const (the old implementation needed a
    // const_cast to prune its lazy-deleted top); cancelling the
    // earliest event must be visible through a const reference.
    EventQueue q;
    q.schedule(SimTime::msec(5), [] {});
    EventId early = q.schedule(SimTime::msec(2), [] {});
    q.cancel(early);
    const EventQueue &cq = q;
    EXPECT_FALSE(cq.empty());
    EXPECT_EQ(cq.nextTime(), SimTime::msec(5));
    EXPECT_EQ(cq.pending(), 1u);
}

TEST(EventQueue, LargeCaptureFallsBackToHeap)
{
    // Captures beyond SmallFn's inline buffer go through the heap
    // branch; behavior must be unchanged.
    EventQueue q;
    std::array<int64_t, 16> payload{};
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<int64_t>(i + 1);
    int64_t sum = 0;
    q.schedule(SimTime::msec(1), [payload, &sum] {
        for (int64_t v : payload)
            sum += v;
    });
    while (!q.empty())
        q.runOne();
    EXPECT_EQ(sum, 136);
}

TEST(SmallFnTest, InlineAndHeapStorage)
{
    int hits = 0;
    SmallFn small([&hits] { ++hits; });
    EXPECT_TRUE(small.storedInline());
    small();
    EXPECT_EQ(hits, 1);

    std::array<char, 128> big{};
    big[0] = 7;
    SmallFn large([big, &hits] { hits += big[0]; });
    EXPECT_FALSE(large.storedInline());
    large();
    EXPECT_EQ(hits, 8);

    // Move transfers the callable; the source becomes empty.
    SmallFn moved(std::move(small));
    EXPECT_TRUE(static_cast<bool>(moved));
    EXPECT_FALSE(static_cast<bool>(small));
    moved();
    EXPECT_EQ(hits, 9);
}

TEST(EventQueue, PoolReuseKeepsDeterministicOrder)
{
    // Heavy schedule/cancel/fire churn across slot reuse must keep
    // the (when, seq) total order intact.
    EventQueue q;
    std::vector<int> order;
    std::vector<EventId> ids;
    for (int round = 0; round < 50; ++round) {
        ids.clear();
        for (int i = 0; i < 8; ++i) {
            int tag = round * 8 + i;
            ids.push_back(q.schedule(SimTime::usec(10 + i % 3),
                                     [&order, tag] {
                                         order.push_back(tag);
                                     }));
        }
        for (int i = 0; i < 8; i += 2)
            EXPECT_TRUE(q.cancel(ids[i]));
        while (!q.empty())
            q.runOne();
    }
    // Within one round: survivors of time 10+((i)%3) sorted by
    // (when, insertion); rounds never interleave.
    ASSERT_EQ(order.size(), 50u * 4u);
    for (int round = 0; round < 50; ++round) {
        int base = round * 8;
        std::vector<int> expect = {base + 3, base + 1, base + 7,
                                   base + 5};
        for (int i = 0; i < 4; ++i)
            EXPECT_EQ(order[round * 4 + i], expect[i]);
    }
}

TEST(Simulation, ClockAdvancesWithEvents)
{
    Simulation sim;
    SimTime seen;
    sim.after(SimTime::msec(10), [&] { seen = sim.now(); });
    sim.runUntil(SimTime::sec(1));
    EXPECT_EQ(seen, SimTime::msec(10));
    EXPECT_EQ(sim.now(), SimTime::sec(1));
}

TEST(Simulation, RunUntilStopsAtLimit)
{
    Simulation sim;
    bool late_ran = false;
    sim.after(SimTime::sec(5), [&] { late_ran = true; });
    sim.runUntil(SimTime::sec(2));
    EXPECT_FALSE(late_ran);
    EXPECT_EQ(sim.now(), SimTime::sec(2));
    sim.runUntil(SimTime::sec(10));
    EXPECT_TRUE(late_ran);
}

TEST(Simulation, EventAtLimitStillRuns)
{
    Simulation sim;
    bool ran = false;
    sim.after(SimTime::sec(2), [&] { ran = true; });
    sim.runUntil(SimTime::sec(2));
    EXPECT_TRUE(ran);
}

TEST(Cpu, SingleJobIdleCpuFinishesAtWorkOverSpeed)
{
    Simulation sim;
    ProcessorSharingCpu cpu(sim, 4, 1.0);
    SimTime done_at;
    cpu.submit(1e6 /* 1 ms of work */, [&] { done_at = sim.now(); });
    sim.runAll();
    EXPECT_NEAR(done_at.toMillis(), 1.0, 0.001);
}

TEST(Cpu, SpeedFactorScalesServiceTime)
{
    Simulation sim;
    ProcessorSharingCpu cpu(sim, 1, 0.5);
    SimTime done_at;
    cpu.submit(1e6, [&] { done_at = sim.now(); });
    sim.runAll();
    EXPECT_NEAR(done_at.toMillis(), 2.0, 0.001);
}

TEST(Cpu, JobsWithinCoreCountDontInterfere)
{
    Simulation sim;
    ProcessorSharingCpu cpu(sim, 4, 1.0);
    std::vector<double> done;
    for (int i = 0; i < 4; ++i)
        cpu.submit(1e6, [&] { done.push_back(sim.now().toMillis()); });
    sim.runAll();
    ASSERT_EQ(done.size(), 4u);
    for (double d : done)
        EXPECT_NEAR(d, 1.0, 0.001);
}

TEST(Cpu, OverloadedCpuSharesProportionally)
{
    Simulation sim;
    ProcessorSharingCpu cpu(sim, 1, 1.0);
    std::vector<double> done;
    // Two equal jobs on one core: both finish at ~2 ms.
    for (int i = 0; i < 2; ++i)
        cpu.submit(1e6, [&] { done.push_back(sim.now().toMillis()); });
    sim.runAll();
    ASSERT_EQ(done.size(), 2u);
    EXPECT_NEAR(done[0], 2.0, 0.01);
    EXPECT_NEAR(done[1], 2.0, 0.01);
}

TEST(Cpu, LateArrivalSlowsExistingJob)
{
    Simulation sim;
    ProcessorSharingCpu cpu(sim, 1, 1.0);
    double first_done = 0.0;
    cpu.submit(2e6, [&] { first_done = sim.now().toMillis(); });
    // Second job arrives at t=1ms; from then on each runs at half
    // rate. First has 1ms left -> finishes at 1 + 2 = 3ms.
    sim.after(SimTime::msec(1), [&] { cpu.submit(2e6, [] {}); });
    sim.runAll();
    EXPECT_NEAR(first_done, 3.0, 0.01);
}

TEST(Cpu, BusyWorkAccumulates)
{
    Simulation sim;
    ProcessorSharingCpu cpu(sim, 2, 1.0);
    cpu.submit(1e6, [] {});
    cpu.submit(3e6, [] {});
    sim.runAll();
    EXPECT_NEAR(cpu.busyWork(), 4e6, 1e3);
}

TEST(Stats, SampleSetBasicMoments)
{
    SampleSet s;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        s.add(v);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(Stats, EmptySampleSetYieldsNan)
{
    SampleSet s;
    EXPECT_TRUE(std::isnan(s.mean()));
    EXPECT_TRUE(std::isnan(s.percentile(99)));
}

TEST(Stats, PercentileNearestRank)
{
    SampleSet s;
    for (int i = 1; i <= 100; ++i)
        s.add(i);
    EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
    EXPECT_DOUBLE_EQ(s.percentile(99), 99.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
    EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(1), 1.0);
}

TEST(Stats, PercentileAfterIncrementalAdds)
{
    SampleSet s;
    s.add(10.0);
    EXPECT_DOUBLE_EQ(s.percentile(99), 10.0);
    s.add(20.0);
    s.add(5.0);
    EXPECT_DOUBLE_EQ(s.percentile(99), 20.0);
    EXPECT_DOUBLE_EQ(s.median(), 10.0);
}

TEST(Stats, ClearResets)
{
    SampleSet s;
    s.add(1.0);
    s.clear();
    EXPECT_TRUE(s.empty());
    EXPECT_DOUBLE_EQ(s.sum(), 0.0);
}

TEST(Stats, TimeSeriesBucketsByTime)
{
    TimeSeries ts(SimTime::sec(1));
    ts.add(SimTime::msec(100), 1.0);
    ts.add(SimTime::msec(900), 3.0);
    ts.add(SimTime::msec(1500), 10.0);
    EXPECT_EQ(ts.buckets(), 2u);
    EXPECT_EQ(ts.bucketCount(0), 2u);
    EXPECT_EQ(ts.bucketCount(1), 1u);
    EXPECT_DOUBLE_EQ(ts.bucketMean(0), 2.0);
    EXPECT_DOUBLE_EQ(ts.bucketPercentile(1, 99), 10.0);
    EXPECT_EQ(ts.bucketStart(1), SimTime::sec(1));
}

TEST(Stats, TimeSeriesEmptyBucketsReportNan)
{
    TimeSeries ts(SimTime::sec(1));
    ts.add(SimTime::sec(3), 1.0);
    EXPECT_EQ(ts.buckets(), 4u);
    EXPECT_TRUE(std::isnan(ts.bucketMean(1)));
    EXPECT_EQ(ts.bucketCount(1), 0u);
}

TEST(Stats, CounterBasics)
{
    Counter c;
    c.inc();
    c.inc(5);
    EXPECT_EQ(c.value(), 6u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

/**
 * Property: with many concurrent identical jobs, processor sharing
 * finishes them all at n/k times the solo duration.
 */
class CpuSharingProperty : public ::testing::TestWithParam<int>
{};

TEST_P(CpuSharingProperty, EqualJobsFinishTogether)
{
    const int n = GetParam();
    Simulation sim;
    ProcessorSharingCpu cpu(sim, 4, 1.0);
    std::vector<double> done;
    for (int i = 0; i < n; ++i)
        cpu.submit(4e6, [&] { done.push_back(sim.now().toMillis()); });
    sim.runAll();
    ASSERT_EQ(done.size(), static_cast<std::size_t>(n));
    double expect = 4.0 * std::max(1.0, n / 4.0);
    for (double d : done)
        EXPECT_NEAR(d, expect, expect * 0.01);
}

INSTANTIATE_TEST_SUITE_P(VariousLoads, CpuSharingProperty,
                         ::testing::Values(1, 2, 4, 8, 16, 64));

TEST(EventQueue, RearmMovesEventAndKeepsId)
{
    EventQueue q;
    std::vector<int> order;
    EventId a = q.schedule(SimTime::msec(5), [&] { order.push_back(1); });
    q.schedule(SimTime::msec(3), [&] { order.push_back(2); });
    q.schedule(SimTime::msec(3), [&] { order.push_back(3); });
    // Re-armed to a tied time: it fires after the events already
    // there, as cancel + schedule would order it.
    EXPECT_TRUE(q.rearm(a, SimTime::msec(3)));
    EXPECT_EQ(q.pending(), 3u);
    EXPECT_EQ(q.scheduled(), 4u);
    EXPECT_EQ(q.cancelled(), 1u);
    EXPECT_EQ(q.nextTime(), SimTime::msec(3));
    // The id stays valid: re-arm it earlier than everything.
    EXPECT_TRUE(q.rearm(a, SimTime::msec(1)));
    while (!q.empty())
        q.runOne();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_FALSE(q.rearm(a, SimTime::msec(9))); // fired
    EXPECT_FALSE(q.cancel(a));
    EXPECT_FALSE(q.rearm(0, SimTime::msec(9)));
    EXPECT_TRUE(q.empty());
}

/**
 * Differential test of EventQueue against a reference model: a
 * std::map keyed by (when, seq), in which rearm is literally cancel
 * plus schedule of the same event. Random schedule / cancel / rearm /
 * runOne / nextTime sequences with many equal times, operations on
 * ids that already fired or were cancelled, and callbacks that
 * schedule, cancel and re-arm (themselves included) must give the
 * same firing order, pending(), nextTime() and counters.
 */
class QueueModelHarness
{
  public:
    explicit QueueModelHarness(uint64_t seed) : rng_(seed) {}

    void
    step()
    {
        switch (pick(10)) {
          case 0: case 1: case 2:
            schedule();
            break;
          case 3:
            cancel(anyTag());
            break;
          case 4: case 5:
            rearm(anyTag());
            break;
          default:
            if (!model_.empty())
                runOne();
            break;
        }
        check();
    }

    void
    drain()
    {
        while (!model_.empty()) {
            runOne();
            check();
        }
        EXPECT_TRUE(q_.empty());
    }

    std::size_t fired() const { return fired_.size(); }

  private:
    using Key = std::pair<int64_t, uint64_t>; // (when ns, seq)

    uint64_t pick(uint64_t n) { return rng_() % n; }

    /** A time at or after the last firing, from a narrow range so
     * that ties are common. */
    SimTime when() { return SimTime::nsec(now_ + pick(6)); }

    int
    anyTag()
    {
        if (ids_.empty())
            return -1;
        return static_cast<int>(pick(ids_.size()));
    }

    void
    schedule()
    {
        int tag = static_cast<int>(ids_.size());
        SimTime t = when();
        ids_.push_back(q_.schedule(t, [this, tag] { onFire(tag); }));
        Key k{t.ns(), next_seq_++};
        model_[k] = tag;
        where_[tag] = k;
        ++scheduled_;
    }

    void
    cancel(int tag)
    {
        EventId id = tag < 0 ? 0 : ids_[tag];
        auto it = tag < 0 ? where_.end() : where_.find(tag);
        bool expect = it != where_.end();
        EXPECT_EQ(q_.cancel(id), expect) << "tag " << tag;
        if (!expect)
            return;
        model_.erase(it->second);
        where_.erase(it);
        ++cancelled_;
    }

    void
    rearm(int tag)
    {
        EventId id = tag < 0 ? 0 : ids_[tag];
        SimTime t = when();
        auto it = tag < 0 ? where_.end() : where_.find(tag);
        bool expect = it != where_.end();
        EXPECT_EQ(q_.rearm(id, t), expect) << "tag " << tag;
        if (!expect)
            return;
        // The model's definition: cancel, then schedule anew.
        model_.erase(it->second);
        Key k{t.ns(), next_seq_++};
        model_[k] = tag;
        it->second = k;
        ++cancelled_;
        ++scheduled_;
    }

    void
    runOne()
    {
        auto top = model_.begin();
        int64_t at = top->first.first;
        expect_tag_ = top->second;
        where_.erase(top->second);
        model_.erase(top);
        ++dispatched_;
        now_ = at;
        EXPECT_EQ(q_.runOne().ns(), at);
        EXPECT_EQ(expect_tag_, -1) << "callback did not run";
    }

    /** The real queue's callback: must be the model's next event;
     * then possibly more queue operations from inside it. */
    void
    onFire(int tag)
    {
        EXPECT_EQ(tag, expect_tag_) << "firing order diverged";
        expect_tag_ = -1;
        fired_.push_back(tag);
        switch (pick(6)) {
          case 0:
            schedule();
            break;
          case 1:
            rearm(tag); // already fired: must be refused
            break;
          case 2:
            rearm(anyTag());
            break;
          case 3:
            cancel(anyTag());
            break;
          default:
            break;
        }
    }

    void
    check()
    {
        ASSERT_EQ(q_.pending(), model_.size());
        ASSERT_EQ(q_.empty(), model_.empty());
        SimTime next = model_.empty()
                           ? SimTime::max()
                           : SimTime::nsec(model_.begin()->first.first);
        ASSERT_EQ(q_.nextTime(), next);
        ASSERT_EQ(q_.scheduled(), scheduled_);
        ASSERT_EQ(q_.cancelled(), cancelled_);
        ASSERT_EQ(q_.dispatched(), dispatched_);
    }

    std::mt19937_64 rng_;
    EventQueue q_;
    std::vector<EventId> ids_;           //!< tag -> id
    std::map<Key, int> model_;           //!< pending: key -> tag
    std::unordered_map<int, Key> where_; //!< pending: tag -> key
    std::vector<int> fired_;
    uint64_t next_seq_ = 0;
    int64_t now_ = 0;
    int expect_tag_ = -1;
    uint64_t scheduled_ = 0;
    uint64_t cancelled_ = 0;
    uint64_t dispatched_ = 0;
};

TEST(EventQueue, MatchesReferenceModelOnRandomOperations)
{
    std::size_t fired = 0;
    for (uint64_t seed = 1; seed <= 40; ++seed) {
        SCOPED_TRACE(seed);
        QueueModelHarness h(seed);
        for (int i = 0; i < 3000 && !::testing::Test::HasFatalFailure();
             ++i)
            h.step();
        if (!::testing::Test::HasFatalFailure())
            h.drain();
        ASSERT_FALSE(::testing::Test::HasFailure());
        fired += h.fired();
    }
    EXPECT_GT(fired, 10000u);
}

/**
 * Test-only oracle: the processor-sharing CPU as it was built before
 * the flat job vector and in-place re-arm -- jobs in a std::map keyed
 * by submission id, and a cancel plus a fresh schedule of the
 * completion event on every change.
 */
class OracleCpu
{
  public:
    using Callback = SmallFn;

    OracleCpu(Simulation &sim, int cores, double speed)
        : sim_(sim), cores_(cores), speed_(speed),
          last_update_(sim.now())
    {}

    void
    submit(double work, Callback done)
    {
        advanceTo(sim_.now());
        jobs_.emplace(next_id_++, Job{std::max(work, 1.0),
                                      std::move(done)});
        reschedule();
    }

    double busyWork() const { return done_work_; }

  private:
    struct Job
    {
        double remaining;
        Callback done;
    };

    double
    ratePerJob() const
    {
        std::size_t n = jobs_.size();
        if (n == 0)
            return 0.0;
        double share = std::min(1.0, static_cast<double>(cores_) /
                                         static_cast<double>(n));
        return speed_ * share;
    }

    void
    advanceTo(SimTime now)
    {
        double elapsed = static_cast<double>((now - last_update_).ns());
        last_update_ = now;
        if (elapsed <= 0.0 || jobs_.empty())
            return;
        double progress = elapsed * ratePerJob();
        for (auto &[id, job] : jobs_) {
            done_work_ +=
                std::min(progress, std::max(job.remaining, 0.0));
            job.remaining -= progress;
        }
    }

    void
    reschedule()
    {
        if (pending_event_) {
            sim_.cancel(pending_event_);
            pending_event_ = 0;
        }
        if (jobs_.empty())
            return;
        double min_remaining = INFINITY;
        for (const auto &[id, job] : jobs_)
            min_remaining = std::min(min_remaining, job.remaining);
        double delay_ns = std::max(0.0, min_remaining / ratePerJob());
        SimTime when = sim_.now() + SimTime::nsec(static_cast<int64_t>(
                                        std::ceil(delay_ns)));
        pending_event_ = sim_.at(when, [this] {
            pending_event_ = 0;
            advanceTo(sim_.now());
            std::vector<Callback> finished;
            for (auto it = jobs_.begin(); it != jobs_.end();) {
                if (it->second.remaining <= 0.5) {
                    finished.push_back(std::move(it->second.done));
                    it = jobs_.erase(it);
                } else {
                    ++it;
                }
            }
            reschedule();
            for (auto &cb : finished)
                cb();
        });
    }

    Simulation &sim_;
    int cores_;
    double speed_;
    std::map<uint64_t, Job> jobs_;
    uint64_t next_id_ = 1;
    SimTime last_update_;
    EventId pending_event_ = 0;
    double done_work_ = 0.0;
};

/** One random job mix: arrivals on a coarse time grid with works
 * from a small set (so completions coincide), some of whose
 * callbacks submit a follow-up job. */
struct CpuMix
{
    struct Arrival
    {
        int64_t at_ns;
        double work;
    };
    int cores;
    double speed;
    std::vector<Arrival> arrivals;
    /** Follow-up work submitted by job i's callback (0 = none). */
    std::vector<double> follow_up;

    explicit CpuMix(uint64_t seed)
    {
        std::mt19937_64 rng(seed);
        cores = 1 + static_cast<int>(rng() % 4);
        speed = std::array<double, 3>{1.0, 0.6, 1.2}[rng() % 3];
        static constexpr std::array<double, 6> kWorks = {
            1e3, 2e3, 3e3, 1e4, 33333.3, 0.2};
        int n = 20 + static_cast<int>(rng() % 60);
        for (int i = 0; i < n; ++i) {
            arrivals.push_back({static_cast<int64_t>(rng() % 8) * 1000,
                                kWorks[rng() % kWorks.size()]});
        }
        std::sort(arrivals.begin(), arrivals.end(),
                  [](const Arrival &a, const Arrival &b) {
                      return a.at_ns < b.at_ns;
                  });
        for (int i = 0; i < 2 * n; ++i)
            follow_up.push_back(rng() % 3 == 0 ? kWorks[rng() % 4] : 0.0);
    }
};

struct CpuRun
{
    std::vector<std::pair<int, int64_t>> done; //!< (job, time ns)
    double busy = 0.0;
    uint64_t scheduled = 0, cancelled = 0, dispatched = 0;
};

template <typename Cpu>
CpuRun
runMix(const CpuMix &mix)
{
    Simulation sim;
    Cpu cpu(sim, mix.cores, mix.speed);
    CpuRun out;
    int next_job = 0;
    std::function<void(double)> submit = [&](double work) {
        int job = next_job++;
        cpu.submit(work, [&, job] {
            out.done.emplace_back(job, sim.now().ns());
            if (static_cast<std::size_t>(job) < mix.follow_up.size() &&
                mix.follow_up[job] > 0.0)
                submit(mix.follow_up[job]);
        });
    };
    for (const CpuMix::Arrival &a : mix.arrivals) {
        double work = a.work;
        sim.at(SimTime::nsec(a.at_ns), [&submit, work] { submit(work); });
    }
    sim.runAll();
    out.busy = cpu.busyWork();
    out.scheduled = sim.queue().scheduled();
    out.cancelled = sim.queue().cancelled();
    out.dispatched = sim.queue().dispatched();
    return out;
}

TEST(Cpu, MatchesMapOracleBitForBit)
{
    std::size_t simultaneous = 0;
    for (uint64_t seed = 1; seed <= 60; ++seed) {
        SCOPED_TRACE(seed);
        CpuMix mix(seed);
        CpuRun got = runMix<ProcessorSharingCpu>(mix);
        CpuRun want = runMix<OracleCpu>(mix);
        ASSERT_EQ(got.done, want.done);
        // Bit-identical, not merely close.
        ASSERT_EQ(got.busy, want.busy);
        EXPECT_EQ(got.scheduled, want.scheduled);
        EXPECT_EQ(got.cancelled, want.cancelled);
        EXPECT_EQ(got.dispatched, want.dispatched);
        for (std::size_t i = 1; i < got.done.size(); ++i)
            simultaneous += got.done[i].second == got.done[i - 1].second;
    }
    // The mixes really do finish jobs in the same completion event.
    EXPECT_GT(simultaneous, 100u);
}

TEST(Cpu, CallbackMayDestroyCpu)
{
    // A finished job's callback may tear down the machine that owns
    // the CPU; the other jobs finished by the same event still run.
    Simulation sim;
    auto cpu = std::make_unique<ProcessorSharingCpu>(sim, 2, 1.0);
    std::vector<int> ran;
    cpu->submit(1e6, [&] {
        ran.push_back(0);
        cpu.reset();
    });
    cpu->submit(1e6, [&] { ran.push_back(1); });
    sim.runAll();
    EXPECT_EQ(ran, (std::vector<int>{0, 1}));
    EXPECT_EQ(cpu, nullptr);
}

} // namespace
} // namespace beehive::sim
