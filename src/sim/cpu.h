/**
 * @file
 * Processor-sharing CPU model.
 *
 * An instance with k vCPUs running n concurrent compute jobs gives
 * each job a service rate of speed * min(1, k/n). This captures the
 * queueing behaviour that produces Figure 2 (latency rising with the
 * number of concurrent clients on a fixed-size server) without
 * simulating individual context switches.
 *
 * Work is expressed in nanoseconds of CPU time at speed factor 1.0;
 * a job submitted with work w to an idle CPU of speed s completes
 * after w/s nanoseconds of simulated time.
 *
 * Internals (hot path, see DESIGN.md section 14.3): the jobs sit in a
 * flat vector in submission order, so progress is applied and
 * finished jobs are collected in a fixed order (the floating-point
 * sums and the callback order are reproducible). One completion event
 * is pending while any job runs; a submit re-arms it in place
 * (EventQueue::rearm), and finished callbacks are gathered into a
 * reused buffer, so a job's submit/finish cycle allocates nothing
 * once the vectors are warm.
 */

#ifndef BEEHIVE_SIM_CPU_H
#define BEEHIVE_SIM_CPU_H

#include <cstdint>
#include <vector>

#include "sim/simulation.h"
#include "sim/small_fn.h"

namespace beehive::sim {

/** A shared multi-core CPU serving jobs processor-sharing style. */
class ProcessorSharingCpu
{
  public:
    /** Move-only completion continuation (see SmallFn). */
    using Callback = SmallFn;

    /**
     * @param sim Owning simulation.
     * @param cores Number of vCPUs.
     * @param speed Relative speed factor (1.0 = reference core).
     */
    ProcessorSharingCpu(Simulation &sim, int cores, double speed = 1.0);

    /** Cancels the pending completion event (jobs never finish). */
    ~ProcessorSharingCpu();

    ProcessorSharingCpu(const ProcessorSharingCpu &) = delete;
    ProcessorSharingCpu &operator=(const ProcessorSharingCpu &) = delete;

    /**
     * Submit a compute job.
     *
     * @param work CPU-nanoseconds of work at speed 1.0.
     * @param done Invoked when the job finishes.
     */
    void submit(double work, Callback done);

    /** Number of jobs currently in service. */
    int active() const { return static_cast<int>(jobs_.size()); }

    int cores() const { return cores_; }
    double speed() const { return speed_; }

    /** Total CPU-nanoseconds of work completed (billing input). */
    double busyWork() const { return done_work_; }

  private:
    struct Job
    {
        double remaining;
        Callback done;
    };

    /** Current per-job service rate (sim-ns of progress per sim-ns). */
    double ratePerJob() const;

    /** Apply progress accrued since last_update_. */
    void advanceTo(SimTime now);

    /** Arm (or re-arm) the completion event for the soonest-finishing
     * job. */
    void reschedule();

    /** The completion event: finish every job that is done. */
    void complete();

    Simulation &sim_;
    int cores_;
    double speed_;
    /** Jobs in service, in submission order. */
    std::vector<Job> jobs_;
    /** Reused scratch for complete()'s finished callbacks. */
    std::vector<Callback> finished_;
    /** Set while complete() runs callbacks: cleared by the destructor
     * so complete() knows not to touch a destroyed CPU. */
    bool *alive_ = nullptr;
    SimTime last_update_;
    EventId pending_event_ = 0;
    double done_work_ = 0.0;
};

} // namespace beehive::sim

#endif // BEEHIVE_SIM_CPU_H
