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
 */

#ifndef BEEHIVE_SIM_CPU_H
#define BEEHIVE_SIM_CPU_H

#include <cstdint>
#include <map>

#include "sim/simulation.h"
#include "sim/small_fn.h"

namespace beehive::sim {

/** A shared multi-core CPU serving jobs processor-sharing style. */
class ProcessorSharingCpu
{
  public:
    using JobId = uint64_t;
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

    /**
     * Submit a compute job.
     *
     * @param work CPU-nanoseconds of work at speed 1.0.
     * @param done Invoked when the job finishes.
     * @return Handle usable with cancel().
     */
    JobId submit(double work, Callback done);

    /** Abort a running job (its callback never fires). */
    bool cancel(JobId id);

    /** Number of jobs currently in service. */
    int active() const { return static_cast<int>(jobs_.size()); }

    int cores() const { return cores_; }
    double speed() const { return speed_; }

    /** Change the speed factor (e.g. JVM warmup completing). */
    void setSpeed(double speed);

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

    /** Re-arm the completion event for the soonest-finishing job. */
    void reschedule();

    Simulation &sim_;
    int cores_;
    double speed_;
    std::map<JobId, Job> jobs_;
    JobId next_id_ = 1;
    SimTime last_update_;
    EventId pending_event_ = 0;
    double done_work_ = 0.0;
};

} // namespace beehive::sim

#endif // BEEHIVE_SIM_CPU_H
