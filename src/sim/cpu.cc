#include "sim/cpu.h"

#include <algorithm>
#include <cmath>

#include "support/logging.h"

namespace beehive::sim {

ProcessorSharingCpu::ProcessorSharingCpu(Simulation &sim, int cores,
                                         double speed)
    : sim_(sim), cores_(cores), speed_(speed), last_update_(sim.now())
{
    bh_assert(cores >= 1, "CPU needs at least one core");
    bh_assert(speed > 0.0, "CPU speed must be positive");
}

ProcessorSharingCpu::~ProcessorSharingCpu()
{
    if (alive_)
        *alive_ = false;
    if (pending_event_)
        sim_.cancel(pending_event_);
}

double
ProcessorSharingCpu::ratePerJob() const
{
    std::size_t n = jobs_.size();
    if (n == 0)
        return 0.0;
    double share = std::min(1.0, static_cast<double>(cores_) /
                                     static_cast<double>(n));
    return speed_ * share;
}

void
ProcessorSharingCpu::advanceTo(SimTime now)
{
    double elapsed = static_cast<double>((now - last_update_).ns());
    last_update_ = now;
    if (elapsed <= 0.0 || jobs_.empty())
        return;
    double progress = elapsed * ratePerJob();
    for (Job &job : jobs_) {
        done_work_ += std::min(progress, std::max(job.remaining, 0.0));
        job.remaining -= progress;
    }
}

void
ProcessorSharingCpu::reschedule()
{
    if (jobs_.empty())
        return;
    double min_remaining = INFINITY;
    for (const Job &job : jobs_)
        min_remaining = std::min(min_remaining, job.remaining);
    double rate = ratePerJob();
    double delay_ns = std::max(0.0, min_remaining / rate);
    SimTime when = sim_.now() + SimTime::nsec(
        static_cast<int64_t>(std::ceil(delay_ns)));
    if (pending_event_) {
        bool moved = sim_.rearm(pending_event_, when);
        bh_assert(moved, "CPU completion event lost");
    } else {
        pending_event_ = sim_.at(when, [this] { complete(); });
    }
}

void
ProcessorSharingCpu::complete()
{
    pending_event_ = 0;
    advanceTo(sim_.now());
    // Collect all jobs that are done (remaining can dip a hair below
    // zero from rounding), keeping the rest in submission order.
    std::vector<Callback> finished = std::move(finished_);
    std::size_t kept = 0;
    for (Job &job : jobs_) {
        if (job.remaining <= 0.5)
            finished.push_back(std::move(job.done));
        else
            jobs_[kept++] = std::move(job);
    }
    jobs_.erase(jobs_.begin() + static_cast<std::ptrdiff_t>(kept),
                jobs_.end());
    reschedule();
    // A callback may destroy this CPU (its machine going away); the
    // rest still run, from the local buffer, but the buffer goes
    // back only to a CPU that still exists.
    bool alive = true;
    alive_ = &alive;
    for (Callback &cb : finished)
        cb();
    if (!alive)
        return;
    alive_ = nullptr;
    finished.clear();
    finished_ = std::move(finished);
}

void
ProcessorSharingCpu::submit(double work, Callback done)
{
    bh_assert(work >= 0.0, "negative work");
    advanceTo(sim_.now());
    jobs_.push_back(Job{std::max(work, 1.0), std::move(done)});
    reschedule();
}

} // namespace beehive::sim
