/**
 * @file
 * Simulation driver: owns the event queue and the virtual clock.
 */

#ifndef BEEHIVE_SIM_SIMULATION_H
#define BEEHIVE_SIM_SIMULATION_H

#include "sim/event_queue.h"
#include "sim/sim_time.h"
#include "support/rng.h"

namespace beehive::telemetry {
class Tracer;
}

namespace beehive::sim {

/**
 * A single simulation run.
 *
 * All model components keep a reference to the Simulation and use it
 * to read the clock, schedule future work, and draw random numbers.
 */
class Simulation
{
  public:
    explicit Simulation(uint64_t seed = 1) : rng_(seed) {}

    /** Current simulated time. */
    SimTime now() const { return now_; }

    /** Schedule @p cb at absolute time @p when (must be >= now). */
    EventId at(SimTime when, EventQueue::Callback cb);

    /** Schedule @p cb after the given delay. */
    EventId after(SimTime delay, EventQueue::Callback cb);

    /** Cancel a pending event. */
    bool cancel(EventId id) { return queue_.cancel(id); }

    /**
     * Move a pending event to absolute time @p when (must be >= now);
     * exactly cancel plus schedule of the same callback, without
     * leaving anything behind (see EventQueue::rearm).
     */
    bool rearm(EventId id, SimTime when);

    /**
     * Run events until the queue drains or the clock passes @p limit.
     *
     * The clock is left at min(limit, time of last event). Events
     * scheduled exactly at @p limit still run.
     */
    void runUntil(SimTime limit);

    /** Run until the event queue is empty. */
    void runAll();

    /** Root RNG for this run; fork() per-entity streams from it. */
    Rng &rng() { return rng_; }

    /** Direct queue access (tests and advanced components). */
    EventQueue &queue() { return queue_; }

    /**
     * Per-run telemetry tracer, or nullptr (the default). Owned by
     * whoever built the run (harness::Testbed); components check
     * `if (auto *t = sim.tracer())` so the disabled path stays a
     * single null test.
     */
    telemetry::Tracer *tracer() const { return tracer_; }
    void setTracer(telemetry::Tracer *t) { tracer_ = t; }

  private:
    EventQueue queue_;
    SimTime now_;
    Rng rng_;
    telemetry::Tracer *tracer_ = nullptr;
};

} // namespace beehive::sim

#endif // BEEHIVE_SIM_SIMULATION_H
