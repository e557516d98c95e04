#include "sim/simulation.h"

#include "support/logging.h"

namespace beehive::sim {

EventId
Simulation::at(SimTime when, EventQueue::Callback cb)
{
    bh_assert(when >= now_, "scheduling into the past");
    return queue_.schedule(when, std::move(cb));
}

EventId
Simulation::after(SimTime delay, EventQueue::Callback cb)
{
    bh_assert(delay >= SimTime(), "negative delay");
    return queue_.schedule(now_ + delay, std::move(cb));
}

bool
Simulation::rearm(EventId id, SimTime when)
{
    bh_assert(when >= now_, "scheduling into the past");
    return queue_.rearm(id, when);
}

void
Simulation::runUntil(SimTime limit)
{
    while (!queue_.empty() && queue_.nextTime() <= limit) {
        now_ = queue_.nextTime();
        queue_.runOne();
    }
    if (now_ < limit)
        now_ = limit;
}

void
Simulation::runAll()
{
    while (!queue_.empty()) {
        now_ = queue_.nextTime();
        queue_.runOne();
    }
}

} // namespace beehive::sim
