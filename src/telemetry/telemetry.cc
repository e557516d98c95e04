#include "telemetry/telemetry.h"

#include <algorithm>

#include "sim/simulation.h"
#include "support/logging.h"

namespace beehive::telemetry {

const char *
phaseName(Phase p)
{
    switch (p) {
    case Phase::Request:
        return "request";
    case Phase::Queue:
        return "queue";
    case Phase::Exec:
        return "exec";
    case Phase::Offload:
        return "offload";
    case Phase::Boot:
        return "boot";
    case Phase::Fetch:
        return "fetch";
    case Phase::Native:
        return "native";
    case Phase::Sync:
        return "sync";
    case Phase::Db:
        return "db";
    case Phase::Gc:
        return "gc";
    case Phase::Net:
        return "net";
    case Phase::Other:
        return "other";
    }
    return "?";
}

uint64_t
MetricsRegistry::counter(const std::string &name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

Tracer::Tracer(sim::Simulation &sim, std::size_t capacity)
    : sim_(sim), slab_(std::max<std::size_t>(capacity, 1))
{
    track_names_.push_back("clients");
}

SpanId
Tracer::begin(const char *name, Phase phase, uint32_t track,
              SpanId parent, uint64_t request)
{
    SpanId id = next_span_++;
    Span &s = slot(id);
    if (s.id != kNoSpan)
        ++dropped_; // ring wrapped: the old span is lost
    s.id = id;
    s.parent = parent;
    s.request = request;
    s.name = name;
    s.phase = phase;
    s.track = track;
    s.start = sim_.now();
    s.end = s.start;
    s.open = true;
    return id;
}

void
Tracer::end(SpanId id)
{
    if (id == kNoSpan)
        return;
    Span &s = slot(id);
    if (s.id != id || !s.open)
        return; // recycled by wrap-around (already counted)
    s.end = sim_.now();
    s.open = false;
}

uint32_t
Tracer::newTrack(std::string name)
{
    track_names_.push_back(std::move(name));
    return static_cast<uint32_t>(track_names_.size() - 1);
}

std::vector<Span>
Tracer::spans() const
{
    std::vector<Span> out;
    out.reserve(std::min<uint64_t>(spansRecorded(), slab_.size()));
    for (const Span &s : slab_) {
        if (s.id != kNoSpan)
            out.push_back(s);
    }
    std::sort(out.begin(), out.end(),
              [](const Span &a, const Span &b) { return a.id < b.id; });
    return out;
}

} // namespace beehive::telemetry
