#include "net/network.h"

#include <algorithm>
#include <cmath>

#include "chaos/chaos.h"
#include "support/logging.h"

namespace beehive::net {

Network::Network(uint64_t jitter_seed) : rng_(jitter_seed)
{
}

EndpointId
Network::addNode(const std::string &name, const std::string &zone)
{
    nodes_.push_back(Node{name, zoneIndex(zone)});
    return static_cast<EndpointId>(nodes_.size() - 1);
}

const std::string &
Network::nodeName(EndpointId id) const
{
    bh_assert(id < nodes_.size(), "bad endpoint id");
    return nodes_[id].name;
}

const std::string &
Network::nodeZone(EndpointId id) const
{
    bh_assert(id < nodes_.size(), "bad endpoint id");
    return zones_[nodes_[id].zone];
}

uint32_t
Network::zoneIndex(const std::string &zone)
{
    std::size_t n = zones_.size();
    for (std::size_t i = 0; i < n; ++i) {
        if (zones_[i] == zone)
            return static_cast<uint32_t>(i);
    }
    std::vector<std::optional<sim::SimTime>> grown((n + 1) * (n + 1));
    for (std::size_t a = 0; a < n; ++a) {
        for (std::size_t b = 0; b < n; ++b)
            grown[a * (n + 1) + b] = zone_latency_[a * n + b];
    }
    zone_latency_ = std::move(grown);
    zones_.push_back(zone);
    return static_cast<uint32_t>(n);
}

void
Network::setZoneLatency(const std::string &zone_a,
                        const std::string &zone_b, sim::SimTime one_way)
{
    std::size_t a = zoneIndex(zone_a);
    std::size_t b = zoneIndex(zone_b);
    std::size_t n = zones_.size();
    zone_latency_[a * n + b] = one_way;
    zone_latency_[b * n + a] = one_way;
}

void
Network::setDefaultLatency(sim::SimTime one_way)
{
    default_latency_ = one_way;
}

void
Network::setBandwidth(double bytes_per_sec)
{
    bh_assert(bytes_per_sec > 0.0, "bandwidth must be positive");
    bytes_per_sec_ = bytes_per_sec;
}

void
Network::setJitter(double fraction)
{
    bh_assert(fraction >= 0.0, "jitter must be non-negative");
    jitter_ = fraction;
}

sim::SimTime
Network::baseLatency(EndpointId from, EndpointId to) const
{
    bh_assert(from < nodes_.size() && to < nodes_.size(),
              "bad endpoint id");
    if (from == to)
        return sim::SimTime();
    const std::optional<sim::SimTime> &latency =
        zone_latency_[nodes_[from].zone * zones_.size() + nodes_[to].zone];
    return latency.value_or(default_latency_);
}

sim::SimTime
Network::oneWay(EndpointId from, EndpointId to, uint64_t bytes)
{
    if (from == to)
        return sim::SimTime();
    double base_ns = static_cast<double>(baseLatency(from, to).ns());
    double xfer_ns = static_cast<double>(bytes) / bytes_per_sec_ * 1e9;
    double total = base_ns + xfer_ns;
    if (jitter_ > 0.0) {
        // Multiplicative jitter, never below 50% of nominal.
        double f = 1.0 + jitter_ * rng_.normal(0.0, 1.0);
        total *= std::max(0.5, f);
    }
    if (chaos_ && chaos_->enabled()) {
        auto fault = chaos_->messageFault(nodeZone(from), nodeZone(to));
        // A drop is modeled as blackhole latency: the message
        // "arrives" far past any deadline, so the loss surfaces as
        // a timeout the recovery machinery handles, never as a
        // silently lost simulation callback.
        if (fault.drop)
            return chaos_->blackholeLatency();
        total *= fault.latency_factor;
    }
    return sim::SimTime::nsec(static_cast<int64_t>(total));
}

sim::SimTime
Network::roundTrip(EndpointId from, EndpointId to, uint64_t req_bytes,
                   uint64_t resp_bytes)
{
    return oneWay(from, to, req_bytes) + oneWay(to, from, resp_bytes);
}

} // namespace beehive::net
