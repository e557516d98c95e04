/**
 * @file
 * Simulated network between endpoints.
 *
 * Endpoints are registered nodes placed in named zones (e.g.
 * "vpc-server", "lambda", "db"). Latency is configured per zone
 * pair; transfer time adds a bandwidth term. Section 5.2 of the
 * paper attributes BeeHive-on-Lambda's extra overhead to the larger
 * network latency between Lambda instances and EC2 servers, so the
 * zone-pair latency table is a first-class experimental knob here.
 *
 * Zone names are interned into small indices as nodes and latencies
 * name them, so a message's base latency is one load from a flat,
 * symmetric zone x zone table.
 */

#ifndef BEEHIVE_NET_NETWORK_H
#define BEEHIVE_NET_NETWORK_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/sim_time.h"
#include "support/rng.h"

namespace beehive::chaos {
class ChaosEngine;
}

namespace beehive::net {

/** Opaque node handle. */
using EndpointId = uint32_t;

/** Invalid endpoint sentinel. */
constexpr EndpointId kNoEndpoint = UINT32_MAX;

/** The network fabric connecting all simulated machines. */
class Network
{
  public:
    explicit Network(uint64_t jitter_seed = 99);

    /**
     * Register a node.
     *
     * @param name Human-readable node name (diagnostics).
     * @param zone Zone the node lives in; latency is zone-pair based.
     */
    EndpointId addNode(const std::string &name, const std::string &zone);

    /** Name/zone lookup. */
    const std::string &nodeName(EndpointId id) const;
    const std::string &nodeZone(EndpointId id) const;
    std::size_t nodeCount() const { return nodes_.size(); }

    /**
     * Configure the symmetric one-way base latency between two zones.
     * Intra-zone latency is configured by passing the same zone twice.
     */
    void setZoneLatency(const std::string &zone_a,
                        const std::string &zone_b, sim::SimTime one_way);

    /** Default latency when no zone pair matches. */
    void setDefaultLatency(sim::SimTime one_way);

    /** Link bandwidth in bytes per second (default 1.25 GB/s). */
    void setBandwidth(double bytes_per_sec);
    double bandwidth() const { return bytes_per_sec_; }

    /** Relative jitter amplitude (0 disables; default 0.05). */
    void setJitter(double fraction);

    /**
     * Attach the fault-injection engine (nullptr detaches). Chaos
     * faults are consulted *after* the jitter draw, so the jitter
     * stream advances identically whether or not chaos is enabled.
     */
    void setChaos(chaos::ChaosEngine *chaos) { chaos_ = chaos; }

    /**
     * One-way delivery delay for a message of @p bytes.
     * Deterministic given the network's seeded jitter stream.
     */
    sim::SimTime oneWay(EndpointId from, EndpointId to, uint64_t bytes);

    /** Request/response round trip delay. */
    sim::SimTime roundTrip(EndpointId from, EndpointId to,
                           uint64_t req_bytes, uint64_t resp_bytes);

    /** Base (jitter-free) one-way latency between two nodes. */
    sim::SimTime baseLatency(EndpointId from, EndpointId to) const;

  private:
    struct Node
    {
        std::string name;
        uint32_t zone; //!< index into zones_
    };

    /** Index of @p zone, interning it (and growing the table). */
    uint32_t zoneIndex(const std::string &zone);

    std::vector<Node> nodes_;
    std::vector<std::string> zones_;
    /** zones_.size() squared, row-major, kept symmetric; an unset
     * pair reads default_latency_. */
    std::vector<std::optional<sim::SimTime>> zone_latency_;
    sim::SimTime default_latency_ = sim::SimTime::usec(200);
    double bytes_per_sec_ = 1.25e9;
    double jitter_ = 0.05;
    Rng rng_;
    chaos::ChaosEngine *chaos_ = nullptr;
};

} // namespace beehive::net

#endif // BEEHIVE_NET_NETWORK_H
