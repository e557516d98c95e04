/**
 * @file
 * Proxy-based connection management (paper Section 3.3, Figure 4).
 *
 * The proxy runs on the database machine and owns the real database
 * connections. A web server connects "to the database" through the
 * proxy; when BeeHive decides to offload, the server sends a
 * *prepare* request, receives a unique connection ID, packs the ID
 * into the closure as the native state of the SocketImpl object,
 * and the FaaS function later presents the ID to *attach* to the
 * very same underlying connection. From then on the proxy keeps a
 * descriptor mapping {ID -> server fd, FaaS fd, DB fd} and routes
 * requests from either side down the one shared connection -- so no
 * fallback is ever needed for database communication.
 *
 * The proxy is also the interception point for shadow execution:
 * between shadowbegin and shadowend, writes from the shadow function
 * land in a ShadowSession overlay instead of the store.
 */

#ifndef BEEHIVE_PROXY_CONNECTION_PROXY_H
#define BEEHIVE_PROXY_CONNECTION_PROXY_H

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>

#include "db/record_store.h"
#include "net/network.h"
#include "proxy/shadow_session.h"
#include "sim/stats.h"

namespace beehive::proxy {

/** Handle for a server<->db connection managed by the proxy. */
using ConnId = uint64_t;

/** Unique ID minted by prepare() and packed into closures. */
using OffloadId = uint64_t;

/** Identifier of an active shadow execution. */
using ShadowToken = uint64_t;

/** The connection proxy co-located with one database service. */
class ConnectionProxy
{
  public:
    /** Descriptor triple maintained per offloaded connection. */
    struct Descriptor
    {
        ConnId conn = 0;
        net::EndpointId server = net::kNoEndpoint;
        net::EndpointId faas = net::kNoEndpoint;
    };

    /** Counters exposed for Table 5 style accounting. */
    struct Stats
    {
        uint64_t requests_routed = 0;
        uint64_t offload_requests = 0;
        uint64_t prepares = 0;
        uint64_t attaches = 0;
        uint64_t shadow_sessions = 0;
        uint64_t shadow_writes = 0;
        /** Reconnects performed after an injected connection reset
         * (one per reset observed at the proxy). */
        uint64_t reconnects = 0;
        /** Idempotent reads transparently re-issued after a reset. */
        uint64_t read_retries = 0;
        /** Keyed writes recorded by the exactly-once guard. */
        uint64_t idem_writes_applied = 0;
        /** Retried writes suppressed as already-applied duplicates. */
        uint64_t dup_writes_suppressed = 0;
        /** Shadow sessions dropped by a killed/cancelled shadow. */
        uint64_t shadow_aborts = 0;
    };

    explicit ConnectionProxy(db::RecordStore &store) : store_(store) {}

    /** @name Connection lifecycle */
    /// @{
    /** Server establishes a connection (via the proxy) to the DB. */
    ConnId openConnection(net::EndpointId server);

    /** Tear down a connection and any offload IDs bound to it. */
    void closeConnection(ConnId conn);

    bool isOpen(ConnId conn) const;
    /// @}

    /** @name Offload handshake (Figure 4 steps 2-4) */
    /// @{
    /**
     * Server-side prepare: mint a unique ID for @p conn. The ID is
     * stored in the proxy and returned to the server for packing
     * into the initial closure.
     */
    OffloadId prepare(ConnId conn);

    /**
     * FaaS-side connect with the unique ID. Establishes the
     * descriptor mapping among server, FaaS, and database.
     *
     * @retval false if the ID is unknown or already torn down.
     */
    bool attach(OffloadId id, net::EndpointId faas);

    /** Descriptor lookup (nullptr when unknown). */
    const Descriptor *descriptor(OffloadId id) const;
    /// @}

    /** @name Shadow execution interception (Section 3.4) */
    /// @{
    /** FaaS announces the start of a shadow execution. */
    ShadowToken shadowBegin(net::EndpointId faas);

    /** Shadow finished: discard its overlay; later requests are real. */
    void shadowEnd(ShadowToken token);

    /** Shadow killed or cancelled mid-run: drop the overlay without
     * the completion accounting shadowEnd performs. */
    void shadowAbort(ShadowToken token);

    bool shadowActive(ShadowToken token) const;
    /// @}

    /** @name Request routing */
    /// @{
    /**
     * Route a request arriving on the server side of @p conn.
     *
     * @p idem_key (nonzero) marks a write with an idempotency key:
     * the proxy records the first application and replays the saved
     * response for any duplicate key, so a re-executed request never
     * double-applies its side effects (exactly-once guard). Zero
     * (the default) keeps the legacy at-most-once-per-call path.
     */
    db::Response request(ConnId conn, const db::Request &req,
                         uint64_t idem_key = 0);

    /**
     * Route a request arriving from an offloaded function that
     * attached with @p id. When @p shadow is set and active, writes
     * are intercepted into the shadow overlay (and bypass the
     * exactly-once guard: overlay writes never reach the store).
     * @p idem_key as in request().
     */
    db::Response requestViaOffload(
        OffloadId id, const db::Request &req,
        std::optional<ShadowToken> shadow = std::nullopt,
        uint64_t idem_key = 0);
    /// @}

    /** Cost of re-establishing a database connection after an
     * injected reset (charged by the request drivers per absorbed
     * reset). */
    sim::SimTime reconnectPenalty() const
    {
        return sim::SimTime::usec(350);
    }

    /**
     * Delay before re-issuing an operation whose connection was
     * reset on its @p attempt-th try: one reconnect plus a 400 us
     * backoff doubled per attempt, capped at 16x.
     */
    sim::SimTime reconnectDelay(uint32_t attempt) const
    {
        return reconnectPenalty() +
               sim::SimTime::usec(400) *
                   static_cast<double>(1u << std::min(attempt, 4u));
    }

    /**
     * Proxy-side processing time added to every routed request
     * (descriptor lookup + relaying).
     */
    sim::SimTime processingTime() const
    {
        return sim::SimTime::usec(15);
    }

    /** Database service time passthrough (for latency modelling). */
    sim::SimTime dbServiceTime(const db::Request &req) const
    {
        return store_.serviceTime(req);
    }

    const Stats &stats() const { return stats_; }

  private:
    struct Conn
    {
        net::EndpointId server = net::kNoEndpoint;
        bool open = false;
    };

    /** Dedup + reset handling shared by both routing entry points. */
    db::Response route(const db::Request &req, uint64_t idem_key,
                       ShadowSession *overlay);

    db::RecordStore &store_;
    std::map<ConnId, Conn> conns_;
    std::map<OffloadId, Descriptor> offloads_;
    std::map<ShadowToken, ShadowSession> shadows_;
    /** Exactly-once guard: responses of applied keyed writes. */
    std::map<uint64_t, db::Response> applied_;
    ConnId next_conn_ = 1;
    OffloadId next_offload_ = 100;
    ShadowToken next_shadow_ = 1;
    Stats stats_;
};

} // namespace beehive::proxy

#endif // BEEHIVE_PROXY_CONNECTION_PROXY_H
