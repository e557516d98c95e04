#include "proxy/connection_proxy.h"

#include "support/logging.h"

namespace beehive::proxy {

ConnId
ConnectionProxy::openConnection(net::EndpointId server)
{
    ConnId id = next_conn_++;
    conns_[id] = Conn{server, true};
    return id;
}

void
ConnectionProxy::closeConnection(ConnId conn)
{
    auto it = conns_.find(conn);
    if (it == conns_.end())
        return;
    it->second.open = false;
    // Invalidate any offload IDs that route through this connection.
    for (auto oit = offloads_.begin(); oit != offloads_.end();) {
        if (oit->second.conn == conn)
            oit = offloads_.erase(oit);
        else
            ++oit;
    }
}

bool
ConnectionProxy::isOpen(ConnId conn) const
{
    auto it = conns_.find(conn);
    return it != conns_.end() && it->second.open;
}

OffloadId
ConnectionProxy::prepare(ConnId conn)
{
    bh_assert(isOpen(conn), "prepare on closed connection");
    OffloadId id = next_offload_++;
    offloads_[id] =
        Descriptor{conn, conns_[conn].server, net::kNoEndpoint};
    ++stats_.prepares;
    return id;
}

bool
ConnectionProxy::attach(OffloadId id, net::EndpointId faas)
{
    auto it = offloads_.find(id);
    if (it == offloads_.end())
        return false;
    it->second.faas = faas;
    ++stats_.attaches;
    return true;
}

const ConnectionProxy::Descriptor *
ConnectionProxy::descriptor(OffloadId id) const
{
    auto it = offloads_.find(id);
    return it == offloads_.end() ? nullptr : &it->second;
}

ShadowToken
ConnectionProxy::shadowBegin(net::EndpointId faas)
{
    (void)faas;
    ShadowToken token = next_shadow_++;
    shadows_.emplace(token, ShadowSession{});
    ++stats_.shadow_sessions;
    return token;
}

void
ConnectionProxy::shadowEnd(ShadowToken token)
{
    auto it = shadows_.find(token);
    if (it == shadows_.end())
        return;
    stats_.shadow_writes += it->second.interceptedWrites();
    shadows_.erase(it);
}

void
ConnectionProxy::shadowAbort(ShadowToken token)
{
    if (shadows_.erase(token) > 0) {
        ++stats_.shadow_aborts;
    }
}

bool
ConnectionProxy::shadowActive(ShadowToken token) const
{
    return shadows_.count(token) > 0;
}

db::Response
ConnectionProxy::route(const db::Request &req, uint64_t idem_key,
                       ShadowSession *overlay)
{
    bool is_write = req.kind == db::OpKind::Put ||
                    req.kind == db::OpKind::Delete;
    if (is_write && idem_key != 0 && !overlay) {
        auto dit = applied_.find(idem_key);
        if (dit != applied_.end()) {
            // A retried execution re-issued a write that already
            // reached the store: replay the recorded response
            // instead of double-applying it.
            ++stats_.dup_writes_suppressed;
            return dit->second;
        }
    }
    db::Response resp =
        overlay ? overlay->apply(store_, req) : store_.execute(req);
    if (resp.reset) {
        ++stats_.reconnects;
        if (!is_write) {
            // The reset landed before the read executed, so one
            // transparent reconnect + re-issue is always safe.
            ++stats_.read_retries;
            db::Response again = overlay ? overlay->apply(store_, req)
                                         : store_.execute(req);
            again.resets = 1;
            resp = std::move(again);
        }
    }
    if (is_write && idem_key != 0 && !overlay && resp.ok) {
        applied_.emplace(idem_key, resp);
        ++stats_.idem_writes_applied;
    }
    return resp;
}

db::Response
ConnectionProxy::request(ConnId conn, const db::Request &req,
                         uint64_t idem_key)
{
    bh_assert(isOpen(conn), "request on closed connection");
    ++stats_.requests_routed;
    return route(req, idem_key, nullptr);
}

db::Response
ConnectionProxy::requestViaOffload(OffloadId id, const db::Request &req,
                                   std::optional<ShadowToken> shadow,
                                   uint64_t idem_key)
{
    auto it = offloads_.find(id);
    bh_assert(it != offloads_.end(), "request via unknown offload id");
    bh_assert(it->second.faas != net::kNoEndpoint,
              "offload id was never attached");
    ++stats_.requests_routed;
    ++stats_.offload_requests;
    ShadowSession *overlay = nullptr;
    if (shadow) {
        auto sit = shadows_.find(*shadow);
        if (sit != shadows_.end())
            overlay = &sit->second;
    }
    return route(req, idem_key, overlay);
}

} // namespace beehive::proxy
