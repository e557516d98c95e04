#include "core/sync.h"

#include <deque>

#include "support/logging.h"

namespace beehive::core {

using vm::Heap;
using vm::Ref;
using vm::Value;

void
SyncManager::registerServer(vm::VmContext *ctx)
{
    endpoints_[0] = Endpoint{ctx, nullptr, {}};
}

void
SyncManager::registerFunction(uint16_t endpoint, vm::VmContext *ctx,
                              MappingTable *map)
{
    bh_assert(endpoint != 0, "endpoint 0 is the server");
    Endpoint e;
    e.ctx = ctx;
    e.map = map;
    // The closure install that follows copies CURRENT server state,
    // so this endpoint starts caught up with the flush log.
    e.synced_upto = flush_log_.size();
    endpoints_[endpoint] = std::move(e);
}

void
SyncManager::unregisterFunction(uint16_t endpoint)
{
    auto it = endpoints_.find(endpoint);
    if (it == endpoints_.end())
        return;
    endpoints_.erase(it);
    // Locks last owned by the dead function revert to the server;
    // its memory updates were only visible if previously synced
    // (exactly the paper's failure-recovery argument).
    for (auto &[ref, owner] : owners_) {
        if (owner == endpoint)
            owner = 0;
    }
}

const SyncManager::Endpoint &
SyncManager::ep(uint16_t id) const
{
    auto it = endpoints_.find(id);
    bh_assert(it != endpoints_.end(), "unknown endpoint %u", id);
    return it->second;
}

SyncManager::Endpoint &
SyncManager::ep(uint16_t id)
{
    auto it = endpoints_.find(id);
    bh_assert(it != endpoints_.end(), "unknown endpoint %u", id);
    return it->second;
}

void
SyncManager::markDirty(uint16_t endpoint, vm::Ref local)
{
    auto it = endpoints_.find(endpoint);
    if (it == endpoints_.end())
        return;
    it->second.dirty.insert(local);
}

std::size_t
SyncManager::dirtyCount(uint16_t endpoint) const
{
    auto it = endpoints_.find(endpoint);
    return it == endpoints_.end() ? 0 : it->second.dirty.size();
}

vm::Ref
SyncManager::canonical(uint16_t endpoint, vm::Ref local) const
{
    if (endpoint == 0)
        return local;
    const Endpoint &e = ep(endpoint);
    bh_assert(e.map, "function endpoint without mapping table");
    return e.map->toServer(local);
}

uint16_t
SyncManager::owner(vm::Ref server_ref) const
{
    auto it = owners_.find(server_ref);
    return it == owners_.end() ? 0 : it->second;
}

bool
SyncManager::needsRemoteAcquire(uint16_t endpoint, vm::Ref local) const
{
    vm::Ref server_ref = canonical(endpoint, local);
    if (server_ref == vm::kNullRef)
        return false; // not a shared object: purely local lock
    return owner(server_ref) != endpoint;
}

template <typename Translate>
uint64_t
SyncManager::copyObjectState(Heap &src_heap, Ref src, Heap &dst_heap,
                             Ref dst, Translate &&tr)
{
    const vm::ObjHeader &src_hdr = src_heap.header(src);
    vm::ObjHeader &dst_hdr = dst_heap.header(dst);
    bh_assert(src_hdr.klass == dst_hdr.klass,
              "object state copy across klasses");
    if (src_hdr.kind == vm::ObjKind::Bytes)
        return src_hdr.size; // byte payloads are immutable here
    uint32_t n = std::min(src_hdr.count, dst_hdr.count);
    for (uint32_t i = 0; i < n; ++i)
        dst_heap.setFieldRaw(dst, i, tr(src_heap.field(src, i)));
    return src_hdr.size;
}

void
SyncManager::logFlush(Ref server_ref)
{
    flush_log_.push_back(server_ref);
    superseded_.push_back(0);
    std::size_t older = latest_flush_.put(server_ref, flush_log_.size());
    if (older != 0)
        superseded_[older - 1] = 1;
}

std::set<Ref>
SyncManager::flushToServer(uint16_t endpoint, SyncResult &result)
{
    std::set<Ref> touched;
    if (endpoint == 0) {
        // Server dirty objects are already authoritative; publish
        // them so functions pull the updates on their next acquire.
        Endpoint &server = ep(0);
        touched = server.dirty;
        server.dirty.clear();
        for (Ref ref : touched)
            logFlush(ref);
        return touched;
    }
    Endpoint &fn = ep(endpoint);
    Endpoint &server = ep(0);
    Heap &fn_heap = fn.ctx->heap();
    Heap &server_heap = server.ctx->heap();

    // Work queue: function-local objects whose state must land on
    // the server. Promotion: a dirty object may reference a
    // function-allocated object the server has never seen; clone it
    // and extend the mapping so the reference survives translation.
    std::deque<Ref> queue(fn.dirty.begin(), fn.dirty.end());
    std::set<Ref> queued(fn.dirty.begin(), fn.dirty.end());
    fn.dirty.clear();

    auto translate = [&](Value v) -> Value {
        if (!v.isRef() || v.asRef() == vm::kNullRef)
            return v;
        Ref r = v.asRef();
        if (vm::isRemote(r))
            return v; // already a server address (still unfetched)
        Ref server_ref = fn.map->toServer(r);
        if (server_ref == vm::kNullRef) {
            // Promote a function-local object to the server.
            Ref clone = server_heap.cloneFrom(
                fn_heap, r, server_heap.allocSpaceId());
            bh_assert(clone != vm::kNullRef,
                      "server heap exhausted during promotion");
            // The raw clone currently holds function-local refs;
            // enqueue it so its fields get translated too.
            fn.map->add(clone, r);
            server_ref = clone;
            if (!queued.count(r)) {
                queued.insert(r);
                queue.push_back(r);
            }
        }
        return Value::ofRef(server_ref);
    };

    while (!queue.empty()) {
        Ref local = queue.front();
        queue.pop_front();
        Ref server_ref = fn.map->toServer(local);
        if (server_ref == vm::kNullRef)
            continue; // unmapped and never promoted: skip
        result.bytes_transferred += copyObjectState(
            fn_heap, local, server_heap, server_ref, translate);
        ++result.objects_transferred;
        touched.insert(server_ref);
        logFlush(server_ref);
    }
    return touched;
}

void
SyncManager::pullUpdates(uint16_t endpoint, SyncResult &result)
{
    Endpoint &e = ep(endpoint);
    std::size_t from = e.synced_upto;
    e.synced_upto = flush_log_.size();
    if (endpoint == 0 || !e.map)
        return; // the server copy IS the published state
    Heap &server_heap = ep(0).ctx->heap();
    Heap &fn_heap = e.ctx->heap();

    auto translate = [&](Value v) -> Value {
        if (!v.isRef() || v.asRef() == vm::kNullRef)
            return v;
        Ref r = v.asRef();
        if (vm::isRemote(r))
            return v;
        Ref local = e.map->toRemote(r);
        if (local != vm::kNullRef)
            return Value::ofRef(local);
        return Value::ofRef(vm::markRemote(r));
    };

    // Only the newest publication of an object is applied, so each
    // object is delivered at most once, at its newest position.
    for (std::size_t i = from; i < flush_log_.size(); ++i) {
        if (superseded_[i])
            continue;
        Ref server_ref = flush_log_[i];
        Ref local = e.map->toRemote(server_ref);
        if (local == vm::kNullRef)
            continue; // never shipped here: faulted in on demand
        // The endpoint's own unpublished writes are newer than any
        // logged state: never clobber them.
        if (e.dirty.count(local))
            continue;
        result.bytes_transferred += copyObjectState(
            server_heap, server_ref, fn_heap, local, translate);
        ++result.objects_transferred;
    }
}

void
SyncManager::pushToEndpoint(uint16_t endpoint,
                            const std::set<Ref> &server_refs,
                            SyncResult &result)
{
    if (endpoint == 0 || server_refs.empty())
        return;
    Endpoint &fn = ep(endpoint);
    Endpoint &server = ep(0);
    Heap &fn_heap = fn.ctx->heap();
    Heap &server_heap = server.ctx->heap();

    auto translate = [&](Value v) -> Value {
        if (!v.isRef() || v.asRef() == vm::kNullRef)
            return v;
        Ref r = v.asRef();
        if (vm::isRemote(r))
            return v;
        Ref local = fn.map->toRemote(r);
        if (local != vm::kNullRef)
            return Value::ofRef(local);
        // Unknown on this function: leave a remote reference; the
        // function faults it in on first touch.
        return Value::ofRef(vm::markRemote(r));
    };

    for (Ref server_ref : server_refs) {
        Ref local = fn.map->toRemote(server_ref);
        if (local == vm::kNullRef)
            continue; // the function never saw this object
        result.bytes_transferred += copyObjectState(
            server_heap, server_ref, fn_heap, local, translate);
        ++result.objects_transferred;
    }
}

bool
SyncManager::monitorIsShared(uint16_t endpoint, vm::Ref local) const
{
    return canonical(endpoint, local) != vm::kNullRef;
}

void
SyncManager::grantTo(vm::Ref canonical_ref, const Waiter &w)
{
    MonitorState &state = monitors_[canonical_ref];
    state.holder = w.holder;
    SyncResult result = acquire(w.endpoint, w.local);
    w.grant(result);
}

void
SyncManager::acquireMonitor(uint16_t endpoint, const void *holder,
                            vm::Ref local, GrantCb grant)
{
    vm::Ref server_ref = canonical(endpoint, local);
    if (server_ref == vm::kNullRef) {
        // Not a shared object: local-only lock, granted instantly.
        grant(SyncResult{});
        return;
    }
    MonitorState &state = monitors_[server_ref];
    if (state.holder == holder) {
        // Re-entrant acquire by the same invocation.
        grant(SyncResult{});
        return;
    }
    if (state.holder == nullptr) {
        grantTo(server_ref, Waiter{endpoint, holder, local,
                                   std::move(grant)});
        return;
    }
    ++stats_.monitor_contended;
    state.queue.push_back(
        Waiter{endpoint, holder, local, std::move(grant)});
}

void
SyncManager::releaseMonitor(uint16_t endpoint, const void *holder,
                            vm::Ref local)
{
    vm::Ref server_ref = canonical(endpoint, local);
    if (server_ref == vm::kNullRef)
        return;
    auto it = monitors_.find(server_ref);
    if (it == monitors_.end() || it->second.holder != holder)
        return; // never held here (or already abandoned)
    // Release semantics: publish the releaser's writes now, so any
    // later acquirer (even via a different lock) can pull them.
    SyncResult publish;
    flushToServer(endpoint, publish);
    MonitorState &state = it->second;
    state.holder = nullptr;
    if (!state.queue.empty()) {
        Waiter next = std::move(state.queue.front());
        state.queue.pop_front();
        grantTo(server_ref, next);
    }
}

void
SyncManager::abandonHolder(const void *holder)
{
    for (auto &[ref, state] : monitors_) {
        for (auto qit = state.queue.begin();
             qit != state.queue.end();) {
            if (qit->holder == holder)
                qit = state.queue.erase(qit);
            else
                ++qit;
        }
        if (state.holder == holder) {
            state.holder = nullptr;
            if (!state.queue.empty()) {
                Waiter next = std::move(state.queue.front());
                state.queue.pop_front();
                grantTo(ref, next);
            }
        }
    }
}

std::size_t
SyncManager::heldMonitors() const
{
    std::size_t n = 0;
    for (const auto &[ref, state] : monitors_) {
        if (state.holder != nullptr)
            ++n;
    }
    return n;
}

void
SyncManager::forEachServerRef(RefVisitor v)
{
    // Lock-owner keys are canonical server addresses.
    std::vector<std::pair<vm::Ref, uint16_t>> owners(owners_.begin(),
                                                     owners_.end());
    bool changed = false;
    for (auto &[ref, owner] : owners) {
        vm::Ref before = ref;
        v(ref);
        changed = changed || ref != before;
    }
    if (changed) {
        owners_.clear();
        for (auto &[ref, owner] : owners)
            owners_[ref] = owner;
    }
    // The server's own dirty set holds server refs too.
    auto it = endpoints_.find(0);
    if (it != endpoints_.end() && !it->second.dirty.empty()) {
        std::vector<vm::Ref> dirty(it->second.dirty.begin(),
                                   it->second.dirty.end());
        for (vm::Ref &r : dirty)
            v(r);
        it->second.dirty.clear();
        it->second.dirty.insert(dirty.begin(), dirty.end());
    }
    // The flush log and its index hold server addresses. Every
    // entry is a root, duplicates included. A marked entry stays
    // marked, as its object's newer entry moves with it; the index
    // is rebuilt from the unmarked entries in log order, marking an
    // older one that a put displaces, as logFlush does.
    if (!flush_log_.empty()) {
        for (Ref &r : flush_log_)
            v(r);
        latest_flush_.clear();
        for (std::size_t i = 0; i < flush_log_.size(); ++i) {
            if (superseded_[i])
                continue;
            std::size_t older = latest_flush_.put(flush_log_[i], i + 1);
            if (older != 0)
                superseded_[older - 1] = 1;
        }
    }
    // Monitor-table keys are canonical server addresses as well.
    if (!monitors_.empty()) {
        std::vector<std::pair<vm::Ref, MonitorState>> entries;
        entries.reserve(monitors_.size());
        for (auto &[ref, state] : monitors_)
            entries.emplace_back(ref, std::move(state));
        monitors_.clear();
        for (auto &[ref, state] : entries) {
            v(ref);
            monitors_[ref] = std::move(state);
        }
    }
}

SyncManager::SyncResult
SyncManager::acquire(uint16_t endpoint, vm::Ref local)
{
    SyncResult result;
    Ref server_ref = canonical(endpoint, local);
    if (server_ref == vm::kNullRef)
        return result; // local-only lock: nothing to do
    uint16_t prev = owner(server_ref);
    result.prev_owner = prev;
    if (prev == endpoint)
        return result;
    ++stats_.remote_acquires;
    result.remote = true;

    // Happen-before edge: everything the previous owner wrote
    // before releasing must be visible. Publish its dirty set to
    // the server copies (appending to the flush log), then replay
    // for the acquirer every published update it has not seen --
    // not just this owner's, so visibility is transitive across
    // lock chains.
    flushToServer(prev, result);
    pullUpdates(endpoint, result);

    owners_[server_ref] = endpoint;
    stats_.objects_transferred += result.objects_transferred;
    stats_.bytes_transferred += result.bytes_transferred;
    return result;
}

} // namespace beehive::core
