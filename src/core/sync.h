/**
 * @file
 * Shared-state synchronization (paper Section 4.2, Figure 6).
 *
 * BeeHive follows the Java Memory Model's release consistency: when
 * an endpoint acquires a monitor previously released by another
 * endpoint, the dirty objects of the previous owner must become
 * visible to the acquirer. The server coordinates every such
 * synchronization -- it holds the address mapping tables for all
 * functions, so it can translate object addresses between any two
 * endpoints (functions are volatile and must not keep each other's
 * mappings).
 *
 * Endpoint numbering: 0 is the server; function instances get
 * non-zero ids. The canonical identity of a shared object is its
 * *server* address.
 *
 * Dirty tracking: each endpooint's heap write observer reports
 * stores to shareable (closure-space / shared-flagged) objects;
 * only those travel on a synchronization, which the paper notes
 * keeps the per-sync data small (Table 5: 5-88 objects).
 */

#ifndef BEEHIVE_CORE_SYNC_H
#define BEEHIVE_CORE_SYNC_H

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "core/mapping.h"
#include "vm/context.h"
#include "vm/heap.h"
#include "vm/ref_table.h"

namespace beehive::core {

/** Server-coordinated release-consistency synchronization. */
class SyncManager
{
  public:
    /** Result of one synchronization (drives latency modelling). */
    struct SyncResult
    {
        uint16_t prev_owner = 0;
        uint64_t objects_transferred = 0;
        uint64_t bytes_transferred = 0;
        /** True when the previous owner was another endpoint and a
         * data transfer actually happened. */
        bool remote = false;
    };

    /**
     * Register the server (endpoint 0). Must be called first.
     */
    void registerServer(vm::VmContext *ctx);

    /**
     * Register a function endpoint with its mapping table.
     */
    void registerFunction(uint16_t endpoint, vm::VmContext *ctx,
                          MappingTable *map);

    /** Remove a destroyed function (its locks revert to the server). */
    void unregisterFunction(uint16_t endpoint);

    /** Record a write to a shareable object on @p endpoint. */
    void markDirty(uint16_t endpoint, vm::Ref local);

    std::size_t dirtyCount(uint16_t endpoint) const;

    /**
     * True when @p endpoint acquiring the monitor of its local
     * object @p local requires a cross-endpoint synchronization.
     */
    bool needsRemoteAcquire(uint16_t endpoint, vm::Ref local) const;

    /** @name Mutual exclusion (monitor table)
     *
     * Monitors of *shared* objects (those with a canonical server
     * address) are coordinated here: acquires queue FIFO behind the
     * current holder, and each grant performs the release-
     * consistency data transfer via acquire(). Holders are opaque
     * tokens (the driving invocation), so concurrent requests on
     * one endpoint exclude each other too, exactly like JVM
     * threads.
     */
    /// @{
    using GrantCb = std::function<void(const SyncResult &)>;

    /** Monitors of non-shared objects stay endpoint-local. */
    bool monitorIsShared(uint16_t endpoint, vm::Ref local) const;

    /**
     * Request the monitor of @p local for @p holder. The grant
     * callback fires once the monitor is free (immediately when
     * uncontended, synchronously re-entrant for the same holder)
     * with the data-transfer stats the caller turns into latency.
     */
    void acquireMonitor(uint16_t endpoint, const void *holder,
                        vm::Ref local, GrantCb grant);

    /** Release the monitor; the next queued waiter is granted. */
    void releaseMonitor(uint16_t endpoint, const void *holder,
                        vm::Ref local);

    /**
     * A holder died (failure injection): release everything it
     * held and drop it from all wait queues.
     */
    void abandonHolder(const void *holder);

    /** Monitors currently held (tests). */
    std::size_t heldMonitors() const;
    /// @}

    /**
     * Perform the synchronization protocol for @p endpoint
     * acquiring @p local: flush the previous owner's dirty objects
     * to the server, push them (address-translated) to the
     * acquirer, and transfer ownership.
     */
    SyncResult acquire(uint16_t endpoint, vm::Ref local);

    /** Monitor owner of a canonical (server-address) object. */
    uint16_t owner(vm::Ref server_ref) const;

    /** Event counts of the protocol. */
    struct Stats
    {
        /** Acquires that synchronized with another endpoint. */
        uint64_t remote_acquires = 0;
        uint64_t objects_transferred = 0;
        uint64_t bytes_transferred = 0;
        /** Monitor acquires that queued behind another holder. */
        uint64_t monitor_contended = 0;
    };

    const Stats &stats() const { return stats_; }

    /**
     * GC integration for the server: visit every server-address the
     * manager holds (lock-owner keys, server dirty refs) so a moving
     * collection can update them; indexes are rebuilt afterwards.
     */
    using RefVisitor = gc::SemiSpaceCollector::RefVisitor;
    void forEachServerRef(RefVisitor v);

  private:
    struct Endpoint
    {
        vm::VmContext *ctx = nullptr;
        MappingTable *map = nullptr; //!< null for the server
        std::set<vm::Ref> dirty;     //!< local refs
        /** Position in the flush log this endpoint has pulled. */
        std::size_t synced_upto = 0;
    };

    /** Canonical server address for an endpoint-local ref. */
    vm::Ref canonical(uint16_t endpoint, vm::Ref local) const;

    /**
     * Copy @p src's fields into @p dst, translating every reference
     * through @p tr (a Value(Value) callable, inlined into the
     * per-field loop). Returns bytes copied.
     */
    template <typename Translate>
    uint64_t copyObjectState(vm::Heap &src_heap, vm::Ref src,
                             vm::Heap &dst_heap, vm::Ref dst,
                             Translate &&tr);

    /**
     * Flush one endpoint's dirty objects into the server heap,
     * promoting unmapped function-local objects. Returns the set of
     * affected server refs.
     */
    std::set<vm::Ref> flushToServer(uint16_t endpoint,
                                    SyncResult &result);

    /** Push server objects to the acquiring endpoint's copies. */
    void pushToEndpoint(uint16_t endpoint,
                        const std::set<vm::Ref> &server_refs,
                        SyncResult &result);

    const Endpoint &ep(uint16_t id) const;
    Endpoint &ep(uint16_t id);

    struct Waiter
    {
        uint16_t endpoint;
        const void *holder;
        vm::Ref local;
        GrantCb grant;
    };

    struct MonitorState
    {
        const void *holder = nullptr; //!< null = free
        std::deque<Waiter> queue;
    };

    /** Grant the monitor to a waiter (performs the data sync). */
    void grantTo(vm::Ref canonical_ref, const Waiter &w);

    /**
     * Deliver every flush-log update the endpoint has not seen yet
     * into its mapped copies (skipping superseded entries and
     * objects the endpoint itself has dirty -- those carry ITS
     * newer writes).
     */
    void pullUpdates(uint16_t endpoint, SyncResult &result);

    /** Append publishes to the log (called from flushToServer). */
    void logFlush(vm::Ref server_ref);

    std::map<uint16_t, Endpoint> endpoints_;
    std::unordered_map<vm::Ref, uint16_t> owners_;
    std::unordered_map<vm::Ref, MonitorState> monitors_;
    /**
     * Publication order of server-copy updates. Every release (and
     * server-side write flush) appends the touched server refs;
     * acquirers replay the suffix they have not seen. When an object
     * is published again, logFlush marks its older entry superseded,
     * so a replay applies only each object's newest publication
     * without looking anything up. latest_flush_ holds the newest
     * position (plus one) per object, for that marking.
     */
    std::vector<vm::Ref> flush_log_;
    std::vector<uint8_t> superseded_; //!< parallel to flush_log_
    vm::RefTable latest_flush_;
    Stats stats_;
};

} // namespace beehive::core

#endif // BEEHIVE_CORE_SYNC_H
