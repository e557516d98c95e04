/**
 * @file
 * The FaaS-side BeeHive runtime (one per function instance).
 *
 * A BeeHiveFunction wraps one FaaS instance with a full VM: its own
 * heap (closure space + allocation semispaces), its own loaded-klass
 * set and the per-function GC. Its invocations run on the invocation
 * engine the server uses too (core/invocation.h); the function's
 * endpoint hooks service every fallback the interpreter raises:
 *
 *   - missing code / missing data: round trip to the server, fetch
 *     the class file or object, install it, retry (Section 3.1);
 *   - un-offloadable natives: round trip to the server (eliminated
 *     by Packageable for the evaluated apps, Section 3.2);
 *   - database operations: via the connection proxy with the packed
 *     connection ID -- no fallback (Section 3.3) -- unless the
 *     proxy/packing is disabled (ablations), in which case each
 *     round routes through the server as a connection fallback;
 *   - monitor synchronization: the server-coordinated JMM protocol
 *     (Section 4.2);
 *   - heap exhaustion: the two-space GC (Section 4.4);
 *   - shadow execution: first invocation runs against a shadow
 *     proxy session and discards its result (Section 3.4).
 */

#ifndef BEEHIVE_CORE_FUNCTION_H
#define BEEHIVE_CORE_FUNCTION_H

#include <functional>
#include <memory>
#include <set>

#include "cloud/faas.h"
#include "core/closure.h"
#include "core/server.h"
#include "core/trace.h"
#include "gc/collector.h"
#include "vm/interpreter.h"

namespace beehive::core {

/**
 * Function-side event counts over every invocation of every
 * instance, bumped when the event happens: killed and cancelled
 * invocations count too. One aggregate, owned by the
 * OffloadManager; the per-invocation RequestTrace is the
 * per-request view (Table 5).
 */
struct FunctionStats
{
    uint64_t invocations = 0; //!< executions started fresh
    uint64_t resumes = 0;     //!< executions resumed from a snapshot
    uint64_t shadow_invocations = 0;
    uint64_t code_fetches = 0; //!< fallbacks, as in RequestTrace
    uint64_t data_fetches = 0;
    uint64_t native_fallbacks = 0;
    uint64_t sync_fallbacks = 0;
    uint64_t connection_fallbacks = 0;
    uint64_t db_resets = 0; //!< DB ops re-issued after a reset
    uint64_t prefetched_klasses = 0; //!< restore-boot prefetch
    uint64_t prefetched_objects = 0;
    uint64_t stale_prefetches = 0;
    uint64_t gc_cycles = 0; //!< function-heap collections
    uint64_t gc_bytes_copied = 0;
    uint64_t instructions = 0; //!< of completed executions
};

/** One function instance's runtime. */
class BeeHiveFunction
{
  public:
    using DoneCb = std::function<void(vm::Value, const RequestTrace &)>;

    /**
     * @param server The coordinating server runtime.
     * @param platform Owning FaaS platform (profile, latencies).
     * @param instance The machine this function runs on.
     * @param stats Aggregate this function's events are counted in.
     */
    BeeHiveFunction(BeeHiveServer &server,
                    cloud::FaasPlatform &platform,
                    cloud::FunctionInstance &instance,
                    FunctionStats &stats);

    ~BeeHiveFunction();

    /** @name State */
    /// @{
    uint16_t endpointId() const { return endpoint_id_; }
    net::EndpointId node() const;
    vm::VmContext &context() { return *ctx_; }
    vm::Heap &heap() { return *heap_; }
    gc::SemiSpaceCollector &collector() { return *collector_; }
    bool busy() const { return invocation_ != nullptr; }
    /** True once a (shadow) execution of @p root warmed this VM. */
    bool warmedFor(vm::MethodId root) const
    {
        return warmed_roots_.count(root) > 0;
    }
    /// @}

    /**
     * Install @p closure (first offload to this instance).
     *
     * @return transfer statistics; the caller charges the network.
     */
    InstallResult install(const Closure &closure);

    /**
     * Execute one offloaded invocation.
     *
     * @param root Root method.
     * @param server_args Arguments as server-heap values; they are
     *        copied into this function's heap.
     * @param shadow Run as a side-effect-free shadow execution.
     * @param done Completion callback (server-heap result + trace).
     * @param request_key Nonzero marks a re-executable request: the
     *        invocation keys its database writes with deterministic
     *        idempotency keys derived from (request_key, write
     *        sequence), so a retried execution never double-applies
     *        a write that already reached the store.
     */
    void invoke(vm::MethodId root, std::vector<vm::Value> server_args,
                bool shadow, DoneCb done, uint64_t request_key = 0);

    /**
     * Failure injection: the instance dies mid-invocation. The
     * pending invocation's callback never fires; the off-load
     * manager recovers via the stored snapshot (Section 4.5).
     */
    void kill();

    /**
     * Abort the pending invocation without condemning the instance
     * (deadline expiry / circuit-breaker strike): the invocation's
     * callback never fires, but the VM stays warm and reusable.
     */
    void cancelInvocation();

    /** Latest stack snapshot (server-translated), for recovery. */
    const std::vector<vm::Frame> &lastSnapshot() const
    {
        return snapshot_;
    }
    bool hasSnapshot() const { return !snapshot_.empty(); }

    /** Root the stored snapshot belongs to (kNoMethod when none). */
    vm::MethodId snapshotRoot() const { return snapshot_root_; }

    /** Write-sequence position captured with the snapshot; a resume
     * continues keying writes from here so idempotency keys line up
     * with what the failed execution already applied. */
    uint64_t snapshotWriteSeq() const { return snapshot_write_seq_; }

    /**
     * Request key of the invocation that captured the snapshot.
     * A recovery must only resume from a snapshot taken by the very
     * request it is recovering: the snapshot survives invocation
     * completion, so without this tag a kill early in request B
     * (before its first sync point) would resume B from request A's
     * leftover stack -- completing with A's state and silently
     * dropping the rest of B's work.
     */
    uint64_t snapshotRequestKey() const
    {
        return snapshot_request_key_;
    }

    /**
     * Resume a failed invocation from @p snapshot (frames holding
     * remote-marked server addresses; data faults refill state).
     */
    void resume(vm::MethodId root, std::vector<vm::Frame> snapshot,
                bool shadow, DoneCb done, uint64_t request_key = 0,
                uint64_t start_write_seq = 0);

    /**
     * Note a restore-boot prefetch: the working set installed from
     * the snapshot image before the first invocation dispatches.
     * Consumed into that invocation's trace.
     */
    void notePrefetch(uint64_t klasses, uint64_t objects,
                      uint64_t stale)
    {
        pending_prefetch_.klasses += klasses;
        pending_prefetch_.objects += objects;
        pending_prefetch_.stale += stale;
    }

  private:
    class Offloaded;

    BeeHiveServer &server_;
    cloud::FaasPlatform &platform_;
    cloud::FunctionInstance &instance_;
    FunctionStats &stats_;
    uint16_t endpoint_id_ = 0;

    std::unique_ptr<vm::Heap> heap_;
    std::unique_ptr<vm::VmContext> ctx_;
    std::unique_ptr<gc::SemiSpaceCollector> collector_;

    std::set<vm::MethodId> warmed_roots_;
    std::set<uint64_t> attached_tokens_;
    std::shared_ptr<Offloaded> invocation_;
    std::vector<vm::Frame> snapshot_;
    vm::MethodId snapshot_root_ = vm::kNoMethod;
    uint64_t snapshot_write_seq_ = 0;
    uint64_t snapshot_request_key_ = 0;
    bool dead_ = false;

    struct PendingPrefetch
    {
        uint64_t klasses = 0;
        uint64_t objects = 0;
        uint64_t stale = 0;
    } pending_prefetch_;
};

} // namespace beehive::core

#endif // BEEHIVE_CORE_FUNCTION_H
