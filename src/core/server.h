/**
 * @file
 * The BeeHive server runtime: the original monolith, extended.
 *
 * The server is a normal web application VM (it accepts every
 * request and can execute all of them locally) plus the BeeHive
 * machinery: the candidate profiler, the per-function mapping
 * tables, the synchronization coordinator, fallback services for
 * offloaded functions, and a GC whose root set includes the mapping
 * tables (Section 4.4).
 */

#ifndef BEEHIVE_CORE_SERVER_H
#define BEEHIVE_CORE_SERVER_H

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "cloud/instance.h"
#include "core/closure.h"
#include "core/config.h"
#include "core/external.h"
#include "core/mapping.h"
#include "core/sync.h"
#include "core/trace.h"
#include "db/record_store.h"
#include "gc/collector.h"
#include "net/network.h"
#include "proxy/connection_proxy.h"
#include "sim/simulation.h"
#include "snapshot/store.h"
#include "telemetry/telemetry.h"
#include "vm/context.h"
#include "vm/interpreter.h"
#include "vm/offload_analysis.h"
#include "vm/profiler.h"

namespace beehive::core {

/**
 * Event counts of one server. Its GC cycles are counted by its
 * collector (collector().totals()); the fallbacks it serves, by the
 * offload manager's FunctionStats.
 */
struct ServerStats
{
    uint64_t local_requests = 0; //!< requests started locally
    uint64_t queued = 0;    //!< requests that waited for a thread
    uint64_t db_resets = 0; //!< DB ops re-issued after a reset
    /** Interpreter work of finished local requests. */
    uint64_t instructions = 0;
    uint64_t calls = 0;
    uint64_t native_calls = 0;
};

/** The server-side BeeHive runtime. */
class BeeHiveServer
{
  public:
    using DoneCb = std::function<void(vm::Value)>;

    /**
     * @param sim Simulation clock/scheduler.
     * @param net Network fabric.
     * @param program The application program (all klasses).
     * @param natives Native registry of the program.
     * @param proxy Connection proxy co-located with the database.
     * @param db_endpoint Network node of the database/proxy machine.
     * @param machine The machine this server runs on.
     * @param config BeeHive tunables.
     */
    BeeHiveServer(sim::Simulation &sim, net::Network &net,
                  vm::Program &program, vm::NativeRegistry &natives,
                  proxy::ConnectionProxy &proxy,
                  net::EndpointId db_endpoint, cloud::Instance &machine,
                  BeeHiveConfig config);

    /** Frees requests still in flight (their pending simulation
     * events must never run afterwards). */
    ~BeeHiveServer();

    /** @name Accessors */
    /// @{
    sim::Simulation &sim() { return sim_; }
    net::Network &network() { return net_; }
    vm::Program &program() { return program_; }
    vm::NativeRegistry &natives() { return natives_; }
    vm::VmContext &context() { return *ctx_; }
    vm::Heap &heap() { return *heap_; }
    vm::Profiler &profiler() { return profiler_; }
    SyncManager &sync() { return sync_; }
    PackageableRegistry &packageables() { return packageables_; }
    proxy::ConnectionProxy &proxy() { return proxy_; }
    net::EndpointId endpoint() const { return machine_.endpoint(); }
    net::EndpointId dbEndpoint() const { return db_endpoint_; }
    cloud::Instance &machine() { return machine_; }
    BeeHiveConfig &config() { return config_; }
    gc::SemiSpaceCollector &collector() { return *collector_; }
    const ServerStats &stats() const { return stats_; }

    /**
     * The static analysis of the program, built once at construction
     * (lock order, offload classification, capture sets, reachability).
     */
    const vm::OffloadAnalysis &analysis() const { return *analysis_; }

    /** Snapshot store; null unless config.snapshot_enabled. */
    snapshot::SnapshotStore *snapshots() { return snapshots_.get(); }

    /** Telemetry track of this server (0 when telemetry is off). */
    uint32_t track() const { return track_; }
    /// @}

    /**
     * Execute a request locally on the server.
     *
     * @param root Handler method.
     * @param args Handler arguments (server-heap values).
     * @param done Completion callback with the return value.
     * @param suppress_offload Never redirect nested call sites to
     *        FaaS (vanilla baselines; the local leg of a shadowed
     *        request).
     * @param request_key Nonzero marks a re-execution of a request
     *        whose earlier (offloaded) attempt may already have
     *        applied database writes: writes are keyed with the
     *        same deterministic idempotency keys, so the proxy's
     *        exactly-once guard suppresses duplicates.
     */
    void handleLocal(vm::MethodId root, std::vector<vm::Value> args,
                     DoneCb done, bool suppress_offload = false,
                     uint64_t request_key = 0);

    /**
     * Handler invoked when an interpreter suspends with an
     * OffloadCall: (method, args, completion). Installed by the
     * OffloadManager.
     */
    using OffloadDispatch = std::function<void(
        vm::MethodId, std::vector<vm::Value>, DoneCb)>;
    void setOffloadDispatch(OffloadDispatch d)
    {
        offload_dispatch_ = std::move(d);
    }

    /** Enable per-request profiling of candidate roots. */
    void setProfiling(bool on) { profiling_ = on; }
    bool profiling() const { return profiling_; }

    /** @name Function endpoint registry */
    /// @{
    /** Allocate an endpoint id + mapping table for a new function. */
    uint16_t registerFunction(vm::VmContext *fn_ctx,
                              net::EndpointId node);

    MappingTable &mappingFor(uint16_t fn_endpoint);

    /** Network node of a registered function. */
    net::EndpointId functionNode(uint16_t fn_endpoint) const;

    /** Function instance destroyed: locks revert, mappings drop. */
    void dropFunction(uint16_t fn_endpoint);

    std::size_t functionCount() const { return mappings_.size(); }
    /// @}

    /**
     * Run a server GC cycle (mapping tables are part of the root
     * set) and return its pause.
     */
    sim::SimTime runGc();

    /**
     * Round-trip latency between this server and the database for a
     * request/response of the given sizes, including proxy
     * processing and the database's service time.
     */
    sim::SimTime dbRoundTrip(const db::Request &req,
                             const db::Response &resp);

  private:
    class Local;

    sim::Simulation &sim_;
    net::Network &net_;
    vm::Program &program_;
    vm::NativeRegistry &natives_;
    proxy::ConnectionProxy &proxy_;
    net::EndpointId db_endpoint_;
    cloud::Instance &machine_;
    BeeHiveConfig config_;

    std::unique_ptr<vm::Heap> heap_;
    std::unique_ptr<vm::VmContext> ctx_;
    vm::Profiler profiler_;
    SyncManager sync_;
    PackageableRegistry packageables_;
    std::unique_ptr<gc::SemiSpaceCollector> collector_;
    std::unique_ptr<snapshot::SnapshotStore> snapshots_;
    std::unique_ptr<vm::OffloadAnalysis> analysis_;

    std::map<uint16_t, std::unique_ptr<MappingTable>> mappings_;
    std::map<uint16_t, net::EndpointId> fn_nodes_;
    uint16_t next_fn_endpoint_ = 1;

    struct QueuedRequest
    {
        vm::MethodId root;
        std::vector<vm::Value> args;
        DoneCb done;
        bool suppress_offload;
        uint64_t request_key = 0;
        telemetry::Context tctx;
        telemetry::SpanId queue_span = telemetry::kNoSpan;
    };

    /** Start one admitted request. */
    void launch(vm::MethodId root, std::vector<vm::Value> args,
                DoneCb done, bool suppress_offload,
                uint64_t request_key, telemetry::Context tctx);
    /** Admit queued requests as threads free up. */
    void drainQueue();

    std::set<Local *> active_;
    std::deque<QueuedRequest> queue_;
    OffloadDispatch offload_dispatch_;
    bool profiling_ = false;
    ServerStats stats_;
    uint32_t track_ = 0;
};

/**
 * Materialize a database response as VM objects in @p ctx's heap:
 * reads yield an array of byte objects (one per row), writes yield
 * the affected-row count. The heap keeps the records it borrows
 * alive by taking their handles: the rows of @p resp it borrows are
 * left empty (vm::Heap::allocRowArray). On heap exhaustion it
 * returns std::nullopt with every row still in @p resp, so the
 * caller can collect and retry.
 */
std::optional<vm::Value>
tryMaterializeDbResponse(vm::VmContext &ctx, const db::Request &req,
                         db::Response &resp);

} // namespace beehive::core

#endif // BEEHIVE_CORE_SERVER_H
