#include "core/server.h"

#include <algorithm>
#include <span>

#include "core/invocation.h"
#include "support/logging.h"
#include "vm/analysis.h"
#include "vm/verifier.h"

namespace beehive::core {

using vm::Value;

namespace {

/** Closure-space size of the server heap (lazily committed). */
constexpr std::size_t kServerClosureBytes = 4u << 20;

/**
 * Server request-thread pool size: requests beyond it queue
 * (bounding both memory and, like any real servlet container,
 * producing queueing latency under overload).
 */
constexpr std::size_t kServerMaxActive = 128;

} // namespace

std::optional<Value>
tryMaterializeDbResponse(vm::VmContext &ctx, const db::Request &req,
                         db::Response &resp)
{
    switch (req.kind) {
      case db::OpKind::Put:
      case db::OpKind::Delete:
      case db::OpKind::Count:
        return Value::ofInt(resp.ok ? resp.count : -1);
      case db::OpKind::Get:
      case db::OpKind::Scan: {
        vm::KlassId arr_k = ctx.config().array_klass;
        vm::KlassId bytes_k = ctx.config().bytes_klass;
        bh_assert(arr_k != vm::kNoKlass && bytes_k != vm::kNoKlass,
                  "array/bytes klass not configured");
        // Each stored record already holds its wire bytes
        // ("<id>|k1=v1|k2=v2...") and never changes: the heap borrows
        // them, keeping the response's handles as pins, instead of
        // copying each row.
        vm::Ref arr = ctx.heap().allocRowArray(
            arr_k, bytes_k, std::span(resp.rows),
            [](const db::Record &r) { return r.wire(); });
        if (arr == vm::kNullRef)
            return std::nullopt;
        return Value::ofRef(arr);
      }
    }
    return Value::nil();
}

// ---------------------------------------------------------------------
// Local: a request run on the server (core/invocation.h).
// ---------------------------------------------------------------------

class BeeHiveServer::Local final : public Invocation<Local>
{
  public:
    Local(BeeHiveServer &server, vm::MethodId root,
          std::vector<Value> args, DoneCb done, bool suppress_offload,
          uint64_t request_key, telemetry::Context tctx)
        : Invocation(server, server.context(), /*endpoint=*/0,
                     server.track(), tctx, request_key,
                     /*write_seq=*/0, /*shadow=*/false),
          done_(std::move(done))
    {
        interp_.setSuppressOffload(suppress_offload);
        // The interpreter profiles every candidate handler it runs,
        // whether framework plumbing calls it or it is the root.
        if (server_.profiling())
            interp_.enableCandidateProfiling(true);
        interp_.start(root, std::move(args));
    }

    void
    begin()
    {
        ++server_.stats_.local_requests;
        openExec("server.exec");
        pump();
    }

  private:
    friend class Invocation<Local>;

    sim::ProcessorSharingCpu &cpu() { return server_.machine().cpu(); }

    /** A raw `this` is safe: a server invocation is freed when it
     * finishes, with no continuation pending, or by ~BeeHiveServer,
     * after which the simulation must not run. */
    template <typename Next>
    Next
    guard(Next next)
    {
        return next;
    }

    DbRoute
    routeDb(uint64_t idem)
    {
        db_resp_ = server_.proxy().request(
            static_cast<proxy::ConnId>(db_call_.conn_token),
            db_call_.request, idem);
        return {server_.dbRoundTrip(db_call_.request, db_resp_),
                "db.roundtrip"};
    }

    void
    countDbResets(const db::Response &resp)
    {
        if (resp.reset)
            ++server_.stats_.db_resets;
    }

    sim::SimTime
    syncLatency(const SyncManager::SyncResult &r, bool /*monitor*/)
    {
        return ownerRtt(r);
    }

    sim::SimTime collect() { return server_.runGc(); }

    void
    offloadCall(vm::Suspend &s)
    {
        bh_assert(server_.offload_dispatch_,
                  "OffloadCall without an offload manager");
        // The manager opens its flight span under this exec span
        // via the ambient context (synchronous call).
        telemetry::ScopedContext sc(tracer(),
                                    {tctx_.request, exec_span_});
        server_.offload_dispatch_(s.offload_method,
                                  std::move(s.offload_args),
                                  [this](Value result) {
                                      interp_.resumeExternal(result);
                                      pump();
                                  });
    }

    void
    finish(Value result)
    {
        // Safety net: a request must not exit holding monitors.
        server_.sync().abandonHolder(holder());
        const vm::InterpStats &is = interp_.stats();
        ServerStats &stats = server_.stats_;
        stats.instructions += is.instructions;
        stats.calls += is.calls;
        stats.native_calls += is.native_calls;
        endSpan(exec_span_);
        DoneCb done = std::move(done_);
        BeeHiveServer &server = server_;
        server.active_.erase(this);
        delete this;
        done(result);
        server.drainQueue();
    }

    DoneCb done_;
};

// ---------------------------------------------------------------------
// BeeHiveServer
// ---------------------------------------------------------------------

BeeHiveServer::BeeHiveServer(sim::Simulation &sim, net::Network &net,
                             vm::Program &program,
                             vm::NativeRegistry &natives,
                             proxy::ConnectionProxy &proxy,
                             net::EndpointId db_endpoint,
                             cloud::Instance &machine,
                             BeeHiveConfig config)
    : sim_(sim), net_(net), program_(program), natives_(natives),
      proxy_(proxy), db_endpoint_(db_endpoint), machine_(machine),
      config_(config), profiler_(program)
{
    heap_ = std::make_unique<vm::Heap>(program_,
                                       kServerClosureBytes,
                                       config_.server_alloc_bytes);
    vm::VmConfig vm_cfg = config_.server_vm;
    vm_cfg.endpoint = 0;
    vm_cfg.check_remote_refs = false;
    ctx_ = std::make_unique<vm::VmContext>(program_, natives_, *heap_,
                                           vm_cfg);
    ctx_->loadAll();
    ctx_->setProfiler(&profiler_);

    if (config_.snapshot_enabled || config_.static_manifests) {
        // static_manifests needs the store even with recording off:
        // synthesized manifests live in it and serve the restore
        // path exactly like recorded images.
        snapshots_ = std::make_unique<snapshot::SnapshotStore>(*heap_);
    }

    // Verify-on-load: the verifier is the load-time gate. Bytecode
    // it flags as Error can corrupt interpreter frames mid-request,
    // so such a program never reaches the interpreter.
    vm::VerifyResult vr = vm::Verifier(program_).verifyAll();
    for (const vm::Diagnostic &d : vr.diagnostics)
        warn("verifier: %s", toString(d, program_).c_str());
    if (!vr.ok())
        fatal("verify-on-load: program rejected with %zu error(s)",
              vr.errorCount());
    // Lock-order analysis rides along with the verifier gate: an
    // ABBA inversion can wedge local and offloaded frames against
    // each other, so surface it before traffic starts.
    analysis_ = std::make_unique<vm::OffloadAnalysis>(program_);
    for (const vm::LockCycle &cycle : analysis_->analysis().lockCycles())
        warn("lock-order: %s", cycle.describe(program_).c_str());

    sync_.registerServer(ctx_.get());

    // Dirty tracking: stores to shared objects feed the server's
    // dirty set so later function acquires see them.
    heap_->setWriteObserver([this](vm::Ref obj) {
        if (heap_->header(obj).flags & vm::kFlagShared)
            sync_.markDirty(0, obj);
    });

    // Monitor policy: monitors of shared objects go through the
    // SyncManager's monitor table (mutual exclusion + JMM data
    // transfer); request-local objects stay cheap.
    ctx_->setMonitorPolicy([this](vm::Ref obj) {
        return sync_.monitorIsShared(0, obj);
    });

    // Server GC: frames of active requests + statics + mapping
    // tables + sync manager state.
    collector_ = std::make_unique<gc::SemiSpaceCollector>(*heap_);
    collector_->addValueRoots([this](const auto &visit) {
        for (Local *inv : active_)
            inv->interp().forEachRoot(visit);
        for (QueuedRequest &req : queue_) {
            for (vm::Value &v : req.args)
                visit(v);
        }
        ctx_->forEachStatic(visit);
    });
    collector_->addRefRoots([this](const auto &visit) {
        for (auto &[id, table] : mappings_)
            table->forEachServerRef(visit);
        sync_.forEachServerRef(visit);
    });

    // Telemetry track (stays 0 when the run has no tracer).
    if (auto *t = sim_.tracer()) {
        track_ = t->newTrack(
            "server-" + std::to_string(machine_.endpoint()));
    }
}

BeeHiveServer::~BeeHiveServer()
{
    for (Local *inv : active_)
        delete inv;
}

void
BeeHiveServer::handleLocal(vm::MethodId root, std::vector<Value> args,
                           DoneCb done, bool suppress_offload,
                           uint64_t request_key)
{
    // Suppressed-offload executions are internal dispatches (the
    // local leg of a shadowed request, or an offload that fell back
    // to local execution): conceptually they run on the thread that
    // is already processing the outer request, so they bypass the
    // pool -- queueing them behind outer requests that are waiting
    // for exactly these dispatches would deadlock the pool.
    telemetry::Context tctx = telemetry::currentContext(sim_.tracer());
    if (!suppress_offload && active_.size() >= kServerMaxActive) {
        // Thread pool exhausted: queue (bounded memory; queueing
        // latency is what overload looks like to clients).
        ++stats_.queued;
        telemetry::SpanId queue_span = telemetry::kNoSpan;
        if (auto *t = sim_.tracer()) {
            queue_span = t->begin("server.queue",
                                  telemetry::Phase::Queue, track_,
                                  tctx.span, tctx.request);
        }
        queue_.push_back(QueuedRequest{root, std::move(args),
                                       std::move(done),
                                       suppress_offload, request_key,
                                       tctx, queue_span});
        return;
    }
    launch(root, std::move(args), std::move(done), suppress_offload,
           request_key, tctx);
}

void
BeeHiveServer::launch(vm::MethodId root, std::vector<Value> args,
                      DoneCb done, bool suppress_offload,
                      uint64_t request_key, telemetry::Context tctx)
{
    auto *inv = new Local(*this, root, std::move(args),
                                    std::move(done), suppress_offload,
                                    request_key, tctx);
    active_.insert(inv);
    inv->begin();
}

void
BeeHiveServer::drainQueue()
{
    while (!queue_.empty() && active_.size() < kServerMaxActive) {
        QueuedRequest req = std::move(queue_.front());
        queue_.pop_front();
        if (auto *t = sim_.tracer())
            t->end(req.queue_span);
        launch(req.root, std::move(req.args), std::move(req.done),
               req.suppress_offload, req.request_key, req.tctx);
    }
}

uint16_t
BeeHiveServer::registerFunction(vm::VmContext *fn_ctx,
                                net::EndpointId node)
{
    uint16_t id = next_fn_endpoint_++;
    mappings_[id] = std::make_unique<MappingTable>();
    fn_nodes_[id] = node;
    sync_.registerFunction(id, fn_ctx, mappings_[id].get());
    return id;
}

MappingTable &
BeeHiveServer::mappingFor(uint16_t fn_endpoint)
{
    auto it = mappings_.find(fn_endpoint);
    bh_assert(it != mappings_.end(), "unknown function endpoint %u",
              fn_endpoint);
    return *it->second;
}

net::EndpointId
BeeHiveServer::functionNode(uint16_t fn_endpoint) const
{
    auto it = fn_nodes_.find(fn_endpoint);
    bh_assert(it != fn_nodes_.end(), "unknown function endpoint %u",
              fn_endpoint);
    return it->second;
}

void
BeeHiveServer::dropFunction(uint16_t fn_endpoint)
{
    sync_.unregisterFunction(fn_endpoint);
    mappings_.erase(fn_endpoint);
    fn_nodes_.erase(fn_endpoint);
}

sim::SimTime
BeeHiveServer::runGc()
{
    return collector_->collect().pause;
}

sim::SimTime
BeeHiveServer::dbRoundTrip(const db::Request &req,
                           const db::Response &resp)
{
    return net_.roundTrip(endpoint(), db_endpoint_, req.wireSize(),
                          resp.wireSize()) +
           proxy_.processingTime() + proxy_.dbServiceTime(req);
}

} // namespace beehive::core
