#include "core/server.h"

#include <algorithm>
#include <span>

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

Value
materializeDbResponse(vm::VmContext &ctx, const db::Request &req,
                      db::Response &resp)
{
    auto v = tryMaterializeDbResponse(ctx, req, resp);
    bh_assert(v.has_value(), "heap exhausted materializing db rows");
    return *v;
}

// ---------------------------------------------------------------------
// LocalInvocation: the per-request state machine on the server.
// ---------------------------------------------------------------------

class BeeHiveServer::LocalInvocation
{
  public:
    LocalInvocation(BeeHiveServer &server, vm::MethodId root,
                    std::vector<Value> args, DoneCb done,
                    bool suppress_offload, uint64_t request_key,
                    telemetry::Context tctx)
        : server_(server), interp_(server.context()),
          done_(std::move(done)), request_key_(request_key),
          tctx_(tctx)
    {
        interp_.setSuppressOffload(suppress_offload);
        // The interpreter profiles every candidate handler it runs,
        // whether framework plumbing calls it or it is the root.
        if (server_.profiling())
            interp_.enableCandidateProfiling(true);
        interp_.start(root, std::move(args));
    }

    /** GC root access for the server collector. */
    vm::Interpreter &interp() { return interp_; }

    void
    begin()
    {
        ++server_.stats_.local_requests;
        if (auto *t = tracer()) {
            exec_span_ =
                t->begin("server.exec", telemetry::Phase::Exec,
                         server_.track(), tctx_.span, tctx_.request);
        }
        pump();
    }

  private:
    telemetry::Tracer *tracer() { return server_.sim().tracer(); }
    void
    pump()
    {
        suspend_ = interp_.run();
        double cost = interp_.consumeCost();
        if (cost > 0.0) {
            // The suspension waits in suspend_, so the continuation
            // fits SmallFn's inline buffer (no allocation per job).
            auto resume = [this] { dispatch(suspend_); };
            static_assert(sizeof(resume) <= sim::SmallFn::kInlineBytes);
            server_.machine().cpu().submit(cost, std::move(resume));
        } else {
            dispatch(suspend_);
        }
    }

    /** Act on @p s (this invocation's suspend_). Payloads are moved
     * out of it: the next pump() overwrites it anyway. */
    void
    dispatch(vm::Suspend &s)
    {
        switch (s.kind) {
          case vm::Suspend::Kind::Done:
            finish(s.result);
            return;

          case vm::Suspend::Kind::Quantum:
            pump();
            return;

          case vm::Suspend::Kind::External: {
            db_call_ = std::any_cast<DbCallPayload>(std::move(s.external));
            // Re-executions of a failed offload key their writes so
            // the proxy can suppress duplicates (exactly-once).
            uint64_t idem = 0;
            bool is_write =
                db_call_.request.kind == db::OpKind::Put ||
                db_call_.request.kind == db::OpKind::Delete;
            if (is_write && request_key_ != 0)
                idem = (request_key_ << 16) | (write_seq_++ & 0xffff);
            issueDb(idem, /*attempt=*/0);
            return;
          }

          case vm::Suspend::Kind::MonitorAcquire: {
            vm::Ref obj = s.monitor_obj;
            telemetry::SpanId sync_span = telemetry::kNoSpan;
            if (auto *t = tracer()) {
                sync_span = t->begin("sync.wait",
                                     telemetry::Phase::Sync,
                                     server_.track(), exec_span_,
                                     tctx_.request);
            }
            server_.sync().acquireMonitor(
                0, this, obj,
                [this, obj,
                 sync_span](const SyncManager::SyncResult &r) {
                    sim::SimTime latency;
                    if (r.remote && r.prev_owner != 0) {
                        // Coordinate with the previous owner
                        // function (Figure 6).
                        net::EndpointId fn_node =
                            server_.functionNode(r.prev_owner);
                        latency = server_.network().roundTrip(
                            server_.endpoint(), fn_node, 64,
                            r.bytes_transferred + 64);
                    }
                    interp_.grantMonitor(obj);
                    server_.sim().after(latency, [this, sync_span] {
                        if (auto *t = tracer())
                            t->end(sync_span);
                        pump();
                    });
                });
            return;
          }

          case vm::Suspend::Kind::MonitorRelease: {
            server_.sync().releaseMonitor(0, this, s.monitor_obj);
            interp_.grantRelease();
            pump();
            return;
          }

          case vm::Suspend::Kind::VolatileSync: {
            // Volatile acquire/release: pull the last releaser's
            // state (no mutual exclusion involved).
            vm::Ref obj = s.monitor_obj;
            SyncManager::SyncResult r =
                server_.sync().acquire(0, obj);
            sim::SimTime latency;
            if (r.remote && r.prev_owner != 0) {
                latency = server_.network().roundTrip(
                    server_.endpoint(),
                    server_.functionNode(r.prev_owner), 64,
                    r.bytes_transferred + 64);
            }
            telemetry::SpanId sync_span = telemetry::kNoSpan;
            if (auto *t = tracer()) {
                sync_span = t->begin("sync.volatile",
                                     telemetry::Phase::Sync,
                                     server_.track(), exec_span_,
                                     tctx_.request);
            }
            interp_.grantVolatile(obj);
            server_.sim().after(latency, [this, sync_span] {
                if (auto *t = tracer())
                    t->end(sync_span);
                pump();
            });
            return;
          }

          case vm::Suspend::Kind::HeapFull: {
            telemetry::SpanId gc_span = telemetry::kNoSpan;
            if (auto *t = tracer()) {
                gc_span = t->begin("gc.pause",
                                   telemetry::Phase::Gc,
                                   server_.track(), exec_span_,
                                   tctx_.request);
            }
            sim::SimTime pause = server_.runGc();
            server_.sim().after(pause, [this, gc_span] {
                if (auto *t = tracer())
                    t->end(gc_span);
                pump();
            });
            return;
          }

          case vm::Suspend::Kind::OffloadCall: {
            bh_assert(server_.offload_dispatch_,
                      "OffloadCall without an offload manager");
            // The manager opens its flight span under this exec
            // span via the ambient context (synchronous call).
            telemetry::ScopedContext sc(
                tracer(), {tctx_.request, exec_span_});
            server_.offload_dispatch_(
                s.offload_method, std::move(s.offload_args),
                [this](Value result) {
                    interp_.resumeExternal(result);
                    pump();
                });
            return;
          }

          case vm::Suspend::Kind::ClassFault:
          case vm::Suspend::Kind::ObjectFault:
          case vm::Suspend::Kind::NativeFallback:
            panic("impossible suspend on the server (kind %d)",
                  static_cast<int>(s.kind));
        }
    }

    /** Issue db_call_ (attempt @p attempt) and resume the
     * interpreter with its materialised response. */
    void
    issueDb(uint64_t idem, uint32_t attempt)
    {
        db_resp_ = server_.proxy().request(
            static_cast<proxy::ConnId>(db_call_.conn_token),
            db_call_.request, idem);
        sim::SimTime latency =
            server_.dbRoundTrip(db_call_.request, db_resp_);
        // Resets the proxy absorbed (transparent read re-issue)
        // cost one reconnect each.
        if (db_resp_.resets > 0) {
            latency += server_.proxy().reconnectPenalty() *
                       static_cast<double>(db_resp_.resets);
        }
        telemetry::SpanId db_span = telemetry::kNoSpan;
        if (auto *t = tracer()) {
            db_span = t->begin("db.roundtrip", telemetry::Phase::Db,
                               server_.track(), exec_span_,
                               tctx_.request);
        }
        if (db_resp_.reset) {
            // The connection dropped before the operation executed:
            // reconnect and re-issue with capped exponential backoff.
            ++server_.stats_.db_resets;
            sim::SimTime delay =
                latency + server_.proxy().reconnectDelay(attempt);
            auto retry = [this, idem, attempt, db_span] {
                if (auto *t = tracer())
                    t->end(db_span);
                issueDb(idem, attempt + 1);
            };
            static_assert(sizeof(retry) <= sim::SmallFn::kInlineBytes);
            server_.sim().after(delay, std::move(retry));
            return;
        }
        // The request and response wait in db_call_ / db_resp_, so
        // the continuation fits SmallFn's inline buffer.
        auto resume = [this, db_span] {
            if (auto *t = tracer())
                t->end(db_span);
            DbCallPayload call = std::move(db_call_);
            db::Response resp = std::move(db_resp_);
            auto v = tryMaterializeDbResponse(server_.context(),
                                              call.request, resp);
            if (!v) {
                server_.runGc();
                v = tryMaterializeDbResponse(server_.context(),
                                             call.request, resp);
            }
            bh_assert(v.has_value(), "server heap exhausted");
            interp_.resumeExternal(*v);
            pump();
        };
        static_assert(sizeof(resume) <= sim::SmallFn::kInlineBytes);
        server_.sim().after(latency, std::move(resume));
    }

    void
    finish(Value result)
    {
        // Safety net: a request must not exit holding monitors.
        server_.sync().abandonHolder(this);
        const vm::InterpStats &is = interp_.stats();
        ServerStats &stats = server_.stats_;
        stats.instructions += is.instructions;
        stats.calls += is.calls;
        stats.native_calls += is.native_calls;
        if (auto *t = tracer())
            t->end(exec_span_);
        DoneCb done = std::move(done_);
        BeeHiveServer &server = server_;
        server.active_.erase(this);
        delete this;
        done(result);
        server.drainQueue();
    }

    BeeHiveServer &server_;
    vm::Interpreter interp_;
    /** Where the interpreter last stopped, until dispatch() acts. */
    vm::Suspend suspend_;
    /** The database call in flight and its response, until the
     * round trip's continuation consumes them. */
    DbCallPayload db_call_;
    db::Response db_resp_;
    DoneCb done_;
    /** Exactly-once identity of this request (0 = unkeyed). */
    uint64_t request_key_ = 0;
    /** Deterministic write counter for idempotency keys. */
    uint64_t write_seq_ = 0;
    telemetry::Context tctx_;
    telemetry::SpanId exec_span_ = telemetry::kNoSpan;
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
        for (LocalInvocation *inv : active_)
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
    for (LocalInvocation *inv : active_)
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
    telemetry::Context tctx;
    if (auto *t = sim_.tracer())
        tctx = t->current();
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
    auto *inv = new LocalInvocation(*this, root, std::move(args),
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
