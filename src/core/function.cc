#include "core/function.h"

#include <algorithm>
#include <deque>

#include "support/logging.h"

namespace beehive::core {

using vm::Ref;
using vm::Value;

namespace {

/** Per-klass network payload when fetching missing code. */
constexpr uint32_t kKlassFetchOverheadBytes = 256;

/** Server-side handling cost of one fallback request. */
constexpr sim::SimTime kFallbackService = sim::SimTime::usec(40);

} // namespace

// ---------------------------------------------------------------------
// Invocation: the per-request state machine on a function instance.
// ---------------------------------------------------------------------

class BeeHiveFunction::Invocation
    : public std::enable_shared_from_this<BeeHiveFunction::Invocation>
{
  public:
    Invocation(BeeHiveFunction &fn, vm::MethodId root, bool shadow,
               DoneCb done, uint64_t request_key,
               uint64_t start_write_seq)
        : fn_(fn), sim_(fn.server_.sim()), root_(root),
          shadow_(shadow), done_(std::move(done)),
          interp_(*fn.ctx_), request_key_(request_key),
          write_seq_(start_write_seq)
    {
        trace_.shadow = shadow;
        trace_.boot = fn.instance_.last_boot;
        trace_.prefetched_klasses = fn.pending_prefetch_.klasses;
        trace_.prefetched_objects = fn.pending_prefetch_.objects;
        trace_.stale_prefetches = fn.pending_prefetch_.stale;
        fn.pending_prefetch_ = {};
        // Causal position of this invocation (the flight span that
        // dispatched us); captured now, handlers run asynchronously.
        if (telemetry::Tracer *t = sim_.tracer())
            tctx_ = t->current();
    }

    ~Invocation()
    {
        // Dying (failure injection) or finishing must not leave
        // monitors held or wait-queue entries behind.
        fn_.server_.sync().abandonHolder(this);
        // A shadow killed or cancelled mid-run must not leak its
        // proxy overlay session (finish() clears the token).
        if (shadow_token_ != 0)
            fn_.server_.proxy().shadowAbort(shadow_token_);
    }

    vm::Interpreter &interp() { return interp_; }

    void
    start(std::vector<Value> local_args)
    {
        ++fn_.stats_.invocations;
        begin();
        interp_.start(root_, std::move(local_args));
        pump();
    }

    void
    startFromSnapshot(std::vector<vm::Frame> frames)
    {
        ++fn_.stats_.resumes;
        begin();
        interp_.restoreFrames(std::move(frames));
        pump();
    }

  private:
    telemetry::Tracer *tracer() { return sim_.tracer(); }

    /** Shared start of a fresh or resumed execution. */
    void
    begin()
    {
        started_at_ = sim_.now();
        if (telemetry::Tracer *t = tracer()) {
            exec_span_ = t->begin("fn.exec", telemetry::Phase::Exec,
                                  fn_.instance_.track, tctx_.span,
                                  tctx_.request);
        }
        if (shadow_) {
            ++fn_.stats_.shadow_invocations;
            shadow_token_ =
                fn_.server_.proxy().shadowBegin(fn_.node());
        }
    }

    /** Open a sub-span of this invocation's execution span. */
    telemetry::SpanId
    span(const char *name, telemetry::Phase phase)
    {
        telemetry::Tracer *t = tracer();
        if (!t)
            return telemetry::kNoSpan;
        return t->begin(name, phase, fn_.instance_.track, exec_span_,
                        tctx_.request);
    }

    void
    endSpan(telemetry::SpanId id)
    {
        if (telemetry::Tracer *t = tracer())
            t->end(id);
    }

    /** Collect this function's heap: counts the cycle and charges
     * its pause to the trace. */
    sim::SimTime
    collectGarbage()
    {
        gc::GcCycleStats gc = fn_.collector_->collect();
        ++fn_.stats_.gc_cycles;
        fn_.stats_.gc_bytes_copied += gc.bytes_copied;
        trace_.gc_time += gc.pause;
        return gc.pause;
    }

    /**
     * Run @p record against the snapshot store when this invocation
     * is part of a recorded cold boot: the store is enabled and the
     * instance came up through the full cold path (restore boots are
     * already fault-free for the recorded set; warm ones never
     * fault on it).
     */
    template <typename Fn>
    void
    recordFault(Fn record)
    {
        if (trace_.boot != cloud::BootKind::Cold)
            return;
        if (auto *snaps = fn_.server_.snapshots())
            record(*snaps);
    }

    /** Fallback round trip between this function and the server. */
    sim::SimTime
    serverRtt(uint64_t req_bytes, uint64_t resp_bytes)
    {
        return fn_.server_.network().roundTrip(
                   fn_.node(), fn_.server_.endpoint(), req_bytes,
                   resp_bytes) +
               kFallbackService;
    }

    void
    pump()
    {
        suspend_ = interp_.run();
        double cost = interp_.consumeCost();
        if (cost > 0.0) {
            // Weak capture: if the function is killed or destroyed
            // while the job runs, the continuation is a no-op. The
            // suspension waits in suspend_, so the continuation fits
            // SmallFn's inline buffer (no allocation per job).
            auto resume = [w = weak_from_this()] {
                if (auto self = w.lock())
                    self->dispatch(self->suspend_);
            };
            static_assert(sizeof(resume) <= sim::SmallFn::kInlineBytes);
            fn_.instance_.machine->cpu().submit(cost, std::move(resume));
        } else {
            dispatch(suspend_);
        }
    }

    /**
     * Run @p next after @p delay unless this invocation is gone by
     * then. Every continuation must fit SmallFn's inline buffer
     * together with the weak reference: state that does not fit
     * waits on the invocation (as suspend_ and db_call_ do).
     */
    template <typename Next>
    void
    after(sim::SimTime delay, Next next)
    {
        auto guarded = [w = weak_from_this(), next = std::move(next)] {
            if (auto self = w.lock())
                next();
        };
        static_assert(sizeof(guarded) <= sim::SmallFn::kInlineBytes);
        sim_.after(delay, std::move(guarded));
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

          case vm::Suspend::Kind::ClassFault:
            handleClassFault(s.klass);
            return;

          case vm::Suspend::Kind::ObjectFault:
            handleObjectFault(s.remote_ref);
            return;

          case vm::Suspend::Kind::NativeFallback:
            handleNativeFallback();
            return;

          case vm::Suspend::Kind::MonitorAcquire:
            handleMonitorAcquire(s.monitor_obj);
            return;

          case vm::Suspend::Kind::MonitorRelease:
            handleMonitorRelease(s.monitor_obj);
            return;

          case vm::Suspend::Kind::VolatileSync:
            handleVolatileSync(s.monitor_obj);
            return;

          case vm::Suspend::Kind::External:
            db_call_ = std::any_cast<DbCallPayload>(std::move(s.external));
            handleDbCall();
            return;

          case vm::Suspend::Kind::HeapFull: {
            sim::SimTime pause = collectGarbage();
            telemetry::SpanId sp =
                span("gc.pause", telemetry::Phase::Gc);
            after(pause, [this, sp] {
                endSpan(sp);
                pump();
            });
            return;
          }

          case vm::Suspend::Kind::OffloadCall:
            panic("offload policy installed on a function VM");
        }
    }

    void
    handleClassFault(vm::KlassId klass)
    {
        const vm::Program &program = fn_.server_.program();
        uint64_t bytes =
            program.klass(klass).code_bytes + kKlassFetchOverheadBytes;
        sim::SimTime latency = serverRtt(64, bytes);
        trace_.countFallback(FallbackKind::MissingCode);
        trace_.fallback_time += latency;
        trace_.fetch_time += latency;
        recordFault([&](snapshot::SnapshotStore &snaps) {
            snaps.recordClassFault(root_, klass);
        });
        telemetry::SpanId sp =
            span("fallback.code", telemetry::Phase::Fetch);
        ++fn_.stats_.code_fetches;
        after(latency, [this, klass, sp] {
            endSpan(sp);
            fn_.ctx_->loadKlass(klass);
            pump();
        });
    }

    void
    handleObjectFault(Ref remote_ref)
    {
        auto &cfg = fn_.server_.config();
        auto [local, bytes] = fetchObject(
            remote_ref, fn_.server_.context(), *fn_.ctx_,
            fn_.server_.mappingFor(fn_.endpoint_id_),
            fn_.server_.packageables(), cfg.packageable_enabled);
        sim::SimTime latency = serverRtt(64, bytes + 64);
        trace_.countFallback(FallbackKind::MissingData);
        trace_.fallback_time += latency;
        trace_.fetch_time += latency;
        ++fn_.stats_.data_fetches;
        recordFault([&](snapshot::SnapshotStore &snaps) {
            snaps.recordObjectFault(
                root_, remote_ref,
                fn_.server_.collector().totals().collections);
        });

        // The fetched object's klass may itself be missing: that is
        // a second (code) fetch.
        vm::KlassId k = fn_.heap_->header(local).klass;
        if (!fn_.ctx_->isLoaded(k)) {
            const vm::Program &program = fn_.server_.program();
            sim::SimTime extra =
                serverRtt(64, program.klass(k).code_bytes);
            trace_.countFallback(FallbackKind::MissingCode);
            trace_.fallback_time += extra;
            trace_.fetch_time += extra;
            ++fn_.stats_.code_fetches;
            latency += extra;
            fn_.ctx_->loadKlass(k);
            recordFault([&](snapshot::SnapshotStore &snaps) {
                snaps.recordClassFault(root_, k);
            });
        }
        telemetry::SpanId sp =
            span("fallback.data", telemetry::Phase::Fetch);
        after(latency, [this, sp] {
            endSpan(sp);
            pump();
        });
    }

    void
    handleNativeFallback()
    {
        // COMET-style: run the native's effect at the server. The
        // modelled cost is the round trip; the handler then runs
        // locally (its state effects are identical in HiveVM).
        sim::SimTime latency = serverRtt(128, 128);
        trace_.countFallback(FallbackKind::Native);
        trace_.fallback_time += latency;
        ++fn_.stats_.native_fallbacks;
        telemetry::SpanId sp =
            span("fallback.native", telemetry::Phase::Native);
        after(latency, [this, sp] {
            endSpan(sp);
            fn_.ctx_->forceNextNativeLocal();
            pump();
        });
    }

    void
    handleMonitorAcquire(Ref obj)
    {
        // The wait span covers queueing on the monitor plus the
        // acquire round trip; it closes when the interpreter resumes.
        sync_span_ = span("sync.wait", telemetry::Phase::Sync);
        fn_.server_.sync().acquireMonitor(
            fn_.endpoint_id_, this, obj,
            [w = weak_from_this(),
             obj](const SyncManager::SyncResult &r) {
                auto self = w.lock();
                if (!self)
                    return;
                self->monitorGranted(obj, r);
            });
    }

    void
    monitorGranted(Ref obj, const SyncManager::SyncResult &r)
    {
        // Acquire message to the server; response carries the lock
        // plus the translated dirty objects (Figure 6).
        sim::SimTime latency =
            serverRtt(64, r.bytes_transferred + 64);
        if (r.remote && r.prev_owner != 0) {
            // The server first forwards the acquire to the previous
            // owner and waits for its state.
            latency += fn_.server_.network().roundTrip(
                fn_.server_.endpoint(),
                fn_.server_.functionNode(r.prev_owner), 64,
                r.bytes_transferred + 64);
        }
        trace_.countFallback(FallbackKind::Sync);
        trace_.sync_time += latency;
        trace_.fallback_time += latency;
        trace_.synchronized_objects += r.objects_transferred;
        ++fn_.stats_.sync_fallbacks;

        if (fn_.server_.config().failure_recovery)
            captureSnapshot();

        interp_.grantMonitor(obj);
        after(latency, [this] {
            endSpan(sync_span_);
            sync_span_ = telemetry::kNoSpan;
            pump();
        });
    }

    void
    handleVolatileSync(Ref obj)
    {
        // Volatile acquire: pull the last releaser's state through
        // the server (a synchronization fallback without the
        // monitor queue).
        SyncManager::SyncResult r =
            fn_.server_.sync().acquire(fn_.endpoint_id_, obj);
        sim::SimTime latency =
            serverRtt(64, r.bytes_transferred + 64);
        if (r.remote && r.prev_owner != 0) {
            latency += fn_.server_.network().roundTrip(
                fn_.server_.endpoint(),
                fn_.server_.functionNode(r.prev_owner), 64,
                r.bytes_transferred + 64);
        }
        trace_.countFallback(FallbackKind::Sync);
        trace_.sync_time += latency;
        trace_.fallback_time += latency;
        trace_.synchronized_objects += r.objects_transferred;
        ++fn_.stats_.sync_fallbacks;
        interp_.grantVolatile(obj);
        telemetry::SpanId sp =
            span("sync.volatile", telemetry::Phase::Sync);
        after(latency, [this, sp] {
            endSpan(sp);
            pump();
        });
    }

    void
    handleMonitorRelease(Ref obj)
    {
        fn_.server_.sync().releaseMonitor(fn_.endpoint_id_, this,
                                          obj);
        interp_.grantRelease();
        pump();
    }

    void
    handleDbCall()
    {
        const DbCallPayload &payload = db_call_;
        // Writes of a re-executable request carry a deterministic
        // idempotency key: (request key, per-invocation write
        // sequence). A retried execution regenerates the same keys
        // in the same order, so the proxy's exactly-once guard
        // suppresses every write a previous attempt already applied.
        // Shadow writes land in an overlay and need no key.
        uint64_t idem = 0;
        bool is_write = payload.request.kind == db::OpKind::Put ||
                        payload.request.kind == db::OpKind::Delete;
        if (is_write && !shadow_ && request_key_ != 0)
            idem = (request_key_ << 16) | (write_seq_++ & 0xffff);
        issueDbCall(idem, /*attempt=*/0);
    }

    /** Issue db_call_ (attempt @p attempt) and resume the
     * interpreter with its materialised response. */
    void
    issueDbCall(uint64_t idem, uint32_t attempt)
    {
        auto &server = fn_.server_;
        const DbCallPayload &payload = db_call_;
        bool packed =
            payload.conn_ref != vm::kNullRef &&
            !vm::isRemote(payload.conn_ref) &&
            (fn_.heap_->header(payload.conn_ref).flags &
             vm::kFlagPacked);

        db::Response resp;
        sim::SimTime latency;
        telemetry::SpanId sp = telemetry::kNoSpan;
        if (server.config().proxy_enabled && packed) {
            // Proxy path: the packed connection ID reaches the
            // database through the shared connection; no fallback.
            uint64_t token = payload.conn_token;
            if (!fn_.attached_tokens_.count(token)) {
                bool ok = server.proxy().attach(token, fn_.node());
                bh_assert(ok, "stale offload connection id");
                fn_.attached_tokens_.insert(token);
            }
            std::optional<proxy::ShadowToken> shadow;
            if (shadow_)
                shadow = shadow_token_;
            resp = server.proxy().requestViaOffload(
                token, payload.request, shadow, idem);
            latency = server.network().roundTrip(
                          fn_.node(), server.dbEndpoint(),
                          payload.request.wireSize(),
                          resp.wireSize()) +
                      server.proxy().processingTime() +
                      server.proxy().dbServiceTime(payload.request);
            ++trace_.db_ops;
            sp = span("db.roundtrip", telemetry::Phase::Db);
        } else {
            // No proxy support: every round is a fallback through
            // the server (the behaviour BeeHive's Section 3.3
            // eliminates; kept for ablations). The server issues
            // the operation on ITS connection: resolve the original
            // socket object to recover the server-side ConnId (the
            // local copy may hold a packed offload token).
            uint64_t conn_token = payload.conn_token;
            Ref server_sock =
                server.mappingFor(fn_.endpoint_id_)
                    .toServer(payload.conn_ref);
            if (server_sock != vm::kNullRef) {
                conn_token = static_cast<uint64_t>(
                    server.heap()
                        .field(server_sock, kSocketFieldToken)
                        .asInt());
            }
            resp = server.proxy().request(
                static_cast<proxy::ConnId>(conn_token),
                payload.request, idem);
            latency = serverRtt(payload.request.wireSize(),
                                resp.wireSize()) +
                      server.dbRoundTrip(payload.request, resp);
            trace_.countFallback(FallbackKind::Connection);
            trace_.fallback_time += latency;
            ++fn_.stats_.connection_fallbacks;
            sp = span("fallback.connection", telemetry::Phase::Db);
        }

        // Resets the proxy absorbed (transparent read re-issue)
        // cost one reconnect each.
        if (resp.resets > 0) {
            trace_.db_resets += resp.resets;
            latency += server.proxy().reconnectPenalty() *
                       static_cast<double>(resp.resets);
        }

        if (resp.reset) {
            // The connection dropped before the operation executed.
            // Reconnect and re-issue with capped exponential backoff;
            // the idempotency key (already drawn) keeps a write that
            // somehow did land from applying twice.
            ++trace_.db_resets;
            ++fn_.stats_.db_resets;
            sim::SimTime delay =
                latency + server.proxy().reconnectDelay(attempt);
            after(delay, [this, idem, attempt, sp] {
                endSpan(sp);
                issueDbCall(idem, attempt + 1);
            });
            return;
        }

        // The request and response wait on the invocation, so the
        // continuation fits SmallFn's inline buffer.
        db_resp_ = std::move(resp);
        after(latency, [this, sp] {
            endSpan(sp);
            DbCallPayload call = std::move(db_call_);
            db::Response resp = std::move(db_resp_);
            auto v = tryMaterializeDbResponse(*fn_.ctx_,
                                              call.request, resp);
            if (!v) {
                collectGarbage();
                v = tryMaterializeDbResponse(*fn_.ctx_,
                                             call.request, resp);
            }
            bh_assert(v.has_value(), "function heap exhausted");
            interp_.resumeExternal(*v);
            pump();
        });
    }

    /**
     * Promote a function-local object graph to the server so a
     * snapshot may reference it (recovery keeps working even though
     * this instance dies). Mapped objects translate directly.
     */
    Value
    snapshotValue(Value v)
    {
        if (!v.isRef() || v.asRef() == vm::kNullRef)
            return v;
        Ref r = v.asRef();
        if (vm::isRemote(r))
            return v; // already a server address
        MappingTable &map =
            fn_.server_.mappingFor(fn_.endpoint_id_);
        Ref server_ref = map.toServer(r);
        if (server_ref == vm::kNullRef) {
            vm::Heap &server_heap = fn_.server_.heap();
            Ref clone = server_heap.cloneFrom(
                *fn_.heap_, r, server_heap.allocSpaceId());
            bh_assert(clone != vm::kNullRef,
                      "server heap exhausted during snapshot");
            map.add(clone, r);
            const vm::ObjHeader &hdr = server_heap.header(clone);
            if (hdr.kind != vm::ObjKind::Bytes) {
                for (uint32_t i = 0; i < hdr.count; ++i) {
                    server_heap.setFieldRaw(
                        clone, i,
                        snapshotServerField(
                            server_heap.field(clone, i)));
                }
            }
            server_ref = clone;
        }
        return Value::ofRef(vm::markRemote(server_ref));
    }

    /** Field translation inside promoted snapshot objects. */
    Value
    snapshotServerField(Value v)
    {
        if (!v.isRef() || v.asRef() == vm::kNullRef)
            return v;
        Ref r = v.asRef();
        if (vm::isRemote(r))
            return Value::ofRef(vm::stripRemote(r));
        // Function-local ref inside a promoted clone.
        Value promoted = snapshotValue(Value::ofRef(r));
        return Value::ofRef(vm::stripRemote(promoted.asRef()));
    }

    void
    captureSnapshot()
    {
        std::vector<vm::Frame> frames = interp_.snapshotFrames();
        for (vm::Frame &f : frames) {
            for (Value &v : f.locals)
                v = snapshotValue(v);
            for (Value &v : f.stack)
                v = snapshotValue(v);
        }
        fn_.snapshot_ = std::move(frames);
        fn_.snapshot_root_ = root_;
        fn_.snapshot_write_seq_ = write_seq_;
        fn_.snapshot_request_key_ = request_key_;
    }

    void
    finish(Value result)
    {
        if (shadow_) {
            fn_.server_.proxy().shadowEnd(shadow_token_);
            shadow_token_ = 0; // consumed; the destructor must not
                               // abort a completed session
        }
        Value server_result = copyResultToServer(
            result, *fn_.ctx_, fn_.server_.context(),
            fn_.server_.mappingFor(fn_.endpoint_id_));
        sim::SimTime ret_latency = fn_.server_.network().roundTrip(
            fn_.node(), fn_.server_.endpoint(), 256, 64);
        trace_.duration = sim_.now() + ret_latency - started_at_;
        fn_.stats_.instructions += interp_.stats().instructions;
        telemetry::SpanId ret_sp =
            span("fn.return", telemetry::Phase::Net);
        after(ret_latency, [this, server_result, ret_sp] {
            endSpan(ret_sp);
            endSpan(exec_span_);
            fn_.warmed_roots_.insert(root_);
            // A completed cold boot folds its recorded working set
            // into the endpoint's snapshot image.
            recordFault([&](snapshot::SnapshotStore &snaps) {
                snaps.endRecordedBoot(root_);
            });
            DoneCb done = std::move(done_);
            RequestTrace trace = trace_;
            // Drop the owning reference last: `this` stays alive
            // through the callback via the local shared_ptr.
            auto self = fn_.invocation_;
            fn_.invocation_ = nullptr;
            done(server_result, trace);
        });
    }

    BeeHiveFunction &fn_;
    sim::Simulation &sim_;
    vm::MethodId root_;
    bool shadow_;
    DoneCb done_;
    vm::Interpreter interp_;
    /** Where the interpreter last stopped, until dispatch() acts. */
    vm::Suspend suspend_;
    /** The database call in flight and its response, until the
     * round trip's continuation consumes them. */
    DbCallPayload db_call_;
    db::Response db_resp_;
    RequestTrace trace_;
    /** Exactly-once identity of this request (0 = unkeyed). */
    uint64_t request_key_ = 0;
    /** Deterministic per-invocation write counter for idem keys. */
    uint64_t write_seq_ = 0;
    proxy::ShadowToken shadow_token_ = 0;
    sim::SimTime started_at_;
    telemetry::Context tctx_;
    telemetry::SpanId exec_span_ = telemetry::kNoSpan;
    telemetry::SpanId sync_span_ = telemetry::kNoSpan;
};

// ---------------------------------------------------------------------
// BeeHiveFunction
// ---------------------------------------------------------------------

BeeHiveFunction::BeeHiveFunction(BeeHiveServer &server,
                                 cloud::FaasPlatform &platform,
                                 cloud::FunctionInstance &instance,
                                 FunctionStats &stats)
    : server_(server), platform_(platform), instance_(instance),
      stats_(stats)
{
    const BeeHiveConfig &cfg = server.config();
    heap_ = std::make_unique<vm::Heap>(server.program(),
                                       cfg.function_closure_bytes,
                                       cfg.function_alloc_bytes);

    vm::VmConfig vm_cfg = cfg.function_vm;
    vm_cfg.check_remote_refs = true;
    ctx_ = std::make_unique<vm::VmContext>(
        server.program(), server.natives(), *heap_, vm_cfg);
    endpoint_id_ = server.registerFunction(ctx_.get(), node());
    ctx_->config().endpoint = endpoint_id_;

    // Dirty tracking: closure-space stores are shareable state.
    heap_->setWriteObserver([this](Ref obj) {
        if (vm::refSpace(obj) == vm::Heap::kClosureSpaceId)
            server_.sync().markDirty(endpoint_id_, obj);
    });

    ctx_->setMonitorPolicy([this](Ref obj) {
        return server_.sync().monitorIsShared(endpoint_id_, obj);
    });

    collector_ = std::make_unique<gc::SemiSpaceCollector>(*heap_);
    collector_->addValueRoots([this](const auto &visit) {
        if (invocation_)
            invocation_->interp().forEachRoot(visit);
        ctx_->forEachStatic(visit);
    });
}

BeeHiveFunction::~BeeHiveFunction()
{
    invocation_.reset();
    server_.dropFunction(endpoint_id_);
}

net::EndpointId
BeeHiveFunction::node() const
{
    return instance_.machine->endpoint();
}

InstallResult
BeeHiveFunction::install(const Closure &closure)
{
    return installClosure(closure, server_.context(), *ctx_,
                          server_.mappingFor(endpoint_id_),
                          server_.packageables(),
                          server_.config().packageable_enabled);
}

void
BeeHiveFunction::invoke(vm::MethodId root,
                        std::vector<Value> server_args, bool shadow,
                        DoneCb done, uint64_t request_key)
{
    bh_assert(!invocation_, "function instance is single-request");
    bh_assert(!dead_, "invoke on dead function");
    std::vector<Value> local_args = copyArgsToFunction(
        server_args, server_.context(), *ctx_,
        server_.config().closure_data_depth);
    invocation_ = std::make_shared<Invocation>(
        *this, root, shadow, std::move(done), request_key,
        /*start_write_seq=*/0);
    invocation_->start(std::move(local_args));
}

void
BeeHiveFunction::resume(vm::MethodId root,
                        std::vector<vm::Frame> snapshot, bool shadow,
                        DoneCb done, uint64_t request_key,
                        uint64_t start_write_seq)
{
    bh_assert(!invocation_, "function instance is single-request");
    invocation_ = std::make_shared<Invocation>(
        *this, root, shadow, std::move(done), request_key,
        start_write_seq);
    invocation_->startFromSnapshot(std::move(snapshot));
}

void
BeeHiveFunction::kill()
{
    dead_ = true;
    invocation_.reset();
}

void
BeeHiveFunction::cancelInvocation()
{
    invocation_.reset();
}

} // namespace beehive::core
