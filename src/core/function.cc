#include "core/function.h"

#include <algorithm>
#include <deque>

#include "core/invocation.h"
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
// Offloaded: a request run on a function instance (core/invocation.h).
// ---------------------------------------------------------------------

class BeeHiveFunction::Offloaded final
    : public Invocation<BeeHiveFunction::Offloaded>,
      public std::enable_shared_from_this<BeeHiveFunction::Offloaded>
{
  public:
    Offloaded(BeeHiveFunction &fn, vm::MethodId root, bool shadow,
              DoneCb done, uint64_t request_key,
              uint64_t start_write_seq)
        // Causal position of this invocation (the flight span that
        // dispatched us); captured now, handlers run asynchronously.
        : Invocation(fn.server_, *fn.ctx_, fn.endpoint_id_,
                     fn.instance_.track,
                     telemetry::currentContext(fn.server_.sim().tracer()),
                     request_key, start_write_seq, shadow),
          fn_(fn), root_(root), done_(std::move(done))
    {
        trace_.shadow = shadow;
        trace_.boot = fn.instance_.last_boot;
        trace_.prefetched_klasses = fn.pending_prefetch_.klasses;
        trace_.prefetched_objects = fn.pending_prefetch_.objects;
        trace_.stale_prefetches = fn.pending_prefetch_.stale;
        fn.pending_prefetch_ = {};
    }

    ~Offloaded()
    {
        // Dying (failure injection) or finishing must not leave
        // monitors held or wait-queue entries behind.
        server_.sync().abandonHolder(holder());
        // A shadow killed or cancelled mid-run must not leak its
        // proxy overlay session (finish() clears the token).
        if (shadow_token_ != 0)
            server_.proxy().shadowAbort(shadow_token_);
    }

    /** Start a fresh or resumed execution; @p load gives the
     * interpreter its first frames. */
    template <typename Load>
    void
    start(Load load)
    {
        started_at_ = server_.sim().now();
        openExec("fn.exec");
        if (shadow_) {
            ++fn_.stats_.shadow_invocations;
            shadow_token_ = server_.proxy().shadowBegin(fn_.node());
        }
        load(interp_);
        pump();
    }

  private:
    friend class Invocation<Offloaded>;

    sim::ProcessorSharingCpu &
    cpu()
    {
        return fn_.instance_.machine->cpu();
    }

    /** Weak capture: if the function is killed or destroyed before
     * a continuation runs, the continuation is a no-op. */
    template <typename Next>
    auto
    guard(Next next)
    {
        return [w = weak_from_this(),
                next = std::move(next)](auto &&...args) {
            if (auto self = w.lock())
                next(std::forward<decltype(args)>(args)...);
        };
    }

    /** Collect this function's heap: counts the cycle and charges
     * its pause to the trace. */
    sim::SimTime
    collect()
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
        if (auto *snaps = server_.snapshots())
            record(*snaps);
    }

    /** Fallback round trip between this function and the server. */
    sim::SimTime
    serverRtt(uint64_t req_bytes, uint64_t resp_bytes)
    {
        return server_.network().roundTrip(fn_.node(), server_.endpoint(),
                                           req_bytes, resp_bytes) +
               kFallbackService;
    }

    void
    classFault(vm::KlassId klass)
    {
        const vm::Program &program = server_.program();
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
            ctx_.loadKlass(klass);
            pump();
        });
    }

    void
    objectFault(Ref remote_ref)
    {
        auto [local, bytes] = fetchObject(
            remote_ref, server_.context(), ctx_,
            server_.mappingFor(endpoint_), server_.packageables(),
            server_.config().packageable_enabled);
        sim::SimTime latency = serverRtt(64, bytes + 64);
        trace_.countFallback(FallbackKind::MissingData);
        trace_.fallback_time += latency;
        trace_.fetch_time += latency;
        ++fn_.stats_.data_fetches;
        recordFault([&](snapshot::SnapshotStore &snaps) {
            snaps.recordObjectFault(
                root_, remote_ref,
                server_.collector().totals().collections);
        });

        // The fetched object's klass may itself be missing: that is
        // a second (code) fetch.
        vm::KlassId k = fn_.heap_->header(local).klass;
        if (!ctx_.isLoaded(k)) {
            sim::SimTime extra =
                serverRtt(64, server_.program().klass(k).code_bytes);
            trace_.countFallback(FallbackKind::MissingCode);
            trace_.fallback_time += extra;
            trace_.fetch_time += extra;
            ++fn_.stats_.code_fetches;
            latency += extra;
            ctx_.loadKlass(k);
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
    nativeFallback()
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
            ctx_.forceNextNativeLocal();
            pump();
        });
    }

    /**
     * A sync grant travels through the server: the acquire message
     * and the response carrying the lock plus the translated dirty
     * objects, after the server pulled the previous owner's state
     * (Figure 6). A monitor grant is a synchronization point, where
     * failure recovery takes its snapshot.
     */
    sim::SimTime
    syncLatency(const SyncManager::SyncResult &r, bool monitor)
    {
        sim::SimTime latency = serverRtt(64, r.bytes_transferred + 64);
        latency += ownerRtt(r);
        trace_.countFallback(FallbackKind::Sync);
        trace_.sync_time += latency;
        trace_.fallback_time += latency;
        trace_.synchronized_objects += r.objects_transferred;
        ++fn_.stats_.sync_fallbacks;
        if (monitor && server_.config().failure_recovery)
            captureSnapshot();
        return latency;
    }

    DbRoute
    routeDb(uint64_t idem)
    {
        BeeHiveServer &server = server_;
        const DbCallPayload &payload = db_call_;
        bool packed = payload.conn_ref != vm::kNullRef &&
                      !vm::isRemote(payload.conn_ref) &&
                      (fn_.heap_->header(payload.conn_ref).flags &
                       vm::kFlagPacked);
        sim::SimTime latency;
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
            db_resp_ = server.proxy().requestViaOffload(
                token, payload.request, shadow, idem);
            latency = server.network().roundTrip(
                          fn_.node(), server.dbEndpoint(),
                          payload.request.wireSize(),
                          db_resp_.wireSize()) +
                      server.proxy().processingTime() +
                      server.proxy().dbServiceTime(payload.request);
            ++trace_.db_ops;
            return {latency, "db.roundtrip"};
        }
        // No proxy support: every round is a fallback through the
        // server (the behaviour BeeHive's Section 3.3 eliminates;
        // kept for ablations). The server issues the operation on
        // ITS connection: resolve the original socket object to
        // recover the server-side ConnId (the local copy may hold a
        // packed offload token).
        uint64_t conn_token = payload.conn_token;
        Ref server_sock =
            server.mappingFor(endpoint_).toServer(payload.conn_ref);
        if (server_sock != vm::kNullRef) {
            conn_token = static_cast<uint64_t>(
                server.heap().field(server_sock, kSocketFieldToken).asInt());
        }
        db_resp_ = server.proxy().request(
            static_cast<proxy::ConnId>(conn_token), payload.request, idem);
        latency = serverRtt(payload.request.wireSize(),
                            db_resp_.wireSize()) +
                  server.dbRoundTrip(payload.request, db_resp_);
        trace_.countFallback(FallbackKind::Connection);
        trace_.fallback_time += latency;
        ++fn_.stats_.connection_fallbacks;
        return {latency, "fallback.connection"};
    }

    void
    countDbResets(const db::Response &resp)
    {
        trace_.db_resets += resp.resets + (resp.reset ? 1 : 0);
        if (resp.reset)
            ++fn_.stats_.db_resets;
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
        MappingTable &map = server_.mappingFor(endpoint_);
        Ref server_ref = map.toServer(r);
        if (server_ref == vm::kNullRef) {
            vm::Heap &server_heap = server_.heap();
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
            server_.proxy().shadowEnd(shadow_token_);
            shadow_token_ = 0; // consumed; the destructor must not
                               // abort a completed session
        }
        Value server_result = copyResultToServer(
            result, ctx_, server_.context(),
            server_.mappingFor(endpoint_));
        sim::SimTime ret_latency = server_.network().roundTrip(
            fn_.node(), server_.endpoint(), 256, 64);
        trace_.duration = server_.sim().now() + ret_latency - started_at_;
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
    vm::MethodId root_;
    DoneCb done_;
    RequestTrace trace_;
    proxy::ShadowToken shadow_token_ = 0;
    sim::SimTime started_at_;
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
    ++stats_.invocations;
    invocation_ = std::make_shared<Offloaded>(
        *this, root, shadow, std::move(done), request_key,
        /*start_write_seq=*/0);
    invocation_->start([&](vm::Interpreter &interp) {
        interp.start(root, std::move(local_args));
    });
}

void
BeeHiveFunction::resume(vm::MethodId root,
                        std::vector<vm::Frame> snapshot, bool shadow,
                        DoneCb done, uint64_t request_key,
                        uint64_t start_write_seq)
{
    bh_assert(!invocation_, "function instance is single-request");
    ++stats_.resumes;
    invocation_ = std::make_shared<Offloaded>(
        *this, root, shadow, std::move(done), request_key,
        start_write_seq);
    invocation_->start([&](vm::Interpreter &interp) {
        interp.restoreFrames(std::move(snapshot));
    });
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
