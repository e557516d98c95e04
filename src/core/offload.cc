#include "core/offload.h"

#include <algorithm>
#include <mutex>
#include <set>
#include <string>
#include <unordered_set>

#include "chaos/chaos.h"
#include "support/logging.h"
#include "vm/reachability_analysis.h"

namespace beehive::core {

using vm::Value;

namespace {

/** Ceiling of the exponential retry backoff. */
constexpr sim::SimTime kRetryBackoffMax = sim::SimTime::sec(2);

/** Fractional deterministic jitter applied to each backoff delay
 * (derived via mix64, no RNG state consumed). */
constexpr double kRetryJitter = 0.25;

/** Sliding window of flight outcomes the degradation policy
 * evaluates. */
constexpr std::size_t kDegradeWindow = 16;

/** Error rate within the window that halves the offload ratio. */
constexpr double kDegradeErrorThreshold = 0.5;

/**
 * inform() @p line unless this process already printed it. Every
 * testbed of an app builds the same program, so its analysis lines
 * are printed once, not once per testbed; runTrials builds testbeds
 * on several threads, hence the lock.
 */
void
informOnce(const std::string &line)
{
    static std::mutex mu;
    static std::unordered_set<std::string> printed;
    {
        std::lock_guard<std::mutex> lock(mu);
        if (!printed.insert(line).second)
            return;
    }
    inform("%s", line.c_str());
}

/** Floor of the degradation factor (never degrade below this
 * fraction of the configured ratio). */
constexpr double kDegradeFloor = 0.05;

} // namespace

OffloadManager::OffloadManager(BeeHiveServer &server,
                               cloud::FaasPlatform &platform)
    : server_(server), platform_(platform),
      rng_(server.sim().rng().fork())
{
    // Sample args and in-flight args hold server-heap references
    // that must survive server GCs while offloads are pending.
    server_.collector().addValueRoots([this](const auto &visit) {
        for (auto &[root, state] : roots_) {
            for (Value &v : state.sample_args)
                visit(v);
        }
        for (auto &[id, flight] : flights_) {
            for (Value &v : flight.args)
                visit(v);
        }
    });

    // Hook the Semi-FaaS split into the server interpreter: the
    // policy draws the offload decision per handler call, and the
    // dispatch hook routes the suspended call here.
    server_.context().setOffloadPolicy([this](vm::MethodId id) {
        return ratio_ > 0.0 && isEnabled(id) &&
               rng_.chance(effectiveRatio());
    });
    server_.setOffloadDispatch(
        [this](vm::MethodId root, std::vector<Value> args,
               DoneCb done) {
            dispatchOffloadCall(root, std::move(args),
                                std::move(done));
        });
}

void
OffloadManager::dispatchOffloadCall(vm::MethodId root,
                                    std::vector<Value> args,
                                    DoneCb done)
{
    if (active_offloads_ >= max_offloads_) {
        // Out of FaaS capacity: serve the handler locally (nested
        // execution, offloading suppressed).
        ++stats_.local;
        server_.handleLocal(root, std::move(args), std::move(done),
                            /*suppress_offload=*/true);
        return;
    }
    offload(root, std::move(args), std::move(done));
}

void
OffloadManager::setOffloadRatio(double ratio)
{
    bh_assert(ratio >= 0.0 && ratio <= 1.0, "ratio out of range");
    ratio_ = ratio;
}

void
OffloadManager::enableRoot(vm::MethodId root,
                           std::vector<Value> sample_args)
{
    const vm::Program &program = server_.program();
    const vm::OffloadAnalysis &analysis = server_.analysis();
    vm::RootReport report = analysis.classifyRoot(root);
    informOnce("offload-analysis: " + toString(report, program));
    if (report.klass == vm::OffloadClass::NeedsFallback)
        ++stats_.roots_needs_fallback;
    else if (report.klass == vm::OffloadClass::LocalOnly)
        ++stats_.roots_local_only;

    RootState &state = roots_[root];
    state.klass = report.klass;
    state.enabled = true;
    state.sample_args = std::move(sample_args);
    // Calls to the root now ask the offload policy.
    server_.context().markOffloadCandidate(root);

    if (server_.config().static_manifests) {
        if (snapshot::SnapshotStore *snaps = server_.snapshots()) {
            // Static working-set inference: synthesize a prefetch
            // manifest from the reachability closure and the
            // footprint resolved against the live server heap, so
            // this endpoint's *first* boot already takes the
            // restore path instead of eating the fault storm.
            vm::ReachabilityAnalysis reach(program,
                                           analysis.analysis());
            vm::ReachReport rr = reach.analyzeRoot(root);
            std::vector<vm::Ref> objects =
                reach.resolveFootprint(rr, server_.context());
            std::vector<vm::KlassId> klasses = rr.klasses;
            std::set<vm::KlassId> klass_set(klasses.begin(),
                                            klasses.end());
            auto add_klass = [&](vm::KlassId k) {
                if (k != vm::kNoKlass && klass_set.insert(k).second)
                    klasses.push_back(k);
            };
            // NewBytes allocates the ambient byte klass of the VM
            // configuration; it never appears as a bytecode
            // operand, so the report only flags it.
            if (rr.needs_bytes_klass)
                add_klass(server_.context().config().bytes_klass);
            // The object-fault path also loads each fetched
            // object's header klass.
            for (vm::Ref r : objects)
                add_klass(server_.heap().header(r).klass);
            snaps->synthesizeManifest(
                root, klasses, objects,
                server_.collector().totals().collections);
            inform("manifest-synthesis: %s: %zu klass(es), %zu "
                   "object(s), %u escape hatch(es), %u cone "
                   "expansion(s)",
                   program.qualifiedName(root).c_str(),
                   klasses.size(), objects.size(),
                   rr.escape_hatches, rr.cone_expansions);
        }
    }
}

vm::OffloadClass
OffloadManager::classification(vm::MethodId root) const
{
    auto it = roots_.find(root);
    bh_assert(it != roots_.end(), "classification of unknown root");
    return it->second.klass;
}

bool
OffloadManager::isEnabled(vm::MethodId root) const
{
    auto it = roots_.find(root);
    return it != roots_.end() && it->second.enabled;
}

const Closure &
OffloadManager::closureFor(vm::MethodId root)
{
    RootState &state = roots_[root];
    bh_assert(state.enabled, "closureFor on disabled root");
    if (!state.closure_built) {
        ClosureBuilder builder(server_.context(), server_.config(),
                               rng_.fork());
        state.closure =
            builder.build(root, server_.profiler().profile(root),
                          state.sample_args);
        state.closure_built = true;
    }
    return state.closure;
}

void
OffloadManager::handleRequest(vm::MethodId root,
                              std::vector<Value> args, DoneCb done)
{
    bool offloadable = isEnabled(root) && ratio_ > 0.0 &&
                       active_offloads_ < max_offloads_ &&
                       rng_.chance(effectiveRatio());
    if (!offloadable) {
        ++stats_.local;
        server_.handleLocal(root, std::move(args), std::move(done));
        return;
    }
    offload(root, std::move(args), std::move(done));
}

BeeHiveFunction &
OffloadManager::functionOf(cloud::FunctionInstance &inst)
{
    if (!inst.runtime_state) {
        inst.runtime_state = std::make_shared<BeeHiveFunction>(
            server_, platform_, inst, fn_stats_);
    }
    return *std::static_pointer_cast<BeeHiveFunction>(
        inst.runtime_state);
}

void
OffloadManager::shadowLocalLeg(InFlight &flight, vm::MethodId root)
{
    ++stats_.local;
    telemetry::Tracer *t = server_.sim().tracer();
    DoneCb user_done = std::move(flight.done);
    if (t && flight.span != telemetry::kNoSpan) {
        // The user-side flight span closes when the local leg serves
        // the user; the continuing shadow records under a fresh
        // request root below (it outlives the user request, and a
        // sibling overlapping the local leg would break the span
        // tree's nesting invariant).
        telemetry::SpanId user_span = flight.span;
        user_done = [t, user_span,
                     inner = std::move(user_done)](Value v) {
            t->end(user_span);
            inner(v);
        };
    }
    {
        telemetry::ScopedContext sc(
            t, {flight.trace_request, flight.span});
        server_.handleLocal(root, flight.args, std::move(user_done),
                            /*suppress_offload=*/true);
    }
    flight.done = [](Value) {};
    flight.shadow = true;
    ++stats_.shadows;
    if (t) {
        flight.trace_request = t->newRequest();
        flight.span = t->begin("shadow.flight",
                               telemetry::Phase::Offload,
                               server_.track(), telemetry::kNoSpan,
                               flight.trace_request);
    }
}

void
OffloadManager::offload(vm::MethodId root, std::vector<Value> args,
                        DoneCb done)
{
    uint64_t id = next_flight_++;
    InFlight &flight = flights_[id];
    flight.root = root;
    flight.args = std::move(args);
    flight.done = std::move(done);
    ++active_offloads_;
    ++stats_.flights;
    telemetry::Tracer *t = server_.sim().tracer();
    if (t) {
        telemetry::Context c = t->current();
        flight.trace_request = c.request;
        flight.span =
            t->begin("offload.flight", telemetry::Phase::Offload,
                     server_.track(), c.span, c.request);
    }
    armDeadline(id);

    // Warm instances stay connected to the server: dispatching to
    // one is a message over that connection, not a platform invoke.
    if (cloud::FunctionInstance *warm = platform_.tryAcquireWarm()) {
        flight.instance = warm;
        BeeHiveFunction &fn = functionOf(*warm);
        sim::SimTime dispatch = server_.network().oneWay(
            server_.endpoint(), fn.node(), 512);
        uint32_t era = flight.attempts;
        server_.sim().after(dispatch, [this, id, warm, era] {
            auto it = flights_.find(id);
            if (it != flights_.end() && it->second.attempts == era)
                dispatchOn(*warm, id);
        });
        return;
    }

    // Cold path. With shadow execution the user's request is served
    // locally RIGHT NOW ("the real request is executed on the
    // server side and directly returned to users once complete");
    // the cold boot, closure install, and warmup storm all happen
    // on the shadow duplicate, off the user's critical path.
    if (server_.config().shadow_execution)
        shadowLocalLeg(flight, root);

    uint32_t era = flight.attempts;
    auto booted = [this, id, era](cloud::FunctionInstance &inst) {
        auto it = flights_.find(id);
        if (it == flights_.end() || it->second.attempts != era) {
            platform_.release(inst);
            return;
        }
        it->second.instance = &inst;
        dispatchOn(inst, id);
    };
    auto boot_failed = [this, id, era](cloud::BootFailure) {
        onBootFailure(id, era);
    };

    // Restore path: a recorded snapshot image of this endpoint lets
    // the platform boot the instance from the image instead of the
    // full cold path; the recorded working set rides along, so the
    // shadow phase runs without its fault storm. A stale image only
    // shrinks the prefetched set -- dropped entries fault normally.
    // Boot spans opened inside the platform parent under the flight
    // (real flights) or the fresh shadow root (shadow flights).
    telemetry::ScopedContext sc(t,
                                {flight.trace_request, flight.span});
    snapshot::SnapshotStore *snaps = server_.snapshots();
    if (snaps && snaps->hasImage(root)) {
        flight.plan = snaps->planRestore(
            root, server_.collector().totals().collections);
        if (flight.plan.corrupted) {
            // The stored image failed checksum verification (the
            // store already dropped it): fall back to a full cold
            // boot; the endpoint records afresh.
            ++stats_.corrupt_restores;
            flight.plan = snapshot::RestorePlan{};
            platform_.acquire(std::move(booted),
                              std::move(boot_failed));
            return;
        }
        flight.restore = true;
        ++stats_.restores;
        platform_.acquireRestore(flight.plan.image_bytes,
                                 std::move(booted),
                                 std::move(boot_failed));
        return;
    }
    platform_.acquire(std::move(booted), std::move(boot_failed));
}

void
OffloadManager::dispatchOn(cloud::FunctionInstance &inst,
                           uint64_t flight_id)
{
    InFlight &flight = flights_[flight_id];
    vm::MethodId root = flight.root;
    BeeHiveFunction &fn = functionOf(inst);
    telemetry::Tracer *t = server_.sim().tracer();

    if (fn.warmedFor(root) && !flight.shadow) {
        // Warmed instance: a real offloaded execution.
        ++stats_.offloaded;
        telemetry::ScopedContext sc(
            t, {flight.trace_request, flight.span});
        maybeScheduleInvokeCrash(flight_id);
        fn.invoke(root, flight.args, /*shadow=*/false,
                  [this, flight_id](Value result,
                                    const RequestTrace &trace) {
                      finishFlight(flight_id, result, trace);
                  },
                  /*request_key=*/flight_id);
        return;
    }

    // Unwarmed (or shadow-designated) instance: a platform-cached
    // instance may have served a different root and still need this
    // root's closure.
    sim::SimTime transfer;
    bool installed = false;
    if (!fn.warmedFor(root)) {
        installed = true;
        const Closure &closure = closureFor(root);
        InstallResult install = fn.install(closure);
        ++stats_.closure_installs;
        transfer = server_.network().oneWay(
            server_.endpoint(), fn.node(), install.bytes);
        // Closure computation (~133 ms) overlaps the cold boot that
        // already elapsed during acquire(); only the transfer
        // remains on this path.

        if (flight.restore) {
            // Pre-install the recorded working set. Its transfer
            // already happened inside the restore boot (the image
            // download), so no extra latency is charged here.
            uint64_t klasses = 0;
            uint64_t objects = 0;
            for (vm::KlassId k : flight.plan.klasses) {
                if (!fn.context().isLoaded(k)) {
                    fn.context().loadKlass(k);
                    ++klasses;
                }
            }
            const BeeHiveConfig &cfg = server_.config();
            for (vm::Ref r : flight.plan.objects) {
                auto [local, bytes] = fetchObject(
                    r, server_.context(), fn.context(),
                    server_.mappingFor(fn.endpointId()),
                    server_.packageables(),
                    cfg.packageable_enabled);
                (void)bytes;
                vm::KlassId k = fn.heap().header(local).klass;
                if (!fn.context().isLoaded(k)) {
                    fn.context().loadKlass(k);
                    ++klasses;
                }
                ++objects;
            }
            fn.notePrefetch(klasses, objects,
                            flight.plan.stale_objects);
            fn_stats_.prefetched_klasses += klasses;
            fn_stats_.prefetched_objects += objects;
            fn_stats_.stale_prefetches += flight.plan.stale_objects;
        }
    }

    if (!flight.shadow && server_.config().shadow_execution) {
        // A cached-but-unwarmed instance received a real request:
        // serve the user locally and warm the instance with a
        // shadow, exactly like the cold path.
        shadowLocalLeg(flight, root);
    }
    bool shadow = flight.shadow;
    if (!shadow)
        ++stats_.offloaded; // naive first offload (ablation path)

    // The install span is opened after a possible shadow conversion
    // (everything here shares one sim instant, so its start time is
    // unaffected) so it nests under the flight's *final* root rather
    // than overlapping the user-side local leg.
    telemetry::SpanId install_span = telemetry::kNoSpan;
    if (t && installed) {
        install_span = t->begin(
            "closure.install", telemetry::Phase::Net, server_.track(),
            flight.span, flight.trace_request);
    }

    uint32_t era = flight.attempts;
    server_.sim().after(transfer, [this, flight_id, &inst, root,
                                   shadow, install_span, era] {
        auto it = flights_.find(flight_id);
        if (it == flights_.end() || it->second.attempts != era)
            return;
        telemetry::Tracer *t = server_.sim().tracer();
        if (t)
            t->end(install_span);
        BeeHiveFunction &fn = functionOf(inst);
        telemetry::ScopedContext sc(
            t, {it->second.trace_request, it->second.span});
        maybeScheduleInvokeCrash(flight_id);
        fn.invoke(root, it->second.args, shadow,
                  [this, flight_id](Value result,
                                    const RequestTrace &trace) {
                      finishFlight(flight_id, result, trace);
                  },
                  /*request_key=*/flight_id);
    });
}

void
OffloadManager::finishFlight(uint64_t flight_id, Value result,
                             const RequestTrace &trace)
{
    auto it = flights_.find(flight_id);
    bh_assert(it != flights_.end(), "unknown flight");
    cancelDeadline(it->second);
    InFlight flight = std::move(it->second);
    flights_.erase(it);
    --active_offloads_;
    traces_.emplace_back(flight.root, trace);
    ++stats_.completed;
    if (telemetry::Tracer *t = server_.sim().tracer())
        t->end(flight.span);
    if (flight.instance) {
        strikes_.erase(flight.instance);
        platform_.release(*flight.instance);
    }
    noteOutcome(true);
    flight.done(result);
}

bool
OffloadManager::injectFailure()
{
    for (auto &[id, flight] : flights_) {
        if (!flight.instance || !flight.instance->runtime_state)
            continue;
        if (!functionOf(*flight.instance).busy())
            continue;
        killFlight(id);
        return true;
    }
    return false;
}

bool
OffloadManager::snapshotAvailable()
{
    for (auto &[id, flight] : flights_) {
        if (!flight.instance || !flight.instance->runtime_state)
            continue;
        BeeHiveFunction &fn = functionOf(*flight.instance);
        if (fn.busy() && fn.hasSnapshot() &&
            fn.snapshotRequestKey() == id)
            return true;
    }
    return false;
}

void
OffloadManager::setChaos(chaos::ChaosEngine *chaos)
{
    chaos_ = chaos;
    if (chaos_)
        chaos_->setKillHandler([this] { injectFailure(); });
}

void
OffloadManager::killFlight(uint64_t flight_id)
{
    auto it = flights_.find(flight_id);
    bh_assert(it != flights_.end(), "killFlight on unknown flight");
    InFlight &flight = it->second;
    bh_assert(flight.instance && flight.instance->runtime_state,
              "killFlight without a serving instance");
    BeeHiveFunction &fn = functionOf(*flight.instance);
    // Capture recovery state before tearing the instance down. Only
    // a snapshot captured by THIS flight's own invocation may be
    // resumed: the stored snapshot outlives invocations, and one
    // left behind by an earlier request on the same instance would
    // resume the wrong execution (dropping this request's remaining
    // work, including its writes).
    flight.had_snapshot = server_.config().failure_recovery &&
                          fn.hasSnapshot() &&
                          fn.snapshotRequestKey() == flight_id;
    if (flight.had_snapshot) {
        flight.snapshot = fn.lastSnapshot();
        flight.snapshot_seq = fn.snapshotWriteSeq();
    }
    fn.kill();
    strikes_.erase(flight.instance);
    platform_.destroy(*flight.instance);
    flight.instance = nullptr;
    ++stats_.kills;
    failFlight(flight_id);
}

void
OffloadManager::failFlight(uint64_t flight_id)
{
    auto it = flights_.find(flight_id);
    if (it == flights_.end())
        return;
    InFlight &flight = it->second;
    cancelDeadline(flight);
    if (flight.instance) {
        // The attempt is still formally in progress (deadline
        // expiry): abort the invocation without condemning the
        // instance, but refresh the recovery snapshot first.
        if (flight.instance->runtime_state) {
            BeeHiveFunction &fn = functionOf(*flight.instance);
            if (server_.config().failure_recovery &&
                fn.hasSnapshot() &&
                fn.snapshotRequestKey() == flight_id) {
                flight.had_snapshot = true;
                flight.snapshot = fn.lastSnapshot();
                flight.snapshot_seq = fn.snapshotWriteSeq();
            }
            fn.cancelInvocation();
        }
        releaseFailedInstance(flight);
        flight.instance = nullptr;
    }
    ++flight.attempts;
    noteOutcome(false);

    uint32_t max_retries = server_.config().offload_max_retries;
    if (max_retries != 0 && flight.attempts > max_retries) {
        localFallback(flight_id);
        return;
    }

    ++stats_.retries;
    sim::SimTime delay = backoffDelay(flight_id, flight.attempts);
    if (delay == sim::SimTime()) {
        // No backoff configured: recover synchronously (the legacy
        // injectFailure -> recover ordering).
        retryAttempt(flight_id);
        return;
    }
    telemetry::SpanId retry_span = telemetry::kNoSpan;
    if (telemetry::Tracer *t = server_.sim().tracer()) {
        retry_span = t->begin("offload.retry",
                              telemetry::Phase::Offload,
                              server_.track(), flight.span,
                              flight.trace_request);
    }
    uint32_t era = flight.attempts;
    server_.sim().after(delay, [this, flight_id, era, retry_span] {
        if (telemetry::Tracer *t = server_.sim().tracer())
            t->end(retry_span);
        auto it = flights_.find(flight_id);
        if (it == flights_.end() || it->second.attempts != era)
            return;
        retryAttempt(flight_id);
    });
}

void
OffloadManager::retryAttempt(uint64_t flight_id)
{
    auto it = flights_.find(flight_id);
    if (it == flights_.end())
        return;
    InFlight &flight = it->second;
    uint32_t era = flight.attempts;
    armDeadline(flight_id);
    telemetry::Tracer *t = server_.sim().tracer();
    // Recovery boot parents under the flight span.
    telemetry::ScopedContext sc(t,
                                {flight.trace_request, flight.span});
    platform_.acquire(
        [this, flight_id, era](cloud::FunctionInstance &inst) {
            auto it = flights_.find(flight_id);
            if (it == flights_.end() ||
                it->second.attempts != era) {
                platform_.release(inst);
                return;
            }
            InFlight &flight = it->second;
            flight.instance = &inst;
            BeeHiveFunction &fn = functionOf(inst);
            vm::MethodId root = flight.root;
            const Closure &closure = closureFor(root);
            InstallResult install = fn.install(closure);
            sim::SimTime transfer = server_.network().oneWay(
                server_.endpoint(), fn.node(), install.bytes);
            server_.sim().after(transfer, [this, flight_id, &inst,
                                           root, era] {
                auto it = flights_.find(flight_id);
                if (it == flights_.end() ||
                    it->second.attempts != era)
                    return;
                InFlight &flight = it->second;
                BeeHiveFunction &fn = functionOf(inst);
                telemetry::ScopedContext sc(
                    server_.sim().tracer(),
                    {flight.trace_request, flight.span});
                auto done = [this, flight_id](
                                Value result,
                                const RequestTrace &trace) {
                    finishFlight(flight_id, result, trace);
                };
                maybeScheduleInvokeCrash(flight_id);
                if (flight.had_snapshot) {
                    // Resume from the last synchronization point;
                    // the write sequence continues from the
                    // snapshot so idempotency keys line up.
                    fn.resume(root, flight.snapshot, flight.shadow,
                              done, /*request_key=*/flight_id,
                              flight.snapshot_seq);
                } else {
                    // Full re-execution of the invocation; the
                    // exactly-once guard suppresses writes the
                    // failed attempt already applied.
                    fn.invoke(root, flight.args, flight.shadow,
                              done, /*request_key=*/flight_id);
                }
            });
        },
        [this, flight_id, era](cloud::BootFailure) {
            onBootFailure(flight_id, era);
        });
}

void
OffloadManager::localFallback(uint64_t flight_id)
{
    auto it = flights_.find(flight_id);
    if (it == flights_.end())
        return;
    InFlight flight = std::move(it->second);
    flights_.erase(it);
    --active_offloads_;
    telemetry::Tracer *t = server_.sim().tracer();
    if (flight.shadow) {
        // The user was served by the local leg long ago; a shadow
        // that exhausted its retry budget is simply abandoned.
        ++stats_.shadows_abandoned;
        if (t)
            t->end(flight.span);
        return;
    }
    // Graceful degradation of the individual request: serve it
    // locally (offloading suppressed) so it is never dropped. The
    // exactly-once keys suppress any writes a failed remote attempt
    // already applied.
    ++stats_.local_fallbacks;
    ++stats_.local;
    DoneCb user_done = std::move(flight.done);
    if (t && flight.span != telemetry::kNoSpan) {
        telemetry::SpanId span = flight.span;
        user_done = [t, span, inner = std::move(user_done)](Value v) {
            t->end(span);
            inner(v);
        };
    }
    telemetry::ScopedContext sc(t,
                                {flight.trace_request, flight.span});
    server_.handleLocal(flight.root, std::move(flight.args),
                        std::move(user_done),
                        /*suppress_offload=*/true,
                        /*request_key=*/flight_id);
}

void
OffloadManager::onBootFailure(uint64_t flight_id, uint32_t era)
{
    auto it = flights_.find(flight_id);
    if (it == flights_.end() || it->second.attempts != era)
        return;
    ++stats_.boot_failures;
    failFlight(flight_id);
}

void
OffloadManager::armDeadline(uint64_t flight_id)
{
    const BeeHiveConfig &cfg = server_.config();
    if (cfg.offload_deadline == sim::SimTime())
        return;
    auto it = flights_.find(flight_id);
    bh_assert(it != flights_.end(), "armDeadline on unknown flight");
    InFlight &flight = it->second;
    uint32_t era = flight.attempts;
    flight.deadline_event = server_.sim().after(
        cfg.offload_deadline, [this, flight_id, era] {
            auto it = flights_.find(flight_id);
            if (it == flights_.end() || it->second.attempts != era)
                return;
            it->second.deadline_armed = false;
            ++stats_.deadline_expirations;
            failFlight(flight_id);
        });
    flight.deadline_armed = true;
}

void
OffloadManager::cancelDeadline(InFlight &flight)
{
    if (!flight.deadline_armed)
        return;
    server_.sim().cancel(flight.deadline_event);
    flight.deadline_armed = false;
}

sim::SimTime
OffloadManager::backoffDelay(uint64_t flight_id,
                             uint32_t attempt) const
{
    sim::SimTime delay = server_.config().retry_backoff_base;
    if (delay == sim::SimTime())
        return delay;
    for (uint32_t i = 1; i < attempt && delay < kRetryBackoffMax; ++i)
        delay = delay * 2.0;
    if (kRetryBackoffMax < delay)
        delay = kRetryBackoffMax;
    // Deterministic jitter: a mix64-derived fraction of (flight,
    // attempt) decorrelates retry storms without consuming any
    // generator state.
    double frac =
        static_cast<double>(mix64(flight_id, attempt) >> 11) *
        (1.0 / 9007199254740992.0);
    return delay * (1.0 + kRetryJitter * frac);
}

void
OffloadManager::releaseFailedInstance(InFlight &flight)
{
    cloud::FunctionInstance *inst = flight.instance;
    uint32_t threshold = server_.config().breaker_threshold;
    if (threshold != 0 && ++strikes_[inst] >= threshold) {
        // Struck out: eject the instance from the pool entirely
        // instead of recycling a likely-unhealthy VM.
        strikes_.erase(inst);
        ++stats_.breaker_ejections;
        platform_.destroy(*inst);
        return;
    }
    platform_.release(*inst);
}

void
OffloadManager::noteOutcome(bool ok)
{
    if (!server_.config().graceful_degradation)
        return;
    outcome_window_.push_back(ok);
    while (outcome_window_.size() > kDegradeWindow)
        outcome_window_.pop_front();
    if (outcome_window_.size() < kDegradeWindow)
        return;
    std::size_t errors = 0;
    for (bool b : outcome_window_) {
        if (!b)
            ++errors;
    }
    double rate = static_cast<double>(errors) /
                  static_cast<double>(outcome_window_.size());
    if (rate >= kDegradeErrorThreshold) {
        degrade_factor_ =
            std::max(kDegradeFloor, degrade_factor_ * 0.5);
        ++stats_.degradations;
        outcome_window_.clear();
    } else if (errors == 0 && degrade_factor_ < 1.0) {
        degrade_factor_ = std::min(1.0, degrade_factor_ * 2.0);
        ++stats_.degrade_recoveries;
        outcome_window_.clear();
    }
}

void
OffloadManager::maybeScheduleInvokeCrash(uint64_t flight_id)
{
    if (!chaos_ || !chaos_->enabled())
        return;
    if (!chaos_->crashInvocation())
        return;
    auto it = flights_.find(flight_id);
    if (it == flights_.end())
        return;
    uint32_t era = it->second.attempts;
    server_.sim().after(
        chaos_->invocationCrashDelay(), [this, flight_id, era] {
            auto it = flights_.find(flight_id);
            if (it == flights_.end() || it->second.attempts != era)
                return;
            InFlight &flight = it->second;
            if (!flight.instance || !flight.instance->runtime_state)
                return;
            if (!functionOf(*flight.instance).busy())
                return;
            killFlight(flight_id);
        });
}

} // namespace beehive::core
