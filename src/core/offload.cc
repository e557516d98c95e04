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

/** @p done preceded by ending @p span: a flight span that closes
 * when the local execution serving its user finishes. */
BeeHiveServer::DoneCb
endingSpan(telemetry::Tracer *t, telemetry::SpanId span,
           BeeHiveServer::DoneCb done)
{
    if (!t || span == telemetry::kNoSpan)
        return done;
    return [t, span, inner = std::move(done)](Value v) {
        t->end(span);
        inner(v);
    };
}

} // namespace

OffloadManager::OffloadManager(BeeHiveServer &server,
                               cloud::FaasPlatform &platform)
    : server_(server), platform_(platform),
      rng_(server.sim().rng().fork())
{
    // The retry policy has no "off" or "unlimited" value: a zero
    // left over from the legacy meanings (unlimited retries,
    // synchronous recovery, no breaker) is rejected rather than
    // silently reinterpreted.
    const BeeHiveConfig &cfg = server_.config();
    if (cfg.offload_max_retries < 1 || cfg.breaker_threshold < 1 ||
        cfg.retry_backoff_base <= sim::SimTime())
        fatal("offload retry policy: offload_max_retries, "
              "retry_backoff_base and breaker_threshold must be > 0");

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
    // The drawn ratio is the configured one scaled by the
    // degradation factor, and bitwise the configured one while no
    // degradation is active.
    server_.context().setOffloadPolicy([this](vm::MethodId id) {
        return ratio_ > 0.0 && isEnabled(id) &&
               rng_.chance(degrade_factor_ >= 1.0
                               ? ratio_
                               : ratio_ * degrade_factor_);
    });
    server_.setOffloadDispatch(
        [this](vm::MethodId root, std::vector<Value> args,
               DoneCb done) {
            if (active_offloads_ >= max_offloads_) {
                // Out of FaaS capacity: serve the handler locally
                // (nested execution, offloading suppressed).
                ++stats_.local;
                server_.handleLocal(root, std::move(args),
                                    std::move(done),
                                    /*suppress_offload=*/true);
                return;
            }
            offload(root, std::move(args), std::move(done));
        });
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
    {
        // The user-side flight span closes when the local leg serves
        // the user; the continuing shadow records under a fresh
        // request root below (it outlives the user request, and a
        // sibling overlapping the local leg would break the span
        // tree's nesting invariant).
        telemetry::ScopedContext sc(
            t, {flight.trace_request, flight.span});
        server_.handleLocal(root, flight.args,
                            endingSpan(t, flight.span,
                                       std::move(flight.done)),
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
    armDeadline(id, flight);
    uint32_t era = flight.attempts;

    // Warm instances stay connected to the server: dispatching to
    // one is a message over that connection, not a platform invoke.
    if (cloud::FunctionInstance *warm = platform_.tryAcquireWarm()) {
        flight.instance = warm;
        sim::SimTime dispatch = server_.network().oneWay(
            server_.endpoint(), functionOf(*warm).node(), 512);
        server_.sim().after(dispatch, [this, id, era] {
            if (InFlight *flight = live(id, era))
                dispatchOn(id, *flight);
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

    auto booted = [this, id, era](cloud::FunctionInstance &inst) {
        InFlight *flight = live(id, era);
        if (!flight) {
            platform_.release(inst);
            return;
        }
        flight->instance = &inst;
        dispatchOn(id, *flight);
    };
    auto boot_failed = [this, id, era](cloud::BootFailure) {
        if (InFlight *flight = live(id, era))
            failFlight(id, *flight, stats_.boot_failures);
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
        // An image failing checksum verification (the store already
        // dropped it) falls back to a full cold boot; the endpoint
        // records afresh.
        flight.restore = !flight.plan.corrupted;
        if (flight.restore) {
            ++stats_.restores;
        } else {
            ++stats_.corrupt_restores;
            flight.plan = snapshot::RestorePlan{};
        }
    }
    if (flight.restore) {
        platform_.acquireRestore(flight.plan.image_bytes,
                                 std::move(booted),
                                 std::move(boot_failed));
    } else {
        platform_.acquire(std::move(booted), std::move(boot_failed));
    }
}

void
OffloadManager::dispatchOn(uint64_t flight_id, InFlight &flight)
{
    vm::MethodId root = flight.root;
    BeeHiveFunction &fn = functionOf(*flight.instance);

    if (fn.warmedFor(root) && !flight.shadow) {
        // Warmed instance: a real offloaded execution.
        ++stats_.offloaded;
        launch(flight_id, flight);
        return;
    }

    // Unwarmed (or shadow-designated) instance: a platform-cached
    // instance may have served a different root and still need this
    // root's closure.
    sim::SimTime transfer;
    bool installed = !fn.warmedFor(root);
    if (installed) {
        transfer = installClosure(fn, root);
        ++stats_.closure_installs;
        // Closure computation (~133 ms) overlaps the cold boot that
        // already elapsed during acquire(); only the transfer
        // remains on this path.

        if (flight.restore) {
            // Pre-install the recorded working set. Its transfer
            // already happened inside the restore boot (the image
            // download), so no extra latency is charged here.
            uint64_t klasses = 0;
            auto load = [&](vm::KlassId k) {
                if (!fn.context().isLoaded(k)) {
                    fn.context().loadKlass(k);
                    ++klasses;
                }
            };
            for (vm::KlassId k : flight.plan.klasses)
                load(k);
            for (vm::Ref r : flight.plan.objects) {
                vm::Ref local =
                    fetchObject(r, server_.context(), fn.context(),
                                server_.mappingFor(fn.endpointId()),
                                server_.packageables(),
                                server_.config().packageable_enabled)
                        .first;
                load(fn.heap().header(local).klass);
            }
            uint64_t objects = flight.plan.objects.size();
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
    if (!flight.shadow)
        ++stats_.offloaded; // naive first offload (ablation path)

    // The install span is opened after a possible shadow conversion
    // (everything here shares one sim instant, so its start time is
    // unaffected) so it nests under the flight's *final* root rather
    // than overlapping the user-side local leg.
    telemetry::Tracer *t = server_.sim().tracer();
    telemetry::SpanId install_span = telemetry::kNoSpan;
    if (t && installed) {
        install_span = t->begin(
            "closure.install", telemetry::Phase::Net, server_.track(),
            flight.span, flight.trace_request);
    }

    uint32_t era = flight.attempts;
    server_.sim().after(transfer, [this, flight_id, install_span,
                                   era] {
        InFlight *flight = live(flight_id, era);
        if (!flight)
            return;
        if (telemetry::Tracer *t = server_.sim().tracer())
            t->end(install_span);
        launch(flight_id, *flight);
    });
}

void
OffloadManager::launch(uint64_t flight_id, InFlight &flight)
{
    BeeHiveFunction &fn = functionOf(*flight.instance);
    telemetry::ScopedContext sc(server_.sim().tracer(),
                                {flight.trace_request, flight.span});
    maybeScheduleInvokeCrash(flight_id, flight.attempts);
    auto done = [this, flight_id](Value result,
                                  const RequestTrace &trace) {
        finishFlight(flight_id, result, trace);
    };
    if (flight.had_snapshot) {
        // Resume from the last synchronization point; the write
        // sequence continues from the snapshot so idempotency keys
        // line up.
        fn.resume(flight.root, flight.snapshot, flight.shadow, done,
                  /*request_key=*/flight_id, flight.snapshot_seq);
    } else {
        // A first attempt or a full re-execution; the exactly-once
        // guard suppresses writes a failed attempt already applied.
        fn.invoke(flight.root, flight.args, flight.shadow, done,
                  /*request_key=*/flight_id);
    }
}

sim::SimTime
OffloadManager::installClosure(BeeHiveFunction &fn, vm::MethodId root)
{
    InstallResult install = fn.install(closureFor(root));
    return server_.network().oneWay(server_.endpoint(), fn.node(),
                                    install.bytes);
}

OffloadManager::InFlight *
OffloadManager::live(uint64_t flight_id, uint32_t era)
{
    auto it = flights_.find(flight_id);
    if (it == flights_.end() || it->second.attempts != era)
        return nullptr;
    return &it->second;
}

OffloadManager::InFlight
OffloadManager::retire(uint64_t flight_id)
{
    auto it = flights_.find(flight_id);
    bh_assert(it != flights_.end(), "retire of unknown flight");
    cancelDeadline(it->second);
    InFlight flight = std::move(it->second);
    flights_.erase(it);
    --active_offloads_;
    return flight;
}

void
OffloadManager::finishFlight(uint64_t flight_id, Value result,
                             const RequestTrace &trace)
{
    InFlight flight = retire(flight_id);
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

BeeHiveFunction *
OffloadManager::busyFunction(const InFlight &flight)
{
    if (!flight.instance || !flight.instance->runtime_state)
        return nullptr;
    BeeHiveFunction &fn = functionOf(*flight.instance);
    return fn.busy() ? &fn : nullptr;
}

bool
OffloadManager::injectFailure()
{
    for (auto &[id, flight] : flights_) {
        if (BeeHiveFunction *fn = busyFunction(flight)) {
            killFlight(id, flight, *fn);
            return true;
        }
    }
    return false;
}

bool
OffloadManager::snapshotAvailable()
{
    for (auto &[id, flight] : flights_) {
        BeeHiveFunction *fn = busyFunction(flight);
        if (fn && fn->hasSnapshot() && fn->snapshotRequestKey() == id)
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
OffloadManager::killFlight(uint64_t flight_id, InFlight &flight,
                           BeeHiveFunction &fn)
{
    // Capture recovery state before tearing the instance down. A
    // kill resumes only from a snapshot this attempt took; a
    // deadline expiry (failFlight) keeps an earlier one.
    flight.had_snapshot = captureSnapshot(flight_id, flight);
    fn.kill();
    strikes_.erase(flight.instance);
    platform_.destroy(*flight.instance);
    flight.instance = nullptr;
    failFlight(flight_id, flight, stats_.kills);
}

bool
OffloadManager::captureSnapshot(uint64_t flight_id, InFlight &flight)
{
    // Only a snapshot captured by THIS flight's own invocation may
    // be resumed: the stored snapshot outlives invocations, and one
    // left behind by an earlier request on the same instance would
    // resume the wrong execution (dropping this request's remaining
    // work, including its writes).
    BeeHiveFunction &fn = functionOf(*flight.instance);
    if (!server_.config().failure_recovery || !fn.hasSnapshot() ||
        fn.snapshotRequestKey() != flight_id)
        return false;
    flight.had_snapshot = true;
    flight.snapshot = fn.lastSnapshot();
    flight.snapshot_seq = fn.snapshotWriteSeq();
    return true;
}

void
OffloadManager::failFlight(uint64_t flight_id, InFlight &flight,
                           uint64_t &cause)
{
    ++cause;
    cancelDeadline(flight);
    if (flight.instance) {
        // The attempt is still formally in progress (deadline
        // expiry): abort the invocation without condemning the
        // instance, but refresh the recovery snapshot first.
        if (flight.instance->runtime_state) {
            captureSnapshot(flight_id, flight);
            functionOf(*flight.instance).cancelInvocation();
        }
        // Circuit breaker: an instance that struck out is ejected
        // from the pool entirely instead of recycling a
        // likely-unhealthy VM.
        cloud::FunctionInstance *inst = flight.instance;
        if (++strikes_[inst] >= server_.config().breaker_threshold) {
            strikes_.erase(inst);
            ++stats_.breaker_ejections;
            platform_.destroy(*inst);
        } else {
            platform_.release(*inst);
        }
        flight.instance = nullptr;
    }
    ++flight.attempts;
    noteOutcome(false);

    if (flight.attempts > server_.config().offload_max_retries) {
        localFallback(flight_id);
        return;
    }

    ++stats_.retries;
    sim::SimTime delay = backoffDelay(flight_id, flight.attempts);
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
        if (InFlight *flight = live(flight_id, era))
            retryAttempt(flight_id, *flight);
    });
}

void
OffloadManager::retryAttempt(uint64_t flight_id, InFlight &flight)
{
    uint32_t era = flight.attempts;
    armDeadline(flight_id, flight);
    // Recovery boot parents under the flight span.
    telemetry::ScopedContext sc(server_.sim().tracer(),
                                {flight.trace_request, flight.span});
    platform_.acquire(
        [this, flight_id, era](cloud::FunctionInstance &inst) {
            InFlight *flight = live(flight_id, era);
            if (!flight) {
                platform_.release(inst);
                return;
            }
            flight->instance = &inst;
            sim::SimTime transfer =
                installClosure(functionOf(inst), flight->root);
            server_.sim().after(transfer, [this, flight_id, era] {
                if (InFlight *flight = live(flight_id, era))
                    launch(flight_id, *flight);
            });
        },
        [this, flight_id, era](cloud::BootFailure) {
            if (InFlight *flight = live(flight_id, era))
                failFlight(flight_id, *flight, stats_.boot_failures);
        });
}

void
OffloadManager::localFallback(uint64_t flight_id)
{
    InFlight flight = retire(flight_id);
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
    telemetry::ScopedContext sc(t,
                                {flight.trace_request, flight.span});
    server_.handleLocal(flight.root, std::move(flight.args),
                        endingSpan(t, flight.span,
                                   std::move(flight.done)),
                        /*suppress_offload=*/true,
                        /*request_key=*/flight_id);
}

void
OffloadManager::armDeadline(uint64_t flight_id, InFlight &flight)
{
    const BeeHiveConfig &cfg = server_.config();
    if (cfg.offload_deadline == sim::SimTime())
        return;
    uint32_t era = flight.attempts;
    flight.deadline_event = server_.sim().after(
        cfg.offload_deadline, [this, flight_id, era] {
            if (InFlight *flight = live(flight_id, era)) {
                flight->deadline_event = 0;
                failFlight(flight_id, *flight,
                           stats_.deadline_expirations);
            }
        });
}

void
OffloadManager::cancelDeadline(InFlight &flight)
{
    // Cancelling event id 0 (none armed) is a no-op.
    server_.sim().cancel(flight.deadline_event);
    flight.deadline_event = 0;
}

sim::SimTime
OffloadManager::backoffDelay(uint64_t flight_id,
                             uint32_t attempt) const
{
    sim::SimTime delay = server_.config().retry_backoff_base;
    for (uint32_t i = 1; i < attempt && delay < kRetryBackoffMax; ++i)
        delay = delay * 2.0;
    delay = std::min(delay, kRetryBackoffMax);
    // Deterministic jitter: a mix64-derived fraction of (flight,
    // attempt) decorrelates retry storms without consuming any
    // generator state.
    double frac =
        static_cast<double>(mix64(flight_id, attempt) >> 11) *
        (1.0 / 9007199254740992.0);
    return delay * (1.0 + kRetryJitter * frac);
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
    auto errors = static_cast<std::size_t>(std::count(
        outcome_window_.begin(), outcome_window_.end(), false));
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
OffloadManager::maybeScheduleInvokeCrash(uint64_t flight_id,
                                         uint32_t era)
{
    if (!chaos_ || !chaos_->enabled() || !chaos_->crashInvocation())
        return;
    server_.sim().after(
        chaos_->invocationCrashDelay(), [this, flight_id, era] {
            InFlight *flight = live(flight_id, era);
            if (BeeHiveFunction *fn =
                    flight ? busyFunction(*flight) : nullptr)
                killFlight(flight_id, *flight, *fn);
        });
}

} // namespace beehive::core
