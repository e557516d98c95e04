/**
 * @file
 * The invocation engine: one request's run of the interpreter on one
 * endpoint, the server or a function instance.
 *
 * A handler runs the same HiveVM bytecode wherever it runs; only the
 * endpoint differs (PAPER.md Sections 3-4). So one engine runs each
 * slice, charges it to a CPU and serves the suspension that ended it
 * in the one switch over vm::Suspend::Kind. It owns the paths both
 * endpoints share: DB calls (idempotency keys, the reset retry and
 * its backoff, the absorbed-reset penalty, materialisation with one
 * collect-and-retry), monitor and volatile syncs, GC pauses, and the
 * sub-spans of the execution span.
 *
 * The endpoint is the CRTP parameter, so the server's path has no
 * virtual call and no allocation per slice. It supplies only what
 * differs: cpu(); guard(next), which wraps every continuation (the
 * server returns it as is, a function checks a weak reference);
 * routeDb(idem), which issues db_call_ into db_resp_ and returns its
 * latency and span name; countDbResets(resp); syncLatency(r,
 * monitor), the latency of a sync grant; collect(); finish(result);
 * and the suspensions only one endpoint raises (classFault,
 * objectFault, nativeFallback, offloadCall; the defaults panic).
 */

#ifndef BEEHIVE_CORE_INVOCATION_H
#define BEEHIVE_CORE_INVOCATION_H

#include <any>
#include <cstdint>
#include <utility>

#include "core/external.h"
#include "core/server.h"
#include "core/sync.h"
#include "sim/small_fn.h"
#include "support/logging.h"
#include "telemetry/telemetry.h"
#include "vm/interpreter.h"

namespace beehive::core {

/** Where an endpoint sent a DB call: its latency and span name. */
struct DbRoute
{
    sim::SimTime latency;
    const char *span;
};

template <typename Endpoint>
class Invocation
{
  public:
    /** Continuations hold the invocation's address. */
    Invocation(const Invocation &) = delete;
    Invocation &operator=(const Invocation &) = delete;

    /** GC root access for the endpoint's collector. */
    vm::Interpreter &interp() { return interp_; }

  protected:
    /**
     * @param server The server (the sync coordinator and the proxy).
     * @param ctx The endpoint's VM.
     * @param endpoint Sync endpoint id (0 = the server).
     * @param track Telemetry track of the endpoint.
     * @param tctx Causal position of the request.
     * @param request_key Exactly-once identity (0 = unkeyed).
     * @param write_seq First write sequence number.
     * @param shadow A shadow run (its writes need no key).
     */
    Invocation(BeeHiveServer &server, vm::VmContext &ctx,
               uint16_t endpoint, uint32_t track,
               telemetry::Context tctx, uint64_t request_key,
               uint64_t write_seq, bool shadow)
        : server_(server), ctx_(ctx), interp_(ctx), endpoint_(endpoint),
          shadow_(shadow), track_(track), request_key_(request_key),
          write_seq_(write_seq), tctx_(tctx)
    {
    }

    Endpoint &self() { return static_cast<Endpoint &>(*this); }
    telemetry::Tracer *tracer() { return server_.sim().tracer(); }

    /** The monitor holder token of this run. */
    const void *holder() const { return this; }

    /** Open the execution span, under the request's position. */
    void
    openExec(const char *name)
    {
        if (telemetry::Tracer *t = tracer()) {
            exec_span_ = t->begin(name, telemetry::Phase::Exec, track_,
                                  tctx_.span, tctx_.request);
        }
    }

    /** Open a sub-span of the execution span. */
    telemetry::SpanId
    span(const char *name, telemetry::Phase phase)
    {
        telemetry::Tracer *t = tracer();
        if (!t)
            return telemetry::kNoSpan;
        return t->begin(name, phase, track_, exec_span_, tctx_.request);
    }

    void
    endSpan(telemetry::SpanId id)
    {
        if (telemetry::Tracer *t = tracer())
            t->end(id);
    }

    /**
     * Run @p next after @p delay, under the endpoint's guard. Every
     * continuation fits SmallFn's inline buffer together with the
     * guard: state that does not fit waits on the invocation (as
     * suspend_, db_call_ and db_resp_ do).
     */
    template <typename Next>
    void
    after(sim::SimTime delay, Next next)
    {
        auto guarded = self().guard(std::move(next));
        static_assert(sizeof(guarded) <= sim::SmallFn::kInlineBytes);
        server_.sim().after(delay, std::move(guarded));
    }

    /** Run one slice and charge it to the endpoint's CPU. */
    void
    pump()
    {
        suspend_ = interp_.run();
        double cost = interp_.consumeCost();
        if (cost > 0.0) {
            // The suspension waits in suspend_, so the continuation
            // fits SmallFn's inline buffer (no allocation per job).
            auto resume = self().guard([this] { dispatch(suspend_); });
            static_assert(sizeof(resume) <= sim::SmallFn::kInlineBytes);
            self().cpu().submit(cost, std::move(resume));
        } else {
            dispatch(suspend_);
        }
    }

    /**
     * Round trip from the server to the previous owner function,
     * paid when a grant pulled its state (Figure 6).
     */
    sim::SimTime
    ownerRtt(const SyncManager::SyncResult &r)
    {
        if (!r.remote || r.prev_owner == 0)
            return {};
        return server_.network().roundTrip(
            server_.endpoint(), server_.functionNode(r.prev_owner), 64,
            r.bytes_transferred + 64);
    }

    /** @name Suspensions only one endpoint raises */
    /// @{
    void classFault(vm::KlassId) { impossible(); }
    void objectFault(vm::Ref) { impossible(); }
    void nativeFallback() { impossible(); }
    void offloadCall(vm::Suspend &) { impossible(); }
    /// @}

    BeeHiveServer &server_;
    vm::VmContext &ctx_;
    vm::Interpreter interp_;
    /** Where the interpreter last stopped, until dispatch() acts. */
    vm::Suspend suspend_;
    /** The database call in flight and its response, until the
     * round trip's continuation consumes them. */
    DbCallPayload db_call_;
    db::Response db_resp_;
    const uint16_t endpoint_;
    const bool shadow_;
    const uint32_t track_;
    /** Exactly-once identity of this request (0 = unkeyed). */
    const uint64_t request_key_;
    /** Deterministic write counter for idempotency keys. */
    uint64_t write_seq_;
    const telemetry::Context tctx_;
    telemetry::SpanId exec_span_ = telemetry::kNoSpan;

  private:
    [[noreturn]] void
    impossible()
    {
        panic("suspension kind %d is impossible on endpoint %u",
              static_cast<int>(suspend_.kind), endpoint_);
    }

    /** Act on @p s (suspend_). Payloads are moved out of it: the
     * next pump() overwrites it anyway. */
    void
    dispatch(vm::Suspend &s)
    {
        switch (s.kind) {
          case vm::Suspend::Kind::Done:
            self().finish(s.result);
            return;

          case vm::Suspend::Kind::Quantum:
            pump();
            return;

          case vm::Suspend::Kind::External: {
            db_call_ = std::any_cast<DbCallPayload>(std::move(s.external));
            // Writes of a re-executable request carry a deterministic
            // idempotency key: (request key, write sequence). A
            // retried execution regenerates the same keys in the same
            // order, so the proxy's exactly-once guard suppresses
            // every write an earlier attempt already applied. Shadow
            // writes land in an overlay and need no key.
            uint64_t idem = 0;
            bool is_write = db_call_.request.kind == db::OpKind::Put ||
                            db_call_.request.kind == db::OpKind::Delete;
            if (is_write && !shadow_ && request_key_ != 0)
                idem = (request_key_ << 16) | (write_seq_++ & 0xffff);
            issueDb(idem, /*attempt=*/0);
            return;
          }

          case vm::Suspend::Kind::MonitorAcquire: {
            // The wait span covers queueing on the monitor plus the
            // grant's latency; it closes when the interpreter resumes.
            vm::Ref obj = s.monitor_obj;
            telemetry::SpanId sp = span("sync.wait", telemetry::Phase::Sync);
            server_.sync().acquireMonitor(
                endpoint_, holder(), obj,
                self().guard(
                    [this, obj, sp](const SyncManager::SyncResult &r) {
                        sim::SimTime latency =
                            self().syncLatency(r, /*monitor=*/true);
                        interp_.grantMonitor(obj);
                        after(latency, [this, sp] {
                            endSpan(sp);
                            pump();
                        });
                    }));
            return;
          }

          case vm::Suspend::Kind::MonitorRelease:
            server_.sync().releaseMonitor(endpoint_, holder(),
                                          s.monitor_obj);
            interp_.grantRelease();
            pump();
            return;

          case vm::Suspend::Kind::VolatileSync: {
            // Volatile acquire/release: pull the last releaser's
            // state (no mutual exclusion involved).
            vm::Ref obj = s.monitor_obj;
            sim::SimTime latency = self().syncLatency(
                server_.sync().acquire(endpoint_, obj), /*monitor=*/false);
            telemetry::SpanId sp =
                span("sync.volatile", telemetry::Phase::Sync);
            interp_.grantVolatile(obj);
            after(latency, [this, sp] {
                endSpan(sp);
                pump();
            });
            return;
          }

          case vm::Suspend::Kind::HeapFull: {
            telemetry::SpanId sp = span("gc.pause", telemetry::Phase::Gc);
            after(self().collect(), [this, sp] {
                endSpan(sp);
                pump();
            });
            return;
          }

          case vm::Suspend::Kind::ClassFault:
            self().classFault(s.klass);
            return;

          case vm::Suspend::Kind::ObjectFault:
            self().objectFault(s.remote_ref);
            return;

          case vm::Suspend::Kind::NativeFallback:
            self().nativeFallback();
            return;

          case vm::Suspend::Kind::OffloadCall:
            self().offloadCall(s);
            return;
        }
    }

    /** Issue db_call_ (attempt @p attempt) and resume the
     * interpreter with its materialised response. */
    void
    issueDb(uint64_t idem, uint32_t attempt)
    {
        DbRoute route = self().routeDb(idem);
        telemetry::SpanId sp = span(route.span, telemetry::Phase::Db);
        proxy::ConnectionProxy &proxy = server_.proxy();
        self().countDbResets(db_resp_);
        // Resets the proxy absorbed (transparent read re-issue)
        // cost one reconnect each.
        if (db_resp_.resets > 0) {
            route.latency += proxy.reconnectPenalty() *
                             static_cast<double>(db_resp_.resets);
        }
        if (db_resp_.reset) {
            // The connection dropped before the operation executed:
            // reconnect and re-issue with capped exponential backoff.
            // The idempotency key (already drawn) keeps a write that
            // somehow did land from applying twice.
            after(route.latency + proxy.reconnectDelay(attempt),
                  [this, idem, attempt, sp] {
                      endSpan(sp);
                      issueDb(idem, attempt + 1);
                  });
            return;
        }
        after(route.latency, [this, sp] {
            endSpan(sp);
            DbCallPayload call = std::move(db_call_);
            db::Response resp = std::move(db_resp_);
            auto v = tryMaterializeDbResponse(ctx_, call.request, resp);
            if (!v) {
                self().collect();
                v = tryMaterializeDbResponse(ctx_, call.request, resp);
            }
            bh_assert(v.has_value(), "heap exhausted materializing db rows");
            interp_.resumeExternal(*v);
            pump();
        });
    }
};

} // namespace beehive::core

#endif // BEEHIVE_CORE_INVOCATION_H
