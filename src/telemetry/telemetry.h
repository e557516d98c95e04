/**
 * @file
 * Causal span tracing over simulated time, plus the metrics export
 * map a run's counts are harvested into.
 *
 * A Tracer is owned by one Testbed (never shared across trials), so
 * the `harness/parallel.h` trial driver stays deterministic: every
 * trial records into its own slab and serial vs `--threads N` runs
 * export identical traces. All recording reads the owning
 * Simulation's clock, so instrumented components only need a tracer
 * pointer, not a clock.
 *
 * Spans are kept in a slab-backed ring buffer: span ids are a
 * monotonic sequence and span @c i lives at slot `(i-1) % capacity`.
 * When the run outlives the slab, the oldest spans are overwritten
 * and counted in `spansDropped()` -- recording never allocates after
 * construction and never perturbs the simulation.
 *
 * The ambient Context mechanism threads causality through the
 * synchronous call chain (client -> sink -> server -> offload ->
 * platform) without changing any signatures: a caller sets the
 * current (request, span) around a downstream call via
 * ScopedContext; asynchronous continuations capture their Context
 * explicitly.
 */

#ifndef BEEHIVE_TELEMETRY_TELEMETRY_H
#define BEEHIVE_TELEMETRY_TELEMETRY_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/sim_time.h"

namespace beehive::sim {
class Simulation;
}

namespace beehive::telemetry {

/**
 * Critical-path phase a span's *self time* is attributed to.
 * Keep phaseName() in sync.
 */
enum class Phase : uint8_t
{
    Request, //!< client-observed request envelope
    Queue,   //!< server request-thread pool wait
    Exec,    //!< interpreter execution (server or function CPU)
    Offload, //!< offload coordination + dispatch/transfer wire time
    Boot,    //!< instance provisioning / cold / warm / restore boot
    Fetch,   //!< code/data fallback fetches
    Native,  //!< native-state fallback round trips
    Sync,    //!< monitor acquire waits + volatile sync
    Db,      //!< DB wire round trips (incl. connection fallback)
    Gc,      //!< stop-the-world collector pauses
    Net,     //!< result return / closure transfer wire time
    Other,
};

constexpr std::size_t kPhaseCount =
    static_cast<std::size_t>(Phase::Other) + 1;

const char *phaseName(Phase p);

using SpanId = uint64_t;
constexpr SpanId kNoSpan = 0;

/** One recorded span. @c name must be a string literal. */
struct Span
{
    SpanId id = kNoSpan;
    SpanId parent = kNoSpan;
    uint64_t request = 0; //!< 0 = background work (prewarm, sweeps)
    const char *name = "";
    Phase phase = Phase::Other;
    uint32_t track = 0; //!< synthetic exporter thread, see Tracer
    sim::SimTime start;
    sim::SimTime end;
    bool open = false;

    sim::SimTime duration() const { return end - start; }
};

/**
 * Name -> value export of a run's counts, written only by
 * Testbed::harvestMetrics(): each event is counted by one typed
 * stats field of its module, telemetry on or off. std::map keys
 * give deterministic export order.
 */
class MetricsRegistry
{
  public:
    void set(const std::string &name, uint64_t v)
    {
        counters_[name] = v;
    }

    /** Value of a counter, 0 when never set. */
    uint64_t counter(const std::string &name) const;

    const std::map<std::string, uint64_t> &counters() const
    {
        return counters_;
    }

  private:
    std::map<std::string, uint64_t> counters_;
};

/** Ambient causal position: the request and span downstream work
 * should parent under. */
struct Context
{
    uint64_t request = 0;
    SpanId span = kNoSpan;
};

/** Per-run span recorder + metrics export map. */
class Tracer
{
  public:
    /**
     * @param sim Owning simulation (clock source).
     * @param capacity Ring-buffer slots; must be >= 1.
     */
    explicit Tracer(sim::Simulation &sim,
                    std::size_t capacity = 1u << 18);

    /** Allocate a fresh request id (1-based, monotonic). */
    uint64_t newRequest() { return next_request_++; }

    /**
     * Open a span starting now.
     *
     * @param name Static string naming the span kind.
     * @param track Synthetic exporter thread (see newTrack()).
     * @param parent Enclosing span or kNoSpan for a root.
     * @param request Request this span belongs to (0 = background).
     */
    SpanId begin(const char *name, Phase phase, uint32_t track,
                 SpanId parent = kNoSpan, uint64_t request = 0);

    /** Open a span under the ambient Context. */
    SpanId beginUnder(const char *name, Phase phase, uint32_t track)
    {
        return begin(name, phase, track, current_.span,
                     current_.request);
    }

    /** Close a span at the current simulated time. No-op if the
     * slot was already recycled by ring wrap-around. */
    void end(SpanId id);

    Context current() const { return current_; }
    void setCurrent(Context c) { current_ = c; }

    /** Register a synthetic exporter thread; returns its track id.
     * Track 0 ("clients") is pre-registered. */
    uint32_t newTrack(std::string name);

    uint32_t clientsTrack() const { return 0; }

    const std::vector<std::string> &tracks() const
    {
        return track_names_;
    }

    MetricsRegistry &metrics() { return metrics_; }
    const MetricsRegistry &metrics() const { return metrics_; }

    /** Surviving spans in id (= start) order. */
    std::vector<Span> spans() const;

    uint64_t spansRecorded() const { return next_span_ - 1; }
    uint64_t spansDropped() const { return dropped_; }

    sim::Simulation &sim() { return sim_; }

  private:
    Span &slot(SpanId id)
    {
        return slab_[(id - 1) % slab_.size()];
    }

    sim::Simulation &sim_;
    std::vector<Span> slab_;
    SpanId next_span_ = 1;
    uint64_t next_request_ = 1;
    uint64_t dropped_ = 0;
    Context current_;
    std::vector<std::string> track_names_;
    MetricsRegistry metrics_;
};

/** The ambient context of @p t; none without a tracer. */
inline Context
currentContext(const Tracer *t)
{
    return t ? t->current() : Context{};
}

/**
 * RAII ambient-context switch. Null-tracer safe so call sites can
 * pass the (possibly null) tracer straight through.
 */
class ScopedContext
{
  public:
    ScopedContext(Tracer *t, Context c) : t_(t)
    {
        if (t_) {
            saved_ = t_->current();
            t_->setCurrent(c);
        }
    }
    ~ScopedContext()
    {
        if (t_)
            t_->setCurrent(saved_);
    }
    ScopedContext(const ScopedContext &) = delete;
    ScopedContext &operator=(const ScopedContext &) = delete;

  private:
    Tracer *t_;
    Context saved_;
};

/**
 * RAII span over a synchronous section: opens under the ambient
 * context, makes itself ambient, closes + restores on destruction.
 */
class ScopedSpan
{
  public:
    ScopedSpan() = default;
    ScopedSpan(Tracer *t, const char *name, Phase phase,
               uint32_t track)
        : t_(t)
    {
        if (t_) {
            saved_ = t_->current();
            id_ = t_->beginUnder(name, phase, track);
            t_->setCurrent({saved_.request, id_});
        }
    }
    ~ScopedSpan()
    {
        if (t_) {
            t_->end(id_);
            t_->setCurrent(saved_);
        }
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    SpanId id() const { return id_; }

  private:
    Tracer *t_ = nullptr;
    Context saved_;
    SpanId id_ = kNoSpan;
};

} // namespace beehive::telemetry

#endif // BEEHIVE_TELEMETRY_TELEMETRY_H
