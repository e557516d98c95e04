/**
 * @file
 * FaaS platform simulator: cold/warm boots, instance cache, billing.
 *
 * Models the two deployments of the paper (Section 5.1): OpenWhisk
 * on m4.large EC2 workers inside the server's VPC, and AWS Lambda
 * with 1-2 GB functions in a separate network zone with higher
 * latency to EC2 (Section 5.2 measures ~2x the overhead on Lambda
 * and attributes it to that latency).
 *
 * Each function instance handles one request at a time (Section
 * 5.1). Finished instances return to a warm pool; re-acquiring a
 * cached instance is a *warm boot* costing only milliseconds, while
 * a fresh instance pays the cold-boot path: container/VM launch +
 * JVM deployment + network setup, ~1 s in Section 5.6's breakdown.
 */

#ifndef BEEHIVE_CLOUD_FAAS_H
#define BEEHIVE_CLOUD_FAAS_H

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cloud/boot.h"
#include "cloud/instance.h"
#include "net/network.h"
#include "sim/simulation.h"
#include "telemetry/telemetry.h"

namespace beehive::chaos {
class ChaosEngine;
}

namespace beehive::cloud {

/** Deployment-specific knobs of a FaaS platform. */
struct FaasProfile
{
    std::string name;
    InstanceType instance_type;
    std::string zone;
    /** Container/VM launch + runtime deployment on a cold path. */
    sim::SimTime cold_boot_mean = sim::SimTime::msec(950);
    sim::SimTime cold_boot_jitter = sim::SimTime::msec(120);
    /** Reusing a cached instance. */
    sim::SimTime warm_boot = sim::SimTime::msec(45);
    /** How long an idle instance stays cached. */
    sim::SimTime keep_alive = sim::SimTime::sec(600);
    /** $ per GB-second of function runtime. */
    double price_per_gb_second = 0.0000166667;
    /** $ per million invocations. */
    double price_per_minvoke = 0.20;

    /**
     * Base latency of a *restore boot*: launching a fresh instance
     * from a recorded snapshot image instead of the full cold path.
     * The image transfer adds image_bytes / network bandwidth.
     */
    sim::SimTime restore_boot_base = sim::SimTime::msec(220);
};

/** The OpenWhisk deployment profile (in-VPC m4.large workers). */
FaasProfile openWhiskProfile();

/** The AWS Lambda profile (1 GB functions, higher RTT to EC2). */
FaasProfile lambdaProfile(double memory_gb = 1.0);

/** One function instance plus its cache metadata. */
struct FunctionInstance
{
    std::unique_ptr<Instance> machine;
    bool in_use = false;
    /** How the most recent acquisition brought this instance up. */
    BootKind last_boot = BootKind::None;
    /** Generation counter: bumped on every release so stale
     * keep-alive timers recognize themselves. */
    uint64_t idle_epoch = 0;
    sim::SimTime idle_since;
    /** Opaque per-instance state owned by the BeeHive runtime
     * (the function-side VM); survives across warm invocations. */
    std::shared_ptr<void> runtime_state;
    /** Telemetry track (exporter "thread") of this instance; 0 when
     * telemetry is off. */
    uint32_t track = 0;
};

/** Why an acquire failed (fault injection; see chaos/chaos.h). */
enum class BootFailure : uint8_t
{
    CrashMidBoot,    //!< cold boot crashed before becoming ready
    CrashMidRestore, //!< restore boot crashed mid-restore
    Throttled,       //!< platform rejected the acquire (capacity)
};

/** A FaaS platform with an instance cache. */
class FaasPlatform
{
  public:
    using AcquireCallback = std::function<void(FunctionInstance &)>;
    /** Invoked instead of AcquireCallback when injection fails the
     * boot. Callers that pass nullptr (the default) opt out of boot
     * fault injection entirely -- their acquires never fail. */
    using FailCallback = std::function<void(BootFailure)>;

    FaasPlatform(sim::Simulation &sim, net::Network &net,
                 FaasProfile profile);

    const FaasProfile &profile() const { return profile_; }

    /** Attach the fault-injection engine (nullptr detaches). */
    void setChaos(chaos::ChaosEngine *chaos) { chaos_ = chaos; }

    /**
     * Acquire an instance for one invocation. Prefers a cached warm
     * instance; otherwise launches a cold one. The callback fires
     * after the boot delay with the instance marked in_use. With
     * chaos armed and @p fail non-null, the acquire may instead be
     * throttled (fail fires immediately) or crash mid-boot (the
     * boot delay elapses, the instance is destroyed, fail fires).
     */
    void acquire(AcquireCallback cb, FailCallback fail = nullptr);

    /**
     * Acquire a fresh instance through the *restore boot* path: the
     * platform fetches a recorded snapshot image of @p image_bytes
     * and boots from it, at profile().restore_boot_base plus the
     * image transfer time -- no cold-boot jitter draw. The caller
     * pre-installs the image's working set before dispatching.
     * @p fail as in acquire().
     */
    void acquireRestore(uint64_t image_bytes, AcquireCallback cb,
                        FailCallback fail = nullptr);

    /**
     * Synchronously grab a cached warm instance, bypassing the
     * platform invocation path. BeeHive keeps its function
     * instances connected to the server, so steady-state dispatch
     * is a message on that connection rather than a platform
     * invoke; the caller models the dispatch latency itself.
     *
     * @return The instance (marked in_use), or nullptr when the
     *         warm pool is empty.
     */
    FunctionInstance *tryAcquireWarm();

    /**
     * Pre-warm @p n instances without running anything on them
     * (provisioned-concurrency style; used by warm-boot
     * experiments).
     */
    void prewarm(std::size_t n, std::function<void()> done);

    /** Return an instance to the warm pool. */
    void release(FunctionInstance &inst);

    /** Destroy an instance (failure injection). */
    void destroy(FunctionInstance &inst);

    /** @name Introspection */
    /// @{
    std::size_t totalInstances() const { return instances_.size(); }
    std::size_t warmCount() const;
    std::size_t inUseCount() const;
    uint64_t coldBoots() const { return cold_boots_; }
    uint64_t warmBoots() const { return warm_boots_; }
    uint64_t restoreBoots() const { return restore_boots_; }
    /** Cache entries expired by the keep-alive sweep. */
    uint64_t expired() const { return expired_; }

    /** All instances ever launched (breakdown inspection). */
    const std::vector<std::unique_ptr<FunctionInstance>> &
    instances() const
    {
        return instances_;
    }
    /// @}

    /**
     * Accrued FaaS cost at @p now: GB-seconds of busy time plus
     * per-invocation fees.
     */
    double accruedCost(sim::SimTime now) const;

  private:
    FunctionInstance *findWarm();
    FunctionInstance &launch();

    /**
     * After @p boot, end @p span and hand the fresh (cold or
     * restore) instance to @p cb -- or, when @p crash, destroy it
     * and report the crash to @p fail. Each branch's continuation
     * carries one callback, so it fits SmallFn's inline buffer.
     */
    void finishBoot(sim::SimTime boot, FunctionInstance &fresh,
                    telemetry::SpanId span, bool crash,
                    AcquireCallback cb, FailCallback fail);

    /** Drop @p inst from the cache (keep-alive expiry). */
    void expire(FunctionInstance &inst);

    sim::Simulation &sim_;
    net::Network &net_;
    FaasProfile profile_;
    std::vector<std::unique_ptr<FunctionInstance>> instances_;
    uint64_t cold_boots_ = 0;
    uint64_t warm_boots_ = 0;
    uint64_t restore_boots_ = 0;
    uint64_t expired_ = 0;
    double busy_gb_seconds_ = 0.0;
    std::map<const FunctionInstance *, sim::SimTime> busy_start_;
    Rng rng_;
    chaos::ChaosEngine *chaos_ = nullptr;
};

} // namespace beehive::cloud

#endif // BEEHIVE_CLOUD_FAAS_H
