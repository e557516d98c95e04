#include "cloud/faas.h"

#include <algorithm>

#include "chaos/chaos.h"
#include "support/logging.h"
#include "telemetry/telemetry.h"

namespace beehive::cloud {

FaasProfile
openWhiskProfile()
{
    FaasProfile p;
    p.name = "OpenWhisk";
    p.instance_type = m4Large();
    p.zone = "vpc"; // workers are EC2 instances in the same VPC
    p.cold_boot_mean = sim::SimTime::msec(980);
    p.cold_boot_jitter = sim::SimTime::msec(150);
    p.warm_boot = sim::SimTime::msec(35);
    // Self-hosted: billed like the EC2 instances it runs on; the
    // cost analysis (Section 5.4) assumes each instance is priced
    // as an EC2 on-demand one, handled via gb-second equivalent.
    p.price_per_gb_second = m4Large().price_per_hour / 3600.0 /
                            m4Large().memory_gb;
    p.price_per_minvoke = 0.0;
    return p;
}

FaasProfile
lambdaProfile(double memory_gb)
{
    FaasProfile p;
    p.name = "Lambda";
    p.instance_type = memory_gb >= 2.0 ? lambda2G() : lambda1G();
    p.zone = "lambda";
    p.cold_boot_mean = sim::SimTime::msec(900);
    p.cold_boot_jitter = sim::SimTime::msec(200);
    p.warm_boot = sim::SimTime::msec(50);
    p.price_per_gb_second = 0.0000166667;
    p.price_per_minvoke = 0.20;
    return p;
}

FaasPlatform::FaasPlatform(sim::Simulation &sim, net::Network &net,
                           FaasProfile profile)
    : sim_(sim), net_(net), profile_(std::move(profile)),
      rng_(sim.rng().fork())
{
}

FunctionInstance *
FaasPlatform::findWarm()
{
    for (auto &inst : instances_) {
        if (!inst->in_use && inst->machine) {
            // Safety net behind the scheduled sweep: expired cache
            // entries found on scan are treated as destroyed.
            if (sim_.now() - inst->idle_since > profile_.keep_alive) {
                expire(*inst);
                continue;
            }
            return inst.get();
        }
    }
    return nullptr;
}

void
FaasPlatform::expire(FunctionInstance &inst)
{
    ++expired_;
    inst.machine.reset();
    inst.runtime_state.reset();
}

FunctionInstance &
FaasPlatform::launch()
{
    auto inst = std::make_unique<FunctionInstance>();
    std::string name =
        profile_.name + "-fn-" + std::to_string(instances_.size());
    inst->machine = std::make_unique<Instance>(
        sim_, net_, profile_.instance_type, name, profile_.zone);
    if (telemetry::Tracer *t = sim_.tracer())
        inst->track = t->newTrack(std::move(name));
    instances_.push_back(std::move(inst));
    return *instances_.back();
}

void
FaasPlatform::acquire(AcquireCallback cb, FailCallback fail)
{
    // Boot faults are injected only for callers that can handle
    // them (fail != nullptr): prewarm and the warm-pool benches
    // keep their legacy always-succeeds contract.
    if (fail && chaos_ && chaos_->enabled() &&
        chaos_->throttleAcquire()) {
        fail(BootFailure::Throttled);
        return;
    }
    telemetry::Tracer *t = sim_.tracer();
    FunctionInstance *warm = findWarm();
    if (warm) {
        ++warm_boots_;
        warm->last_boot = BootKind::Warm;
        warm->in_use = true;
        busy_start_[warm] = sim_.now();
        telemetry::SpanId span = telemetry::kNoSpan;
        if (t) {
            span = t->beginUnder("boot.warm", telemetry::Phase::Boot,
                                 warm->track);
        }
        auto ready = [this, warm, span, cb = std::move(cb)] {
            if (telemetry::Tracer *t = sim_.tracer())
                t->end(span);
            cb(*warm);
        };
        sim_.after(profile_.warm_boot, std::move(ready));
        return;
    }
    ++cold_boots_;
    FunctionInstance &fresh = launch();
    fresh.last_boot = BootKind::Cold;
    fresh.in_use = true;
    busy_start_[&fresh] = sim_.now();
    double jitter = rng_.normal(
        0.0, static_cast<double>(profile_.cold_boot_jitter.ns()));
    sim::SimTime boot = profile_.cold_boot_mean +
                        sim::SimTime::nsec(static_cast<int64_t>(
                            std::max(jitter, -0.5 * static_cast<double>(
                                profile_.cold_boot_mean.ns()))));
    bool crash = fail && chaos_ && chaos_->enabled() &&
                 chaos_->crashColdBoot();
    telemetry::SpanId span = telemetry::kNoSpan;
    if (t) {
        span = t->beginUnder("boot.cold", telemetry::Phase::Boot,
                             fresh.track);
    }
    finishBoot(boot, fresh, span, crash, std::move(cb),
               std::move(fail));
}

void
FaasPlatform::acquireRestore(uint64_t image_bytes, AcquireCallback cb,
                             FailCallback fail)
{
    if (fail && chaos_ && chaos_->enabled() &&
        chaos_->throttleAcquire()) {
        fail(BootFailure::Throttled);
        return;
    }
    ++restore_boots_;
    FunctionInstance &fresh = launch();
    fresh.last_boot = BootKind::Restore;
    fresh.in_use = true;
    busy_start_[&fresh] = sim_.now();
    // Deterministic: no jitter draw. The image transfer rides the
    // zone's bandwidth, so larger working sets pay more.
    double transfer_sec =
        static_cast<double>(image_bytes) / net_.bandwidth();
    sim::SimTime boot =
        profile_.restore_boot_base +
        sim::SimTime::nsec(static_cast<int64_t>(transfer_sec * 1e9));
    bool crash = fail && chaos_ && chaos_->enabled() &&
                 chaos_->crashRestoreBoot();
    telemetry::SpanId span = telemetry::kNoSpan;
    if (telemetry::Tracer *t = sim_.tracer()) {
        span = t->beginUnder("boot.restore", telemetry::Phase::Boot,
                             fresh.track);
    }
    finishBoot(boot, fresh, span, crash, std::move(cb),
               std::move(fail));
}

void
FaasPlatform::finishBoot(sim::SimTime boot, FunctionInstance &fresh,
                         telemetry::SpanId span, bool crash,
                         AcquireCallback cb, FailCallback fail)
{
    if (crash) {
        // The boot time is spent, then the instance dies before
        // becoming ready.
        auto crashed = [this, &fresh, span, fail = std::move(fail)] {
            if (telemetry::Tracer *t = sim_.tracer())
                t->end(span);
            BootFailure why = fresh.last_boot == BootKind::Restore
                                  ? BootFailure::CrashMidRestore
                                  : BootFailure::CrashMidBoot;
            destroy(fresh);
            fail(why);
        };
        static_assert(sizeof(crashed) <= sim::SmallFn::kInlineBytes);
        sim_.after(boot, std::move(crashed));
        return;
    }
    auto ready = [this, &fresh, span, cb = std::move(cb)] {
        if (telemetry::Tracer *t = sim_.tracer())
            t->end(span);
        cb(fresh);
    };
    static_assert(sizeof(ready) <= sim::SmallFn::kInlineBytes);
    sim_.after(boot, std::move(ready));
}

FunctionInstance *
FaasPlatform::tryAcquireWarm()
{
    FunctionInstance *warm = findWarm();
    if (!warm)
        return nullptr;
    ++warm_boots_;
    warm->last_boot = BootKind::Warm;
    warm->in_use = true;
    busy_start_[warm] = sim_.now();
    return warm;
}

void
FaasPlatform::prewarm(std::size_t n, std::function<void()> done)
{
    auto remaining = std::make_shared<std::size_t>(n);
    if (n == 0) {
        done();
        return;
    }
    for (std::size_t i = 0; i < n; ++i) {
        acquire([this, remaining,
                 done](FunctionInstance &inst) mutable {
            release(inst);
            if (--*remaining == 0)
                done();
        });
    }
}

void
FaasPlatform::release(FunctionInstance &inst)
{
    bh_assert(inst.in_use, "release of idle instance");
    inst.in_use = false;
    inst.idle_since = sim_.now();
    ++inst.idle_epoch;
    auto it = busy_start_.find(&inst);
    if (it != busy_start_.end()) {
        double seconds = (sim_.now() - it->second).toSeconds();
        busy_gb_seconds_ +=
            seconds * profile_.instance_type.memory_gb;
        busy_start_.erase(it);
    }
    // Schedule the keep-alive sweep: the cache entry stops being a
    // warm candidate exactly at keep_alive rather than whenever the
    // next acquire happens to scan it.
    // A reacquire bumps idle_epoch, so a stale timer is a no-op.
    FunctionInstance *p = &inst;
    uint64_t epoch = inst.idle_epoch;
    sim_.after(profile_.keep_alive, [this, p, epoch] {
        if (p->idle_epoch == epoch && !p->in_use && p->machine)
            expire(*p);
    });
}

void
FaasPlatform::destroy(FunctionInstance &inst)
{
    if (inst.in_use)
        release(inst);
    inst.machine.reset();
    inst.runtime_state.reset();
}

std::size_t
FaasPlatform::warmCount() const
{
    std::size_t n = 0;
    for (const auto &inst : instances_) {
        if (!inst->in_use && inst->machine)
            ++n;
    }
    return n;
}

std::size_t
FaasPlatform::inUseCount() const
{
    std::size_t n = 0;
    for (const auto &inst : instances_) {
        if (inst->in_use)
            ++n;
    }
    return n;
}

double
FaasPlatform::accruedCost(sim::SimTime now) const
{
    double gb_seconds = busy_gb_seconds_;
    // Include still-running invocations.
    for (const auto &[inst, start] : busy_start_) {
        gb_seconds += (now - start).toSeconds() *
                      profile_.instance_type.memory_gb;
    }
    // Every boot (cold, warm or restore) is one billed invocation.
    uint64_t invocations = cold_boots_ + warm_boots_ + restore_boots_;
    return gb_seconds * profile_.price_per_gb_second +
           static_cast<double>(invocations) / 1e6 *
               profile_.price_per_minvoke;
}

} // namespace beehive::cloud
