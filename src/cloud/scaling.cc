#include "cloud/scaling.h"

#include <algorithm>
#include "support/logging.h"
#include "telemetry/telemetry.h"

namespace beehive::cloud {

const char *
scalingKindName(ScalingKind kind)
{
    switch (kind) {
      case ScalingKind::Reserved: return "Reserved";
      case ScalingKind::OnDemand: return "On-demand";
      case ScalingKind::Burstable: return "Burstable";
      case ScalingKind::Fargate: return "Fargate";
      case ScalingKind::Faas: return "Lambda (FaaS)";
    }
    return "?";
}

const ScalingTraits &
scalingTraits(ScalingKind kind)
{
    using sim::SimTime;
    // Preparation times follow Table 1 (measured with a prepared
    // system image with OpenJDK 8 installed); the service-launch
    // column models the extra time Figure 7 attributes to booting
    // the JVM + framework: on-demand instances "suffer from a
    // slower startup and require more time to launch applications".
    static const ScalingTraits reserved{
        ScalingKind::Reserved, "1 year", "years",
        SimTime(), SimTime(), "GB", false};
    static const ScalingTraits on_demand{
        ScalingKind::OnDemand, "1 minute", "seconds",
        SimTime::sec(40), SimTime::sec(55), "GB", false};
    static const ScalingTraits burstable{
        ScalingKind::Burstable, "1 year", "years",
        SimTime(), SimTime(), "GB", false};
    static const ScalingTraits fargate{
        ScalingKind::Fargate, "1 minute", "seconds",
        SimTime::sec(40), SimTime::sec(18), "GB", true};
    static const ScalingTraits faas{
        ScalingKind::Faas, "1 millisecond", "milliseconds",
        SimTime::msec(700), SimTime(), "MB", true};
    switch (kind) {
      case ScalingKind::Reserved: return reserved;
      case ScalingKind::OnDemand: return on_demand;
      case ScalingKind::Burstable: return burstable;
      case ScalingKind::Fargate: return fargate;
      case ScalingKind::Faas: return faas;
    }
    panic("bad scaling kind");
}

InstanceScaler::InstanceScaler(sim::Simulation &sim, net::Network &net,
                               ScalingKind kind,
                               const InstanceType &type,
                               std::string zone)
    : sim_(sim), net_(net), kind_(kind), type_(type),
      zone_(std::move(zone)), rng_(sim.rng().fork())
{
    bh_assert(kind != ScalingKind::Faas,
              "FaaS scaling is modelled by FaasPlatform");
}

void
InstanceScaler::requestInstance(ReadyCallback ready)
{
    const ScalingTraits &traits = scalingTraits(kind_);
    // +/-10% log-ish jitter on preparation; service launch varies a
    // little less.
    double prep_jitter = rng_.uniform(0.9, 1.15);
    double launch_jitter = rng_.uniform(0.95, 1.1);
    sim::SimTime prep = traits.preparation * prep_jitter;
    sim::SimTime launch = traits.service_launch * launch_jitter;
    sim::SimTime switch_over = sim::SimTime::msec(200);

    auto idx = instances_.size();
    instances_.push_back(nullptr);
    telemetry::SpanId span = telemetry::kNoSpan;
    if (telemetry::Tracer *t = sim_.tracer()) {
        span = t->beginUnder("provision.instance",
                             telemetry::Phase::Boot,
                             t->clientsTrack());
    }
    sim_.after(prep, [this, idx, launch, switch_over, span,
                      ready = std::move(ready)]() mutable {
        // Hardware exists from this moment (billing starts).
        instances_[idx] = std::make_unique<Instance>(
            sim_, net_, type_,
            std::string(scalingKindName(kind_)) + "-" +
                std::to_string(idx),
            zone_);
        sim::SimTime boot =
            kind_ == ScalingKind::Reserved ||
                    kind_ == ScalingKind::Burstable
                ? switch_over
                : launch;
        sim_.after(boot, [this, idx, span,
                          ready = std::move(ready)] {
            if (telemetry::Tracer *t = sim_.tracer())
                t->end(span);
            ready(*instances_[idx]);
        });
    });
}

double
InstanceScaler::accruedCost(sim::SimTime now) const
{
    bool always_on = kind_ == ScalingKind::Reserved ||
                     kind_ == ScalingKind::Burstable;
    double hours = 0.0;
    if (always_on) {
        // Pre-provisioned instances bill from t=0 whether or not a
        // burst ever arrives ("the instances must be active no
        // matter if they are used").
        std::size_t n = std::max<std::size_t>(1, instances_.size());
        hours = static_cast<double>(n) * now.toSeconds() / 3600.0;
    } else {
        for (const auto &inst : instances_) {
            if (inst)
                hours += inst->age(now).toSeconds() / 3600.0;
        }
    }
    return hours * type_.price_per_hour;
}

} // namespace beehive::cloud
