/**
 * @file
 * Host implementation.
 */

#include "scenarios/host.hh"

#include "obs/telemetry.hh"
#include "sim/telemetry.hh"

namespace iat::scenarios {

Host::Host(const sim::PlatformConfig &pc)
    : platform_(pc), engine_(platform_)
{
}

core::Policy &
Host::start(core::PolicyKind kind, const core::IatParams &params,
            obs::Telemetry *telemetry, bool hardening,
            const fault::FaultPlan &faults)
{
    IAT_ASSERT(world_, "start() needs a world");
    IAT_ASSERT(!policy_, "start() runs once");
    if (telemetry)
        engine_.attachTelemetry(telemetry);
    if (faults.any()) {
        injector_ =
            std::make_unique<fault::FaultInjector>(faults, telemetry);
    }

    policy_ = core::makePolicy(kind, platform_.pqos(),
                               world_->registry(), params,
                               world_->model(), telemetry, hardening);
    // The policy's t=0 setup tick is scheduled before arm() adds any
    // fault hook, so it always runs on a healthy machine.
    fault::attachPolicy(engine_, *policy_, params.interval_seconds,
                        injector_.get());
    if (injector_) {
        for (auto *nic : world_->faultNics())
            injector_->addNic(*nic);
        injector_->setRegistry(&world_->registry());
        injector_->arm(engine_, platform_);
    }

    if (telemetry) {
        if (auto *pipeline = world_->pipeline())
            pipeline->setTelemetry(telemetry);
        // Last: its hook fires after the policy's and the faults' at
        // any shared instant, and its gauges follow every metric
        // registered above.
        sim::installPlatformSampler(engine_, platform_, *telemetry,
                                    params.interval_seconds);
    }
    return *policy_;
}

} // namespace iat::scenarios
