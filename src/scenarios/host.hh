/**
 * @file
 * Host: one simulated machine -- a Platform, its Engine, one World,
 * and the optional Policy and FaultInjector -- assembled in the one
 * order every front end relies on (DESIGN.md SS18):
 *
 *   Host host(pc);
 *   auto &world = host.emplace<AggTestPmdWorld>(cfg); // + attach
 *   host.start(kind, params, telemetry, hardening, faults);
 *   host.engine().run(seconds);
 *
 * start() builds the policy for the world's tenant model, ticks it
 * (first at t=0), arms the fault plan after that tick is scheduled,
 * and installs the platform sampler last, so it samples after the
 * policy and the faults act at any shared instant. Runs without a
 * policy (static placements, solo references) never call start().
 */

#ifndef IATSIM_SCENARIOS_HOST_HH
#define IATSIM_SCENARIOS_HOST_HH

#include <memory>
#include <utility>

#include "core/policy.hh"
#include "fault/injector.hh"
#include "scenarios/world.hh"
#include "sim/engine.hh"
#include "sim/platform.hh"
#include "util/logging.hh"

namespace iat::obs {
class Telemetry;
} // namespace iat::obs

namespace iat::scenarios {

/** One machine and its world; see file comment. */
class Host
{
  public:
    explicit Host(const sim::PlatformConfig &pc);

    // The engine, world and hooks hold this host's addresses.
    Host(const Host &) = delete;
    Host &operator=(const Host &) = delete;

    /** Build W(platform(), args...) and attach it to the engine.
     *  A host holds one world. */
    template <class W, class... Args>
    W &
    emplace(Args &&...args)
    {
        IAT_ASSERT(!world_, "a host holds one world");
        auto world = std::make_unique<W>(platform_,
                                         std::forward<Args>(args)...);
        W &ref = *world;
        world_ = std::move(world);
        world_->attach(engine_);
        return ref;
    }

    /**
     * Run the ordering contract once: attach @p telemetry to the
     * engine, build the policy with core::makePolicy() for
     * world().model(), tick it with fault::attachPolicy() every
     * params.interval_seconds, arm @p faults (seed already resolved;
     * no injector when it fires nothing) on the world's fault NICs
     * and registry, then give the pipeline @p telemetry and install
     * the platform sampler.
     */
    core::Policy &start(core::PolicyKind kind,
                        const core::IatParams &params,
                        obs::Telemetry *telemetry = nullptr,
                        bool hardening = true,
                        const fault::FaultPlan &faults = {});

    sim::Platform &platform() { return platform_; }
    sim::Engine &engine() { return engine_; }
    World &world() { return *world_; }

    /** Null until start(). */
    core::Policy *policy() const { return policy_.get(); }

    /** Null unless start() was given a plan that fires. */
    fault::FaultInjector *injector() const { return injector_.get(); }

  private:
    sim::Platform platform_;
    sim::Engine engine_;
    std::unique_ptr<World> world_;
    std::unique_ptr<core::Policy> policy_;
    std::unique_ptr<fault::FaultInjector> injector_;
};

} // namespace iat::scenarios

#endif // IATSIM_SCENARIOS_HOST_HH
