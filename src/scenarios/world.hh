/**
 * @file
 * The scenario World interface: what every paper world of SS VI-B/C
 * (aggregation, slicing, co-run) offers the code that runs it. A
 * Host attaches it and wires policies and faults to it, and the
 * bakeoff drives its fairness passes and reads its scenario-native
 * throughput and latency through it, so no caller needs to know
 * which world it holds.
 */

#ifndef IATSIM_SCENARIOS_WORLD_HH
#define IATSIM_SCENARIOS_WORLD_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/tenant.hh"
#include "net/nic.hh"
#include "net/pipeline.hh"
#include "sim/engine.hh"
#include "util/stats.hh"

namespace iat::scenarios {

/** One assembled scenario; see file comment. */
class World
{
  public:
    World() = default;
    virtual ~World() = default;
    World(const World &) = delete;
    World &operator=(const World &) = delete;

    /** Register the world's runnables with @p engine (once). */
    virtual void attach(sim::Engine &engine) = 0;

    /** The tenant records every policy allocates over. */
    virtual core::TenantRegistry &registry() = 0;

    /** The packet pipeline, for telemetry; null when there is none. */
    virtual net::PacketPipeline *pipeline() = 0;

    /**
     * How IAT classifies this world's tenants (SS IV-B): Aggregation
     * when one software stack switches for the I/O tenants,
     * Slicing when each tenant owns its own VF.
     */
    virtual core::TenantModel model() const = 0;

    /** Pause/resume the workload driving tenant @p t (fairness solo
     *  runs); infrastructure tenants may pause the whole data path. */
    virtual void setTenantActive(std::size_t t, bool active) = 0;

    /** Clear delivered() and latency() for a measurement window. */
    virtual void resetWindow() = 0;

    /** NICs subject to link-flap and ring-stall faults; empty when
     *  the world keeps its NICs private. */
    virtual std::vector<net::NicQueue *> faultNics() = 0;

    /** Scenario-native items delivered since the last
     *  resetWindow(): transmitted frames, or Redis responses. */
    virtual std::uint64_t delivered() const = 0;

    /** Client-observed latency since the last resetWindow(),
     *  seconds. */
    virtual LatencyHistogram latency() const = 0;
};

} // namespace iat::scenarios

#endif // IATSIM_SCENARIOS_WORLD_HH
