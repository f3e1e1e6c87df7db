/**
 * @file
 * Synthetic load for service-mode worlds: a Runnable that keeps the
 * platform's DDIO path and every registered tenant's cores busy at a
 * dialable rate, so an open-ended run has real contention for the
 * daemon to manage without the cost of a full scenario world.
 *
 * Per quantum, at rate 1.0:
 *  - a burst of inbound DMA lines through the DDIO path (device 0),
 *    cycling through a ring-sized buffer like an Rx ring would;
 *  - per tenant, a stride of core reads on each of its cores over a
 *    private working set (I/O tenants touch the DMA region too, so
 *    DDIO hits actually happen);
 *  - retired instructions charged per core so IPC gauges stay sane.
 *
 * Core access latencies are recorded into an optional histogram
 * ("svc.req_latency_cycles"), giving the health monitor's p99 SLO
 * rule a real signal. The rate is adjustable at runtime through the
 * control socket's `set-traffic` command; the traffic generator
 * re-reads the registry every quantum, so tenants attached or
 * detached mid-run are picked up immediately.
 *
 * TenantFileWorld packages an affiliation file and this load as a
 * scenarios::World, so `iatctl run --tenants` runs on a Host like
 * every paper scenario.
 */

#ifndef IATSIM_SVC_TRAFFIC_HH
#define IATSIM_SVC_TRAFFIC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/tenant.hh"
#include "scenarios/world.hh"
#include "sim/engine.hh"

namespace iat::obs {
class Histogram;
} // namespace iat::obs

namespace iat::svc {

/** Dialable synthetic load; see file comment. */
class SyntheticTraffic final : public sim::Runnable
{
  public:
    SyntheticTraffic(sim::Platform &platform,
                     const core::TenantRegistry &registry);

    void runQuantum(double t_start, double dt) override;

    /** Load multiplier; 1.0 is the nominal mix, 0 idles. Clamped to
     *  [0, 32] so a typo'd command cannot wedge the loop. */
    void setRate(double rate);
    double rate() const { return rate_; }

    /** Pause/resume tenant @p t's core reads; the DMA burst keeps
     *  running, as a NIC would. */
    void setTenantActive(std::size_t t, bool active);

    /** Record each core access latency here (may be nullptr). */
    void setLatencyHistogram(obs::Histogram *histogram)
    {
        latency_ = histogram;
    }

    std::uint64_t dmaLines() const { return dma_lines_; }
    std::uint64_t coreReads() const { return core_reads_; }

  private:
    sim::Platform &platform_;
    const core::TenantRegistry &registry_;
    obs::Histogram *latency_ = nullptr;

    double rate_ = 1.0;
    std::uint64_t quantum_index_ = 0;
    std::uint64_t dma_cursor_ = 0;

    std::uint64_t dma_lines_ = 0;
    std::uint64_t core_reads_ = 0;
    std::vector<bool> paused_; ///< by tenant index
};

/** An affiliation file's tenants under SyntheticTraffic at rate 1. */
class TenantFileWorld final : public scenarios::World
{
  public:
    /** Load the tenants from @p path; a missing or malformed file
     *  is fatal, as for every tenant-file reader. */
    TenantFileWorld(sim::Platform &platform, const std::string &path);

    void attach(sim::Engine &engine) override { engine.add(&traffic_); }
    core::TenantRegistry &registry() override { return registry_; }
    net::PacketPipeline *pipeline() override { return nullptr; }

    /** Tenant files describe tenants that own their cores and
     *  devices, the model iatsvc runs them under. */
    core::TenantModel model() const override
    {
        return core::TenantModel::Slicing;
    }

    void setTenantActive(std::size_t t, bool active) override
    {
        traffic_.setTenantActive(t, active);
    }
    void resetWindow() override { dma_base_ = traffic_.dmaLines(); }
    std::vector<net::NicQueue *> faultNics() override { return {}; }

    /** DMA lines written since the last resetWindow(). */
    std::uint64_t delivered() const override
    {
        return traffic_.dmaLines() - dma_base_;
    }

    /** Empty: synthetic load has no clients. */
    LatencyHistogram latency() const override { return {}; }

  private:
    core::TenantRegistry registry_;
    SyntheticTraffic traffic_;
    std::uint64_t dma_base_ = 0;
};

} // namespace iat::svc

#endif // IATSIM_SVC_TRAFFIC_HH
