/**
 * @file
 * SyntheticTraffic implementation.
 */

#include "svc/traffic.hh"

#include <cmath>

#include "obs/metrics.hh"

namespace iat::svc {

namespace {

// Address map: the DMA region models an Rx ring (reused buffers, so
// DDIO can hit); each tenant gets a disjoint working set above it.
constexpr cache::Addr kDmaBase = 1ull << 30;
constexpr std::uint64_t kDmaRingLines = 512;
constexpr cache::Addr kTenantBase = 2ull << 30;
constexpr std::uint64_t kTenantSpanBytes = 1ull << 22; // 4 MiB
constexpr std::uint64_t kLine = 64;

// Nominal per-quantum mix at rate 1.0.
constexpr std::uint64_t kDmaLinesPerQuantum = 24;
constexpr std::uint64_t kReadsPerCorePerQuantum = 8;
constexpr std::uint64_t kInstrPerRead = 50;

} // namespace

SyntheticTraffic::SyntheticTraffic(
    sim::Platform &platform, const core::TenantRegistry &registry)
    : platform_(platform), registry_(registry)
{
}

void
SyntheticTraffic::setRate(double rate)
{
    if (!(rate >= 0.0))
        rate = 0.0;
    if (rate > 32.0)
        rate = 32.0;
    rate_ = rate;
}

void
SyntheticTraffic::setTenantActive(std::size_t t, bool active)
{
    if (t >= paused_.size())
        paused_.resize(t + 1, false);
    paused_[t] = !active;
}

void
SyntheticTraffic::runQuantum(double /*t_start*/, double /*dt*/)
{
    ++quantum_index_;
    if (rate_ <= 0.0)
        return;

    const auto scaled = [this](std::uint64_t nominal) {
        return static_cast<std::uint64_t>(
            std::llround(static_cast<double>(nominal) * rate_));
    };

    // Inbound DMA: reuse ring buffers so the DDIO working set is
    // bounded and hits are possible.
    const std::uint64_t dma_n = scaled(kDmaLinesPerQuantum);
    for (std::uint64_t i = 0; i < dma_n; ++i) {
        const cache::Addr addr =
            kDmaBase + (dma_cursor_ % kDmaRingLines) * kLine;
        platform_.dmaWrite(0, addr, kLine);
        ++dma_cursor_;
    }
    dma_lines_ += dma_n;

    // Per-tenant core load. Walk the registry live: churn shows up
    // as load appearing/disappearing the same quantum.
    const std::uint64_t reads_n = scaled(kReadsPerCorePerQuantum);
    const std::uint64_t num_cores = platform_.config().num_cores;
    for (std::size_t t = 0; t < registry_.size(); ++t) {
        if (t < paused_.size() && paused_[t])
            continue;
        const core::TenantSpec &spec = registry_[t];
        const cache::Addr base =
            kTenantBase +
            static_cast<cache::Addr>(t) * kTenantSpanBytes;
        const std::uint64_t span_lines = kTenantSpanBytes / kLine;
        for (const cache::CoreId core : spec.cores) {
            if (core >= num_cores)
                continue;
            for (std::uint64_t i = 0; i < reads_n; ++i) {
                cache::Addr addr;
                if (spec.is_io) {
                    // I/O tenants consume the Rx ring (DDIO hits),
                    // interleaved with their own state.
                    addr = (i & 1)
                               ? kDmaBase + ((dma_cursor_ + i) %
                                             kDmaRingLines) *
                                                kLine
                               : base + ((quantum_index_ * 7 + i) %
                                         span_lines) *
                                            kLine;
                } else {
                    addr = base + ((quantum_index_ * 13 + i * 3) %
                                   span_lines) *
                                      kLine;
                }
                const double cycles = platform_.coreAccess(
                    core, addr, cache::AccessType::Read);
                if (latency_)
                    latency_->record(cycles);
                ++core_reads_;
            }
            platform_.retire(core, reads_n * kInstrPerRead);
        }
    }
}

TenantFileWorld::TenantFileWorld(sim::Platform &platform,
                                 const std::string &path)
    : traffic_(platform, registry_)
{
    registry_.loadFromFile(path);
}

} // namespace iat::svc
