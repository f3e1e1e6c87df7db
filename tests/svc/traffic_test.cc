/**
 * @file
 * Tests for TenantFileWorld: an affiliation file's tenants under the
 * bounded SyntheticTraffic load, as `iatctl run --tenants` hosts it.
 */

#include <gtest/gtest.h>

#include <string>

#include "scenarios/host.hh"
#include "svc/traffic.hh"

namespace iat::svc {
namespace {

TEST(TenantFileWorld, RunsTheFileUnderBoundedLoad)
{
    sim::PlatformConfig pc;
    pc.num_cores = 8;
    scenarios::Host host(pc);
    auto &world = host.emplace<TenantFileWorld>(
        std::string(IATSIM_SOURCE_DIR) + "/examples/tenants.conf");
    ASSERT_EQ(world.registry().size(), 4u);
    EXPECT_EQ(world.model(), core::TenantModel::Slicing);
    EXPECT_TRUE(world.faultNics().empty());

    // Equal windows deliver equal DMA work (up to one quantum's
    // burst): the load does not grow with simulated time.
    host.engine().run(0.001);
    const auto first = world.delivered();
    EXPECT_GT(first, 0u);
    world.resetWindow();
    EXPECT_EQ(world.delivered(), 0u);
    host.engine().run(0.001);
    EXPECT_NEAR(static_cast<double>(world.delivered()),
                static_cast<double>(first), 24.0);

    // Pausing mcf (tenant 2, core 4) stops its core reads.
    world.setTenantActive(2, false);
    const auto inst0 = host.platform().instructionsRetired(4);
    host.engine().run(0.001);
    EXPECT_EQ(host.platform().instructionsRetired(4), inst0);
    EXPECT_GT(world.delivered(), first);
}

} // namespace
} // namespace iat::svc
