/**
 * @file
 * Exhaustive tests of the IAT Mealy machine: every arc of Fig 6 as
 * described in SS IV-C, plus self-transitions and boundary rules.
 */

#include "core/fsm.hh"

#include <gtest/gtest.h>

namespace iat::core {
namespace {

IatParams
defaults()
{
    return IatParams{};
}

/** Inputs meaning "nothing interesting happened, I/O quiet". */
FsmInputs
quiet(unsigned ways = 2)
{
    FsmInputs in;
    in.ddio_miss_rate = 1e5; // below THRESHOLD_MISS_LOW
    in.ddio_ways = ways;
    return in;
}

/** Inputs with a high DDIO miss rate and optional deltas. */
FsmInputs
pressure(double d_miss, double d_hit, double d_refs = 0.0,
         unsigned ways = 2)
{
    FsmInputs in;
    in.ddio_miss_rate = 5e6; // above THRESHOLD_MISS_LOW
    in.d_ddio_misses = d_miss;
    in.d_ddio_hits = d_hit;
    in.d_llc_refs = d_refs;
    in.ddio_ways = ways;
    return in;
}

/** A big relative miss drop down to a quiet absolute rate. */
FsmInputs
fadedPressure(double d_miss, double d_hit, unsigned ways = 2)
{
    FsmInputs in = pressure(d_miss, d_hit, 0.0, ways);
    in.ddio_miss_rate = 1e5; // below THRESHOLD_MISS_LOW
    return in;
}

class FsmTest : public testing::Test
{
  protected:
    FsmTest() : fsm(defaults()) {}

    void
    driveTo(IatState state)
    {
        fsm.reset(state);
    }

    IatFsm fsm;
};

TEST_F(FsmTest, StartsInLowKeep)
{
    EXPECT_EQ(fsm.state(), IatState::LowKeep);
}

TEST_F(FsmTest, Arc1LowKeepToIoDemandOnMissHigh)
{
    // More DDIO hits alongside the misses: traffic grew (arc 1).
    EXPECT_EQ(fsm.advance(pressure(+0.5, +0.5)),
              IatState::IoDemand);
}

TEST_F(FsmTest, Arc5LowKeepToCoreDemand)
{
    // Fewer hits + more LLC refs: cores evict Rx buffers (arc 5).
    EXPECT_EQ(fsm.advance(pressure(+0.5, -0.5, +0.5)),
              IatState::CoreDemand);
}

TEST_F(FsmTest, LowKeepStaysQuiet)
{
    EXPECT_EQ(fsm.advance(quiet()), IatState::LowKeep);
}

TEST_F(FsmTest, LowKeepHitDropAloneStillIoDemand)
{
    // Hit decreased but refs did not increase: not the core's fault,
    // so the miss pressure routes to I/O Demand.
    EXPECT_EQ(fsm.advance(pressure(+0.5, -0.5, 0.0)),
              IatState::IoDemand);
}

TEST_F(FsmTest, IoDemandSelfWhileMissesPersist)
{
    driveTo(IatState::IoDemand);
    EXPECT_EQ(fsm.advance(pressure(+0.1, +0.1)),
              IatState::IoDemand);
}

TEST_F(FsmTest, Arc6IoDemandToReclaimOnSignificantDrop)
{
    driveTo(IatState::IoDemand);
    EXPECT_EQ(fsm.advance(fadedPressure(-0.5, 0.0)),
              IatState::Reclaim);
}

TEST_F(FsmTest, IoDemandHoldsWhileDropLeavesTrafficIntensive)
{
    // A 50% relative drop that still leaves millions of misses per
    // second is the capacity-boundary case: keep growing, do not
    // bounce to Reclaim.
    driveTo(IatState::IoDemand);
    EXPECT_EQ(fsm.advance(pressure(-0.5, 0.0)), IatState::IoDemand);
}

TEST_F(FsmTest, IoDemandSmallDropIsNotSignificant)
{
    driveTo(IatState::IoDemand);
    // -5% is past THRESHOLD_STABLE but short of the 15% drop gate,
    // and hits are flat: hold I/O Demand.
    EXPECT_EQ(fsm.advance(pressure(-0.05, 0.0)),
              IatState::IoDemand);
}

TEST_F(FsmTest, Arc7IoDemandToCoreDemand)
{
    driveTo(IatState::IoDemand);
    // Fewer hits, misses not decreasing: the core contends (arc 7).
    EXPECT_EQ(fsm.advance(pressure(+0.1, -0.3)),
              IatState::CoreDemand);
}

TEST_F(FsmTest, IoDemandHitDropWithMissDropStays)
{
    driveTo(IatState::IoDemand);
    // Misses shrinking (mildly): not the arc-7 pattern.
    EXPECT_EQ(fsm.advance(pressure(-0.05, -0.3)),
              IatState::IoDemand);
}

TEST_F(FsmTest, Arc10IoDemandSaturatesToHighKeep)
{
    driveTo(IatState::IoDemand);
    EXPECT_EQ(fsm.applyBounds(defaults().ddio_ways_max),
              IatState::HighKeep);
}

TEST_F(FsmTest, ApplyBoundsBelowMaxKeepsIoDemand)
{
    driveTo(IatState::IoDemand);
    EXPECT_EQ(fsm.applyBounds(defaults().ddio_ways_max - 1),
              IatState::IoDemand);
}

TEST_F(FsmTest, Arc11HighKeepToReclaim)
{
    driveTo(IatState::HighKeep);
    EXPECT_EQ(fsm.advance(fadedPressure(-0.5, 0.0, 6)),
              IatState::Reclaim);
}

TEST_F(FsmTest, HighKeepHoldsWhileDropLeavesTrafficIntensive)
{
    driveTo(IatState::HighKeep);
    EXPECT_EQ(fsm.advance(pressure(-0.5, 0.0, 0.0, 6)),
              IatState::HighKeep);
}

TEST_F(FsmTest, Arc12HighKeepToCoreDemand)
{
    driveTo(IatState::HighKeep);
    EXPECT_EQ(fsm.advance(pressure(+0.1, -0.3, 0.0, 6)),
              IatState::CoreDemand);
}

TEST_F(FsmTest, HighKeepHoldsOtherwise)
{
    driveTo(IatState::HighKeep);
    EXPECT_EQ(fsm.advance(pressure(+0.2, +0.2, 0.0, 6)),
              IatState::HighKeep);
}

TEST_F(FsmTest, Arc8CoreDemandToReclaimOnMissDecrease)
{
    driveTo(IatState::CoreDemand);
    EXPECT_EQ(fsm.advance(pressure(-0.2, 0.0)), IatState::Reclaim);
}

TEST_F(FsmTest, Arc4CoreDemandToIoDemand)
{
    driveTo(IatState::CoreDemand);
    // More misses, hits not fewer: core no longer the competitor.
    EXPECT_EQ(fsm.advance(pressure(+0.3, +0.1)),
              IatState::IoDemand);
}

TEST_F(FsmTest, CoreDemandHoldsWhileCoreStillContends)
{
    driveTo(IatState::CoreDemand);
    EXPECT_EQ(fsm.advance(pressure(+0.3, -0.3)),
              IatState::CoreDemand);
}

TEST_F(FsmTest, Arc3ReclaimToIoDemand)
{
    driveTo(IatState::Reclaim);
    EXPECT_EQ(fsm.advance(pressure(+0.3, +0.1)),
              IatState::IoDemand);
}

TEST_F(FsmTest, Arc9ReclaimToCoreDemand)
{
    driveTo(IatState::Reclaim);
    EXPECT_EQ(fsm.advance(pressure(+0.3, -0.3)),
              IatState::CoreDemand);
}

TEST_F(FsmTest, ReclaimHoldsWithoutMissIncrease)
{
    driveTo(IatState::Reclaim);
    EXPECT_EQ(fsm.advance(quiet(3)), IatState::Reclaim);
}

TEST_F(FsmTest, Arc2ReclaimDrainsToLowKeep)
{
    driveTo(IatState::Reclaim);
    EXPECT_EQ(fsm.applyBounds(defaults().ddio_ways_min),
              IatState::LowKeep);
}

TEST_F(FsmTest, ApplyBoundsAboveMinKeepsReclaim)
{
    driveTo(IatState::Reclaim);
    EXPECT_EQ(fsm.applyBounds(defaults().ddio_ways_min + 1),
              IatState::Reclaim);
}

TEST_F(FsmTest, ApplyBoundsNoOpInOtherStates)
{
    for (auto state : {IatState::LowKeep, IatState::HighKeep,
                       IatState::CoreDemand}) {
        driveTo(state);
        EXPECT_EQ(fsm.applyBounds(1), state);
        EXPECT_EQ(fsm.applyBounds(6), state);
    }
}

TEST_F(FsmTest, TransitionCounterCountsChangesOnly)
{
    const auto t0 = fsm.transitions();
    fsm.advance(quiet());            // self
    fsm.advance(pressure(0.5, 0.5)); // -> IoDemand
    fsm.advance(pressure(0.1, 0.1)); // self
    EXPECT_EQ(fsm.transitions(), t0 + 1);
}

TEST_F(FsmTest, FullScenarioLeakyDmaCycle)
{
    // Traffic grows -> grow DDIO to max -> traffic fades -> reclaim
    // back to min. The canonical Fig 7b life cycle.
    EXPECT_EQ(fsm.advance(pressure(+0.5, +0.5)), IatState::IoDemand);
    EXPECT_EQ(fsm.advance(pressure(+0.2, +0.2, 0.0, 3)),
              IatState::IoDemand);
    EXPECT_EQ(fsm.applyBounds(6), IatState::HighKeep);
    EXPECT_EQ(fsm.advance(fadedPressure(-0.8, -0.1, 6)),
              IatState::Reclaim);
    EXPECT_EQ(fsm.advance(quiet(5)), IatState::Reclaim);
    EXPECT_EQ(fsm.applyBounds(1), IatState::LowKeep);
}

TEST(FsmNames, ToStringCoversAllStates)
{
    EXPECT_STREQ(toString(IatState::LowKeep), "LowKeep");
    EXPECT_STREQ(toString(IatState::HighKeep), "HighKeep");
    EXPECT_STREQ(toString(IatState::IoDemand), "IoDemand");
    EXPECT_STREQ(toString(IatState::CoreDemand), "CoreDemand");
    EXPECT_STREQ(toString(IatState::Reclaim), "Reclaim");
}

/**
 * Property sweep: from any state, quiet inputs never move the FSM
 * into a demand state (no spurious allocations).
 */
class FsmQuietProperty : public testing::TestWithParam<IatState>
{
};

TEST_P(FsmQuietProperty, QuietInputsNeverCreateDemand)
{
    IatFsm fsm{defaults()};
    fsm.reset(GetParam());
    const auto next = fsm.advance(quiet(3));
    // Holding the current state is fine; *entering* a demand state
    // on quiet inputs would be a spurious allocation trigger.
    if (next != GetParam()) {
        EXPECT_NE(next, IatState::IoDemand);
        EXPECT_NE(next, IatState::CoreDemand);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllStates, FsmQuietProperty,
    testing::Values(IatState::LowKeep, IatState::HighKeep,
                    IatState::IoDemand, IatState::CoreDemand,
                    IatState::Reclaim),
    [](const testing::TestParamInfo<IatState> &param_info) {
        return toString(param_info.param);
    });

} // namespace
} // namespace iat::core
