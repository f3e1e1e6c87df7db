/**
 * @file
 * Equivalence property tests for the batched LLC access paths.
 *
 * Two identically configured SlicedLlc instances replay the same
 * randomized operation trace: the reference instance through the
 * scalar paths (coreAccess / writebackFromCore / ddioWrite /
 * deviceRead, one call per op), the subject instance through the
 * batched paths (accessBatch / ddioWriteRange / deviceReadRange) with
 * randomized batch boundaries. The batched paths promise *state
 * equivalence*, so everything observable must match exactly: per-op
 * hit and victim-writeback outcomes, slice and core PMU counters,
 * CLOS/RMID occupancy, total writebacks, and the full line directory
 * (which pins down every eviction victim).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "cache/llc.hh"
#include "util/rng.hh"

namespace iat::cache {
namespace {

/** Address universe: small enough to sweep, large enough to evict. */
constexpr std::uint64_t kLines = 1u << 12;
constexpr std::uint64_t kLineBytes = 64;

struct TraceCase
{
    unsigned slices;
    unsigned sets;
    unsigned ways;
    std::uint64_t seed;
    /** Set-sampling period (1 = exact). The batched paths promise
     *  state equivalence in approx mode too: the slice-binned walk
     *  preserves per-slice op order, so the estimator draw sequences
     *  -- and therefore every sampled verdict -- match the scalar
     *  paths draw for draw. */
    unsigned approx = 1;
};

class LlcBatchEquivalence : public testing::TestWithParam<TraceCase>
{
};

void
configure(SlicedLlc &llc)
{
    // Confined CLOS for core 0, full mask for core 1, a chip-wide
    // DDIO mask plus a per-device override, so the trace exercises
    // mask-restricted victim choice on every path.
    const unsigned ways = llc.geometry().num_ways;
    llc.setClosMask(1, WayMask::fromRange(0, std::max(1u, ways / 2)));
    llc.assocCoreClos(0, 1);
    llc.assocCoreRmid(0, 3);
    llc.assocCoreRmid(1, 4);
    const unsigned ddio_ways = std::max(1u, ways / 4);
    llc.setDdioMask(WayMask::fromRange(ways - ddio_ways, ddio_ways));
    if (ways >= 3)
        llc.setDeviceDdioMask(1, WayMask::fromRange(ways - 3, 2));
}

void
expectSameObservableState(const SlicedLlc &a, const SlicedLlc &b)
{
    for (unsigned s = 0; s < a.geometry().num_slices; ++s) {
        const auto &ca = a.sliceCounters(s);
        const auto &cb = b.sliceCounters(s);
        EXPECT_EQ(ca.lookups, cb.lookups) << "slice " << s;
        EXPECT_EQ(ca.ddio_hits, cb.ddio_hits) << "slice " << s;
        EXPECT_EQ(ca.ddio_misses, cb.ddio_misses) << "slice " << s;
    }
    for (CoreId c = 0; c < 2; ++c) {
        EXPECT_EQ(a.coreCounters(c).llc_refs, b.coreCounters(c).llc_refs);
        EXPECT_EQ(a.coreCounters(c).llc_misses,
                  b.coreCounters(c).llc_misses);
    }
    for (unsigned r = 0; r < SlicedLlc::numRmids; ++r)
        EXPECT_EQ(a.rmidLines(r), b.rmidLines(r)) << "rmid " << r;
    EXPECT_EQ(a.totalWritebacks(), b.totalWritebacks());
    // The full directory: equality here means every allocation chose
    // the same way and every eviction chose the same victim.
    for (std::uint64_t line = 0; line < kLines; ++line) {
        const Addr addr = line * kLineBytes;
        ASSERT_EQ(a.isPresent(addr), b.isPresent(addr))
            << "line " << line;
    }
}

TEST_P(LlcBatchEquivalence, BatchedPathsMatchScalarExactly)
{
    const auto param = GetParam();
    CacheGeometry geom;
    geom.num_slices = param.slices;
    geom.sets_per_slice = param.sets;
    geom.num_ways = param.ways;
    geom.line_bytes = kLineBytes;

    SlicedLlc scalar(geom, 2, param.approx);
    SlicedLlc batched(geom, 2, param.approx);
    configure(scalar);
    configure(batched);

    Rng rng(param.seed);
    std::vector<CoreOp> ops;
    for (int segment = 0; segment < 3000; ++segment) {
        const double kind = rng.uniform();
        if (kind < 0.5) {
            // Core batch: 1..16 mixed demand/writeback ops from one
            // core, scalar one-by-one vs one accessBatch() call.
            const CoreId core = static_cast<CoreId>(rng.below(2));
            const std::size_t n = 1 + rng.below(16);
            ops.clear();
            for (std::size_t i = 0; i < n; ++i) {
                CoreOp op;
                op.addr = rng.below(kLines) * kLineBytes;
                const double t = rng.uniform();
                if (t < 0.2)
                    op.writeback = true;
                else
                    op.type = t < 0.6 ? AccessType::Read
                                      : AccessType::Write;
                ops.push_back(op);
            }

            BatchCounts expect;
            std::vector<AccessResult> ref;
            for (const auto &op : ops) {
                const auto r =
                    op.writeback
                        ? scalar.writebackFromCore(core, op.addr)
                        : scalar.coreAccess(core, op.addr, op.type);
                ref.push_back(r);
                if (!op.writeback) {
                    expect.demand_hits += r.hit;
                    expect.demand_misses += !r.hit;
                }
                expect.writebacks += r.writeback;
            }

            BatchCounts got;
            batched.accessBatch(core, ops.data(), ops.size(), got);
            for (std::size_t i = 0; i < ops.size(); ++i) {
                ASSERT_EQ(ops[i].hit, ref[i].hit) << "op " << i;
                ASSERT_EQ(ops[i].victim_writeback, ref[i].writeback)
                    << "op " << i;
            }
            EXPECT_EQ(got.demand_hits, expect.demand_hits);
            EXPECT_EQ(got.demand_misses, expect.demand_misses);
            EXPECT_EQ(got.writebacks, expect.writebacks);
        } else if (kind < 0.8) {
            // Inbound DMA range vs per-line ddioWrite().
            const std::uint32_t lines = 1 + rng.below(8);
            const std::uint64_t first =
                rng.below(kLines - lines + 1);
            const DeviceId dev = static_cast<DeviceId>(rng.below(2));
            DmaCounts expect;
            for (std::uint32_t i = 0; i < lines; ++i) {
                const auto r = scalar.ddioWrite(
                    (first + i) * kLineBytes, dev);
                expect.hits += r.hit;
                expect.misses += !r.hit;
                expect.writebacks += r.writeback;
            }
            DmaCounts got;
            batched.ddioWriteRange(first * kLineBytes, lines, dev,
                                   got);
            EXPECT_EQ(got.hits, expect.hits);
            EXPECT_EQ(got.misses, expect.misses);
            EXPECT_EQ(got.writebacks, expect.writebacks);
        } else {
            // Outbound DMA range vs per-line deviceRead().
            const std::uint32_t lines = 1 + rng.below(8);
            const std::uint64_t first =
                rng.below(kLines - lines + 1);
            const DeviceId dev = static_cast<DeviceId>(rng.below(2));
            DmaCounts expect;
            for (std::uint32_t i = 0; i < lines; ++i) {
                const auto r = scalar.deviceRead(
                    (first + i) * kLineBytes, dev);
                expect.hits += r.hit;
                expect.misses += !r.hit;
            }
            DmaCounts got;
            batched.deviceReadRange(first * kLineBytes, lines, dev,
                                    got);
            EXPECT_EQ(got.hits, expect.hits);
            EXPECT_EQ(got.misses, expect.misses);
        }

        // Periodic deep compare so a divergence is caught near the
        // segment that introduced it, not 3000 segments later.
        if (segment % 500 == 499)
            expectSameObservableState(scalar, batched);
    }
    expectSameObservableState(scalar, batched);
}

TEST_P(LlcBatchEquivalence, BatchedPathsMatchWithDdioDisabled)
{
    const auto param = GetParam();
    CacheGeometry geom;
    geom.num_slices = param.slices;
    geom.sets_per_slice = param.sets;
    geom.num_ways = param.ways;
    geom.line_bytes = kLineBytes;

    SlicedLlc scalar(geom, 2, param.approx);
    SlicedLlc batched(geom, 2, param.approx);
    configure(scalar);
    configure(batched);
    scalar.setDdioEnabled(false);
    batched.setDdioEnabled(false);

    Rng rng(param.seed ^ 0x5eedf00dull);
    for (int segment = 0; segment < 500; ++segment) {
        if (rng.uniform() < 0.5) {
            const CoreId core = static_cast<CoreId>(rng.below(2));
            const Addr addr = rng.below(kLines) * kLineBytes;
            scalar.coreAccess(core, addr, AccessType::Write);
            CoreOp op;
            op.addr = addr;
            op.type = AccessType::Write;
            BatchCounts counts;
            batched.accessBatch(core, &op, 1, counts);
        } else {
            // DDIO-off writes invalidate instead of allocating; the
            // range path must do the same per line.
            const std::uint32_t lines = 1 + rng.below(4);
            const std::uint64_t first =
                rng.below(kLines - lines + 1);
            DmaCounts expect;
            for (std::uint32_t i = 0; i < lines; ++i) {
                const auto r =
                    scalar.ddioWrite((first + i) * kLineBytes, 0);
                expect.hits += r.hit;
                expect.misses += !r.hit;
                expect.writebacks += r.writeback;
            }
            DmaCounts got;
            batched.ddioWriteRange(first * kLineBytes, lines, 0, got);
            EXPECT_EQ(got.hits, expect.hits);
            EXPECT_EQ(got.misses, expect.misses);
            EXPECT_EQ(got.writebacks, expect.writebacks);
        }
    }
    expectSameObservableState(scalar, batched);
}

/** Records the addresses a SlicedLlc reports invalidated. */
class InvalidateLog final : public LlcShadow
{
  public:
    void onSetClosMask(ClosId, WayMask) override {}
    void onAssocCoreClos(CoreId, ClosId) override {}
    void onAssocCoreRmid(CoreId, RmidId) override {}
    void onSetDdioMask(WayMask) override {}
    void onSetDeviceDdioMask(DeviceId, WayMask) override {}
    void onClearDeviceDdioMask(DeviceId) override {}
    void onSetDdioEnabled(bool) override {}
    void onCoreOp(CoreId, Addr, AccessType, bool, bool, bool) override {}
    void onDdioWrite(Addr, DeviceId, const AccessResult &) override {}
    void onDeviceRead(Addr, DeviceId, const AccessResult &) override {}
    void onInvalidate(Addr addr) override { dropped.push_back(addr); }
    void onFlushAll() override {}

    std::vector<Addr> dropped;
};

/** Every (slice, set, way) entry, counter and clock match. */
void
expectSameDirectory(const SlicedLlc &a, const SlicedLlc &b)
{
    const CacheGeometry &g = a.geometry();
    for (unsigned sl = 0; sl < g.num_slices; ++sl) {
        EXPECT_EQ(a.sliceClock(sl), b.sliceClock(sl)) << "slice " << sl;
        for (unsigned set = 0; set < g.sets_per_slice; ++set) {
            for (unsigned w = 0; w < g.num_ways; ++w) {
                const auto va = a.lineAt(sl, set, w);
                const auto vb = b.lineAt(sl, set, w);
                ASSERT_EQ(va.valid, vb.valid) << sl << "/" << set << "/" << w;
                ASSERT_EQ(va.dirty, vb.dirty) << sl << "/" << set << "/" << w;
                ASSERT_EQ(va.tag, vb.tag) << sl << "/" << set << "/" << w;
                ASSERT_EQ(va.owner, vb.owner) << sl << "/" << set << "/" << w;
                ASSERT_EQ(va.ts, vb.ts) << sl << "/" << set << "/" << w;
            }
        }
    }
    for (unsigned r = 0; r < SlicedLlc::numRmids; ++r)
        EXPECT_EQ(a.rmidLines(r), b.rmidLines(r)) << "rmid " << r;
}

TEST(LlcRangeInvalidate, MatchesPerLineInvalidates)
{
    for (const unsigned k : {1u, 4u}) {
        SCOPED_TRACE("K=" + std::to_string(k));
        CacheGeometry geom;
        geom.num_slices = 4;
        geom.sets_per_slice = 64;
        geom.num_ways = 11;
        geom.line_bytes = kLineBytes;
        SlicedLlc per_line(geom, 2, k);
        SlicedLlc ranged(geom, 2, k);
        configure(per_line);
        configure(ranged);
        InvalidateLog log;
        if (k == 1)
            ranged.setShadow(&log);

        Rng rng(0x1a2b3c ^ k);
        std::size_t dropped_total = 0;
        for (int round = 0; round < 4; ++round) {
            // Random fills from both cores and the DDIO port, so the
            // range holds clean, dirty and DDIO-owned lines.
            for (int i = 0; i < 4000; ++i) {
                const Addr a = rng.below(kLines) * kLineBytes;
                const auto pick = rng.below(4);
                for (SlicedLlc *llc : {&per_line, &ranged}) {
                    if (pick == 3)
                        llc->ddioWrite(a, 0);
                    else
                        llc->coreAccess(static_cast<CoreId>(pick & 1), a,
                                        pick == 2 ? AccessType::Write
                                                  : AccessType::Read);
                }
            }
            // A range with ragged ends: it starts and stops mid-line.
            const std::uint64_t first = rng.below(kLines / 2);
            const std::uint64_t lines = 1 + rng.below(kLines / 2);
            const Addr addr = first * kLineBytes + 5;
            const std::uint64_t bytes = lines * kLineBytes - 10;
            const LineAddr last = (addr + bytes - 1) / kLineBytes;

            std::vector<Addr> resident;
            for (LineAddr line = first; line <= last; ++line) {
                if (per_line.isPresent(line * kLineBytes))
                    resident.push_back(line * kLineBytes);
                per_line.invalidate(line * kLineBytes);
            }
            log.dropped.clear();
            ranged.invalidateRange(addr, bytes);
            expectSameDirectory(per_line, ranged);
            if (k == 1) {
                std::sort(log.dropped.begin(), log.dropped.end());
                EXPECT_EQ(log.dropped, resident) << "round " << round;
            }
            dropped_total += resident.size();
        }
        EXPECT_GT(dropped_total, 0u) << "no resident line in any range";
        ranged.setShadow(nullptr);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, LlcBatchEquivalence,
    testing::Values(TraceCase{1, 64, 4, 1},
                    TraceCase{4, 128, 11, 2},
                    TraceCase{8, 64, 16, 3},
                    TraceCase{2, 32, 12, 4},
                    // Set-sampled configs: same contract, the dense
                    // storage and estimator paths both batched.
                    TraceCase{4, 128, 11, 5, 4},
                    TraceCase{8, 64, 16, 6, 16},
                    TraceCase{2, 32, 12, 7, 2},
                    TraceCase{1, 64, 4, 8, 4}),
    [](const testing::TestParamInfo<TraceCase> &tpi) {
        return "s" + std::to_string(tpi.param.slices) + "x" +
               std::to_string(tpi.param.sets) + "x" +
               std::to_string(tpi.param.ways) + "k" +
               std::to_string(tpi.param.approx);
    });

} // namespace
} // namespace iat::cache
