/**
 * @file
 * The sliced, way-partitioned last-level cache model.
 *
 * This is the substrate both of the paper's problems live in:
 *
 *  - CAT semantics (paper Footnote 1): a core *allocates* only into
 *    the ways of its class of service, but *hits and updates* lines in
 *    any way. The Latent Contender problem follows directly: DDIO
 *    write-allocates evict core lines that happen to live in DDIO's
 *    ways even though no core shares those ways on paper.
 *
 *  - DDIO semantics (paper §II-B): an inbound DMA write performs an
 *    LLC lookup; present => write update (a "DDIO hit"), absent =>
 *    write allocate into the DDIO way mask (a "DDIO miss"), possibly
 *    evicting a dirty victim to DRAM. Device reads never allocate.
 *    The Leaky DMA problem follows: once in-flight Rx buffers exceed
 *    the DDIO ways' capacity, buffers bounce LLC->DRAM->LLC.
 *
 * Addresses are hashed to a slice and a set (modern Intel LLCs hash
 * physical addresses across slices; Maurice et al., RAID'15), so
 * traffic spreads evenly and reading one slice's counters and scaling
 * by the slice count -- exactly what the paper's monitor does -- is
 * sound in the model too.
 *
 * Each slice's directory is a TagStore (cache/tag_store.hh): dense
 * tag and LRU-stamp arrays, per-set valid/dirty bitmasks so victim
 * selection is bit arithmetic, and one probe -- an MRU check, then a
 * masked compare of every way -- shared with the L2. A dense owner
 * array beside it carries each line's RMID. Exact and set-sampled
 * slices use the same layout. The scalar access paths and the batched
 * ones (accessBatch / ddioWriteRange / deviceReadRange) share the same
 * per-(slice,set) primitives, and the batched paths are
 * state-equivalent to issuing the scalar calls in op order -- see
 * accessBatch() for the argument, and
 * tests/cache/llc_batch_property_test.cc for the enforcement.
 *
 * Set-sampled approximate mode (SMARTS-style; Wunderlich et al.,
 * ISCA'03): constructed with approx_k = K > 1, only 1/K of each
 * slice's sets are modelled exactly -- set s of slice i is sampled
 * iff (s mod K) == (i mod K), a deterministic stratified pick that
 * rotates the sampled congruence class across slices so no address
 * stratum is systematically blind. Sampled sets are stored densely
 * (index s / K), so the tag store is K-fold smaller. Accesses to
 * unsampled sets never touch the tag store: their outcome is a
 * Bernoulli draw from per-slice per-op-class tallies (demand /
 * core-writeback / DDIO-write / device-read) maintained over the
 * sampled population, with periodic halving so the estimate tracks
 * phase changes. Counters advance at full rate either way;
 * rmidLines() extrapolates occupancy by K. The approximate path is
 * validated statistically (src/check/approx.hh, bench/fuzz_sim
 * --mode=approx), never bit-exactly: setShadow() requires K == 1.
 */

#ifndef IATSIM_CACHE_LLC_HH
#define IATSIM_CACHE_LLC_HH

#include <cstdint>
#include <vector>

#include "cache/geometry.hh"
#include "cache/shadow.hh"
#include "cache/tag_store.hh"
#include "cache/types.hh"
#include "cache/way_mask.hh"

namespace iat::cache {

/** Monotonic per-slice uncore counters (the model's CHA events). */
struct SliceCounters
{
    std::uint64_t ddio_hits = 0;    ///< inbound writes that updated
    std::uint64_t ddio_misses = 0;  ///< inbound writes that allocated
    std::uint64_t lookups = 0;      ///< all lookups in this slice
};

/** Monotonic per-core demand counters (the model's core PMU events). */
struct CoreCacheCounters
{
    std::uint64_t llc_refs = 0;
    std::uint64_t llc_misses = 0;
};

/**
 * One core-side LLC operation inside an accessBatch() call, with its
 * per-op outcome filled in by the batch. `writeback` selects the
 * writebackFromCore() semantics (no demand counters); otherwise the
 * op is a coreAccess() demand reference.
 */
struct CoreOp
{
    Addr addr = 0;
    AccessType type = AccessType::Read;
    bool writeback = false;
    /** Out: line was present (== AccessResult::hit of the scalar op). */
    bool hit = false;
    /** Out: a dirty victim was evicted to DRAM by this op. */
    bool victim_writeback = false;
};

/** Aggregate outcome of a batched access run. */
struct BatchCounts
{
    std::uint64_t demand_hits = 0;   ///< demand ops that hit
    std::uint64_t demand_misses = 0; ///< demand ops that allocated
    std::uint64_t writebacks = 0;    ///< dirty victims (all op kinds)
};

/** Aggregate outcome of a batched DMA range. */
struct DmaCounts
{
    std::uint64_t hits = 0;       ///< lines present (update / read hit)
    std::uint64_t misses = 0;     ///< lines absent
    std::uint64_t writebacks = 0; ///< dirty victims evicted
};

/**
 * Sliced set-associative LLC with per-CLOS way partitioning and a
 * DDIO port.
 */
class SlicedLlc
{
  public:
    /**
     * Number of classes of service. Skylake-SP hardware exposes 16;
     * the model is slightly more generous so the Fig 15 overhead
     * sweep can register one CLOS per tenant at 16 tenants while
     * keeping CLOS 0 as the default class.
     */
    static constexpr unsigned numClos = 24;
    /** Number of monitoring ids; rmid 0 is "unassigned". */
    static constexpr unsigned numRmids = 64;
    /** Rmid accounting lines allocated by the DDIO port. */
    static constexpr RmidId ddioRmid = numRmids - 1;
    /** PCIe devices with per-device counters and optional masks. */
    static constexpr unsigned numDevices = 8;

    /**
     * @param approx_k  Set-sampling period. 1 (default) models every
     *                  set exactly; a power of two K > 1 models 1/K
     *                  of the sets and estimates the rest (see the
     *                  file comment). Must divide sets_per_slice.
     */
    SlicedLlc(const CacheGeometry &geom, unsigned num_cores,
              unsigned approx_k = 1);

    const CacheGeometry &geometry() const { return geom_; }
    unsigned numCores() const { return num_cores_; }

    /** Set-sampling period; 1 means the exact model. */
    unsigned approxK() const { return approx_k_; }

    /** True when (slice, set) is modelled exactly under sampling. */
    bool
    setSampled(unsigned slice, unsigned set) const
    {
        return approx_shift_ == 0 ||
               (set & approx_mask_) == (slice & approx_mask_);
    }

    /**
     * True when @p addr maps to an exactly-modelled set. The platform
     * uses this to extend sampling through the private-cache filter:
     * lines of unsampled LLC sets skip the exact L2 model too (see
     * PrivateCache::estimateAccess), the sampled-set analog of SMARTS
     * not functionally warming structures it does not measure.
     */
    bool
    lineSampled(Addr addr) const
    {
        if (approx_shift_ == 0)
            return true;
        unsigned slice, set;
        locate(addr / geom_.line_bytes, slice, set);
        return (set & approx_mask_) == (slice & approx_mask_);
    }

    /// @name CAT-style configuration
    /// @{

    /** Program the capacity bitmask of a class of service. */
    void setClosMask(ClosId clos, WayMask mask);
    WayMask closMask(ClosId clos) const;

    /** Associate a core with a class of service (IA32_PQR_ASSOC). */
    void assocCoreClos(CoreId core, ClosId clos);
    ClosId coreClos(CoreId core) const;

    /** Associate a core with a monitoring id. */
    void assocCoreRmid(CoreId core, RmidId rmid);
    RmidId coreRmid(CoreId core) const;

    /** Program the DDIO way mask (the IIO LLC WAYS register). */
    void setDdioMask(WayMask mask);
    WayMask ddioMask() const { return ddio_mask_; }

    /// @name Device-aware DDIO (paper SS VII "future DDIO")
    /// @{

    /**
     * Give @p dev its own DDIO allocation mask, overriding the
     * chip-wide mask for that device's write allocates -- the
     * "assign different LLC ways to different PCIe devices, just
     * like what CAT does on CPU cores" extension the paper proposes.
     */
    void setDeviceDdioMask(DeviceId dev, WayMask mask);

    /** Revert @p dev to the chip-wide DDIO mask. */
    void clearDeviceDdioMask(DeviceId dev);

    /** Effective allocation mask for @p dev. */
    WayMask deviceDdioMask(DeviceId dev) const;

    /** Whether @p dev has a per-device mask programmed. */
    bool hasDeviceDdioMask(DeviceId dev) const;
    /// @}

    /** Enable/disable the DDIO path (BIOS knob, for ablations). */
    void
    setDdioEnabled(bool enabled)
    {
        ddio_enabled_ = enabled;
        if (shadow_ != nullptr)
            shadow_->onSetDdioEnabled(enabled);
    }
    bool ddioEnabled() const { return ddio_enabled_; }
    /// @}

    /// @name Access paths
    /// @{

    /**
     * Demand access from a core (L2 miss). Counts an LLC reference;
     * on miss, allocates into the core's CLOS mask and counts an LLC
     * miss.
     */
    AccessResult coreAccess(CoreId core, Addr addr, AccessType type);

    /**
     * Dirty writeback from a core's private cache. Updates the line
     * if present, else allocates it dirty in the core's CLOS mask.
     * Not a demand reference: does not bump ref/miss counters.
     */
    AccessResult writebackFromCore(CoreId core, Addr addr);

    /**
     * Inbound DMA write of one line (the DDIO path). Returns hit=true
     * for write update. With DDIO disabled the line is invalidated if
     * present and the write goes straight to DRAM (hit=false,
     * allocated=false); the caller charges the DRAM write.
     */
    AccessResult ddioWrite(Addr addr, DeviceId dev);

    /**
     * Outbound DMA read of one line. Hit => serviced from LLC;
     * miss => serviced from DRAM without allocation.
     */
    AccessResult deviceRead(Addr addr, DeviceId dev);
    /// @}

    /// @name Batched access paths
    /// @{

    /**
     * Apply @p n core-side ops as if coreAccess()/writebackFromCore()
     * had been called once per op, in array order; per-op outcomes
     * are written back into the ops and totals accumulated into
     * @p out (which is NOT reset: callers may accumulate).
     *
     * Internally the ops are hashed once, binned per slice (stable
     * counting sort), and each slice's sets are walked once per
     * batch. This is state-equivalent to scalar order because the
     * model's state factors by slice: an op only reads and writes its
     * own slice's sets and clock, so the per-slice subsequence --
     * which binning preserves -- determines the slice outcome, and
     * every cross-slice effect (RMID occupancy, writeback and PMU
     * counters) is a commutative sum.
     */
    void accessBatch(CoreId core, CoreOp *ops, std::size_t n,
                     BatchCounts &out);

    /**
     * Inbound DMA write of @p lines consecutive cache lines starting
     * at @p addr; equivalent to one ddioWrite() per line in address
     * order. With DDIO disabled, @p out.misses counts the lines that
     * went straight to DRAM (all of them). Totals accumulate into
     * @p out.
     */
    void ddioWriteRange(Addr addr, std::uint32_t lines, DeviceId dev,
                        DmaCounts &out);

    /**
     * Outbound DMA read of @p lines consecutive cache lines;
     * equivalent to one deviceRead() per line in address order.
     * Totals accumulate into @p out.
     */
    void deviceReadRange(Addr addr, std::uint32_t lines, DeviceId dev,
                         DmaCounts &out);
    /// @}

    /// @name Introspection / monitoring
    /// @{

    /**
     * Whether @p addr is cached. Under set sampling an address whose
     * set is unsampled has no modelled copy; isPresent() reports
     * false and invalidate() is a no-op for it.
     */
    bool isPresent(Addr addr) const;
    void invalidate(Addr addr);
    void flushAll();

    const SliceCounters &sliceCounters(unsigned slice) const;
    const CoreCacheCounters &coreCounters(CoreId core) const;

    /** Per-device DDIO statistics (a §VII future-DDIO extension). */
    const SliceCounters &deviceCounters(DeviceId dev) const;

    /**
     * CMT-style occupancy: lines currently owned by @p rmid. Under
     * set sampling the sampled-population count is scaled by K, the
     * same extrapolation real CMT applies to its sampled RMID tags.
     */
    std::uint64_t rmidLines(RmidId rmid) const;
    std::uint64_t rmidBytes(RmidId rmid) const;

    /** Total dirty-victim writebacks (for DRAM accounting tests). */
    std::uint64_t totalWritebacks() const { return total_writebacks_; }

    /**
     * Snapshot of one directory entry; `ts` is only meaningful when
     * `valid` (invalid ways keep their stale stamp, which victim
     * selection never reads because invalid ways short-circuit).
     */
    struct LineView
    {
        bool valid = false;
        bool dirty = false;
        LineAddr tag = 0;
        RmidId owner = 0;
        std::uint32_t ts = 0;
    };

    /**
     * Directory peek for differential validation and deep dumps.
     * Under set sampling an unsampled set reads as all-invalid.
     */
    LineView lineAt(unsigned slice, unsigned set, unsigned way) const;

    /** Per-slice LRU clock (wraps at 2^32 by design). */
    std::uint32_t sliceClock(unsigned slice) const;
    /// @}

    /// @name Shadow validation
    /// @{

    /**
     * Attach (or detach with nullptr) a shadow observer. The shadow
     * sees every subsequent config write and line-granular access
     * with the real model's verdict; see cache/shadow.hh. Costs one
     * predictable null check per op when detached. Shadow validation
     * is bit-exact and therefore only defined on the exact model:
     * attaching with approxK() > 1 asserts.
     */
    void setShadow(LlcShadow *shadow);
    LlcShadow *shadow() const { return shadow_; }
    /// @}

  private:
    /**
     * Outcome tallies for one op class over a slice's sampled sets.
     * hits/misses drive the Bernoulli hit draw for unsampled sets;
     * victim_wbs/misses drives the dirty-victim draw on an estimated
     * miss. All three halve together once hits+misses reaches
     * kEstWindow, so the estimate is an exponentially-weighted recent
     * window rather than an all-history average.
     */
    struct EstClass
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t victim_wbs = 0;
    };

    /** Estimator op classes (distinct hit/writeback distributions). */
    enum EstClassId : unsigned
    {
        EstDemand = 0, ///< coreAccess (demand reference)
        EstCoreWb,     ///< writebackFromCore
        EstDdio,       ///< ddioWrite (DDIO enabled)
        EstDevRead,    ///< deviceRead
        kNumEstClasses
    };

    /** Decay window: tallies halve at 2^16 sampled events. */
    static constexpr std::uint64_t kEstWindow = 1u << 16;

    /** Per-slice extrapolation state for unsampled sets. */
    struct Estimator
    {
        EstClass cls[kNumEstClasses];
        std::uint64_t rng = 0; ///< xorshift64 state, never zero
    };

    struct Slice
    {
        TagStore store;             ///< modelled sets, index s / K
        std::vector<RmidId> owners; ///< per way, indexed as store.tags
        /** Sampled iff (set & approx_mask_) == sample_match. */
        std::uint32_t sample_match = 0;
        Estimator est;
        SliceCounters counters;
    };

    /**
     * Hash a line address to (slice, set): the splitmix64 finalizer
     * decorrelates the line bits, then a Lemire range reduction on
     * the low 32 bits picks the slice and an independent reduction on
     * the high bits picks the set. Inline because every access path
     * -- including the per-line sampling decision of approx mode --
     * starts here.
     */
    void
    locate(LineAddr line, unsigned &slice, unsigned &set) const
    {
        const std::uint64_t h = mix64(line);
        slice = static_cast<unsigned>(
            (static_cast<std::uint64_t>(static_cast<std::uint32_t>(h)) *
             geom_.num_slices) >> 32);
        set = static_cast<unsigned>(
            ((h >> 32) * geom_.sets_per_slice) >> 32);
    }

    /** Record a sampled-set outcome into its slice's estimator. */
    static void recordEst(Slice &sl, EstClassId cls, bool hit,
                          bool victim_wb);

    /** Estimated coreAccess/writebackFromCore on an unsampled set. */
    void estimateCoreOp(CoreId core, Slice &sl, CoreOp &op);

    /** Estimated ddioWrite on an unsampled set. */
    AccessResult estimateDdioWrite(Slice &sl, DeviceId dev);

    /** Estimated deviceRead on an unsampled set. */
    AccessResult estimateDeviceRead(Slice &sl);

    /**
     * Choose the LRU victim among @p mask ways of the given set;
     * prefers invalid ways. Returns the way index.
     */
    unsigned chooseVictim(const Slice &sl, unsigned set,
                          WayMask mask) const;

    /** Drop @p line from (slice, set) if present; updates occupancy. */
    void dropLine(Slice &sl, unsigned set, LineAddr line);

    /** Allocate @p line in @p mask; updates occupancy; fills result. */
    void allocate(Slice &sl, unsigned set, LineAddr line, WayMask mask,
                  RmidId owner, bool dirty, AccessResult &result);

    /** coreAccess/writebackFromCore body after (slice,set) lookup. */
    void applyCoreOp(CoreId core, Slice &sl, unsigned set, CoreOp &op);

    /** ddioWrite body after (slice,set) lookup. */
    AccessResult applyDdioWrite(Slice &sl, unsigned set, LineAddr line,
                                DeviceId dev);

    /** Stable counting sort of scratch (slice,set) pairs by slice. */
    void binBySlice(std::size_t n);

    CacheGeometry geom_;
    unsigned num_cores_;
    unsigned approx_k_ = 1;
    unsigned approx_shift_ = 0;     ///< log2(approx_k_)
    std::uint32_t approx_mask_ = 0; ///< approx_k_ - 1
    bool ddio_enabled_ = true;
    LlcShadow *shadow_ = nullptr;

    std::vector<Slice> slices_;
    std::vector<WayMask> clos_masks_;
    std::vector<ClosId> core_clos_;
    std::vector<RmidId> core_rmid_;
    WayMask ddio_mask_;
    std::vector<WayMask> device_ddio_masks_; ///< empty = chip-wide

    std::vector<CoreCacheCounters> core_counters_;
    std::vector<SliceCounters> device_counters_;
    std::vector<std::uint64_t> rmid_lines_;
    std::uint64_t total_writebacks_ = 0;

    // Batch scratch, reused across calls to stay allocation-free on
    // the hot path once warmed up.
    std::vector<std::uint32_t> bin_slice_; ///< per-op slice id
    std::vector<std::uint32_t> bin_set_;   ///< per-op set index
    std::vector<std::uint32_t> bin_order_; ///< op indices, slice-grouped
    std::vector<std::uint32_t> bin_count_; ///< per-slice counts/offsets
};

} // namespace iat::cache

#endif // IATSIM_CACHE_LLC_HH
