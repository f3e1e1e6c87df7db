/**
 * @file
 * Per-core private cache filter (the modelled L2).
 *
 * The LLC reference/miss counters the IAT monitor polls only see
 * demand traffic that misses the private levels, so workloads access
 * memory through a per-core L2 model: a plain set-associative LRU
 * cache (Tab I: 16-way 1 MB). L1 is folded into the base CPI of the
 * workload cost models; modelling it separately would only rescale
 * constants.
 *
 * The L2 is a write-back cache: dirty victims are handed to the LLC
 * as non-demand writebacks. The LLC is modelled mostly-inclusive for
 * simplicity (fills allocate in both levels); DESIGN.md SS4 discusses
 * why this preserves the paper's phenomena.
 */

#ifndef IATSIM_CACHE_PRIVATE_CACHE_HH
#define IATSIM_CACHE_PRIVATE_CACHE_HH

#include <cstdint>

#include "cache/geometry.hh"
#include "cache/tag_store.hh"
#include "cache/types.hh"

namespace iat::cache {

/** Result of a private-cache access. */
struct PrivateAccessResult
{
    bool hit = false;
    /** Victim line that must be written back to the LLC (0 = none). */
    Addr writeback_addr = 0;
    bool has_writeback = false;
};

/** Set-associative LRU private cache. */
class PrivateCache
{
  public:
    explicit PrivateCache(const PrivateCacheGeometry &geom = {});

    const PrivateCacheGeometry &geometry() const { return geom_; }

    /**
     * Access one line. On miss the line is allocated (write-allocate
     * for stores) and the victim, if dirty, is reported for LLC
     * writeback.
     */
    PrivateAccessResult access(Addr addr, AccessType type);

    /**
     * Estimated access for a line the platform's set-sampled mode
     * excludes from exact modelling (SlicedLlc::lineSampled() false):
     * no directory is touched; the hit verdict and the dirty-victim
     * writeback are Bernoulli draws from the per-access-type tallies
     * of recent *exact* accesses. A drawn writeback reports @p addr
     * itself as the victim -- any stand-in line of an unsampled LLC
     * set is equally representative, and the LLC estimates that
     * writeback op in turn. With no evidence yet the verdict is a
     * miss (the cold-cache truth) and no rng step is spent.
     */
    PrivateAccessResult estimateAccess(Addr addr, AccessType type);

    bool isPresent(Addr addr) const;
    void invalidateAll();

    /**
     * Turn on the estimateAccess() tallies. Off by default so the
     * exact-mode hot path pays nothing; the platform enables it on
     * every core's L2 when the LLC runs set-sampled (llc_approx > 1),
     * where sampled lines' exact outcomes feed the estimator.
     */
    void enableEstimator() { est_enabled_ = true; }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    /** One estimateAccess() tally class (see EstClass below). */
    struct EstView
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t victim_wbs = 0;
    };

    /** Estimator tallies for reads (false) / writes (true). */
    EstView
    estView(bool write) const
    {
        const auto &c = est_[write];
        return EstView{c.hits, c.misses, c.victim_wbs};
    }

    /** Snapshot of one directory entry (for differential checks). */
    struct LineView
    {
        bool valid = false;
        bool dirty = false;
        LineAddr tag = 0;
        std::uint32_t ts = 0;
    };

    /** Directory peek; `ts` only meaningful when `valid`. */
    LineView
    lineAt(unsigned set, unsigned way) const
    {
        LineView view;
        view.valid = ((store_.meta[set].valid >> way) & 1u) != 0;
        view.dirty = ((store_.meta[set].dirty >> way) & 1u) != 0;
        view.tag = store_.tags[store_.at(set, way)];
        view.ts = store_.ts[store_.at(set, way)];
        return view;
    }

    /** LRU clock (wraps at 2^32 by design). */
    std::uint32_t clock() const { return store_.clock; }

  private:
    unsigned setIndex(LineAddr line) const;

    /** Feed one exact outcome into the estimateAccess() tallies. */
    void recordEst(AccessType type, bool hit, bool victim_wb);

    /**
     * Tallies behind estimateAccess(), one class per access type
     * (reads and writes hit very differently: packet payload writes
     * land in fresh buffers, header reads revisit hot lines). Fed by
     * every exact access(); halved when a class reaches kEstWindow so
     * the estimate tracks phase changes. Estimated outcomes are drawn
     * from -- never recorded into -- the tallies.
     */
    struct EstClass
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t victim_wbs = 0;
        /**
         * Consecutive exact hits since the last exact miss. The
         * tallies adapt K times slower than the cache they shadow
         * (exact evidence arrives at 1/K rate), so after a miss
         * burst ends they keep drawing misses far too long. A streak
         * of S hits bounds the current miss rate at ~1/S with high
         * confidence, so draws are capped at kStreakSlack/(S+1) --
         * the estimator unlearns a dead burst at full speed. The
         * slack keeps the cap from biasing a genuine steady rate p:
         * it only engages on streaks longer than kStreakSlack/p,
         * which a geometric streak reaches with probability ~e^-4.
         */
        std::uint64_t streak = 0;
    };
    static constexpr std::uint64_t kEstWindow = 1ull << 12;
    static constexpr std::uint64_t kEstStreakSlack = 4;
    /** Streak values above this saturate (keeps draw products in
     *  range; caps the drawn miss rate floor at ~2^-18). */
    static constexpr std::uint64_t kEstStreakCap = 1ull << 20;

    PrivateCacheGeometry geom_;
    /** Tags, LRU stamps and per-set valid/dirty/MRU words, in the
     *  layout and with the probe the LLC uses (cache/tag_store.hh). */
    TagStore store_;
    std::uint32_t full_mask_ = 0; ///< one bit per way
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    EstClass est_[2]; ///< indexed by type == Write
    std::uint64_t est_rng_ = 0xd1b54a32d192ed03ull; ///< xorshift64
    bool est_enabled_ = false;
};

} // namespace iat::cache

#endif // IATSIM_CACHE_PRIVATE_CACHE_HH
