/**
 * @file
 * The cache model's one tag store, shared by the sliced LLC (one per
 * slice, exact and set-sampled alike) and the per-core L2.
 *
 * Storage is structure-of-arrays: a dense tag array and a dense LRU
 * stamp array, both indexed set * ways + way, plus one SetMeta per set
 * holding the valid/dirty way bitmasks and the MRU way. There is one
 * probe: check the set's MRU way, then compare the tags of every way
 * of the set in one branch-free loop and mask the result with the
 * valid bits. An invalidated way keeps its stale tag, so that mask is
 * what stops a dead copy from matching; among valid ways a tag occurs
 * at most once, so the lowest matching bit is the only one.
 *
 * Victim choice is deliberately not here: the two caches break ties
 * differently, and their reference models (check::RefLlc,
 * check::RefPrivateCache) pin each tie-break.
 */

#ifndef IATSIM_CACHE_TAG_STORE_HH
#define IATSIM_CACHE_TAG_STORE_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "cache/types.hh"

namespace iat::cache {

/**
 * Per-set control word: valid/dirty way bitmasks plus the
 * most-recently-used way. Packets are touched several times back to
 * back (DDIO write, core reads, device read), so the MRU check usually
 * wins before the full compare. Pure fast path: a stale MRU entry only
 * costs the normal compare.
 */
struct SetMeta
{
    std::uint32_t valid = 0; ///< way bitmask
    std::uint32_t dirty = 0; ///< way bitmask
    std::uint8_t mru = 0;    ///< last-touched way
};

/** Dense tag / LRU-stamp directory with one probe. */
struct TagStore
{
    std::vector<LineAddr> tags;    ///< way w of set s at s * ways + w
    std::vector<std::uint32_t> ts; ///< LRU stamps, same index
    std::vector<SetMeta> meta;     ///< per set
    std::uint32_t clock = 0;       ///< LRU clock (wraps at 2^32)
    unsigned ways = 0;

    void
    assign(std::size_t sets, unsigned num_ways)
    {
        ways = num_ways;
        tags.assign(sets * num_ways, 0);
        ts.assign(sets * num_ways, 0);
        meta.assign(sets, {});
        clock = 0;
    }

    std::size_t
    at(unsigned set, unsigned way) const
    {
        return static_cast<std::size_t>(set) * ways + way;
    }

    /** Way of @p set holding @p line, or -1 when absent. */
    int
    probe(unsigned set, LineAddr line) const
    {
        const LineAddr *t = &tags[at(set, 0)];
        const SetMeta &m = meta[set];
        const unsigned mw = m.mru;
        if (((m.valid >> mw) & 1u) != 0 && t[mw] == line)
            return static_cast<int>(mw);
        std::uint32_t match = 0;
        for (unsigned w = 0; w < ways; ++w)
            match |= static_cast<std::uint32_t>(t[w] == line) << w;
        match &= m.valid;
        return match == 0 ? -1 : std::countr_zero(match);
    }

    /** Hit on (@p set, @p way): stamp it, make it MRU, maybe dirty. */
    void
    touch(unsigned set, unsigned way, bool dirty)
    {
        ts[at(set, way)] = ++clock;
        meta[set].mru = static_cast<std::uint8_t>(way);
        meta[set].dirty |= static_cast<std::uint32_t>(dirty) << way;
    }

    /** Install @p line in (@p set, @p way) as a valid MRU line. */
    void
    fill(unsigned set, unsigned way, LineAddr line, bool dirty)
    {
        const std::uint32_t bit = 1u << way;
        SetMeta &m = meta[set];
        tags[at(set, way)] = line;
        ts[at(set, way)] = ++clock;
        m.valid |= bit;
        m.dirty = dirty ? m.dirty | bit : m.dirty & ~bit;
        m.mru = static_cast<std::uint8_t>(way);
    }

    /** Drop every line and restart the clock; tags and stamps stay. */
    void
    clear()
    {
        for (auto &m : meta) {
            m.valid = 0;
            m.dirty = 0;
        }
        clock = 0;
    }
};

/** splitmix64 finalizer: the address hash both caches index with. */
inline std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** xorshift64 step (Marsaglia); period 2^64-1 over nonzero states. */
inline std::uint64_t
xorshift64(std::uint64_t x)
{
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

/**
 * Bernoulli draw with probability num/den for the set-sampled
 * estimators; advances @p state. The multiply-shift maps the low 32
 * state bits into [0, den) instead of a modulo (den is a tally count
 * below 2^21, so the product fits and the bias is 2^-32 --
 * immeasurable next to the sampling error).
 */
inline bool
estDraw(std::uint64_t &state, std::uint64_t num, std::uint64_t den)
{
    state = xorshift64(state);
    return ((static_cast<std::uint64_t>(
                 static_cast<std::uint32_t>(state)) *
             den) >> 32) < num;
}

} // namespace iat::cache

#endif // IATSIM_CACHE_TAG_STORE_HH
