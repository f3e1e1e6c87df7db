/**
 * @file
 * PrivateCache implementation.
 */

#include "cache/private_cache.hh"

#include <bit>

#include "util/logging.hh"

namespace iat::cache {

PrivateCache::PrivateCache(const PrivateCacheGeometry &geom)
    : geom_(geom)
{
    IAT_ASSERT(geom_.num_sets >= 1 && geom_.num_ways >= 1,
               "bad private cache geometry");
    IAT_ASSERT(geom_.num_ways <= 32, "way bitmasks are 32 bits wide");
    store_.assign(geom_.num_sets, geom_.num_ways);
    full_mask_ = geom_.num_ways >= 32 ? ~0u
                                      : (1u << geom_.num_ways) - 1u;
}

unsigned
PrivateCache::setIndex(LineAddr line) const
{
    return static_cast<unsigned>(
        (static_cast<std::uint64_t>(
             static_cast<std::uint32_t>(mix64(line))) *
         geom_.num_sets) >> 32);
}

void
PrivateCache::recordEst(AccessType type, bool hit, bool victim_wb)
{
    if (!est_enabled_)
        return;
    EstClass &c = est_[type == AccessType::Write];
    c.hits += hit;
    c.misses += !hit;
    c.victim_wbs += victim_wb;
    if (hit)
        c.streak += c.streak < kEstStreakCap;
    else
        c.streak = 0;
    if (c.hits + c.misses >= kEstWindow) {
        c.hits >>= 1;
        c.misses >>= 1;
        c.victim_wbs >>= 1;
    }
}

PrivateAccessResult
PrivateCache::estimateAccess(Addr addr, AccessType type)
{
    PrivateAccessResult result;
    EstClass &c = est_[type == AccessType::Write];
    const std::uint64_t pop = c.hits + c.misses;
    if (pop != 0) {
        // Miss probability: the tally rate, capped by the hit-streak
        // bound (see EstClass::streak). Both draws use num/den
        // integer form; pick whichever bound is tighter.
        const std::uint64_t s1 = c.streak + 1;
        const bool capped = c.misses * s1 > kEstStreakSlack * pop;
        const std::uint64_t num = capped ? kEstStreakSlack : c.misses;
        const std::uint64_t den = capped ? s1 : pop;
        result.hit = !estDraw(est_rng_, num, den);
    }
    if (result.hit) {
        ++hits_;
        return result;
    }
    ++misses_;
    if (c.misses != 0 && estDraw(est_rng_, c.victim_wbs, c.misses)) {
        result.has_writeback = true;
        result.writeback_addr = addr;
    }
    return result;
}

PrivateAccessResult
PrivateCache::access(Addr addr, AccessType type)
{
    const LineAddr line = addr / geom_.line_bytes;
    const unsigned set = setIndex(line);
    const bool write = type == AccessType::Write;

    PrivateAccessResult result;
    if (const int w = store_.probe(set, line); w >= 0) {
        result.hit = true;
        ++hits_;
        store_.touch(set, w, write);
        recordEst(type, true, false);
        return result;
    }

    ++misses_;
    // Victim choice, pinned by RefPrivateCache: the highest invalid
    // way; with the set full, the lowest way holding the minimum
    // stamp (strict <).
    const SetMeta &meta = store_.meta[set];
    unsigned victim;
    const std::uint32_t invalid = full_mask_ & ~meta.valid;
    if (invalid != 0) {
        victim = static_cast<unsigned>(std::bit_width(invalid)) - 1u;
    } else {
        victim = 0;
        const std::uint32_t *ts = &store_.ts[store_.at(set, 0)];
        std::uint32_t best_ts = UINT32_MAX;
        for (unsigned w = 0; w < geom_.num_ways; ++w) {
            if (ts[w] < best_ts) {
                best_ts = ts[w];
                victim = w;
            }
        }
    }

    if (((meta.valid & meta.dirty) >> victim) & 1u) {
        result.has_writeback = true;
        result.writeback_addr =
            store_.tags[store_.at(set, victim)] * geom_.line_bytes;
    }
    store_.fill(set, victim, line, write);
    recordEst(type, false, result.has_writeback);
    return result;
}

bool
PrivateCache::isPresent(Addr addr) const
{
    const LineAddr line = addr / geom_.line_bytes;
    return store_.probe(setIndex(line), line) >= 0;
}

void
PrivateCache::invalidateAll()
{
    store_.clear();
}

} // namespace iat::cache
