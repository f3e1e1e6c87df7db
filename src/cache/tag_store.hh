/**
 * @file
 * The cache model's one tag store, shared by the sliced LLC (one per
 * slice, exact and set-sampled alike) and the per-core L2.
 *
 * Storage is one block per set, every block starting on a 64-byte
 * boundary and the blocks laid end to end in one buffer:
 *
 *     SetMeta (12 B) | tags (4 B/way) | LRU stamps (4 B/way)
 *                    | optional owner byte per way | pad to 64 B
 *
 * so one access touches one set's block and nothing else. An 11-way
 * LLC set with owner bytes is 12 + 44 + 44 + 11 = 111 B, padded to
 * 128 B -- exactly two adjacent host lines; a 16-way L2 set without
 * owners is 12 + 64 + 64 = 140 B, padded to 192 B. A dead store's
 * buffer is kept for the next store of the same size (tag_store.cc),
 * so a rebuilt world reuses pages that are already mapped.
 *
 * Tags are 32-bit line addresses, so the model covers line addresses
 * below 2^32 -- byte addresses below 256 GiB with 64 B lines.
 * sim::AddressSpace never hands out more, and the caches' hash entry
 * (SlicedLlc::locate, PrivateCache::setIndex) panics on a line past
 * it, so a truncated tag can never alias another line. The reference
 * models in src/check keep 64-bit tags and so catch a packing slip.
 *
 * There is one probe: check the set's MRU way, then compare the tags
 * of every way of the set in one branch-free loop and mask the result
 * with the valid bits. An invalidated way keeps its stale tag, so
 * that mask is what stops a dead copy from matching; among valid ways
 * a tag occurs at most once, so the lowest matching bit is the only
 * one.
 *
 * Victim choice is deliberately not here: the two caches break ties
 * differently, and their reference models (check::RefLlc,
 * check::RefPrivateCache) pin each tie-break.
 */

#ifndef IATSIM_CACHE_TAG_STORE_HH
#define IATSIM_CACHE_TAG_STORE_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "cache/types.hh"
#include "util/logging.hh"

namespace iat::cache {

/**
 * Panic unless @p line fits a 32-bit tag. The caches call this at
 * their hash entry, so no op on a line past the limit gets further.
 */
inline void
checkTagLine(LineAddr line, std::uint32_t line_bytes)
{
    IAT_ASSERT(line < kTagLineLimit,
               "line address %#llx is past the cache model's 32-bit "
               "tags: byte addresses must stay below %llu GiB",
               static_cast<unsigned long long>(line),
               static_cast<unsigned long long>(
                   (kTagLineLimit * line_bytes) >> 30));
}

/**
 * Per-set control word at the head of each set's block: valid/dirty
 * way bitmasks plus the most-recently-used way. Packets are touched
 * several times back to back (DDIO write, core reads, device read),
 * so the MRU check usually wins before the full compare. Pure fast
 * path: a stale MRU entry only costs the normal compare.
 */
struct SetMeta
{
    std::uint32_t valid = 0; ///< way bitmask
    std::uint32_t dirty = 0; ///< way bitmask
    std::uint8_t mru = 0;    ///< last-touched way
};

/** Per-set-block tag / LRU-stamp directory with one probe. */
class TagStore
{
  public:
    /** Every set's block starts on, and spans a multiple of, this. */
    static constexpr std::size_t kBlockAlign = 64;

    TagStore() = default;
    ~TagStore() { release(); }
    TagStore(TagStore &&other) noexcept { *this = std::move(other); }
    TagStore &operator=(TagStore &&other) noexcept;
    TagStore(const TagStore &) = delete;
    TagStore &operator=(const TagStore &) = delete;

    /**
     * (Re)build as @p sets empty sets of @p ways ways; @p owner_bytes
     * adds one owner byte per way (the LLC's RMID). Zero-filled.
     */
    void assign(std::size_t sets, unsigned ways, bool owner_bytes);

    /** Bytes from one set's block to the next. */
    std::size_t stride() const { return stride_words_ * 4; }

    /** Number of sets held. */
    std::size_t sets() const { return sets_; }

    /** Start of @p set's block (for layout checks). */
    const void *block(unsigned set) const { return words(set); }

    SetMeta &
    meta(unsigned set)
    {
        return *reinterpret_cast<SetMeta *>(words(set));
    }
    const SetMeta &
    meta(unsigned set) const
    {
        return *reinterpret_cast<const SetMeta *>(words(set));
    }

    /** Tag of (@p set, @p way), widened back to a line address. */
    LineAddr
    tag(unsigned set, unsigned way) const
    {
        return tags(set)[way];
    }

    /** LRU stamps of @p set's ways. */
    const std::uint32_t *
    stamps(unsigned set) const
    {
        return words(set) + kMetaWords + ways_;
    }

    /** Owner bytes of @p set's ways (assign()ed with owner_bytes). */
    std::uint8_t *
    owners(unsigned set)
    {
        return reinterpret_cast<std::uint8_t *>(words(set) + kMetaWords +
                                                2 * ways_);
    }
    const std::uint8_t *
    owners(unsigned set) const
    {
        return reinterpret_cast<const std::uint8_t *>(
            words(set) + kMetaWords + 2 * ways_);
    }

    /**
     * Valid ways of @p set whose tag lies in [@p first, @p last];
     * both bounds below kTagLineLimit.
     */
    std::uint32_t
    validInRange(unsigned set, LineAddr first, LineAddr last) const
    {
        const std::uint32_t *t = tags(set);
        const auto lo = static_cast<std::uint32_t>(first);
        const auto span = static_cast<std::uint32_t>(last - first);
        std::uint32_t match = 0;
        for (unsigned w = 0; w < ways_; ++w)
            match |= static_cast<std::uint32_t>(t[w] - lo <= span) << w;
        return match & meta(set).valid;
    }

    /** Way of @p set holding @p line, or -1 when absent. */
    int
    probe(unsigned set, LineAddr line) const
    {
        const std::uint32_t *t = tags(set);
        const auto tag = static_cast<std::uint32_t>(line);
        const SetMeta &m = meta(set);
        const unsigned mw = m.mru;
        if (((m.valid >> mw) & 1u) != 0 && t[mw] == tag)
            return static_cast<int>(mw);
        std::uint32_t match = 0;
        for (unsigned w = 0; w < ways_; ++w)
            match |= static_cast<std::uint32_t>(t[w] == tag) << w;
        match &= m.valid;
        return match == 0 ? -1 : std::countr_zero(match);
    }

    /** Hit on (@p set, @p way): stamp it, make it MRU, maybe dirty. */
    void
    touch(unsigned set, unsigned way, bool dirty)
    {
        std::uint32_t *w = words(set);
        w[kMetaWords + ways_ + way] = ++clock;
        SetMeta &m = meta(set);
        m.mru = static_cast<std::uint8_t>(way);
        m.dirty |= static_cast<std::uint32_t>(dirty) << way;
    }

    /** Install @p line in (@p set, @p way) as a valid MRU line. */
    void
    fill(unsigned set, unsigned way, LineAddr line, bool dirty)
    {
        const std::uint32_t bit = 1u << way;
        std::uint32_t *w = words(set);
        w[kMetaWords + way] = static_cast<std::uint32_t>(line);
        w[kMetaWords + ways_ + way] = ++clock;
        SetMeta &m = meta(set);
        m.valid |= bit;
        m.dirty = dirty ? m.dirty | bit : m.dirty & ~bit;
        m.mru = static_cast<std::uint8_t>(way);
    }

    /** Mark (@p set, @p way) invalid; its tag, stamp and dirty bit stay. */
    void
    drop(unsigned set, unsigned way)
    {
        meta(set).valid &= ~(1u << way);
    }

    /** Drop every line and restart the clock; tags and stamps stay. */
    void
    clear()
    {
        const std::size_t n = sets();
        for (std::size_t s = 0; s < n; ++s) {
            SetMeta &m = meta(static_cast<unsigned>(s));
            m.valid = 0;
            m.dirty = 0;
        }
        clock = 0;
    }

    std::uint32_t clock = 0; ///< LRU clock (wraps at 2^32)

  private:
    static constexpr std::size_t kBlockWords = kBlockAlign / 4;
    /** SetMeta's size in 32-bit words; tags start right after it. */
    static constexpr std::size_t kMetaWords = sizeof(SetMeta) / 4;
    static_assert(sizeof(SetMeta) == 12 && alignof(SetMeta) == 4);

    std::uint32_t *
    words(unsigned set)
    {
        return base_ + set * stride_words_;
    }
    const std::uint32_t *
    words(unsigned set) const
    {
        return base_ + set * stride_words_;
    }
    const std::uint32_t *
    tags(unsigned set) const
    {
        return words(set) + kMetaWords;
    }

    /** Hand the buffer to the recycling pool (tag_store.cc). */
    void release();

    std::unique_ptr<std::uint32_t[]> buf_;
    std::size_t buf_words_ = 0;
    std::uint32_t *base_ = nullptr; ///< first 64 B boundary in buf_
    std::size_t stride_words_ = 0;  ///< 32-bit words per set block
    std::size_t sets_ = 0;
    unsigned ways_ = 0;
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
