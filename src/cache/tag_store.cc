/**
 * @file
 * TagStore storage: allocation and recycling of the set blocks.
 */

#include "cache/tag_store.hh"

#include <algorithm>
#include <mutex>
#include <vector>

namespace iat::cache {

namespace {

/**
 * Directory buffers of dead stores, kept for the next store of the
 * same size. Worlds are rebuilt many times in one process (benchmark
 * legs, campaign trials, cluster shards); a multi-megabyte buffer
 * handed back to malloc is returned to the OS or kept depending on
 * what else sits on the heap, and a returned one costs a page fault
 * per 4 KiB when the next world zero-fills it. Recycling makes the
 * rebuild reuse mapped pages every time. Bounded, so a process that
 * stops building caches holds at most kCapWords of them.
 */
struct BufferPool
{
    /** 64 MiB of kept buffers at most. */
    static constexpr std::size_t kCapWords =
        (std::size_t{64} << 20) / sizeof(std::uint32_t);

    std::mutex mu;
    std::vector<std::pair<std::size_t, std::unique_ptr<std::uint32_t[]>>>
        free;
    std::size_t words = 0;

    std::unique_ptr<std::uint32_t[]>
    take(std::size_t n)
    {
        {
            std::lock_guard<std::mutex> lock(mu);
            const auto it = std::find_if(
                free.begin(), free.end(),
                [n](const auto &b) { return b.first == n; });
            if (it != free.end()) {
                auto buf = std::move(it->second);
                free.erase(it);
                words -= n;
                return buf;
            }
        }
        return std::unique_ptr<std::uint32_t[]>(new std::uint32_t[n]);
    }

    void
    give(std::unique_ptr<std::uint32_t[]> buf, std::size_t n)
    {
        std::lock_guard<std::mutex> lock(mu);
        if (words + n > kCapWords)
            return; // freed on return
        free.emplace_back(n, std::move(buf));
        words += n;
    }
};

/** Never destroyed: a store may die during static destruction. */
BufferPool &
pool()
{
    static BufferPool *const p = new BufferPool;
    return *p;
}

} // namespace

TagStore &
TagStore::operator=(TagStore &&other) noexcept
{
    if (this != &other) {
        release();
        buf_ = std::move(other.buf_);
        buf_words_ = std::exchange(other.buf_words_, 0);
        base_ = std::exchange(other.base_, nullptr);
        stride_words_ = std::exchange(other.stride_words_, 0);
        sets_ = std::exchange(other.sets_, 0);
        ways_ = std::exchange(other.ways_, 0);
        clock = std::exchange(other.clock, 0);
    }
    return *this;
}

void
TagStore::assign(std::size_t sets, unsigned ways, bool owner_bytes)
{
    ways_ = ways;
    const std::size_t words = kMetaWords +
                              2 * static_cast<std::size_t>(ways) +
                              (owner_bytes ? (ways + 3) / 4 : 0);
    const std::size_t blocks_per_set =
        (words * 4 + kBlockAlign - 1) / kBlockAlign;
    stride_words_ = blocks_per_set * kBlockWords;
    sets_ = sets;
    // A plain word buffer with the 64 B alignment taken from its
    // slack: an over-aligned allocation would go through memalign,
    // whose split-off fragments grew the heap on every rebuild.
    const std::size_t n = sets * stride_words_ + kBlockWords - 1;
    if (n != buf_words_) {
        release();
        buf_ = pool().take(n);
        buf_words_ = n;
    }
    std::fill_n(buf_.get(), n, 0u);
    const auto addr = reinterpret_cast<std::uintptr_t>(buf_.get());
    base_ = buf_.get() +
            ((kBlockAlign - addr % kBlockAlign) % kBlockAlign) / 4;
    clock = 0;
}

void
TagStore::release()
{
    if (buf_)
        pool().give(std::move(buf_), buf_words_);
    buf_words_ = 0;
    base_ = nullptr;
}

} // namespace iat::cache
