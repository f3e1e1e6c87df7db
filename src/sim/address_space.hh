/**
 * @file
 * Physical address space allocator for the model.
 *
 * Every buffer a workload or device touches (working sets, flow
 * tables, packet buffer pools, KV records) lives in a distinct region
 * of a flat modelled physical address space, handed out by a bump
 * allocator. Regions never overlap, so cache interference between
 * tenants arises only through capacity/way contention -- exactly the
 * channel the paper studies -- and never through accidental sharing.
 * The space ends at 256 GiB, the reach of the caches' 32-bit line
 * tags (cache::kTagLineLimit).
 */

#ifndef IATSIM_SIM_ADDRESS_SPACE_HH
#define IATSIM_SIM_ADDRESS_SPACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cache/types.hh"
#include "util/logging.hh"
#include "util/units.hh"

namespace iat::sim {

/** Bump allocator over the modelled physical address space. */
class AddressSpace
{
  public:
    /** A named, page-aligned allocation. */
    struct Region
    {
        std::string name;
        cache::Addr base = 0;
        std::uint64_t bytes = 0;

        cache::Addr
        lineAddr(std::uint64_t line_index) const
        {
            return base + line_index * cacheLineBytes;
        }

        std::uint64_t lines() const { return bytes / cacheLineBytes; }
    };

    /**
     * Allocate @p bytes (rounded up to 4 KiB) labelled @p name. Panics
     * when the region would end past kLimit.
     */
    Region
    alloc(std::uint64_t bytes, std::string name)
    {
        IAT_ASSERT(bytes > 0, "empty allocation '%s'", name.c_str());
        constexpr std::uint64_t page = 4 * KiB;
        IAT_ASSERT(bytes <= kLimit - next_,
                   "allocation '%s' of %llu bytes ends past the %llu GiB "
                   "the cache model's 32-bit line tags can address",
                   name.c_str(), static_cast<unsigned long long>(bytes),
                   static_cast<unsigned long long>(kLimit >> 30));
        const std::uint64_t rounded = (bytes + page - 1) / page * page;
        Region region{std::move(name), next_, rounded};
        next_ += rounded;
        regions_.push_back(region);
        return region;
    }

    std::uint64_t allocatedBytes() const { return next_ - kBase; }
    const std::vector<Region> &regions() const { return regions_; }

    /** End of the address space: 2^32 lines of 64 B, i.e. 256 GiB. */
    static constexpr cache::Addr kLimit =
        cache::kTagLineLimit * cacheLineBytes;

  private:
    /** First usable address; low memory stays unused. */
    static constexpr cache::Addr kBase = 1ull << 30;

    cache::Addr next_ = kBase;
    std::vector<Region> regions_;
};

} // namespace iat::sim

#endif // IATSIM_SIM_ADDRESS_SPACE_HH
