/**
 * @file
 * Shared identifier types for the cache/RDT/platform layers.
 */

#ifndef IATSIM_CACHE_TYPES_HH
#define IATSIM_CACHE_TYPES_HH

#include <cstdint>

namespace iat::cache {

/** Byte address in the modelled physical address space. */
using Addr = std::uint64_t;

/** Cache-line address (byte address >> 6). */
using LineAddr = std::uint64_t;

/**
 * The caches store 32-bit tags, so every modelled line address lies
 * below this: byte addresses below 256 GiB with 64 B lines.
 */
constexpr LineAddr kTagLineLimit = LineAddr{1} << 32;

/** Hardware thread / core index. */
using CoreId = std::uint16_t;

/** CAT class of service. */
using ClosId = std::uint16_t;

/** CMT resource monitoring id. */
using RmidId = std::uint16_t;

/** PCIe device index (NIC 0/1, ...). */
using DeviceId = std::uint16_t;

/** Read vs write demand access. */
enum class AccessType { Read, Write };

/** Outcome of one LLC access, for latency and DRAM accounting. */
struct AccessResult
{
    /** Line was present in the LLC (any way). */
    bool hit = false;
    /** A valid dirty victim was evicted and must be written to DRAM. */
    bool writeback = false;
    /** A line was allocated (miss fill / write allocate). */
    bool allocated = false;
};

} // namespace iat::cache

#endif // IATSIM_CACHE_TYPES_HH
