/**
 * @file
 * SlicedLlc implementation.
 */

#include "cache/llc.hh"

#include <algorithm>
#include <bit>

#include "util/logging.hh"

namespace iat::cache {

SlicedLlc::SlicedLlc(const CacheGeometry &geom, unsigned num_cores,
                     unsigned approx_k)
    : geom_(geom), num_cores_(num_cores),
      approx_k_(approx_k == 0 ? 1 : approx_k)
{
    IAT_ASSERT(geom_.valid(), "bad cache geometry");
    IAT_ASSERT(num_cores_ >= 1, "need at least one core");
    IAT_ASSERT(geom_.num_ways <= 32,
               "way bitmasks are 32 bits wide");
    IAT_ASSERT(std::has_single_bit(approx_k_),
               "set-sampling period must be a power of two, got %u",
               approx_k_);
    IAT_ASSERT((geom_.sets_per_slice & (approx_k_ - 1)) == 0,
               "set-sampling period %u must divide %u sets per slice",
               approx_k_, geom_.sets_per_slice);
    approx_shift_ =
        static_cast<unsigned>(std::countr_zero(approx_k_));
    approx_mask_ = approx_k_ - 1;

    const std::uint32_t model_sets =
        geom_.sampledSetsPerSlice(approx_k_);
    slices_.resize(geom_.num_slices);
    for (unsigned s = 0; s < geom_.num_slices; ++s) {
        Slice &sl = slices_[s];
        sl.store.assign(model_sets, geom_.num_ways, /*owner_bytes=*/true);
        if (approx_shift_ != 0) {
            sl.sample_match = s & approx_mask_;
            // Distinct nonzero per-slice stream; the constant pair is
            // splitmix64's increment and PCG's default multiplier.
            sl.est.rng = 0x9e3779b97f4a7c15ull ^
                         (0x5851f42d4c957f2dull * (s + 1));
        }
    }

    // Power-on defaults mirror real RDT: every CLOS may fill the whole
    // cache, every core sits in CLOS 0 / RMID 0, and DDIO owns the two
    // top ways (paper SS II-B: "by default, DDIO can only perform write
    // allocate on two LLC ways", drawn as ways N-1 and N in Fig 1).
    clos_masks_.assign(numClos, WayMask::full(geom_.num_ways));
    core_clos_.assign(num_cores_, 0);
    core_rmid_.assign(num_cores_, 0);
    ddio_mask_ = WayMask::fromRange(geom_.num_ways - 2, 2);

    core_counters_.assign(num_cores_, {});
    device_counters_.assign(numDevices, {});
    device_ddio_masks_.assign(numDevices, WayMask{});
    rmid_lines_.assign(numRmids, 0);
    bin_count_.assign(geom_.num_slices + 1, 0);
}

void
SlicedLlc::setShadow(LlcShadow *shadow)
{
    IAT_ASSERT(shadow == nullptr || approx_k_ == 1,
               "shadow validation is bit-exact and requires the exact "
               "model; this LLC samples 1/%u sets",
               approx_k_);
    shadow_ = shadow;
}

void
SlicedLlc::recordEst(Slice &sl, EstClassId cls, bool hit,
                     bool victim_wb)
{
    EstClass &c = sl.est.cls[cls];
    c.hits += hit;
    c.misses += !hit;
    c.victim_wbs += victim_wb;
    if (c.hits + c.misses >= kEstWindow) {
        c.hits >>= 1;
        c.misses >>= 1;
        c.victim_wbs >>= 1;
    }
}

void
SlicedLlc::estimateCoreOp(CoreId core, Slice &sl, CoreOp &op)
{
    ++sl.counters.lookups;
    if (!op.writeback)
        ++core_counters_[core].llc_refs;
    EstClass &c = sl.est.cls[op.writeback ? EstCoreWb : EstDemand];
    const std::uint64_t pop = c.hits + c.misses;
    // With no sampled evidence yet, report a miss -- the cold-cache
    // truth -- without spending an rng step.
    op.hit = pop != 0 && estDraw(sl.est.rng, c.hits, pop);
    op.victim_writeback = false;
    if (!op.hit) {
        if (!op.writeback)
            ++core_counters_[core].llc_misses;
        if (c.misses != 0 &&
            estDraw(sl.est.rng, c.victim_wbs, c.misses)) {
            op.victim_writeback = true;
            ++total_writebacks_;
        }
    }
}

AccessResult
SlicedLlc::estimateDdioWrite(Slice &sl, DeviceId dev)
{
    ++sl.counters.lookups;
    AccessResult result;
    if (!ddio_enabled_) {
        // The write lands in DRAM; an unsampled set holds no modelled
        // copy to drop, so this is pure counter work.
        return result;
    }
    SliceCounters *dev_ctr =
        dev < device_counters_.size() ? &device_counters_[dev] : nullptr;
    EstClass &c = sl.est.cls[EstDdio];
    const std::uint64_t pop = c.hits + c.misses;
    if (pop != 0 && estDraw(sl.est.rng, c.hits, pop)) {
        result.hit = true;
        ++sl.counters.ddio_hits;
        if (dev_ctr)
            ++dev_ctr->ddio_hits;
    } else {
        ++sl.counters.ddio_misses;
        if (dev_ctr)
            ++dev_ctr->ddio_misses;
        result.allocated = true;
        if (c.misses != 0 &&
            estDraw(sl.est.rng, c.victim_wbs, c.misses)) {
            result.writeback = true;
            ++total_writebacks_;
        }
    }
    return result;
}

AccessResult
SlicedLlc::estimateDeviceRead(Slice &sl)
{
    ++sl.counters.lookups;
    AccessResult result;
    EstClass &c = sl.est.cls[EstDevRead];
    const std::uint64_t pop = c.hits + c.misses;
    result.hit = pop != 0 && estDraw(sl.est.rng, c.hits, pop);
    return result;
}

void
SlicedLlc::setClosMask(ClosId clos, WayMask mask)
{
    IAT_ASSERT(clos < numClos, "CLOS out of range");
    IAT_ASSERT(mask.isValidCbm(), "CAT requires a non-empty consecutive "
               "capacity bitmask, got %s",
               mask.toString(geom_.num_ways).c_str());
    IAT_ASSERT(mask.highest() < geom_.num_ways,
               "mask exceeds way count");
    clos_masks_[clos] = mask;
    if (shadow_ != nullptr)
        shadow_->onSetClosMask(clos, mask);
}

WayMask
SlicedLlc::closMask(ClosId clos) const
{
    IAT_ASSERT(clos < numClos, "CLOS out of range");
    return clos_masks_[clos];
}

void
SlicedLlc::assocCoreClos(CoreId core, ClosId clos)
{
    IAT_ASSERT(core < num_cores_ && clos < numClos,
               "core/CLOS out of range");
    core_clos_[core] = clos;
    if (shadow_ != nullptr)
        shadow_->onAssocCoreClos(core, clos);
}

ClosId
SlicedLlc::coreClos(CoreId core) const
{
    IAT_ASSERT(core < num_cores_, "core out of range");
    return core_clos_[core];
}

void
SlicedLlc::assocCoreRmid(CoreId core, RmidId rmid)
{
    IAT_ASSERT(core < num_cores_ && rmid < numRmids,
               "core/RMID out of range");
    core_rmid_[core] = rmid;
    if (shadow_ != nullptr)
        shadow_->onAssocCoreRmid(core, rmid);
}

RmidId
SlicedLlc::coreRmid(CoreId core) const
{
    IAT_ASSERT(core < num_cores_, "core out of range");
    return core_rmid_[core];
}

void
SlicedLlc::setDdioMask(WayMask mask)
{
    IAT_ASSERT(mask.isValidCbm(), "DDIO mask must be non-empty and "
               "consecutive, got %s",
               mask.toString(geom_.num_ways).c_str());
    IAT_ASSERT(mask.highest() < geom_.num_ways,
               "DDIO mask exceeds way count");
    ddio_mask_ = mask;
    if (shadow_ != nullptr)
        shadow_->onSetDdioMask(mask);
}

void
SlicedLlc::setDeviceDdioMask(DeviceId dev, WayMask mask)
{
    IAT_ASSERT(dev < device_ddio_masks_.size(),
               "device out of range");
    IAT_ASSERT(mask.isValidCbm(), "device DDIO mask must be "
               "non-empty and consecutive");
    IAT_ASSERT(mask.highest() < geom_.num_ways,
               "device DDIO mask exceeds way count");
    device_ddio_masks_[dev] = mask;
    if (shadow_ != nullptr)
        shadow_->onSetDeviceDdioMask(dev, mask);
}

void
SlicedLlc::clearDeviceDdioMask(DeviceId dev)
{
    IAT_ASSERT(dev < device_ddio_masks_.size(),
               "device out of range");
    device_ddio_masks_[dev] = WayMask{};
    if (shadow_ != nullptr)
        shadow_->onClearDeviceDdioMask(dev);
}

WayMask
SlicedLlc::deviceDdioMask(DeviceId dev) const
{
    if (dev < device_ddio_masks_.size() &&
        !device_ddio_masks_[dev].empty()) {
        return device_ddio_masks_[dev];
    }
    return ddio_mask_;
}

bool
SlicedLlc::hasDeviceDdioMask(DeviceId dev) const
{
    return dev < device_ddio_masks_.size() &&
           !device_ddio_masks_[dev].empty();
}

unsigned
SlicedLlc::chooseVictim(const Slice &sl, unsigned set,
                        WayMask mask) const
{
    // Victim choice, pinned by RefLlc: the lowest invalid way in the
    // mask, else the least recently stamped way of the mask.
    const std::uint32_t invalid =
        mask.bits() & ~sl.store.meta(set).valid;
    if (invalid != 0)
        return static_cast<unsigned>(std::countr_zero(invalid));

    const std::uint32_t *ts = sl.store.stamps(set);
    unsigned victim = mask.lowest();
    std::uint32_t best_ts = UINT32_MAX;
    // ts <= best_ts (not <): of equal-stamped ways the highest wins,
    // matching the historical tie-break the tests pin down.
    for (std::uint32_t m = mask.bits(); m != 0; m &= m - 1) {
        const unsigned w = static_cast<unsigned>(std::countr_zero(m));
        if (ts[w] <= best_ts) {
            best_ts = ts[w];
            victim = w;
        }
    }
    return victim;
}

void
SlicedLlc::dropLine(Slice &sl, unsigned set, LineAddr line)
{
    const int w = sl.store.probe(set, line);
    if (w >= 0) {
        --rmid_lines_[sl.store.owners(set)[w]];
        sl.store.drop(set, static_cast<unsigned>(w));
    }
}

void
SlicedLlc::allocate(Slice &sl, unsigned set, LineAddr line,
                    WayMask mask, RmidId owner, bool dirty,
                    AccessResult &result)
{
    IAT_ASSERT(!mask.empty(), "allocation with empty way mask");
    const unsigned way = chooseVictim(sl, set, mask);
    const SetMeta &meta = sl.store.meta(set);
    std::uint8_t &slot = sl.store.owners(set)[way];
    if ((meta.valid >> way) & 1u) {
        if ((meta.dirty >> way) & 1u) {
            result.writeback = true;
            ++total_writebacks_;
        }
        --rmid_lines_[slot];
    }
    sl.store.fill(set, way, line, dirty);
    slot = static_cast<std::uint8_t>(owner);
    ++rmid_lines_[owner];
    result.allocated = true;
}

void
SlicedLlc::applyCoreOp(CoreId core, Slice &sl, unsigned set, CoreOp &op)
{
    if (approx_shift_ != 0) {
        if ((set & approx_mask_) != sl.sample_match) {
            estimateCoreOp(core, sl, op);
            return;
        }
        set >>= approx_shift_;
    }
    const LineAddr line = op.addr / geom_.line_bytes;
    ++sl.counters.lookups;
    if (!op.writeback)
        ++core_counters_[core].llc_refs;

    const int w = sl.store.probe(set, line);
    if (w >= 0) {
        // Footnote 1: hits are serviced from any way, even ways the
        // core's CLOS cannot allocate into.
        op.hit = true;
        op.victim_writeback = false;
        sl.store.touch(set, w,
                       op.writeback || op.type == AccessType::Write);
    } else {
        if (!op.writeback)
            ++core_counters_[core].llc_misses;
        AccessResult result;
        allocate(sl, set, line, clos_masks_[core_clos_[core]],
                 core_rmid_[core],
                 op.writeback || op.type == AccessType::Write, result);
        op.hit = false;
        op.victim_writeback = result.writeback;
    }
    if (approx_shift_ != 0)
        recordEst(sl, op.writeback ? EstCoreWb : EstDemand, op.hit,
                  op.victim_writeback);
    if (shadow_ != nullptr)
        shadow_->onCoreOp(core, op.addr, op.type, op.writeback, op.hit,
                          op.victim_writeback);
}

AccessResult
SlicedLlc::coreAccess(CoreId core, Addr addr, AccessType type)
{
    IAT_ASSERT(core < num_cores_, "core out of range");
    unsigned slice, set;
    locate(addr / geom_.line_bytes, slice, set);
    CoreOp op;
    op.addr = addr;
    op.type = type;
    applyCoreOp(core, slices_[slice], set, op);
    AccessResult result;
    result.hit = op.hit;
    result.writeback = op.victim_writeback;
    result.allocated = !op.hit;
    return result;
}

AccessResult
SlicedLlc::writebackFromCore(CoreId core, Addr addr)
{
    IAT_ASSERT(core < num_cores_, "core out of range");
    unsigned slice, set;
    locate(addr / geom_.line_bytes, slice, set);
    CoreOp op;
    op.addr = addr;
    op.writeback = true;
    applyCoreOp(core, slices_[slice], set, op);
    AccessResult result;
    result.hit = op.hit;
    result.writeback = op.victim_writeback;
    result.allocated = !op.hit;
    return result;
}

void
SlicedLlc::binBySlice(std::size_t n)
{
    // Stable counting sort of op indices by slice: bin_count_ first
    // holds per-slice counts, then exclusive prefix offsets that the
    // scatter pass advances.
    std::fill(bin_count_.begin(), bin_count_.end(), 0);
    for (std::size_t i = 0; i < n; ++i)
        ++bin_count_[bin_slice_[i]];
    std::uint32_t off = 0;
    for (auto &c : bin_count_) {
        const std::uint32_t count = c;
        c = off;
        off += count;
    }
    bin_order_.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        bin_order_[bin_count_[bin_slice_[i]]++] =
            static_cast<std::uint32_t>(i);
}

void
SlicedLlc::accessBatch(CoreId core, CoreOp *ops, std::size_t n,
                       BatchCounts &out)
{
    IAT_ASSERT(core < num_cores_, "core out of range");
    if (n == 0)
        return;
    if (n == 1) {
        unsigned slice, set;
        locate(ops[0].addr / geom_.line_bytes, slice, set);
        applyCoreOp(core, slices_[slice], set, ops[0]);
    } else {
        bin_slice_.resize(n);
        bin_set_.resize(n);
        for (std::size_t i = 0; i < n; ++i)
            locate(ops[i].addr / geom_.line_bytes, bin_slice_[i],
                   bin_set_[i]);
        binBySlice(n);
        for (std::size_t k = 0; k < n; ++k) {
            const std::uint32_t i = bin_order_[k];
            applyCoreOp(core, slices_[bin_slice_[i]], bin_set_[i],
                        ops[i]);
        }
    }
    for (std::size_t i = 0; i < n; ++i) {
        if (!ops[i].writeback) {
            out.demand_hits += ops[i].hit;
            out.demand_misses += !ops[i].hit;
        }
        out.writebacks += ops[i].victim_writeback;
    }
}

AccessResult
SlicedLlc::applyDdioWrite(Slice &sl, unsigned set, LineAddr line,
                          DeviceId dev)
{
    if (approx_shift_ != 0) {
        if ((set & approx_mask_) != sl.sample_match)
            return estimateDdioWrite(sl, dev);
        set >>= approx_shift_;
    }
    ++sl.counters.lookups;
    AccessResult result;
    SliceCounters *dev_ctr =
        dev < device_counters_.size() ? &device_counters_[dev] : nullptr;

    if (!ddio_enabled_) {
        // DDIO off: the write still snoops the coherence domain (paper
        // SS II-B) but the data lands in DRAM; drop any stale copy.
        dropLine(sl, set, line);
    } else if (const int w = sl.store.probe(set, line); w >= 0) {
        // Write update: the paper's "DDIO hit".
        result.hit = true;
        sl.store.touch(set, w, true);
        ++sl.counters.ddio_hits;
        if (dev_ctr)
            ++dev_ctr->ddio_hits;
    } else {
        // Write allocate into the (device's) DDIO ways: a "DDIO miss".
        ++sl.counters.ddio_misses;
        if (dev_ctr)
            ++dev_ctr->ddio_misses;
        allocate(sl, set, line, deviceDdioMask(dev), ddioRmid,
                 /*dirty=*/true, result);
    }
    if (approx_shift_ != 0 && ddio_enabled_)
        recordEst(sl, EstDdio, result.hit, result.writeback);
    if (shadow_ != nullptr)
        shadow_->onDdioWrite(line * geom_.line_bytes, dev, result);
    return result;
}

AccessResult
SlicedLlc::ddioWrite(Addr addr, DeviceId dev)
{
    const LineAddr line = addr / geom_.line_bytes;
    unsigned slice, set;
    locate(line, slice, set);
    return applyDdioWrite(slices_[slice], set, line, dev);
}

void
SlicedLlc::ddioWriteRange(Addr addr, std::uint32_t lines, DeviceId dev,
                          DmaCounts &out)
{
    const LineAddr first = addr / geom_.line_bytes;
    if (lines == 1) {
        unsigned slice, set;
        locate(first, slice, set);
        const auto r =
            applyDdioWrite(slices_[slice], set, first, dev);
        out.hits += r.hit;
        out.misses += !r.hit;
        out.writebacks += r.writeback;
        return;
    }
    bin_slice_.resize(lines);
    bin_set_.resize(lines);
    for (std::uint32_t i = 0; i < lines; ++i)
        locate(first + i, bin_slice_[i], bin_set_[i]);
    binBySlice(lines);
    for (std::uint32_t k = 0; k < lines; ++k) {
        const std::uint32_t i = bin_order_[k];
        const auto r = applyDdioWrite(slices_[bin_slice_[i]],
                                      bin_set_[i], first + i, dev);
        out.hits += r.hit;
        out.misses += !r.hit;
        out.writebacks += r.writeback;
    }
}

AccessResult
SlicedLlc::deviceRead(Addr addr, DeviceId dev)
{
    const LineAddr line = addr / geom_.line_bytes;
    unsigned slice, set;
    locate(line, slice, set);

    Slice &sl = slices_[slice];
    if (approx_shift_ != 0) {
        if ((set & approx_mask_) != sl.sample_match)
            return estimateDeviceRead(sl);
        set >>= approx_shift_;
    }
    ++sl.counters.lookups;
    AccessResult result;
    const int w = sl.store.probe(set, line);
    if (w >= 0) {
        result.hit = true;
        sl.store.touch(set, w, false);
    }
    // Device reads that miss are serviced from DRAM and, per SS II-B,
    // are not allocated in the LLC.
    if (approx_shift_ != 0)
        recordEst(sl, EstDevRead, result.hit, false);
    if (shadow_ != nullptr)
        shadow_->onDeviceRead(addr, dev, result);
    return result;
}

void
SlicedLlc::deviceReadRange(Addr addr, std::uint32_t lines,
                           DeviceId dev, DmaCounts &out)
{
    const LineAddr first = addr / geom_.line_bytes;
    for (std::uint32_t i = 0; i < lines; ++i) {
        const auto r = deviceRead((first + i) * geom_.line_bytes, dev);
        out.hits += r.hit;
        out.misses += !r.hit;
    }
}

bool
SlicedLlc::isPresent(Addr addr) const
{
    const LineAddr line = addr / geom_.line_bytes;
    unsigned slice, set;
    locate(line, slice, set);
    if (!setSampled(slice, set))
        return false;
    return slices_[slice].store.probe(set >> approx_shift_, line) >= 0;
}

void
SlicedLlc::invalidate(Addr addr)
{
    const LineAddr line = addr / geom_.line_bytes;
    unsigned slice, set;
    locate(line, slice, set);
    if (setSampled(slice, set))
        dropLine(slices_[slice], set >> approx_shift_, line);
    if (shadow_ != nullptr)
        shadow_->onInvalidate(addr);
}

void
SlicedLlc::invalidateRange(Addr addr, std::uint64_t bytes)
{
    if (bytes == 0)
        return;
    IAT_ASSERT(bytes - 1 <= ~addr, "invalidate range wraps");
    const LineAddr first = addr / geom_.line_bytes;
    const LineAddr last = (addr + (bytes - 1)) / geom_.line_bytes;
    checkTagLine(last, geom_.line_bytes);
    // Dropping a line touches only its own set's valid bit and its
    // owner's occupancy, so the walk order cannot change the result.
    for (auto &sl : slices_) {
        TagStore &st = sl.store;
        const auto sets = static_cast<unsigned>(st.sets());
        for (unsigned set = 0; set < sets; ++set) {
            for (std::uint32_t m = st.validInRange(set, first, last);
                 m != 0; m &= m - 1) {
                const auto w = static_cast<unsigned>(std::countr_zero(m));
                --rmid_lines_[st.owners(set)[w]];
                st.drop(set, w);
                if (shadow_ != nullptr)
                    shadow_->onInvalidate(st.tag(set, w) *
                                          geom_.line_bytes);
            }
        }
    }
}

void
SlicedLlc::flushAll()
{
    for (auto &sl : slices_) {
        sl.store.clear();
        // The estimator's evidence described the pre-flush cache;
        // restart it cold (the rng stream keeps running).
        for (auto &c : sl.est.cls)
            c = EstClass{};
    }
    rmid_lines_.assign(numRmids, 0);
    if (shadow_ != nullptr)
        shadow_->onFlushAll();
}

const SliceCounters &
SlicedLlc::sliceCounters(unsigned slice) const
{
    IAT_ASSERT(slice < slices_.size(), "slice out of range");
    return slices_[slice].counters;
}

const CoreCacheCounters &
SlicedLlc::coreCounters(CoreId core) const
{
    IAT_ASSERT(core < num_cores_, "core out of range");
    return core_counters_[core];
}

const SliceCounters &
SlicedLlc::deviceCounters(DeviceId dev) const
{
    IAT_ASSERT(dev < device_counters_.size(), "device out of range");
    return device_counters_[dev];
}

std::uint64_t
SlicedLlc::rmidLines(RmidId rmid) const
{
    IAT_ASSERT(rmid < numRmids, "RMID out of range");
    return rmid_lines_[rmid] * approx_k_;
}

std::uint64_t
SlicedLlc::rmidBytes(RmidId rmid) const
{
    return rmidLines(rmid) * geom_.line_bytes;
}

SlicedLlc::LineView
SlicedLlc::lineAt(unsigned slice, unsigned set, unsigned way) const
{
    IAT_ASSERT(slice < slices_.size(), "slice out of range");
    IAT_ASSERT(set < geom_.sets_per_slice, "set out of range");
    IAT_ASSERT(way < geom_.num_ways, "way out of range");
    if (!setSampled(slice, set))
        return LineView{};
    set >>= approx_shift_;
    const TagStore &st = slices_[slice].store;
    LineView view;
    view.valid = ((st.meta(set).valid >> way) & 1u) != 0;
    view.dirty = ((st.meta(set).dirty >> way) & 1u) != 0;
    view.tag = st.tag(set, way);
    view.owner = st.owners(set)[way];
    view.ts = st.stamps(set)[way];
    return view;
}

std::uint32_t
SlicedLlc::sliceClock(unsigned slice) const
{
    IAT_ASSERT(slice < slices_.size(), "slice out of range");
    return slices_[slice].store.clock;
}

} // namespace iat::cache
