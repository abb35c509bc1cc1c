//! The software data cache of §3 — implemented, not just sketched.
//!
//! The paper's design, reproduced here:
//!
//! * a **fully associative** cache of fixed-size blocks, "blocks and
//!   corresponding tags ... kept in sorted order";
//! * a three-stage access: (1) an in-line predicted tag check — "the
//!   variable predicts that the next access will hit the same cache
//!   location"; (2) on mismatch, "a subroutine performs a binary search of
//!   the entire dcache for the indicated tag. A match at this point is
//!   termed a **slow hit**"; (3) a true miss goes to the server.
//! * prediction variants: same-index, stride, and "second-chance"
//!   prediction of index i+1 — all three are implemented as an ablation.
//! * **specialised accesses**: blocks covered by a pinned range behave as
//!   the rewritten constant-address load of Figure 10 (top) — no tag check
//!   at all. Pinning also exercises the §4 "flexible data pinning"
//!   capability.
//!
//! The guarantee the paper claims follows by construction: "the guaranteed
//! memory latency is the speed of a slow hit: the time to find data
//! on-chip without consulting the server" — resident data is always found
//! by the binary search, never re-fetched.

use crate::cc::CacheError;
use crate::endpoint::McEndpoint;
use crate::integrity::MemFaultInjector;
use crate::protocol::{Reply, Request};
use softcache_net::envelope::crc32;
use softcache_net::{LinkModel, LinkStats};

/// Store handling policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WritePolicy {
    /// Dirty blocks are written back on eviction (the default; matches the
    /// paper's replacement-communicates-with-server description).
    WriteBack,
    /// Every store is forwarded to the server immediately; blocks are
    /// never dirty. Trades steady write traffic for instant consistency —
    /// useful when another agent (or a checkpointer) reads server memory.
    WriteThrough,
}

/// Index prediction policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Prediction {
    /// No prediction: every access binary-searches (all hits are slow).
    None,
    /// Predict the same index as the site's previous access.
    SameIndex,
    /// Predict `previous index + (previous stride)` (the sorted array makes
    /// sequential scans stride through indices).
    Stride,
    /// Same index, then one "second-chance" probe at `i + 1` before
    /// falling back to the search.
    SecondChance,
}

/// Data cache configuration.
#[derive(Clone, Copy, Debug)]
pub struct DcacheConfig {
    /// Block size in bytes (power of two, ≥ 4).
    pub block_bytes: u32,
    /// Capacity in blocks.
    pub capacity_blocks: u32,
    /// Prediction policy.
    pub prediction: Prediction,
    /// Store handling policy.
    pub write_policy: WritePolicy,
    /// Link model for fills/writebacks.
    pub link: LinkModel,
    /// Cycles for the in-line predicted tag check (the ~8-instruction
    /// sequence of Figure 10, bottom).
    pub check_cycles: u64,
    /// Extra cycles per binary-search probe on a slow hit.
    pub probe_cycles: u64,
    /// Fixed CC-side cycles per miss (handler entry + insertion).
    pub miss_cycles: u64,
}

impl Default for DcacheConfig {
    fn default() -> DcacheConfig {
        DcacheConfig {
            block_bytes: 32,
            capacity_blocks: 64,
            prediction: Prediction::SameIndex,
            write_policy: WritePolicy::WriteBack,
            link: LinkModel::default(),
            check_cycles: 8,
            probe_cycles: 4,
            miss_cycles: 24,
        }
    }
}

/// Data cache statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DcacheStats {
    /// Accesses serviced.
    pub accesses: u64,
    /// Accesses to pinned (specialised) blocks.
    pub pinned_hits: u64,
    /// Predicted-index hits (fast path).
    pub fast_hits: u64,
    /// Binary-search hits.
    pub slow_hits: u64,
    /// Misses (server fills).
    pub misses: u64,
    /// Dirty evictions written back (write-back) or stores forwarded
    /// (write-through).
    pub writebacks: u64,
    /// Total binary-search probes.
    pub probes: u64,
    /// Extra cycles charged for checks/searches/misses (includes link
    /// stalls for fills and writebacks).
    pub extra_cycles: u64,
    /// The on-chip subset of `extra_cycles`: tag checks, search probes and
    /// miss-handler entry, excluding link stalls — the cost the Figure 10
    /// instruction sequences embody.
    pub onchip_cycles: u64,
    /// Link traffic for fills and writebacks.
    pub link: LinkStats,
}

#[derive(Clone, Debug)]
struct DBlock {
    tag: u32, // addr / block_bytes
    data: Vec<u8>,
    dirty: bool,
    last_use: u64,
    /// CRC-32 of `data`, computed at fill and on every store once
    /// [`Dcache::arm_seals`] armed sealing: `None` on an unarmed cache,
    /// where nothing would read it. Lives in CC metadata (this struct),
    /// never in simulated memory; `scrub` verifies it (DESIGN.md §13).
    seal: Option<u32>,
}

#[derive(Clone, Copy, Debug, Default)]
struct SitePrediction {
    index: u32,
    stride: i32,
    valid: bool,
}

/// Prediction-table entries per page: 1024 sites = 4 KiB of code.
const PRED_PAGE_SLOTS: usize = 1024;
const PRED_PAGE_SHIFT: u32 = 10;

/// Hard ceiling on allocated prediction pages: one slot per word of the
/// simulated address space. [`Dcache::check_invariants`] asserts it.
const PRED_MAX_PAGES: usize =
    (softcache_isa::layout::MEM_SIZE as usize / 4).div_ceil(PRED_PAGE_SLOTS);

/// One predicted-index entry, stamped with the epoch it was written in.
/// `epoch == 0` means never written; entries from older epochs read as
/// invalid without ever being cleared.
#[derive(Clone, Copy, Default)]
struct PredEntry {
    index: u32,
    stride: i32,
    epoch: u32,
}

/// Flat, epoch-checked predicted-index side table — the data-side analogue
/// of the superblock cache's page map. Sites are the PCs of load/store
/// instructions (always word-aligned), so `site >> 2` indexes a lazily
/// paged flat array and the per-access `HashMap` lookup becomes two array
/// derefs plus an epoch compare. Bumping the epoch invalidates every
/// prediction in O(1), which bounds the table across flush/resync cycles.
struct PredTable {
    pages: Vec<Option<Box<[PredEntry]>>>,
    epoch: u32,
}

impl PredTable {
    fn new() -> PredTable {
        PredTable {
            pages: Vec::new(),
            epoch: 1,
        }
    }

    /// Invalidate every entry (O(1): stale epochs read as invalid).
    fn clear(&mut self) {
        self.epoch += 1;
    }

    fn pages_allocated(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }

    #[inline]
    fn get(&self, site: u32) -> SitePrediction {
        let idx = (site >> 2) as usize;
        let (page_no, slot_no) = (idx >> PRED_PAGE_SHIFT, idx & (PRED_PAGE_SLOTS - 1));
        if site & 3 == 0 {
            if let Some(Some(page)) = self.pages.get(page_no) {
                let e = page[slot_no];
                if e.epoch == self.epoch {
                    return SitePrediction {
                        index: e.index,
                        stride: e.stride,
                        valid: true,
                    };
                }
            }
        }
        SitePrediction::default()
    }

    #[inline]
    fn set(&mut self, site: u32, index: u32, stride: i32) {
        if site & 3 != 0 {
            return; // misaligned sites (never real PCs) are not memoised
        }
        let idx = (site >> 2) as usize;
        let (page_no, slot_no) = (idx >> PRED_PAGE_SHIFT, idx & (PRED_PAGE_SLOTS - 1));
        if page_no >= self.pages.len() {
            self.pages.resize_with(page_no + 1, || None);
        }
        let page = self.pages[page_no]
            .get_or_insert_with(|| vec![PredEntry::default(); PRED_PAGE_SLOTS].into_boxed_slice());
        page[slot_no] = PredEntry {
            index,
            stride,
            epoch: self.epoch,
        };
    }
}

/// The fully associative software data cache.
pub struct Dcache {
    cfg: DcacheConfig,
    /// Sorted by tag.
    blocks: Vec<DBlock>,
    /// Per-site (per-PC) prediction variables — "additional variables
    /// outside the dcache" — in a flat epoch-checked side table.
    predictions: PredTable,
    /// Pinned address ranges (inclusive start, exclusive end).
    pinned: Vec<(u32, u32)>,
    clock: u64,
    /// Whether lines carry seals: set by [`Dcache::arm_seals`] on a run
    /// under a fault plan.
    sealed: bool,
    /// Statistics.
    pub stats: DcacheStats,
}

impl Dcache {
    /// Fresh cache.
    pub fn new(cfg: DcacheConfig) -> Dcache {
        assert!(cfg.block_bytes.is_power_of_two() && cfg.block_bytes >= 4);
        assert!(cfg.capacity_blocks >= 2, "need at least two blocks");
        Dcache {
            cfg,
            blocks: Vec::new(),
            predictions: PredTable::new(),
            pinned: Vec::new(),
            clock: 0,
            sealed: false,
            stats: DcacheStats::default(),
        }
    }

    /// Seal every line from now on, for [`Dcache::scrub`]: the run is
    /// under a fault plan. Call it before the first fill.
    pub(crate) fn arm_seals(&mut self) {
        debug_assert!(self.blocks.is_empty(), "armed after the first fill");
        self.sealed = true;
    }

    /// The configuration.
    pub fn config(&self) -> &DcacheConfig {
        &self.cfg
    }

    /// Pin an address range: its blocks are fetched eagerly, never evicted,
    /// and accesses to them cost nothing extra (the Figure 10 specialised
    /// form). Pinned blocks count against capacity.
    pub fn pin(
        &mut self,
        ep: &mut McEndpoint,
        range: (u32, u32),
        extra_cycles: &mut u64,
    ) -> Result<(), CacheError> {
        let (lo, hi) = range;
        assert!(lo < hi, "empty pin range");
        let first = lo / self.cfg.block_bytes;
        let last = (hi - 1) / self.cfg.block_bytes;
        let pinned_count = (last - first + 1) as usize;
        assert!(
            pinned_count < self.cfg.capacity_blocks as usize,
            "pin range consumes the whole dcache"
        );
        // Register the range first so the fills below can never evict a
        // block of the range being pinned.
        self.pinned.push((lo, hi));
        for tag in first..=last {
            if self.search(tag).is_err() {
                self.fill(ep, tag, extra_cycles)?;
            }
        }
        Ok(())
    }

    /// Is this *access address* inside a pinned (specialised) range?
    fn is_pinned(&self, addr: u32) -> bool {
        self.pinned.iter().any(|&(lo, hi)| addr >= lo && addr < hi)
    }

    /// Does this block overlap any pinned range? Such blocks must never be
    /// evicted, even when only part of the block is pinned.
    fn block_pinned(&self, tag: u32) -> bool {
        let start = tag * self.cfg.block_bytes;
        let end = start + self.cfg.block_bytes;
        self.pinned.iter().any(|&(lo, hi)| lo < end && hi > start)
    }

    fn tag_of(&self, addr: u32) -> u32 {
        addr / self.cfg.block_bytes
    }

    /// Binary search; Ok(index) on hit, Err(insert_pos) on miss. Counts
    /// probes.
    fn search(&self, tag: u32) -> Result<usize, usize> {
        self.blocks.binary_search_by_key(&tag, |b| b.tag)
    }

    fn probes_for_search(&self) -> u64 {
        // log2(n) + 1 probes for a binary search over n sorted blocks.
        (usize::BITS - self.blocks.len().leading_zeros()) as u64 + 1
    }

    /// Fetch the block for `tag` from the server, evicting if full.
    /// Returns its index.
    fn fill(
        &mut self,
        ep: &mut McEndpoint,
        tag: u32,
        extra_cycles: &mut u64,
    ) -> Result<usize, CacheError> {
        // Evict first if at capacity.
        if self.blocks.len() as u32 >= self.cfg.capacity_blocks {
            let victim = self
                .blocks
                .iter()
                .enumerate()
                .filter(|(_, b)| !self.block_pinned(b.tag))
                .min_by_key(|(_, b)| b.last_use)
                .map(|(i, _)| i)
                .expect("pin() keeps at least one evictable block");
            let b = self.blocks.remove(victim);
            if b.dirty {
                let addr = b.tag * self.cfg.block_bytes;
                let out = ep.rpc(&Request::WriteData {
                    addr,
                    bytes: b.data,
                })?;
                *extra_cycles += out.charge(&mut self.stats.link, &self.cfg.link);
                if !matches!(out.reply, Reply::Ack) {
                    return Err(CacheError::Proto);
                }
                self.stats.writebacks += 1;
            }
        }
        let addr = tag * self.cfg.block_bytes;
        let out = ep.rpc(&Request::FetchData {
            addr,
            len: self.cfg.block_bytes,
        })?;
        *extra_cycles += out.charge(&mut self.stats.link, &self.cfg.link);
        let data = match out.reply {
            Reply::Data(d) if d.len() == self.cfg.block_bytes as usize => d,
            Reply::Err(code) => return Err(CacheError::Mc(code)),
            _ => return Err(CacheError::Proto),
        };
        self.clock += 1;
        let pos = self.search(tag).expect_err("filling a missing tag");
        let seal = self.sealed.then(|| crc32(&data));
        self.blocks.insert(
            pos,
            DBlock {
                tag,
                data,
                dirty: false,
                last_use: self.clock,
                seal,
            },
        );
        self.stats.misses += 1;
        *extra_cycles += self.cfg.miss_cycles;
        self.stats.onchip_cycles += self.cfg.miss_cycles;
        Ok(pos)
    }

    /// Locate the block for an access at `addr` issued from instruction
    /// `site`, applying the prediction policy and charging cycles into
    /// `extra`. Returns the block index.
    fn locate(
        &mut self,
        ep: &mut McEndpoint,
        site: u32,
        addr: u32,
        extra: &mut u64,
    ) -> Result<usize, CacheError> {
        let tag = self.tag_of(addr);
        self.stats.accesses += 1;

        if self.is_pinned(addr) {
            // Specialised constant-address form: no check at all.
            self.stats.pinned_hits += 1;
            let idx = self.search(tag).expect("pinned blocks are resident");
            return Ok(idx);
        }

        *extra += self.cfg.check_cycles;
        self.stats.onchip_cycles += self.cfg.check_cycles;
        let pred = self.predictions.get(site);

        // Fast path: predicted index(es).
        let mut candidates: [Option<u32>; 2] = [None, None];
        if pred.valid {
            match self.cfg.prediction {
                Prediction::None => {}
                Prediction::SameIndex => candidates[0] = Some(pred.index),
                Prediction::Stride => {
                    candidates[0] = Some(pred.index.wrapping_add_signed(pred.stride))
                }
                Prediction::SecondChance => {
                    candidates[0] = Some(pred.index);
                    candidates[1] = Some(pred.index + 1);
                }
            }
        }
        for (n, cand) in candidates.iter().flatten().enumerate() {
            if let Some(b) = self.blocks.get(*cand as usize) {
                if b.tag == tag {
                    if n > 0 {
                        // Second probe costs one more check.
                        *extra += self.cfg.check_cycles;
                        self.stats.onchip_cycles += self.cfg.check_cycles;
                    }
                    self.stats.fast_hits += 1;
                    let idx = *cand as usize;
                    self.touch(idx);
                    self.update_prediction(site, pred, idx);
                    return Ok(idx);
                }
            }
        }

        // Slow path: binary search of the sorted dcache.
        let probes = self.probes_for_search();
        match self.search(tag) {
            Ok(idx) => {
                self.stats.slow_hits += 1;
                self.stats.probes += probes;
                *extra += probes * self.cfg.probe_cycles;
                self.stats.onchip_cycles += probes * self.cfg.probe_cycles;
                self.touch(idx);
                self.update_prediction(site, pred, idx);
                Ok(idx)
            }
            Err(_) => {
                self.stats.probes += probes;
                *extra += probes * self.cfg.probe_cycles;
                self.stats.onchip_cycles += probes * self.cfg.probe_cycles;
                let idx = self.fill(ep, tag, extra)?;
                self.update_prediction(site, pred, idx);
                Ok(idx)
            }
        }
    }

    fn touch(&mut self, idx: usize) {
        self.clock += 1;
        self.blocks[idx].last_use = self.clock;
    }

    fn update_prediction(&mut self, site: u32, prev: SitePrediction, idx: usize) {
        let stride = if prev.valid {
            idx as i32 - prev.index as i32
        } else {
            0
        };
        self.predictions.set(site, idx as u32, stride);
    }

    /// Read `width` bytes at `addr` (must not cross a block).
    pub fn read(
        &mut self,
        ep: &mut McEndpoint,
        site: u32,
        addr: u32,
        width: u32,
    ) -> Result<(u32, u64), CacheError> {
        let mut extra = 0u64;
        let idx = self.locate(ep, site, addr, &mut extra)?;
        let off = (addr % self.cfg.block_bytes) as usize;
        let b = &self.blocks[idx];
        let mut v = 0u32;
        for i in (0..width as usize).rev() {
            v = (v << 8) | b.data[off + i] as u32;
        }
        self.stats.extra_cycles += extra;
        Ok((v, extra))
    }

    /// Write the low `width` bytes of `value` at `addr`.
    pub fn write(
        &mut self,
        ep: &mut McEndpoint,
        site: u32,
        addr: u32,
        width: u32,
        value: u32,
    ) -> Result<u64, CacheError> {
        let mut extra = 0u64;
        let idx = self.locate(ep, site, addr, &mut extra)?;
        let off = (addr % self.cfg.block_bytes) as usize;
        let b = &mut self.blocks[idx];
        for i in 0..width as usize {
            b.data[off + i] = (value >> (8 * i)) as u8;
        }
        if let Some(seal) = &mut b.seal {
            *seal = crc32(&b.data);
        }
        match self.cfg.write_policy {
            WritePolicy::WriteBack => b.dirty = true,
            WritePolicy::WriteThrough => {
                let bytes = value.to_le_bytes()[..width as usize].to_vec();
                let out = ep.rpc(&Request::WriteData { addr, bytes })?;
                extra += out.charge(&mut self.stats.link, &self.cfg.link);
                if !matches!(out.reply, Reply::Ack) {
                    return Err(CacheError::Proto);
                }
                self.stats.writebacks += 1;
            }
        }
        self.stats.extra_cycles += extra;
        Ok(extra)
    }

    /// Write all dirty blocks back to the server (end of run, or before
    /// handing memory to another agent).
    pub fn flush_dirty(&mut self, ep: &mut McEndpoint) -> Result<(), CacheError> {
        for b in &mut self.blocks {
            if b.dirty {
                let addr = b.tag * self.cfg.block_bytes;
                let out = ep.rpc(&Request::WriteData {
                    addr,
                    bytes: b.data.clone(),
                })?;
                let _ = out.charge(&mut self.stats.link, &self.cfg.link);
                if !matches!(out.reply, Reply::Ack) {
                    return Err(CacheError::Proto);
                }
                b.dirty = false;
                self.stats.writebacks += 1;
            }
        }
        // A flush marks a lifecycle boundary (end of run, hand-off,
        // resync): drop every site prediction so the table cannot grow
        // without bound across flush/resync cycles. Predictions are pure
        // hints — invalidating them costs at most one slow search per
        // site, never correctness.
        self.predictions.clear();
        Ok(())
    }

    /// Flip one seeded bit in a clean, unpinned resident line. Dirty
    /// lines hold the only copy of their data (no ECC to recover from),
    /// and pinned lines must stay resident for the specialised access
    /// form, so neither is a target. Returns whether a flip landed.
    pub fn inject_flip(&mut self, inj: &mut MemFaultInjector) -> bool {
        let candidates: Vec<usize> = (0..self.blocks.len())
            .filter(|&i| !self.blocks[i].dirty && !self.block_pinned(self.blocks[i].tag))
            .collect();
        if candidates.is_empty() {
            return false;
        }
        let idx = candidates[inj.pick(candidates.len() as u64) as usize];
        let b = &mut self.blocks[idx];
        let byte = inj.pick(b.data.len() as u64) as usize;
        b.data[byte] ^= 1u8 << inj.pick(8);
        true
    }

    /// Verify every clean, unpinned line against its seal, dropping
    /// corrupted ones — a clean line is a pure copy of server memory, so
    /// recovery is simply a refill on next access. Returns
    /// `(lines_checked, violations)` for the caller's integrity ledger. An
    /// unarmed cache holds no seals and checks nothing.
    pub fn scrub(&mut self) -> (u64, u64) {
        let mut checked = 0u64;
        let mut violations = 0u64;
        let mut i = 0;
        while i < self.blocks.len() {
            let b = &self.blocks[i];
            let Some(seal) = b.seal.filter(|_| !b.dirty && !self.block_pinned(b.tag)) else {
                i += 1;
                continue;
            };
            checked += 1;
            if crc32(&b.data) == seal {
                i += 1;
            } else {
                violations += 1;
                self.blocks.remove(i);
            }
        }
        (checked, violations)
    }

    /// Invariant check: blocks sorted by tag, unique, and the prediction
    /// side table bounded by the simulated address space.
    pub fn check_invariants(&self) {
        for w in self.blocks.windows(2) {
            assert!(w[0].tag < w[1].tag, "dcache blocks must stay sorted+unique");
        }
        assert!(
            self.predictions.pages.len() <= PRED_MAX_PAGES,
            "prediction table exceeds the address-space bound"
        );
        assert!(
            self.predictions.pages_allocated() <= PRED_MAX_PAGES,
            "prediction table exceeds the address-space bound"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mc::Mc;
    use softcache_asm::assemble;
    use softcache_isa::layout::DATA_BASE;

    fn setup(cfg: DcacheConfig) -> (Dcache, McEndpoint) {
        let image = assemble("_start: halt\n.data\narr: .space 4096").unwrap();
        (Dcache::new(cfg), McEndpoint::direct(Mc::new(image)))
    }

    #[test]
    fn an_unarmed_dcache_keeps_no_seals() {
        // Four fills, then stores into two of the lines.
        let run = |armed: bool| {
            let (mut dc, mut ep) = setup(DcacheConfig::default());
            if armed {
                dc.arm_seals();
            }
            for line in 0..4 {
                dc.read(&mut ep, 0x100, DATA_BASE + line * 32, 4).unwrap();
            }
            dc.write(&mut ep, 0x104, DATA_BASE + 8, 4, 7).unwrap();
            dc.write(&mut ep, 0x104, DATA_BASE + 72, 4, 9).unwrap();
            assert_eq!(dc.blocks.len(), 4);
            dc
        };
        let dc = run(false);
        assert!(dc.blocks.iter().all(|b| b.seal.is_none()));
        let dc = run(true);
        assert!(
            dc.blocks.iter().all(|b| b.seal == Some(crc32(&b.data))),
            "an armed dcache seals every line, and reseals it on a store"
        );
    }

    #[test]
    fn read_after_write_roundtrip() {
        let (mut dc, mut ep) = setup(DcacheConfig::default());
        dc.write(&mut ep, 0x100, DATA_BASE + 8, 4, 0xDEADBEEF)
            .unwrap();
        let (v, _) = dc.read(&mut ep, 0x104, DATA_BASE + 8, 4).unwrap();
        assert_eq!(v, 0xDEADBEEF);
        // Byte granular.
        dc.write(&mut ep, 0x100, DATA_BASE + 13, 1, 0xAB).unwrap();
        let (v, _) = dc.read(&mut ep, 0x104, DATA_BASE + 13, 1).unwrap();
        assert_eq!(v, 0xAB);
        dc.check_invariants();
    }

    #[test]
    fn fast_hit_after_first_access() {
        let (mut dc, mut ep) = setup(DcacheConfig::default());
        let a = DATA_BASE + 64;
        dc.read(&mut ep, 0x200, a, 4).unwrap();
        assert_eq!(dc.stats.misses, 1);
        let (_, extra) = dc.read(&mut ep, 0x200, a, 4).unwrap();
        assert_eq!(dc.stats.fast_hits, 1, "same site, same block: predicted");
        assert_eq!(extra, dc.config().check_cycles, "fast hit = one check");
    }

    #[test]
    fn prediction_table_epoch_clear_and_alignment() {
        let mut t = PredTable::new();
        t.set(0x100, 7, 1);
        let p = t.get(0x100);
        assert!(p.valid && p.index == 7 && p.stride == 1);
        t.clear();
        assert!(!t.get(0x100).valid, "epoch bump invalidates in O(1)");
        t.set(0x100, 9, 0);
        assert_eq!(t.get(0x100).index, 9, "re-set after clear revalidates");
        // Misaligned sites (never real PCs) are neither memoised nor
        // allowed to collide with the word-aligned neighbour.
        t.set(0x101, 5, 0);
        assert!(!t.get(0x101).valid);
        assert_eq!(t.get(0x100).index, 9);
    }

    #[test]
    fn flush_dirty_clears_predictions() {
        let (mut dc, mut ep) = setup(DcacheConfig::default());
        let a = DATA_BASE + 64;
        dc.read(&mut ep, 0x200, a, 4).unwrap();
        dc.read(&mut ep, 0x200, a, 4).unwrap();
        assert_eq!(dc.stats.fast_hits, 1);
        dc.flush_dirty(&mut ep).unwrap();
        dc.check_invariants();
        // The block is still resident, but the site prediction is gone:
        // the next access slow-hits, then predicts again.
        dc.read(&mut ep, 0x200, a, 4).unwrap();
        assert_eq!(dc.stats.fast_hits, 1, "no fast hit right after flush");
        assert_eq!(dc.stats.slow_hits, 1);
        dc.read(&mut ep, 0x200, a, 4).unwrap();
        assert_eq!(dc.stats.fast_hits, 2, "prediction rebuilt");
        dc.check_invariants();
    }

    #[test]
    fn slow_hit_when_prediction_wrong() {
        let cfg = DcacheConfig {
            prediction: Prediction::SameIndex,
            ..DcacheConfig::default()
        };
        let (mut dc, mut ep) = setup(cfg);
        // One site alternates between two far-apart blocks: the same-index
        // prediction keeps missing after warmup, but the data is resident —
        // slow hits, never server traffic.
        let a = DATA_BASE;
        let b = DATA_BASE + 1024;
        dc.read(&mut ep, 0x300, a, 4).unwrap();
        dc.read(&mut ep, 0x300, b, 4).unwrap();
        let misses_after_warmup = dc.stats.misses;
        for _ in 0..10 {
            dc.read(&mut ep, 0x300, a, 4).unwrap();
            dc.read(&mut ep, 0x300, b, 4).unwrap();
        }
        assert_eq!(dc.stats.misses, misses_after_warmup, "slow-hit guarantee");
        assert!(dc.stats.slow_hits >= 18, "predictions keep missing");
    }

    #[test]
    fn stride_prediction_wins_on_sequential_scan() {
        for (pred, expect_fast) in [(Prediction::Stride, true), (Prediction::None, false)] {
            let cfg = DcacheConfig {
                prediction: pred,
                block_bytes: 32,
                capacity_blocks: 256,
                ..DcacheConfig::default()
            };
            let (mut dc, mut ep) = setup(cfg);
            // Touch blocks in ascending order twice: second pass strides.
            for pass in 0..2 {
                for i in 0..32u32 {
                    dc.read(&mut ep, 0x400, DATA_BASE + i * 32, 4).unwrap();
                }
                let _ = pass;
            }
            if expect_fast {
                assert!(
                    dc.stats.fast_hits >= 25,
                    "stride picks up the scan: {} fast hits",
                    dc.stats.fast_hits
                );
            } else {
                assert_eq!(dc.stats.fast_hits, 0, "no prediction, no fast hits");
                assert!(dc.stats.slow_hits >= 30);
            }
        }
    }

    #[test]
    fn second_chance_probes_neighbor() {
        let cfg = DcacheConfig {
            prediction: Prediction::SecondChance,
            ..DcacheConfig::default()
        };
        let (mut dc, mut ep) = setup(cfg);
        // Alternate between two adjacent blocks from one site: i then i+1.
        let a = DATA_BASE;
        let b = DATA_BASE + 32;
        dc.read(&mut ep, 0x500, a, 4).unwrap();
        dc.read(&mut ep, 0x500, b, 4).unwrap();
        for _ in 0..6 {
            dc.read(&mut ep, 0x500, a, 4).unwrap();
            dc.read(&mut ep, 0x500, b, 4).unwrap();
        }
        assert!(
            dc.stats.fast_hits >= 6,
            "second chance catches i/i+1 flip-flop: {}",
            dc.stats.fast_hits
        );
    }

    #[test]
    fn eviction_writes_back_dirty() {
        let cfg = DcacheConfig {
            capacity_blocks: 2,
            block_bytes: 32,
            ..DcacheConfig::default()
        };
        let (mut dc, mut ep) = setup(cfg);
        dc.write(&mut ep, 0x600, DATA_BASE, 4, 77).unwrap();
        // Fill two more blocks, evicting the dirty one.
        dc.read(&mut ep, 0x600, DATA_BASE + 64, 4).unwrap();
        dc.read(&mut ep, 0x600, DATA_BASE + 128, 4).unwrap();
        assert_eq!(dc.stats.writebacks, 1);
        // Re-read: the value survived on the server.
        let (v, _) = dc.read(&mut ep, 0x600, DATA_BASE, 4).unwrap();
        assert_eq!(v, 77);
        dc.check_invariants();
    }

    #[test]
    fn pinned_blocks_never_checked_never_evicted() {
        let cfg = DcacheConfig {
            capacity_blocks: 4,
            block_bytes: 32,
            ..DcacheConfig::default()
        };
        let (mut dc, mut ep) = setup(cfg);
        let mut cyc = 0;
        dc.pin(&mut ep, (DATA_BASE, DATA_BASE + 32), &mut cyc)
            .unwrap();
        // Thrash the rest of the cache.
        for i in 1..20u32 {
            dc.read(&mut ep, 0x700, DATA_BASE + i * 32, 4).unwrap();
        }
        let misses_before = dc.stats.misses;
        let (_, extra) = dc.read(&mut ep, 0x700, DATA_BASE + 4, 4).unwrap();
        assert_eq!(extra, 0, "specialised access: zero check cycles");
        assert_eq!(
            dc.stats.misses, misses_before,
            "pinned block still resident"
        );
        assert!(dc.stats.pinned_hits >= 1);
    }

    #[test]
    fn flush_dirty_persists_everything() {
        let (mut dc, mut ep) = setup(DcacheConfig::default());
        for i in 0..8u32 {
            dc.write(&mut ep, 0x800, DATA_BASE + i * 32, 4, i + 1000)
                .unwrap();
        }
        dc.flush_dirty(&mut ep).unwrap();
        assert_eq!(dc.stats.writebacks, 8);
        // A fresh cache sees the values.
        let mut dc2 = Dcache::new(DcacheConfig::default());
        for i in 0..8u32 {
            let (v, _) = dc2.read(&mut ep, 0x900, DATA_BASE + i * 32, 4).unwrap();
            assert_eq!(v, i + 1000);
        }
    }
}

#[cfg(test)]
mod write_policy_tests {
    use super::*;
    use crate::mc::Mc;
    use crate::protocol::{Reply, Request};
    use softcache_asm::assemble;
    use softcache_isa::layout::DATA_BASE;

    fn setup(policy: WritePolicy) -> (Dcache, McEndpoint) {
        let image = assemble("_start: halt\n.data\narr: .space 4096").unwrap();
        let cfg = DcacheConfig {
            write_policy: policy,
            ..DcacheConfig::default()
        };
        (Dcache::new(cfg), McEndpoint::direct(Mc::new(image)))
    }

    fn server_word(ep: &mut McEndpoint, addr: u32) -> u32 {
        match ep.rpc(&Request::FetchData { addr, len: 4 }).unwrap().reply {
            Reply::Data(d) => u32::from_le_bytes(d.try_into().unwrap()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn write_through_is_immediately_visible_on_server() {
        let (mut dc, mut ep) = setup(WritePolicy::WriteThrough);
        dc.write(&mut ep, 0x100, DATA_BASE + 8, 4, 0xABCD1234)
            .unwrap();
        assert_eq!(server_word(&mut ep, DATA_BASE + 8), 0xABCD1234);
        assert_eq!(dc.stats.writebacks, 1);
        // flush_dirty has nothing to do.
        let before = dc.stats.writebacks;
        dc.flush_dirty(&mut ep).unwrap();
        assert_eq!(dc.stats.writebacks, before);
    }

    #[test]
    fn write_back_defers_until_eviction_or_flush() {
        let (mut dc, mut ep) = setup(WritePolicy::WriteBack);
        dc.write(&mut ep, 0x100, DATA_BASE + 8, 4, 77).unwrap();
        assert_eq!(
            server_word(&mut ep, DATA_BASE + 8),
            0,
            "not yet written back"
        );
        dc.flush_dirty(&mut ep).unwrap();
        assert_eq!(server_word(&mut ep, DATA_BASE + 8), 77);
    }

    #[test]
    fn write_through_traffic_scales_with_stores() {
        let (mut dc, mut ep) = setup(WritePolicy::WriteThrough);
        let (mut dc2, mut ep2) = setup(WritePolicy::WriteBack);
        for i in 0..50u32 {
            dc.write(&mut ep, 0x100, DATA_BASE + (i % 4) * 4, 4, i)
                .unwrap();
            dc2.write(&mut ep2, 0x100, DATA_BASE + (i % 4) * 4, 4, i)
                .unwrap();
        }
        assert_eq!(dc.stats.writebacks, 50, "one forward per store");
        assert_eq!(dc2.stats.writebacks, 0, "all absorbed by the cache");
        assert!(dc.stats.link.messages > dc2.stats.link.messages);
        // Same final contents either way.
        dc.flush_dirty(&mut ep).unwrap();
        dc2.flush_dirty(&mut ep2).unwrap();
        for i in 0..4u32 {
            assert_eq!(
                server_word(&mut ep, DATA_BASE + i * 4),
                server_word(&mut ep2, DATA_BASE + i * 4)
            );
        }
    }

    #[test]
    fn subword_write_through() {
        let (mut dc, mut ep) = setup(WritePolicy::WriteThrough);
        dc.write(&mut ep, 0x100, DATA_BASE, 4, 0x11223344).unwrap();
        dc.write(&mut ep, 0x100, DATA_BASE + 1, 1, 0xAA).unwrap();
        assert_eq!(server_word(&mut ep, DATA_BASE), 0x1122AA44);
    }
}
