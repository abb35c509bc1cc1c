//! The tcache arena both cache controllers place code in (DESIGN.md §13,
//! §16).
//!
//! The block tier ([`crate::cc`], the paper's SPARC prototype) and the
//! procedure tier ([`crate::proc`], its ARM prototype) differ in chunk
//! granularity and in how they rewrite transfers: backpatched miss stubs
//! and return-address trampolines against pinned two-word redirectors.
//! Both manage the same fully associative tcache. [`Arena`] owns what they
//! share: the free list, the CRC-32 seals an armed run keeps, and the
//! watchdog that pins a chunk failing its seal too often to the slow-path
//! interpreter. The [`Tier`] trait gives both controllers one seal
//! verdict, one heal loop and one fault-injection checkpoint; each tier
//! supplies its own heal and the spans it offers the injector, in its own
//! draw order.
//!
//! Both tiers also share one miss-stub rule ([`stub_at`], [`stub_addr`]):
//! a stub names its own tcache word, so the trap says where it came from
//! and each tier reads the exit it stands for from the chunk or
//! redirector that holds that word.
//!
//! Temperature and the tcache→chunk owner table stay per tier. The
//! procedure tier breaks `(rrpv, heat)` ties by least-recent use, the block
//! tier by address, and committed outputs pin both orders. Only the block
//! tier looks chunks up by tcache address on its trap path.

use crate::addr_map::{AddrMap, AddrSet};
use crate::cc::CacheError;
use crate::endpoint::McEndpoint;
use crate::integrity::{IntegrityStats, MemFaultInjector, SealTable, TickFire, WATCHDOG_THRESHOLD};
use softcache_isa::encode;
use softcache_isa::inst::Inst;
use softcache_isa::layout::TCACHE_BASE;
use softcache_sim::Machine;

/// The miss stub for the tcache word at `addr`: `miss idx` whose index is
/// the word's own, `(addr − TCACHE_BASE) / 4`.
pub(crate) fn stub_at(addr: u32) -> u32 {
    encode(Inst::Miss {
        idx: (addr - TCACHE_BASE) / 4,
    })
}

/// The tcache word a miss index names: the inverse of [`stub_at`], `None`
/// when the index lies past the address space.
pub(crate) fn stub_addr(idx: u32) -> Option<u32> {
    idx.checked_mul(4)?.checked_add(TCACHE_BASE)
}

/// First-fit free-list allocator over the tcache region: sorted,
/// coalesced, non-adjacent holes. Under the block tier's `FlushAll` policy
/// the list always holds one tail hole and degenerates to the paper's bump
/// pointer; eviction punches reusable holes into the middle.
#[derive(Clone, Debug)]
pub(crate) struct FreeList {
    base: u32,
    size: u32,
    /// `(start, len)` holes, sorted by start, never empty-length.
    holes: Vec<(u32, u32)>,
}

impl FreeList {
    pub(crate) fn new(base: u32, size: u32) -> FreeList {
        // Word granularity: an unaligned tail byte count could never hold
        // an instruction, and high-end allocation must stay 4-aligned.
        let size = size & !3;
        FreeList {
            base,
            size,
            holes: vec![(base, size)],
        }
    }

    /// Forget every allocation (the local half of a flush/resync).
    pub(crate) fn reset(&mut self) {
        self.holes.clear();
        self.holes.push((self.base, self.size));
    }

    fn free_bytes(&self) -> u32 {
        self.holes.iter().map(|&(_, l)| l).sum()
    }

    /// Bytes allocated out of the arena (which `new` rounded down to
    /// whole words).
    pub(crate) fn used_bytes(&self) -> u32 {
        self.size - self.free_bytes()
    }

    /// Index of the arena word holding `addr`, if the arena holds it.
    pub(crate) fn word_index(&self, addr: u32) -> Option<usize> {
        let off = addr.checked_sub(self.base)?;
        (off < self.size).then_some(off as usize / 4)
    }

    /// The largest hole as `(start, len)` — `len` 0 when full. Ties go to
    /// the lowest address, so a fresh tcache yields its base.
    pub(crate) fn largest(&self) -> (u32, u32) {
        self.holes
            .iter()
            .copied()
            .max_by_key(|&(s, l)| (l, std::cmp::Reverse(s)))
            .unwrap_or((self.base, 0))
    }

    /// First-fit allocation at the lowest address with room: the
    /// procedure tier's allocator. The block tier carves holes directly
    /// (`largest` + `alloc_at`).
    pub(crate) fn alloc(&mut self, bytes: u32) -> Option<u32> {
        let i = self.holes.iter().position(|&(_, l)| l >= bytes)?;
        let (s, l) = self.holes[i];
        if l == bytes {
            self.holes.remove(i);
        } else {
            self.holes[i] = (s + bytes, l - bytes);
        }
        Some(s)
    }

    /// Allocation from the top of the highest hole with room — used for
    /// the block tier's redirector words, which collect at the high end
    /// of the arena so the holes eviction opens for chunk-sized fills stay
    /// coalescible.
    pub(crate) fn alloc_high(&mut self, bytes: u32) -> Option<u32> {
        let i = self.holes.iter().rposition(|&(_, l)| l >= bytes)?;
        let (s, l) = self.holes[i];
        if l == bytes {
            self.holes.remove(i);
        } else {
            self.holes[i] = (s, l - bytes);
        }
        Some(s + l - bytes)
    }

    /// The hole containing `addr`, if any.
    pub(crate) fn hole_at(&self, addr: u32) -> Option<(u32, u32)> {
        self.holes
            .iter()
            .copied()
            .find(|&(s, l)| s <= addr && addr < s + l)
    }

    /// Carve the exact range `[start, start + bytes)` out of whichever
    /// hole contains it; `false` if no hole does.
    pub(crate) fn alloc_at(&mut self, start: u32, bytes: u32) -> bool {
        let Some(i) = self
            .holes
            .iter()
            .position(|&(s, l)| s <= start && start + bytes <= s + l)
        else {
            return false;
        };
        let (s, l) = self.holes[i];
        let end = start + bytes;
        match (start > s, s + l > end) {
            (true, true) => {
                self.holes[i] = (s, start - s);
                self.holes.insert(i + 1, (end, s + l - end));
            }
            (true, false) => self.holes[i] = (s, start - s),
            (false, true) => self.holes[i] = (end, s + l - end),
            (false, false) => {
                self.holes.remove(i);
            }
        }
        true
    }

    /// Return `[start, start + len)` to the list, coalescing neighbours.
    pub(crate) fn release(&mut self, start: u32, len: u32) {
        if len == 0 {
            return;
        }
        let i = self.holes.partition_point(|&(s, _)| s < start);
        self.holes.insert(i, (start, len));
        if i + 1 < self.holes.len() && self.holes[i].0 + self.holes[i].1 == self.holes[i + 1].0 {
            self.holes[i].1 += self.holes[i + 1].1;
            self.holes.remove(i + 1);
        }
        if i > 0 && self.holes[i - 1].0 + self.holes[i - 1].1 == self.holes[i].0 {
            self.holes[i - 1].1 += self.holes[i].1;
            self.holes.remove(i);
        }
    }
}

/// The tcache both tiers allocate from, with its seals and watchdog.
pub(crate) struct Arena {
    /// The tcache allocator.
    pub(crate) free: FreeList,
    /// CRC-32 seals over every installed span — CC metadata, never
    /// simulated memory (DESIGN.md §13). `Some` only once [`Arena::arm`]
    /// armed verification, which only a `run_chaos` does: an unarmed run
    /// computes and stores no seal, because nothing would read one.
    pub(crate) seals: Option<SealTable>,
    /// Watchdog: seal failures per original chunk address. Survives
    /// flushes and resyncs — resetting it would let a stuck chunk livelock
    /// the retranslate loop across epochs.
    fails: AddrMap<u32>,
    /// Chunks the watchdog pinned to the slow-path interpreter, keyed by
    /// original address so the pin follows reinstallation.
    pub(crate) pinned: AddrSet,
}

impl Arena {
    /// An empty arena of `bytes` at `base`.
    pub(crate) fn new(base: u32, bytes: u32) -> Arena {
        Arena {
            free: FreeList::new(base, bytes),
            seals: None,
            fails: AddrMap::default(),
            pinned: AddrSet::default(),
        }
    }

    /// Arm seal upkeep and trap-entry verification: the run is under a
    /// memory-fault plan. Call it before the first install, so that every
    /// installed span is sealed.
    pub(crate) fn arm(&mut self) {
        debug_assert!(self.free.used_bytes() == 0, "armed after the first install");
        self.seals = Some(SealTable::default());
    }

    /// Seal `[start, start + bytes)` as simulated memory holds it now, if
    /// armed.
    pub(crate) fn seal(&mut self, machine: &Machine, start: u32, bytes: u32) {
        if let Some(seals) = &mut self.seals {
            seals.seal(machine, start, bytes);
        }
    }

    /// Recompute the seal of the span holding `addr`, which changed
    /// legitimately (a backpatch), if armed.
    pub(crate) fn reseal_containing(&mut self, machine: &Machine, addr: u32) {
        if let Some(seals) = &mut self.seals {
            seals.reseal_containing(machine, addr);
        }
    }

    /// Drop the seal starting at `start`, if any.
    pub(crate) fn unseal(&mut self, start: u32) {
        if let Some(seals) = &mut self.seals {
            seals.unseal(start);
        }
    }

    /// Drop every seal (the tier is about to drop or rewrite every span).
    pub(crate) fn clear_seals(&mut self) {
        if let Some(seals) = &mut self.seals {
            seals.clear();
        }
    }

    /// Finish placing the chunk translated from `orig` at `[start, start +
    /// bytes)`, whose words are final. A watchdog-pinned chunk is barred
    /// from superblock lowering, so no uops form for it; an armed run
    /// seals the span as it will execute. Nothing is lowered here: the
    /// simulator lowers each block when execution first reaches it.
    pub(crate) fn place(&mut self, machine: &mut Machine, orig: u32, start: u32, bytes: u32) {
        if self.pinned.contains(&orig) {
            machine.pin_slow_span(start, start + bytes);
        }
        self.seal(machine, start, bytes);
    }

    /// Take the dead chunk translated from `orig` out of `[start, start +
    /// bytes)`: drop its seal and slow-path pin and free the span. The
    /// superblocks over it stay cached: they still match the unchanged
    /// words, and the tier severs every route in. The next install there
    /// writes the words, and the code-write barrier drops them then.
    pub(crate) fn vacate(&mut self, machine: &mut Machine, orig: u32, start: u32, bytes: u32) {
        self.unseal(start);
        if self.pinned.contains(&orig) {
            machine.unpin_slow_span(start, start + bytes);
        }
        self.free.release(start, bytes);
    }

    /// The watchdog's verdict on one more seal failure of the chunk
    /// translated from `orig`, which the caller quarantines: retranslate
    /// it, or past [`WATCHDOG_THRESHOLD`] failures pin it to the slow-path
    /// interpreter wherever it lands next instead of retranslating
    /// forever. Counts the quarantine and exactly one of `retranslations`
    /// and `slow_path_pins`.
    pub(crate) fn quarantine(&mut self, orig: u32, ledger: &mut IntegrityStats) {
        let fails = self.fails.entry(orig).or_insert(0);
        *fails += 1;
        if *fails > WATCHDOG_THRESHOLD && self.pinned.insert(orig) {
            ledger.slow_path_pins += 1;
        } else {
            ledger.retranslations += 1;
        }
        ledger.quarantines += 1;
    }
}

/// A cache controller over an [`Arena`]: what the shared seal checks, heal
/// loop and fault-injection checkpoint need from each tier.
pub(crate) trait Tier {
    /// The tier's arena.
    fn arena(&mut self) -> &mut Arena;

    /// The tier's integrity ledger.
    fn ledger(&mut self) -> &mut IntegrityStats;

    /// Make the code at original address `orig` resident; return the
    /// tcache address it runs at.
    fn ensure_resident(
        &mut self,
        machine: &mut Machine,
        ep: &mut McEndpoint,
        orig: u32,
    ) -> Result<u32, CacheError>;

    /// Repair the corrupted span sealed at `start`, counting exactly one of
    /// `retranslations` and `slow_path_pins`. `false` if no chunk or
    /// redirector of this tier starts there.
    fn heal(
        &mut self,
        machine: &mut Machine,
        ep: &mut McEndpoint,
        start: u32,
    ) -> Result<bool, CacheError>;

    /// The original address that live code at tcache address `tc` runs.
    fn orig_of(&self, tc: u32) -> Option<u32>;

    /// Does live code or a redirector sit at tcache address `tc`?
    fn live_at(&self, tc: u32) -> bool;

    /// Code-flip targets as `(start, words)` spans in this tier's draw
    /// order; with `stuck`, only the chunk it names, if resident.
    fn code_spans(&self, stuck: Option<u32>) -> Vec<(u32, u32)>;

    /// Redirector-flip targets as `(start, words)` spans in this tier's
    /// draw order.
    fn redirector_spans(&self) -> Vec<(u32, u32)>;

    /// Arm seal upkeep and trap-entry verification before the first
    /// install ([`Arena::arm`]).
    fn arm_integrity(&mut self) {
        self.arena().arm();
    }

    /// [`Tier::ensure_resident`] plus, when armed, a seal check of the
    /// target span *before* the PC is redirected into it. A corrupted
    /// target is quarantined and refetched through the ordinary miss path,
    /// so the trap never lands in corrupted code; with no injection
    /// between iterations the loop ends within two.
    fn verified_target(
        &mut self,
        machine: &mut Machine,
        ep: &mut McEndpoint,
        orig: u32,
    ) -> Result<u32, CacheError> {
        loop {
            let tc = self.ensure_resident(machine, ep, orig)?;
            let Some((start, _)) = self.arena().seals.as_ref().and_then(|s| s.containing(tc))
            else {
                return Ok(tc);
            };
            if self.check_seal(machine, ep, start)? {
                return Ok(tc);
            }
        }
    }

    /// Verify the span sealed at `start` and heal it on a mismatch,
    /// recording the verdict in the integrity ledger. Returns whether the
    /// span matched its seal. Only an armed tier verifies.
    fn check_seal(
        &mut self,
        machine: &mut Machine,
        ep: &mut McEndpoint,
        start: u32,
    ) -> Result<bool, CacheError> {
        let seals = self
            .arena()
            .seals
            .as_ref()
            .expect("only an armed CC verifies");
        let intact = seals.verify(machine, start);
        let ledger = self.ledger();
        ledger.seals_checked += 1;
        if intact {
            ledger.seal_hits += 1;
        } else {
            ledger.violations += 1;
            if !self.heal(machine, ep, start)? {
                // Unreachable with consistent metadata: drop the orphan.
                self.arena().unseal(start);
                self.ledger().retranslations += 1;
            }
        }
        let ledger = *self.ledger();
        debug_assert!(ledger.balanced(), "unbalanced integrity ledger: {ledger:?}");
        Ok(intact)
    }

    /// Verify every sealed span and heal each mismatch before the guest
    /// resumes, so no corrupted instruction ever retires; the armed
    /// trap-entry checks are defense in depth on top. An unarmed tier
    /// holds no seals and checks nothing.
    fn verify_and_heal(
        &mut self,
        machine: &mut Machine,
        ep: &mut McEndpoint,
    ) -> Result<(), CacheError> {
        let starts = self
            .arena()
            .seals
            .as_ref()
            .map(SealTable::starts)
            .unwrap_or_default();
        for start in starts {
            // An earlier heal this pass (a quarantine, or its degrade to a
            // flush) may have dropped this span already.
            if self
                .arena()
                .seals
                .as_ref()
                .is_some_and(|s| s.sealed_at(start))
            {
                self.check_seal(machine, ep, start)?;
            }
        }
        Ok(())
    }

    /// One fault-injection checkpoint: consume the plan's rolls, land any
    /// code and redirector flips through simulated memory (the write
    /// barrier bumps the code generation, modelling a refetch from the
    /// corrupted SRAM), then verify and heal before the guest resumes.
    /// Returns what the tick fired, so a system with a data cache lands
    /// the dcache roll next; the heal draws nothing from the injector, so
    /// the draws stay in roll order.
    fn chaos_tick(
        &mut self,
        machine: &mut Machine,
        ep: &mut McEndpoint,
        inj: &mut MemFaultInjector,
    ) -> Result<TickFire, CacheError> {
        let fire = inj.begin_tick();
        if !fire.any() {
            return Ok(fire);
        }
        // Resolve the guest pc to its original address BEFORE anything is
        // corrupted: if healing quarantines the very chunk being executed,
        // execution is re-routed through the ordinary miss path.
        let pc_orig = self.orig_of(machine.cpu.pc);
        if fire.code {
            let spans = self.code_spans(inj.plan.stuck_orig);
            if let Some(addr) = inj.pick_word(&spans) {
                inj.flip_bit(machine, addr);
                self.ledger().code_flips += 1;
            }
        }
        if fire.redirector {
            let spans = self.redirector_spans();
            if let Some(addr) = inj.pick_word(&spans) {
                inj.flip_bit(machine, addr);
                self.ledger().redirector_flips += 1;
            }
        }
        self.verify_and_heal(machine, ep)?;
        // The heal took the pc's span away: re-enter by the miss path.
        if let (false, Some(orig)) = (self.live_at(machine.cpu.pc), pc_orig) {
            machine.cpu.pc = self.ensure_resident(machine, ep, orig)?;
        }
        Ok(fire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_list_is_a_bump_pointer_until_released_into() {
        let mut f = FreeList::new(0x1000, 0x100);
        assert_eq!(f.largest(), (0x1000, 0x100));
        assert_eq!(f.alloc(0x40), Some(0x1000));
        assert_eq!(f.alloc(4), Some(0x1040));
        assert_eq!(f.largest(), (0x1044, 0xbc));
        assert_eq!(f.free_bytes(), 0xbc);
    }

    #[test]
    fn free_list_release_coalesces_both_sides() {
        let mut f = FreeList::new(0, 0x100);
        assert!(f.alloc_at(0x00, 0x40));
        assert!(f.alloc_at(0x40, 0x40));
        assert!(f.alloc_at(0x80, 0x40));
        // Free the outer two: the upper one coalesces with the tail hole.
        f.release(0x00, 0x40);
        f.release(0x80, 0x40);
        assert_eq!(f.holes, vec![(0x00, 0x40), (0x80, 0x80)]);
        assert_eq!(f.largest(), (0x80, 0x80));
        // Freeing the middle merges all three into one arena-sized hole.
        f.release(0x40, 0x40);
        assert_eq!(f.holes, vec![(0x00, 0x100)]);

        // The procedure heap: two procedures under two redirectors free
        // into one hole below the pinned words.
        let mut f = FreeList::new(0, 64);
        assert!(f.alloc_at(48, 16));
        assert_eq!((f.alloc(16), f.alloc(32)), (Some(0), Some(16)));
        f.release(0, 16);
        assert_eq!(f.holes, vec![(0, 16)]);
        f.release(16, 32);
        assert_eq!(f.holes, vec![(0, 48)]);
    }

    #[test]
    fn free_list_largest_prefers_lowest_address_on_ties() {
        let mut f = FreeList::new(0, 0x100);
        assert!(f.alloc_at(0x40, 0x40)); // holes: [0,0x40) and [0x80,0x100)
        assert!(f.alloc_at(0xc0, 0x40)); // holes: [0,0x40) and [0x80,0xc0)
        assert_eq!(f.largest(), (0x00, 0x40));
    }

    #[test]
    fn free_list_alloc_at_rejects_straddles_and_taken_ranges() {
        let mut f = FreeList::new(0, 0x100);
        assert!(f.alloc_at(0x20, 0x20));
        assert!(!f.alloc_at(0x10, 0x20), "straddles a taken range");
        assert!(!f.alloc_at(0x20, 0x10), "already taken");
        assert!(f.alloc_at(0x00, 0x20));
        assert!(f.alloc_at(0x40, 0xc0));
        assert_eq!(f.free_bytes(), 0);
        assert_eq!(f.largest().1, 0);
        assert_eq!(f.alloc(4), None);

        // The procedure heap: redirectors carve 8 bytes at a time downward
        // from the pinned floor, and a carve is refused while a procedure
        // sits directly under the floor, however much is free below it.
        let mut f = FreeList::new(0, 64);
        assert!(f.alloc_at(56, 8) && f.alloc_at(48, 8));
        assert_eq!((f.alloc(16), f.alloc(32)), (Some(0), Some(16)));
        assert!(!f.alloc_at(40, 8), "full");
        f.release(0, 16);
        assert!(!f.alloc_at(40, 8), "a procedure still sits under the floor");
        f.release(16, 32);
        assert!(f.alloc_at(40, 8), "evicting it frees the word");
    }

    #[test]
    fn free_list_first_fit_lands_in_earliest_hole_with_room() {
        let mut f = FreeList::new(0, 0x100);
        assert!(f.alloc_at(0x00, 0x10));
        assert!(f.alloc_at(0x20, 0xd0)); // hole [0x10,0x20) then tail [0xf0,0x100)
        assert_eq!(f.alloc(0x20), None);
        assert_eq!(f.alloc(0x10), Some(0x10));
        assert_eq!(f.alloc(0x10), Some(0xf0));

        // The procedure heap: with holes [0, 24) and [32, 48) under the
        // pinned words, each procedure takes the lowest hole with room.
        let mut f = FreeList::new(0, 64);
        assert!(f.alloc_at(48, 16) && f.alloc_at(24, 8));
        assert_eq!(f.alloc(16), Some(0));
        assert_eq!(f.alloc(16), Some(32));
        assert_eq!(f.alloc(8), Some(16));
        assert_eq!(f.alloc(4), None, "full");
    }
}
