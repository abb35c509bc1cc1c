//! Tcache integrity seals, seeded memory-fault injection, and the
//! self-healing ledger (DESIGN.md §13).
//!
//! The tcache lives in fault-prone on-chip SRAM: a flipped bit in an
//! installed chunk silently executes wrong code forever, because every
//! pointer into the tcache (patched branches, map entries, return
//! addresses) implicitly asserts the code under it is still what the MC
//! shipped. This module adds the missing trust anchor:
//!
//! * [`SealTable`] — one CRC-32 seal per installed span (chunk,
//!   trampoline, stub, redirector), computed from simulated memory at
//!   install/backpatch time and stored **in CC metadata**, not in
//!   simulated memory — the paper's memory-footprint figures are
//!   unchanged, exactly as for the tcache map itself. A cache controller
//!   keeps one only on a run armed for verification.
//! * [`MemFaultPlan`] / [`MemFaultInjector`] — a seeded, deterministic
//!   SplitMix64 schedule of bit flips aimed at tcache code, redirector
//!   words and dcache lines: the memory-side mirror of the link layer's
//!   `FaultyTransport`. No `rand`, no wall clock; a given plan replays
//!   the identical flip schedule on every run.
//! * [`IntegrityStats`] — the self-healing ledger. Every violation is
//!   resolved by exactly one recovery action, so
//!   `violations == retranslations + slow_path_pins` always holds; CI
//!   gates on it.

use softcache_net::envelope::crc32;
use softcache_sim::Machine;
use std::collections::BTreeMap;

/// SplitMix64 — the same deterministic mixer the link-fault injector and
/// the vendored shims use (private there, so restated here).
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seal failures a chunk may accumulate before the watchdog pins it to
/// the slow-path interpreter: past this many, it is degraded instead of
/// retranslated again, so a stuck chunk can never livelock the
/// retranslate loop.
pub(crate) const WATCHDOG_THRESHOLD: u32 = 3;

/// The self-healing ledger. All counters are host-side bookkeeping:
/// sealing and scrubbing charge zero simulated cycles (the model assumes
/// a background scrub engine; recovery itself reuses the ordinary miss
/// path, which is charged as usual).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IntegrityStats {
    /// Seal verifications performed.
    pub seals_checked: u64,
    /// Verifications that matched.
    pub seal_hits: u64,
    /// Seal mismatches detected (corrupted spans caught before use).
    pub violations: u64,
    /// Violations resolved by discarding the span for retranslation
    /// through the normal miss path, or by regenerating a redirector /
    /// stub word from CC metadata.
    pub retranslations: u64,
    /// Chunks quarantined: arena links severed, map entry dropped and the
    /// standalone stubs landing its branches retired.
    pub quarantines: u64,
    /// Violations resolved by the watchdog pinning the chunk to the
    /// slow-path interpreter.
    pub slow_path_pins: u64,
    /// Bit flips injected into installed code spans.
    pub code_flips: u64,
    /// Bit flips injected into redirector / trampoline / stub words.
    pub redirector_flips: u64,
    /// Bit flips injected into clean dcache lines.
    pub dcache_flips: u64,
}

impl IntegrityStats {
    /// The recovery invariant: every detected violation was resolved by
    /// exactly one action. CI gates on this.
    pub fn balanced(&self) -> bool {
        self.violations == self.retranslations + self.slow_path_pins
    }
}

/// A deterministic schedule of memory faults. Rates are per-mille per
/// checkpoint (one checkpoint per dispatch-loop iteration); the window is
/// expressed in checkpoint indices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemFaultPlan {
    /// Seed of the flip schedule.
    pub seed: u64,
    /// Chance (‰) of flipping one random bit of an installed code chunk.
    pub code_per_mille: u32,
    /// Chance (‰) of flipping one random bit of a redirector, trampoline
    /// or stub word.
    pub redirector_per_mille: u32,
    /// Chance (‰) of flipping one random bit of a clean dcache line.
    pub dcache_per_mille: u32,
    /// Half-open window `[start, end)` of checkpoint indices outside
    /// which nothing fires — a burst of corruption rather than a steady
    /// drizzle. `None` means the rates apply for the whole run.
    pub window: Option<(u64, u64)>,
    /// Aim every code flip at the chunk translated from this original
    /// address (if resident) — the repeated-corruption case the watchdog
    /// exists for.
    pub stuck_orig: Option<u32>,
}

impl MemFaultPlan {
    /// A plan that injects nothing (baseline).
    pub fn clean(seed: u64) -> MemFaultPlan {
        MemFaultPlan {
            seed,
            code_per_mille: 0,
            redirector_per_mille: 0,
            dcache_per_mille: 0,
            window: None,
            stuck_orig: None,
        }
    }
}

/// Which fault kinds fire at one checkpoint.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TickFire {
    /// Flip a bit in an installed code chunk.
    pub code: bool,
    /// Flip a bit in a redirector / trampoline / stub word.
    pub redirector: bool,
    /// Flip a bit in a clean dcache line.
    pub dcache: bool,
}

impl TickFire {
    /// Did anything fire?
    pub fn any(&self) -> bool {
        self.code || self.redirector || self.dcache
    }
}

/// Seeded memory-fault injector: decides *when* a flip lands, and *where*
/// among the spans a cache controller offers, using
/// [`MemFaultInjector::pick`] for the word and bit choices so the whole
/// schedule is a pure function of the seed and the checkpoint sequence.
pub struct MemFaultInjector {
    /// The schedule being executed.
    pub plan: MemFaultPlan,
    rng: u64,
    ticks: u64,
}

impl MemFaultInjector {
    /// Fresh injector for `plan`.
    pub fn new(plan: MemFaultPlan) -> MemFaultInjector {
        MemFaultInjector {
            plan,
            rng: plan.seed ^ 0x9E37_79B9_7F4A_7C15,
            ticks: 0,
        }
    }

    fn next_rand(&mut self) -> u64 {
        self.rng = mix64(self.rng);
        self.rng
    }

    /// Roll one fault decision. Always consumes one random number so the
    /// schedule stays aligned across plans that share a seed.
    fn roll(&mut self, per_mille: u32) -> bool {
        (self.next_rand() % 1000) < per_mille as u64
    }

    /// Advance one checkpoint: consume one roll per fault kind (fixed
    /// order keeps the schedule deterministic) and report which fire.
    /// Rolls outside the plan's window are suppressed but still consumed.
    pub fn begin_tick(&mut self) -> TickFire {
        let tick = self.ticks;
        self.ticks += 1;
        let fire = TickFire {
            code: self.roll(self.plan.code_per_mille),
            redirector: self.roll(self.plan.redirector_per_mille),
            dcache: self.roll(self.plan.dcache_per_mille),
        };
        let in_window = self
            .plan
            .window
            .map(|(start, end)| (start..end).contains(&tick))
            .unwrap_or(true);
        if in_window {
            fire
        } else {
            TickFire::default()
        }
    }

    /// Draw a target choice in `0..n` (`n > 0`).
    pub fn pick(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_rand() % n
    }

    /// Draw one word uniformly from `spans`, given as `(start, words)` in
    /// the order the caller's schedule fixes; `None`, drawing nothing, when
    /// the spans hold no word.
    pub(crate) fn pick_word(&mut self, spans: &[(u32, u32)]) -> Option<u32> {
        let total: u64 = spans.iter().map(|&(_, words)| words as u64).sum();
        if total == 0 {
            return None;
        }
        let mut k = self.pick(total);
        spans.iter().find_map(|&(start, words)| {
            if k < words as u64 {
                return Some(start + k as u32 * 4);
            }
            k -= words as u64;
            None
        })
    }

    /// Flip one seeded bit of the word at `addr` in simulated memory.
    pub(crate) fn flip_bit(&mut self, machine: &mut Machine, addr: u32) {
        let word = machine.mem.read_u32(addr).expect("tcache mapped");
        let flipped = word ^ (1u32 << self.pick(32));
        machine.mem.write_u32(addr, flipped).expect("tcache mapped");
    }
}

/// CRC-32 seals over installed tcache spans, keyed by start address.
/// Lives entirely outside simulated memory.
#[derive(Default)]
pub struct SealTable {
    spans: BTreeMap<u32, SealEntry>,
}

struct SealEntry {
    len_bytes: u32,
    crc: u32,
}

impl SealTable {
    /// (Re)seal the span `[start, start + len_bytes)` from its current
    /// simulated-memory contents.
    pub fn seal(&mut self, machine: &Machine, start: u32, len_bytes: u32) {
        let bytes = machine
            .mem
            .read_bytes(start, len_bytes)
            .expect("sealed span is mapped");
        self.spans.insert(
            start,
            SealEntry {
                len_bytes,
                crc: crc32(bytes),
            },
        );
    }

    /// Recompute the seal of the span containing `addr`, if any —
    /// the backpatch case, where one word inside a sealed chunk changed
    /// legitimately. Returns whether a span was found.
    pub fn reseal_containing(&mut self, machine: &Machine, addr: u32) -> bool {
        let Some((start, len)) = self.containing(addr) else {
            return false;
        };
        self.seal(machine, start, len);
        true
    }

    /// Drop the seal starting at `start`.
    pub fn unseal(&mut self, start: u32) {
        self.spans.remove(&start);
    }

    /// Drop every seal (tcache flush).
    pub fn clear(&mut self) {
        self.spans.clear();
    }

    /// Is there a seal whose span starts exactly at `start`?
    pub fn sealed_at(&self, start: u32) -> bool {
        self.spans.contains_key(&start)
    }

    /// The sealed span containing `addr`, as `(start, len_bytes)`.
    pub fn containing(&self, addr: u32) -> Option<(u32, u32)> {
        let (&start, e) = self.spans.range(..=addr).next_back()?;
        (addr < start + e.len_bytes).then_some((start, e.len_bytes))
    }

    /// Does the span starting at `start` still match its seal?
    /// `true` for unknown spans (nothing to check).
    pub fn verify(&self, machine: &Machine, start: u32) -> bool {
        let Some(e) = self.spans.get(&start) else {
            return true;
        };
        let bytes = machine
            .mem
            .read_bytes(start, e.len_bytes)
            .expect("sealed span is mapped");
        crc32(bytes) == e.crc
    }

    /// Start addresses of every sealed span, in address order.
    pub fn starts(&self) -> Vec<u32> {
        self.spans.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(plan: MemFaultPlan, ticks: u64) -> Vec<TickFire> {
        let mut inj = MemFaultInjector::new(plan);
        (0..ticks).map(|_| inj.begin_tick()).collect()
    }

    #[test]
    fn same_seed_same_schedule() {
        let plan = MemFaultPlan {
            code_per_mille: 100,
            redirector_per_mille: 50,
            dcache_per_mille: 30,
            ..MemFaultPlan::clean(42)
        };
        assert_eq!(schedule(plan, 5000), schedule(plan, 5000));
    }

    #[test]
    fn different_seed_different_schedule() {
        let a = MemFaultPlan {
            code_per_mille: 100,
            ..MemFaultPlan::clean(1)
        };
        let b = MemFaultPlan {
            code_per_mille: 100,
            ..MemFaultPlan::clean(2)
        };
        assert_ne!(schedule(a, 5000), schedule(b, 5000));
    }

    #[test]
    fn clean_plan_fires_nothing() {
        assert!(schedule(MemFaultPlan::clean(7), 10_000)
            .iter()
            .all(|f| !f.any()));
    }

    #[test]
    fn window_confines_the_burst() {
        let plan = MemFaultPlan {
            code_per_mille: 1000,
            window: Some((100, 200)),
            ..MemFaultPlan::clean(3)
        };
        let fires = schedule(plan, 1000);
        for (i, f) in fires.iter().enumerate() {
            assert_eq!(f.any(), (100..200).contains(&i), "tick {i}");
        }
    }

    #[test]
    fn ledger_balance() {
        let mut s = IntegrityStats {
            violations: 5,
            retranslations: 3,
            slow_path_pins: 2,
            ..IntegrityStats::default()
        };
        assert!(s.balanced());
        s.violations += 1;
        assert!(!s.balanced());
    }
}
