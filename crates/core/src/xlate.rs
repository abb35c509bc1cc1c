//! Shared translation cache: translate once, serve thousands.
//!
//! A rewritten chunk is a pure function of the program image, the chunk
//! strategy, the chunk's original start address, its placement address —
//! and the *residence-mirror lookups the rewriter made along the way*
//! (resident targets are retargeted directly; absent ones get miss
//! stubs). The first four form the cache key; the fifth is captured as a
//! **dependency list**: every `(orig_target, Option<tcache_addr>)` probe
//! the rewriter performed. A cached translation is only served to a
//! client whose own mirror answers every recorded probe identically, so
//! memoization is byte-transparent — clients whose tcache layouts have
//! diverged (a resync, a different fetch order) simply translate their
//! own variant, which is cached alongside.
//!
//! The probe sequence is a function of the key alone: the rewriter
//! probes every direct exit once, in chunk order, whatever the answers.
//! So every variant of a key records the same targets, which the key
//! keeps once (debug builds assert it in [`XlateGuard::admit`]). A
//! lookup probes each target once and picks the variant whose recorded
//! answers equal the client's. Two variants never record equal answers
//! — the second lookup would have hit the first — so at most one
//! matches, and a hit costs one probe pass and a reference-count
//! increment: entries hold their payload in an [`Arc`], which the
//! serving MC encodes by reference.
//!
//! Lookup-miss-translate-admit happens under one lock
//! ([`SharedXlate::lock`] is held across the translation), so a chunk is
//! translated **exactly once** per (key, dependency context) no matter
//! how many clients race for it — the translate-once ledger
//! `unique_translations == unique_chunks + variant_translations` is
//! exact in the multi-client server ([`crate::server::McServer`]).
//!
//! Retention is TRRIP-flavored re-reference-interval prediction
//! (PAPERS.md, "A TRRIP Down Memory Lane"): entries are admitted *warm*
//! (long predicted re-reference), promoted to *hot* on every shared hit,
//! and eviction under a byte budget victimizes *cold* entries first,
//! aging the whole population when none are cold. With an ample budget
//! (the default) nothing is ever evicted and the ledger floor holds
//! independent of client count.

use crate::mc::ChunkStrategy;
use crate::protocol::ChunkPayload;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Cache key: how the chunk was formed, where it starts, where it goes.
type Key = (ChunkStrategy, u32, u32);

/// Re-reference prediction values (2-bit RRIP): 0 = hot (near
/// re-reference), [`RRPV_INSERT`] = warm admission, [`RRPV_COLD`] =
/// eviction victim.
const RRPV_HOT: u8 = 0;
const RRPV_INSERT: u8 = 2;
const RRPV_COLD: u8 = 3;

/// Everything cached under one key.
struct Cached {
    /// Mirror probes the rewriter made, in order — the same for every
    /// variant of the key (see module docs).
    targets: Box<[u32]>,
    /// The variants, in admission order.
    variants: Vec<Variant>,
}

/// One cached translation variant under a key.
struct Variant {
    /// The mirror's answer to each of the key's `targets`.
    answers: Box<[Option<u32>]>,
    /// The rewritten chunk.
    payload: Arc<ChunkPayload>,
    /// Approximate resident footprint (payload words + dependency list).
    bytes: u64,
    /// TRRIP temperature (see module docs).
    rrpv: u8,
    /// Admission order — the deterministic tie-break among equally-cold
    /// eviction candidates (`HashMap` iteration order must never pick
    /// the victim, or two identical runs diverge).
    seq: u64,
}

/// Translate-once ledger and traffic counters, snapshotted by
/// [`SharedXlate::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct XlateStats {
    /// Shared-cache lookups (one per block translation request).
    pub lookups: u64,
    /// Lookups served from the cache (all dependencies matched).
    pub hits: u64,
    /// Lookups that found the key resident but no variant whose
    /// dependency list matched the client's mirror (subset of misses).
    pub dep_conflicts: u64,
    /// Distinct keys ever admitted (re-admission after a full eviction
    /// counts again — with evictions the ledger honestly shows thrash).
    pub unique_chunks: u64,
    /// Translations performed and admitted.
    pub unique_translations: u64,
    /// Admissions whose key was already resident (a second dependency
    /// variant of the same chunk). Zero when every client's tcache
    /// layout evolves identically — the uniform fan-in case.
    pub variant_translations: u64,
    /// Entries evicted by the TRRIP retention policy.
    pub evictions: u64,
    /// Bytes currently resident.
    pub resident_bytes: u64,
}

impl XlateStats {
    /// Lookups not served from the cache.
    pub fn misses(&self) -> u64 {
        self.lookups - self.hits
    }

    /// The translate-once ledger: every admitted translation is either
    /// the first for its key or an explicitly-counted dependency
    /// variant. Always exact; with no evictions and no variants it
    /// collapses to `unique_translations == unique_chunks`.
    pub fn balanced(&self) -> bool {
        self.unique_translations == self.unique_chunks + self.variant_translations
    }

    /// Debug-build check of the ledger where it changes: balanced, and
    /// hits and dependency conflicts both a subset of lookups.
    fn debug_check(&self) {
        debug_assert!(self.balanced(), "unbalanced xlate ledger: {self:?}");
        debug_assert!(
            self.hits + self.dep_conflicts <= self.lookups,
            "more hits and conflicts than lookups: {self:?}"
        );
    }
}

/// Interior of the shared cache; obtained via [`SharedXlate::lock`] and
/// held across lookup → translate → admit so concurrent clients never
/// duplicate a translation.
pub struct XlateGuard<'a> {
    inner: MutexGuard<'a, Inner>,
    capacity_bytes: u64,
}

struct Inner {
    map: HashMap<Key, Cached>,
    stats: XlateStats,
    next_seq: u64,
    /// The client's answers to the key's targets, for the lookup in
    /// progress (kept to reuse its allocation).
    answers: Vec<Option<u32>>,
}

impl XlateGuard<'_> {
    /// Look the key up; `probe` must answer residence queries from the
    /// calling client's mirror, with the chunk's own `(orig_pc → dest)`
    /// entry presumed present (the rewriter records residence before
    /// probing, so self-loops depend on it). Each of the key's targets
    /// is probed once.
    pub fn find(
        &mut self,
        strategy: ChunkStrategy,
        orig_pc: u32,
        dest: u32,
        probe: impl FnMut(u32) -> Option<u32>,
    ) -> Option<Arc<ChunkPayload>> {
        let inner = &mut *self.inner;
        inner.stats.lookups += 1;
        let cached = inner.map.get_mut(&(strategy, orig_pc, dest))?;
        inner.answers.clear();
        inner
            .answers
            .extend(cached.targets.iter().copied().map(probe));
        match cached
            .variants
            .iter_mut()
            .find(|v| *v.answers == *inner.answers)
        {
            Some(v) => {
                v.rrpv = RRPV_HOT;
                inner.stats.hits += 1;
                Some(Arc::clone(&v.payload))
            }
            None => {
                inner.stats.dep_conflicts += 1;
                None
            }
        }
    }

    /// Admit a freshly-performed translation with the dependency list its
    /// rewrite recorded, evicting cold entries if the byte budget is
    /// exceeded.
    pub fn admit(
        &mut self,
        strategy: ChunkStrategy,
        orig_pc: u32,
        dest: u32,
        deps: Vec<(u32, Option<u32>)>,
        payload: Arc<ChunkPayload>,
    ) {
        let bytes = (payload.words.len() * 4 + deps.len() * 8 + 64) as u64;
        let inner = &mut *self.inner;
        inner.stats.unique_translations += 1;
        inner.stats.resident_bytes += bytes;
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let variant = Variant {
            answers: deps.iter().map(|&(_, answer)| answer).collect(),
            payload,
            bytes,
            rrpv: RRPV_INSERT,
            seq,
        };
        match inner.map.entry((strategy, orig_pc, dest)) {
            Entry::Occupied(slot) => {
                let cached = slot.into_mut();
                debug_assert!(
                    cached
                        .targets
                        .iter()
                        .eq(deps.iter().map(|(target, _)| target)),
                    "variant of {orig_pc:#x} -> {dest:#x} probed other targets"
                );
                inner.stats.variant_translations += 1;
                cached.variants.push(variant);
            }
            Entry::Vacant(slot) => {
                inner.stats.unique_chunks += 1;
                slot.insert(Cached {
                    targets: deps.iter().map(|&(target, _)| target).collect(),
                    variants: vec![variant],
                });
            }
        }
        inner.stats.debug_check();
        while inner.stats.resident_bytes > self.capacity_bytes {
            // TRRIP victim scan: evict the oldest cold entry; age the
            // whole population when none is cold. The just-admitted
            // entry can itself be the victim under a pathologically
            // small budget.
            let victim = inner
                .map
                .iter()
                .flat_map(|(&k, c)| {
                    c.variants
                        .iter()
                        .enumerate()
                        .map(move |(i, v)| (k, i, v.rrpv, v.seq))
                })
                .filter(|&(_, _, rrpv, _)| rrpv >= RRPV_COLD)
                .min_by_key(|&(_, _, _, seq)| seq);
            match victim {
                Some((key, i, _, _)) => {
                    let cached = inner.map.get_mut(&key).expect("victim key resident");
                    let v = cached.variants.remove(i);
                    inner.stats.resident_bytes -= v.bytes;
                    inner.stats.evictions += 1;
                    if cached.variants.is_empty() {
                        inner.map.remove(&key);
                    }
                }
                None => {
                    for cached in inner.map.values_mut() {
                        for v in cached.variants.iter_mut() {
                            v.rrpv = (v.rrpv + 1).min(RRPV_COLD);
                        }
                    }
                }
            }
            inner.stats.debug_check();
        }
    }
}

/// The shared translation cache. One per [`crate::server::McServer`];
/// every per-client [`crate::mc::Mc`] attached to it serves block
/// translations through it.
pub struct SharedXlate {
    inner: Mutex<Inner>,
    capacity_bytes: u64,
}

/// Default byte budget — ample for every workload in the repo, so the
/// translate-once floor holds with zero evictions unless a test shrinks
/// it on purpose.
pub const DEFAULT_XLATE_CAPACITY: u64 = 64 << 20;

impl SharedXlate {
    /// A cache bounded to `capacity_bytes` of resident translations.
    pub fn new(capacity_bytes: u64) -> SharedXlate {
        SharedXlate {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                stats: XlateStats::default(),
                next_seq: 0,
                answers: Vec::new(),
            }),
            capacity_bytes,
        }
    }

    /// Lock the cache for one lookup → translate → admit cycle.
    pub fn lock(&self) -> XlateGuard<'_> {
        XlateGuard {
            inner: self.inner.lock().unwrap_or_else(|e| e.into_inner()),
            capacity_bytes: self.capacity_bytes,
        }
    }

    /// Snapshot the ledger.
    pub fn stats(&self) -> XlateStats {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).stats
    }
}

impl Default for SharedXlate {
    fn default() -> SharedXlate {
        SharedXlate::new(DEFAULT_XLATE_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(n: usize) -> Arc<ChunkPayload> {
        Arc::new(ChunkPayload {
            orig_start: 0x1000,
            body_words: n as u32,
            words: vec![0x13; n],
            exits: Vec::new(),
            resolved: Vec::new(),
            extra_orig: Vec::new(),
        })
    }

    const BB: ChunkStrategy = ChunkStrategy::BasicBlock;

    #[test]
    fn dependency_matching_gates_hits() {
        let cache = SharedXlate::default();
        let mut g = cache.lock();
        assert!(g.find(BB, 0x1000, 0x40_0000, |_| None).is_none());
        g.admit(
            BB,
            0x1000,
            0x40_0000,
            vec![(0x1000, Some(0x40_0000)), (0x2000, None)],
            payload(4),
        );
        // Same mirror context: hit.
        let got = g
            .find(BB, 0x1000, 0x40_0000, |t| {
                if t == 0x1000 {
                    Some(0x40_0000)
                } else {
                    None
                }
            })
            .expect("matching deps must hit");
        assert_eq!(got.words.len(), 4);
        // A client whose mirror already holds 0x2000: dependency conflict.
        assert!(g
            .find(BB, 0x1000, 0x40_0000, |t| {
                if t == 0x1000 {
                    Some(0x40_0000)
                } else {
                    Some(0x50_0000)
                }
            })
            .is_none());
        drop(g);
        let s = cache.stats();
        assert_eq!((s.lookups, s.hits, s.dep_conflicts), (3, 1, 1));
        assert_eq!((s.unique_chunks, s.unique_translations), (1, 1));
        assert!(s.balanced());
    }

    #[test]
    fn variants_accumulate_and_ledger_stays_balanced() {
        let cache = SharedXlate::default();
        let mut g = cache.lock();
        g.admit(BB, 0x1000, 0x40_0000, vec![(0x2000, None)], payload(2));
        g.admit(
            BB,
            0x1000,
            0x40_0000,
            vec![(0x2000, Some(0x41_0000))],
            payload(3),
        );
        // Each variant serves its own mirror context.
        assert_eq!(
            g.find(BB, 0x1000, 0x40_0000, |_| None).unwrap().words.len(),
            2
        );
        assert_eq!(
            g.find(BB, 0x1000, 0x40_0000, |_| Some(0x41_0000))
                .unwrap()
                .words
                .len(),
            3
        );
        drop(g);
        let s = cache.stats();
        assert_eq!(s.unique_chunks, 1);
        assert_eq!(s.unique_translations, 2);
        assert_eq!(s.variant_translations, 1);
        assert!(s.balanced());
    }

    #[test]
    fn each_client_gets_its_own_variant_in_one_probe_pass() {
        // One key, probed at the chunk itself and two exits; four clients
        // whose mirrors answer the exits four different ways.
        const TARGETS: [u32; 3] = [0x1000, 0x2000, 0x3000];
        let mirrors: [[Option<u32>; 3]; 4] = [
            [Some(0x40_0000), None, None],
            [Some(0x40_0000), Some(0x41_0000), None],
            [Some(0x40_0000), None, Some(0x42_0000)],
            [Some(0x40_0000), Some(0x41_0000), Some(0x42_0000)],
        ];
        let probes = std::cell::Cell::new(0);
        let mirror = |answers: [Option<u32>; 3]| {
            let probes = &probes;
            move |t: u32| {
                probes.set(probes.get() + 1);
                answers[TARGETS.iter().position(|&x| x == t).expect("known target")]
            }
        };
        let cache = SharedXlate::default();
        let mut g = cache.lock();
        // Each client misses and admits its own variant (client i's
        // payload has i + 1 words). The first miss finds no key; the
        // other three find the key but no matching variant.
        for (i, answers) in mirrors.into_iter().enumerate() {
            assert!(g.find(BB, 0x1000, 0x40_0000, mirror(answers)).is_none());
            let deps = TARGETS.into_iter().zip(answers).collect();
            g.admit(BB, 0x1000, 0x40_0000, deps, payload(i + 1));
        }
        // Now every client hits its own variant, in any order.
        for (i, answers) in mirrors.into_iter().enumerate().rev() {
            let got = g.find(BB, 0x1000, 0x40_0000, mirror(answers));
            assert_eq!(got.expect("own variant").words.len(), i + 1);
        }
        // A fifth mirror matches none of them.
        let other = [Some(0x40_0000), Some(0x43_0000), None];
        assert!(g.find(BB, 0x1000, 0x40_0000, mirror(other)).is_none());
        drop(g);
        // Eight lookups found the key; each probed every target once.
        assert_eq!(probes.get(), 8 * TARGETS.len());
        let s = cache.stats();
        assert_eq!((s.lookups, s.hits, s.dep_conflicts), (9, 4, 4));
        assert_eq!(
            (
                s.unique_chunks,
                s.unique_translations,
                s.variant_translations
            ),
            (1, 4, 3)
        );
        assert!(s.balanced());
    }

    #[test]
    fn trrip_eviction_prefers_cold_entries_and_spares_hot_ones() {
        // Budget fits roughly two entries (each ~64 + 16*4 + 0 deps = 128).
        let cache = SharedXlate::new(300);
        let mut g = cache.lock();
        g.admit(BB, 0x1000, 0x40_0000, Vec::new(), payload(16));
        // Touch it: promoted hot.
        assert!(g.find(BB, 0x1000, 0x40_0000, |_| None).is_some());
        g.admit(BB, 0x2000, 0x41_0000, Vec::new(), payload(16));
        // Admitting a third exceeds the budget; the aged warm entry
        // (0x2000) must go before the hot one (0x1000).
        g.admit(BB, 0x3000, 0x42_0000, Vec::new(), payload(16));
        assert!(
            g.find(BB, 0x1000, 0x40_0000, |_| None).is_some(),
            "hot entry survives"
        );
        assert!(
            g.find(BB, 0x2000, 0x41_0000, |_| None).is_none(),
            "cold entry evicted"
        );
        drop(g);
        let s = cache.stats();
        assert!(s.evictions >= 1);
        assert!(s.resident_bytes <= 300);
        assert!(s.balanced());
    }
}
