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
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

/// Cache key: how the chunk was formed, where it starts, where it goes.
type Key = (ChunkStrategy, u32, u32);

/// Re-reference prediction values (2-bit RRIP): 0 = hot (near
/// re-reference), [`RRPV_INSERT`] = warm admission, [`RRPV_COLD`] =
/// eviction victim.
const RRPV_HOT: u8 = 0;
const RRPV_INSERT: u8 = 2;
const RRPV_COLD: u8 = 3;

/// One cached translation variant under a key.
struct Entry {
    /// Mirror probes the rewriter made, in order, with their answers.
    deps: Vec<(u32, Option<u32>)>,
    /// The rewritten chunk.
    payload: ChunkPayload,
    /// Approximate resident footprint (payload words + dependency list).
    bytes: u64,
    /// TRRIP temperature (see module docs).
    rrpv: u8,
    /// Admission order — the deterministic tie-break among equally-cold
    /// eviction candidates (`HashMap` iteration order must never pick
    /// the victim, or two identical runs diverge).
    seq: u64,
}

impl Entry {
    fn matches(&self, probe: &mut dyn FnMut(u32) -> Option<u32>) -> bool {
        self.deps
            .iter()
            .all(|&(target, want)| probe(target) == want)
    }
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
}

/// Interior of the shared cache; obtained via [`SharedXlate::lock`] and
/// held across lookup → translate → admit so concurrent clients never
/// duplicate a translation.
pub struct XlateGuard<'a> {
    inner: MutexGuard<'a, Inner>,
    capacity_bytes: u64,
}

struct Inner {
    map: HashMap<Key, Vec<Entry>>,
    stats: XlateStats,
    next_seq: u64,
}

impl XlateGuard<'_> {
    /// Look the key up; `probe` must answer residence queries from the
    /// calling client's mirror, with the chunk's own `(orig_pc → dest)`
    /// entry presumed present (the rewriter records residence before
    /// probing, so self-loops depend on it).
    pub fn find(
        &mut self,
        strategy: ChunkStrategy,
        orig_pc: u32,
        dest: u32,
        mut probe: impl FnMut(u32) -> Option<u32>,
    ) -> Option<ChunkPayload> {
        let inner = &mut *self.inner;
        inner.stats.lookups += 1;
        let entries = inner.map.get_mut(&(strategy, orig_pc, dest))?;
        for e in entries.iter_mut() {
            if e.matches(&mut probe) {
                e.rrpv = RRPV_HOT;
                inner.stats.hits += 1;
                return Some(e.payload.clone());
            }
        }
        inner.stats.dep_conflicts += 1;
        None
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
        payload: ChunkPayload,
    ) {
        let bytes = (payload.words.len() * 4 + deps.len() * 8 + 64) as u64;
        let inner = &mut *self.inner;
        inner.stats.unique_translations += 1;
        inner.stats.resident_bytes += bytes;
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let entries = inner.map.entry((strategy, orig_pc, dest)).or_default();
        if entries.is_empty() {
            inner.stats.unique_chunks += 1;
        } else {
            inner.stats.variant_translations += 1;
        }
        entries.push(Entry {
            deps,
            payload,
            bytes,
            rrpv: RRPV_INSERT,
            seq,
        });
        while inner.stats.resident_bytes > self.capacity_bytes {
            // TRRIP victim scan: evict the oldest cold entry; age the
            // whole population when none is cold. The just-admitted
            // entry can itself be the victim under a pathologically
            // small budget.
            let victim = inner
                .map
                .iter()
                .flat_map(|(&k, v)| {
                    v.iter()
                        .enumerate()
                        .map(move |(i, e)| (k, i, e.rrpv, e.seq))
                })
                .filter(|&(_, _, rrpv, _)| rrpv >= RRPV_COLD)
                .min_by_key(|&(_, _, _, seq)| seq);
            match victim {
                Some((key, i, _, _)) => {
                    let entries = inner.map.get_mut(&key).expect("victim key resident");
                    let e = entries.remove(i);
                    inner.stats.resident_bytes -= e.bytes;
                    inner.stats.evictions += 1;
                    if entries.is_empty() {
                        inner.map.remove(&key);
                    }
                }
                None => {
                    for entries in inner.map.values_mut() {
                        for e in entries.iter_mut() {
                            e.rrpv = (e.rrpv + 1).min(RRPV_COLD);
                        }
                    }
                }
            }
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

    /// Distinct keys currently resident.
    pub fn resident_chunks(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .map
            .len()
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

    fn payload(n: usize) -> ChunkPayload {
        ChunkPayload {
            orig_start: 0x1000,
            body_words: n as u32,
            words: vec![0x13; n],
            exits: Vec::new(),
            resolved: Vec::new(),
            extra_orig: Vec::new(),
        }
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
