//! The cache controller (CC) — the client side of the softcache.
//!
//! The CC owns the translation cache (tcache) and its map (Figure 4 of the
//! paper: tcache, tcache map, next-free pointer). It installs rewritten
//! chunks, services miss stubs by requesting targets from the MC and then
//! **rewriting the branch again** to point at the now-resident copy, runs
//! the hash-table fallback for computed jumps, and implements invalidation:
//! finding "any and all pointers that implicitly mark a basic block as
//! valid" — incoming branches recorded at patch time, plus return addresses
//! on the stack, which the known frame layout lets it walk.

use crate::endpoint::McEndpoint;
use crate::integrity::{IntegrityConfig, IntegrityStats, MemFaultInjector, SealTable};
use crate::power::BankModel;
use crate::protocol::{ChunkPayload, PatchKind, Reply, Request};
use softcache_isa::inst::Inst;
use softcache_isa::layout::{FP_SENTINEL, STACK_TOP};
use softcache_isa::reg::Reg;
use softcache_isa::{cf, encode};
use softcache_net::{LinkModel, LinkPolicy, LinkStats, NetError};
use softcache_sim::{Machine, SimError};
use std::collections::{HashMap, HashSet};
use std::mem::take;
use std::ops::Range;

/// Replacement policy applied when the tcache fills.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TcachePolicy {
    /// Wholesale flush on pressure — the paper's SPARC-prototype policy
    /// (like Dynamo/Shade) and the source of Figure 5's thrash cliff.
    FlushAll,
    /// TRRIP-flavored per-chunk victim eviction: each chunk carries a
    /// re-reference prediction value (hot/warm/cold insertion from its
    /// refetch history, aging under allocation pressure) and only enough
    /// cold victims are evicted to fit the incoming chunk. Degrades to a
    /// wholesale flush when pins/fragmentation leave no usable hole.
    #[default]
    Trrip,
}

/// TRRIP re-reference horizon: victims are taken at this value.
const RRPV_MAX: u8 = 3;
/// Insertion value for a chunk refetched soon after its eviction.
const RRPV_HOT: u8 = 0;
/// Insertion value for a chunk that has been evicted before.
const RRPV_WARM: u8 = 1;
/// Insertion value for a never-evicted demand fetch.
const RRPV_FRESH: u8 = 2;
/// Evictions within which a refetch counts as an imminent re-reference.
const REREF_WINDOW: u64 = 64;

/// Configuration of the software instruction cache.
#[derive(Clone, Copy, Debug)]
pub struct IcacheConfig {
    /// Base address of the tcache region in client memory.
    pub tcache_base: u32,
    /// Size of the tcache in bytes.
    pub tcache_size: u32,
    /// MC↔CC link cost model.
    pub link: LinkModel,
    /// Retry/backoff policy for the remote MC endpoint (ignored when the
    /// MC is fused in-process).
    pub link_policy: LinkPolicy,
    /// Fixed CC-side cycles per serviced miss (trap entry, record lookup,
    /// patching).
    pub miss_handler_cycles: u64,
    /// Cycles per hash-table lookup for computed jumps.
    pub hash_lookup_cycles: u64,
    /// Cycles per installed word (copy into tcache).
    pub install_cycles_per_word: u64,
    /// Speculative-push depth: on a miss, ask the MC for up to this many
    /// predicted-next chunks beyond the demanded one, shipped in one
    /// batched reply. 0 disables batching (the paper's one-chunk-per-miss
    /// protocol).
    pub prefetch_depth: u32,
    /// Execute translated code through the simulator's superblock micro-op
    /// engine. Host-side speed only; simulated results are bit-identical
    /// either way (`icache::tests::superblock_engine_is_bit_identical_at_system_level`).
    pub superblocks: bool,
    /// Chain superblocks across terminators with statically known targets
    /// (trace formation): whole traces run with one dispatch and one
    /// budget check per generation-stamped link. Composes with
    /// `superblocks` — ignored when that is off. Host-side speed only;
    /// simulated results are bit-identical either way
    /// (`icache::tests::chaining_is_bit_identical_at_system_level`).
    pub chaining: bool,
    /// Give register-indirect terminators (`jr`/`jalr`/`ret`) per-site
    /// inline caches so monomorphic indirects chain like static legs.
    /// Composes with `chaining` — ignored when that is off. Host-side
    /// speed only; simulated results are bit-identical either way
    /// (`icache::tests::indirect_ic_is_bit_identical_at_system_level`).
    pub indirect_ic: bool,
    /// Unused (default 0): `ret` chains through its inline cache, and
    /// there is no return-address stack to size. Kept only because the
    /// benchmark's traced run (`benchmark/src/solo.rs`) still reads it;
    /// delete it with that read.
    pub ras_depth: u32,
    /// Promote hot superblocks to the threaded-dispatch tier (flat
    /// handler-pointer arrays, no per-uop match — DESIGN.md §14).
    /// Composes with `superblocks` — ignored when that is off. Host-side
    /// speed only; simulated results are bit-identical either way
    /// (`icache::tests::threaded_tier_is_bit_identical_at_system_level`).
    pub threaded: bool,
    /// Entry-count a superblock must reach (under TRRIP-style epoch
    /// decay) before it is lowered to threaded form. 0 threads every
    /// block at lowering time; [`softcache_sim::THREADED_NEVER`] never
    /// promotes.
    pub threaded_threshold: u32,
    /// Integrity-seal verification and corruption-watchdog knobs
    /// (DESIGN.md §13).
    pub integrity: IntegrityConfig,
    /// Replacement policy on tcache pressure (DESIGN.md §16).
    pub tcache_policy: TcachePolicy,
    /// Instruction budget for a run.
    pub fuel: u64,
}

impl Default for IcacheConfig {
    fn default() -> IcacheConfig {
        IcacheConfig {
            tcache_base: softcache_isa::layout::TCACHE_BASE,
            tcache_size: 48 * 1024,
            link: LinkModel::default(),
            link_policy: LinkPolicy::default(),
            miss_handler_cycles: 60,
            hash_lookup_cycles: 12,
            install_cycles_per_word: 2,
            prefetch_depth: 0,
            superblocks: true,
            chaining: true,
            indirect_ic: true,
            ras_depth: 0,
            threaded: true,
            threaded_threshold: softcache_sim::DEFAULT_THREADED_THRESHOLD,
            integrity: IntegrityConfig::default(),
            tcache_policy: TcachePolicy::default(),
            fuel: 2_000_000_000,
        }
    }
}

/// Cache-controller statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IcacheStats {
    /// Chunks translated (the numerator of the paper's software miss rate).
    pub translations: u64,
    /// Miss stubs executed.
    pub miss_traps: u64,
    /// Computed-jump traps.
    pub hash_traps: u64,
    /// Computed-jump traps that hit the map.
    pub hash_hits: u64,
    /// Full tcache flushes.
    pub flushes: u64,
    /// Live chunks dropped by wholesale flushes and resyncs.
    pub flush_losses: u64,
    /// Individual chunk invalidations.
    pub chunk_invalidations: u64,
    /// Chunks evicted individually by the `Trrip` policy.
    pub evictions: u64,
    /// Bytes reclaimed by those evictions.
    pub evicted_bytes: u64,
    /// Allocation-pressure fills serviced by eviction (`Trrip` only).
    pub evict_fills: u64,
    /// Evicted chunks whose pre-fill temperature was hot (RRPV 0).
    pub evicted_hot: u64,
    /// Evicted chunks whose pre-fill temperature was warm (RRPV 1).
    pub evicted_warm: u64,
    /// Evicted chunks whose pre-fill temperature was cold (RRPV 2+).
    pub evicted_cold: u64,
    /// Speculatively pushed chunks evicted before first entry (also
    /// counted in `link.prefetch_wastes`).
    pub evicted_unentered: u64,
    /// Chunks still resident at end of run (settled by
    /// [`Cc::finalize_prefetch`]).
    pub residents: u64,
    /// Patch operations applied (branches re-rewritten).
    pub patches: u64,
    /// Words installed into the tcache.
    pub words_installed: u64,
    /// Return-address slots redirected during invalidation.
    pub ra_redirects: u64,
    /// Cycles spent servicing misses (handler + link stall + install).
    pub miss_cycles: u64,
    /// Link traffic.
    pub link: LinkStats,
    /// Integrity-seal / self-healing ledger (all zero unless faults are
    /// injected or trap-entry verification is armed).
    pub integrity: IntegrityStats,
}

impl IcacheStats {
    /// Mean victims evicted per allocation-pressure fill.
    pub fn victims_per_fill(&self) -> f64 {
        self.evictions as f64 / self.evict_fills.max(1) as f64
    }

    /// Exact install ledger: every translated chunk is accounted exactly
    /// once as still resident, individually evicted, explicitly
    /// invalidated, or lost to a wholesale flush/resync. Holds after
    /// [`Cc::finalize_prefetch`] settles `residents`.
    pub fn install_ledger_balanced(&self) -> bool {
        self.translations
            == self.residents + self.evictions + self.chunk_invalidations + self.flush_losses
    }
}

/// Errors from the softcache runtime.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CacheError {
    /// A single chunk is larger than the whole tcache.
    ChunkTooBig {
        /// The chunk's size in bytes.
        bytes: u32,
        /// The tcache capacity.
        capacity: u32,
    },
    /// The MC reported an error.
    Mc(u32),
    /// Transport failure.
    Net(NetError),
    /// Protocol violation.
    Proto,
    /// CPU fault.
    Sim(SimError),
    /// Instruction budget exhausted.
    OutOfFuel,
    /// A trap referenced an unknown miss record (corrupted tcache).
    BadMissRecord(u32),
    /// The MC's session epoch changed: it restarted and lost its residence
    /// mirror. The CC must resync (full local invalidate) and retry.
    McRestarted,
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::ChunkTooBig { bytes, capacity } => {
                write!(
                    f,
                    "chunk of {bytes} bytes exceeds tcache of {capacity} bytes"
                )
            }
            CacheError::Mc(code) => write!(f, "memory controller error {code}"),
            CacheError::Net(e) => write!(f, "link error: {e}"),
            CacheError::Proto => write!(f, "protocol violation"),
            CacheError::Sim(e) => write!(f, "{e}"),
            CacheError::OutOfFuel => write!(f, "instruction budget exhausted"),
            CacheError::BadMissRecord(idx) => write!(f, "unknown miss record {idx}"),
            CacheError::McRestarted => write!(f, "memory controller restarted (epoch changed)"),
        }
    }
}

impl std::error::Error for CacheError {}

impl From<SimError> for CacheError {
    fn from(e: SimError) -> CacheError {
        CacheError::Sim(e)
    }
}

/// First-fit free-list allocator over the tcache region: sorted,
/// coalesced, non-adjacent holes. With the `FlushAll` policy the list
/// always holds one tail hole and degenerates to the paper's bump
/// pointer; eviction punches reusable holes into the middle.
#[derive(Clone, Debug)]
struct FreeList {
    base: u32,
    size: u32,
    /// `(start, len)` holes, sorted by start, never empty-length.
    holes: Vec<(u32, u32)>,
}

impl FreeList {
    fn new(base: u32, size: u32) -> FreeList {
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
    fn reset(&mut self) {
        self.holes.clear();
        self.holes.push((self.base, self.size));
    }

    fn free_bytes(&self) -> u32 {
        self.holes.iter().map(|&(_, l)| l).sum()
    }

    /// Bytes allocated out of the arena (which `new` rounded down to
    /// whole words).
    fn used_bytes(&self) -> u32 {
        self.size - self.free_bytes()
    }

    /// Index of the arena word holding `addr`, if the arena holds it.
    fn word_index(&self, addr: u32) -> Option<usize> {
        let off = addr.checked_sub(self.base)?;
        (off < self.size).then_some(off as usize / 4)
    }

    /// The largest hole as `(start, len)` — `len` 0 when full. Ties go to
    /// the lowest address, so a fresh tcache yields its base.
    fn largest(&self) -> (u32, u32) {
        self.holes
            .iter()
            .copied()
            .max_by_key(|&(s, l)| (l, std::cmp::Reverse(s)))
            .unwrap_or((self.base, 0))
    }

    /// First-fit allocation at the lowest address with room. The install
    /// path carves holes directly (`largest` + `alloc_at`); this remains
    /// as the reference allocator exercised by the free-list unit tests.
    #[cfg(test)]
    fn alloc(&mut self, bytes: u32) -> Option<u32> {
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
    /// redirector words, which collect at the high end of the arena so
    /// the holes eviction opens for chunk-sized fills stay coalescible.
    fn alloc_high(&mut self, bytes: u32) -> Option<u32> {
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
    fn hole_at(&self, addr: u32) -> Option<(u32, u32)> {
        self.holes
            .iter()
            .copied()
            .find(|&(s, l)| s <= addr && addr < s + l)
    }

    /// Carve the exact range `[start, start + bytes)` out of whichever
    /// hole contains it; `false` if no hole does.
    fn alloc_at(&mut self, start: u32, bytes: u32) -> bool {
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
    fn release(&mut self, start: u32, len: u32) {
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

#[derive(Clone, Debug)]
struct MissRecord {
    orig_target: u32,
    /// Patch site applied once the target is resident.
    patch: Option<(u32, PatchKind)>,
    /// Chunk the patch site lives in (patches are skipped if it died).
    home: Option<usize>,
}

#[derive(Clone, Copy, Debug)]
struct Incoming {
    from_chunk: usize,
    addr: u32,
    kind: PatchKind,
}

#[derive(Debug, Default)]
struct ChunkInfo {
    orig_start: u32,
    tc_start: u32,
    n_words: u32,
    body_words: u32,
    extra_orig: Vec<u32>,
    incoming: Vec<Incoming>,
    /// Slots whose `incoming` lists this chunk has pushed onto (each
    /// once): the only places its back-references can sit when it dies.
    outgoing: Vec<usize>,
    records: Vec<u32>,
    alive: bool,
    /// Installation counter distinguishing reuses of this slot: a miss
    /// record patched against an older installation must not touch a
    /// newer chunk that happens to occupy the same slot.
    epoch: u64,
    /// TRRIP re-reference prediction value: 0 = re-reference imminent,
    /// [`RRPV_MAX`] = distant. Maintained under both policies, consulted
    /// only by `Trrip` victim selection.
    rrpv: u8,
    /// `rrpv` snapshot taken when the current allocation-pressure fill
    /// began — the temperature the eviction histogram records.
    pressure_rrpv: u8,
    /// Lifetime re-reference count of `orig_start` (see `Cc::heat`),
    /// carried here while the chunk is resident.
    heat: u64,
    /// Equal to `Cc::fill_stamp` while the current fill must not evict
    /// this chunk.
    guard: u64,
}

impl ChunkInfo {
    /// The tcache bytes the chunk occupies.
    fn span(&self) -> Range<u32> {
        self.tc_start..self.tc_start + self.n_words * 4
    }
}

/// A single-word redirector: a return-address trampoline (permanent,
/// shared by `orig`) or a standalone branch-landing stub (retired when
/// its record dies or its branch is patched direct).
#[derive(Clone, Copy, Debug)]
struct Redir {
    addr: u32,
    orig: u32,
    /// Miss-record index encoded in the word — enough metadata to
    /// regenerate a corrupted span without a refetch.
    idx: u32,
    /// `true` for standalone stubs, `false` for RA trampolines. Only
    /// trampolines are reused by target: handing a return address a stub
    /// whose record dies with its home chunk would strand the RA on a
    /// dangling record index.
    stub: bool,
}

/// The cache controller state.
pub struct Cc {
    cfg: IcacheConfig,
    /// tcache map: original pc → live chunk slot, whose `tc_start` is
    /// the translation (Figure 4's hash table).
    map: HashMap<u32, usize>,
    chunks: Vec<ChunkInfo>,
    /// Per arena word: 1 + the slot of the live chunk covering it, 0 for
    /// none — `chunk_at` in one load.
    owner: Vec<u32>,
    records: Vec<Option<MissRecord>>,
    /// Return-address trampolines and standalone stubs. The record
    /// index lets a corrupted single-word span be regenerated purely
    /// from this metadata, no refetch needed.
    trampolines: Vec<Redir>,
    /// tcache allocator (a bump pointer until eviction punches holes).
    free: FreeList,
    /// Dead `chunks` slots available for reuse — under `Trrip` the vec
    /// would otherwise grow (and `chunk_at` slow down) forever.
    free_chunk_slots: Vec<usize>,
    /// Dead `records` slots available for reuse.
    free_record_slots: Vec<u32>,
    /// Monotone installation counter backing `ChunkInfo::epoch`. Never
    /// reset: epochs must stay unique across flushes.
    epoch_counter: u64,
    /// Eviction counter ordering `history` entries.
    evict_seq: u64,
    /// Original pc → `evict_seq` at its last eviction: the re-reference
    /// history that drives hot/warm/cold insertion. Survives flushes —
    /// temperature is a property of the program, not of one tcache
    /// generation.
    history: HashMap<u32, u64>,
    /// Original pc → lifetime re-reference count (map hits, miss traps on
    /// the home site, demand installs and demand-resolved static refs).
    /// Survives evictions and flushes; under pressure the victim
    /// tie-break prefers the chunk whose code has re-referenced least
    /// over the whole run, so the churn concentrates on low-entry-rate
    /// code and the hot loop stays resident. Only references to resident
    /// chunks count, so a resident chunk carries its count in
    /// `ChunkInfo::heat`: taken from here at install, folded back when
    /// it dies.
    heat: HashMap<u32, u64>,
    /// Allocation-pressure fill counter backing `ChunkInfo::guard`.
    fill_stamp: u64,
    generation: u64,
    /// Pushed chunks installed but not yet observed entered. An entry
    /// leaves as a *hit* when the program reaches the chunk (miss stub,
    /// hash lookup, or a later demand chunk resolving into it) and as a
    /// *waste* when the chunk dies unentered (flush, resync, invalidation,
    /// end of run).
    pending_prefetch: HashSet<u32>,
    /// Optional banked-SRAM power model (§4): tracks which banks hold live
    /// tcache bytes so unused banks can be gated off.
    power: Option<BankModel>,
    /// CRC-32 seals over every installed span — CC metadata, never
    /// simulated memory (DESIGN.md §13).
    seals: SealTable,
    /// Verify seals at trap entry before redirecting the PC. Armed by
    /// [`Cc::arm_integrity`] or `cfg.integrity.verify_traps`.
    armed: bool,
    /// Watchdog: seal failures per original chunk address. Survives
    /// flushes — resetting it would let a stuck chunk livelock the
    /// retranslate loop across epochs.
    fails: HashMap<u32, u32>,
    /// Chunks pinned to the slow-path interpreter by the watchdog,
    /// keyed by original address so the pin follows reinstallation.
    pinned_origs: HashSet<u32>,
    /// Statistics.
    pub stats: IcacheStats,
}

impl Cc {
    /// Fresh controller.
    pub fn new(cfg: IcacheConfig) -> Cc {
        Cc {
            free: FreeList::new(cfg.tcache_base, cfg.tcache_size),
            armed: cfg.integrity.verify_traps,
            cfg,
            map: HashMap::new(),
            chunks: Vec::new(),
            owner: vec![0; cfg.tcache_size as usize / 4],
            records: Vec::new(),
            trampolines: Vec::new(),
            free_chunk_slots: Vec::new(),
            free_record_slots: Vec::new(),
            epoch_counter: 0,
            evict_seq: 0,
            history: HashMap::new(),
            heat: HashMap::new(),
            fill_stamp: 0,
            generation: 0,
            pending_prefetch: HashSet::new(),
            power: None,
            seals: SealTable::default(),
            fails: HashMap::new(),
            pinned_origs: HashSet::new(),
            stats: IcacheStats::default(),
        }
    }

    /// Arm trap-entry seal verification (done automatically when a
    /// memory-fault plan is injected into a run).
    pub fn arm_integrity(&mut self) {
        self.armed = true;
    }

    /// The tcache address `orig` is currently translated to, if resident.
    pub fn translation_of(&self, orig: u32) -> Option<u32> {
        self.map.get(&orig).map(|&id| self.chunks[id].tc_start)
    }

    /// Attach a banked-SRAM power model; installs, flushes and
    /// invalidations will drive its occupancy, and the run loop its access
    /// accounting.
    pub fn attach_power(&mut self, model: BankModel) {
        self.power = Some(model);
    }

    /// The power model, if attached.
    pub fn power(&self) -> Option<&BankModel> {
        self.power.as_ref()
    }

    /// Account one instruction fetch for the power model.
    #[inline]
    pub fn power_access(&mut self, addr: u32, cycle: u64) {
        if let Some(p) = &mut self.power {
            p.access(addr, cycle);
        }
    }

    /// The configuration.
    pub fn config(&self) -> &IcacheConfig {
        &self.cfg
    }

    /// Bytes of tcache currently allocated.
    pub fn used_bytes(&self) -> u32 {
        self.free.used_bytes()
    }

    /// Number of live chunks.
    pub fn resident_chunks(&self) -> usize {
        self.chunks.iter().filter(|c| c.alive).count()
    }

    /// Is `orig` currently translated?
    pub fn is_resident(&self, orig: u32) -> bool {
        self.map.contains_key(&orig)
    }

    fn end(&self) -> u32 {
        self.cfg.tcache_base + self.cfg.tcache_size
    }

    fn rpc(&mut self, ep: &mut McEndpoint, req: &Request) -> Result<(Reply, u64), CacheError> {
        let out = ep.rpc(req)?;
        let stall = self.stats.link.record_attempts(
            &self.cfg.link,
            out.req_bytes,
            out.rep_bytes,
            out.attempts,
            out.backoff,
        );
        self.stats.link.session.absorb(&out.session);
        Ok((out.reply, stall))
    }

    /// Chunk id containing tcache address `addr`, if any.
    fn chunk_at(&self, addr: u32) -> Option<usize> {
        let id = self
            .free
            .word_index(addr)
            .and_then(|w| self.owner[w].checked_sub(1))
            .map(|id| id as usize);
        debug_assert_eq!(
            id,
            self.chunk_at_by_scan(addr),
            "owner table disagrees with the live chunks at {addr:#x}"
        );
        id
    }

    /// The linear scan the owner table replaced, kept as its oracle.
    fn chunk_at_by_scan(&self, addr: u32) -> Option<usize> {
        self.chunks
            .iter()
            .position(|c| c.alive && c.span().contains(&addr))
    }

    /// Point the owner table's words under chunk `id` at `owner`.
    fn set_owner(&mut self, id: usize, owner: u32) {
        let c = &self.chunks[id];
        let lo = self
            .free
            .word_index(c.tc_start)
            .expect("chunks live in the arena");
        self.owner[lo..lo + c.n_words as usize].fill(owner);
    }

    /// Map a tcache address back to the original-program resume address.
    fn tc_to_orig(&self, addr: u32) -> Option<u32> {
        if let Some(id) = self.chunk_at(addr) {
            let c = &self.chunks[id];
            let widx = (addr - c.tc_start) / 4;
            return if widx < c.body_words {
                Some(c.orig_start + widx * 4)
            } else {
                c.extra_orig.get((widx - c.body_words) as usize).copied()
            };
        }
        self.trampolines
            .iter()
            .find(|t| t.addr == addr)
            .map(|t| t.orig)
    }

    /// Ensure the chunk starting at `orig` is resident; returns its tcache
    /// address. On pressure, makes room per the configured policy: evicts
    /// cold victims (`Trrip`) or flushes wholesale (`FlushAll`).
    pub fn ensure(
        &mut self,
        machine: &mut Machine,
        ep: &mut McEndpoint,
        orig: u32,
    ) -> Result<u32, CacheError> {
        if let Some(&cid) = self.map.get(&orig) {
            // A map hit is an observed re-reference: reset temperature.
            let c = &mut self.chunks[cid];
            c.rrpv = RRPV_HOT;
            c.heat += 1;
            let tc = c.tc_start;
            if self.pending_prefetch.remove(&orig) {
                self.stats.link.prefetch_hits += 1;
            }
            return Ok(tc);
        }
        // The largest size already made room for this fetch. A refetch can
        // come back *bigger* (the rewritten size depends on the
        // destination), which warrants another round; but once the hole we
        // secured covers the request and the chunk still does not fit,
        // room-making stalled — eviction degraded to a flush, and flushing
        // again cannot help (the fresh tcache keeps its return-address
        // trampolines and pinned spans). Strictly monotone, so the retry
        // loop terminates.
        let mut roomed: u32 = 0;
        let mut batch_ok = self.cfg.prefetch_depth > 0;
        loop {
            let (dest, budget) = self.free.largest();
            let req = if batch_ok {
                Request::FetchBatch {
                    orig_pc: orig,
                    dest,
                    max_chunks: self.cfg.prefetch_depth + 1,
                    budget_bytes: budget,
                }
            } else {
                Request::FetchBlock {
                    orig_pc: orig,
                    dest,
                }
            };
            let (reply, stall) = match self.rpc(ep, &req) {
                Ok(x) => x,
                Err(CacheError::McRestarted) => {
                    // The MC came back empty-handed: nothing it resolved
                    // for us is trustworthy any more. Drop everything
                    // locally and retry this fetch against the fresh MC.
                    self.resync(machine);
                    roomed = 0;
                    continue;
                }
                Err(CacheError::Net(NetError::Timeout)) if batch_ok => {
                    // The batched exchange exhausted its retries. The MC
                    // may well have processed it (our reply lost on the
                    // wire), leaving residence-mirror entries for pushed
                    // chunks we never installed. Flush to clear them, then
                    // degrade to the single-chunk protocol for this miss.
                    // Room-making after a flush cannot free more, so the
                    // retry is also the final fit attempt.
                    self.stats.link.session.batch_fallbacks += 1;
                    batch_ok = false;
                    self.flush(machine, ep)?;
                    roomed = self.cfg.tcache_size;
                    continue;
                }
                Err(e) => return Err(e),
            };
            self.stats.miss_cycles += stall;
            machine.stats.cycles += stall;
            let chunks = match reply {
                Reply::Chunk(c) => vec![c],
                Reply::Batch(cs) if !cs.is_empty() => cs,
                Reply::Err(code) => return Err(CacheError::Mc(code)),
                _ => return Err(CacheError::Proto),
            };
            let bytes = chunks[0].words.len() as u32 * 4;
            if bytes > budget {
                if self.cfg.tcache_policy == TcachePolicy::Trrip {
                    // The fetched chunks will not be installed; clear the
                    // MC's residence mirror for them before re-fetching
                    // at a different destination. (`FlushAll` resolves a
                    // misfit with `InvalidateAll`, which clears them all.)
                    let gen = self.generation;
                    self.abandon_fetch(machine, ep, &chunks)?;
                    if self.generation != gen {
                        // The abandon ran into an MC restart and resynced:
                        // the tcache is empty, start the fetch over.
                        roomed = 0;
                        continue;
                    }
                }
                if bytes > self.cfg.tcache_size || bytes <= roomed {
                    return Err(CacheError::ChunkTooBig {
                        bytes,
                        capacity: budget.min(self.cfg.tcache_size),
                    });
                }
                self.make_room(machine, ep, bytes)?;
                roomed = bytes;
                continue;
            }
            let mut it = chunks.into_iter();
            if it.len() > 1 || batch_ok {
                self.stats.link.batches += 1;
            }
            let demand = it.next().expect("checked non-empty");
            let carved = self.free.alloc_at(dest, bytes);
            debug_assert!(carved, "largest hole must fit a checked demand");
            self.install(machine, demand, dest, self.cfg.miss_handler_cycles, false)?;
            // Opportunistically install the pushed chunks right behind the
            // demanded one. They consume only free space inside the hole
            // the MC was given as its byte budget, so nothing live or
            // pinned is ever evicted to make room for speculation.
            let mut cursor = dest + bytes;
            for chunk in it {
                let d = cursor;
                let bytes = chunk.words.len() as u32 * 4;
                if self.map.contains_key(&chunk.orig_start) || !self.free.alloc_at(d, bytes) {
                    // Unreachable with an honest MC: pushes are budget-
                    // bounded and skip resident chunks.
                    return Err(CacheError::Proto);
                }
                let orig_start = chunk.orig_start;
                self.stats.link.prefetched_chunks += 1;
                self.stats.link.prefetched_bytes += bytes as u64;
                self.install(machine, chunk, d, 0, true)?;
                self.pending_prefetch.insert(orig_start);
                cursor = d + bytes;
            }
            return Ok(dest);
        }
    }

    /// Clear the MC's residence-mirror entries for chunks fetched but not
    /// installed: a stale entry would let later rewrites resolve branches
    /// straight into tcache space we reallocated.
    fn abandon_fetch(
        &mut self,
        machine: &mut Machine,
        ep: &mut McEndpoint,
        chunks: &[ChunkPayload],
    ) -> Result<(), CacheError> {
        for c in chunks {
            match self.rpc(
                ep,
                &Request::Invalidate {
                    orig_pc: c.orig_start,
                },
            ) {
                Ok((reply, stall)) => {
                    self.stats.miss_cycles += stall;
                    machine.stats.cycles += stall;
                    if !matches!(reply, Reply::Ack) {
                        return Err(CacheError::Proto);
                    }
                }
                // A restarted MC has an empty mirror — nothing left to
                // abandon; the caller restarts from the resynced state.
                Err(CacheError::McRestarted) => {
                    self.resync(machine);
                    return Ok(());
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Install one rewritten chunk at `dest` (the caller has already
    /// carved `dest` out of the free list). `handler_cycles` is the fixed
    /// trap-servicing cost to charge: the demanded chunk of a fetch pays
    /// `miss_handler_cycles`, a speculatively-pushed chunk pays 0 (no
    /// trap ran for it — only the per-word copy cost applies).
    /// `speculative` selects the insertion temperature: pushed chunks
    /// insert at the distant horizon, demand fetches by refetch history.
    fn install(
        &mut self,
        machine: &mut Machine,
        chunk: ChunkPayload,
        dest: u32,
        handler_cycles: u64,
        speculative: bool,
    ) -> Result<(), CacheError> {
        let n_words = chunk.words.len() as u32;
        machine
            .mem
            .write_words(dest, &chunk.words)
            .expect("tcache region is mapped");
        let id = self.free_chunk_slots.pop().unwrap_or(self.chunks.len());
        let mut record_ids = Vec::with_capacity(chunk.exits.len());
        for exit in &chunk.exits {
            let idx = self.alloc_record(MissRecord {
                orig_target: exit.orig_target,
                patch: Some((dest + exit.patch_slot * 4, exit.kind)),
                home: Some(id),
            });
            record_ids.push(idx);
            machine
                .mem
                .write_u32(dest + exit.stub_slot * 4, encode(Inst::Miss { idx }))
                .expect("stub slot in range");
        }
        // A watchdog-pinned chunk is excluded from superblock lowering:
        // its span runs on the per-instruction slow path wherever it gets
        // reinstalled.
        if self.pinned_origs.contains(&chunk.orig_start) {
            machine.pin_slow_span(dest, dest + n_words * 4);
        }
        // The chunk body and its miss stubs are final: predecode the range
        // eagerly at block starts (superblocks, their instruction slots and
        // the links between them), so the first pass through freshly
        // installed code already runs the fast path as one chained trace.
        // A no-op when the superblock engine is off.
        machine.predecode_range(dest, dest + n_words * 4);
        // Seal the finished span — body plus stub words, read back from
        // simulated memory so the seal covers exactly what will execute.
        self.seals.seal(machine, dest, n_words * 4);
        // Insertion temperature: a chunk refetched soon after an eviction
        // is predicted to re-reference imminently; one ever evicted is
        // warm; a first-time fetch is in between; a speculative push has
        // shown no re-reference evidence at all.
        let mut heat = self.heat.remove(&chunk.orig_start).unwrap_or(0);
        let rrpv = if speculative {
            RRPV_MAX
        } else {
            heat += 1;
            let window = REREF_WINDOW;
            match self.history.get(&chunk.orig_start) {
                Some(&seq) if self.evict_seq - seq <= window => RRPV_HOT,
                Some(_) => RRPV_WARM,
                None => RRPV_FRESH,
            }
        };
        self.epoch_counter += 1;
        if id == self.chunks.len() {
            self.chunks.push(ChunkInfo::default());
        }
        // A recycled slot hands its emptied lists on to the new tenant.
        let c = &mut self.chunks[id];
        let (incoming, outgoing) = (take(&mut c.incoming), take(&mut c.outgoing));
        *c = ChunkInfo {
            orig_start: chunk.orig_start,
            tc_start: dest,
            n_words,
            body_words: chunk.body_words,
            extra_orig: chunk.extra_orig,
            incoming,
            outgoing,
            records: record_ids,
            alive: true,
            epoch: self.epoch_counter,
            rrpv,
            pressure_rrpv: rrpv,
            heat,
            guard: 0,
        };
        self.set_owner(id, id as u32 + 1);
        self.map.insert(chunk.orig_start, id);
        if let Some(p) = &mut self.power {
            p.occupy(dest, n_words * 4);
        }
        // Incoming pointers the MC resolved at rewrite time.
        for rr in &chunk.resolved {
            if let Some(&tid) = self.map.get(&rr.orig_target) {
                self.link(
                    tid,
                    Incoming {
                        from_chunk: id,
                        addr: dest + rr.slot * 4,
                        kind: rr.kind,
                    },
                );
                if !speculative {
                    // Demand code statically branching into a resident
                    // chunk is about to re-reference it.
                    let t = &mut self.chunks[tid];
                    t.rrpv = RRPV_HOT;
                    t.heat += 1;
                }
            }
            // A demand chunk resolved straight into a pushed chunk reaches
            // it without ever trapping — count the speculation as paid off
            // now. (Pushed chunks resolving into each other don't count:
            // they are themselves speculative.)
            if handler_cycles != 0 && self.pending_prefetch.remove(&rr.orig_target) {
                self.stats.link.prefetch_hits += 1;
            }
        }
        self.stats.translations += 1;
        self.stats.words_installed += n_words as u64;
        let cycles = handler_cycles + self.cfg.install_cycles_per_word * n_words as u64;
        self.stats.miss_cycles += cycles;
        machine.stats.cycles += cycles;
        Ok(())
    }

    /// Record a branch site in `inc.from_chunk` that jumps into chunk
    /// `target`, so invalidating `target` can re-point it.
    fn link(&mut self, target: usize, inc: Incoming) {
        self.chunks[target].incoming.push(inc);
        let out = &mut self.chunks[inc.from_chunk].outgoing;
        if !out.contains(&target) {
            out.push(target);
        }
    }

    /// Service a `miss` trap: translate the target, patch the site that
    /// missed (rewriting the branch to point at the now-resident block),
    /// and redirect the PC.
    pub fn handle_miss(
        &mut self,
        machine: &mut Machine,
        ep: &mut McEndpoint,
        idx: u32,
    ) -> Result<(), CacheError> {
        self.stats.miss_traps += 1;
        let rec = self
            .records
            .get(idx as usize)
            .and_then(|r| r.clone())
            .ok_or(CacheError::BadMissRecord(idx))?;
        // The trap re-referenced the site's home chunk: mark it hot before
        // `ensure` runs victim selection for the target fetch.
        if let Some(c) = rec.home.and_then(|h| self.chunks.get_mut(h)) {
            if c.alive {
                c.rrpv = RRPV_HOT;
                c.heat += 1;
            }
        }
        let gen_before = self.generation;
        // `ensure` below may evict the home chunk or recycle its slot for
        // a different installation; the per-install epoch distinguishes
        // "still the same chunk" from "same slot, new tenant".
        let home_epoch = rec
            .home
            .and_then(|h| self.chunks.get(h))
            .filter(|c| c.alive)
            .map(|c| c.epoch);
        let target_tc = self.verified_target(machine, ep, rec.orig_target)?;
        // Patch only if no flush intervened and the home chunk survived.
        if self.generation == gen_before && home_epoch.is_some() {
            let home_now = rec
                .home
                .and_then(|h| self.chunks.get(h))
                .filter(|c| c.alive)
                .map(|c| c.epoch);
            if let (Some((addr, kind)), true) = (rec.patch, home_now == home_epoch) {
                self.apply_patch(machine, addr, kind, target_tc)?;
                if let Some(tid) = self.chunk_at(target_tc) {
                    let from_chunk = rec.home.expect("checked");
                    self.link(
                        tid,
                        Incoming {
                            from_chunk,
                            addr,
                            kind,
                        },
                    );
                }
                // The branch now jumps direct: its standalone landing stub
                // (if the record had one) is unreachable — retire the word
                // and recycle the record. In-chunk stub words stay: their
                // slots remain addressable until the chunk dies.
                if let Some(pos) = self.trampolines.iter().position(|t| t.stub && t.idx == idx) {
                    self.retire_redirector(pos);
                    self.free_record(idx);
                }
            }
        }
        machine.cpu.pc = target_tc;
        Ok(())
    }

    fn apply_patch(
        &mut self,
        machine: &mut Machine,
        addr: u32,
        kind: PatchKind,
        target_tc: u32,
    ) -> Result<(), CacheError> {
        match kind {
            PatchKind::Retarget => {
                let word = machine.mem.read_u32(addr).expect("patch site mapped");
                let patched = cf::retarget(word, addr, target_tc).map_err(|_| CacheError::Proto)?;
                machine.mem.write_u32(addr, patched).expect("mapped");
            }
            PatchKind::ReplaceWord => {
                let j = cf::retarget(encode(Inst::J { off: 0 }), addr, target_tc)
                    .map_err(|_| CacheError::Proto)?;
                machine.mem.write_u32(addr, j).expect("mapped");
            }
        }
        // Re-predecode the patched word immediately — backpatching is the
        // common warm-up write, and the patched site sits in code the
        // client is about to re-enter. (The write bumped the code
        // generation, severing every superblock link; survivors re-chain
        // lazily on their next dispatch.)
        machine.predecode_range(addr, addr + 4);
        // The containing chunk changed legitimately: recompute its seal.
        self.seals.reseal_containing(machine, addr);
        self.stats.patches += 1;
        Ok(())
    }

    /// Service a computed-jump trap (`jrh`/`jalrh`): translate the
    /// original-address target through the map (hash lookup), fetching it
    /// on a miss, and return the tcache address to resume at.
    pub fn hash_jump(
        &mut self,
        machine: &mut Machine,
        ep: &mut McEndpoint,
        orig_target: u32,
    ) -> Result<u32, CacheError> {
        self.stats.hash_traps += 1;
        let cycles = self.cfg.hash_lookup_cycles;
        self.stats.miss_cycles += cycles;
        machine.stats.cycles += cycles;
        if self.map.contains_key(&orig_target) {
            self.stats.hash_hits += 1;
        }
        // `ensure` (inside `verified_target`) settles the prefetch ledger
        // on the map-hit path.
        self.verified_target(machine, ep, orig_target)
    }

    /// [`Cc::ensure`] plus — when integrity verification is armed — a
    /// seal check of the target span *before* the PC is redirected into
    /// it. A corrupted target is quarantined and refetched through the
    /// ordinary miss path, so the trap never lands in corrupted code.
    fn verified_target(
        &mut self,
        machine: &mut Machine,
        ep: &mut McEndpoint,
        orig: u32,
    ) -> Result<u32, CacheError> {
        loop {
            let tc = self.ensure(machine, ep, orig)?;
            if !self.armed {
                return Ok(tc);
            }
            let Some((start, _)) = self.seals.containing(tc) else {
                return Ok(tc);
            };
            self.stats.integrity.seals_checked += 1;
            if self.seals.verify(machine, start) {
                self.stats.integrity.seal_hits += 1;
                return Ok(tc);
            }
            self.stats.integrity.violations += 1;
            self.heal_span(machine, ep, start)?;
            // The heal dropped the corrupted translation; go around to
            // refetch a clean copy.
        }
    }

    // ---- invalidation ----

    /// Enumerate return-address locations: the `ra` register plus the
    /// `fp-4` slot of every frame on the fp chain — exactly the stack-walk
    /// the paper's programming-model restrictions make possible.
    fn ra_locations(machine: &Machine) -> impl Iterator<Item = (RaLoc, u32)> + '_ {
        let mut fp = machine.cpu.get(Reg::FP) as u32;
        let frames = (0..100_000).map_while(move |_| {
            if fp == FP_SENTINEL || !fp.is_multiple_of(4) || !(8..=STACK_TOP).contains(&fp) {
                return None; // end of the chain, or a corrupt one
            }
            let slot = fp - 4;
            let ra = machine.mem.read_u32(slot).ok()?;
            fp = match machine.mem.read_u32(fp - 8) {
                // Frames must grow downward; refuse cycles.
                Ok(next) if next == FP_SENTINEL || next > fp => next,
                _ => FP_SENTINEL,
            };
            Some((RaLoc::Mem(slot), ra))
        });
        std::iter::once((RaLoc::Reg, machine.cpu.get(Reg::RA) as u32)).chain(frames)
    }

    /// Allocate (or reuse) a return-address trampoline for `orig`. Only
    /// true trampolines are reused: a standalone stub's record dies with
    /// its home chunk, so handing its address to a return address would
    /// leave the RA parked on a word whose record can vanish.
    fn trampoline_for(&mut self, machine: &mut Machine, orig: u32) -> Option<u32> {
        if let Some(t) = self.trampolines.iter().find(|t| !t.stub && t.orig == orig) {
            return Some(t.addr);
        }
        let addr = self.free.alloc_high(4)?;
        if let Some(p) = &mut self.power {
            p.occupy(addr, 4);
        }
        let idx = self.alloc_record(MissRecord {
            orig_target: orig,
            patch: None,
            home: None,
        });
        machine
            .mem
            .write_u32(addr, encode(Inst::Miss { idx }))
            .expect("tcache mapped");
        self.trampolines.push(Redir {
            addr,
            orig,
            idx,
            stub: false,
        });
        self.seals.seal(machine, addr, 4);
        Some(addr)
    }

    fn write_ra(&mut self, machine: &mut Machine, loc: RaLoc, value: u32) {
        match loc {
            RaLoc::Reg => machine.cpu.set(Reg::RA, value as i32),
            RaLoc::Mem(addr) => machine
                .mem
                .write_u32(addr, value)
                .expect("stack slot mapped"),
        }
        self.stats.ra_redirects += 1;
    }

    /// Collect live return addresses in `span` (pass the whole tcache
    /// for every one), mapped back to original-program addresses (must
    /// run while the tc→orig mapping still exists).
    fn collect_ras(&self, machine: &Machine, span: Range<u32>) -> Vec<(RaLoc, u32)> {
        Cc::ra_locations(machine)
            .filter(|(_, v)| span.contains(v))
            .filter_map(|(loc, v)| self.tc_to_orig(v).map(|o| (loc, o)))
            .collect()
    }

    /// Collect live return addresses pointing into the tcache.
    fn collect_tcache_ras(&self, machine: &Machine) -> Vec<(RaLoc, u32)> {
        self.collect_ras(machine, self.cfg.tcache_base..self.end())
    }

    /// Drop every chunk, record and trampoline and reset the allocation
    /// pointer — the local half of both [`Cc::flush`] and [`Cc::resync`].
    fn reset_local(&mut self) {
        self.stats.link.prefetch_wastes += self.pending_prefetch.len() as u64;
        for c in self.chunks.iter().filter(|c| c.alive) {
            self.stats.flush_losses += 1;
            self.heat.insert(c.orig_start, c.heat);
        }
        self.pending_prefetch.clear();
        self.chunks.clear();
        self.owner.fill(0);
        self.map.clear();
        self.records.clear();
        self.trampolines.clear();
        self.free_chunk_slots.clear();
        self.free_record_slots.clear();
        self.seals.clear();
        self.free.reset();
        self.generation += 1;
        if let Some(p) = &mut self.power {
            p.release_all();
        }
    }

    /// Re-point previously collected return addresses at fresh trampolines
    /// in the (now empty) tcache.
    fn retrampoline(&mut self, machine: &mut Machine, pending: Vec<(RaLoc, u32)>) {
        for (loc, orig) in pending {
            let stub = self
                .trampoline_for(machine, orig)
                .expect("fresh tcache has room for trampolines");
            self.write_ra(machine, loc, stub);
        }
    }

    /// Recover from an MC restart: the new MC's mirror is empty, so every
    /// locally cached translation is unverifiable. Drop them all (return
    /// addresses are preserved via trampolines, exactly as in a capacity
    /// flush) and let execution refetch on demand. No RPC is needed — the
    /// fresh MC has nothing to invalidate.
    pub fn resync(&mut self, machine: &mut Machine) {
        let pending = self.collect_tcache_ras(machine);
        self.reset_local();
        self.stats.link.session.resyncs += 1;
        // Every tcache address is about to be recycled: slow-path pins
        // anchored to dead spans would wrongly slow fresh code (the pinned
        // origs re-pin on reinstall).
        machine.clear_slow_pins();
        self.retrampoline(machine, pending);
    }

    /// Flush the entire tcache. Live return addresses are mapped back to
    /// original addresses *before* the state is cleared and redirected to
    /// fresh trampolines after.
    pub fn flush(&mut self, machine: &mut Machine, ep: &mut McEndpoint) -> Result<(), CacheError> {
        let pending = self.collect_tcache_ras(machine);
        self.reset_local();
        self.stats.flushes += 1;
        // As in resync: the whole tcache is recycled, so drop every
        // slow-path pin anchored to the dead spans.
        machine.clear_slow_pins();
        match self.rpc(ep, &Request::InvalidateAll) {
            Ok((reply, stall)) => {
                machine.stats.cycles += stall;
                if !matches!(reply, Reply::Ack) {
                    return Err(CacheError::Proto);
                }
            }
            // A restarted MC has an empty mirror — the invalidation we were
            // about to request already happened, just more thoroughly.
            Err(CacheError::McRestarted) => self.stats.link.session.resyncs += 1,
            Err(e) => return Err(e),
        }
        self.retrampoline(machine, pending);
        Ok(())
    }

    /// Invalidate the single chunk translated from `orig` (the API the
    /// paper's self-modifying-code restriction requires programs to call).
    /// Returns `false` if `orig` was not resident.
    ///
    /// Every pointer that implicitly marked the chunk valid is found and
    /// redirected: incoming branches recorded at patch time are re-pointed
    /// at fresh miss stubs, and return addresses into the chunk are
    /// redirected to trampolines.
    pub fn invalidate_chunk(
        &mut self,
        machine: &mut Machine,
        ep: &mut McEndpoint,
        orig: u32,
    ) -> Result<bool, CacheError> {
        let Some(&cid) = self.map.get(&orig) else {
            return Ok(false);
        };
        // Counted up front so the install ledger stays exact even if the
        // detach degrades to a flush (the chunk is already unregistered
        // by then, so `flush_losses` will not see it).
        self.stats.chunk_invalidations += 1;
        if self.pending_prefetch.remove(&orig) {
            self.stats.link.prefetch_wastes += 1;
        }
        let ras = self.collect_ras(machine, self.chunks[cid].span());
        self.detach_chunk(machine, ep, cid, ras)?;
        Ok(true)
    }

    // ---- eviction (TcachePolicy::Trrip) ----

    /// Make room for an incoming chunk of `bytes`. `FlushAll` is the
    /// paper's wholesale flush; `Trrip` evicts max-RRPV victims (aging
    /// every resident when none sits at the horizon) until the largest
    /// hole fits, degrading to a flush only when protected chunks leave
    /// nothing evictable or fragmentation keeps every hole too small.
    fn make_room(
        &mut self,
        machine: &mut Machine,
        ep: &mut McEndpoint,
        bytes: u32,
    ) -> Result<(), CacheError> {
        if self.cfg.tcache_policy == TcachePolicy::FlushAll {
            return self.flush(machine, ep);
        }
        self.stats.evict_fills += 1;
        // Snapshot each resident's temperature before any pressure aging:
        // the eviction histogram records how hot a victim *looked* when
        // the fill began, not the aged value it was selected at.
        for c in self.chunks.iter_mut().filter(|c| c.alive) {
            c.pressure_rrpv = c.rrpv;
        }
        // No guest instruction retires during a fill, so the protected
        // set (executing chunk, live-RA homes, watchdog pins) is stable.
        self.guard_chunks(machine);
        let gen = self.generation;
        // Seed + grow: the first victim is the globally coldest chunk;
        // while the hole it opened is still too small, prefer evicting
        // its *neighbours* (the more re-reference-distant one when both
        // sides are eligible) so the freed bytes stay contiguous instead
        // of scattering cold holes that never coalesce. When neither
        // neighbour is evictable the policy reseeds globally.
        let mut grow_from: Option<u32> = None;
        loop {
            if self.free.largest().1 >= bytes {
                return Ok(());
            }
            let adjacent = grow_from.and_then(|p| self.neighbour_victim(p));
            let victim = match adjacent.or_else(|| self.pick_victim()) {
                Some(v) => v,
                None => break,
            };
            let victim_start = self.chunks[victim].tc_start;
            self.evict_chunk(machine, ep, victim)?;
            if self.generation != gen {
                // A detach degraded to a flush (or an MC restart forced a
                // resync) and emptied the tcache wholesale.
                return Ok(());
            }
            grow_from = Some(victim_start);
        }
        // Nothing evictable, or the freed bytes never coalesced into a
        // big-enough hole: compact wholesale. The caller's retry decides
        // whether even that was enough.
        self.flush(machine, ep)
    }

    /// Open a new fill and guard the chunks it must never evict: the
    /// chunk the guest pc is executing in, chunks holding live return
    /// addresses (one walk of the `ra` register and the fp chain), and
    /// watchdog-pinned chunks. Redirectors are not chunks and are never
    /// victims.
    fn guard_chunks(&mut self, machine: &Machine) {
        self.fill_stamp += 1;
        let stamp = self.fill_stamp;
        if !self.pinned_origs.is_empty() {
            for c in self.chunks.iter_mut() {
                if c.alive && self.pinned_origs.contains(&c.orig_start) {
                    c.guard = stamp;
                }
            }
        }
        let ras = Cc::ra_locations(machine).map(|(_, ra)| ra);
        for addr in std::iter::once(machine.cpu.pc).chain(ras) {
            if let Some(id) = self.chunk_at(addr) {
                self.chunks[id].guard = stamp;
            }
        }
    }

    /// May the current fill evict chunk `id`?
    fn evictable(&self, id: usize) -> bool {
        let c = &self.chunks[id];
        c.alive && c.guard != self.fill_stamp
    }

    /// TRRIP victim selection: the eligible chunk with the maximum RRPV;
    /// ties fall to the coldest lifetime re-reference count, then the
    /// lowest tcache address. When no eligible chunk sits at the horizon
    /// yet, every resident ages by the shortfall first (the classic RRIP
    /// "increment all" step, batched into one pass).
    fn pick_victim(&mut self) -> Option<usize> {
        let (mut best, mut best_key) = (None, (0u8, 0u64, 0u32));
        for (i, c) in self.chunks.iter().enumerate() {
            if !self.evictable(i) {
                continue;
            }
            let key = (c.rrpv, u64::MAX - c.heat, u32::MAX - c.tc_start);
            if best.is_none() || key > best_key {
                best = Some(i);
                best_key = key;
            }
        }
        let victim = best?;
        let delta = RRPV_MAX - best_key.0;
        if delta > 0 {
            for c in self.chunks.iter_mut().filter(|c| c.alive) {
                c.rrpv = (c.rrpv + delta).min(RRPV_MAX);
            }
        }
        Some(victim)
    }

    /// Neighbour growth: a chunk bordering the hole that contains `p`,
    /// the more re-reference-distant side when both are eligible (ties to
    /// the lower side). Growth may consume warm-or-colder neighbours for
    /// the sake of contiguity, but never a currently-hot chunk: at
    /// pathologically small sizes the retained hot set is the only thing
    /// cutting refetches.
    fn neighbour_victim(&self, p: u32) -> Option<usize> {
        let (s, l) = self.free.hole_at(p)?;
        let eligible = |i: &usize| self.evictable(*i) && self.chunks[*i].rrpv > RRPV_HOT;
        let left = s.checked_sub(4).and_then(|a| self.chunk_at(a));
        let right = self.chunk_at(s + l);
        match (left.filter(eligible), right.filter(eligible)) {
            (Some(a), Some(b)) => {
                let key = |i: usize| {
                    let c = &self.chunks[i];
                    (std::cmp::Reverse(c.rrpv), c.heat)
                };
                Some(if key(a) <= key(b) { a } else { b })
            }
            (x, y) => x.or(y),
        }
    }

    /// Evict one chunk under the `Trrip` policy: account it, remember its
    /// eviction for re-reference insertion, and detach it exactly like an
    /// explicit invalidation (seal dropped, links severed, redirectors
    /// re-pointed, span reclaimed) — but with no generation bump, so
    /// every surviving translation, patch and trampoline stays live.
    fn evict_chunk(
        &mut self,
        machine: &mut Machine,
        ep: &mut McEndpoint,
        cid: usize,
    ) -> Result<(), CacheError> {
        let c = &self.chunks[cid];
        let (orig, span_bytes, temp) = (c.orig_start, c.n_words * 4, c.pressure_rrpv);
        self.stats.evictions += 1;
        self.stats.evicted_bytes += span_bytes as u64;
        match temp {
            RRPV_HOT => self.stats.evicted_hot += 1,
            RRPV_WARM => self.stats.evicted_warm += 1,
            _ => self.stats.evicted_cold += 1,
        }
        if self.pending_prefetch.remove(&orig) {
            self.stats.link.prefetch_wastes += 1;
            self.stats.evicted_unentered += 1;
        }
        self.evict_seq += 1;
        self.history.insert(orig, self.evict_seq);
        // This fill guarded every chunk holding a live return address, so
        // a victim holds none and its detach needs no walk of its own.
        debug_assert!(
            self.collect_ras(machine, self.chunks[cid].span())
                .is_empty(),
            "victim holds a live return address"
        );
        self.detach_chunk(machine, ep, cid, Vec::new())?;
        Ok(())
    }

    /// Detach the live chunk `cid` from every pointer that implicitly
    /// marks it valid — the shared core of [`Cc::invalidate_chunk`] (the
    /// paper's SMC API) and policy eviction. `ra_pending` holds the live
    /// return addresses inside the chunk, already resolved to original
    /// targets. The span is handed back to the allocator *before*
    /// incoming sites are re-pointed, so the replacement stubs and
    /// trampolines can land in the hole just freed and detaching runs
    /// out of redirector space only when pins crowd out the entire
    /// tcache. Returns `false` if it still did and the detach degraded to
    /// a wholesale flush.
    fn detach_chunk(
        &mut self,
        machine: &mut Machine,
        ep: &mut McEndpoint,
        cid: usize,
        ra_pending: Vec<(RaLoc, u32)>,
    ) -> Result<bool, CacheError> {
        // Unregister the chunk and reclaim its span.
        self.set_owner(cid, 0);
        let c = &mut self.chunks[cid];
        c.alive = false;
        let (orig, span_start, span_bytes) = (c.orig_start, c.tc_start, c.n_words * 4);
        let mut incoming = take(&mut c.incoming);
        let mut outgoing = take(&mut c.outgoing);
        self.heat.insert(orig, c.heat);
        self.map.remove(&orig);
        self.seals.unseal(span_start);
        if self.pinned_origs.contains(&orig) {
            machine.unpin_slow_span(span_start, span_start + span_bytes);
        }
        // Host-side hygiene: drop cached decodes and superblocks over the
        // span without a generation bump. Survivors keep their chain
        // links — every route into the dead span is severed below (or was
        // already write-barriered by the re-pointing itself).
        machine.invalidate_code_span(span_start, span_start + span_bytes);
        if let Some(p) = &mut self.power {
            p.release(span_start, span_bytes);
        }
        self.free.release(span_start, span_bytes);

        // 1. Re-point incoming sites at fresh miss stubs.
        for inc in &incoming {
            if !self.chunks[inc.from_chunk].alive {
                continue;
            }
            let idx = self.alloc_record(MissRecord {
                orig_target: orig,
                patch: Some((inc.addr, inc.kind)),
                home: Some(inc.from_chunk),
            });
            self.chunks[inc.from_chunk].records.push(idx);
            match inc.kind {
                PatchKind::ReplaceWord => {
                    machine
                        .mem
                        .write_u32(inc.addr, encode(Inst::Miss { idx }))
                        .expect("mapped");
                }
                PatchKind::Retarget => {
                    // A branch needs somewhere to land: allocate a stub.
                    let Some(stub) = self.alloc_stub(machine, idx) else {
                        // No room for a stub: degrade to a full flush.
                        self.flush(machine, ep)?;
                        return Ok(false);
                    };
                    let word = machine.mem.read_u32(inc.addr).expect("mapped");
                    let patched =
                        cf::retarget(word, inc.addr, stub).map_err(|_| CacheError::Proto)?;
                    machine.mem.write_u32(inc.addr, patched).expect("mapped");
                }
            }
        }
        // The sites' home chunks changed legitimately: reseal each once.
        for (k, inc) in incoming.iter().enumerate() {
            let home = inc.from_chunk;
            if self.chunks[home].alive && !incoming[..k].iter().any(|i| i.from_chunk == home) {
                let start = self.chunks[home].tc_start;
                self.seals.reseal_containing(machine, start);
            }
        }

        // 2. Redirect return addresses pointing into the dead span.
        for (loc, target) in ra_pending {
            match self.trampoline_for(machine, target) {
                Some(stub) => self.write_ra(machine, loc, stub),
                None => {
                    self.flush(machine, ep)?;
                    return Ok(false);
                }
            }
        }

        // 3. Kill the chunk's records (retiring their standalone stubs),
        //    drop its back-references from the chunks it linked into, and
        //    recycle the slot with its emptied lists.
        self.kill_records_of(cid);
        for &t in &outgoing {
            self.chunks[t].incoming.retain(|i| i.from_chunk != cid);
        }
        debug_assert!(
            self.chunks
                .iter()
                .all(|c| c.incoming.iter().all(|i| i.from_chunk != cid)),
            "a back-reference from chunk {cid} outlived its outgoing list"
        );
        incoming.clear();
        outgoing.clear();
        let c = &mut self.chunks[cid];
        c.incoming = incoming;
        c.outgoing = outgoing;
        self.free_chunk_slots.push(cid);

        match self.rpc(ep, &Request::Invalidate { orig_pc: orig }) {
            Ok((reply, stall)) => {
                machine.stats.cycles += stall;
                if !matches!(reply, Reply::Ack) {
                    return Err(CacheError::Proto);
                }
            }
            // The MC restarted: the chunk is gone from its mirror along
            // with everything else. Resync the rest of our state too.
            Err(CacheError::McRestarted) => self.resync(machine),
            Err(e) => return Err(e),
        }
        Ok(true)
    }

    /// Allocate a miss record, reusing a dead slot when one exists.
    fn alloc_record(&mut self, rec: MissRecord) -> u32 {
        match self.free_record_slots.pop() {
            Some(i) => {
                self.records[i as usize] = Some(rec);
                i
            }
            None => {
                self.records.push(Some(rec));
                self.records.len() as u32 - 1
            }
        }
    }

    /// Kill record `idx` and make its slot reusable. Idempotent: a slot
    /// already dead (e.g. freed early by a patch-time stub retirement and
    /// still listed by its home chunk) is left alone.
    fn free_record(&mut self, idx: u32) {
        if self.records[idx as usize].take().is_some() {
            self.free_record_slots.push(idx);
        }
    }

    /// Kill every record the dead chunk `cid` still owns, retiring their
    /// standalone landing stubs. Records whose slot was recycled to a
    /// different home are skipped — they belong to someone else now.
    fn kill_records_of(&mut self, cid: usize) {
        let ridxs = std::mem::take(&mut self.chunks[cid].records);
        for ridx in ridxs {
            let belongs = self.records[ridx as usize]
                .as_ref()
                .is_some_and(|r| r.home == Some(cid));
            if !belongs {
                continue;
            }
            self.free_record(ridx);
            if let Some(pos) = self
                .trampolines
                .iter()
                .position(|t| t.stub && t.idx == ridx)
            {
                self.retire_redirector(pos);
            }
        }
    }

    /// Remove redirector `pos` (a standalone stub) and hand its word back
    /// to the allocator. RA trampolines are never retired — a return
    /// address may hold their address indefinitely. The stale word stays
    /// in simulated memory until the hole is reused, at which point the
    /// code-write barrier invalidates any cached decode of it.
    fn retire_redirector(&mut self, pos: usize) {
        let t = self.trampolines.remove(pos);
        self.seals.unseal(t.addr);
        self.free.release(t.addr, 4);
    }

    /// Settle the speculation ledger at the end of a run: pushed chunks
    /// never observed entered are counted as wasted. After this,
    /// `prefetch_hits + prefetch_wastes == prefetched_chunks`.
    pub fn finalize_prefetch(&mut self) {
        self.stats.link.prefetch_wastes += self.pending_prefetch.len() as u64;
        self.pending_prefetch.clear();
        // Settle the install ledger: every translation is now resident,
        // evicted, invalidated, or flush-lost — exactly once.
        self.stats.residents = self.chunks.iter().filter(|c| c.alive).count() as u64;
    }

    /// Allocate a standalone miss-stub word for record `idx`.
    fn alloc_stub(&mut self, machine: &mut Machine, idx: u32) -> Option<u32> {
        let addr = self.free.alloc_high(4)?;
        machine
            .mem
            .write_u32(addr, encode(Inst::Miss { idx }))
            .expect("tcache mapped");
        // Record for the RA walker: resuming at a stub re-enters via its
        // miss record's target.
        let orig = self.records[idx as usize]
            .as_ref()
            .map(|r| r.orig_target)
            .unwrap_or(0);
        self.trampolines.push(Redir {
            addr,
            orig,
            idx,
            stub: true,
        });
        self.seals.seal(machine, addr, 4);
        Some(addr)
    }

    // ---- integrity: verification, healing, fault injection ----

    /// Verify every sealed span against simulated memory and heal any
    /// mismatch: corrupted chunks are quarantined and left to refetch
    /// through the ordinary miss path; corrupted trampoline/stub words
    /// are regenerated from CC metadata. Called after every injection
    /// checkpoint — before the guest resumes — so no corrupted
    /// instruction ever retires; the armed trap-entry checks are
    /// defense-in-depth on top.
    pub fn verify_and_heal(
        &mut self,
        machine: &mut Machine,
        ep: &mut McEndpoint,
    ) -> Result<(), CacheError> {
        for start in self.seals.starts() {
            // An earlier heal this pass (quarantine, or its degrade-to-
            // flush) may have dropped this span already.
            if !self.seals.sealed_at(start) {
                continue;
            }
            self.stats.integrity.seals_checked += 1;
            if self.seals.verify(machine, start) {
                self.stats.integrity.seal_hits += 1;
                continue;
            }
            self.stats.integrity.violations += 1;
            self.heal_span(machine, ep, start)?;
        }
        Ok(())
    }

    /// Recover the corrupted sealed span starting at `start`. Exactly one
    /// of `retranslations` / `slow_path_pins` is incremented per call,
    /// keeping the ledger invariant exact.
    fn heal_span(
        &mut self,
        machine: &mut Machine,
        ep: &mut McEndpoint,
        start: u32,
    ) -> Result<(), CacheError> {
        if let Some(cid) = self.chunk_at(start) {
            let orig = self.chunks[cid].orig_start;
            let fails = self.fails.entry(orig).or_insert(0);
            *fails += 1;
            let newly_pinned =
                *fails > self.cfg.integrity.watchdog_threshold && self.pinned_origs.insert(orig);
            if newly_pinned {
                // Watchdog: this chunk keeps failing its seal — degrade
                // it to the slow-path interpreter wherever it lands next
                // instead of optimistically retranslating forever.
                self.stats.integrity.slow_path_pins += 1;
            } else {
                self.stats.integrity.retranslations += 1;
            }
            self.stats.integrity.quarantines += 1;
            // Quarantine: sever every pointer that marks the chunk valid
            // (incoming branches, return addresses, map entry, records)
            // and tell the MC. The next entry refetches a clean copy on
            // the ordinary miss path.
            self.invalidate_chunk(machine, ep, orig)?;
        } else if let Some(&Redir { addr, idx, .. }) =
            self.trampolines.iter().find(|t| t.addr == start)
        {
            // A single-word trampoline/stub: regenerate it from CC
            // metadata — no refetch needed.
            machine
                .mem
                .write_u32(addr, encode(Inst::Miss { idx }))
                .expect("tcache mapped");
            machine.predecode_range(addr, addr + 4);
            self.seals.seal(machine, addr, 4);
            self.stats.integrity.retranslations += 1;
        } else {
            // Unreachable with consistent metadata: drop the orphan seal.
            self.seals.unseal(start);
            self.stats.integrity.retranslations += 1;
        }
        Ok(())
    }

    /// One fault-injection checkpoint: consume the plan's rolls, apply
    /// any bit flips through simulated memory (the write barrier bumps
    /// the code generation, modelling a refetch from the corrupted
    /// SRAM), then scrub-and-heal before the guest resumes.
    pub fn chaos_tick(
        &mut self,
        machine: &mut Machine,
        ep: &mut McEndpoint,
        inj: &mut MemFaultInjector,
    ) -> Result<(), CacheError> {
        let fire = inj.begin_tick();
        if !fire.any() {
            return Ok(());
        }
        // Resolve the guest pc to its original address BEFORE anything is
        // corrupted: if healing quarantines the very chunk being executed,
        // execution is re-routed through the ordinary miss path.
        let pc_orig = self.tc_to_orig(machine.cpu.pc);
        if fire.code {
            self.inject_code_flip(machine, inj);
        }
        if fire.redirector {
            self.inject_redirector_flip(machine, inj);
        }
        self.verify_and_heal(machine, ep)?;
        self.fixup_pc(machine, ep, pc_orig)?;
        Ok(())
    }

    /// Like [`Cc::chaos_tick`], but also lands scheduled dcache flips in
    /// the software data cache and scrubs it — the full-system
    /// ("all-at-once") injection checkpoint.
    pub fn chaos_tick_full(
        &mut self,
        machine: &mut Machine,
        ep: &mut McEndpoint,
        inj: &mut MemFaultInjector,
        dcache: &mut crate::dcache::Dcache,
    ) -> Result<(), CacheError> {
        let fire = inj.begin_tick();
        if !fire.any() {
            return Ok(());
        }
        let pc_orig = self.tc_to_orig(machine.cpu.pc);
        if fire.code {
            self.inject_code_flip(machine, inj);
        }
        if fire.redirector {
            self.inject_redirector_flip(machine, inj);
        }
        if fire.dcache && dcache.inject_flip(inj) {
            self.stats.integrity.dcache_flips += 1;
        }
        self.verify_and_heal(machine, ep)?;
        self.fixup_pc(machine, ep, pc_orig)?;
        if fire.dcache {
            let (checked, violations) = dcache.scrub();
            self.stats.integrity.seals_checked += checked;
            self.stats.integrity.seal_hits += checked - violations;
            self.stats.integrity.violations += violations;
            // A dropped clean line refills from the server on next
            // access — the data-side analogue of a retranslation.
            self.stats.integrity.retranslations += violations;
        }
        Ok(())
    }

    /// After a heal pass, re-route the guest pc if the span it was
    /// executing in was quarantined out from under it. `pc_orig` is the
    /// pre-heal resolution of the pc to its original-program address.
    fn fixup_pc(
        &mut self,
        machine: &mut Machine,
        ep: &mut McEndpoint,
        pc_orig: Option<u32>,
    ) -> Result<(), CacheError> {
        let pc = machine.cpu.pc;
        if self.chunk_at(pc).is_some() {
            return Ok(()); // still inside a live chunk
        }
        if self.trampolines.iter().any(|t| t.addr == pc) {
            return Ok(()); // trampolines/stubs heal in place
        }
        let Some(orig) = pc_orig else {
            return Ok(()); // pc was never in translated code
        };
        machine.cpu.pc = self.ensure(machine, ep, orig)?;
        Ok(())
    }

    /// Flip one seeded bit in an installed chunk (or in the plan's stuck
    /// chunk, if resident).
    fn inject_code_flip(&mut self, machine: &mut Machine, inj: &mut MemFaultInjector) {
        let addr = if let Some(orig) = inj.plan.stuck_orig {
            let Some(&cid) = self.map.get(&orig) else {
                return;
            };
            let c = &self.chunks[cid];
            c.tc_start + inj.pick(c.n_words as u64) as u32 * 4
        } else {
            let total: u64 = self
                .chunks
                .iter()
                .filter(|c| c.alive)
                .map(|c| c.n_words as u64)
                .sum();
            if total == 0 {
                return;
            }
            let mut k = inj.pick(total);
            let mut addr = 0;
            for c in self.chunks.iter().filter(|c| c.alive) {
                if k < c.n_words as u64 {
                    addr = c.tc_start + k as u32 * 4;
                    break;
                }
                k -= c.n_words as u64;
            }
            addr
        };
        self.flip_bit(machine, addr, inj);
        self.stats.integrity.code_flips += 1;
    }

    /// Flip one seeded bit in a trampoline / standalone-stub word.
    fn inject_redirector_flip(&mut self, machine: &mut Machine, inj: &mut MemFaultInjector) {
        if self.trampolines.is_empty() {
            return;
        }
        let k = inj.pick(self.trampolines.len() as u64) as usize;
        let addr = self.trampolines[k].addr;
        self.flip_bit(machine, addr, inj);
        self.stats.integrity.redirector_flips += 1;
    }

    fn flip_bit(&mut self, machine: &mut Machine, addr: u32, inj: &mut MemFaultInjector) {
        let word = machine.mem.read_u32(addr).expect("tcache mapped");
        let flipped = word ^ (1u32 << inj.pick(32));
        machine.mem.write_u32(addr, flipped).expect("tcache mapped");
    }
}

#[derive(Clone, Copy, Debug)]
enum RaLoc {
    Reg,
    Mem(u32),
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A TRRIP controller over a 64-word arena at 0x1000. Victim selection
    /// reads only CC metadata, so no machine is needed.
    fn trrip_cc() -> Cc {
        Cc::new(IcacheConfig {
            tcache_base: 0x1000,
            tcache_size: 0x100,
            ..IcacheConfig::default()
        })
    }

    /// Hand-build a resident chunk of `words` words at `tc` with the given
    /// temperature and lifetime heat; returns its slot.
    fn put_chunk(cc: &mut Cc, orig: u32, tc: u32, words: u32, rrpv: u8, heat: u64) -> usize {
        assert!(cc.free.alloc_at(tc, words * 4));
        let id = cc.chunks.len();
        cc.chunks.push(ChunkInfo {
            orig_start: orig,
            tc_start: tc,
            n_words: words,
            body_words: words,
            alive: true,
            epoch: id as u64 + 1,
            rrpv,
            pressure_rrpv: rrpv,
            heat,
            ..ChunkInfo::default()
        });
        cc.set_owner(id, id as u32 + 1);
        cc.map.insert(orig, id);
        id
    }

    /// Open a fill that guards exactly the chunks in `guarded`.
    fn open_fill(cc: &mut Cc, guarded: &[usize]) {
        cc.fill_stamp += 1;
        for &g in guarded {
            cc.chunks[g].guard = cc.fill_stamp;
        }
    }

    /// `pick_victim` with the chunks in `guarded` protected this fill.
    fn victim(cc: &mut Cc, guarded: &[usize]) -> Option<usize> {
        open_fill(cc, guarded);
        cc.pick_victim()
    }

    /// Neighbour growth from the hole containing `p`, `guarded` protected.
    fn neighbour(cc: &mut Cc, p: u32, guarded: &[usize]) -> Option<usize> {
        open_fill(cc, guarded);
        cc.neighbour_victim(p)
    }

    fn rrpvs(cc: &Cc) -> Vec<u8> {
        cc.chunks.iter().map(|c| c.rrpv).collect()
    }

    #[test]
    fn trrip_victim_order_aging_and_neighbour_growth() {
        // Highest RRPV first; ties to the least heat, then the lowest
        // address. A victim at the horizon means nobody ages.
        let mut cc = trrip_cc();
        let a = put_chunk(&mut cc, 0x100, 0x1000, 4, RRPV_MAX, 9);
        let b = put_chunk(&mut cc, 0x200, 0x1010, 4, RRPV_MAX, 2);
        let c = put_chunk(&mut cc, 0x300, 0x1020, 4, RRPV_MAX, 2);
        let d = put_chunk(&mut cc, 0x400, 0x1030, 4, RRPV_FRESH, 0);
        assert_eq!(
            victim(&mut cc, &[]),
            Some(b),
            "least heat, then lowest address"
        );
        assert_eq!(victim(&mut cc, &[b]), Some(c), "guarded chunks are skipped");
        assert_eq!(victim(&mut cc, &[b, c]), Some(a), "RRPV outranks heat");
        assert_eq!(rrpvs(&cc), [RRPV_MAX, RRPV_MAX, RRPV_MAX, RRPV_FRESH]);
        assert_eq!(victim(&mut cc, &[a, b, c]), Some(d));
        assert_eq!(rrpvs(&cc), [RRPV_MAX; 4], "aged by the shortfall, capped");

        // Aging: when no eligible chunk sits at the horizon, every
        // resident (guarded ones too) ages by the eligible shortfall.
        let mut cc = trrip_cc();
        let h = put_chunk(&mut cc, 0x100, 0x1000, 4, RRPV_HOT, 7);
        let w = put_chunk(&mut cc, 0x200, 0x1010, 4, RRPV_WARM, 1);
        let g = put_chunk(&mut cc, 0x300, 0x1020, 4, RRPV_WARM, 0);
        assert_eq!(victim(&mut cc, &[g]), Some(w));
        assert_eq!(rrpvs(&cc), [RRPV_FRESH, RRPV_MAX, RRPV_MAX]);
        assert_eq!(victim(&mut cc, &[g, w]), Some(h));
        assert_eq!(rrpvs(&cc), [RRPV_MAX; 3]);
        assert_eq!(victim(&mut cc, &[h, w, g]), None, "everything guarded");

        // Neighbour growth around the hole [0x1010, 0x1020) between L at
        // 0x1000 and R at 0x1020: the colder side, never a hot one.
        let grow = |l: (u8, u64), r: (u8, u64), guard_r: bool| {
            let mut cc = trrip_cc();
            let lid = put_chunk(&mut cc, 0x100, 0x1000, 4, l.0, l.1);
            let rid = put_chunk(&mut cc, 0x200, 0x1020, 4, r.0, r.1);
            let guarded = if guard_r { vec![rid] } else { Vec::new() };
            match neighbour(&mut cc, 0x1014, &guarded) {
                Some(v) if v == lid => "left",
                Some(v) if v == rid => "right",
                Some(v) => panic!("unknown slot {v}"),
                None => "none",
            }
        };
        assert_eq!(grow((RRPV_MAX, 5), (RRPV_MAX, 2), false), "right");
        assert_eq!(grow((RRPV_FRESH, 0), (RRPV_MAX, 9), false), "right");
        assert_eq!(grow((RRPV_WARM, 3), (RRPV_WARM, 3), false), "left");
        assert_eq!(grow((RRPV_HOT, 0), (RRPV_WARM, 9), false), "right");
        assert_eq!(grow((RRPV_WARM, 9), (RRPV_HOT, 0), false), "left");
        assert_eq!(grow((RRPV_HOT, 0), (RRPV_HOT, 0), false), "none");
        assert_eq!(grow((RRPV_WARM, 9), (RRPV_MAX, 0), true), "left");

        // Holes at the arena's edges have one neighbour; an address in no
        // hole grows nothing.
        let mut cc = trrip_cc();
        let r = put_chunk(&mut cc, 0x100, 0x1010, 4, RRPV_MAX, 0);
        assert_eq!(neighbour(&mut cc, 0x1000, &[]), Some(r));
        assert_eq!(neighbour(&mut cc, 0x10fc, &[]), Some(r));
        assert_eq!(neighbour(&mut cc, 0x1010, &[]), None);
    }

    #[test]
    fn used_bytes_counts_against_the_word_rounded_arena() {
        // 990 B (the compress95 cliff) is not a word multiple: the arena
        // is 988 B, and an empty tcache has nothing allocated.
        let mut cc = Cc::new(IcacheConfig {
            tcache_size: 990,
            ..IcacheConfig::default()
        });
        assert_eq!(cc.used_bytes(), 0);
        let mut machine = Machine::load_client(&softcache_isa::Image::new(), &[]);
        let dest = cc.cfg.tcache_base;
        let chunk = ChunkPayload {
            orig_start: 0x1000,
            body_words: 5,
            words: vec![encode(Inst::J { off: 0 }); 5],
            exits: Vec::new(),
            resolved: Vec::new(),
            extra_orig: Vec::new(),
        };
        assert!(cc.free.alloc_at(dest, 20));
        cc.install(&mut machine, chunk, dest, 0, false).unwrap();
        assert_eq!(cc.used_bytes(), 20);
        assert_eq!(cc.translation_of(0x1000), Some(dest));
    }

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
    }

    #[test]
    fn free_list_first_fit_lands_in_earliest_hole_with_room() {
        let mut f = FreeList::new(0, 0x100);
        assert!(f.alloc_at(0x00, 0x10));
        assert!(f.alloc_at(0x20, 0xd0)); // hole [0x10,0x20) then tail [0xf0,0x100)
        assert_eq!(f.alloc(0x20), None);
        assert_eq!(f.alloc(0x10), Some(0x10));
        assert_eq!(f.alloc(0x10), Some(0xf0));
    }
}
