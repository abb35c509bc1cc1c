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
//!
//! A miss stub names its own tcache word (`arena::stub_at`), so a trap
//! says where it came from. An in-chunk stub stands for one of its chunk's
//! exit sites, and a trampoline or standalone stub for the target its
//! redirector records.

use crate::addr_map::{AddrMap, AddrSet};
use crate::arena::{stub_addr, stub_at, Arena, Tier};
use crate::endpoint::McEndpoint;
use crate::integrity::IntegrityStats;
use crate::power::BankModel;
use crate::protocol::{ChunkPayload, ExitDesc, PatchKind, Reply, Request};
use softcache_isa::inst::Inst;
use softcache_isa::layout::{FP_SENTINEL, STACK_TOP, TCACHE_BASE};
use softcache_isa::reg::Reg;
use softcache_isa::{cf, encode};
use softcache_net::{LinkModel, LinkPolicy, LinkStats, NetError};
use softcache_sim::{Machine, SimError};
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
pub(crate) const RRPV_MAX: u8 = 3;
/// Insertion value for a chunk refetched soon after its eviction.
pub(crate) const RRPV_HOT: u8 = 0;
/// Insertion value for a chunk that has been evicted before.
pub(crate) const RRPV_WARM: u8 = 1;
/// Insertion value for a never-evicted demand fetch.
pub(crate) const RRPV_FRESH: u8 = 2;
/// Evictions within which a refetch counts as an imminent re-reference.
const REREF_WINDOW: u64 = 64;

/// Configuration of the software instruction cache. The tcache always
/// starts at [`TCACHE_BASE`]: the simulator watches code writes and
/// lowers superblocks only in `TCACHE_BASE..STACK_FLOOR`.
#[derive(Clone, Copy, Debug)]
pub struct IcacheConfig {
    /// Size of the tcache in bytes.
    pub tcache_size: u32,
    /// MC↔CC link cost model.
    pub link: LinkModel,
    /// Retry/backoff policy for the remote MC endpoint (ignored when the
    /// MC is fused in-process).
    pub link_policy: LinkPolicy,
    /// Fixed CC-side cycles per serviced miss (trap entry, stub lookup,
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
    /// engine. Off, every instruction runs on the reference interpreter
    /// (`Machine::step`): the one engine switch, kept because it selects
    /// the oracle the differential tests compare the engine with.
    /// Host-side speed only; simulated results are bit-identical either way
    /// (`icache::tests::superblock_engine_is_bit_identical_at_system_level`,
    /// `tests/fault_soak.rs::bb_flush_recycles_addresses_without_stale_ras`).
    pub superblocks: bool,
    /// Unused (default `true`): superblocks always chain along their
    /// links (DESIGN.md §14). Kept only because the benchmark's traced run
    /// (`benchmark/src/solo.rs`) still reads it; delete it with that read.
    pub chaining: bool,
    /// Unused (default `true`): `jr`/`jalr`/`ret` always chain through
    /// their inline caches. Kept only because the benchmark's traced run
    /// (`benchmark/src/solo.rs`) still reads it; delete it with that read.
    pub indirect_ic: bool,
    /// Unused (default 0): `ret` chains through its inline cache, and
    /// there is no return-address stack to size. Kept only because the
    /// benchmark's traced run (`benchmark/src/solo.rs`) still reads it;
    /// delete it with that read.
    pub ras_depth: u32,
    /// Unused (default `true`): every superblock is lowered straight into
    /// its threaded handler array (DESIGN.md §14), so there is no tier to
    /// switch. Kept only because the benchmark's traced run
    /// (`benchmark/src/solo.rs`) still reads it; delete it with that read.
    pub threaded: bool,
    /// Unused (default 0): no hotness threshold promotes a block, because
    /// every block is threaded when it is lowered. Kept only because the
    /// benchmark's traced run (`benchmark/src/solo.rs`) still reads it;
    /// delete it with that read.
    pub threaded_threshold: u32,
    /// Replacement policy on tcache pressure (DESIGN.md §16).
    pub tcache_policy: TcachePolicy,
    /// Instruction budget for a run.
    pub fuel: u64,
}

impl Default for IcacheConfig {
    fn default() -> IcacheConfig {
        IcacheConfig {
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
            threaded_threshold: 0,
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
    /// Integrity-seal / self-healing ledger (all zero unless the run is
    /// a `run_chaos` under a memory-fault plan).
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
    /// A trap named a tcache word that holds no live miss stub.
    BadMissStub(u32),
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
            CacheError::BadMissStub(idx) => {
                write!(f, "tcache word {idx} holds no live miss stub")
            }
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
    /// Every word that can hold one of this chunk's miss stubs, with the
    /// exit it stands for: the payload's exits, plus each MC-resolved
    /// `ReplaceWord` slot, where a detach writes a stub in place.
    sites: Vec<ExitDesc>,
    alive: bool,
    /// Installation counter distinguishing reuses of this slot: a trap
    /// serviced against an older installation must not patch a newer
    /// chunk that happens to occupy the same slot.
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

/// A single-word redirector holding the miss stub for `orig`: a
/// return-address trampoline (permanent, shared by `orig`) or a standalone
/// branch-landing stub (retired when the chunk holding its branch dies or
/// the branch is patched direct). The stub names its own word, so this is
/// enough metadata to regenerate a corrupted word without a refetch.
#[derive(Clone, Copy, Debug)]
struct Redir {
    addr: u32,
    orig: u32,
    /// The branch a standalone stub lands; `None` for an RA trampoline.
    /// Only trampolines are reused by target: a stub dies with the chunk
    /// holding its branch, and would strand a return address parked on it.
    site: Option<u32>,
}

/// The cache controller state.
pub struct Cc {
    cfg: IcacheConfig,
    /// tcache map: original pc → live chunk slot, whose `tc_start` is
    /// the translation (Figure 4's hash table).
    map: AddrMap<usize>,
    chunks: Vec<ChunkInfo>,
    /// Per arena word: 1 + the slot of the live chunk covering it, 0 for
    /// none — `chunk_at` in one load.
    owner: Vec<u32>,
    /// Return-address trampolines and standalone stubs, in placement
    /// order (the fault injector draws redirector words in this order).
    trampolines: Vec<Redir>,
    /// The tcache's free list (a bump pointer until eviction punches
    /// holes), seals and watchdog.
    arena: Arena,
    /// Dead `chunks` slots available for reuse — under `Trrip` the vec
    /// would otherwise grow (and `chunk_at` slow down) forever.
    free_chunk_slots: Vec<usize>,
    /// Monotone installation counter backing `ChunkInfo::epoch`. Never
    /// reset: epochs must stay unique across flushes.
    epoch_counter: u64,
    /// Eviction counter ordering `history` entries.
    evict_seq: u64,
    /// Original pc → `evict_seq` at its last eviction: the re-reference
    /// history that drives hot/warm/cold insertion. Survives flushes —
    /// temperature is a property of the program, not of one tcache
    /// generation.
    history: AddrMap<u64>,
    /// Original pc → lifetime re-reference count (map hits, miss traps on
    /// the home site, demand installs and demand-resolved static refs).
    /// Survives evictions and flushes; under pressure the victim
    /// tie-break prefers the chunk whose code has re-referenced least
    /// over the whole run, so the churn concentrates on low-entry-rate
    /// code and the hot loop stays resident. Only references to resident
    /// chunks count, so a resident chunk carries its count in
    /// `ChunkInfo::heat`: taken from here at install, folded back when
    /// it dies.
    heat: AddrMap<u64>,
    /// Allocation-pressure fill counter backing `ChunkInfo::guard`.
    fill_stamp: u64,
    generation: u64,
    /// Pushed chunks installed but not yet observed entered. An entry
    /// leaves as a *hit* when the program reaches the chunk (miss stub,
    /// hash lookup, or a later demand chunk resolving into it) and as a
    /// *waste* when the chunk dies unentered (flush, resync, invalidation,
    /// end of run).
    pending_prefetch: AddrSet,
    /// Optional banked-SRAM power model (§4): tracks which banks hold live
    /// tcache bytes so unused banks can be gated off.
    power: Option<BankModel>,
    /// Statistics.
    pub stats: IcacheStats,
}

impl Cc {
    /// Fresh controller.
    pub fn new(cfg: IcacheConfig) -> Cc {
        Cc {
            arena: Arena::new(TCACHE_BASE, cfg.tcache_size),
            cfg,
            map: AddrMap::default(),
            chunks: Vec::new(),
            owner: vec![0; cfg.tcache_size as usize / 4],
            trampolines: Vec::new(),
            free_chunk_slots: Vec::new(),
            epoch_counter: 0,
            evict_seq: 0,
            history: AddrMap::default(),
            heat: AddrMap::default(),
            fill_stamp: 0,
            generation: 0,
            pending_prefetch: AddrSet::default(),
            power: None,
            stats: IcacheStats::default(),
        }
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
        self.arena.free.used_bytes()
    }

    /// Is `orig` currently translated?
    pub fn is_resident(&self, orig: u32) -> bool {
        self.map.contains_key(&orig)
    }

    fn end(&self) -> u32 {
        TCACHE_BASE + self.cfg.tcache_size
    }

    fn rpc(&mut self, ep: &mut McEndpoint, req: &Request) -> Result<(Reply, u64), CacheError> {
        let out = ep.rpc(req)?;
        let stall = out.charge(&mut self.stats.link, &self.cfg.link);
        Ok((out.reply, stall))
    }

    /// Chunk id containing tcache address `addr`, if any.
    fn chunk_at(&self, addr: u32) -> Option<usize> {
        let id = self
            .arena
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
            .arena
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
                self.debug_check_prefetch_ledger();
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
            let (dest, budget) = self.arena.free.largest();
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
            let carved = self.arena.free.alloc_at(dest, bytes);
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
                if self.map.contains_key(&chunk.orig_start) || !self.arena.free.alloc_at(d, bytes) {
                    // Unreachable with an honest MC: pushes are budget-
                    // bounded and skip resident chunks.
                    return Err(CacheError::Proto);
                }
                let orig_start = chunk.orig_start;
                self.install(machine, chunk, d, 0, true)?;
                self.stats.link.prefetched_chunks += 1;
                self.stats.link.prefetched_bytes += bytes as u64;
                self.pending_prefetch.insert(orig_start);
                self.debug_check_ledgers();
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
        for exit in &chunk.exits {
            let stub = dest + exit.stub_slot * 4;
            machine
                .mem
                .write_u32(stub, stub_at(stub))
                .expect("stub slot in range");
        }
        // The chunk body and its miss stubs are final: place the span
        // (each trace link forms the first time the walk takes its leg).
        self.arena
            .place(machine, chunk.orig_start, dest, n_words * 4);
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
        let mut sites = chunk.exits;
        sites.extend(
            chunk
                .resolved
                .iter()
                .filter(|rr| rr.kind == PatchKind::ReplaceWord)
                .map(|rr| ExitDesc {
                    stub_slot: rr.slot,
                    patch_slot: rr.slot,
                    kind: rr.kind,
                    orig_target: rr.orig_target,
                }),
        );
        self.epoch_counter += 1;
        let id = self.free_chunk_slots.pop().unwrap_or(self.chunks.len());
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
            sites,
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
        self.debug_check_ledgers();
        Ok(())
    }

    /// Debug check of the install ledger (every translation is live,
    /// evicted, invalidated or lost to a flush) and the prefetch ledger,
    /// run where their counters change. Release builds skip the count.
    fn debug_check_ledgers(&self) {
        if cfg!(debug_assertions) {
            let residents = self.chunks.iter().filter(|c| c.alive).count() as u64;
            let s = IcacheStats {
                residents,
                ..self.stats
            };
            assert!(s.install_ledger_balanced(), "install ledger: {s:?}");
            self.debug_check_prefetch_ledger();
        }
    }

    /// Debug check: every pushed chunk is a hit, a waste or still pending.
    fn debug_check_prefetch_ledger(&self) {
        let l = &self.stats.link;
        debug_assert_eq!(
            l.prefetch_hits + l.prefetch_wastes + self.pending_prefetch.len() as u64,
            l.prefetched_chunks,
            "prefetch ledger: {l:?}"
        );
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

    /// Service a `miss` trap from the stub at tcache word `idx`: translate
    /// the target, patch the site that missed (rewriting the branch to
    /// point at the now-resident block), and redirect the PC. An in-chunk
    /// stub stands for the chunk's exit site at that word; a trampoline or
    /// standalone stub for its redirector's target, and a standalone stub
    /// also for the branch it lands.
    pub fn handle_miss(
        &mut self,
        machine: &mut Machine,
        ep: &mut McEndpoint,
        idx: u32,
    ) -> Result<(), CacheError> {
        self.stats.miss_traps += 1;
        let bad = || CacheError::BadMissStub(idx);
        let at = stub_addr(idx).ok_or_else(bad)?;
        // The exit's target, the site to patch with its home chunk, and
        // whether the stub is a standalone word.
        let (target, site, standalone) = if let Some(home) = self.chunk_at(at) {
            let c = &self.chunks[home];
            let slot = (at - c.tc_start) / 4;
            let exit = c
                .sites
                .iter()
                .find(|e| e.stub_slot == slot)
                .ok_or_else(bad)?;
            let patch = c.tc_start + exit.patch_slot * 4;
            (exit.orig_target, Some((patch, exit.kind, home)), false)
        } else {
            let t = self
                .trampolines
                .iter()
                .find(|t| t.addr == at)
                .ok_or_else(bad)?;
            let site = t
                .site
                .and_then(|s| Some((s, PatchKind::Retarget, self.chunk_at(s)?)));
            (t.orig, site, t.site.is_some())
        };
        debug_assert_eq!(
            stub_addr(idx),
            Some(machine.cpu.pc),
            "the trap came from the word it names"
        );
        // The trap re-referenced the site's home chunk: mark it hot before
        // `ensure` runs victim selection for the target fetch. `ensure` may
        // evict the home chunk or recycle its slot for a different
        // installation; the per-install epoch distinguishes "still the same
        // chunk" from "same slot, new tenant".
        let home_epoch = site.map(|(_, _, home)| {
            let c = &mut self.chunks[home];
            c.rrpv = RRPV_HOT;
            c.heat += 1;
            c.epoch
        });
        let gen_before = self.generation;
        let target_tc = self.verified_target(machine, ep, target)?;
        // Patch only if no flush intervened (one empties `chunks`, so this
        // is checked first) and the home chunk survived.
        if let (Some((addr, kind, home)), Some(epoch)) = (site, home_epoch) {
            let c = &self.chunks;
            if self.generation == gen_before && c[home].alive && c[home].epoch == epoch {
                self.apply_patch(machine, addr, kind, target_tc)?;
                if let Some(tid) = self.chunk_at(target_tc) {
                    self.link(
                        tid,
                        Incoming {
                            from_chunk: home,
                            addr,
                            kind,
                        },
                    );
                }
                // The branch now jumps direct: a standalone landing stub is
                // unreachable, so retire its word. In-chunk stub words stay:
                // their slots remain addressable until the chunk dies.
                if standalone {
                    self.retire_stubs(|stub, _| stub == at);
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
        // The write went through the code-write barrier, which drops the
        // blocks that depend on the patched word and severs every
        // superblock link; the next walk through the site lowers and
        // re-chains them.
        // The containing chunk changed legitimately: recompute its seal.
        self.arena.reseal_containing(machine, addr);
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
    /// true trampolines are reused: a standalone stub dies with the chunk
    /// holding its branch, so handing its address to a return address
    /// would leave the RA parked on a word that can be retired.
    fn trampoline_for(&mut self, machine: &mut Machine, orig: u32) -> Option<u32> {
        if let Some(t) = self
            .trampolines
            .iter()
            .find(|t| t.site.is_none() && t.orig == orig)
        {
            return Some(t.addr);
        }
        let addr = self.place_redirector(machine, orig, None)?;
        if let Some(p) = &mut self.power {
            p.occupy(addr, 4);
        }
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
        self.collect_ras(machine, TCACHE_BASE..self.end())
    }

    /// Drop every chunk, trampoline and stub and reset the allocation
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
        self.trampolines.clear();
        self.free_chunk_slots.clear();
        self.arena.clear_seals();
        self.arena.free.reset();
        self.generation += 1;
        if let Some(p) = &mut self.power {
            p.release_all();
        }
        self.debug_check_ledgers();
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
            if self.arena.free.largest().1 >= bytes {
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
        if !self.arena.pinned.is_empty() {
            for c in self.chunks.iter_mut() {
                if c.alive && self.arena.pinned.contains(&c.orig_start) {
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
        let (s, l) = self.arena.free.hole_at(p)?;
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
        self.arena.vacate(machine, orig, span_start, span_bytes);
        if let Some(p) = &mut self.power {
            p.release(span_start, span_bytes);
        }

        // 1. Re-point incoming sites at fresh miss stubs.
        for inc in &incoming {
            if !self.chunks[inc.from_chunk].alive {
                continue;
            }
            match inc.kind {
                PatchKind::ReplaceWord => {
                    // The slot is one of its chunk's exit sites: the stub in
                    // place stands for it.
                    machine
                        .mem
                        .write_u32(inc.addr, stub_at(inc.addr))
                        .expect("mapped");
                }
                PatchKind::Retarget => {
                    // A branch needs somewhere to land: allocate a stub.
                    let Some(stub) = self.place_redirector(machine, orig, Some(inc.addr)) else {
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
        if self.arena.seals.is_some() {
            for (k, inc) in incoming.iter().enumerate() {
                let home = &self.chunks[inc.from_chunk];
                if home.alive && !incoming[..k].iter().any(|i| i.from_chunk == inc.from_chunk) {
                    self.arena.reseal_containing(machine, home.tc_start);
                }
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

        // 3. Retire the standalone stubs landing branches in the dead span,
        //    drop its back-references from the chunks it linked into, and
        //    recycle the slot with its emptied lists.
        let span = span_start..span_start + span_bytes;
        self.retire_stubs(|_, site| span.contains(&site));
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
        self.debug_check_ledgers();
        Ok(true)
    }

    /// Retire the standalone stubs that `dead(addr, site)` picks, keeping
    /// the other redirectors in order, and hand their words back to the
    /// allocator. RA trampolines are never retired — a return address may
    /// hold their address indefinitely. A stale word stays in simulated
    /// memory until its hole is reused, at which point the code-write
    /// barrier drops any superblock lowered over it.
    fn retire_stubs(&mut self, dead: impl Fn(u32, u32) -> bool) {
        let arena = &mut self.arena;
        self.trampolines.retain(|t| match t.site {
            Some(site) if dead(t.addr, site) => {
                arena.unseal(t.addr);
                arena.free.release(t.addr, 4);
                false
            }
            _ => true,
        });
    }

    /// Settle the speculation ledger at the end of a run: pushed chunks
    /// never observed entered are counted as wasted. After this,
    /// `prefetch_hits + prefetch_wastes == prefetched_chunks`.
    pub fn finalize_prefetch(&mut self) {
        self.stats.link.prefetch_wastes += self.pending_prefetch.len() as u64;
        self.pending_prefetch.clear();
        self.debug_check_prefetch_ledger();
        // Settle the install ledger: every translation is now resident,
        // evicted, invalidated, or flush-lost — exactly once.
        self.stats.residents = self.chunks.iter().filter(|c| c.alive).count() as u64;
    }

    /// Place a redirector word high in the arena holding the miss stub for
    /// `orig`: a standalone stub landing the branch at `site`, or with no
    /// site an RA trampoline. The RA walker resumes at either through
    /// `orig`.
    fn place_redirector(
        &mut self,
        machine: &mut Machine,
        orig: u32,
        site: Option<u32>,
    ) -> Option<u32> {
        let addr = self.arena.free.alloc_high(4)?;
        machine
            .mem
            .write_u32(addr, stub_at(addr))
            .expect("tcache mapped");
        self.trampolines.push(Redir { addr, orig, site });
        self.arena.seal(machine, addr, 4);
        Some(addr)
    }
}

impl Tier for Cc {
    fn arena(&mut self) -> &mut Arena {
        &mut self.arena
    }

    fn ledger(&mut self) -> &mut IntegrityStats {
        &mut self.stats.integrity
    }

    fn ensure_resident(
        &mut self,
        machine: &mut Machine,
        ep: &mut McEndpoint,
        orig: u32,
    ) -> Result<u32, CacheError> {
        self.ensure(machine, ep, orig)
    }

    /// Corrupted chunks are quarantined and left to refetch through the
    /// ordinary miss path; corrupted trampoline and stub words regenerate
    /// from CC metadata.
    fn heal(
        &mut self,
        machine: &mut Machine,
        ep: &mut McEndpoint,
        start: u32,
    ) -> Result<bool, CacheError> {
        if let Some(cid) = self.chunk_at(start) {
            let orig = self.chunks[cid].orig_start;
            self.arena.quarantine(orig, &mut self.stats.integrity);
            // Sever every pointer that marks the chunk valid (incoming
            // branches, return addresses, map entry, the standalone stubs
            // landing its branches) and tell the MC. The next entry
            // refetches a clean copy.
            self.invalidate_chunk(machine, ep, orig)?;
        } else if self.trampolines.iter().any(|t| t.addr == start) {
            machine
                .mem
                .write_u32(start, stub_at(start))
                .expect("tcache mapped");
            self.arena.seal(machine, start, 4);
            self.stats.integrity.retranslations += 1;
        } else {
            return Ok(false);
        }
        Ok(true)
    }

    fn orig_of(&self, tc: u32) -> Option<u32> {
        self.tc_to_orig(tc)
    }

    fn live_at(&self, tc: u32) -> bool {
        self.chunk_at(tc).is_some() || self.trampolines.iter().any(|t| t.addr == tc)
    }

    /// Live chunks in slot order.
    fn code_spans(&self, stuck: Option<u32>) -> Vec<(u32, u32)> {
        let span = |c: &ChunkInfo| (c.tc_start, c.n_words);
        match stuck {
            Some(orig) => self
                .map
                .get(&orig)
                .map(|&id| span(&self.chunks[id]))
                .into_iter()
                .collect(),
            None => self.chunks.iter().filter(|c| c.alive).map(span).collect(),
        }
    }

    /// Trampoline and stub words in placement order.
    fn redirector_spans(&self) -> Vec<(u32, u32)> {
        self.trampolines.iter().map(|t| (t.addr, 1)).collect()
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
    use softcache_sim::{Step, Trap};

    /// A TRRIP controller over a 64-word arena at `B`. Victim selection
    /// reads only CC metadata, so no machine is needed.
    fn trrip_cc() -> Cc {
        Cc::new(IcacheConfig {
            tcache_size: 0x100,
            ..IcacheConfig::default()
        })
    }

    /// The tcache base, where every test arena starts.
    const B: u32 = TCACHE_BASE;

    /// Hand-build a resident chunk of `words` words at `tc` with the given
    /// temperature and lifetime heat; returns its slot.
    fn put_chunk(cc: &mut Cc, orig: u32, tc: u32, words: u32, rrpv: u8, heat: u64) -> usize {
        assert!(cc.arena.free.alloc_at(tc, words * 4));
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
        let a = put_chunk(&mut cc, 0x100, B, 4, RRPV_MAX, 9);
        let b = put_chunk(&mut cc, 0x200, B + 0x10, 4, RRPV_MAX, 2);
        let c = put_chunk(&mut cc, 0x300, B + 0x20, 4, RRPV_MAX, 2);
        let d = put_chunk(&mut cc, 0x400, B + 0x30, 4, RRPV_FRESH, 0);
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
        let h = put_chunk(&mut cc, 0x100, B, 4, RRPV_HOT, 7);
        let w = put_chunk(&mut cc, 0x200, B + 0x10, 4, RRPV_WARM, 1);
        let g = put_chunk(&mut cc, 0x300, B + 0x20, 4, RRPV_WARM, 0);
        assert_eq!(victim(&mut cc, &[g]), Some(w));
        assert_eq!(rrpvs(&cc), [RRPV_FRESH, RRPV_MAX, RRPV_MAX]);
        assert_eq!(victim(&mut cc, &[g, w]), Some(h));
        assert_eq!(rrpvs(&cc), [RRPV_MAX; 3]);
        assert_eq!(victim(&mut cc, &[h, w, g]), None, "everything guarded");

        // Neighbour growth around the hole [B + 0x10, B + 0x20) between L at
        // B and R at B + 0x20: the colder side, never a hot one.
        let grow = |l: (u8, u64), r: (u8, u64), guard_r: bool| {
            let mut cc = trrip_cc();
            let lid = put_chunk(&mut cc, 0x100, B, 4, l.0, l.1);
            let rid = put_chunk(&mut cc, 0x200, B + 0x20, 4, r.0, r.1);
            let guarded = if guard_r { vec![rid] } else { Vec::new() };
            match neighbour(&mut cc, B + 0x14, &guarded) {
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
        let r = put_chunk(&mut cc, 0x100, B + 0x10, 4, RRPV_MAX, 0);
        assert_eq!(neighbour(&mut cc, B, &[]), Some(r));
        assert_eq!(neighbour(&mut cc, B + 0xfc, &[]), Some(r));
        assert_eq!(neighbour(&mut cc, B + 0x10, &[]), None);
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
        let dest = TCACHE_BASE;
        let chunk = ChunkPayload {
            orig_start: 0x1000,
            body_words: 5,
            words: vec![encode(Inst::J { off: 0 }); 5],
            exits: Vec::new(),
            resolved: Vec::new(),
            extra_orig: Vec::new(),
        };
        assert!(cc.arena.free.alloc_at(dest, 20));
        cc.install(&mut machine, chunk, dest, 0, false).unwrap();
        assert_eq!(cc.used_bytes(), 20);
        assert_eq!(cc.translation_of(0x1000), Some(dest));
    }

    /// Two nested loops whose translation overflows a 384 B tcache, so a
    /// run installs, backpatches and evicts.
    const LOOPS: &str = r#"
int mix(int x) { return x * 7 + 3; }
int spin(int x) {
    int i;
    for (i = 0; i < 40; i = i + 1) x = mix(x) % 9973;
    return x;
}
int main() {
    int i; int s;
    s = 1;
    for (i = 0; i < 50; i = i + 1) s = (s + spin(s + i)) % 100000;
    return s % 128;
}
"#;

    /// Run `LOOPS` on the block engine through a TRRIP CC of 384 B,
    /// armed before its first install or not, calling `check` after the
    /// first install and after every serviced trap. Each call first
    /// asserts that every miss stub in a live chunk or redirector word
    /// names its own tcache word. Returns the controller, the machine and
    /// the endpoint as the run left them.
    fn drive_loops(armed: bool, mut check: impl FnMut(&Cc, &Machine)) -> (Cc, Machine, McEndpoint) {
        let mut check = |cc: &Cc, machine: &Machine| {
            let chunk_words = cc.chunks.iter().filter(|c| c.alive);
            let words = chunk_words
                .flat_map(|c| c.span().step_by(4))
                .chain(cc.trampolines.iter().map(|t| t.addr));
            for addr in words {
                let word = machine.mem.read_u32(addr).unwrap();
                if let Ok(Inst::Miss { idx }) = softcache_isa::decode(word) {
                    assert_eq!(stub_addr(idx), Some(addr), "the stub at {addr:#x}");
                }
            }
            check(cc, machine);
        };
        let image =
            softcache_minic::compile_to_image(LOOPS, &softcache_minic::Options::default()).unwrap();
        let mut machine = Machine::load_client(&image, &[]);
        let mut cc = Cc::new(IcacheConfig {
            tcache_size: 384,
            link: LinkModel::free(),
            ..IcacheConfig::default()
        });
        if armed {
            cc.arm_integrity();
        }
        let mut ep = McEndpoint::direct(crate::mc::Mc::new(image.clone()));
        machine.cpu.pc = cc.ensure(&mut machine, &mut ep, image.entry).unwrap();
        check(&cc, &machine);
        loop {
            match machine.run_block(Machine::BLOCK_STEPS).unwrap() {
                Step::Running => {}
                Step::Exited(_) => break,
                Step::Trapped(Trap::Miss { idx, .. }) => {
                    cc.handle_miss(&mut machine, &mut ep, idx).unwrap();
                }
                Step::Trapped(Trap::HashJump { target, .. })
                | Step::Trapped(Trap::HashCall { target, .. }) => {
                    machine.cpu.pc = cc.hash_jump(&mut machine, &mut ep, target).unwrap();
                }
                Step::Trapped(t) => panic!("unexpected trap {t:?}"),
            }
            check(&cc, &machine);
        }
        assert!(
            cc.stats.patches > 0 && cc.stats.evictions > 0,
            "the run backpatched and evicted: {:?}",
            cc.stats
        );
        (cc, machine, ep)
    }

    #[test]
    fn a_miss_index_naming_no_live_stub_is_refused() {
        let (mut cc, mut machine, mut ep) = drive_loops(false, |_, _| {});
        let (hole, len) = cc.arena.free.largest();
        assert!(len > 0, "the run ends with a free hole");
        for idx in [(hole - B) / 4, u32::MAX] {
            assert_eq!(
                cc.handle_miss(&mut machine, &mut ep, idx),
                Err(CacheError::BadMissStub(idx))
            );
        }
    }

    #[test]
    fn an_unarmed_cc_keeps_no_seals() {
        let (cc, ..) = drive_loops(false, |cc, _| assert!(cc.arena.seals.is_none()));
        assert_eq!(cc.stats.integrity, IntegrityStats::default());
    }

    #[test]
    fn an_armed_cc_seals_every_live_chunk_and_redirector() {
        let mut redirectors_seen = 0;
        let (cc, ..) = drive_loops(true, |cc, machine| {
            let seals = cc.arena.seals.as_ref().expect("armed");
            let mut live: Vec<u32> = cc
                .chunks
                .iter()
                .filter(|c| c.alive)
                .map(|c| c.tc_start)
                .collect();
            live.extend(cc.trampolines.iter().map(|t| t.addr));
            live.sort_unstable();
            assert_eq!(
                seals.starts(),
                live,
                "one seal per live chunk and redirector"
            );
            assert!(
                live.iter().all(|&start| seals.verify(machine, start)),
                "every seal is current"
            );
            redirectors_seen = redirectors_seen.max(cc.trampolines.len());
        });
        assert!(redirectors_seen > 0, "the run placed redirectors");
        let s = cc.stats.integrity;
        assert!(
            s.seals_checked > 0 && s.seal_hits == s.seals_checked,
            "{s:?}"
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "armed after the first install")]
    fn arming_after_an_install_is_refused() {
        let mut cc = Cc::new(IcacheConfig::default());
        let mut machine = Machine::load_client(&softcache_isa::Image::new(), &[]);
        let chunk = ChunkPayload {
            orig_start: 0x1000,
            body_words: 1,
            words: vec![encode(Inst::J { off: 0 })],
            exits: Vec::new(),
            resolved: Vec::new(),
            extra_orig: Vec::new(),
        };
        assert!(cc.arena.free.alloc_at(TCACHE_BASE, 4));
        cc.install(&mut machine, chunk, TCACHE_BASE, 0, false)
            .unwrap();
        cc.arm_integrity();
    }
}
