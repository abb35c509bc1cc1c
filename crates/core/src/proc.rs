//! The procedure-granularity softcache — the paper's ARM prototype (§2.3).
//!
//! Differences from the basic-block SPARC prototype, as the paper lists
//! them:
//!
//! * "Code is chunked by procedures rather than by basic blocks" — the MC
//!   lifts whole functions using the image's symbol table; internal
//!   branches keep their relative offsets, so chunks are
//!   position-independent and only call sites need rewriting.
//! * "Procedure call sites use a 'redirector' stub as a permanent landing
//!   pad for procedure returns to avoid having to walk the ARM's stack at
//!   invalidation time" — every `jal` is re-pointed at a two-word pinned
//!   stub:
//!
//!   ```text
//!   redir:   jal  <callee | miss>   # sets ra = redir+4: the landing pad
//!            j    <continuation | miss>
//!   ```
//!
//!   Return addresses therefore always point into pinned memory; evicting
//!   a procedure only has to fix redirector words, never the stack.
//! * "Indirect jumps are not supported" — the MC refuses procedures
//!   containing `jr`/`jalr` (compile the workload with
//!   `jump_tables: false`).
//!
//! Unlike the SPARC variant's flush-everything policy, this controller
//! **evicts individual procedures** from a first-fit heap, which is what
//! produces the paging behaviour of Figure 8. `ProcCc::pick_victim`
//! chooses the victim by TRRIP: re-reference prediction, then least
//! lifetime heat, then least recent use (DESIGN.md §16).
//!
//! This cache receives no speculative pushes: it only ever issues
//! `FetchProc`, so the batched `FetchBatch`/`Reply::Batch` protocol never
//! competes with its pinned redirectors or resident procedures — the
//! prefetch-never-evicts-pinned invariant holds here trivially.

use crate::addr_map::{AddrMap, AddrSet};
use crate::cc::{CacheError, RRPV_FRESH, RRPV_HOT, RRPV_MAX, RRPV_WARM};
use crate::endpoint::McEndpoint;
use crate::integrity::{
    IntegrityStats, MemFaultInjector, MemFaultPlan, SealTable, WATCHDOG_THRESHOLD,
};
use crate::mc::{errcode, Mc};
use crate::protocol::{ChunkPayload, ExitDesc, PatchKind, Reply, Request};
use softcache_isa::image::Image;
use softcache_isa::inst::Inst;
use softcache_isa::layout::TCACHE_BASE;
use softcache_isa::{cf, decode, encode};
use softcache_net::{LinkModel, LinkPolicy, LinkStats};
use softcache_sim::{ExecStats, Machine, Step, TraceStats, Trap};

/// MC-side: rewrite the whole procedure containing `orig_pc`. The chunk is
/// position-independent (`dest` is ignored); each call site is reported as
/// an exit for the CC to wire through a redirector.
pub(crate) fn rewrite_proc(mc: &mut Mc, orig_pc: u32, _dest: u32) -> Result<ChunkPayload, u32> {
    let func = mc
        .image_ref()
        .function_at(orig_pc)
        .ok_or(errcode::NO_SUCH_PROC)?;
    let start = func.addr;
    let size = func.size;
    if size == 0 || size % 4 != 0 {
        return Err(errcode::NO_SUCH_PROC);
    }
    let n = size / 4;
    let mut words = Vec::with_capacity(n as usize);
    let mut exits = Vec::new();
    for i in 0..n {
        let addr = start + i * 4;
        let word = mc.image_ref().text_word(addr).ok_or(errcode::BAD_ADDRESS)?;
        let inst = decode(word).map_err(|_| errcode::BAD_INSTRUCTION)?;
        match cf::classify(inst, addr) {
            cf::CtrlFlow::Call { target } => {
                // Via redirector; the CC patches the jal at install time.
                exits.push(ExitDesc {
                    stub_slot: i,
                    patch_slot: i,
                    kind: PatchKind::Retarget,
                    orig_target: target,
                });
                words.push(word);
            }
            cf::CtrlFlow::Branch { taken } => {
                if taken < start || taken >= start + size {
                    return Err(errcode::UNSUPPORTED_IN_PROC);
                }
                words.push(word);
            }
            cf::CtrlFlow::Jump { target } => {
                if target < start || target >= start + size {
                    return Err(errcode::UNSUPPORTED_IN_PROC);
                }
                words.push(word);
            }
            cf::CtrlFlow::IndirectJump | cf::CtrlFlow::IndirectCall => {
                return Err(errcode::UNSUPPORTED_IN_PROC);
            }
            _ => words.push(word),
        }
    }
    Ok(ChunkPayload {
        orig_start: start,
        body_words: n,
        words,
        exits,
        resolved: Vec::new(),
        extra_orig: Vec::new(),
    })
}

/// Configuration of the procedure-granularity cache. The CC code memory
/// starts at [`TCACHE_BASE`], where the simulator watches code writes.
#[derive(Clone, Copy, Debug)]
pub struct ProcConfig {
    /// Total CC code memory in bytes (redirectors + procedures) — the
    /// "CC memory" swept in Figure 8.
    pub memory_bytes: u32,
    /// Link cost model.
    pub link: LinkModel,
    /// Retry/backoff policy for the remote MC endpoint (ignored when the
    /// MC is fused in-process).
    pub link_policy: LinkPolicy,
    /// Fixed CC cycles per serviced miss.
    pub miss_handler_cycles: u64,
    /// Cycles per installed word.
    pub install_cycles_per_word: u64,
    /// Execute translated code through the simulator's superblock micro-op
    /// engine. Off, every instruction runs on the reference interpreter
    /// (`Machine::step`). Host-side speed only; simulated results are
    /// bit-identical either way
    /// (`tests/fault_soak.rs::proc_resync_recycles_addresses_without_stale_ras`).
    pub superblocks: bool,
    /// Instruction budget.
    pub fuel: u64,
}

impl Default for ProcConfig {
    fn default() -> ProcConfig {
        ProcConfig {
            memory_bytes: 16 * 1024,
            link: LinkModel::default(),
            link_policy: LinkPolicy::default(),
            miss_handler_cycles: 60,
            install_cycles_per_word: 2,
            superblocks: true,
            fuel: 2_000_000_000,
        }
    }
}

/// Statistics for the procedure cache.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProcStats {
    /// Procedures downloaded from the MC.
    pub fetches: u64,
    /// Procedures evicted.
    pub evictions: u64,
    /// Cycle timestamp of every eviction (Figure 8's paging-over-time).
    pub eviction_cycles: Vec<u64>,
    /// Miss traps serviced.
    pub miss_traps: u64,
    /// Redirectors allocated.
    pub redirectors: u64,
    /// Words installed.
    pub words_installed: u64,
    /// Cycles spent servicing misses.
    pub miss_cycles: u64,
    /// Link traffic.
    pub link: LinkStats,
    /// Integrity-seal ledger (DESIGN.md §13).
    pub integrity: IntegrityStats,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RegionKind {
    Free,
    /// A resident procedure keyed by its entry address.
    Proc {
        func: u32,
        last_use: u64,
    },
    /// A pinned redirector pair (never evicted) — the paper's §4 pinning
    /// capability in action.
    Pinned,
}

#[derive(Clone, Copy, Debug)]
struct Region {
    start: u32,
    size: u32,
    kind: RegionKind,
}

/// First-fit heap of procedure, free and pinned regions. Which procedure
/// to evict under pressure is `ProcCc::pick_victim`'s choice (TRRIP).
struct Heap {
    regions: Vec<Region>,
}

impl Heap {
    fn new(base: u32, size: u32) -> Heap {
        // Keep every boundary word-aligned: procedure sizes are multiples
        // of 4 and redirectors carve 8 bytes from the top, so the total
        // is rounded down to a multiple of 8.
        Heap {
            regions: vec![Region {
                start: base,
                size: size & !7,
                kind: RegionKind::Free,
            }],
        }
    }

    fn find_free(&self, size: u32) -> Option<usize> {
        self.regions
            .iter()
            .position(|r| r.kind == RegionKind::Free && r.size >= size)
    }

    fn carve(&mut self, idx: usize, size: u32, kind: RegionKind) -> u32 {
        let r = self.regions[idx];
        debug_assert!(r.kind == RegionKind::Free && r.size >= size);
        self.regions[idx] = Region {
            start: r.start,
            size,
            kind,
        };
        if r.size > size {
            self.regions.insert(
                idx + 1,
                Region {
                    start: r.start + size,
                    size: r.size - size,
                    kind: RegionKind::Free,
                },
            );
        }
        r.start
    }

    /// Free region `idx` and coalesce with free neighbours.
    fn release(&mut self, idx: usize) {
        self.regions[idx].kind = RegionKind::Free;
        // Coalesce right then left.
        if idx + 1 < self.regions.len() && self.regions[idx + 1].kind == RegionKind::Free {
            self.regions[idx].size += self.regions[idx + 1].size;
            self.regions.remove(idx + 1);
        }
        if idx > 0 && self.regions[idx - 1].kind == RegionKind::Free {
            self.regions[idx - 1].size += self.regions[idx].size;
            self.regions.remove(idx);
        }
    }

    /// Carve 8 bytes for a redirector from the END of the trailing free
    /// region, keeping all pinned stubs contiguous at the top of memory so
    /// they never fragment the procedure heap.
    fn carve_pinned_top(&mut self) -> Option<u32> {
        // Skip the already-pinned tail; the region just below it must be
        // free to grow the pinned area downward.
        let mut idx = self.regions.len();
        while idx > 0 && self.regions[idx - 1].kind == RegionKind::Pinned {
            idx -= 1;
        }
        if idx == 0 {
            return None;
        }
        let donor = &mut self.regions[idx - 1];
        if donor.kind != RegionKind::Free || donor.size < 8 {
            return None;
        }
        donor.size -= 8;
        let addr = donor.start + donor.size;
        let empty = donor.size == 0;
        if empty {
            self.regions.remove(idx - 1);
            idx -= 1;
        }
        // Merge into the adjacent pinned region if one exists, keeping the
        // region list compact.
        if idx < self.regions.len() && self.regions[idx].kind == RegionKind::Pinned {
            self.regions[idx].start = addr;
            self.regions[idx].size += 8;
        } else {
            self.regions.insert(
                idx,
                Region {
                    start: addr,
                    size: 8,
                    kind: RegionKind::Pinned,
                },
            );
        }
        Some(addr)
    }

    /// Index of the least-recently-used procedure region. Superseded by
    /// `ProcCc::pick_victim` (TRRIP); kept as the reference policy for
    /// the heap unit tests.
    #[cfg(test)]
    fn lru_proc(&self) -> Option<usize> {
        self.regions
            .iter()
            .enumerate()
            .filter_map(|(i, r)| match r.kind {
                RegionKind::Proc { last_use, .. } => Some((i, last_use)),
                _ => None,
            })
            .min_by_key(|&(_, lu)| lu)
            .map(|(i, _)| i)
    }

    fn region_of_func(&self, func: u32) -> Option<usize> {
        self.regions.iter().position(|r| match r.kind {
            RegionKind::Proc { func: f, .. } => f == func,
            _ => false,
        })
    }

    fn touch(&mut self, func: u32, now: u64) {
        if let Some(idx) = self.region_of_func(func) {
            if let RegionKind::Proc { func: f, .. } = self.regions[idx].kind {
                self.regions[idx].kind = RegionKind::Proc {
                    func: f,
                    last_use: now,
                };
            }
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum RedirSlot {
    /// First word: `jal callee`.
    Callee,
    /// Second word: `j continuation`.
    Continuation,
}

#[derive(Clone, Copy, Debug)]
struct Redirector {
    addr: u32,
    /// Entry address of the callee.
    callee_orig: u32,
    /// Original continuation address (call site + 4).
    cont_orig: u32,
}

#[derive(Clone, Debug)]
struct MissRec {
    /// Original address to make resident and resume at.
    target_orig: u32,
    /// Redirector word to patch once resident.
    site: Option<(usize, RedirSlot)>, // redirector index
}

#[derive(Clone, Debug)]
struct ResidentProc {
    orig_start: u32,
    orig_size: u32,
    tc_start: u32,
}

/// Result of a procedure-cache run.
#[derive(Clone, Debug)]
pub struct ProcRunOutput {
    /// Program exit code.
    pub exit_code: i32,
    /// Program output bytes.
    pub output: Vec<u8>,
    /// Cache statistics.
    pub cache: ProcStats,
    /// Execution statistics.
    pub exec: ExecStats,
    /// Superblock-engine telemetry (host-side only; excluded from the
    /// bit-identity contract, unlike `exec` and `cache`).
    pub trace: TraceStats,
}

/// The procedure-granularity softcache system (ARM prototype).
pub struct ProcCacheSystem {
    image: Image,
    cfg: ProcConfig,
    endpoint: McEndpoint,
    chaos: Option<MemFaultPlan>,
}

struct ProcCc {
    cfg: ProcConfig,
    heap: Heap,
    /// func entry → resident info.
    resident: AddrMap<ResidentProc>,
    /// call-site original address → redirector index.
    redir_by_site: AddrMap<usize>,
    redirectors: Vec<Redirector>,
    records: Vec<MissRec>,
    clock: u64,
    stats: ProcStats,
    /// CRC-32 seals over installed procedures and redirector words. Lives
    /// in CC metadata, never in simulated memory (DESIGN.md §13). `Some`
    /// only once `arm_integrity` armed verification, which only
    /// `run_chaos` does: an unarmed run keeps no seal.
    seals: Option<SealTable>,
    /// Seal failures per ORIGINAL procedure entry. Deliberately survives
    /// resync so a stuck-at fault cannot livelock the retranslate loop
    /// across epochs.
    fails: AddrMap<u32>,
    /// Procedures the watchdog has pinned to the slow path.
    pinned_origs: AddrSet,
    /// Re-reference prediction per resident procedure entry, in the
    /// basic-block tier's buckets (`cc::RRPV_*`): touched procedures go
    /// hot, previously evicted ones reinstall warm, first-time installs
    /// land near-distant. Victim selection under heap pressure takes the
    /// highest RRPV instead of strict recency (DESIGN.md §16).
    rrpv: AddrMap<u8>,
    /// Lifetime entries per procedure, never cleared — breaks RRPV ties
    /// towards the procedure entered least over the whole run.
    heat: AddrMap<u64>,
}

impl ProcCc {
    fn new(cfg: ProcConfig) -> ProcCc {
        ProcCc {
            heap: Heap::new(TCACHE_BASE, cfg.memory_bytes),
            cfg,
            resident: AddrMap::default(),
            redir_by_site: AddrMap::default(),
            redirectors: Vec::new(),
            records: Vec::new(),
            clock: 0,
            stats: ProcStats::default(),
            seals: None,
            fails: AddrMap::default(),
            pinned_origs: AddrSet::default(),
            rrpv: AddrMap::default(),
            heat: AddrMap::default(),
        }
    }

    /// Arm seal upkeep and trap-entry verification: the run is under a
    /// memory-fault plan. Call it before the first install, so that every
    /// installed span is sealed.
    fn arm_integrity(&mut self) {
        debug_assert!(
            self.resident.is_empty() && self.redirectors.is_empty(),
            "armed after the first install"
        );
        self.seals = Some(SealTable::default());
    }

    fn rpc(
        &mut self,
        ep: &mut McEndpoint,
        machine: &mut Machine,
        req: &Request,
    ) -> Result<Reply, CacheError> {
        let out = ep.rpc(req)?;
        let stall = self.stats.link.record_attempts(
            &self.cfg.link,
            out.req_bytes,
            out.rep_bytes,
            out.attempts,
            out.backoff,
        );
        self.stats.link.session.absorb(&out.session);
        self.stats.miss_cycles += stall;
        machine.stats.cycles += stall;
        Ok(out.reply)
    }

    /// Recover from an MC restart: drop every resident procedure (their
    /// translations are unverifiable against the fresh MC) but keep the
    /// pinned redirectors — return addresses on the stack point into them,
    /// which is exactly why they are pinned. Every redirector word is
    /// re-pointed; now-absent targets become fresh miss records that
    /// refetch on demand.
    fn resync(&mut self, machine: &mut Machine) {
        while let Some(i) = self
            .heap
            .regions
            .iter()
            .position(|r| matches!(r.kind, RegionKind::Proc { .. }))
        {
            self.heap.release(i);
        }
        self.resident.clear();
        // Residence predictions die with the residents; lifetime heat
        // survives (it describes the program, not the epoch).
        self.rrpv.clear();
        // Every seal is stale: the procedure seals cover now-freed regions
        // and the redirector words are about to be rewritten (resealing
        // them below). The `fails` ledger is deliberately kept.
        if let Some(seals) = &mut self.seals {
            seals.clear();
        }
        for ridx in 0..self.redirectors.len() {
            self.write_redir_word(machine, ridx, RedirSlot::Callee);
            self.write_redir_word(machine, ridx, RedirSlot::Continuation);
        }
        // Resident procedures are gone: slow-path pins keyed by recycled
        // addresses would suppress the wrong spans.
        machine.clear_slow_pins();
        self.stats.link.session.resyncs += 1;
    }

    /// Find the resident procedure containing `orig` and return the
    /// corresponding tcache address.
    fn resident_addr(&mut self, orig: u32) -> Option<u32> {
        let p = self
            .resident
            .values()
            .find(|p| orig >= p.orig_start && orig < p.orig_start + p.orig_size)?;
        let tc = p.tc_start + (orig - p.orig_start);
        let func = p.orig_start;
        self.clock += 1;
        let now = self.clock;
        self.heap.touch(func, now);
        self.rrpv.insert(func, RRPV_HOT);
        *self.heat.entry(func).or_insert(0) += 1;
        Some(tc)
    }

    /// Write one redirector word.
    fn write_redir_word(&mut self, machine: &mut Machine, ridx: usize, slot: RedirSlot) {
        let r = self.redirectors[ridx];
        let (addr, target_orig) = match slot {
            RedirSlot::Callee => (r.addr, r.callee_orig),
            RedirSlot::Continuation => (r.addr + 4, r.cont_orig),
        };
        // Resident (without LRU touch — this is bookkeeping, not use)?
        let target_tc = self
            .resident
            .values()
            .find(|p| target_orig >= p.orig_start && target_orig < p.orig_start + p.orig_size)
            .map(|p| p.tc_start + (target_orig - p.orig_start));
        let word = match (target_tc, slot) {
            (Some(tc), RedirSlot::Callee) => {
                cf::retarget(encode(Inst::Jal { off: 0 }), addr, tc).expect("in range")
            }
            (Some(tc), RedirSlot::Continuation) => {
                cf::retarget(encode(Inst::J { off: 0 }), addr, tc).expect("in range")
            }
            (None, _) => {
                let idx = self.records.len() as u32;
                self.records.push(MissRec {
                    target_orig,
                    site: Some((ridx, slot)),
                });
                encode(Inst::Miss { idx })
            }
        };
        machine.mem.write_u32(addr, word).expect("redir mapped");
        // Redirector words are entered on every cross-procedure transfer;
        // re-predecode the rewritten word eagerly. A no-op when the
        // superblock engine is off — lowering words that path would never
        // execute was pure waste.
        machine.predecode_range(addr, addr + 4);
        // Each redirector word is independently regenerable from CC
        // metadata, so it gets its own one-word seal.
        if let Some(seals) = &mut self.seals {
            seals.seal(machine, addr, 4);
        }
    }

    /// Evict the procedure in heap region `idx`, fixing every redirector
    /// word that points into it. No stack walk — that is the point of the
    /// redirectors.
    fn evict_region(
        &mut self,
        machine: &mut Machine,
        ep: &mut McEndpoint,
        idx: usize,
    ) -> Result<(), CacheError> {
        let RegionKind::Proc { func, .. } = self.heap.regions[idx].kind else {
            panic!("evict_region on non-proc region");
        };
        let proc = self.resident.remove(&func).expect("resident");
        self.heap.release(idx);
        self.rrpv.remove(&func);
        if let Some(seals) = &mut self.seals {
            seals.unseal(proc.tc_start);
        }
        if self.pinned_origs.contains(&func) {
            machine.unpin_slow_span(proc.tc_start, proc.tc_start + proc.orig_size);
        }
        let span = proc.orig_start..proc.orig_start + proc.orig_size;
        for ridx in 0..self.redirectors.len() {
            let r = self.redirectors[ridx];
            if span.contains(&r.callee_orig) {
                self.write_redir_word(machine, ridx, RedirSlot::Callee);
            }
            if span.contains(&r.cont_orig) {
                self.write_redir_word(machine, ridx, RedirSlot::Continuation);
            }
        }
        self.stats.evictions += 1;
        self.stats.eviction_cycles.push(machine.stats.cycles);
        match self.rpc(ep, machine, &Request::Invalidate { orig_pc: func }) {
            Ok(reply) => {
                if !matches!(reply, Reply::Ack) {
                    return Err(CacheError::Proto);
                }
            }
            // The MC restarted: its mirror is already empty, and the rest
            // of our residence state is just as stale as this one entry.
            Err(CacheError::McRestarted) => self.resync(machine),
            Err(e) => return Err(e),
        }
        Ok(())
    }

    /// Pick the eviction victim: age every resident procedure until one
    /// reaches the distant bucket, then take the highest RRPV, breaking
    /// ties towards the least lifetime heat, then the least recent use.
    fn pick_victim(&mut self) -> Option<usize> {
        let procs: Vec<(usize, u32, u64)> = self
            .heap
            .regions
            .iter()
            .enumerate()
            .filter_map(|(i, r)| match r.kind {
                RegionKind::Proc { func, last_use } => Some((i, func, last_use)),
                _ => None,
            })
            .collect();
        let max = procs
            .iter()
            .map(|&(_, f, _)| self.rrpv.get(&f).copied().unwrap_or(RRPV_FRESH))
            .max()?;
        if max < RRPV_MAX {
            let delta = RRPV_MAX - max;
            for v in self.rrpv.values_mut() {
                *v = (*v + delta).min(RRPV_MAX);
            }
        }
        procs
            .into_iter()
            .max_by_key(|&(i, f, lu)| {
                let r = self.rrpv.get(&f).copied().unwrap_or(RRPV_FRESH);
                let heat = self.heat.get(&f).copied().unwrap_or(0);
                use std::cmp::Reverse;
                (r, Reverse(heat), Reverse(lu), Reverse(i))
            })
            .map(|(i, _, _)| i)
    }

    /// Allocate `size` bytes, evicting cold procedures as needed. Pinned
    /// (redirector) allocations are carved from the top of memory so they
    /// stay contiguous and never fragment the procedure heap.
    fn alloc(
        &mut self,
        machine: &mut Machine,
        ep: &mut McEndpoint,
        size: u32,
        kind: RegionKind,
    ) -> Result<u32, CacheError> {
        loop {
            if kind == RegionKind::Pinned {
                debug_assert_eq!(size, 8, "redirectors are two words");
                if let Some(addr) = self.heap.carve_pinned_top() {
                    return Ok(addr);
                }
            } else if let Some(idx) = self.heap.find_free(size) {
                return Ok(self.heap.carve(idx, size, kind));
            }
            let Some(victim) = self.pick_victim() else {
                return Err(CacheError::ChunkTooBig {
                    bytes: size,
                    capacity: self.cfg.memory_bytes,
                });
            };
            self.evict_region(machine, ep, victim)?;
        }
    }

    /// Make the procedure containing `orig` resident; return the tcache
    /// address corresponding to `orig`.
    fn ensure(
        &mut self,
        machine: &mut Machine,
        ep: &mut McEndpoint,
        orig: u32,
    ) -> Result<u32, CacheError> {
        if let Some(tc) = self.resident_addr(orig) {
            return Ok(tc);
        }
        let req = Request::FetchProc {
            orig_pc: orig,
            dest: 0,
        };
        let chunk = loop {
            match self.rpc(ep, machine, &req) {
                Ok(Reply::Chunk(c)) => break c,
                Ok(Reply::Err(code)) => return Err(CacheError::Mc(code)),
                Ok(_) => return Err(CacheError::Proto),
                // MC restart: drop stale residence state and refetch from
                // the fresh server.
                Err(CacheError::McRestarted) => self.resync(machine),
                Err(e) => return Err(e),
            }
        };
        let bytes = chunk.words.len() as u32 * 4;
        // Phase 1: make sure every call site has a (pinned) redirector
        // BEFORE the chunk is placed — redirector carving may need to
        // evict procedures, and doing it now means it can never evict the
        // chunk we are installing.
        let mut site_redirs = Vec::with_capacity(chunk.exits.len());
        for exit in &chunk.exits {
            let site_orig = chunk.orig_start + exit.stub_slot * 4;
            let ridx = match self.redir_by_site.get(&site_orig) {
                Some(&r) => r,
                None => {
                    let addr = self.alloc(machine, ep, 8, RegionKind::Pinned)?;
                    let ridx = self.redirectors.len();
                    self.redirectors.push(Redirector {
                        addr,
                        callee_orig: exit.orig_target,
                        cont_orig: site_orig + 4,
                    });
                    self.redir_by_site.insert(site_orig, ridx);
                    self.stats.redirectors += 1;
                    ridx
                }
            };
            site_redirs.push((exit.stub_slot, ridx));
        }
        // Phase 2: place the chunk.
        self.clock += 1;
        let now = self.clock;
        let tc_start = self.alloc(
            machine,
            ep,
            bytes,
            RegionKind::Proc {
                func: chunk.orig_start,
                last_use: now,
            },
        )?;
        machine
            .mem
            .write_words(tc_start, &chunk.words)
            .expect("heap region mapped");
        self.resident.insert(
            chunk.orig_start,
            ResidentProc {
                orig_start: chunk.orig_start,
                orig_size: bytes,
                tc_start,
            },
        );
        // A procedure seen before reinstalls warm; a first-time install
        // lands near-distant until it proves itself.
        let insert = if self.heat.contains_key(&chunk.orig_start) {
            RRPV_WARM
        } else {
            RRPV_FRESH
        };
        self.rrpv.insert(chunk.orig_start, insert);
        *self.heat.entry(chunk.orig_start).or_insert(0) += 1;
        // Phase 3: wire every call site through its redirector.
        for (stub_slot, ridx) in site_redirs {
            self.write_redir_word(machine, ridx, RedirSlot::Callee);
            self.write_redir_word(machine, ridx, RedirSlot::Continuation);
            let site_tc = tc_start + stub_slot * 4;
            let jal = cf::retarget(
                encode(Inst::Jal { off: 0 }),
                site_tc,
                self.redirectors[ridx].addr,
            )
            .expect("in range");
            machine.mem.write_u32(site_tc, jal).expect("mapped");
        }
        // The procedure body and its rewired call sites are final. A
        // watchdog-pinned procedure is barred from superblock lowering
        // BEFORE predecode so no uops form for it; everything else gets
        // predecoded at block starts from its entry, so the first call
        // chains across them as it runs. Blocks at internal branch
        // targets lower lazily on first entry.
        if self.pinned_origs.contains(&chunk.orig_start) {
            machine.pin_slow_span(tc_start, tc_start + bytes);
        }
        machine.predecode_range(tc_start, tc_start + bytes);
        if let Some(seals) = &mut self.seals {
            seals.seal(machine, tc_start, bytes);
        }
        self.stats.fetches += 1;
        self.stats.words_installed += chunk.words.len() as u64;
        let cycles = self.cfg.miss_handler_cycles
            + self.cfg.install_cycles_per_word * chunk.words.len() as u64;
        self.stats.miss_cycles += cycles;
        machine.stats.cycles += cycles;
        Ok(tc_start + (orig - chunk.orig_start))
    }

    fn handle_miss(
        &mut self,
        machine: &mut Machine,
        ep: &mut McEndpoint,
        idx: u32,
    ) -> Result<(), CacheError> {
        self.stats.miss_traps += 1;
        let rec = self
            .records
            .get(idx as usize)
            .cloned()
            .ok_or(CacheError::BadMissRecord(idx))?;
        let target_tc = self.verified_target(machine, ep, rec.target_orig)?;
        match rec.site {
            Some((ridx, slot)) => {
                // Re-point the redirector word at the now-resident target,
                // then resume at the *redirector word itself*: the patched
                // `jal` must execute so `ra` becomes the landing pad
                // (`redir + 4`). Jumping straight to the callee would leave
                // `ra` pointing into the caller's (evictable) body —
                // exactly what redirectors exist to prevent.
                self.write_redir_word(machine, ridx, slot);
                let r = self.redirectors[ridx];
                machine.cpu.pc = match slot {
                    RedirSlot::Callee => r.addr,
                    RedirSlot::Continuation => r.addr + 4,
                };
            }
            None => machine.cpu.pc = target_tc,
        }
        Ok(())
    }

    // ---- integrity: verification, healing, fault injection ----

    /// `ensure` plus (when armed) a seal check on the span containing the
    /// returned address. A failed check quarantines and re-ensures; with
    /// no injection between iterations the loop terminates in at most two.
    fn verified_target(
        &mut self,
        machine: &mut Machine,
        ep: &mut McEndpoint,
        orig: u32,
    ) -> Result<u32, CacheError> {
        loop {
            let tc = self.ensure(machine, ep, orig)?;
            let Some((start, _)) = self.seals.as_ref().and_then(|s| s.containing(tc)) else {
                return Ok(tc);
            };
            if self.check_seal(machine, ep, start)? {
                return Ok(tc);
            }
        }
    }

    /// Verify every live seal, healing each failed span before the guest
    /// can resume. An unarmed CC holds no seals and checks nothing.
    fn verify_and_heal(
        &mut self,
        machine: &mut Machine,
        ep: &mut McEndpoint,
    ) -> Result<(), CacheError> {
        let starts = self
            .seals
            .as_ref()
            .map(SealTable::starts)
            .unwrap_or_default();
        for start in starts {
            // Healing earlier spans may have unsealed this one.
            if self.seals.as_ref().is_some_and(|s| s.sealed_at(start)) {
                self.check_seal(machine, ep, start)?;
            }
        }
        Ok(())
    }

    /// Verify the sealed span starting at `start` and heal it on a
    /// mismatch, recording the verdict in the integrity ledger. Returns
    /// whether the span matched its seal. Only an armed CC verifies.
    fn check_seal(
        &mut self,
        machine: &mut Machine,
        ep: &mut McEndpoint,
        start: u32,
    ) -> Result<bool, CacheError> {
        let seals = self.seals.as_ref().expect("only an armed CC verifies");
        let intact = seals.verify(machine, start);
        let ledger = &mut self.stats.integrity;
        ledger.seals_checked += 1;
        if intact {
            ledger.seal_hits += 1;
        } else {
            ledger.violations += 1;
            self.heal_span(machine, ep, start)?;
        }
        debug_assert!(
            self.stats.integrity.balanced(),
            "unbalanced integrity ledger: {:?}",
            self.stats.integrity
        );
        Ok(intact)
    }

    /// Quarantine and repair one corrupted sealed span. Procedures are
    /// evicted (refetched on demand through the normal miss path) — never
    /// patched in place, since installed bytes carry call-site rewrites a
    /// fresh MC copy would not reproduce. Redirector words regenerate
    /// purely from CC metadata via `write_redir_word`.
    fn heal_span(
        &mut self,
        machine: &mut Machine,
        ep: &mut McEndpoint,
        start: u32,
    ) -> Result<(), CacheError> {
        let hit = self
            .resident
            .values()
            .find(|p| start >= p.tc_start && start < p.tc_start + p.orig_size)
            .map(|p| p.orig_start);
        if let Some(orig) = hit {
            let fails = self.fails.entry(orig).or_insert(0);
            *fails += 1;
            let newly_pinned = *fails > WATCHDOG_THRESHOLD && self.pinned_origs.insert(orig);
            if newly_pinned {
                self.stats.integrity.slow_path_pins += 1;
            } else {
                self.stats.integrity.retranslations += 1;
            }
            self.stats.integrity.quarantines += 1;
            let idx = self.heap.region_of_func(orig).expect("resident proc");
            self.evict_region(machine, ep, idx)?;
            return Ok(());
        }
        if let Some((ridx, slot)) = self.redirectors.iter().enumerate().find_map(|(i, r)| {
            if r.addr == start {
                Some((i, RedirSlot::Callee))
            } else if r.addr + 4 == start {
                Some((i, RedirSlot::Continuation))
            } else {
                None
            }
        }) {
            self.write_redir_word(machine, ridx, slot);
            self.stats.integrity.retranslations += 1;
            return Ok(());
        }
        // Stale bookkeeping (span no longer owned by anything): drop it.
        if let Some(seals) = &mut self.seals {
            seals.unseal(start);
        }
        self.stats.integrity.retranslations += 1;
        Ok(())
    }

    /// One fault-injection checkpoint: land this tick's scheduled flips,
    /// then verify-and-heal so corrupted words never execute.
    fn chaos_tick(
        &mut self,
        machine: &mut Machine,
        ep: &mut McEndpoint,
        inj: &mut MemFaultInjector,
    ) -> Result<(), CacheError> {
        let fire = inj.begin_tick();
        // A scheduled dcache fire is still consumed (keeping seeded
        // schedules aligned across systems) but this system has no data
        // cache to land it in.
        if !fire.any() {
            return Ok(());
        }
        // Resolve the guest pc to its original address BEFORE anything is
        // corrupted: if healing evicts the very procedure being executed,
        // execution is re-routed through the ordinary miss path. Bodies
        // are position-independent 1:1 copies, so the offset maps back.
        let pc = machine.cpu.pc;
        let pc_orig = self
            .resident
            .values()
            .find(|p| pc >= p.tc_start && pc < p.tc_start + p.orig_size)
            .map(|p| p.orig_start + (pc - p.tc_start));
        if fire.code {
            self.inject_code_flip(machine, inj);
        }
        if fire.redirector {
            self.inject_redirector_flip(machine, inj);
        }
        self.verify_and_heal(machine, ep)?;
        let pc = machine.cpu.pc;
        let still_resident = self
            .resident
            .values()
            .any(|p| pc >= p.tc_start && pc < p.tc_start + p.orig_size);
        if !still_resident {
            if let Some(orig) = pc_orig {
                machine.cpu.pc = self.ensure(machine, ep, orig)?;
            }
        }
        Ok(())
    }

    /// Flip one seeded bit in a resident procedure body (or in the plan's
    /// stuck procedure, if resident).
    fn inject_code_flip(&mut self, machine: &mut Machine, inj: &mut MemFaultInjector) {
        let addr = if let Some(orig) = inj.plan.stuck_orig {
            let Some(p) = self
                .resident
                .values()
                .find(|p| orig >= p.orig_start && orig < p.orig_start + p.orig_size)
            else {
                return;
            };
            p.tc_start + inj.pick((p.orig_size / 4) as u64) as u32 * 4
        } else {
            // Sort by tcache address: HashMap iteration order must not
            // leak into the deterministic injection schedule.
            let mut procs: Vec<(u32, u32)> = self
                .resident
                .values()
                .map(|p| (p.tc_start, p.orig_size / 4))
                .collect();
            procs.sort_unstable();
            let total: u64 = procs.iter().map(|&(_, w)| w as u64).sum();
            if total == 0 {
                return;
            }
            let mut k = inj.pick(total);
            let mut addr = 0;
            for (tc_start, words) in procs {
                if k < words as u64 {
                    addr = tc_start + k as u32 * 4;
                    break;
                }
                k -= words as u64;
            }
            addr
        };
        self.flip_bit(machine, addr, inj);
        self.stats.integrity.code_flips += 1;
    }

    /// Flip one seeded bit in a redirector word.
    fn inject_redirector_flip(&mut self, machine: &mut Machine, inj: &mut MemFaultInjector) {
        if self.redirectors.is_empty() {
            return;
        }
        let k = inj.pick(self.redirectors.len() as u64 * 2);
        let r = self.redirectors[(k / 2) as usize];
        let addr = r.addr + 4 * (k % 2) as u32;
        self.flip_bit(machine, addr, inj);
        self.stats.integrity.redirector_flips += 1;
    }

    fn flip_bit(&mut self, machine: &mut Machine, addr: u32, inj: &mut MemFaultInjector) {
        let word = machine.mem.read_u32(addr).expect("tcache mapped");
        let flipped = word ^ (1u32 << inj.pick(32));
        machine.mem.write_u32(addr, flipped).expect("tcache mapped");
    }
}

impl ProcCacheSystem {
    /// Fused system (MC in-process).
    pub fn new(image: Image, cfg: ProcConfig) -> ProcCacheSystem {
        let mc = Mc::new(image.clone());
        ProcCacheSystem {
            image,
            cfg,
            endpoint: McEndpoint::direct(mc),
            chaos: None,
        }
    }

    /// System with an explicit endpoint (remote MC). A remote MC's
    /// session is the caller's: a run sends no reset, so a caller running
    /// more than once must give each run an MC with an empty residence
    /// mirror.
    pub fn with_endpoint(image: Image, cfg: ProcConfig, endpoint: McEndpoint) -> ProcCacheSystem {
        ProcCacheSystem {
            image,
            cfg,
            endpoint,
            chaos: None,
        }
    }

    /// Run under a seeded memory-fault plan: scheduled bit flips land in
    /// resident procedures and redirector words, and trap-entry seal
    /// verification is armed. Architectural output must match a clean run.
    pub fn run_chaos(
        &mut self,
        input: &[u8],
        plan: MemFaultPlan,
    ) -> Result<ProcRunOutput, CacheError> {
        self.chaos = Some(plan);
        let out = self.run(input);
        self.chaos = None;
        out
    }

    /// Run the program from a cold cache and, with the fused MC, a fresh
    /// MC session.
    pub fn run(&mut self, input: &[u8]) -> Result<ProcRunOutput, CacheError> {
        let mut machine = Machine::load_client(&self.image, input);
        machine.set_superblocks_enabled(self.cfg.superblocks);
        let mut cc = ProcCc::new(self.cfg);
        self.endpoint.set_policy(self.cfg.link_policy);
        self.endpoint.begin_session();
        let mut injector = self.chaos.map(MemFaultInjector::new);
        if injector.is_some() {
            cc.arm_integrity();
        }
        let entry = cc.ensure(&mut machine, &mut self.endpoint, self.image.entry)?;
        machine.cpu.pc = entry;
        let fuel = self.cfg.fuel;
        let exit_code = loop {
            if machine.stats.instructions >= fuel {
                return Err(CacheError::OutOfFuel);
            }
            let batch = (fuel - machine.stats.instructions).min(Machine::BLOCK_STEPS);
            match machine.run_block(batch)? {
                Step::Running => {}
                Step::Exited(code) => break code,
                Step::Trapped(Trap::Miss { idx, .. }) => {
                    cc.handle_miss(&mut machine, &mut self.endpoint, idx)?;
                }
                Step::Trapped(t) => {
                    // jrh/jalrh cannot occur: the MC refuses indirect jumps
                    // at rewrite time.
                    unreachable!("unexpected trap {t:?} in procedure cache");
                }
            }
            // Fault-injection checkpoint: flips land and are healed here,
            // before the guest resumes — corrupted code never executes.
            if let Some(inj) = injector.as_mut() {
                cc.chaos_tick(&mut machine, &mut self.endpoint, inj)?;
            }
        };
        Ok(ProcRunOutput {
            exit_code,
            output: machine.env.output.clone(),
            cache: cc.stats,
            exec: machine.stats,
            trace: machine.trace,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softcache_minic as minic;

    fn compile(src: &str) -> Image {
        minic::compile_to_image(
            src,
            &minic::Options {
                jump_tables: false, // the ARM prototype has no indirect jumps
            },
        )
        .unwrap()
    }

    fn native_result(image: &Image, input: &[u8]) -> (i32, Vec<u8>) {
        let mut m = softcache_sim::Machine::load_native(image, input);
        let code = m.run_native(100_000_000).unwrap();
        (code, m.env.output.clone())
    }

    const CALC: &str = r#"
int square(int x) { return x * x; }
int cube(int x) { return x * square(x); }
int main() {
    int i; int s;
    s = 0;
    for (i = 0; i < 10; i = i + 1) s = s + cube(i) - square(i);
    return s % 1000;
}
"#;

    #[test]
    fn runs_correctly_with_ample_memory() {
        let image = compile(CALC);
        let (want, _) = native_result(&image, &[]);
        let out = ProcCacheSystem::new(image, ProcConfig::default())
            .run(&[])
            .unwrap();
        assert_eq!(out.exit_code, want);
        assert_eq!(out.cache.evictions, 0, "everything fits");
        assert!(out.cache.fetches >= 4, "crt0 + main + square + cube");
        assert!(out.cache.redirectors >= 3);
    }

    #[test]
    fn small_memory_pages_but_stays_correct() {
        let image = compile(CALC);
        let (want, _) = native_result(&image, &[]);
        // Find a memory size that forces eviction: total code size minus a
        // bit.
        let total: u32 = image.text_bytes();
        let cfg = ProcConfig {
            memory_bytes: total * 2 / 3,
            ..ProcConfig::default()
        };
        let out = ProcCacheSystem::new(image, cfg).run(&[]).unwrap();
        assert_eq!(out.exit_code, want, "eviction must preserve semantics");
        assert!(out.cache.evictions > 0, "memory was insufficient");
        assert_eq!(
            out.cache.evictions as usize,
            out.cache.eviction_cycles.len()
        );
    }

    #[test]
    fn eviction_of_running_caller_recovers_on_return() {
        // Deep call chain with a tiny memory: the caller is routinely
        // evicted while the callee runs; returns re-fetch through the
        // redirector's continuation miss.
        let src = r#"
int leaf(int x) { return x + 1; }
int mid(int x) { int a; a = leaf(x) + leaf(x + 1); return a; }
int outer(int x) { int b; b = mid(x) * 2 + mid(x + 2); return b; }
int main() {
    int i; int s;
    s = 0;
    for (i = 0; i < 5; i = i + 1) s = s + outer(i);
    return s;
}
"#;
        let image = compile(src);
        let (want, _) = native_result(&image, &[]);
        // Memory holds the biggest function plus redirectors but not the
        // whole program, so callers get evicted while callees run.
        let biggest = image.functions().iter().map(|f| f.size).max().unwrap();
        let total = image.text_bytes();
        let cfg = ProcConfig {
            memory_bytes: (biggest + 256).min(total - 64),
            ..ProcConfig::default()
        };
        let out = ProcCacheSystem::new(image, cfg).run(&[]).unwrap();
        assert_eq!(out.exit_code, want);
        assert!(out.cache.evictions > 0);
    }

    #[test]
    fn steady_state_stops_paging_when_hot_set_fits() {
        // Phase behaviour: a hot loop over two functions, then a cold
        // epilogue. With memory that fits the hot set, evictions happen
        // only around phase transitions — the Figure 8 "steady state zero"
        // observation.
        let src = r#"
int hot1(int x) { return x * 3 + 1; }
int hot2(int x) { return x / 2; }
int coldtail(int x) { puti(x); return 0; }
int main() {
    int i; int v;
    v = 7;
    for (i = 0; i < 300; i = i + 1) {
        if (v % 2) v = hot1(v); else v = hot2(v);
        if (v <= 1) v = i + 3;
    }
    coldtail(v);
    return v;
}
"#;
        let image = compile(src);
        let (want, wout) = native_result(&image, &[]);
        let hot_size: u32 = image
            .functions()
            .iter()
            .filter(|f| f.name != "coldtail")
            .map(|f| f.size)
            .sum();
        let cfg = ProcConfig {
            memory_bytes: hot_size + 768, // hot set + redirectors
            ..ProcConfig::default()
        };
        let out = ProcCacheSystem::new(image, cfg).run(&[]).unwrap();
        assert_eq!(out.exit_code, want);
        assert_eq!(out.output, wout);
        // Paging is bounded: transitions only, not per iteration.
        assert!(
            out.cache.evictions < 20,
            "evictions {} should reflect phase changes, not thrash",
            out.cache.evictions
        );
    }

    #[test]
    fn indirect_jumps_rejected() {
        let src = r#"
int f(int n) {
    switch (n) {
        case 0: return 1;
        case 1: return 2;
        case 2: return 3;
        case 3: return 4;
        case 4: return 5;
        default: return 0;
    }
}
int main() { return f(getc()); }
"#;
        // Compiled WITH jump tables → contains jr → the ARM-style MC
        // must refuse.
        let image = minic::compile_to_image(src, &minic::Options { jump_tables: true }).unwrap();
        let err = ProcCacheSystem::new(image, ProcConfig::default())
            .run(b"\x02")
            .unwrap_err();
        assert!(matches!(err, CacheError::Mc(c) if c == errcode::UNSUPPORTED_IN_PROC));
    }

    #[test]
    fn too_small_memory_reports_chunk_too_big() {
        let image = compile("int main() { return 5; }");
        let cfg = ProcConfig {
            memory_bytes: 16,
            ..ProcConfig::default()
        };
        let err = ProcCacheSystem::new(image, cfg).run(&[]).unwrap_err();
        assert!(matches!(err, CacheError::ChunkTooBig { .. }));
    }

    #[test]
    fn heap_alloc_free_coalesce() {
        let mut h = Heap::new(0, 64);
        // Pinned stubs carve from the top.
        let p1 = h.carve_pinned_top().unwrap();
        let p2 = h.carve_pinned_top().unwrap();
        assert_eq!((p1, p2), (56, 48));
        let b = h.carve(
            h.find_free(16).unwrap(),
            16,
            RegionKind::Proc {
                func: 1,
                last_use: 1,
            },
        );
        let c = h.carve(
            h.find_free(32).unwrap(),
            32,
            RegionKind::Proc {
                func: 2,
                last_use: 2,
            },
        );
        assert_eq!((b, c), (0, 16));
        assert!(h.find_free(8).is_none(), "full");
        assert!(h.carve_pinned_top().is_none(), "no free tail");
        // Free the first proc.
        let idx = h.region_of_func(1).unwrap();
        h.release(idx);
        assert!(h.find_free(16).is_some());
        // Free the second proc; 16 + 32 coalesce into 48.
        let idx = h.region_of_func(2).unwrap();
        h.release(idx);
        assert!(h.find_free(48).is_some());
        // LRU picks the oldest.
        let f = h.find_free(48).unwrap();
        h.carve(
            f,
            24,
            RegionKind::Proc {
                func: 3,
                last_use: 5,
            },
        );
        let f = h.find_free(24).unwrap();
        h.carve(
            f,
            24,
            RegionKind::Proc {
                func: 4,
                last_use: 4,
            },
        );
        let lru = h.lru_proc().unwrap();
        assert!(matches!(
            h.regions[lru].kind,
            RegionKind::Proc { func: 4, .. }
        ));
    }

    #[test]
    fn trrip_victim_prefers_cold_low_heat_procs() {
        let mut cc = ProcCc::new(ProcConfig::default());
        for (func, last_use) in [(0x100, 1), (0x200, 2), (0x300, 3)] {
            let idx = cc.heap.find_free(16).unwrap();
            cc.heap.carve(idx, 16, RegionKind::Proc { func, last_use });
        }
        // 0x100 is entered constantly; the others installed and idled.
        cc.rrpv.insert(0x100, RRPV_HOT);
        cc.heat.insert(0x100, 50);
        cc.rrpv.insert(0x200, RRPV_FRESH);
        cc.heat.insert(0x200, 3);
        cc.rrpv.insert(0x300, RRPV_FRESH);
        cc.heat.insert(0x300, 1);
        // Max RRPV is FRESH (2), so everyone ages by 1; the victim is the
        // distant proc with the least lifetime heat — NOT the LRU (0x100).
        let v = cc.pick_victim().unwrap();
        assert!(matches!(
            cc.heap.regions[v].kind,
            RegionKind::Proc { func: 0x300, .. }
        ));
        assert_eq!(cc.rrpv[&0x100], RRPV_HOT + 1);
        assert_eq!(cc.rrpv[&0x200], RRPV_MAX);
        // Recency still breaks exact (rrpv, heat) ties.
        cc.heat.insert(0x300, 3);
        let v = cc.pick_victim().unwrap();
        assert!(matches!(
            cc.heap.regions[v].kind,
            RegionKind::Proc { func: 0x200, .. }
        ));
    }
}
