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
//!   a procedure only has to fix redirector words, never the stack. A
//!   redirector word whose target is not resident holds the miss stub that
//!   names its own tcache word (`arena::stub_at`), so the trap leads back
//!   to the redirector and its target.
//! * "Indirect jumps are not supported" — the MC refuses procedures
//!   containing `jr`/`jalr` (compile the workload with
//!   `jump_tables: false`).
//!
//! Unlike the SPARC variant's flush-everything policy, this controller
//! **evicts individual procedures**, which is what produces the paging
//! behaviour of Figure 8. It places code in the same tcache arena as the
//! basic-block tier (`arena.rs`), which holds the free list, the
//! seals and the watchdog: procedures take the lowest hole with room, and
//! redirectors carve downward from the top of the arena. This controller
//! keeps its procedure records, redirectors and temperature.
//! `ProcCc::pick_victim` chooses the victim by TRRIP: re-reference
//! prediction, then least lifetime heat, then least recent use
//! (DESIGN.md §16).
//!
//! This cache receives no speculative pushes: it only ever issues
//! `FetchProc`, so the batched `FetchBatch`/`Reply::Batch` protocol never
//! competes with its pinned redirectors or resident procedures — the
//! prefetch-never-evicts-pinned invariant holds here trivially.

use crate::addr_map::AddrMap;
use crate::arena::{stub_addr, stub_at, Arena, Tier};
use crate::cc::{CacheError, RRPV_FRESH, RRPV_HOT, RRPV_MAX, RRPV_WARM};
use crate::endpoint::McEndpoint;
use crate::integrity::{IntegrityStats, MemFaultInjector, MemFaultPlan};
use crate::mc::{errcode, Mc};
use crate::protocol::{ChunkPayload, ExitDesc, PatchKind, Reply, Request};
use softcache_isa::image::Image;
use softcache_isa::inst::Inst;
use softcache_isa::layout::TCACHE_BASE;
use softcache_isa::{cf, decode, encode};
use softcache_net::{LinkModel, LinkPolicy, LinkStats};
use softcache_sim::{ExecStats, Machine, Step, TraceStats, Trap};
use std::cmp::Reverse;

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

/// One of a redirector's two words. A redirector word is the only place
/// this tier writes a miss stub, and the redirector fixes its target.
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
struct ResidentProc {
    orig_start: u32,
    orig_size: u32,
    tc_start: u32,
    /// Re-reference prediction, in the basic-block tier's buckets
    /// (`cc::RRPV_*`): entered procedures go hot, previously installed
    /// ones reinstall warm, first-time installs land near-distant. Victim
    /// selection under tcache pressure takes the highest RRPV instead of
    /// strict recency (DESIGN.md §16).
    rrpv: u8,
    /// `ProcCc::clock` at the last install or entry, unique per resident:
    /// the last tie-break of victim selection.
    last_use: u64,
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
    /// The tcache's free list, seals and watchdog.
    arena: Arena,
    /// Lowest redirector address. Redirectors carve 8 bytes at a time
    /// downward from the top of the arena, so the pinned stubs stay
    /// contiguous and never fragment the holes procedures take.
    pin_floor: u32,
    /// func entry → resident info.
    resident: AddrMap<ResidentProc>,
    /// call-site original address → redirector index.
    redir_by_site: AddrMap<usize>,
    redirectors: Vec<Redirector>,
    clock: u64,
    stats: ProcStats,
    /// Lifetime entries per procedure, never cleared — breaks RRPV ties
    /// towards the procedure entered least over the whole run.
    heat: AddrMap<u64>,
}

impl ProcCc {
    fn new(cfg: ProcConfig) -> ProcCc {
        // Procedure sizes are multiples of 4 and redirectors carve 8
        // bytes, so the arena is rounded down to a multiple of 8.
        let bytes = cfg.memory_bytes & !7;
        ProcCc {
            arena: Arena::new(TCACHE_BASE, bytes),
            pin_floor: TCACHE_BASE + bytes,
            cfg,
            resident: AddrMap::default(),
            redir_by_site: AddrMap::default(),
            redirectors: Vec::new(),
            clock: 0,
            stats: ProcStats::default(),
            heat: AddrMap::default(),
        }
    }

    fn rpc(
        &mut self,
        ep: &mut McEndpoint,
        machine: &mut Machine,
        req: &Request,
    ) -> Result<Reply, CacheError> {
        let out = ep.rpc(req)?;
        let stall = out.charge(&mut self.stats.link, &self.cfg.link);
        self.stats.miss_cycles += stall;
        machine.stats.cycles += stall;
        Ok(out.reply)
    }

    /// Recover from an MC restart: drop every resident procedure (their
    /// translations are unverifiable against the fresh MC) but keep the
    /// pinned redirectors — return addresses on the stack point into them,
    /// which is exactly why they are pinned. Every redirector word is
    /// re-pointed; a word whose target is now absent becomes its miss stub
    /// and refetches on demand.
    fn resync(&mut self, machine: &mut Machine) {
        // Residence predictions die with the residents; lifetime heat
        // survives (it describes the program, not the epoch).
        for (_, p) in self.resident.drain() {
            self.arena.free.release(p.tc_start, p.orig_size);
        }
        // Every seal is stale: the procedure seals cover now-freed spans
        // and the redirector words are about to be rewritten (resealing
        // them below). The watchdog's failure counts are deliberately kept.
        self.arena.clear_seals();
        for ridx in 0..self.redirectors.len() {
            self.write_redir_word(machine, ridx, RedirSlot::Callee);
            self.write_redir_word(machine, ridx, RedirSlot::Continuation);
        }
        // Resident procedures are gone: slow-path pins keyed by recycled
        // addresses would suppress the wrong spans.
        machine.clear_slow_pins();
        self.stats.link.session.resyncs += 1;
    }

    /// The resident procedure holding original address `orig`.
    fn by_orig(&self, orig: u32) -> Option<&ResidentProc> {
        self.resident
            .values()
            .find(|p| (p.orig_start..p.orig_start + p.orig_size).contains(&orig))
    }

    /// The resident procedure holding tcache address `tc`.
    fn by_tc(&self, tc: u32) -> Option<&ResidentProc> {
        self.resident
            .values()
            .find(|p| (p.tc_start..p.tc_start + p.orig_size).contains(&tc))
    }

    /// Enter the resident procedure containing `orig`, if any: mark it
    /// used and return the tcache address corresponding to `orig`.
    fn resident_addr(&mut self, orig: u32) -> Option<u32> {
        let func = self.by_orig(orig)?.orig_start;
        self.clock += 1;
        let p = self.resident.get_mut(&func).expect("found above");
        p.last_use = self.clock;
        p.rrpv = RRPV_HOT;
        *self.heat.entry(func).or_insert(0) += 1;
        Some(p.tc_start + (orig - func))
    }

    /// The redirector word at tcache address `addr`, as its redirector's
    /// index and slot.
    fn redir_at(&self, addr: u32) -> Option<(usize, RedirSlot)> {
        self.redirectors
            .iter()
            .enumerate()
            .find_map(|(i, r)| match addr.wrapping_sub(r.addr) {
                0 => Some((i, RedirSlot::Callee)),
                4 => Some((i, RedirSlot::Continuation)),
                _ => None,
            })
    }

    /// The address of one redirector word and the original address it
    /// leads to.
    fn redir_word(&self, ridx: usize, slot: RedirSlot) -> (u32, u32) {
        let r = self.redirectors[ridx];
        match slot {
            RedirSlot::Callee => (r.addr, r.callee_orig),
            RedirSlot::Continuation => (r.addr + 4, r.cont_orig),
        }
    }

    /// Write one redirector word: a jump to its resident target, or else
    /// its own miss stub.
    fn write_redir_word(&mut self, machine: &mut Machine, ridx: usize, slot: RedirSlot) {
        let (addr, target_orig) = self.redir_word(ridx, slot);
        // Resident (without a touch — this is bookkeeping, not use)?
        let target_tc = self
            .by_orig(target_orig)
            .map(|p| p.tc_start + (target_orig - p.orig_start));
        let word = match (target_tc, slot) {
            (Some(tc), RedirSlot::Callee) => {
                cf::retarget(encode(Inst::Jal { off: 0 }), addr, tc).expect("in range")
            }
            (Some(tc), RedirSlot::Continuation) => {
                cf::retarget(encode(Inst::J { off: 0 }), addr, tc).expect("in range")
            }
            (None, _) => stub_at(addr),
        };
        machine.mem.write_u32(addr, word).expect("redir mapped");
        // Each redirector word is independently regenerable from CC
        // metadata, so it gets its own one-word seal.
        self.arena.seal(machine, addr, 4);
    }

    /// Evict the resident procedure `func`, fixing every redirector word
    /// that points into it. No stack walk — that is the point of the
    /// redirectors.
    fn evict(
        &mut self,
        machine: &mut Machine,
        ep: &mut McEndpoint,
        func: u32,
    ) -> Result<(), CacheError> {
        let p = self.resident.remove(&func).expect("resident");
        self.arena.vacate(machine, func, p.tc_start, p.orig_size);
        let span = p.orig_start..p.orig_start + p.orig_size;
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
    fn pick_victim(&mut self) -> Option<u32> {
        let max = self.resident.values().map(|p| p.rrpv).max()?;
        for p in self.resident.values_mut() {
            p.rrpv += RRPV_MAX - max;
        }
        let heat = |f: &u32| self.heat.get(f).copied().unwrap_or(0);
        self.resident
            .values()
            .max_by_key(|p| (p.rrpv, Reverse(heat(&p.orig_start)), Reverse(p.last_use)))
            .map(|p| p.orig_start)
    }

    /// Allocate `size` bytes, evicting victims until they fit. A
    /// redirector (`pinned`, 8 bytes) takes the two words directly under
    /// the pinned floor, and is refused until whatever sits there is
    /// evicted; a procedure takes the lowest hole with room.
    fn alloc(
        &mut self,
        machine: &mut Machine,
        ep: &mut McEndpoint,
        size: u32,
        pinned: bool,
    ) -> Result<u32, CacheError> {
        loop {
            if pinned {
                debug_assert_eq!(size, 8, "redirectors are two words");
                if self.arena.free.alloc_at(self.pin_floor - 8, 8) {
                    self.pin_floor -= 8;
                    return Ok(self.pin_floor);
                }
            } else if let Some(addr) = self.arena.free.alloc(size) {
                return Ok(addr);
            }
            let Some(victim) = self.pick_victim() else {
                return Err(CacheError::ChunkTooBig {
                    bytes: size,
                    capacity: self.cfg.memory_bytes,
                });
            };
            self.evict(machine, ep, victim)?;
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
                    let addr = self.alloc(machine, ep, 8, true)?;
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
        let tc_start = self.alloc(machine, ep, bytes, false)?;
        machine
            .mem
            .write_words(tc_start, &chunk.words)
            .expect("tcache mapped");
        // A procedure seen before reinstalls warm; a first-time install
        // lands near-distant until it proves itself.
        let rrpv = if self.heat.contains_key(&chunk.orig_start) {
            RRPV_WARM
        } else {
            RRPV_FRESH
        };
        *self.heat.entry(chunk.orig_start).or_insert(0) += 1;
        self.clock += 1;
        self.resident.insert(
            chunk.orig_start,
            ResidentProc {
                orig_start: chunk.orig_start,
                orig_size: bytes,
                tc_start,
                rrpv,
                last_use: self.clock,
            },
        );
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
        // The procedure body and its rewired call sites are final: place
        // the span.
        self.arena.place(machine, chunk.orig_start, tc_start, bytes);
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
        let (ridx, slot) = stub_addr(idx)
            .and_then(|at| self.redir_at(at))
            .ok_or(CacheError::BadMissStub(idx))?;
        debug_assert_eq!(
            stub_addr(idx),
            Some(machine.cpu.pc),
            "the trap came from the word it names"
        );
        let (addr, target_orig) = self.redir_word(ridx, slot);
        self.verified_target(machine, ep, target_orig)?;
        // Re-point the redirector word at the now-resident target, then
        // resume at the *redirector word itself*: the patched `jal` must
        // execute so `ra` becomes the landing pad (`redir + 4`). Jumping
        // straight to the callee would leave `ra` pointing into the
        // caller's (evictable) body — exactly what redirectors exist to
        // prevent.
        self.write_redir_word(machine, ridx, slot);
        machine.cpu.pc = addr;
        Ok(())
    }
}

impl Tier for ProcCc {
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

    /// Procedures are evicted (refetched on demand through the normal miss
    /// path) — never patched in place, since installed bytes carry
    /// call-site rewrites a fresh MC copy would not reproduce. Redirector
    /// words regenerate purely from CC metadata via `write_redir_word`.
    fn heal(
        &mut self,
        machine: &mut Machine,
        ep: &mut McEndpoint,
        start: u32,
    ) -> Result<bool, CacheError> {
        if let Some(orig) = self.by_tc(start).map(|p| p.orig_start) {
            self.arena.quarantine(orig, &mut self.stats.integrity);
            self.evict(machine, ep, orig)?;
            return Ok(true);
        }
        let Some((ridx, slot)) = self.redir_at(start) else {
            return Ok(false);
        };
        self.write_redir_word(machine, ridx, slot);
        self.stats.integrity.retranslations += 1;
        Ok(true)
    }

    /// Bodies are position-independent 1:1 copies, so the offset maps
    /// back.
    fn orig_of(&self, tc: u32) -> Option<u32> {
        self.by_tc(tc).map(|p| p.orig_start + (tc - p.tc_start))
    }

    fn live_at(&self, tc: u32) -> bool {
        self.by_tc(tc).is_some()
    }

    /// Resident procedures by tcache address: the residence map's
    /// iteration order must not leak into the injection schedule.
    fn code_spans(&self, stuck: Option<u32>) -> Vec<(u32, u32)> {
        let span = |p: &ResidentProc| (p.tc_start, p.orig_size / 4);
        let mut spans: Vec<(u32, u32)> = match stuck {
            Some(orig) => self.by_orig(orig).map(span).into_iter().collect(),
            None => self.resident.values().map(span).collect(),
        };
        spans.sort_unstable();
        spans
    }

    /// Both words of every redirector, in allocation order.
    fn redirector_spans(&self) -> Vec<(u32, u32)> {
        self.redirectors.iter().map(|r| (r.addr, 2)).collect()
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
    fn trrip_victim_prefers_cold_low_heat_procs() {
        let mut cc = ProcCc::new(ProcConfig::default());
        // 0x100 is entered constantly; the others installed and idled.
        for (func, rrpv, heat, last_use) in [
            (0x100, RRPV_HOT, 50, 1),
            (0x200, RRPV_FRESH, 3, 2),
            (0x300, RRPV_FRESH, 1, 3),
        ] {
            let tc_start = cc.arena.free.alloc(16).unwrap();
            let p = ResidentProc {
                orig_start: func,
                orig_size: 16,
                tc_start,
                rrpv,
                last_use,
            };
            cc.resident.insert(func, p);
            cc.heat.insert(func, heat);
        }
        // Max RRPV is FRESH (2), so everyone ages by 1; the victim is the
        // distant proc with the least lifetime heat — NOT the LRU (0x100).
        assert_eq!(cc.pick_victim(), Some(0x300));
        assert_eq!(cc.resident[&0x100].rrpv, RRPV_HOT + 1);
        assert_eq!(cc.resident[&0x200].rrpv, RRPV_MAX);
        // Recency still breaks exact (rrpv, heat) ties.
        cc.heat.insert(0x300, 3);
        assert_eq!(cc.pick_victim(), Some(0x200));
    }

    /// Run `CALC` through a procedure cache two thirds the size of its
    /// code, armed before its first install or not, calling `check` after
    /// the first install and after every serviced trap. Each call first
    /// asserts that every redirector word holding a miss stub names its
    /// own tcache word. Returns the controller, the machine and the
    /// endpoint as the run left them.
    fn drive_paging(
        armed: bool,
        mut check: impl FnMut(&ProcCc, &Machine),
    ) -> (ProcCc, Machine, McEndpoint) {
        let mut check = |cc: &ProcCc, machine: &Machine| {
            for addr in cc.redirectors.iter().flat_map(|r| [r.addr, r.addr + 4]) {
                let word = machine.mem.read_u32(addr).unwrap();
                if let Ok(Inst::Miss { idx }) = decode(word) {
                    assert_eq!(stub_addr(idx), Some(addr), "the stub at {addr:#x}");
                }
            }
            check(cc, machine);
        };
        let image = compile(CALC);
        let mut machine = Machine::load_client(&image, &[]);
        let mut cc = ProcCc::new(ProcConfig {
            memory_bytes: image.text_bytes() * 2 / 3,
            link: LinkModel::free(),
            ..ProcConfig::default()
        });
        if armed {
            cc.arm_integrity();
        }
        let mut ep = McEndpoint::direct(Mc::new(image.clone()));
        machine.cpu.pc = cc.ensure(&mut machine, &mut ep, image.entry).unwrap();
        check(&cc, &machine);
        loop {
            match machine.run_block(Machine::BLOCK_STEPS).unwrap() {
                Step::Running => {}
                Step::Exited(_) => break,
                Step::Trapped(Trap::Miss { idx, .. }) => {
                    cc.handle_miss(&mut machine, &mut ep, idx).unwrap();
                }
                Step::Trapped(t) => panic!("unexpected trap {t:?}"),
            }
            check(&cc, &machine);
        }
        assert!(cc.stats.evictions > 0, "the run paged: {:?}", cc.stats);
        (cc, machine, ep)
    }

    #[test]
    fn a_miss_index_naming_no_redirector_word_is_refused() {
        let (mut cc, mut machine, mut ep) = drive_paging(false, |_, _| {});
        let (hole, len) = cc.arena.free.largest();
        assert!(len > 0, "the run ends with a free hole");
        for idx in [(hole - TCACHE_BASE) / 4, u32::MAX] {
            assert_eq!(
                cc.handle_miss(&mut machine, &mut ep, idx),
                Err(CacheError::BadMissStub(idx))
            );
        }
    }

    #[test]
    fn an_unarmed_proc_cc_keeps_no_seals() {
        let (cc, ..) = drive_paging(false, |cc, _| assert!(cc.arena.seals.is_none()));
        assert_eq!(cc.stats.integrity, IntegrityStats::default());
    }

    #[test]
    fn an_armed_proc_cc_seals_every_live_procedure_and_redirector_word() {
        let (cc, ..) = drive_paging(true, |cc, machine| {
            let seals = cc.arena.seals.as_ref().expect("armed");
            let mut live: Vec<u32> = cc.resident.values().map(|p| p.tc_start).collect();
            live.extend(cc.redirectors.iter().flat_map(|r| [r.addr, r.addr + 4]));
            live.sort_unstable();
            assert_eq!(
                seals.starts(),
                live,
                "one seal per live procedure and redirector word"
            );
            assert!(
                live.iter().all(|&start| seals.verify(machine, start)),
                "every seal is current"
            );
        });
        assert!(!cc.redirectors.is_empty(), "the run placed redirectors");
        let s = cc.stats.integrity;
        assert!(
            s.seals_checked > 0 && s.seal_hits == s.seals_checked,
            "{s:?}"
        );
    }
}
