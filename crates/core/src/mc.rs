//! The memory controller (MC) — the server side of the softcache.
//!
//! The MC owns the original program image ("the MC was given a
//! gcc-generated ELF format binary image for input", §2.3), breaks it into
//! chunks on demand and **rewrites** each chunk for its placement address:
//!
//! * direct branches/jumps/calls whose targets are already resident are
//!   retargeted straight at the in-tcache copies (the MC keeps a mirror of
//!   the CC's tcache map, maintained through invalidation notifications);
//! * unresolved exits are described to the CC, which plants `miss` stubs;
//! * computed jumps (`jr`/`jalr`) become the hash-lookup trapping forms
//!   (`jrh`/`jalrh`) — the paper's "cache lookup in software at runtime"
//!   fallback for ambiguous pointers.
//!
//! The MC also serves the data side of the hierarchy (fills and writebacks
//! for the software data cache of §3).

use crate::addr_map::AddrMap;
use crate::protocol::{self, ChunkPayload, ExitDesc, PatchKind, Reply, Request, ResolvedRef};
use crate::xlate::SharedXlate;
use softcache_isa::image::Image;
use softcache_isa::inst::Inst;
use softcache_isa::layout::{DATA_BASE, STACK_TOP};
use softcache_isa::{cf, decode, encode};
use std::borrow::Borrow;
use std::collections::VecDeque;
use std::ops::Deref;
use std::sync::Arc;

/// Error codes carried in [`Reply::Err`].
pub mod errcode {
    /// Address is not inside the program text.
    pub const BAD_ADDRESS: u32 = 1;
    /// The word at the address does not decode.
    pub const BAD_INSTRUCTION: u32 = 2;
    /// Block scan ran away without finding a terminator.
    pub const RUNAWAY_BLOCK: u32 = 3;
    /// Data request outside the server's data memory.
    pub const BAD_DATA_RANGE: u32 = 4;
    /// Procedure request for an address with no containing function symbol.
    pub const NO_SUCH_PROC: u32 = 5;
    /// The procedure contains an instruction the ARM-style chunker does
    /// not support (indirect jumps).
    pub const UNSUPPORTED_IN_PROC: u32 = 6;
}

/// Safety bound on basic-block length (words).
const MAX_BLOCK_WORDS: u32 = 1 << 16;

/// Safety bound on superblock length (words).
const MAX_SUPERBLOCK_WORDS: u32 = 4096;

/// How the MC forms instruction chunks.
///
/// The paper (§2): "for our purposes, a chunk is a basic block, although it
/// could certainly be a larger sequence of instructions, such as a trace or
/// hyperblock." [`ChunkStrategy::Superblock`] implements that extension:
/// starting from the requested address, consecutive fall-through blocks are
/// inlined into one chunk (following conditional branches and call
/// continuations), eliminating their fall-through slots entirely. Taken
/// exits still get miss stubs at the chunk's end. Interior block entries
/// are *not* registered in the residence map, so a branch into the middle
/// of a superblock translates its own copy — standard tail duplication.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ChunkStrategy {
    /// One basic block per chunk (the SPARC prototype).
    #[default]
    BasicBlock,
    /// Inline up to `max_blocks` consecutive fall-through blocks.
    Superblock {
        /// Maximum basic blocks per chunk (≥ 1).
        max_blocks: u32,
    },
}

/// Server-side statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct McStats {
    /// Basic blocks served.
    pub blocks_served: u64,
    /// Procedures served.
    pub procs_served: u64,
    /// Total rewritten words shipped.
    pub words_served: u64,
    /// Invalidation notifications processed.
    pub invalidations: u64,
    /// Data fills served.
    pub data_fills: u64,
    /// Data writebacks accepted.
    pub data_writebacks: u64,
    /// Batched fetches served.
    pub batches_served: u64,
    /// Chunks speculatively pushed beyond the demanded one.
    pub chunks_pushed: u64,
    /// Block translations served from the shared translation cache
    /// (zero unless a [`SharedXlate`] is attached).
    pub shared_hits: u64,
    /// Block translations performed locally and admitted to the shared
    /// cache.
    pub shared_misses: u64,
}

/// The memory controller.
pub struct Mc {
    /// The program image — shared (`Arc`) so a multi-client server can
    /// serve many clients from one copy of the text/data segments while
    /// each client keeps its own `Mc` (the residence mirror is per-client).
    image: Arc<Image>,
    /// Mirror of the client's tcache map: original pc → tcache address.
    mirror: AddrMap<u32>,
    /// Memoized basic-block scans keyed by start address: body length in
    /// words plus whether a terminator was found before the text end.
    block_len: AddrMap<(u32, bool)>,
    /// The server's authoritative data memory (the lower level of the
    /// hierarchy), covering `DATA_BASE..STACK_TOP` so both the dcache and
    /// the scache can spill to it. Empty until the first data request
    /// ([`Mc::data_mut`]): an instruction-only client never makes one.
    data: Vec<u8>,
    /// Set by the first writeback: `data` no longer equals the image's
    /// initial data, so [`Mc::restart_session`] must restore it.
    data_written: bool,
    /// Chunk-formation strategy.
    strategy: ChunkStrategy,
    /// Session epoch. A fresh MC process picks a new epoch; the CC sees it
    /// in every reply envelope and treats a change as "the MC restarted
    /// and lost its mirror" (full resync required).
    epoch: u32,
    /// Statistics.
    pub stats: McStats,
    /// Shared translation cache, when this `Mc` is one tenant of a
    /// multi-client server (see [`crate::xlate`]). `None` keeps the
    /// standalone single-client behaviour bit-for-bit.
    shared: Option<Arc<SharedXlate>>,
    /// While a cacheable translation is in flight, every residence-mirror
    /// probe is recorded here as `(orig_target, answer)` — the dependency
    /// list under which the resulting chunk may be replayed to another
    /// client.
    dep_log: Option<Vec<(u32, Option<u32>)>>,
}

impl Mc {
    /// Build an MC serving `image`.
    pub fn new(image: Image) -> Mc {
        Mc::from_shared(Arc::new(image))
    }

    /// Build an MC serving an already-shared image (one text segment, many
    /// tenants). Data memory is still private per `Mc`: each client of a
    /// multi-client server gets an isolated data image.
    pub fn from_shared(image: Arc<Image>) -> Mc {
        Mc {
            image,
            mirror: AddrMap::default(),
            block_len: AddrMap::default(),
            data: Vec::new(),
            data_written: false,
            strategy: ChunkStrategy::BasicBlock,
            epoch: 1,
            stats: McStats::default(),
            shared: None,
            dep_log: None,
        }
    }

    /// Attach a shared translation cache: block translations are looked
    /// up there first (dependency-checked against this client's mirror)
    /// and admitted on miss, so a fleet of per-client `Mc`s translates
    /// each chunk once. Replies stay byte-identical to the unattached
    /// path — a cached chunk is only replayed when every mirror probe the
    /// original rewrite made answers the same for this client.
    pub fn attach_shared_cache(&mut self, cache: Arc<SharedXlate>) {
        self.shared = Some(cache);
    }

    /// Start a new session with a client that boots cold: forget the
    /// residence mirror and, if writebacks changed it, restore the image's
    /// initial data. What a fresh `Mc` would answer, this one answers from
    /// here on. Sends nothing and costs nothing on an unused MC; the
    /// epoch, chunk strategy, block-scan memo and statistics carry over.
    pub(crate) fn restart_session(&mut self) {
        self.mirror.clear();
        if std::mem::take(&mut self.data_written) {
            self.data.fill(0);
            load_initial_data(&self.image, &mut self.data);
        }
    }

    /// This MC's session epoch.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Set the session epoch (a restarted MC must pick a value it has not
    /// used before — the crash-restart harness increments it).
    pub fn set_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }

    /// Select the chunk-formation strategy (see [`ChunkStrategy`]).
    pub fn set_strategy(&mut self, strategy: ChunkStrategy) {
        if let ChunkStrategy::Superblock { max_blocks } = strategy {
            assert!(max_blocks >= 1, "superblocks need at least one block");
        }
        self.strategy = strategy;
    }

    /// The image being served.
    pub fn image(&self) -> &Image {
        &self.image
    }

    /// Number of entries in the residence mirror (for tests).
    pub fn mirror_len(&self) -> usize {
        self.mirror.len()
    }

    /// Handle one encoded request frame, producing an encoded reply frame.
    /// Served chunks are encoded by reference: a hit in the shared
    /// translation cache is not copied.
    pub fn handle_frame(&mut self, frame: &[u8]) -> Vec<u8> {
        let Ok(req) = Request::decode(frame) else {
            return Reply::Err(errcode::BAD_ADDRESS).encode();
        };
        match self.answer(&req) {
            Answer::Chunk(chunk) => protocol::encode_chunk_reply(&chunk),
            Answer::Batch(chunks) => protocol::encode_batch_reply(&chunks),
            Answer::Other(reply) => reply.encode(),
        }
    }

    /// Handle one decoded request. The reply owns its chunks: one the MC
    /// rewrote for this request moves into it, and only a chunk shared
    /// with the translation cache is copied.
    pub fn handle(&mut self, req: &Request) -> Reply {
        match self.answer(req) {
            // `Chunk` is the size of `ChunkPayload` (asserted below), so
            // the batch is collected in place.
            Answer::Chunk(chunk) => Reply::Chunk(chunk.into_owned()),
            Answer::Batch(chunks) => {
                Reply::Batch(chunks.into_iter().map(Chunk::into_owned).collect())
            }
            Answer::Other(reply) => reply,
        }
    }

    /// Execute one request. Served chunks come back as [`Chunk`]s, so the
    /// caller chooses between encoding them by reference and taking them.
    fn answer(&mut self, req: &Request) -> Answer {
        let reply = match *req {
            Request::FetchBlock { orig_pc, dest } => match self.rewrite_block(orig_pc, dest) {
                Ok(chunk) => {
                    self.stats.blocks_served += 1;
                    self.stats.words_served += chunk.words.len() as u64;
                    return Answer::Chunk(chunk);
                }
                Err(code) => Reply::Err(code),
            },
            Request::FetchBatch {
                orig_pc,
                dest,
                max_chunks,
                budget_bytes,
            } => match self.build_batch(orig_pc, dest, max_chunks, budget_bytes) {
                Ok(chunks) => {
                    self.stats.batches_served += 1;
                    self.stats.blocks_served += chunks.len() as u64;
                    self.stats.chunks_pushed += chunks.len() as u64 - 1;
                    self.stats.words_served +=
                        chunks.iter().map(|c| c.words.len() as u64).sum::<u64>();
                    return Answer::Batch(chunks);
                }
                Err(code) => Reply::Err(code),
            },
            Request::FetchProc { orig_pc, dest } => match self.rewrite_proc(orig_pc, dest) {
                Ok(chunk) => {
                    self.stats.procs_served += 1;
                    self.stats.words_served += chunk.words.len() as u64;
                    return Answer::Chunk(Chunk::Own(chunk));
                }
                Err(code) => Reply::Err(code),
            },
            Request::InvalidateAll => {
                self.mirror.clear();
                self.stats.invalidations += 1;
                Reply::Ack
            }
            Request::Invalidate { orig_pc } => {
                self.mirror.remove(&orig_pc);
                self.stats.invalidations += 1;
                Reply::Ack
            }
            Request::FetchData { addr, len } => {
                let lo = addr.wrapping_sub(DATA_BASE) as usize;
                match self.data_mut().get(lo..lo.saturating_add(len as usize)) {
                    Some(slice) if addr >= DATA_BASE => {
                        let bytes = slice.to_vec();
                        self.stats.data_fills += 1;
                        Reply::Data(bytes)
                    }
                    _ => Reply::Err(errcode::BAD_DATA_RANGE),
                }
            }
            Request::WriteData { addr, ref bytes } => {
                let lo = addr.wrapping_sub(DATA_BASE) as usize;
                match self.data_mut().get_mut(lo..lo.saturating_add(bytes.len())) {
                    Some(slice) if addr >= DATA_BASE => {
                        slice.copy_from_slice(bytes);
                        self.data_written = true;
                        self.stats.data_writebacks += 1;
                        Reply::Ack
                    }
                    _ => Reply::Err(errcode::BAD_DATA_RANGE),
                }
            }
            Request::Hello => Reply::Welcome { epoch: self.epoch },
        };
        Answer::Other(reply)
    }

    /// The data memory, loaded with the image's initial data on first use.
    fn data_mut(&mut self) -> &mut [u8] {
        if self.data.is_empty() {
            self.data = vec![0u8; (STACK_TOP - DATA_BASE) as usize];
            load_initial_data(&self.image, &mut self.data);
        }
        &mut self.data
    }

    /// Scan the basic block starting at `pc`; returns its body length in
    /// words and whether a terminator was found. A block that runs into
    /// the end of the text segment (e.g. code ending in `ecall 0`, which
    /// never returns) is closed there; the rewriter plants a `halt` guard
    /// after it.
    fn block_body_len(&mut self, pc: u32) -> Result<(u32, bool), u32> {
        if let Some(&cached) = self.block_len.get(&pc) {
            return Ok(cached);
        }
        if !pc.is_multiple_of(4) || !self.image.contains_text(pc) {
            return Err(errcode::BAD_ADDRESS);
        }
        let mut len = 0u32;
        let terminated = loop {
            let addr = pc + len * 4;
            let Some(word) = self.image.text_word(addr) else {
                break false;
            };
            let inst = decode(word).map_err(|_| errcode::BAD_INSTRUCTION)?;
            len += 1;
            if inst.ends_block() {
                break true;
            }
            if len > MAX_BLOCK_WORDS {
                return Err(errcode::RUNAWAY_BLOCK);
            }
        };
        if len == 0 {
            return Err(errcode::BAD_ADDRESS);
        }
        self.block_len.insert(pc, (len, terminated));
        Ok((len, terminated))
    }

    /// Rewrite the chunk starting at `orig_pc` for placement at `dest` —
    /// through the shared translation cache when one is attached,
    /// locally otherwise.
    ///
    /// The cache lock is held across the whole
    /// lookup → translate → admit cycle, so concurrent tenants racing
    /// for the same chunk never translate it twice: the translate-once
    /// ledger ([`crate::xlate::XlateStats`]) is exact.
    fn rewrite_block(&mut self, orig_pc: u32, dest: u32) -> Result<Chunk, u32> {
        let Some(shared) = self.shared.clone() else {
            return self.rewrite_block_uncached(orig_pc, dest).map(Chunk::Own);
        };
        let mut guard = shared.lock();
        let mirror = &self.mirror;
        // The rewriter records (orig_pc → dest) in the mirror *before*
        // probing (self-loops resolve to this placement), so replay the
        // lookup against the mirror as it will be mid-rewrite.
        let hit = guard.find(self.strategy, orig_pc, dest, |t| {
            if t == orig_pc {
                Some(dest)
            } else {
                mirror.get(&t).copied()
            }
        });
        if let Some(payload) = hit {
            self.mirror.insert(orig_pc, dest);
            self.stats.shared_hits += 1;
            return Ok(Chunk::Shared(payload));
        }
        self.dep_log = Some(Vec::new());
        let result = self.rewrite_block_uncached(orig_pc, dest);
        let deps = self.dep_log.take().expect("dep log armed above");
        let payload = Arc::new(result?);
        self.stats.shared_misses += 1;
        guard.admit(self.strategy, orig_pc, dest, deps, Arc::clone(&payload));
        Ok(Chunk::Shared(payload))
    }

    /// Look `orig` up in the residence mirror, recording the probe in the
    /// dependency log when a cacheable translation is in flight.
    fn probe(&mut self, orig: u32) -> Option<u32> {
        let got = self.mirror.get(&orig).copied();
        if let Some(log) = self.dep_log.as_mut() {
            log.push((orig, got));
        }
        got
    }

    /// Rewrite the chunk starting at `orig_pc` for placement at `dest`,
    /// per the configured [`ChunkStrategy`]. A basic block is the
    /// single-segment special case of a superblock.
    fn rewrite_block_uncached(&mut self, orig_pc: u32, dest: u32) -> Result<ChunkPayload, u32> {
        let max_blocks = match self.strategy {
            ChunkStrategy::BasicBlock => 1,
            ChunkStrategy::Superblock { max_blocks } => max_blocks,
        };

        // ---- Gather the fall-through chain of segments ----
        // Segments are contiguous in the original address space (each is
        // the previous one's fall-through), so the whole chunk body maps
        // linearly back to original addresses — which the CC's
        // return-address walker relies on.
        let mut segs: Vec<(u32, u32, bool)> = Vec::new(); // (start, len, terminated)
        let mut cur = orig_pc;
        let mut total = 0u32;
        loop {
            let (len, term) = self.block_body_len(cur)?;
            segs.push((cur, len, term));
            total += len;
            if !term || segs.len() as u32 >= max_blocks || total >= MAX_SUPERBLOCK_WORDS {
                break;
            }
            let last_addr = cur + (len - 1) * 4;
            let last = decode(self.image.text_word(last_addr).expect("scanned")).expect("scanned");
            // Chains continue through conditional branches (fallthrough)
            // and calls (return continuation); anything else ends the
            // chunk.
            let chains = matches!(
                cf::classify(last, last_addr),
                cf::CtrlFlow::Branch { .. } | cf::CtrlFlow::Call { .. }
            );
            let next = cur + len * 4;
            if !chains || !self.image.contains_text(next) {
                break;
            }
            cur = next;
        }
        let body = total;

        // Record residence before rewriting so self-targeting branches
        // (single-block loops) resolve to this very placement.
        self.mirror.insert(orig_pc, dest);

        let mut words = Vec::with_capacity(body as usize + 2);
        for &(start, len, _) in &segs {
            for i in 0..len {
                words.push(self.image.text_word(start + i * 4).expect("scanned"));
            }
        }

        let mut exits = Vec::new();
        let mut resolved = Vec::new();
        let mut extra_orig = Vec::new();
        // Inner taken-exits that still need a stub: (patch_slot, target).
        let mut pending: Vec<(u32, u32)> = Vec::new();

        // ---- Inner segments: their fallthrough is inlined; only the
        // taken side needs resolution. ----
        let mut prefix = 0u32;
        for (i, &(start, len, _)) in segs.iter().enumerate() {
            if i + 1 == segs.len() {
                break;
            }
            let slot = prefix + len - 1;
            let addr_new = dest + slot * 4;
            let inst = decode(words[slot as usize]).expect("scanned");
            let taken = cf::direct_target(inst, start + (len - 1) * 4)
                .expect("chaining terminators have direct targets");
            if let Some(tc) = self.probe(taken) {
                words[slot as usize] = cf::retarget(words[slot as usize], addr_new, tc)
                    .map_err(|_| errcode::BAD_INSTRUCTION)?;
                resolved.push(ResolvedRef {
                    slot,
                    orig_target: taken,
                    kind: PatchKind::Retarget,
                });
            } else {
                pending.push((slot, taken));
            }
            prefix += len;
        }

        // ---- Final segment terminator ----
        let (_, _, terminated) = *segs.last().expect("at least one segment");
        let term_slot = body - 1;
        let term_addr_new = dest + term_slot * 4;
        let term = decode(words[term_slot as usize]).expect("scanned");
        let fall_orig = orig_pc + body * 4;

        if !terminated {
            // The chunk ran into the end of text (code after a no-return
            // exit call): plant a halt guard so a stray fallthrough stops
            // deterministically instead of executing tcache garbage.
            words.push(encode(Inst::Halt));
            extra_orig.push(fall_orig);
        } else {
            match cf::classify(term, orig_pc + term_slot * 4) {
                cf::CtrlFlow::Branch { taken } | cf::CtrlFlow::Call { target: taken } => {
                    let fall_slot = body; // slot `body` = fallthrough
                    if let Some(tc) = self.probe(taken) {
                        words[term_slot as usize] =
                            cf::retarget(words[term_slot as usize], term_addr_new, tc)
                                .map_err(|_| errcode::BAD_INSTRUCTION)?;
                        resolved.push(ResolvedRef {
                            slot: term_slot,
                            orig_target: taken,
                            kind: PatchKind::Retarget,
                        });
                        push_fall(
                            self,
                            dest,
                            fall_slot,
                            fall_orig,
                            &mut words,
                            &mut exits,
                            &mut resolved,
                            &mut extra_orig,
                        );
                    } else {
                        let stub_slot = body + 1;
                        words[term_slot as usize] = cf::retarget(
                            words[term_slot as usize],
                            term_addr_new,
                            dest + stub_slot * 4,
                        )
                        .map_err(|_| errcode::BAD_INSTRUCTION)?;
                        push_fall(
                            self,
                            dest,
                            fall_slot,
                            fall_orig,
                            &mut words,
                            &mut exits,
                            &mut resolved,
                            &mut extra_orig,
                        );
                        words.push(encode(Inst::Miss { idx: 0 }));
                        extra_orig.push(taken);
                        exits.push(ExitDesc {
                            stub_slot,
                            patch_slot: term_slot,
                            kind: PatchKind::Retarget,
                            orig_target: taken,
                        });
                    }
                }
                cf::CtrlFlow::Jump { target } => {
                    if let Some(tc) = self.probe(target) {
                        words[term_slot as usize] =
                            cf::retarget(words[term_slot as usize], term_addr_new, tc)
                                .map_err(|_| errcode::BAD_INSTRUCTION)?;
                        resolved.push(ResolvedRef {
                            slot: term_slot,
                            orig_target: target,
                            kind: PatchKind::Retarget,
                        });
                    } else {
                        words[term_slot as usize] = encode(Inst::Miss { idx: 0 });
                        exits.push(ExitDesc {
                            stub_slot: term_slot,
                            patch_slot: term_slot,
                            kind: PatchKind::ReplaceWord,
                            orig_target: target,
                        });
                    }
                }
                cf::CtrlFlow::IndirectJump => {
                    let Inst::Jr { rs } = term else {
                        unreachable!()
                    };
                    words[term_slot as usize] = encode(Inst::Jrh { rs });
                }
                cf::CtrlFlow::IndirectCall => {
                    let Inst::Jalr { rs } = term else {
                        unreachable!()
                    };
                    words[term_slot as usize] = encode(Inst::Jalrh { rs });
                    // Return lands on the slot after the call: a fallthrough
                    // slot pointing at the original continuation.
                    push_fall(
                        self,
                        dest,
                        body,
                        fall_orig,
                        &mut words,
                        &mut exits,
                        &mut resolved,
                        &mut extra_orig,
                    );
                }
                cf::CtrlFlow::Return | cf::CtrlFlow::Stop => {
                    // Verbatim.
                }
                cf::CtrlFlow::None => unreachable!("terminator classified as None"),
            }
        }

        // ---- Stubs for the inner taken-exits, after all other slots ----
        for (patch_slot, target) in pending {
            let stub_slot = words.len() as u32;
            words.push(encode(Inst::Miss { idx: 0 }));
            extra_orig.push(target);
            words[patch_slot as usize] = cf::retarget(
                words[patch_slot as usize],
                dest + patch_slot * 4,
                dest + stub_slot * 4,
            )
            .map_err(|_| errcode::BAD_INSTRUCTION)?;
            exits.push(ExitDesc {
                stub_slot,
                patch_slot,
                kind: PatchKind::Retarget,
                orig_target: target,
            });
        }

        Ok(ChunkPayload {
            orig_start: orig_pc,
            body_words: body,
            words,
            exits,
            resolved,
            extra_orig,
        })
    }

    /// Serve the demanded chunk plus speculatively-pushed successors in
    /// one batch. The CFG walk is breadth-first over static exits
    /// (fall-through and direct-branch targets); candidates already in the
    /// residence mirror, outside the text segment, or over the byte budget
    /// are skipped. Pushed chunks are rewritten for consecutive placement
    /// after the demanded one — exactly where the CC's bump allocator will
    /// install them — so cross-references resolve as if the CC had fetched
    /// them one by one.
    fn build_batch(
        &mut self,
        orig_pc: u32,
        dest: u32,
        max_chunks: u32,
        budget_bytes: u32,
    ) -> Result<Vec<Chunk>, u32> {
        let demand = self.rewrite_block(orig_pc, dest)?;
        let mut used = demand.words.len() as u32 * 4;
        let mut frontier: VecDeque<u32> = demand.exits.iter().map(|e| e.orig_target).collect();
        let mut out = vec![demand];
        while (out.len() as u32) < max_chunks.max(1) {
            let Some(cand) = frontier.pop_front() else {
                break;
            };
            if self.mirror.contains_key(&cand) || !self.image.contains_text(cand) {
                continue;
            }
            let next_dest = dest + used;
            let chunk = match self.rewrite_block(cand, next_dest) {
                Ok(c) => c,
                Err(_) => {
                    // An unservable successor (e.g. data reached through a
                    // mis-predicted edge) just isn't pushed; roll back the
                    // residence entry rewrite_block recorded.
                    self.mirror.remove(&cand);
                    continue;
                }
            };
            let bytes = chunk.words.len() as u32 * 4;
            if used + bytes > budget_bytes {
                self.mirror.remove(&cand);
                break;
            }
            used += bytes;
            for e in &chunk.exits {
                frontier.push_back(e.orig_target);
            }
            out.push(chunk);
        }
        Ok(out)
    }

    /// Rewrite a whole procedure (ARM-prototype granularity). Defined in
    /// `proc.rs`; declared here for dispatching.
    fn rewrite_proc(&mut self, orig_pc: u32, dest: u32) -> Result<ChunkPayload, u32> {
        crate::proc::rewrite_proc(self, orig_pc, dest)
    }

    pub(crate) fn image_ref(&self) -> &Image {
        &self.image
    }

    #[cfg(test)]
    fn mirror_get(&self, orig: u32) -> Option<u32> {
        self.mirror.get(&orig).copied()
    }
}

/// A rewritten chunk as a request produced it: rewritten for this
/// request, or shared with the translation cache.
enum Chunk {
    Own(ChunkPayload),
    Shared(Arc<ChunkPayload>),
}

// `Mc::handle` collects a batch's chunks into payloads in place.
const _: () = assert!(std::mem::size_of::<Chunk>() == std::mem::size_of::<ChunkPayload>());

impl Chunk {
    /// The payload by value: moved when owned, copied when shared (unless
    /// the cache has already let go of it).
    fn into_owned(self) -> ChunkPayload {
        match self {
            Chunk::Own(payload) => payload,
            Chunk::Shared(payload) => Arc::unwrap_or_clone(payload),
        }
    }
}

impl Deref for Chunk {
    type Target = ChunkPayload;

    fn deref(&self) -> &ChunkPayload {
        match self {
            Chunk::Own(payload) => payload,
            Chunk::Shared(payload) => payload,
        }
    }
}

impl Borrow<ChunkPayload> for Chunk {
    fn borrow(&self) -> &ChunkPayload {
        self
    }
}

/// What one request produced, before it becomes a [`Reply`] or a frame.
enum Answer {
    Chunk(Chunk),
    Batch(Vec<Chunk>),
    Other(Reply),
}

/// Copy `image`'s initial data segment into `data` (which starts at
/// `DATA_BASE`).
fn load_initial_data(image: &Image, data: &mut [u8]) {
    let off = (image.data_base - DATA_BASE) as usize;
    data[off..off + image.data.len()].copy_from_slice(&image.data);
}

/// Emit the fallthrough slot at `slot`: a direct jump when the continuation
/// is resident, a miss placeholder otherwise.
#[allow(clippy::too_many_arguments)]
fn push_fall(
    mc: &mut Mc,
    dest: u32,
    slot: u32,
    fall_orig: u32,
    words: &mut Vec<u32>,
    exits: &mut Vec<ExitDesc>,
    resolved: &mut Vec<ResolvedRef>,
    extra_orig: &mut Vec<u32>,
) {
    debug_assert_eq!(words.len() as u32, slot);
    if let Some(tc) = mc.probe(fall_orig) {
        let j = cf::retarget(encode(Inst::J { off: 0 }), dest + slot * 4, tc)
            .expect("jump range covers the tcache");
        words.push(j);
        resolved.push(ResolvedRef {
            slot,
            orig_target: fall_orig,
            kind: PatchKind::ReplaceWord,
        });
    } else {
        words.push(encode(Inst::Miss { idx: 0 }));
        exits.push(ExitDesc {
            stub_slot: slot,
            patch_slot: slot,
            kind: PatchKind::ReplaceWord,
            orig_target: fall_orig,
        });
    }
    extra_orig.push(fall_orig);
}

#[cfg(test)]
mod tests {
    use super::*;
    use softcache_asm::assemble;
    use softcache_isa::layout::{TCACHE_BASE, TEXT_BASE};

    fn mc_for(src: &str) -> Mc {
        Mc::new(assemble(src).unwrap())
    }

    #[test]
    fn block_scan_lengths() {
        let mut mc = mc_for(
            r#"
_start: addi t0, t0, 1
        addi t0, t0, 2
        beqz t0, _start
        nop
        halt
"#,
        );
        assert_eq!(mc.block_body_len(TEXT_BASE).unwrap(), (3, true));
        assert_eq!(mc.block_body_len(TEXT_BASE + 12).unwrap(), (2, true));
        // A block can start mid-way through another.
        assert_eq!(mc.block_body_len(TEXT_BASE + 4).unwrap(), (2, true));
        assert_eq!(mc.block_body_len(TEXT_BASE + 2), Err(errcode::BAD_ADDRESS));
        assert_eq!(mc.block_body_len(0x9999_0000), Err(errcode::BAD_ADDRESS));
    }

    #[test]
    fn branch_block_gets_two_extra_words() {
        // The paper: "we add two new instructions per translated basic
        // block".
        let mut mc = mc_for("_start: addi t0, t0, -1\n bnez t0, _start\n halt");
        let chunk = match mc.handle(&Request::FetchBlock {
            orig_pc: TEXT_BASE,
            dest: 0x40_0000,
        }) {
            Reply::Chunk(c) => c,
            other => panic!("{other:?}"),
        };
        assert_eq!(chunk.body_words, 2);
        assert_eq!(
            chunk.words.len(),
            3,
            "body + fallthrough (taken is self-resolved)"
        );
        // The branch targets the block itself, which just became resident:
        // it must be retargeted at dest directly.
        let b = decode(chunk.words[1]).unwrap();
        assert_eq!(
            cf::direct_target(b, 0x40_0000 + 4),
            Some(0x40_0000),
            "self-loop resolved via the mirror"
        );
        assert_eq!(chunk.exits.len(), 1, "fallthrough unresolved");
        assert_eq!(chunk.exits[0].orig_target, TEXT_BASE + 8);
        assert_eq!(chunk.resolved.len(), 1);
    }

    #[test]
    fn unresolved_branch_points_at_stub() {
        let mc_src = r#"
_start: beqz t0, far
        nop
        halt
far:    halt
"#;
        let mut mc = mc_for(mc_src);
        let chunk = match mc.handle(&Request::FetchBlock {
            orig_pc: TEXT_BASE,
            dest: 0x40_0100,
        }) {
            Reply::Chunk(c) => c,
            other => panic!("{other:?}"),
        };
        assert_eq!(chunk.body_words, 1);
        assert_eq!(chunk.words.len(), 3);
        // Slot 1 = fallthrough miss, slot 2 = taken stub.
        assert!(matches!(decode(chunk.words[1]).unwrap(), Inst::Miss { .. }));
        assert!(matches!(decode(chunk.words[2]).unwrap(), Inst::Miss { .. }));
        // The branch itself targets the stub slot.
        let b = decode(chunk.words[0]).unwrap();
        assert_eq!(cf::direct_target(b, 0x40_0100), Some(0x40_0100 + 8));
        assert_eq!(chunk.exits.len(), 2);
        assert_eq!(chunk.extra_orig, vec![TEXT_BASE + 4, TEXT_BASE + 12]);
    }

    #[test]
    fn jump_becomes_miss_without_extra_word() {
        let mut mc = mc_for("_start: nop\n j _start\n");
        // Fetch the block at the `j` (second block fetch covers whole block
        // from _start which ends at j).
        let chunk = match mc.handle(&Request::FetchBlock {
            orig_pc: TEXT_BASE,
            dest: 0x40_0000,
        }) {
            Reply::Chunk(c) => c,
            other => panic!("{other:?}"),
        };
        // Self-loop: resolved directly, no extra words.
        assert_eq!(chunk.words.len(), 2);
        assert!(chunk.exits.is_empty());
        let j = decode(chunk.words[1]).unwrap();
        assert_eq!(cf::direct_target(j, 0x40_0004), Some(0x40_0000));
    }

    #[test]
    fn indirect_jump_rewritten_to_hash_form() {
        let mut mc = mc_for("_start: jr t0\nnext: jalr t1\n halt");
        let c1 = match mc.handle(&Request::FetchBlock {
            orig_pc: TEXT_BASE,
            dest: 0x40_0000,
        }) {
            Reply::Chunk(c) => c,
            other => panic!("{other:?}"),
        };
        assert!(matches!(decode(c1.words[0]).unwrap(), Inst::Jrh { .. }));
        assert_eq!(c1.words.len(), 1, "jr needs no continuation slot");

        let c2 = match mc.handle(&Request::FetchBlock {
            orig_pc: TEXT_BASE + 4,
            dest: 0x40_0100,
        }) {
            Reply::Chunk(c) => c,
            other => panic!("{other:?}"),
        };
        assert!(matches!(decode(c2.words[0]).unwrap(), Inst::Jalrh { .. }));
        assert_eq!(c2.words.len(), 2, "jalr gets a return-landing slot");
        assert_eq!(c2.extra_orig, vec![TEXT_BASE + 8]);
    }

    #[test]
    fn resident_targets_resolve_immediately() {
        let mut mc = mc_for("_start: j next\nnext: halt");
        // Translate `next` first.
        let _ = mc.handle(&Request::FetchBlock {
            orig_pc: TEXT_BASE + 4,
            dest: 0x40_0200,
        });
        let chunk = match mc.handle(&Request::FetchBlock {
            orig_pc: TEXT_BASE,
            dest: 0x40_0000,
        }) {
            Reply::Chunk(c) => c,
            other => panic!("{other:?}"),
        };
        assert!(chunk.exits.is_empty());
        assert_eq!(chunk.resolved.len(), 1);
        let j = decode(chunk.words[0]).unwrap();
        assert_eq!(cf::direct_target(j, 0x40_0000), Some(0x40_0200));
    }

    #[test]
    fn invalidation_clears_mirror() {
        let mut mc = mc_for("_start: halt");
        let _ = mc.handle(&Request::FetchBlock {
            orig_pc: TEXT_BASE,
            dest: 0x40_0000,
        });
        assert_eq!(mc.mirror_len(), 1);
        assert_eq!(
            mc.handle(&Request::Invalidate { orig_pc: TEXT_BASE }),
            Reply::Ack
        );
        assert_eq!(mc.mirror_len(), 0);
        let _ = mc.handle(&Request::FetchBlock {
            orig_pc: TEXT_BASE,
            dest: 0x40_0000,
        });
        assert_eq!(mc.handle(&Request::InvalidateAll), Reply::Ack);
        assert_eq!(mc.mirror_len(), 0);
    }

    #[test]
    fn data_fill_and_writeback() {
        let mut mc = mc_for("_start: halt\n.data\nx: .word 42, 43");
        assert!(mc.data.is_empty(), "no data image before a data request");
        match mc.handle(&Request::FetchData {
            addr: DATA_BASE,
            len: 8,
        }) {
            Reply::Data(d) => {
                assert_eq!(u32::from_le_bytes(d[0..4].try_into().unwrap()), 42);
                assert_eq!(u32::from_le_bytes(d[4..8].try_into().unwrap()), 43);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(
            mc.handle(&Request::WriteData {
                addr: DATA_BASE + 4,
                bytes: 99u32.to_le_bytes().to_vec(),
            }),
            Reply::Ack
        );
        match mc.handle(&Request::FetchData {
            addr: DATA_BASE + 4,
            len: 4,
        }) {
            Reply::Data(d) => assert_eq!(u32::from_le_bytes(d.try_into().unwrap()), 99),
            other => panic!("{other:?}"),
        }
        // Out of range.
        assert!(matches!(
            mc.handle(&Request::FetchData { addr: 0, len: 4 }),
            Reply::Err(_)
        ));
        assert!(matches!(
            mc.handle(&Request::FetchData {
                addr: STACK_TOP - 2,
                len: 8
            }),
            Reply::Err(_)
        ));
        let _ = TCACHE_BASE;
    }

    #[test]
    fn batch_pushes_successors_contiguously() {
        let mut mc = mc_for(
            r#"
_start: beqz t0, far
        addi t0, t0, 1
        halt
far:    addi t0, t0, 2
        halt
"#,
        );
        let chunks = match mc.handle(&Request::FetchBatch {
            orig_pc: TEXT_BASE,
            dest: 0x40_0000,
            max_chunks: 4,
            budget_bytes: 4096,
        }) {
            Reply::Batch(c) => c,
            other => panic!("{other:?}"),
        };
        assert_eq!(chunks.len(), 3, "demand + both successors");
        assert_eq!(chunks[0].orig_start, TEXT_BASE);
        // BFS over exits: fallthrough first, then the taken side.
        assert_eq!(chunks[1].orig_start, TEXT_BASE + 4);
        assert_eq!(chunks[2].orig_start, TEXT_BASE + 12);
        // Placement is contiguous in push order.
        let mut dest = 0x40_0000;
        for c in &chunks {
            assert_eq!(mc.mirror_get(c.orig_start), Some(dest));
            dest += c.words.len() as u32 * 4;
        }
        assert_eq!(mc.stats.batches_served, 1);
        assert_eq!(mc.stats.chunks_pushed, 2);
        assert_eq!(mc.stats.blocks_served, 3);
        // Demand exits into pushed chunks stay miss stubs (resolution is
        // backward-only): first entry costs one local trap, zero RPCs.
        assert_eq!(chunks[0].exits.len(), 2);
    }

    #[test]
    fn batch_respects_budget_and_residence() {
        let src = r#"
_start: beqz t0, far
        addi t0, t0, 1
        halt
far:    addi t0, t0, 2
        halt
"#;
        // Budget only covers the demanded chunk: nothing is pushed, and no
        // phantom residence entries remain.
        let mut mc = mc_for(src);
        let chunks = match mc.handle(&Request::FetchBatch {
            orig_pc: TEXT_BASE,
            dest: 0x40_0000,
            max_chunks: 4,
            budget_bytes: 4 * 4,
        }) {
            Reply::Batch(c) => c,
            other => panic!("{other:?}"),
        };
        assert_eq!(chunks.len(), 1);
        assert_eq!(mc.mirror_len(), 1, "only the demanded chunk is resident");

        // Already-resident successors are not pushed again.
        let mut mc = mc_for(src);
        let _ = mc.handle(&Request::FetchBlock {
            orig_pc: TEXT_BASE + 4,
            dest: 0x40_2000,
        });
        let chunks = match mc.handle(&Request::FetchBatch {
            orig_pc: TEXT_BASE,
            dest: 0x40_0000,
            max_chunks: 4,
            budget_bytes: 4096,
        }) {
            Reply::Batch(c) => c,
            other => panic!("{other:?}"),
        };
        assert_eq!(chunks.len(), 2, "resident fallthrough skipped");
        assert_eq!(chunks[1].orig_start, TEXT_BASE + 12);
    }

    #[test]
    fn shared_cache_is_byte_transparent_and_translates_once() {
        let src = r#"
_start: beqz t0, far
        addi t0, t0, 1
        halt
far:    addi t0, t0, 2
        beqz t0, far
        halt
"#;
        let cache = Arc::new(SharedXlate::default());
        let fetches = [
            (TEXT_BASE, 0x40_0000u32),
            (TEXT_BASE + 4, 0x40_0040),
            (TEXT_BASE + 12, 0x40_0080),
            // Refetch after residence grew: different dependency context
            // than a cold fetch would see — must still be byte-identical.
            (TEXT_BASE, 0x40_00C0),
        ];
        let mut solo = mc_for(src);
        let mut a = mc_for(src);
        a.attach_shared_cache(Arc::clone(&cache));
        let mut b = mc_for(src);
        b.attach_shared_cache(Arc::clone(&cache));
        for &(orig_pc, dest) in &fetches {
            let want = solo.handle(&Request::FetchBlock { orig_pc, dest });
            let got_a = a.handle(&Request::FetchBlock { orig_pc, dest });
            let got_b = b.handle(&Request::FetchBlock { orig_pc, dest });
            assert_eq!(got_a, want, "tenant A diverged at {orig_pc:#x}");
            assert_eq!(got_b, want, "tenant B diverged at {orig_pc:#x}");
        }
        // Tenant A translated everything; B (same fetch order, same
        // mirror evolution) hit on every block.
        assert_eq!(a.stats.shared_misses, fetches.len() as u64);
        assert_eq!(a.stats.shared_hits, 0);
        assert_eq!(b.stats.shared_hits, fetches.len() as u64);
        assert_eq!(b.stats.shared_misses, 0);
        let s = cache.stats();
        assert_eq!(s.unique_translations, fetches.len() as u64);
        assert_eq!(s.unique_chunks, fetches.len() as u64);
        assert_eq!(s.variant_translations, 0);
        assert_eq!(s.evictions, 0);
        assert!(s.balanced());
    }

    #[test]
    fn shared_cache_variants_track_divergent_mirrors() {
        let src = "_start: j next\nnext: halt";
        let cache = Arc::new(SharedXlate::default());
        // Client A fetches `next` first, so `_start`'s jump resolves.
        let mut a = mc_for(src);
        a.attach_shared_cache(Arc::clone(&cache));
        let ra = a.handle(&Request::FetchBlock {
            orig_pc: TEXT_BASE + 4,
            dest: 0x40_0200,
        });
        let ja = a.handle(&Request::FetchBlock {
            orig_pc: TEXT_BASE,
            dest: 0x40_0000,
        });
        // Client B fetches `_start` cold: the jump must stay a miss stub
        // even though A's resolved variant is cached under the same key.
        let mut b = mc_for(src);
        b.attach_shared_cache(Arc::clone(&cache));
        let jb = b.handle(&Request::FetchBlock {
            orig_pc: TEXT_BASE,
            dest: 0x40_0000,
        });
        let mut solo = mc_for(src);
        let want = solo.handle(&Request::FetchBlock {
            orig_pc: TEXT_BASE,
            dest: 0x40_0000,
        });
        assert_eq!(jb, want, "cold fetch must not replay the resolved variant");
        assert_ne!(ja, jb, "the two dependency contexts produce different code");
        let _ = ra;
        let s = cache.stats();
        assert_eq!(s.unique_chunks, 2, "_start and next");
        assert_eq!(s.variant_translations, 1, "_start cached twice");
        assert_eq!(s.dep_conflicts, 1);
        assert!(s.balanced());
    }

    #[test]
    fn frame_level_dispatch() {
        let mut mc = mc_for("_start: halt");
        let req = Request::FetchBlock {
            orig_pc: TEXT_BASE,
            dest: 0x40_0000,
        };
        let rep = Reply::decode(&mc.handle_frame(&req.encode())).unwrap();
        assert!(matches!(rep, Reply::Chunk(_)));
        // Garbage in, error out.
        let rep = Reply::decode(&mc.handle_frame(&[0xFF, 0xFF])).unwrap();
        assert!(matches!(rep, Reply::Err(_)));
    }
}
