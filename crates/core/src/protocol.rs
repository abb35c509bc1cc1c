//! The MC↔CC protocol: chunk fetches, invalidation notifications and data
//! transfers, encoded over `softcache-net` frames.
//!
//! The memory controller does the heavy lifting (chunking + rewriting); the
//! cache controller ships it the *placement address* so the MC can resolve
//! PC-relative fields for the final location — "rewriting shifts the cost of
//! caching from the (constrained) embedded system to the (relatively
//! unconstrained) server" (§1).

use softcache_net::{FrameReader, FrameWriter};
use std::borrow::Borrow;

/// How a patch site is fixed up when its target becomes resident (and how
/// it is re-pointed at a miss stub when its target is invalidated).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PatchKind {
    /// The site is a direct branch/call instruction: retarget its offset.
    Retarget,
    /// The site is a standalone slot (fallthrough or unconditional jump):
    /// replace the whole word with `j target` / `miss idx`.
    ReplaceWord,
}

impl PatchKind {
    fn to_u8(self) -> u8 {
        match self {
            PatchKind::Retarget => 0,
            PatchKind::ReplaceWord => 1,
        }
    }

    fn from_u8(v: u8) -> Option<PatchKind> {
        Some(match v {
            0 => PatchKind::Retarget,
            1 => PatchKind::ReplaceWord,
            _ => return None,
        })
    }
}

/// An unresolved exit of a rewritten chunk. The CC plants the miss stub
/// naming the `stub_slot` word there, and keeps the exit to service its
/// trap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExitDesc {
    /// Word index (within the chunk) where the miss stub lives.
    pub stub_slot: u32,
    /// Word index of the instruction to patch once the target is resident.
    pub patch_slot: u32,
    /// How to patch.
    pub kind: PatchKind,
    /// Original-program target address.
    pub orig_target: u32,
}

/// An exit the MC resolved immediately because the target was already
/// resident; the CC records the incoming pointer for invalidation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResolvedRef {
    /// Word index of the pointing instruction.
    pub slot: u32,
    /// Original-program target address.
    pub orig_target: u32,
    /// How the site would be re-pointed at invalidation time.
    pub kind: PatchKind,
}

/// A rewritten chunk ready to install.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChunkPayload {
    /// Original start address of the chunk.
    pub orig_start: u32,
    /// Number of words copied from the original program (the rest are
    /// appended stubs/slots).
    pub body_words: u32,
    /// The rewritten instruction words.
    pub words: Vec<u32>,
    /// Unresolved exits.
    pub exits: Vec<ExitDesc>,
    /// Immediately-resolved references into already-resident chunks.
    pub resolved: Vec<ResolvedRef>,
    /// Original resume address for each appended slot (indexes
    /// `body_words..words.len()`), used by the return-address walker.
    pub extra_orig: Vec<u32>,
}

/// CC → MC requests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Fetch the basic block starting at `orig_pc`, rewritten for placement
    /// at `dest`.
    FetchBlock {
        /// Original-program address.
        orig_pc: u32,
        /// Placement address in the tcache.
        dest: u32,
    },
    /// Fetch the chunk at `orig_pc` plus speculatively-pushed successors
    /// (static CFG walk: fall-through and direct-branch targets), all
    /// rewritten for consecutive placement starting at `dest` and shipped
    /// in one [`Reply::Batch`] — one header per batch instead of one per
    /// chunk.
    FetchBatch {
        /// Original-program address of the demanded chunk.
        orig_pc: u32,
        /// Placement address of the demanded chunk; pushed chunks follow
        /// contiguously (the CC's bump allocator installs them in order).
        dest: u32,
        /// Maximum chunks in the batch, including the demanded one (≥ 1).
        max_chunks: u32,
        /// Byte budget for the whole batch — the CC's free tcache space.
        /// Pushed chunks never exceed it (the demanded chunk may; the CC
        /// answers that with its usual flush-and-retry).
        budget_bytes: u32,
    },
    /// Fetch the whole procedure containing `orig_pc` (ARM-prototype
    /// granularity), rewritten for placement at `dest`.
    FetchProc {
        /// Original-program address.
        orig_pc: u32,
        /// Placement address in the tcache.
        dest: u32,
    },
    /// The CC flushed its entire tcache.
    InvalidateAll,
    /// The CC invalidated one chunk.
    Invalidate {
        /// Original-program start address of the invalidated chunk.
        orig_pc: u32,
    },
    /// Fetch `len` bytes of data at `addr` (software data cache fill).
    FetchData {
        /// Data address.
        addr: u32,
        /// Length in bytes.
        len: u32,
    },
    /// Write back dirty data (software data cache eviction).
    WriteData {
        /// Data address.
        addr: u32,
        /// The bytes.
        bytes: Vec<u8>,
    },
    /// Session handshake: ask the MC for its current epoch. Sent once at
    /// connection time; a later epoch change in any reply envelope tells
    /// the CC the MC restarted.
    Hello,
}

/// MC → CC replies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// A rewritten chunk.
    Chunk(ChunkPayload),
    /// Plain acknowledgement.
    Ack,
    /// Data bytes.
    Data(Vec<u8>),
    /// The request failed (bad address, chunk not found, ...).
    Err(u32),
    /// Handshake answer: the MC's session epoch.
    Welcome {
        /// The serving MC's epoch (changes across restarts).
        epoch: u32,
    },
    /// A batched miss reply: the demanded chunk first, then zero or more
    /// speculatively-pushed successors, placed contiguously. One frame —
    /// one header pair on the wire — for the whole set.
    Batch(Vec<ChunkPayload>),
}

/// Protocol decode error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProtoError;

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed protocol frame")
    }
}

impl std::error::Error for ProtoError {}

/// Encoded size of a length-prefixed word list.
fn words_len(words: &[u32]) -> usize {
    4 + 4 * words.len()
}

impl Request {
    /// Exact size of [`Request::encode`]'s frame, computed without
    /// building it: the fused MC accounts request bytes from this.
    pub fn encoded_len(&self) -> usize {
        match self {
            Request::InvalidateAll | Request::Hello => 1,
            Request::Invalidate { .. } => 1 + 4,
            Request::FetchBlock { .. } | Request::FetchProc { .. } | Request::FetchData { .. } => {
                1 + 4 + 4
            }
            Request::WriteData { bytes, .. } => 1 + 4 + 4 + bytes.len(),
            Request::FetchBatch { .. } => 1 + 4 * 4,
        }
    }

    /// Encode to a wire frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = FrameWriter::with_capacity(self.encoded_len());
        match self {
            Request::FetchBlock { orig_pc, dest } => {
                w.put_u8(1).put_u32(*orig_pc).put_u32(*dest);
            }
            Request::FetchProc { orig_pc, dest } => {
                w.put_u8(2).put_u32(*orig_pc).put_u32(*dest);
            }
            Request::InvalidateAll => {
                w.put_u8(3);
            }
            Request::Invalidate { orig_pc } => {
                w.put_u8(4).put_u32(*orig_pc);
            }
            Request::FetchData { addr, len } => {
                w.put_u8(5).put_u32(*addr).put_u32(*len);
            }
            Request::WriteData { addr, bytes } => {
                w.put_u8(6).put_u32(*addr).put_bytes(bytes);
            }
            Request::Hello => {
                w.put_u8(7);
            }
            Request::FetchBatch {
                orig_pc,
                dest,
                max_chunks,
                budget_bytes,
            } => {
                w.put_u8(8)
                    .put_u32(*orig_pc)
                    .put_u32(*dest)
                    .put_u32(*max_chunks)
                    .put_u32(*budget_bytes);
            }
        }
        w.finish()
    }

    /// Decode from a wire frame.
    pub fn decode(frame: &[u8]) -> Result<Request, ProtoError> {
        let mut r = FrameReader::new(frame);
        let kind = r.u8().map_err(|_| ProtoError)?;
        let req = match kind {
            1 => Request::FetchBlock {
                orig_pc: r.u32().map_err(|_| ProtoError)?,
                dest: r.u32().map_err(|_| ProtoError)?,
            },
            2 => Request::FetchProc {
                orig_pc: r.u32().map_err(|_| ProtoError)?,
                dest: r.u32().map_err(|_| ProtoError)?,
            },
            3 => Request::InvalidateAll,
            4 => Request::Invalidate {
                orig_pc: r.u32().map_err(|_| ProtoError)?,
            },
            5 => Request::FetchData {
                addr: r.u32().map_err(|_| ProtoError)?,
                len: r.u32().map_err(|_| ProtoError)?,
            },
            6 => Request::WriteData {
                addr: r.u32().map_err(|_| ProtoError)?,
                bytes: r.bytes().map_err(|_| ProtoError)?,
            },
            7 => Request::Hello,
            8 => Request::FetchBatch {
                orig_pc: r.u32().map_err(|_| ProtoError)?,
                dest: r.u32().map_err(|_| ProtoError)?,
                max_chunks: r.u32().map_err(|_| ProtoError)?,
                budget_bytes: r.u32().map_err(|_| ProtoError)?,
            },
            _ => return Err(ProtoError),
        };
        if !r.at_end() {
            return Err(ProtoError);
        }
        Ok(req)
    }
}

/// Bytes [`encode_chunk`] appends for `c`: two header words, the word
/// list, 13 bytes per exit, 9 per resolved reference (each list
/// count-prefixed) and the resume-address list.
fn chunk_len(c: &ChunkPayload) -> usize {
    4 + 4
        + words_len(&c.words)
        + 4
        + 13 * c.exits.len()
        + 4
        + 9 * c.resolved.len()
        + words_len(&c.extra_orig)
}

/// Append one chunk's encoding to an in-progress frame (shared by the
/// single-chunk and batched reply forms).
fn encode_chunk(w: &mut FrameWriter, c: &ChunkPayload) {
    w.put_u32(c.orig_start)
        .put_u32(c.body_words)
        .put_words(&c.words);
    w.put_u32(c.exits.len() as u32);
    for e in &c.exits {
        w.put_u32(e.stub_slot)
            .put_u32(e.patch_slot)
            .put_u8(e.kind.to_u8())
            .put_u32(e.orig_target);
    }
    w.put_u32(c.resolved.len() as u32);
    for rr in &c.resolved {
        w.put_u32(rr.slot)
            .put_u32(rr.orig_target)
            .put_u8(rr.kind.to_u8());
    }
    w.put_words(&c.extra_orig);
}

/// Append a [`Reply::Chunk`] frame for `c`: its tag, then the chunk.
fn put_chunk_reply(w: &mut FrameWriter, c: &ChunkPayload) {
    w.put_u8(1);
    encode_chunk(w, c);
}

/// Size of a [`Reply::Batch`] frame carrying `chunks`.
fn batch_reply_len<C: Borrow<ChunkPayload>>(chunks: &[C]) -> usize {
    1 + 4 + chunks.iter().map(|c| chunk_len(c.borrow())).sum::<usize>()
}

/// Append a [`Reply::Batch`] frame for `chunks`: its tag, the count,
/// then each chunk.
fn put_batch_reply<C: Borrow<ChunkPayload>>(w: &mut FrameWriter, chunks: &[C]) {
    w.put_u8(6).put_u32(chunks.len() as u32);
    for c in chunks {
        encode_chunk(w, c.borrow());
    }
}

/// The frame `Reply::Chunk(c)` encodes to, built from a borrowed chunk:
/// the MC encodes the chunks it serves by reference, so a payload
/// shared with the translation cache is never copied.
pub(crate) fn encode_chunk_reply(c: &ChunkPayload) -> Vec<u8> {
    let mut w = FrameWriter::with_capacity(1 + chunk_len(c));
    put_chunk_reply(&mut w, c);
    w.finish()
}

/// The frame `Reply::Batch` encodes to for `chunks`, built from
/// borrowed chunks (see [`encode_chunk_reply`]).
pub(crate) fn encode_batch_reply<C: Borrow<ChunkPayload>>(chunks: &[C]) -> Vec<u8> {
    let mut w = FrameWriter::with_capacity(batch_reply_len(chunks));
    put_batch_reply(&mut w, chunks);
    w.finish()
}

/// Decode one chunk from an in-progress frame (shared by the single-chunk
/// and batched reply forms).
fn decode_chunk(r: &mut FrameReader<'_>) -> Result<ChunkPayload, ProtoError> {
    let orig_start = r.u32().map_err(|_| ProtoError)?;
    let body_words = r.u32().map_err(|_| ProtoError)?;
    let words = r.words().map_err(|_| ProtoError)?;
    let n = r.u32().map_err(|_| ProtoError)? as usize;
    let mut exits = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        exits.push(ExitDesc {
            stub_slot: r.u32().map_err(|_| ProtoError)?,
            patch_slot: r.u32().map_err(|_| ProtoError)?,
            kind: PatchKind::from_u8(r.u8().map_err(|_| ProtoError)?).ok_or(ProtoError)?,
            orig_target: r.u32().map_err(|_| ProtoError)?,
        });
    }
    let n = r.u32().map_err(|_| ProtoError)? as usize;
    let mut resolved = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        resolved.push(ResolvedRef {
            slot: r.u32().map_err(|_| ProtoError)?,
            orig_target: r.u32().map_err(|_| ProtoError)?,
            kind: PatchKind::from_u8(r.u8().map_err(|_| ProtoError)?).ok_or(ProtoError)?,
        });
    }
    let extra_orig = r.words().map_err(|_| ProtoError)?;
    Ok(ChunkPayload {
        orig_start,
        body_words,
        words,
        exits,
        resolved,
        extra_orig,
    })
}

impl Reply {
    /// Exact size of [`Reply::encode`]'s frame, computed without building
    /// it: the fused MC accounts reply bytes from this.
    pub fn encoded_len(&self) -> usize {
        match self {
            Reply::Chunk(c) => 1 + chunk_len(c),
            Reply::Batch(chunks) => batch_reply_len(chunks),
            Reply::Ack => 1,
            Reply::Data(bytes) => 1 + 4 + bytes.len(),
            Reply::Err(_) | Reply::Welcome { .. } => 1 + 4,
        }
    }

    /// Encode to a wire frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = FrameWriter::with_capacity(self.encoded_len());
        match self {
            Reply::Chunk(c) => put_chunk_reply(&mut w, c),
            Reply::Batch(chunks) => put_batch_reply(&mut w, chunks),
            Reply::Ack => {
                w.put_u8(2);
            }
            Reply::Data(bytes) => {
                w.put_u8(3).put_bytes(bytes);
            }
            Reply::Err(code) => {
                w.put_u8(4).put_u32(*code);
            }
            Reply::Welcome { epoch } => {
                w.put_u8(5).put_u32(*epoch);
            }
        }
        w.finish()
    }

    /// Decode from a wire frame.
    pub fn decode(frame: &[u8]) -> Result<Reply, ProtoError> {
        let mut r = FrameReader::new(frame);
        let kind = r.u8().map_err(|_| ProtoError)?;
        let rep = match kind {
            1 => Reply::Chunk(decode_chunk(&mut r)?),
            6 => {
                let n = r.u32().map_err(|_| ProtoError)? as usize;
                if n == 0 {
                    return Err(ProtoError); // a batch always carries the demanded chunk
                }
                let mut chunks = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    chunks.push(decode_chunk(&mut r)?);
                }
                Reply::Batch(chunks)
            }
            2 => Reply::Ack,
            3 => Reply::Data(r.bytes().map_err(|_| ProtoError)?),
            4 => Reply::Err(r.u32().map_err(|_| ProtoError)?),
            5 => Reply::Welcome {
                epoch: r.u32().map_err(|_| ProtoError)?,
            },
            _ => return Err(ProtoError),
        };
        if !r.at_end() {
            return Err(ProtoError);
        }
        Ok(rep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let reqs = [
            Request::FetchBlock {
                orig_pc: 0x1000,
                dest: 0x40_0000,
            },
            Request::FetchProc {
                orig_pc: 0x1234,
                dest: 0x40_0010,
            },
            Request::InvalidateAll,
            Request::Invalidate { orig_pc: 0x2000 },
            Request::FetchData {
                addr: 0x10_0000,
                len: 32,
            },
            Request::WriteData {
                addr: 0x10_0040,
                bytes: vec![1, 2, 3],
            },
            Request::Hello,
            Request::FetchBatch {
                orig_pc: 0x1080,
                dest: 0x40_0040,
                max_chunks: 3,
                budget_bytes: 4096,
            },
        ];
        for r in reqs {
            let frame = r.encode();
            assert_eq!(r.encoded_len(), frame.len(), "{r:?}");
            assert_eq!(Request::decode(&frame).unwrap(), r);
        }
    }

    #[test]
    fn reply_roundtrip() {
        let reps = [
            Reply::Ack,
            Reply::Err(7),
            Reply::Welcome { epoch: 3 },
            Reply::Data(vec![9, 8, 7]),
            Reply::Chunk(ChunkPayload {
                orig_start: 0x1000,
                body_words: 3,
                words: vec![1, 2, 3, 4, 5],
                exits: vec![ExitDesc {
                    stub_slot: 4,
                    patch_slot: 2,
                    kind: PatchKind::Retarget,
                    orig_target: 0x1040,
                }],
                resolved: vec![ResolvedRef {
                    slot: 3,
                    orig_target: 0x1020,
                    kind: PatchKind::ReplaceWord,
                }],
                extra_orig: vec![0x100c, 0x1040],
            }),
        ];
        for r in reps {
            let frame = r.encode();
            assert_eq!(r.encoded_len(), frame.len(), "{r:?}");
            assert_eq!(Reply::decode(&frame).unwrap(), r);
        }
    }

    #[test]
    fn batch_roundtrip() {
        let chunk = |orig: u32| ChunkPayload {
            orig_start: orig,
            body_words: 2,
            words: vec![orig, orig + 4, 0xdead],
            exits: vec![ExitDesc {
                stub_slot: 2,
                patch_slot: 1,
                kind: PatchKind::ReplaceWord,
                orig_target: orig + 0x40,
            }],
            resolved: vec![],
            extra_orig: vec![orig + 8],
        };
        let reps = [
            Reply::Batch(vec![chunk(0x1000)]),
            Reply::Batch(vec![chunk(0x1000), chunk(0x1040), chunk(0x1080)]),
        ];
        for r in reps {
            let frame = r.encode();
            assert_eq!(r.encoded_len(), frame.len(), "{r:?}");
            assert_eq!(Reply::decode(&frame).unwrap(), r);
        }
    }

    #[test]
    fn garbage_rejected() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[99]).is_err());
        assert!(Reply::decode(&[1, 2]).is_err());
        // Trailing junk rejected.
        let mut f = Request::InvalidateAll.encode();
        f.push(0);
        assert!(Request::decode(&f).is_err());
        // An empty batch is malformed: the demanded chunk is mandatory.
        let mut w = FrameWriter::new();
        w.put_u8(6).put_u32(0);
        assert!(Reply::decode(&w.finish()).is_err());
        // Truncated batch body rejected.
        let mut w = FrameWriter::new();
        w.put_u8(6).put_u32(2).put_u32(0x1000);
        assert!(Reply::decode(&w.finish()).is_err());
        // Trailing junk after a complete batch rejected.
        let mut f = Reply::Batch(vec![ChunkPayload {
            orig_start: 0x1000,
            body_words: 1,
            words: vec![7],
            exits: vec![],
            resolved: vec![],
            extra_orig: vec![],
        }])
        .encode();
        f.push(0);
        assert!(Reply::decode(&f).is_err());
    }
}
