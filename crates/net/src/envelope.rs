//! The session-layer wire envelope.
//!
//! Every frame on the MC↔CC link is wrapped in a fixed 12-byte envelope:
//!
//! ```text
//! +--------+--------+--------+----------------+
//! | seq u32| epoch  | crc32  | payload ...    |
//! +--------+--------+--------+----------------+
//! ```
//!
//! * `seq` — request sequence number; replies echo the request's value, so
//!   stale retransmissions and reordered frames are discarded by number.
//! * `epoch` — the server's session epoch. A restarted MC serves a new
//!   epoch, which the CC detects as a mismatch and answers with a full
//!   invalidate-and-refetch resync.
//! * `crc` — CRC-32 (IEEE 802.3) over `seq`, `epoch` and the payload. A
//!   flipped bit anywhere in the frame fails the check and the frame is
//!   dropped, turning corruption into loss, which the retry layer already
//!   handles; it can never decode into a wrong-but-plausible chunk.
//!
//! All fields are little-endian, like the rest of the protocol.

/// Size of the envelope header in bytes (`seq` + `epoch` + `crc`).
pub const ENVELOPE_BYTES: u32 = 12;

const CRC_POLY: u32 = 0xEDB8_8320; // reflected IEEE 802.3 polynomial

/// Slice-by-8 tables: `t[0]` is the classic bytewise table, and `t[k][i]`
/// is the CRC of byte `i` followed by `k` zero bytes, so eight table
/// lookups advance the CRC by eight bytes at once.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                CRC_POLY ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

fn crc_update(mut state: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let byte = |w: u32, shift: u32| ((w >> shift) & 0xFF) as usize;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = state ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        state = t[7][byte(lo, 0)]
            ^ t[6][byte(lo, 8)]
            ^ t[5][byte(lo, 16)]
            ^ t[4][byte(lo, 24)]
            ^ t[3][byte(hi, 0)]
            ^ t[2][byte(hi, 8)]
            ^ t[1][byte(hi, 16)]
            ^ t[0][byte(hi, 24)];
    }
    for &b in words.remainder() {
        state = t[0][byte(state ^ b as u32, 0)] ^ (state >> 8);
    }
    state
}

/// CRC-32 (IEEE 802.3) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc_update(!0, bytes)
}

fn envelope_crc(seq: u32, epoch: u32, payload: &[u8]) -> u32 {
    let mut c = !0u32;
    c = crc_update(c, &seq.to_le_bytes());
    c = crc_update(c, &epoch.to_le_bytes());
    c = crc_update(c, payload);
    !c
}

/// A decoded envelope, borrowing its payload from the wire frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Envelope<'a> {
    /// Sequence number (replies echo the request's).
    pub seq: u32,
    /// Sender's session epoch.
    pub epoch: u32,
    /// The protocol frame carried inside.
    pub payload: &'a [u8],
}

/// Why an envelope failed to open.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EnvelopeError {
    /// Shorter than the fixed header.
    Runt,
    /// Checksum mismatch (corruption or truncation).
    BadCrc,
}

impl std::fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnvelopeError::Runt => write!(f, "runt frame (shorter than envelope header)"),
            EnvelopeError::BadCrc => write!(f, "envelope checksum mismatch"),
        }
    }
}

impl std::error::Error for EnvelopeError {}

/// Wrap `payload` in an envelope.
pub fn seal(seq: u32, epoch: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ENVELOPE_BYTES as usize + payload.len());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&envelope_crc(seq, epoch, payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Open a wire frame, verifying length and checksum.
pub fn open(frame: &[u8]) -> Result<Envelope<'_>, EnvelopeError> {
    if frame.len() < ENVELOPE_BYTES as usize {
        return Err(EnvelopeError::Runt);
    }
    let word = |i: usize| u32::from_le_bytes([frame[i], frame[i + 1], frame[i + 2], frame[i + 3]]);
    let (seq, epoch, crc) = (word(0), word(4), word(8));
    let payload = &frame[ENVELOPE_BYTES as usize..];
    if envelope_crc(seq, epoch, payload) != crc {
        return Err(EnvelopeError::BadCrc);
    }
    Ok(Envelope {
        seq,
        epoch,
        payload,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bytewise CRC-32 that slice-by-8 replaced, kept as its oracle.
    fn crc_update_bytewise(mut state: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            state = CRC_TABLES[0][((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
        }
        state
    }

    /// 264 bytes of seeded noise: any 0..=256-byte slice at offsets 0..8.
    fn noise() -> Vec<u8> {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        (0..264)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn slice_by_8_matches_bytewise_at_every_length_and_alignment() {
        let buf = noise();
        for start in 0..8 {
            for len in 0..=256 {
                let bytes = &buf[start..start + len];
                for state in [!0, 0, 0x1234_5678] {
                    assert_eq!(
                        crc_update(state, bytes),
                        crc_update_bytewise(state, bytes),
                        "start {start}, len {len}, state {state:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn slice_by_8_composes_across_split_updates() {
        // `envelope_crc` feeds seq, epoch and payload as three slices; any
        // split must give the CRC of the concatenation.
        let buf = noise();
        let whole = crc_update_bytewise(!0, &buf[..100]);
        for a in 0..=100 {
            for b in a..=100 {
                let c = crc_update(
                    crc_update(crc_update(!0, &buf[..a]), &buf[a..b]),
                    &buf[b..100],
                );
                assert_eq!(c, whole, "split at {a}, {b}");
            }
        }
        for len in 0..64 {
            let payload = &buf[..len];
            let framed = [&[1, 2, 3, 4, 5, 6, 7, 8][..], payload].concat();
            assert_eq!(
                envelope_crc(0x0403_0201, 0x0807_0605, payload),
                !crc_update_bytewise(!0, &framed),
                "payload of {len} bytes"
            );
        }
    }

    #[test]
    fn seal_open_roundtrip() {
        let frame = seal(7, 3, b"hello");
        let env = open(&frame).unwrap();
        assert_eq!(env.seq, 7);
        assert_eq!(env.epoch, 3);
        assert_eq!(env.payload, b"hello");
    }

    #[test]
    fn empty_payload_roundtrips() {
        let frame = seal(u32::MAX, 0, &[]);
        let env = open(&frame).unwrap();
        assert_eq!(env.seq, u32::MAX);
        assert!(env.payload.is_empty());
    }

    #[test]
    fn runt_rejected() {
        for n in 0..ENVELOPE_BYTES as usize {
            assert_eq!(open(&vec![0u8; n]), Err(EnvelopeError::Runt));
        }
    }

    #[test]
    fn every_single_bit_flip_detected() {
        // CRC-32 detects all single-bit errors: flipping any one bit in
        // the whole frame (header or payload) must fail the open.
        let frame = seal(0x1234_5678, 42, b"some chunk payload bytes");
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    open(&bad).is_err(),
                    "flip of byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn truncation_detected() {
        let frame = seal(1, 1, b"payload");
        for n in ENVELOPE_BYTES as usize..frame.len() {
            assert!(open(&frame[..n]).is_err(), "truncation to {n} undetected");
        }
    }
}
