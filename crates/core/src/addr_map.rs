//! Hash maps keyed by program addresses, with a multiplicative hasher.
//!
//! The per-client address maps — the MC's residence mirror and
//! block-scan memo, the CC's tcache map, eviction history, heat,
//! watchdog and prefetch sets — are keyed by `u32` program addresses that
//! the client holds or that the MC has validated against the image. std's
//! default SipHash defends against keys an adversary chooses; these keys
//! come out of the program text, so [`AddrHasher`] spends one
//! multiplication instead. A map whose key a remote client picks freely
//! keeps `RandomState`: the shared translation cache's key includes the
//! client-chosen placement address (`crate::xlate`).
//!
//! The spread is uneven on long arithmetic runs of keys. 256 consecutive
//! words land in 34 % of a 256-bucket table, and 256 keys 12 bytes apart
//! in 23 % (a random hash fills about 63 %). That does not reach these
//! maps, because their keys are chunk entry addresses, few and irregular.
//! At the end of an ample run (256 KiB tcache, scale 1, every chunk
//! resident) the CC's tcache map holds 28–107 keys per workload
//! (compress95: 40), so std sizes it at 32–128 buckets, 2–8 probe groups
//! of 16 slots. A model of std's group probing on those exact key sets
//! gives at most 1.08 groups probed per insert (mpeg2enc), against
//! 1.00–1.03 for a random hash. Change the hasher only with an end-to-end
//! measurement that asks for it.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// 2^64 / φ, which is odd: multiplying by it is a bijection on `u64`,
/// and consecutive multiples spread evenly over the high bits.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Multiplicative hasher for `u32` keys.
///
/// `write_u32` rotates the key right by two, so word-aligned addresses
/// become consecutive integers, folds it into the state (zero for a
/// single key) and multiplies by [`GOLDEN`].
/// `finish` rotates the product left by 26: std's map takes the bucket
/// from the low bits of the hash and a 7-bit tag from the top ones, and
/// the product's best-mixed bits are its high ones. Every step is a
/// bijection, so distinct `u32` keys hash to distinct values.
#[derive(Clone, Copy, Default)]
pub(crate) struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, key: u32) {
        self.0 = (self.0.rotate_left(5) ^ u64::from(key.rotate_right(2))).wrapping_mul(GOLDEN);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Map from program address to `V`.
pub(crate) type AddrMap<V> = HashMap<u32, V, BuildHasherDefault<AddrHasher>>;

/// Set of program addresses.
pub(crate) type AddrSet = HashSet<u32, BuildHasherDefault<AddrHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use softcache_isa::layout::{TCACHE_BASE, TEXT_BASE};

    fn hash(key: u32) -> u64 {
        let mut h = AddrHasher::default();
        h.write_u32(key);
        h.finish()
    }

    #[test]
    fn distinct_keys_hash_to_distinct_values() {
        let mut x = 0x2545_F491u32;
        let random = (0..1 << 16).map(|_| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x
        });
        let keys: AddrSet = (0..1u32 << 16)
            .chain((0..1 << 16).map(|i| TEXT_BASE + 4 * i))
            .chain(u32::MAX - 0xFFFF..=u32::MAX)
            .chain((0..1 << 16).map(|i| i << 16))
            .chain(random)
            .collect();
        let hashes: HashSet<u64> = keys.iter().map(|&k| hash(k)).collect();
        assert_eq!(hashes.len(), keys.len());
    }

    #[test]
    fn consecutive_words_fill_the_low_bit_buckets() {
        const BUCKETS: u32 = 4096;
        for base in [0, TEXT_BASE, TCACHE_BASE, 0x0012_3458, 0x7FFF_0000] {
            let mut seen = vec![false; BUCKETS as usize];
            for i in 0..BUCKETS {
                seen[(hash(base + 4 * i) % u64::from(BUCKETS)) as usize] = true;
            }
            let filled = seen.iter().filter(|&&s| s).count();
            assert!(
                filled * 10 >= BUCKETS as usize * 9,
                "base {base:#x}: {filled} of {BUCKETS} buckets"
            );
        }
    }
}
