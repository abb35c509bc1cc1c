//! Seeded program inputs. The programs see only these bytes.

/// The vocabulary of `softcache_workloads`' compress95 input: the seeded
/// text keeps its shape (word lengths, repetition, line breaks) so every
/// seed exercises the compressor the same way while the bytes differ.
const WORDS: [&str; 15] = [
    "the",
    "quick",
    "sensor",
    "network",
    "cache",
    "rewriting",
    "embedded",
    "server",
    "memory",
    "hierarchy",
    "binary",
    "miss",
    "hit",
    "block",
    "translate",
];

/// SplitMix64: a small, well-mixed generator, fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Word-salad text of `scale * 256` bytes or a word more: words drawn
/// uniformly from the vocabulary, each followed by a newline one time in
/// eight and a space otherwise.
pub fn text(seed: u64, scale: u32) -> Vec<u8> {
    let mut rng = Rng::new(seed);
    let len = scale as usize * 256;
    let mut out = Vec::with_capacity(len + 16);
    while out.len() < len {
        let w = WORDS[rng.below(WORDS.len() as u64) as usize];
        out.extend_from_slice(w.as_bytes());
        out.push(if rng.below(8) == 0 { b'\n' } else { b' ' });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        assert_eq!(text(1, 4), text(1, 4));
        assert_ne!(text(1, 4), text(2, 4));
        assert!(text(3, 4).len() >= 1024);
        assert!(text(3, 4)
            .iter()
            .all(|b| b.is_ascii_lowercase() || *b == b' ' || *b == b'\n'));
    }
}
