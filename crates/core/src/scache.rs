//! The stack cache (scache) of §3.1.
//!
//! "Local memory is thus statically divided into three regions: tcache,
//! scache and dcache. The stack cache holds stack frames in a circular
//! buffer ... A presence check is made at procedure entrance and exit
//! time."
//!
//! The scache keeps a *window* of the architectural stack resident on the
//! client. While accesses stay inside the window (the overwhelmingly common
//! case — the paper's reason for treating the stack specially), they cost
//! nothing beyond the raw access. When the stack grows below the window,
//! the shallow end is spilled to the server; when execution returns above
//! it, frames are fetched back. Because the stack is the only thing in the
//! region, consistency is a pure window-slide — this is the moral
//! equivalent of the circular frame buffer with entry/exit presence checks.

use crate::cc::CacheError;
use crate::endpoint::McEndpoint;
use crate::protocol::{Reply, Request};
use softcache_isa::layout::STACK_TOP;
use softcache_net::{LinkModel, LinkStats};

/// Stack cache configuration.
#[derive(Clone, Copy, Debug)]
pub struct ScacheConfig {
    /// Resident window size in bytes.
    pub window_bytes: u32,
    /// Link model for spills/fills.
    pub link: LinkModel,
    /// Fixed cycles per window slide (the entry/exit presence-check path).
    pub slide_cycles: u64,
}

impl Default for ScacheConfig {
    fn default() -> ScacheConfig {
        ScacheConfig {
            window_bytes: 4 * 1024,
            link: LinkModel::default(),
            slide_cycles: 30,
        }
    }
}

/// Stack cache statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScacheStats {
    /// Accesses inside the window (free).
    pub window_hits: u64,
    /// Downward slides (stack growth spilled the shallow end).
    pub spills: u64,
    /// Upward slides (returning into spilled frames).
    pub fills: u64,
    /// Bytes spilled.
    pub bytes_spilled: u64,
    /// Bytes filled.
    pub bytes_filled: u64,
    /// Extra cycles charged.
    pub extra_cycles: u64,
    /// Link traffic.
    pub link: LinkStats,
}

/// The stack cache window manager.
pub struct Scache {
    cfg: ScacheConfig,
    /// Resident range `[lo, hi)`; `hi` is normally `STACK_TOP`.
    lo: u32,
    hi: u32,
    /// Statistics.
    pub stats: ScacheStats,
}

impl Scache {
    /// Fresh scache with the window at the top of the stack.
    pub fn new(cfg: ScacheConfig) -> Scache {
        assert!(cfg.window_bytes >= 64, "window too small for any frame");
        Scache {
            cfg,
            lo: STACK_TOP - cfg.window_bytes,
            hi: STACK_TOP,
            stats: ScacheStats::default(),
        }
    }

    /// The resident window.
    pub fn window(&self) -> (u32, u32) {
        (self.lo, self.hi)
    }

    /// Account a stack access at `addr`; slides the window (with spill or
    /// fill traffic) when the access falls outside. Returns extra cycles
    /// charged. The backing bytes live in client memory throughout; the
    /// spill/fill traffic models what a real scache would move.
    pub fn access(
        &mut self,
        ep: &mut McEndpoint,
        addr: u32,
        stack_bytes: impl Fn(u32, u32) -> Vec<u8>,
    ) -> Result<u64, CacheError> {
        if addr >= self.lo && addr < self.hi {
            self.stats.window_hits += 1;
            return Ok(0);
        }
        let mut extra = self.cfg.slide_cycles;
        if addr < self.lo {
            // Deeper: slide the window down. The shallow end
            // `[new_hi, hi)` leaves residency — spill it.
            let new_lo = addr & !63;
            let new_hi = (new_lo + self.cfg.window_bytes).min(STACK_TOP);
            let spill_lo = new_hi.max(self.lo);
            if self.hi > spill_lo {
                let bytes = stack_bytes(spill_lo, self.hi - spill_lo);
                let n = bytes.len() as u64;
                let out = ep.rpc(&Request::WriteData {
                    addr: spill_lo,
                    bytes,
                })?;
                extra += out.charge(&mut self.stats.link, &self.cfg.link);
                if !matches!(out.reply, Reply::Ack) {
                    return Err(CacheError::Proto);
                }
                self.stats.bytes_spilled += n;
            }
            self.lo = new_lo;
            self.hi = new_hi;
            self.stats.spills += 1;
        } else {
            // Shallower (returning): slide up, fetching the frames back.
            let new_hi = ((addr | 63) + 1).min(STACK_TOP);
            let new_lo = new_hi - self.cfg.window_bytes;
            let fetch_lo = self.hi.max(new_lo);
            if new_hi > fetch_lo {
                let len = new_hi - fetch_lo;
                let out = ep.rpc(&Request::FetchData {
                    addr: fetch_lo,
                    len,
                })?;
                extra += out.charge(&mut self.stats.link, &self.cfg.link);
                match out.reply {
                    Reply::Data(d) if d.len() == len as usize => {
                        self.stats.bytes_filled += len as u64;
                    }
                    Reply::Err(code) => return Err(CacheError::Mc(code)),
                    _ => return Err(CacheError::Proto),
                }
            }
            self.lo = new_lo;
            self.hi = new_hi;
            self.stats.fills += 1;
        }
        self.stats.extra_cycles += extra;
        Ok(extra)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mc::Mc;
    use softcache_asm::assemble;

    fn endpoint() -> McEndpoint {
        McEndpoint::direct(Mc::new(assemble("_start: halt").unwrap()))
    }

    fn no_bytes(_: u32, len: u32) -> Vec<u8> {
        vec![0; len as usize]
    }

    #[test]
    fn accesses_inside_window_are_free() {
        let mut sc = Scache::new(ScacheConfig::default());
        let mut ep = endpoint();
        for i in 0..100 {
            let extra = sc.access(&mut ep, STACK_TOP - 4 - i * 8, no_bytes).unwrap();
            assert_eq!(extra, 0);
        }
        assert_eq!(sc.stats.window_hits, 100);
        assert_eq!(sc.stats.spills + sc.stats.fills, 0);
    }

    #[test]
    fn deep_growth_spills_then_return_fills() {
        let cfg = ScacheConfig {
            window_bytes: 256,
            ..ScacheConfig::default()
        };
        let mut sc = Scache::new(cfg);
        let mut ep = endpoint();
        // Grow far below the window: the shallow end spills to the server.
        let deep = STACK_TOP - 2048;
        let extra = sc.access(&mut ep, deep, no_bytes).unwrap();
        assert!(extra > 0);
        assert_eq!(sc.stats.spills, 1);
        assert!(sc.stats.bytes_spilled > 0);
        let (lo, hi) = sc.window();
        assert!(lo <= deep && deep < hi);
        // Deeper accesses inside the new window are free again.
        assert_eq!(sc.access(&mut ep, deep + 16, no_bytes).unwrap(), 0);
        // Return to the top: frames must be fetched back.
        let extra = sc.access(&mut ep, STACK_TOP - 8, no_bytes).unwrap();
        assert!(extra > 0);
        assert_eq!(sc.stats.fills, 1);
        assert!(sc.stats.bytes_filled > 0);
        let (_, hi) = sc.window();
        assert_eq!(hi, STACK_TOP);
    }

    #[test]
    fn spill_and_fill_roundtrip_preserves_bytes() {
        // The spill path must hand the *actual* stack bytes to the server
        // so a later fill returns them.
        let cfg = ScacheConfig {
            window_bytes: 128,
            ..ScacheConfig::default()
        };
        let mut sc = Scache::new(cfg);
        let mut ep = endpoint();
        let marker = |addr: u32, len: u32| -> Vec<u8> {
            (0..len)
                .map(|i| (addr.wrapping_add(i) % 251) as u8)
                .collect()
        };
        sc.access(&mut ep, STACK_TOP - 4096, marker).unwrap();
        // Ask the MC for the spilled range directly and verify contents.
        let out = ep
            .rpc(&crate::protocol::Request::FetchData {
                addr: STACK_TOP - 64,
                len: 32,
            })
            .unwrap();
        match out.reply {
            crate::protocol::Reply::Data(d) => {
                let want = marker(STACK_TOP - 64, 32);
                assert_eq!(d, want);
            }
            other => panic!("{other:?}"),
        }
    }
}

#[cfg(test)]
mod window_edge_tests {
    use super::*;
    use crate::mc::Mc;
    use softcache_asm::assemble;

    fn ep() -> McEndpoint {
        McEndpoint::direct(Mc::new(assemble("_start: halt").unwrap()))
    }

    fn zeros(_: u32, len: u32) -> Vec<u8> {
        vec![0; len as usize]
    }

    #[test]
    fn window_never_exceeds_stack_top() {
        let mut sc = Scache::new(ScacheConfig {
            window_bytes: 128,
            ..ScacheConfig::default()
        });
        let mut ep = ep();
        // Dive deep, then return to the very top repeatedly.
        for depth in [4096u32, 8192, 1024, 64] {
            sc.access(&mut ep, STACK_TOP - depth, zeros).unwrap();
            let (lo, hi) = sc.window();
            assert!(hi <= STACK_TOP);
            assert!(lo < hi);
            assert_eq!(hi - lo, 128, "window keeps its size");
        }
        sc.access(&mut ep, STACK_TOP - 4, zeros).unwrap();
        assert_eq!(sc.window().1, STACK_TOP);
    }

    #[test]
    fn oscillation_counts_slides_both_ways() {
        let mut sc = Scache::new(ScacheConfig {
            window_bytes: 256,
            ..ScacheConfig::default()
        });
        let mut ep = ep();
        for _ in 0..5 {
            sc.access(&mut ep, STACK_TOP - 4000, zeros).unwrap();
            sc.access(&mut ep, STACK_TOP - 8, zeros).unwrap();
        }
        assert_eq!(sc.stats.spills, 5);
        assert_eq!(sc.stats.fills, 5);
        assert!(sc.stats.extra_cycles > 0);
        assert!(sc.stats.link.messages >= 20);
    }
}
