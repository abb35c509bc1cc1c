//! Host-speed calibration.
//!
//! The benchmark host shares its cores, caches and branch predictors with
//! other tenants, and their load moves the simulator's speed by up to
//! ~40 % over tens of seconds — far more than the changes the benchmark
//! must resolve. So every timed sample is followed by a fixed calibration
//! kernel run for an eighth of the sample's time ([`PROBE_SHARE`]), and
//! each end-to-end host-time metric is scaled by `kernel speed /
//! REFERENCE_MOPS`: it reads as it would on a host where the kernel runs at
//! the reference speed. The raw values go into the run record next to the
//! scaled ones.
//!
//! The load changes faster than a sample lasts: single 5 ms probes after
//! each sample correlated with the sample's speed only weakly (r ≈ 0.5),
//! while averages over ten samples correlated strongly (r ≈ 0.9). A probe
//! about an eighth as long as its sample sees more of the same load: on
//! eight runs of the cliff workload under heavy neighbour load it cut the
//! spread (IQR ÷ median) of the scaled throughput from 12 % to 7 %.
//!
//! The kernel is the benchmark's own code, shaped like the simulator's
//! threaded tier so that the same contention slows both alike: a fixed
//! 512-op program, each op dispatched through a handler pointer (a
//! predictable indirect call) over a 256 KiB memory. On a 2-vCPU Xeon
//! guest under neighbour load, scaling by it cut the spread of 20 s medians
//! of softcache compress95 speed from 5.1 % to 1.0 %; kernels bound by
//! ALU, cache or DRAM latency tracked it worse.
//!
//! Such a kernel's speed also depends on where the linker puts its code:
//! one copy ran 20 % slower or faster when unrelated code was added to the
//! binary, and every change to the repository moves that layout. So the
//! kernel exists in [`COPIES`] separately compiled copies (own handlers,
//! own dispatch loop) and its speed is the upper quartile over the copies:
//! some copies land on slow alignments, but not most of them, so the
//! upper quartile moved by under 3 % across layouts.
//!
//! The serve workload spends most of each RPC waking the other thread, and
//! on a virtual machine a wake-up costs what the host takes to run an idle
//! vCPU again — load the CPU kernel does not see. The server's service
//! time, short bursts of work right after each wake-up, does not follow
//! the CPU kernel either. So serve bins are scaled by a second kernel
//! instead, [`handoff_krtps_after`]: two threads passing a turn back and
//! forth, each waking the other. Over ten serve runs whose CPU kernel speed
//! spread by 20 %, scaling by the CPU kernel left the service capacity
//! spreading by 14 % and the reply latency by 17 % (raw: 7 % and 5 %),
//! scaling by the hand-off kernel by 3 % and 2 %.

use crate::input::Rng;
use crate::stats::{median, quantile};
use std::hint::black_box;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Kernel speed, in million ops per second, that scaled metrics are
/// expressed at: a fixed round figure (the kernel runs at 320–570 Mops/s
/// on a 2-vCPU Xeon guest, depending on neighbour load).
pub const REFERENCE_MOPS: f64 = 550.0;

/// Independently placed copies of the kernel.
pub const COPIES: usize = 8;

/// Calibration time after a sample, as a share of the sample's time.
pub const PROBE_SHARE: f64 = 0.125;

/// Run `probe` (which returns a speed) for [`PROBE_SHARE`] of `secs`, at
/// least once; the median speed.
fn probe_after(secs: f64, mut probe: impl FnMut() -> f64) -> f64 {
    let start = Instant::now();
    let mut speeds = vec![probe()];
    while start.elapsed().as_secs_f64() < secs * PROBE_SHARE {
        speeds.push(probe());
    }
    median(&speeds)
}

/// Program length; ops per copy and measurement (~0.6 ms per copy).
const PROG: usize = 512;
const STEPS: usize = 600 * PROG;

struct State {
    r: [u32; 16],
    mem: Vec<u32>,
}

type Handler = fn(&mut State, usize, usize, u32);

// Each handler is generic over the copy number `C`, which it folds into
// its result: every copy gets distinct machine code that the compiler
// cannot merge, and so its own place in the binary.

fn add<const C: u32>(s: &mut State, a: usize, b: usize, imm: u32) {
    s.r[a] = s.r[a].wrapping_add(s.r[b]).wrapping_add(imm ^ C);
}

fn xor<const C: u32>(s: &mut State, a: usize, b: usize, imm: u32) {
    s.r[a] ^= s.r[b].rotate_left(imm & 31) ^ C;
}

fn load<const C: u32>(s: &mut State, a: usize, b: usize, imm: u32) {
    let i = s.r[b].wrapping_add(imm) as usize & (s.mem.len() - 1);
    s.r[a] = s.mem[i] ^ C;
}

fn store<const C: u32>(s: &mut State, a: usize, b: usize, imm: u32) {
    let i = s.r[b].wrapping_add(imm) as usize & (s.mem.len() - 1);
    s.mem[i] = s.r[a] ^ C;
}

fn mul<const C: u32>(s: &mut State, a: usize, b: usize, _imm: u32) {
    s.r[a] = s.r[a].wrapping_mul(s.r[b] | 1) ^ C;
}

fn shift<const C: u32>(s: &mut State, a: usize, b: usize, imm: u32) {
    s.r[a] = (s.r[b] >> (imm & 15)) ^ C;
}

/// Run copy `C` of the kernel over `prog`; its speed in Mops/s.
#[inline(never)]
fn run_copy<const C: u32>(s: &mut State, prog: &[(u8, u8, u8, u32)]) -> f64 {
    let handlers: [Handler; 6] = [
        add::<C>, xor::<C>, load::<C>, store::<C>, mul::<C>, shift::<C>,
    ];
    let t = Instant::now();
    for _ in 0..STEPS / prog.len() {
        for &(op, a, b, imm) in prog {
            handlers[op as usize](s, a as usize, b as usize, imm);
        }
    }
    black_box(&mut s.r);
    STEPS as f64 / t.elapsed().as_secs_f64() / 1e6
}

/// The calibration kernel: its program and its memory.
pub struct Calibrator {
    prog: Vec<(u8, u8, u8, u32)>,
    state: State,
}

impl Default for Calibrator {
    fn default() -> Calibrator {
        let mut rng = Rng::new(0xca11_b8a7e);
        let prog = (0..PROG)
            .map(|_| {
                let x = rng.next_u64();
                (
                    (x % 6) as u8,
                    ((x >> 8) & 15) as u8,
                    ((x >> 16) & 15) as u8,
                    (x >> 32) as u32,
                )
            })
            .collect();
        let mem = (0..1 << 16).map(|_| rng.next_u64() as u32).collect();
        Calibrator {
            prog,
            state: State { r: [1; 16], mem },
        }
    }
}

impl Calibrator {
    /// Calibrate after a sample that took `secs`: the median speed in
    /// Mops/s over [`PROBE_SHARE`] of that.
    pub fn measure_after(&mut self, secs: f64) -> f64 {
        probe_after(secs, || self.measure())
    }

    /// Run every copy once; the upper quartile of their speeds in Mops/s.
    pub fn measure(&mut self) -> f64 {
        let (s, p) = (&mut self.state, &self.prog);
        let speeds: [f64; COPIES] = [
            run_copy::<0>(s, p),
            run_copy::<1>(s, p),
            run_copy::<2>(s, p),
            run_copy::<3>(s, p),
            run_copy::<4>(s, p),
            run_copy::<5>(s, p),
            run_copy::<6>(s, p),
            run_copy::<7>(s, p),
        ];
        quantile(&speeds, 0.75)
    }

    /// Seconds `secs` of host time would have taken at the reference
    /// speed, given the kernel ran at `mops` around it.
    pub fn scale_time(secs: f64, mops: f64) -> f64 {
        secs * mops / REFERENCE_MOPS
    }
}

/// Hand-off speed, in thousand round trips per second, that scaled serve
/// metrics are expressed at: a fixed round figure (the kernel runs at
/// 60–110 k round trips/s on a 2-vCPU Xeon guest, depending on neighbour
/// load).
pub const REFERENCE_KRTPS: f64 = 100.0;

/// Round trips per hand-off measurement (~10 ms).
const ROUND_TRIPS: u32 = 1000;

/// Calibrate after serving for `secs`: the median hand-off speed over
/// [`PROBE_SHARE`] of that.
pub fn handoff_krtps_after(secs: f64) -> f64 {
    probe_after(secs, handoff_krtps)
}

/// Thread hand-off speed, in thousand round trips per second: this thread
/// and a helper pass a turn back and forth through a mutex and a condvar,
/// each waking the other. The helper lives only for the measurement.
fn handoff_krtps() -> f64 {
    struct Turn {
        n: u32,
        done: bool,
    }
    let shared = (Mutex::new(Turn { n: 0, done: false }), Condvar::new());
    let (lock, cv) = &shared;
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut t = lock.lock().expect("hand-off lock");
            loop {
                while t.n % 2 == 0 && !t.done {
                    t = cv.wait(t).expect("hand-off lock");
                }
                if t.done {
                    return;
                }
                t.n += 1;
                cv.notify_one();
            }
        });
        let round_trip = || {
            let mut t = lock.lock().expect("hand-off lock");
            t.n += 1;
            cv.notify_one();
            while t.n % 2 == 1 {
                t = cv.wait(t).expect("hand-off lock");
            }
        };
        round_trip(); // the helper is running
        let start = Instant::now();
        for _ in 0..ROUND_TRIPS {
            round_trip();
        }
        let secs = start.elapsed().as_secs_f64();
        lock.lock().expect("hand-off lock").done = true;
        cv.notify_one();
        f64::from(ROUND_TRIPS) / secs / 1e3
    })
}

/// Seconds `secs` of serving would have taken at the reference hand-off
/// speed, given hand-offs ran at `krtps` around it.
pub fn scale_handoff_time(secs: f64, krtps: f64) -> f64 {
    secs * krtps / REFERENCE_KRTPS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_a_positive_speed_and_scales_time() {
        let mut c = Calibrator::default();
        assert!(c.measure() > 0.0);
        assert!(c.measure_after(0.1) > 0.0);
        assert_eq!(Calibrator::scale_time(2.0, REFERENCE_MOPS / 2.0), 1.0);
        assert!(handoff_krtps_after(0.1) > 0.0);
        assert_eq!(scale_handoff_time(2.0, REFERENCE_KRTPS / 2.0), 1.0);
    }
}
