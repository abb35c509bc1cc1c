//! Fault-injection soak tests: real workloads over a link that corrupts,
//! drops, duplicates, reorders, delays, partitions — and an MC that
//! crash-restarts mid-run. In every case the program's output must be
//! byte-identical to the native run (faults degrade to latency, never to
//! tcache corruption), and the session layer must account for what it
//! survived.

use softcache::core::endpoint::{serve, serve_bounded, InThreadMc, McEndpoint};
use softcache::core::icache::SoftIcacheSystem;
use softcache::core::mc::Mc;
use softcache::core::proc::{ProcCacheSystem, ProcConfig};
use softcache::core::{IcacheConfig, TcachePolicy};
use softcache::isa::Image;
use softcache::net::transport::{ChannelTransport, NetError};
use softcache::net::{policy_pair, FaultPlan, FaultyTransport, LinkPolicy, Transport};
use softcache::sim::Machine;
use softcache::workloads::by_name;
use std::time::Duration;

/// Link policy for the threaded wire. Injected drops become real waits of
/// the receive timeout, so it is kept short.
fn wire_policy() -> LinkPolicy {
    LinkPolicy {
        recv_timeout: Duration::from_millis(10),
        ..LinkPolicy::default()
    }
}

fn native_run(image: &Image, input: &[u8]) -> (i32, Vec<u8>) {
    let mut m = Machine::load_native(image, input);
    let code = m.run_native(200_000_000).unwrap();
    (code, m.env.output.clone())
}

fn spawn_server(image: Image) -> (std::thread::JoinHandle<()>, ChannelTransport) {
    let (cc_t, mut mc_t) = policy_pair(&wire_policy());
    let handle = std::thread::spawn(move || {
        let mut mc = Mc::new(image);
        serve(&mut mc, &mut mc_t);
    });
    (handle, cc_t)
}

/// An eager config: plenty of retries, no wall-clock backoff — the fault
/// schedule, not real-time pacing, drives recovery in tests.
fn soak_config() -> IcacheConfig {
    IcacheConfig {
        link_policy: LinkPolicy::eager(400),
        ..IcacheConfig::default()
    }
}

/// [`soak_config`] with speculative-push batching switched on, so the
/// fault schedule lands on multi-chunk reply frames too.
fn soak_config_batched() -> IcacheConfig {
    IcacheConfig {
        prefetch_depth: 2,
        ..soak_config()
    }
}

/// Run `workload` over a faulty remote link and check byte-identical
/// output. Returns the recovery-event count the session layer logged.
fn soak_one(workload: &str, scale: u32, plan: FaultPlan) -> u64 {
    soak_one_cfg(workload, scale, plan, soak_config())
}

fn soak_one_cfg(workload: &str, scale: u32, plan: FaultPlan, cfg: IcacheConfig) -> u64 {
    let w = by_name(workload).unwrap();
    let image = w.image(true);
    let input = (w.gen_input)(scale);
    let (want_code, want_out) = native_run(&image, &input);

    let (server, cc_t) = spawn_server(image.clone());
    let faulty = FaultyTransport::new(cc_t, plan);
    let counters = faulty.counters();
    let mut sys = SoftIcacheSystem::with_endpoint(image, cfg, McEndpoint::remote(Box::new(faulty)));
    let out = sys
        .run(&input)
        .unwrap_or_else(|e| panic!("{workload} under {plan:?}: {e}"));
    assert_eq!(out.exit_code, want_code, "{workload} exit under {plan:?}");
    assert_eq!(out.output, want_out, "{workload} output under {plan:?}");

    let injected = *counters.lock().unwrap();
    let events = out.cache.link.session.events();
    let fired = injected.corrupted
        + injected.dropped
        + injected.duplicated
        + injected.reordered
        + injected.delayed;
    if fired > 0 {
        assert!(
            events > 0,
            "{workload}: {fired} injected faults must surface as session \
             events, got none ({injected:?})"
        );
    }
    drop(sys);
    server.join().unwrap();
    events
}

#[test]
fn soak_corruption_across_seeds() {
    for seed in [1, 2, 3, 4] {
        let plan = FaultPlan {
            corrupt_per_mille: 30,
            ..FaultPlan::clean(seed)
        };
        soak_one("adpcmenc", 2, plan);
    }
}

#[test]
fn soak_loss_and_duplication_across_seeds() {
    for seed in [10, 11, 12, 13] {
        let plan = FaultPlan {
            drop_per_mille: 25,
            dup_per_mille: 40,
            ..FaultPlan::clean(seed)
        };
        soak_one("adpcmdec", 2, plan);
    }
}

#[test]
fn soak_reorder_and_delay_across_seeds() {
    for seed in [21, 22, 23, 24] {
        let plan = FaultPlan {
            reorder_per_mille: 30,
            delay_per_mille: 30,
            ..FaultPlan::clean(seed)
        };
        soak_one("gzip", 1, plan);
    }
}

#[test]
fn soak_everything_at_once() {
    // All fault kinds simultaneously, several seeds. Rates are lower per
    // kind so the compound rate stays survivable within the retry budget.
    let mut total_events = 0;
    for seed in [31, 32, 33, 34] {
        let plan = FaultPlan {
            corrupt_per_mille: 15,
            drop_per_mille: 15,
            dup_per_mille: 15,
            reorder_per_mille: 15,
            delay_per_mille: 15,
            ..FaultPlan::clean(seed)
        };
        total_events += soak_one("adpcmenc", 1, plan);
    }
    assert!(
        total_events > 0,
        "the matrix must actually exercise recovery"
    );
}

// ---- batched frames under faults ----

#[test]
fn soak_batched_frames_under_corruption() {
    for seed in [41, 42, 43, 44] {
        let plan = FaultPlan {
            corrupt_per_mille: 30,
            ..FaultPlan::clean(seed)
        };
        soak_one_cfg("adpcmenc", 2, plan, soak_config_batched());
    }
}

#[test]
fn soak_batched_frames_under_loss_dup_reorder() {
    for seed in [51, 52, 53, 54] {
        let plan = FaultPlan {
            drop_per_mille: 20,
            dup_per_mille: 25,
            reorder_per_mille: 20,
            ..FaultPlan::clean(seed)
        };
        soak_one_cfg("adpcmdec", 2, plan, soak_config_batched());
    }
}

/// Records the largest frame a transport ever delivered (shared cell, so
/// the caller can read it after the transport is boxed into the endpoint).
struct MaxFrameMeter<T: Transport> {
    inner: T,
    max: std::sync::Arc<std::sync::Mutex<usize>>,
}

impl<T: Transport> Transport for MaxFrameMeter<T> {
    fn send(&mut self, frame: Vec<u8>) -> Result<(), NetError> {
        self.inner.send(frame)
    }
    fn recv(&mut self) -> Result<Vec<u8>, NetError> {
        let f = self.inner.recv()?;
        let mut m = self.max.lock().unwrap();
        *m = (*m).max(f.len());
        Ok(f)
    }
    fn pending(&self) -> usize {
        self.inner.pending()
    }
}

/// Swallows the first `budget` frames larger than `threshold` (recv turns
/// them into timeouts); everything else flows. A deterministic
/// "the network hates big frames" fault aimed exactly at replies carrying
/// pushed chunks.
struct BigFrameEater<T: Transport> {
    inner: T,
    threshold: usize,
    budget: u32,
    eaten: u32,
}

impl<T: Transport> Transport for BigFrameEater<T> {
    fn send(&mut self, frame: Vec<u8>) -> Result<(), NetError> {
        self.inner.send(frame)
    }
    fn recv(&mut self) -> Result<Vec<u8>, NetError> {
        let f = self.inner.recv()?;
        if f.len() > self.threshold && self.eaten < self.budget {
            self.eaten += 1;
            return Err(NetError::Timeout);
        }
        Ok(f)
    }
    fn pending(&self) -> usize {
        self.inner.pending()
    }
}

/// When every retry of a batched exchange dies, the CC must flush and
/// degrade that miss to the single-chunk protocol — and the output must
/// still be byte-identical.
#[test]
fn batch_retry_exhaustion_degrades_to_single_chunk() {
    let w = by_name("adpcmenc").unwrap();
    let image = w.image(true);
    let input = (w.gen_input)(1);
    let (want_code, want_out) = native_run(&image, &input);

    // Pass 1 (depth 0): measure the largest single-chunk reply frame, so
    // the eater's threshold provably spares every demand-only exchange.
    let (server, cc_t) = spawn_server(image.clone());
    let max_cell = std::sync::Arc::new(std::sync::Mutex::new(0usize));
    let meter = MaxFrameMeter {
        inner: cc_t,
        max: std::sync::Arc::clone(&max_cell),
    };
    let mut sys = SoftIcacheSystem::with_endpoint(
        image.clone(),
        soak_config(),
        McEndpoint::remote(Box::new(meter)),
    );
    let out0 = sys.run(&input).unwrap();
    assert_eq!(out0.output, want_out);
    drop(sys);
    server.join().unwrap();
    let max_single = *max_cell.lock().unwrap();
    assert!(max_single > 0);

    // Pass 2 (depth 2): a 6-attempt budget and an eater that swallows
    // exactly 6 oversized frames — the first reply carrying pushed chunks
    // exhausts its retries, forcing the flush-and-refetch fallback; later
    // batches flow untouched.
    let policy = LinkPolicy::eager(5); // 1 try + 5 retries = 6 attempts
    let (server, cc_t) = spawn_server(image.clone());
    let eater = BigFrameEater {
        inner: cc_t,
        threshold: max_single,
        budget: 6,
        eaten: 0,
    };
    let cfg = IcacheConfig {
        link_policy: policy,
        prefetch_depth: 2,
        ..IcacheConfig::default()
    };
    let mut sys = SoftIcacheSystem::with_endpoint(image, cfg, McEndpoint::remote(Box::new(eater)));
    let out = sys.run(&input).unwrap();
    assert_eq!(out.exit_code, want_code);
    assert_eq!(out.output, want_out, "fallback must preserve semantics");
    assert!(
        out.cache.link.session.batch_fallbacks >= 1,
        "the exhausted batch must degrade to single-chunk"
    );
    assert!(
        out.cache.link.batches > 0,
        "batches after the fallback flow normally"
    );
    assert!(
        out.cache.flushes >= 1,
        "fallback flushes to stay consistent"
    );
    drop(sys);
    server.join().unwrap();
}

// ---- MC crash-restart ----

/// A server that serves `crash_after` requests per life, then "crashes":
/// the Mc (and its residence mirror) is dropped and a fresh one comes up
/// with the next epoch. The transport survives, as a listening socket
/// would.
fn spawn_crashy_server(
    image: Image,
    crash_after: u64,
    lives: u32,
) -> (std::thread::JoinHandle<u32>, ChannelTransport) {
    let (cc_t, mut mc_t) = policy_pair(&wire_policy());
    let handle = std::thread::spawn(move || {
        let mut epoch = 1u32;
        for _ in 0..lives {
            let mut mc = Mc::new(image.clone());
            mc.set_epoch(epoch);
            if serve_bounded(&mut mc, &mut mc_t, crash_after).disconnected {
                return epoch;
            }
            epoch += 1;
        }
        let mut mc = Mc::new(image.clone());
        mc.set_epoch(epoch);
        serve(&mut mc, &mut mc_t);
        epoch
    });
    (handle, cc_t)
}

#[test]
fn mc_crash_restart_mid_run_recovers_by_resync() {
    let w = by_name("adpcmenc").unwrap();
    let image = w.image(true);
    let input = (w.gen_input)(2);
    let (want_code, want_out) = native_run(&image, &input);

    // Crash the MC every 12 requests for several lives: the run is
    // guaranteed to straddle multiple epochs.
    let (server, cc_t) = spawn_crashy_server(image.clone(), 12, 6);
    let mut sys =
        SoftIcacheSystem::with_endpoint(image, soak_config(), McEndpoint::remote(Box::new(cc_t)));
    let out = sys.run(&input).unwrap();
    assert_eq!(out.exit_code, want_code, "crash-restart must not corrupt");
    assert_eq!(out.output, want_out);
    assert!(
        out.cache.link.session.resyncs > 0,
        "the CC must have detected at least one restart"
    );
    drop(sys);
    let final_epoch = server.join().unwrap();
    assert!(final_epoch > 1, "the server actually restarted");
}

#[test]
fn mc_crash_restart_under_a_lossy_link() {
    // Restarts *and* frame loss at the same time.
    let w = by_name("adpcmdec").unwrap();
    let image = w.image(true);
    let input = (w.gen_input)(2);
    let (want_code, want_out) = native_run(&image, &input);

    let (server, cc_t) = spawn_crashy_server(image.clone(), 15, 4);
    let plan = FaultPlan {
        drop_per_mille: 15,
        corrupt_per_mille: 15,
        ..FaultPlan::clean(99)
    };
    let faulty = FaultyTransport::new(cc_t, plan);
    let mut sys =
        SoftIcacheSystem::with_endpoint(image, soak_config(), McEndpoint::remote(Box::new(faulty)));
    let out = sys.run(&input).unwrap();
    assert_eq!(out.exit_code, want_code);
    assert_eq!(out.output, want_out);
    drop(sys);
    server.join().unwrap();
}

// ---- tcache address recycling: link / inline-cache hygiene ----

/// DESIGN.md §12 claims superblock links and inline caches never chain
/// into dead code when `ProcCc::resync` rebuilds the tcache at the same
/// addresses. Exercise that on the real resync path: crash the MC
/// repeatedly mid-run so procedures are refetched onto recycled
/// addresses, with the superblock engine on and off. A stale link or
/// inline-cache entry surviving a resync would chain a return into dead
/// (now reused) tcache memory — both runs must match native, and match
/// each other in every simulated ledger.
#[test]
fn proc_resync_recycles_addresses_without_stale_ras() {
    let w = by_name("adpcmenc").unwrap();
    let image = w.image(false); // ARM path (no indirect jumps)
    let input = (w.gen_input)(2);
    let (want_code, want_out) = native_run(&image, &input);

    let mut runs = Vec::new();
    for superblocks in [true, false] {
        // The MC answers on this thread, crashing after every 6 requests
        // for 6 lives, so both runs see the same exchange sequence: a
        // thread-served MC racing a receive timeout could add a retry to
        // one run only.
        let mc = InThreadMc::crashing(Mc::new(image.clone()), 6, 6);
        let cfg = ProcConfig {
            // Paging-inducing memory keeps refetch traffic flowing, so the
            // run is guaranteed to straddle several server lives.
            memory_bytes: image.text_bytes() * 2 / 3,
            link_policy: LinkPolicy::eager(400),
            superblocks,
            ..ProcConfig::default()
        };
        let mut sys =
            ProcCacheSystem::with_endpoint(image.clone(), cfg, McEndpoint::remote(Box::new(mc)));
        let out = sys
            .run(&input)
            .unwrap_or_else(|e| panic!("proc superblocks={superblocks}: {e}"));
        assert_eq!(out.exit_code, want_code, "superblocks={superblocks} exit");
        assert_eq!(out.output, want_out, "superblocks={superblocks} output");
        assert!(
            out.cache.link.session.resyncs > 0,
            "superblocks={superblocks}: the run must straddle a restart"
        );
        runs.push(out);
    }
    let (on, off) = (&runs[0], &runs[1]);
    assert!(
        on.trace.chained > 0 && on.trace.ic_hits + on.trace.ic_fills > 0,
        "superblock links and inline caches must actually be in play: {:?}",
        on.trace
    );
    assert_eq!(
        on.exec, off.exec,
        "the superblock engine must be invisible in simulated time"
    );
    assert_eq!(on.cache, off.cache, "…and in the cache ledger");
}

/// The same hygiene on the basic-block path: a tcache small enough to
/// flush repeatedly recycles every address, and no superblock link or
/// inline cache may survive a flush into the recycled code.
#[test]
fn bb_flush_recycles_addresses_without_stale_ras() {
    let w = by_name("adpcmenc").unwrap();
    let image = w.image(true);
    let input = (w.gen_input)(2);
    let (want_code, want_out) = native_run(&image, &input);

    let mut runs = Vec::new();
    for superblocks in [true, false] {
        let cfg = IcacheConfig {
            tcache_size: (image.text_bytes() / 3).max(1024),
            superblocks,
            // This test is about *flush* hygiene: pin the paper baseline
            // policy so the tight tcache actually flushes instead of
            // evicting per-chunk victims.
            tcache_policy: TcachePolicy::FlushAll,
            ..IcacheConfig::default()
        };
        let mut sys = SoftIcacheSystem::new(image.clone(), cfg);
        let out = sys
            .run(&input)
            .unwrap_or_else(|e| panic!("bb superblocks={superblocks}: {e}"));
        assert_eq!(out.exit_code, want_code, "superblocks={superblocks} exit");
        assert_eq!(out.output, want_out, "superblocks={superblocks} output");
        assert!(
            out.cache.flushes > 0,
            "superblocks={superblocks}: the tight tcache must actually flush"
        );
        runs.push(out);
    }
    let (on, off) = (&runs[0], &runs[1]);
    assert!(
        on.trace.chained > 0 && on.trace.ic_hits + on.trace.ic_fills > 0,
        "superblock links and inline caches must actually be in play: {:?}",
        on.trace
    );
    assert_eq!(on.exec, off.exec, "bit-identity across the engine toggle");
    assert_eq!(on.cache, off.cache, "…and across the cache ledger");
}

// ---- degraded mode: partition tolerance ----

/// The paper's residence guarantee, extended to the link: once the working
/// set is tcache-resident, execution needs zero RPCs — so a link partition
/// that starts after warm-up can never stop the program.
#[test]
fn full_partition_after_warmup_is_invisible() {
    let w = by_name("adpcmenc").unwrap();
    let image = w.image(true);
    let input = (w.gen_input)(2);
    let (want_code, want_out) = native_run(&image, &input);

    // Pass 1 (clean): count how many transport operations a full run
    // needs.
    let (server, cc_t) = spawn_server(image.clone());
    let clean = FaultyTransport::new(cc_t, FaultPlan::clean(0));
    let ops_handle = clean.counters();
    let mut sys = SoftIcacheSystem::with_endpoint(
        image.clone(),
        soak_config(),
        McEndpoint::remote(Box::new(clean)),
    );
    let out1 = sys.run(&input).unwrap();
    assert_eq!(out1.exit_code, want_code);
    let total_ops = ops_handle.lock().unwrap().events;
    drop(sys);
    server.join().unwrap();
    assert!(total_ops > 0);

    // Pass 2: partition the link *forever* from exactly the operation
    // where pass 1 stopped needing it. Execution is deterministic, so the
    // rerun issues the same `total_ops` operations and then runs entirely
    // out of the tcache — the partition must never be hit.
    let (server, cc_t) = spawn_server(image.clone());
    let plan = FaultPlan {
        partition: Some((total_ops, u64::MAX)),
        ..FaultPlan::clean(0)
    };
    let part = FaultyTransport::new(cc_t, plan);
    let part_handle = part.counters();
    let mut sys =
        SoftIcacheSystem::with_endpoint(image, soak_config(), McEndpoint::remote(Box::new(part)));
    let out2 = sys.run(&input).unwrap();
    assert_eq!(out2.exit_code, want_code);
    assert_eq!(out2.output, want_out);
    assert_eq!(
        part_handle.lock().unwrap().partitioned,
        0,
        "a resident working set must need zero link operations"
    );
    drop(sys);
    server.join().unwrap();
}

#[test]
fn transient_partition_mid_run_heals_via_retry() {
    // A partition window during warm-up: the in-flight RPC rides it out on
    // retries (each retry is one send + up to one recv, so the eager
    // budget comfortably covers the window) and the run completes
    // bit-identically.
    let w = by_name("adpcmenc").unwrap();
    let image = w.image(true);
    let input = (w.gen_input)(1);
    let (want_code, want_out) = native_run(&image, &input);

    let (server, cc_t) = spawn_server(image.clone());
    let plan = FaultPlan {
        partition: Some((20, 120)),
        ..FaultPlan::clean(5)
    };
    let part = FaultyTransport::new(cc_t, plan);
    let part_handle = part.counters();
    let mut sys =
        SoftIcacheSystem::with_endpoint(image, soak_config(), McEndpoint::remote(Box::new(part)));
    let out = sys.run(&input).unwrap();
    assert_eq!(out.exit_code, want_code);
    assert_eq!(out.output, want_out);
    assert!(
        part_handle.lock().unwrap().partitioned > 0,
        "the window must actually have been hit"
    );
    assert!(out.cache.link.session.retries > 0);
    drop(sys);
    server.join().unwrap();
}

// ---- simulated-time accounting ----

/// Satellite check for the stall-cycle ledger: when 30 % of the frames
/// are lost each way, every lost exchange is charged full extra round
/// trips in simulated time, and the extra is exactly the `backoff_cycles`
/// ledger — so lossy stall == clean stall + ledger, cycle for cycle. The
/// MC answers on the test's thread, so no recovery event can come from a
/// late thread instead of the plan.
#[test]
fn retry_stalls_are_accounted_in_simulated_time() {
    let w = by_name("adpcmenc").unwrap();
    let image = w.image(true);
    let input = (w.gen_input)(1);

    let run = |plan: FaultPlan| {
        let mc = InThreadMc::new(Mc::new(image.clone()));
        let link = FaultyTransport::new(mc, plan);
        let mut sys = SoftIcacheSystem::with_endpoint(
            image.clone(),
            soak_config(),
            McEndpoint::remote(Box::new(link)),
        );
        sys.run(&input).unwrap()
    };

    let clean = run(FaultPlan::clean(2));
    let lossy = run(FaultPlan {
        drop_per_mille: 300,
        ..FaultPlan::clean(2)
    });
    assert_eq!(clean.output, lossy.output);
    assert_eq!(
        clean.cache.link.session.events(),
        0,
        "clean link logs no recovery events"
    );
    assert!(lossy.cache.link.session.retries > 0, "drops forced retries");
    // Wire accounting charges every attempt: each retry is one extra
    // request/reply pair on the link.
    assert_eq!(
        lossy.cache.link.messages,
        clean.cache.link.messages + 2 * lossy.cache.link.session.retries,
        "each retry must be accounted as a full extra exchange"
    );
    assert_eq!(
        lossy.cache.link.stall_cycles,
        clean.cache.link.stall_cycles + lossy.cache.link.session.backoff_cycles,
        "lossy stall must be clean stall plus the backoff/retry ledger"
    );
    assert!(lossy.cache.link.stall_cycles > clean.cache.link.stall_cycles);
    assert_eq!(
        lossy.exec.cycles - lossy.cache.link.session.backoff_cycles,
        clean.exec.cycles,
        "total simulated time differs by exactly the ledger"
    );
}
