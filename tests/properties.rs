//! Property-based cross-crate tests.
//!
//! * The software data cache must be observationally identical to flat
//!   memory under arbitrary access sequences, for every prediction policy.
//! * Randomly generated minic programs must behave identically on the AST
//!   interpreter, the native simulator, and the software instruction cache
//!   (three-way differential testing of the whole stack).
//! * The wire layer must be total: protocol decoders and the envelope
//!   parser never panic on arbitrary bytes, and the seeded fault injector
//!   replays the identical schedule for the identical seed.
//! * The shared translation cache must be observationally invisible:
//!   clients sharing one cache answer every request byte-identically to
//!   uncached twins, under arbitrary interleavings of fetches, epoch
//!   bumps, invalidations, and full resync flushes.

use proptest::prelude::*;
use softcache::asm::assemble;
use softcache::core::dcache::{Dcache, DcacheConfig, Prediction};
use softcache::core::endpoint::McEndpoint;
use softcache::core::icache::SoftIcacheSystem;
use softcache::core::mc::Mc;
use softcache::core::{CacheError, IcacheConfig, TcachePolicy};
use softcache::isa::layout::DATA_BASE;
use softcache::minic;
use softcache::sim::Machine;

#[derive(Clone, Debug)]
enum Access {
    Read { off: u32, width: u32 },
    Write { off: u32, width: u32, value: u32 },
}

fn access_strategy() -> impl Strategy<Value = Access> {
    let width = prop_oneof![Just(1u32), Just(2), Just(4)];
    let off = 0u32..2048;
    prop_oneof![
        (off.clone(), width.clone()).prop_map(|(off, width)| {
            let off = off & !(width - 1);
            Access::Read { off, width }
        }),
        (off, width, any::<u32>()).prop_map(|(off, width, value)| {
            let off = off & !(width - 1);
            Access::Write { off, width, value }
        }),
    ]
}

fn any_prediction() -> impl Strategy<Value = Prediction> {
    prop_oneof![
        Just(Prediction::None),
        Just(Prediction::SameIndex),
        Just(Prediction::Stride),
        Just(Prediction::SecondChance),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The dcache behaves exactly like flat memory, regardless of
    /// prediction policy, capacity, and access pattern.
    #[test]
    fn dcache_is_flat_memory(
        accesses in prop::collection::vec(access_strategy(), 1..120),
        pred in any_prediction(),
        capacity in 2u32..16,
    ) {
        let image = assemble("_start: halt\n.data\nbuf: .space 2048").unwrap();
        let mut ep = McEndpoint::direct(Mc::new(image));
        let cfg = DcacheConfig {
            capacity_blocks: capacity,
            block_bytes: 16,
            prediction: pred,
            ..DcacheConfig::default()
        };
        let mut dc = Dcache::new(cfg);
        let mut model = vec![0u8; 2048];
        for a in &accesses {
            match *a {
                Access::Read { off, width } => {
                    let (got, _) = dc.read(&mut ep, 0x1000 + off, DATA_BASE + off, width).unwrap();
                    let mut want = 0u32;
                    for i in (0..width as usize).rev() {
                        want = (want << 8) | model[off as usize + i] as u32;
                    }
                    prop_assert_eq!(got, want, "read {}@{}", width, off);
                }
                Access::Write { off, width, value } => {
                    dc.write(&mut ep, 0x2000 + off, DATA_BASE + off, width, value).unwrap();
                    for i in 0..width as usize {
                        model[off as usize + i] = (value >> (8 * i)) as u8;
                    }
                }
            }
        }
        dc.check_invariants();
        // After flushing, a fresh cache over the same server agrees with
        // the model everywhere we touched.
        dc.flush_dirty(&mut ep).unwrap();
        let mut dc2 = Dcache::new(DcacheConfig::default());
        for a in &accesses {
            if let Access::Write { off, width, .. } = *a {
                let (got, _) = dc2.read(&mut ep, 0x3000, DATA_BASE + off, width).unwrap();
                let mut want = 0u32;
                for i in (0..width as usize).rev() {
                    want = (want << 8) | model[off as usize + i] as u32;
                }
                prop_assert_eq!(got, want);
            }
        }
    }
}

// ---- random-program differential testing ----

/// A tiny random-program generator: straight-line arithmetic over a few
/// variables with loops and conditionals, guaranteed to terminate.
fn random_program() -> impl Strategy<Value = String> {
    let expr_leaf = prop_oneof![
        (-100i32..100).prop_map(|n| n.to_string()),
        (0usize..4).prop_map(|v| format!("v{v}")),
    ];
    let expr = (
        expr_leaf.clone(),
        prop_oneof![
            Just("+"),
            Just("-"),
            Just("*"),
            Just("/"),
            Just("%"),
            Just("&"),
            Just("|"),
            Just("^"),
            Just("<"),
            Just("=="),
        ],
        expr_leaf,
    )
        .prop_map(|(a, op, b)| format!("({a} {op} {b})"));
    let stmt = prop_oneof![
        ((0usize..4), expr.clone()).prop_map(|(v, e)| format!("v{v} = {e};")),
        ((0usize..4), expr.clone(), (0usize..4), expr.clone())
            .prop_map(|(c, ce, v, e)| format!("if (v{c} > 0) v{v} = {e}; else v{v} = {ce};")),
        ((0usize..4), (1u32..8), expr.clone()).prop_map(|(v, n, e)| {
            format!("for (it = 0; it < {n}; it = it + 1) v{v} = v{v} + {e};")
        }),
    ];
    prop::collection::vec(stmt, 1..12).prop_map(|stmts| {
        format!(
            "int main() {{ int v0; int v1; int v2; int v3; int it; {} \
             return ((v0 ^ v1) + (v2 ^ v3)) & 0xffff; }}",
            stmts.join(" ")
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// interpreter == native simulator == software instruction cache, for
    /// arbitrary generated programs.
    #[test]
    fn random_programs_three_way_differential(src in random_program()) {
        let prog = minic::parser::parse(&src).unwrap();
        let syms = minic::sema::analyze(&prog).unwrap();
        let want = minic::interp::run(&prog, &syms, &[], 50_000_000).unwrap();

        let image = minic::compile_to_image(&src, &minic::Options::default()).unwrap();
        let mut native = Machine::load_native(&image, &[]);
        let code = native.run_native(50_000_000).unwrap();
        prop_assert_eq!(code, want.exit_code, "native vs interpreter");

        let cfg = IcacheConfig { tcache_size: 2048, ..IcacheConfig::default() };
        let mut sys = SoftIcacheSystem::new(image, cfg);
        let out = sys.run(&[]).unwrap();
        prop_assert_eq!(out.exit_code, want.exit_code, "softcache vs interpreter");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Replacement is architecturally invisible: under a tcache tight
    /// enough to force replacement, TRRIP victim eviction, the paper's
    /// flush-all policy, and the native machine retire identical results
    /// for arbitrary generated programs — and the eviction ledger
    /// balances under both policies. When a single block legitimately
    /// outgrows the tcache, both policies must agree on the refusal.
    #[test]
    fn eviction_policies_are_bit_identical_to_native(
        src in random_program(),
        tcache_size in 384u32..1024,
    ) {
        let image = minic::compile_to_image(&src, &minic::Options::default()).unwrap();
        let mut native = Machine::load_native(&image, &[]);
        let want = native.run_native(50_000_000).unwrap();

        let mut too_big = [false; 2];
        for (i, policy) in [TcachePolicy::FlushAll, TcachePolicy::Trrip].into_iter().enumerate() {
            let cfg = IcacheConfig {
                tcache_size,
                tcache_policy: policy,
                ..IcacheConfig::default()
            };
            let mut sys = SoftIcacheSystem::new(image.clone(), cfg);
            match sys.run(&[]) {
                Ok(out) => {
                    prop_assert_eq!(
                        out.exit_code, want,
                        "{:?} at {} bytes diverged from native", policy, tcache_size
                    );
                    prop_assert!(
                        out.cache.install_ledger_balanced(),
                        "{:?} at {} bytes: unbalanced ledger {:?}",
                        policy, tcache_size, out.cache
                    );
                }
                Err(CacheError::ChunkTooBig { .. }) => too_big[i] = true,
                Err(e) => return Err(TestCaseError::fail(format!("{policy:?}: {e:?}"))),
            }
        }
        prop_assert_eq!(
            too_big[0], too_big[1],
            "policies must agree on whether a block outgrows {} bytes", tcache_size
        );
    }
}

// ---- shared translation cache: observational identity ----

use softcache::core::SharedXlate;
use softcache::isa::layout::TEXT_BASE;
use std::sync::Arc;

/// One step of an interleaved two-client request schedule.
#[derive(Clone, Debug)]
enum XlateStep {
    /// Fetch a known target on one client, as a single chunk or a batch.
    Fetch {
        client: bool,
        pick: usize,
        batch: bool,
    },
    /// Invalidate one previously-fetched chunk on one client.
    Invalidate { client: bool, pick: usize },
    /// Epoch bump plus full tcache flush — what a CC does when a reply
    /// envelope shows the MC restarted under a new epoch.
    Resync { client: bool },
}

fn xlate_step() -> impl Strategy<Value = XlateStep> {
    // The vendored `prop_oneof!` is uniform over its arms, so the fetch
    // arm is repeated to weight the schedule ~6:1:1 toward fetches —
    // invalidations and resyncs should punctuate traffic, not drown it.
    let fetch = || {
        (any::<bool>(), any::<usize>(), any::<bool>()).prop_map(|(client, pick, batch)| {
            XlateStep::Fetch {
                client,
                pick,
                batch,
            }
        })
    };
    prop_oneof![
        fetch(),
        fetch(),
        fetch(),
        fetch(),
        fetch(),
        fetch(),
        (any::<bool>(), any::<usize>())
            .prop_map(|(client, pick)| XlateStep::Invalidate { client, pick }),
        any::<bool>().prop_map(|client| XlateStep::Resync { client }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Two clients sharing one translation cache answer every request
    /// byte-identically to two *uncached* twins fed the identical
    /// streams, under arbitrary interleavings of fetches (the clients'
    /// residence mirrors evolve in different orders, so dependency
    /// checks and variants are exercised), per-chunk invalidations,
    /// epoch bumps, and full resync flushes — and the translate-once
    /// ledger balances at the end. A third pair, on a cache of its own,
    /// answers the same streams through `handle_frame`: its frames must
    /// equal the uncached replies' encodings, which holds the
    /// by-reference chunk encoder to `Reply::encode` on hits and misses,
    /// single and batched.
    #[test]
    fn shared_cache_replies_match_uncached_twins_under_interleaving(
        src in random_program(),
        steps in prop::collection::vec(xlate_step(), 1..80),
    ) {
        let image = Arc::new(minic::compile_to_image(&src, &minic::Options::default()).unwrap());
        let shared = Arc::new(SharedXlate::default());
        let framed_shared = Arc::new(SharedXlate::default());
        let mk = |cache: Option<&Arc<SharedXlate>>| {
            let mut m = Mc::from_shared(Arc::clone(&image));
            if let Some(cache) = cache {
                m.attach_shared_cache(Arc::clone(cache));
            }
            m
        };
        let mut cached = [mk(Some(&shared)), mk(Some(&shared))];
        let mut framed = [mk(Some(&framed_shared)), mk(Some(&framed_shared))];
        let mut plain = [mk(None), mk(None)];
        // Per-client pool of fetchable addresses, grown from chunk exits
        // — a deterministic random walk over the real CFG.
        let mut pool: [Vec<u32>; 2] = [vec![image.entry], vec![image.entry]];
        let mut epoch = [1u32, 1];
        for step in &steps {
            match *step {
                XlateStep::Fetch { client, pick, batch } => {
                    let c = client as usize;
                    let orig_pc = pool[c][pick % pool[c].len()];
                    // Both clients place a given chunk at the same dest (a
                    // fixed function of its original address), so their
                    // translations are shareable — while their mirrors
                    // still diverge, because their fetch orders do.
                    let dest = 0x40_0000u32
                        .wrapping_add(orig_pc.wrapping_sub(TEXT_BASE).wrapping_mul(4));
                    let req = if batch {
                        Request::FetchBatch { orig_pc, dest, max_chunks: 3, budget_bytes: 4096 }
                    } else {
                        Request::FetchBlock { orig_pc, dest }
                    };
                    let want = plain[c].handle(&req);
                    let got = cached[c].handle(&req);
                    prop_assert_eq!(
                        &got, &want,
                        "client {} diverged at {:#x} (dest {:#x})", c, orig_pc, dest
                    );
                    prop_assert_eq!(
                        framed[c].handle_frame(&req.encode()), want.encode(),
                        "client {} framed a different reply at {:#x}", c, orig_pc
                    );
                    match &want {
                        Reply::Chunk(p) => pool[c].extend(p.exits.iter().map(|e| e.orig_target)),
                        Reply::Batch(ps) => pool[c].extend(
                            ps.iter().flat_map(|p| p.exits.iter().map(|e| e.orig_target)),
                        ),
                        _ => {}
                    }
                }
                XlateStep::Invalidate { client, pick } => {
                    let c = client as usize;
                    let orig_pc = pool[c][pick % pool[c].len()];
                    let req = Request::Invalidate { orig_pc };
                    let want = plain[c].handle(&req);
                    prop_assert_eq!(framed[c].handle_frame(&req.encode()), want.encode());
                    prop_assert_eq!(cached[c].handle(&req), want);
                }
                XlateStep::Resync { client } => {
                    let c = client as usize;
                    epoch[c] += 1;
                    cached[c].set_epoch(epoch[c]);
                    framed[c].set_epoch(epoch[c]);
                    plain[c].set_epoch(epoch[c]);
                    let req = Request::InvalidateAll;
                    let want = plain[c].handle(&req);
                    prop_assert_eq!(framed[c].handle_frame(&req.encode()), want.encode());
                    prop_assert_eq!(cached[c].handle(&req), want);
                }
            }
        }
        let s = shared.stats();
        prop_assert!(s.balanced(), "unbalanced ledger: {:?}", s);
        // The framed pair hit and missed exactly where the typed one did.
        prop_assert_eq!(framed_shared.stats(), s);
        for c in 0..2 {
            prop_assert_eq!(
                cached[c].stats.shared_hits + cached[c].stats.shared_misses > 0,
                plain[c].stats.blocks_served > 0,
                "client {} looked up the shared cache iff it served blocks", c
            );
        }
    }
}

// ---- memory-fault injection: seals catch every flip ----

use softcache::core::integrity::{MemFaultInjector, MemFaultPlan};

fn any_mem_fault_plan() -> impl Strategy<Value = MemFaultPlan> {
    (
        any::<u64>(),
        0u32..300,
        0u32..300,
        0u32..300,
        (any::<bool>(), 0u64..2000, 0u64..2000),
    )
        .prop_map(
            |(seed, code, redir, dcache, (windowed, a, b))| MemFaultPlan {
                seed,
                code_per_mille: code,
                redirector_per_mille: redir,
                dcache_per_mille: dcache,
                window: windowed.then(|| (a.min(b), a.max(b))),
                stuck_orig: None,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The memory-fault injector is a pure function of its plan: the same
    /// seed replays the identical fire-and-pick schedule, and nothing
    /// fires outside the plan's window.
    #[test]
    fn mem_fault_schedule_replays_identically(
        plan in any_mem_fault_plan(),
        ticks in 1u64..2048,
    ) {
        let mut a = MemFaultInjector::new(plan);
        let mut b = MemFaultInjector::new(plan);
        for tick in 0..ticks {
            let fa = a.begin_tick();
            let fb = b.begin_tick();
            prop_assert_eq!(fa, fb, "tick {} diverged", tick);
            if let Some((start, end)) = plan.window {
                if !(start..end).contains(&tick) {
                    prop_assert!(!fa.any(), "tick {} fired outside the window", tick);
                }
            }
            prop_assert_eq!(a.pick(97), b.pick(97), "pick at tick {} diverged", tick);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Seal soundness, end to end: under an arbitrary seeded flip schedule
    /// (single flips per checkpoint, compounding into multi-bit corruption
    /// when code and redirector faults land together), every corrupted
    /// span is caught and healed before any instruction from it retires —
    /// the chaos run's architectural results equal the interpreter's, with
    /// the superblock engine on and with every instruction on the
    /// reference `Machine::step`, and the recovery ledger balances.
    #[test]
    fn seeded_memory_faults_never_retire_corrupted_instructions(
        src in random_program(),
        seed in any::<u64>(),
        code in 1u32..150,
        redir in 0u32..150,
    ) {
        let prog = minic::parser::parse(&src).unwrap();
        let syms = minic::sema::analyze(&prog).unwrap();
        let want = minic::interp::run(&prog, &syms, &[], 50_000_000).unwrap();
        let image = minic::compile_to_image(&src, &minic::Options::default()).unwrap();

        let plan = MemFaultPlan {
            code_per_mille: code,
            redirector_per_mille: redir,
            ..MemFaultPlan::clean(seed)
        };
        // The tight tcache forces replacement mid-chaos, so TRRIP eviction
        // (which must drop the victim's seal) and flush-all recovery are
        // both exercised under fire.
        for (superblocks, policy, tcache_size) in [
            (true, TcachePolicy::Trrip, 1024),
            (false, TcachePolicy::Trrip, 1024),
            (true, TcachePolicy::FlushAll, 1024),
            (true, TcachePolicy::Trrip, 2048),
            (false, TcachePolicy::FlushAll, 2048),
        ] {
            let cfg = IcacheConfig {
                tcache_size,
                superblocks,
                tcache_policy: policy,
                ..IcacheConfig::default()
            };
            let mut sys = SoftIcacheSystem::new(image.clone(), cfg);
            let out = match sys.run_chaos(&[], plan) {
                Ok(o) => o,
                // A single oversized block is a legitimate refusal on the
                // tight sizes; the 2048-byte runs never hit it.
                Err(CacheError::ChunkTooBig { .. }) if tcache_size < 2048 => continue,
                Err(e) => return Err(TestCaseError::fail(format!("{policy:?}: {e:?}"))),
            };
            prop_assert_eq!(
                out.exit_code, want.exit_code,
                "corrupted run diverged under {:?} superblocks={} {:?}/{}",
                plan, superblocks, policy, tcache_size
            );
            let s = out.cache.integrity;
            prop_assert!(s.balanced(), "unbalanced ledger under {:?}: {:?}", plan, s);
            prop_assert_eq!(
                s.seal_hits + s.violations, s.seals_checked,
                "checks must split into hits + violations under {:?}: {:?}", plan, s
            );
            // Every landed flip corrupts a sealed span, and the scrub runs
            // before the guest resumes: flips must surface as violations.
            if s.code_flips + s.redirector_flips > 0 {
                prop_assert!(
                    s.violations > 0,
                    "flips landed but no violation detected under {:?}: {:?}", plan, s
                );
            }
            prop_assert!(
                out.cache.install_ledger_balanced(),
                "install ledger must balance under chaos {:?}/{}: {:?}",
                policy, tcache_size, out.cache
            );
        }
    }
}

// ---- wire-layer totality and determinism ----

use softcache::core::protocol::{ChunkPayload, ExitDesc, PatchKind, ResolvedRef};
use softcache::core::{Reply, Request};
use softcache::net::envelope::{open, seal, ENVELOPE_BYTES};
use softcache::net::{loopback_pair, FaultPlan, FaultyTransport, NetError, Transport};

fn any_patch_kind() -> impl Strategy<Value = PatchKind> {
    prop_oneof![Just(PatchKind::Retarget), Just(PatchKind::ReplaceWord)]
}

fn any_chunk() -> impl Strategy<Value = ChunkPayload> {
    (
        any::<u32>(),
        prop::collection::vec(any::<u32>(), 1..32),
        prop::collection::vec(
            (any::<u32>(), any::<u32>(), any_patch_kind(), any::<u32>()),
            0..4,
        ),
        prop::collection::vec((any::<u32>(), any::<u32>(), any_patch_kind()), 0..4),
        prop::collection::vec(any::<u32>(), 0..4),
    )
        .prop_map(
            |(orig_start, words, exits, resolved, extra_orig)| ChunkPayload {
                orig_start,
                body_words: words.len() as u32,
                words,
                exits: exits
                    .into_iter()
                    .map(|(stub_slot, patch_slot, kind, orig_target)| ExitDesc {
                        stub_slot,
                        patch_slot,
                        kind,
                        orig_target,
                    })
                    .collect(),
                resolved: resolved
                    .into_iter()
                    .map(|(slot, orig_target, kind)| ResolvedRef {
                        slot,
                        orig_target,
                        kind,
                    })
                    .collect(),
                extra_orig,
            },
        )
}

fn any_fault_plan() -> impl Strategy<Value = FaultPlan> {
    (
        any::<u64>(),
        0u32..400,
        0u32..400,
        0u32..400,
        0u32..400,
        0u32..400,
    )
        .prop_map(|(seed, corrupt, drop, dup, reorder, delay)| FaultPlan {
            seed,
            corrupt_per_mille: corrupt,
            drop_per_mille: drop,
            dup_per_mille: dup,
            reorder_per_mille: reorder,
            delay_per_mille: delay,
            partition: None,
        })
}

/// One scripted ping-pong run of a [`FaultyTransport`] over a loopback
/// link: everything either side observed, plus the injection counters.
#[allow(clippy::type_complexity)]
fn fault_schedule(
    plan: FaultPlan,
    frames: &[Vec<u8>],
) -> (
    Vec<Vec<u8>>,
    Vec<Result<Vec<u8>, NetError>>,
    softcache::net::FaultCounters,
) {
    let (a, mut b) = loopback_pair();
    let mut faulty = FaultyTransport::new(a, plan);
    let handle = faulty.counters();
    let mut seen_by_b = Vec::new();
    let mut seen_by_a = Vec::new();
    for f in frames {
        faulty.send(f.clone()).unwrap();
        while let Ok(got) = b.recv() {
            seen_by_b.push(got);
        }
        b.send(f.iter().rev().copied().collect()).unwrap();
        seen_by_a.push(faulty.recv());
    }
    let c = *handle.lock().unwrap();
    (seen_by_b, seen_by_a, c)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `Request::decode` is total: arbitrary bytes produce `Ok` or `Err`,
    /// never a panic — a corrupted frame that slips past the CRC still
    /// cannot take the MC down.
    #[test]
    fn request_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = Request::decode(&bytes);
    }

    /// `Reply::decode` is total for the same reason on the CC side.
    #[test]
    fn reply_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = Reply::decode(&bytes);
    }

    /// The envelope parser is total on arbitrary bytes.
    #[test]
    fn envelope_open_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = open(&bytes);
    }

    /// Seal/open round-trips every payload, and any single flipped bit is
    /// caught by the CRC (or shrinks the frame into a runt).
    #[test]
    fn envelope_roundtrips_and_crc_catches_any_bit_flip(
        seq in any::<u32>(),
        epoch in any::<u32>(),
        payload in prop::collection::vec(any::<u8>(), 0..128),
        flip in any::<u64>(),
    ) {
        let frame = seal(seq, epoch, &payload);
        prop_assert_eq!(frame.len(), payload.len() + ENVELOPE_BYTES as usize);
        let env = open(&frame).unwrap();
        prop_assert_eq!(env.seq, seq);
        prop_assert_eq!(env.epoch, epoch);
        prop_assert_eq!(env.payload, &payload[..]);

        let bit = (flip % (frame.len() as u64 * 8)) as usize;
        let mut bad = frame;
        bad[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(open(&bad).is_err(), "flipped bit {} undetected", bit);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A decodable request frame followed by trailing garbage must be
    /// rejected — truncation/concatenation bugs cannot masquerade as
    /// valid messages.
    #[test]
    fn request_decode_rejects_trailing_garbage(
        addr in any::<u32>(),
        len in any::<u32>(),
        junk in prop::collection::vec(any::<u8>(), 1..16),
    ) {
        let mut frame = Request::FetchData { addr, len }.encode();
        prop_assert!(Request::decode(&frame).is_ok());
        frame.extend_from_slice(&junk);
        prop_assert!(Request::decode(&frame).is_err());
    }

    /// `FetchBatch` requests round-trip for arbitrary field values.
    #[test]
    fn fetch_batch_roundtrips(
        orig_pc in any::<u32>(),
        dest in any::<u32>(),
        max_chunks in any::<u32>(),
        budget_bytes in any::<u32>(),
    ) {
        let req = Request::FetchBatch { orig_pc, dest, max_chunks, budget_bytes };
        let frame = req.encode();
        prop_assert_eq!(req.encoded_len(), frame.len());
        prop_assert_eq!(Request::decode(&frame).unwrap(), req);
    }

    /// Batched replies round-trip for any chunk set, and a complete batch
    /// frame with trailing garbage is rejected — a concatenation bug can
    /// never smuggle extra chunks past the decoder.
    #[test]
    fn batch_reply_roundtrips_and_rejects_garbage(
        chunks in prop::collection::vec(any_chunk(), 1..5),
        junk in prop::collection::vec(any::<u8>(), 1..16),
    ) {
        let rep = Reply::Batch(chunks);
        let mut frame = rep.encode();
        prop_assert_eq!(rep.encoded_len(), frame.len());
        prop_assert_eq!(&Reply::decode(&frame).unwrap(), &rep);
        frame.extend_from_slice(&junk);
        prop_assert!(Reply::decode(&frame).is_err());
    }

    /// The fault injector is a pure function of (seed, op sequence): the
    /// same plan replays the identical schedule, byte for byte.
    #[test]
    fn fault_injection_replays_identically(
        plan in any_fault_plan(),
        frames in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..64), 1..40),
    ) {
        let (b1, a1, c1) = fault_schedule(plan, &frames);
        let (b2, a2, c2) = fault_schedule(plan, &frames);
        prop_assert_eq!(b1, b2, "outbound schedule diverged");
        prop_assert_eq!(a1, a2, "inbound schedule diverged");
        prop_assert_eq!(c1, c2, "counters diverged");
    }
}
