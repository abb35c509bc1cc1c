//! Fan-in soak: one MC server ([`McServer`]) over a shared image, many
//! concurrent CC clients on real channel transports, all served from one
//! event-driven poll loop. Every client's output must be byte-identical
//! to a fused single-client run — with batching off, with speculative
//! push on, and with a seeded fault plan injected into one client's link
//! while its siblings run clean.

use softcache::core::endpoint::McEndpoint;
use softcache::core::icache::SoftIcacheSystem;
use softcache::core::{IcacheConfig, McServer};
use softcache::net::{policy_pair, FaultPlan, FaultyTransport, LinkPolicy, Transport};
use softcache::workloads::by_name;
use std::time::Duration;

/// Link policy for the wire. Injected drops become real waits of the
/// receive timeout, so it should be short — but the fan-in tests assert
/// that *clean* clients log zero recovery events while one MC process
/// serves several clients, and under a loaded machine (the full
/// workspace test suite saturating every core) a starved server can
/// push a clean reply past a too-tight timeout and flake the assert.
/// 250 ms rides out scheduler starvation; the seeded plan's drop rate
/// is low (15‰), so the added real wait per injected drop stays small.
fn wire_policy() -> LinkPolicy {
    LinkPolicy {
        recv_timeout: Duration::from_millis(250),
        ..LinkPolicy::default()
    }
}

/// Run `n` concurrent clients against one server at the given push depth,
/// wrapping client `i`'s transport in `plans[i]` when present. Returns
/// each client's (exit code, output, resyncs + retries observed).
fn fan_in(n: usize, depth: u32, plans: &[Option<FaultPlan>]) -> Vec<(i32, Vec<u8>, u64)> {
    let w = by_name("adpcmenc").unwrap();
    let image = w.image(true);
    let input = (w.gen_input)(2);

    let server = McServer::new(image.clone());
    let mut server_ends: Vec<Box<dyn Transport>> = Vec::new();
    let mut client_ends = Vec::new();
    for _ in 0..n {
        let (cc_t, mc_t) = policy_pair(&wire_policy());
        server_ends.push(Box::new(mc_t));
        client_ends.push(cc_t);
    }
    std::thread::scope(|scope| {
        let server_thread = scope.spawn(|| server.serve_event(server_ends));
        let handles: Vec<_> = client_ends
            .into_iter()
            .enumerate()
            .map(|(i, cc_t)| {
                let image = image.clone();
                let input = &input;
                let plan = plans.get(i).copied().flatten();
                scope.spawn(move || {
                    let cfg = IcacheConfig {
                        link_policy: LinkPolicy::eager(400),
                        prefetch_depth: depth,
                        ..IcacheConfig::default()
                    };
                    let transport: Box<dyn Transport> = match plan {
                        Some(p) => Box::new(FaultyTransport::new(cc_t, p)),
                        None => Box::new(cc_t),
                    };
                    let mut sys =
                        SoftIcacheSystem::with_endpoint(image, cfg, McEndpoint::remote(transport));
                    // Name the plan in the failure message: a flake must be
                    // reproducible from CI output alone.
                    let out = sys
                        .run(input)
                        .unwrap_or_else(|e| panic!("client {i} under {plan:?}: {e}"));
                    let s = out.cache.link.session;
                    (
                        out.exit_code,
                        out.output,
                        s.retries + s.resyncs + s.crc_drops,
                    )
                })
            })
            .collect();
        let outs: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        for (i, r) in server_thread
            .join()
            .expect("server thread")
            .iter()
            .enumerate()
        {
            assert!(r.served > 0, "client {i} was served");
            assert!(r.disconnected, "client {i} hung up cleanly");
        }
        outs
    })
}

/// Fused single-client reference.
fn solo() -> (i32, Vec<u8>) {
    let w = by_name("adpcmenc").unwrap();
    let image = w.image(true);
    let input = (w.gen_input)(2);
    let mut sys = SoftIcacheSystem::new(image, IcacheConfig::default());
    let out = sys.run(&input).unwrap();
    (out.exit_code, out.output)
}

#[test]
fn four_clients_byte_identical_to_single_client() {
    let (want_code, want_out) = solo();
    for depth in [0u32, 2] {
        for (i, (code, out, _)) in fan_in(4, depth, &[]).into_iter().enumerate() {
            assert_eq!(code, want_code, "client {i} depth {depth} (clean links)");
            assert_eq!(out, want_out, "client {i} depth {depth} (clean links)");
        }
    }
}

#[test]
fn eight_clients_with_speculative_push() {
    let (want_code, want_out) = solo();
    for (i, (code, out, _)) in fan_in(8, 2, &[]).into_iter().enumerate() {
        assert_eq!(code, want_code, "client {i} depth 2 (clean links)");
        assert_eq!(out, want_out, "client {i} depth 2 (clean links)");
    }
}

#[test]
fn four_clients_one_seeded_faulty_link() {
    let (want_code, want_out) = solo();
    // Client 0 rides a corrupting, lossy, duplicating link; its siblings
    // run clean. Everyone must still agree byte-for-byte, and the faulty
    // client must actually have exercised recovery.
    let plan = FaultPlan {
        corrupt_per_mille: 25,
        drop_per_mille: 15,
        dup_per_mille: 20,
        ..FaultPlan::clean(7)
    };
    let outs = fan_in(4, 2, &[Some(plan)]);
    for (i, (code, out, _)) in outs.iter().enumerate() {
        assert_eq!(*code, want_code, "client {i} (client 0 under {plan:?})");
        assert_eq!(*out, want_out, "client {i} (client 0 under {plan:?})");
    }
    assert!(
        outs[0].2 > 0,
        "{plan:?} must surface as recovery events on client 0"
    );
    for (i, (_, _, events)) in outs.iter().enumerate().skip(1) {
        assert_eq!(
            *events, 0,
            "clean client {i} logged recovery events (client 0 under {plan:?})"
        );
    }
}

#[test]
fn event_loop_soak_64_clients_one_seeded_faulty_link() {
    let (want_code, want_out) = solo();
    // 64 clients against ONE poll loop; client 0 rides a corrupting,
    // lossy, duplicating link while 63 siblings run clean. Everyone must
    // match the fused solo run byte-for-byte, the faulty client must
    // actually have exercised recovery, and the clean clients must have
    // seen none — the event loop's fair-share scheduling may never stall
    // a clean client long enough to time out a reply. Rates are higher
    // than the 4-client test's: batching leaves only ~38 frames on the
    // wire, too few for a 25‰ plan to fire reliably.
    let plan = FaultPlan {
        corrupt_per_mille: 80,
        drop_per_mille: 50,
        dup_per_mille: 40,
        ..FaultPlan::clean(11)
    };
    let outs = fan_in(64, 2, &[Some(plan)]);
    assert_eq!(outs.len(), 64);
    for (i, (code, out, _)) in outs.iter().enumerate() {
        assert_eq!(*code, want_code, "client {i} (client 0 under {plan:?})");
        assert_eq!(*out, want_out, "client {i} (client 0 under {plan:?})");
    }
    assert!(
        outs[0].2 > 0,
        "{plan:?} must surface as recovery events on client 0"
    );
    for (i, (_, _, events)) in outs.iter().enumerate().skip(1) {
        assert_eq!(
            *events, 0,
            "clean client {i} logged recovery events (client 0 under {plan:?})"
        );
    }
}
