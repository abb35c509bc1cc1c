//! Remote-deployment integration: the MC on its own thread (the two-board
//! ARM setup), including a lossy link — the workload must still produce
//! byte-identical output, with losses degrading into retries, never into
//! corruption.

use softcache::core::endpoint::{serve, McEndpoint};
use softcache::core::icache::SoftIcacheSystem;
use softcache::core::mc::Mc;
use softcache::core::proc::{ProcCacheSystem, ProcConfig};
use softcache::core::IcacheConfig;
use softcache::net::{thread_pair, FaultPlan, FaultyTransport};
use softcache::sim::Machine;
use softcache::workloads::by_name;
use std::time::Duration;

fn spawn_server(
    image: softcache::isa::Image,
) -> (
    std::thread::JoinHandle<u64>,
    softcache::net::transport::ChannelTransport,
) {
    let (cc_t, mut mc_t) = thread_pair(Duration::from_millis(300));
    let handle = std::thread::spawn(move || {
        let mut mc = Mc::new(image);
        serve(&mut mc, &mut mc_t);
        mc.stats.blocks_served + mc.stats.procs_served
    });
    (handle, cc_t)
}

#[test]
fn workload_over_remote_icache() {
    let w = by_name("adpcmenc").unwrap();
    let image = w.image(true);
    let input = (w.gen_input)(4);
    let mut native = Machine::load_native(&image, &input);
    let want = native.run_native(100_000_000).unwrap();

    let (server, cc_t) = spawn_server(image.clone());
    let mut sys = SoftIcacheSystem::with_endpoint(
        image,
        IcacheConfig::default(),
        McEndpoint::remote(Box::new(cc_t)),
    );
    let out = sys.run(&input).unwrap();
    assert_eq!(out.exit_code, want);
    assert_eq!(out.output, native.env.output);
    drop(sys);
    let served = server.join().unwrap();
    assert!(served > 0, "the server actually served chunks");
}

#[test]
fn workload_over_lossy_remote_icache() {
    let w = by_name("gzip").unwrap();
    let image = w.image(true);
    let input = (w.gen_input)(2);
    let mut native = Machine::load_native(&image, &input);
    let want = native.run_native(100_000_000).unwrap();

    let (server, cc_t) = spawn_server(image.clone());
    // Drop about every 5th frame and duplicate about every 7th: the RPC
    // layer's sequence-number retry protocol must absorb both.
    let plan = FaultPlan {
        drop_per_mille: 200,
        dup_per_mille: 140,
        ..FaultPlan::clean(57)
    };
    let lossy = FaultyTransport::new(cc_t, plan);
    let injected = lossy.counters();
    let mut sys = SoftIcacheSystem::with_endpoint(
        image,
        IcacheConfig::default(),
        McEndpoint::remote(Box::new(lossy)),
    );
    let out = sys.run(&input).unwrap();
    assert_eq!(out.exit_code, want, "losses must never corrupt the tcache");
    assert_eq!(out.output, native.env.output);
    let injected = *injected.lock().unwrap();
    assert!(
        injected.dropped > 0 && injected.duplicated > 0,
        "{injected:?}"
    );
    drop(sys);
    server.join().unwrap();
}

#[test]
fn workload_over_remote_proc_cache_with_paging() {
    let w = by_name("adpcmdec").unwrap();
    let image = w.image(false);
    let input = (w.gen_input)(4);
    let mut native = Machine::load_native(&image, &input);
    let want = native.run_native(100_000_000).unwrap();

    let (server, cc_t) = spawn_server(image.clone());
    let cfg = ProcConfig {
        memory_bytes: image.text_bytes() * 3 / 4, // forces eviction
        ..ProcConfig::default()
    };
    let mut sys = ProcCacheSystem::with_endpoint(image, cfg, McEndpoint::remote(Box::new(cc_t)));
    let out = sys.run(&input).unwrap();
    assert_eq!(out.exit_code, want);
    assert_eq!(out.output, native.env.output);
    assert!(out.cache.evictions > 0, "paging over the real link");
    drop(sys);
    server.join().unwrap();
}
