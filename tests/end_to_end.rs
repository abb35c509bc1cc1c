//! Cross-crate integration: every workload must produce byte-identical
//! output on (a) the AST interpreter, (b) the native simulator — on the
//! per-step reference interpreter, on `run_block` with superblocks off and
//! on the block engine, which must also retire identical `ExecStats` — (c)
//! the software instruction cache, (d) the full software cache
//! (instructions + data + stack), and — for ARM-compatible workloads —
//! (e) the procedure-granularity cache with eviction.

use softcache::core::datarun::FullSoftCacheSystem;
use softcache::core::dcache::DcacheConfig;
use softcache::core::icache::SoftIcacheSystem;
use softcache::core::mc::ChunkStrategy;
use softcache::core::proc::{ProcCacheSystem, ProcConfig};
use softcache::core::scache::ScacheConfig;
use softcache::core::IcacheConfig;
use softcache::sim::{Machine, Step};
use softcache::workloads::{all, Workload};

fn scale_for(w: &Workload) -> u32 {
    match w.name {
        "compress95" | "gzip" => 4,
        "adpcmenc" | "adpcmdec" => 4,
        _ => 1,
    }
}

fn check_all_engines(w: &Workload) {
    let input = (w.gen_input)(scale_for(w));
    let (want_code, want_out) = w.expected(&input, 2_000_000_000);

    // Native, on the reference interpreter (decode on every step): the
    // oracle both `run_block` legs below must reproduce exactly.
    let image = w.image(true);
    let mut slow = Machine::load_native(&image, &input);
    let code = loop {
        match slow.step() {
            Ok(Step::Running) => {}
            Ok(Step::Exited(code)) => break code,
            Ok(Step::Trapped(trap)) => panic!("{} slow path: unexpected {trap:?}", w.name),
            Err(e) => panic!("{} slow path: {e}", w.name),
        }
    };
    assert_eq!(code, want_code, "{} slow-path exit", w.name);
    assert_eq!(slow.env.output, want_out, "{} slow-path output", w.name);

    for (tag, superblocks) in [("superblocks off", false), ("defaults", true)] {
        let mut native = Machine::load_native(&image, &input);
        native.set_superblocks_enabled(superblocks);
        let code = native
            .run_native(500_000_000)
            .unwrap_or_else(|e| panic!("{} native ({tag}): {e}", w.name));
        assert_eq!(code, want_code, "{} native ({tag}) exit", w.name);
        assert_eq!(
            native.env.output, want_out,
            "{} native ({tag}) output",
            w.name
        );
        assert_eq!(native.stats, slow.stats, "{} native ({tag}) stats", w.name);
    }

    // Software I-cache (ample).
    let mut icache = SoftIcacheSystem::new(image.clone(), IcacheConfig::default());
    let out = icache
        .run(&input)
        .unwrap_or_else(|e| panic!("{} icache: {e}", w.name));
    assert_eq!(out.exit_code, want_code, "{} icache exit", w.name);
    assert_eq!(out.output, want_out, "{} icache output", w.name);

    // Software I-cache (tight: forces flushes) — correctness must survive.
    let tight = IcacheConfig {
        tcache_size: (image.text_bytes() / 2).max(1024),
        ..IcacheConfig::default()
    };
    let mut icache_tight = SoftIcacheSystem::new(image.clone(), tight);
    let out = icache_tight
        .run(&input)
        .unwrap_or_else(|e| panic!("{} tight icache: {e}", w.name));
    assert_eq!(out.exit_code, want_code, "{} tight icache exit", w.name);
    assert_eq!(out.output, want_out, "{} tight icache output", w.name);

    // Full softcache (I + D + stack).
    let mut full = FullSoftCacheSystem::new(
        image.clone(),
        IcacheConfig::default(),
        DcacheConfig::default(),
        ScacheConfig::default(),
    );
    let out = full
        .run(&input)
        .unwrap_or_else(|e| panic!("{} full: {e}", w.name));
    assert_eq!(out.exit_code, want_code, "{} full exit", w.name);
    assert_eq!(out.output, want_out, "{} full output", w.name);

    // ARM-style procedure cache (no indirect jumps allowed).
    if !w.needs_indirect {
        let arm_image = w.image(false);
        let mut proc = ProcCacheSystem::new(arm_image.clone(), ProcConfig::default());
        let out = proc
            .run(&input)
            .unwrap_or_else(|e| panic!("{} proc: {e}", w.name));
        assert_eq!(out.exit_code, want_code, "{} proc exit", w.name);
        assert_eq!(out.output, want_out, "{} proc output", w.name);

        // Paging-inducing memory.
        let paging = ProcConfig {
            memory_bytes: arm_image.text_bytes() * 2 / 3,
            ..ProcConfig::default()
        };
        let mut proc_small = ProcCacheSystem::new(arm_image, paging);
        let out = proc_small
            .run(&input)
            .unwrap_or_else(|e| panic!("{} paging proc: {e}", w.name));
        assert_eq!(out.exit_code, want_code, "{} paging proc exit", w.name);
        assert_eq!(out.output, want_out, "{} paging proc output", w.name);
    }
}

#[test]
fn compress95_all_engines() {
    check_all_engines(&softcache::workloads::by_name("compress95").unwrap());
}

#[test]
fn adpcmenc_all_engines() {
    check_all_engines(&softcache::workloads::by_name("adpcmenc").unwrap());
}

#[test]
fn adpcmdec_all_engines() {
    check_all_engines(&softcache::workloads::by_name("adpcmdec").unwrap());
}

#[test]
fn gzip_all_engines() {
    check_all_engines(&softcache::workloads::by_name("gzip").unwrap());
}

#[test]
fn cjpeg_all_engines() {
    check_all_engines(&softcache::workloads::by_name("cjpeg").unwrap());
}

#[test]
fn hextobdd_all_engines() {
    check_all_engines(&softcache::workloads::by_name("hextobdd").unwrap());
}

#[test]
fn mpeg2enc_all_engines() {
    check_all_engines(&softcache::workloads::by_name("mpeg2enc").unwrap());
}

/// A system object can run its program more than once: each run starts
/// from a cold cache and a fresh fused-MC session, so the second run
/// repeats the first exactly — output, execution ledger and cache ledgers.
#[test]
fn compress95_reruns_on_one_system_are_identical() {
    let w = softcache::workloads::by_name("compress95").unwrap();
    let input = (w.gen_input)(4);
    let image = w.image(true);
    let icfg = |tcache_size| IcacheConfig {
        tcache_size,
        ..IcacheConfig::default()
    };
    let superblocks = ChunkStrategy::Superblock { max_blocks: 4 };
    let systems = [
        ("512 B", SoftIcacheSystem::new(image.clone(), icfg(512))),
        ("990 B", SoftIcacheSystem::new(image.clone(), icfg(990))),
        (
            "256 KiB",
            SoftIcacheSystem::new(image.clone(), icfg(256 * 1024)),
        ),
        (
            "superblocks",
            SoftIcacheSystem::new(image.clone(), IcacheConfig::default())
                .chunk_strategy(superblocks),
        ),
    ];
    for (tag, mut sys) in systems {
        let first = sys
            .run(&input)
            .unwrap_or_else(|e| panic!("{tag} run 1: {e}"));
        let second = sys
            .run(&input)
            .unwrap_or_else(|e| panic!("{tag} run 2: {e}"));
        assert_eq!(second.exit_code, first.exit_code, "{tag} exit");
        assert_eq!(second.output, first.output, "{tag} output");
        assert_eq!(second.exec, first.exec, "{tag} exec ledger");
        assert_eq!(second.cache, first.cache, "{tag} cache ledger");
    }

    let mut full = FullSoftCacheSystem::new(
        image,
        IcacheConfig::default(),
        DcacheConfig::default(),
        ScacheConfig::default(),
    );
    let first = full
        .run(&input)
        .unwrap_or_else(|e| panic!("full run 1: {e}"));
    let second = full
        .run(&input)
        .unwrap_or_else(|e| panic!("full run 2: {e}"));
    assert_eq!(second.exit_code, first.exit_code, "full exit");
    assert_eq!(second.output, first.output, "full output");
    assert_eq!(second.exec, first.exec, "full exec ledger");
    assert_eq!(second.icache, first.icache, "full icache ledger");
    assert_eq!(second.dcache, first.dcache, "full dcache ledger");
    assert_eq!(second.scache, first.scache, "full scache ledger");
}

#[test]
fn workload_roster_is_complete() {
    let names: Vec<&str> = all().iter().map(|w| w.name).collect();
    for expected in [
        "compress95",
        "adpcmenc",
        "adpcmdec",
        "gzip",
        "cjpeg",
        "hextobdd",
        "mpeg2enc",
    ] {
        assert!(names.contains(&expected), "missing {expected}");
    }
}
