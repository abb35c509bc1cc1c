//! The superblock engine meets the rewriting runtime.
//!
//! The CC modifies tcache code at runtime: miss stubs are backpatched into
//! direct branches once the target chunk is resident, and invalidation
//! rewrites resident words back into stubs. `Machine::run_block` runs
//! lowered superblocks — the simulator's only cache of decoded code — so
//! these tests pin down the contract that every patch is observed: a stale
//! lowering would either loop on a dead stub or jump into reclaimed tcache
//! space. The reference interpreter (`Machine::step`) decodes every word
//! afresh and is the oracle.

use softcache_core::cc::{Cc, IcacheConfig, IcacheStats};
use softcache_core::endpoint::McEndpoint;
use softcache_core::mc::Mc;
use softcache_minic as minic;
use softcache_net::LinkModel;
use softcache_sim::{ExecStats, Machine, Step, Trap};

const SRC: &str = r#"
int mix(int x) { return x * 7 + 3; }
int spin(int x) {
    int i;
    for (i = 0; i < 40; i = i + 1) x = mix(x) % 9973;
    return x;
}
int main() {
    int i; int s;
    s = 1;
    for (i = 0; i < 50; i = i + 1) s = (s + spin(s + i)) % 100000;
    return s % 128;
}
"#;

fn client(tcache_size: u32) -> (Machine, Cc, McEndpoint) {
    let image = minic::compile_to_image(SRC, &minic::Options::default()).unwrap();
    let cfg = IcacheConfig {
        tcache_size,
        link: LinkModel::free(),
        ..IcacheConfig::default()
    };
    let mut machine = Machine::load_client(&image, &[]);
    let mut cc = Cc::new(cfg);
    let mut ep = McEndpoint::direct(Mc::new(image.clone()));
    let entry = cc.ensure(&mut machine, &mut ep, image.entry).unwrap();
    machine.cpu.pc = entry;
    (machine, cc, ep)
}

fn native_exit() -> i32 {
    let image = minic::compile_to_image(SRC, &minic::Options::default()).unwrap();
    let mut m = Machine::load_native(&image, &[]);
    m.run_native(200_000_000).unwrap()
}

/// Service a trap the way the client runtime does. Returns the exit code
/// once the program finishes.
fn service(step: Step, machine: &mut Machine, cc: &mut Cc, ep: &mut McEndpoint) -> Option<i32> {
    match step {
        Step::Running => None,
        Step::Exited(code) => Some(code),
        Step::Trapped(Trap::Miss { idx, .. }) => {
            cc.handle_miss(machine, ep, idx).unwrap();
            None
        }
        Step::Trapped(Trap::HashJump { target, .. })
        | Step::Trapped(Trap::HashCall { target, .. }) => {
            let tc = cc.hash_jump(machine, ep, target).unwrap();
            machine.cpu.pc = tc;
            None
        }
        Step::Trapped(t) => panic!("unexpected trap {t:?}"),
    }
}

/// Drive the client one `run_block` batch at a time until it exits.
fn run_blocks(machine: &mut Machine, cc: &mut Cc, ep: &mut McEndpoint) -> i32 {
    loop {
        let s = machine.run_block(Machine::BLOCK_STEPS).unwrap();
        if let Some(code) = service(s, machine, cc, ep) {
            return code;
        }
        assert!(machine.stats.instructions < 200_000_000, "runaway");
    }
}

/// A miss stub reached through lowered superblocks is backpatched by the
/// CC; the engine must observe the patched code, not its lowering of the
/// old words.
#[test]
fn backpatched_stub_is_observed_by_superblock_engine() {
    let (mut machine, mut cc, mut ep) = client(48 * 1024);

    // Drive the block engine until the first miss stub fires.
    let (idx, at) = loop {
        match machine.run_block(Machine::BLOCK_STEPS).unwrap() {
            Step::Running => {}
            Step::Trapped(Trap::Miss { idx, at }) => break (idx, at),
            s => {
                service(s, &mut machine, &mut cc, &mut ep);
            }
        }
    };

    // The trap proves the stub word was fetched and decoded.
    let stub_word = machine.mem.read_u32(at).unwrap();
    assert_eq!(
        softcache_isa::decode(stub_word).unwrap(),
        softcache_isa::Inst::Miss { idx },
        "trap came from a decoded miss stub"
    );
    assert!(
        machine.mem.is_code_watched(at),
        "tcache words sit behind the code-write barrier"
    );

    // Servicing the miss installs the target chunk and backpatches the
    // branch site that reached the stub — runtime writes into code the
    // engine has already lowered. Every such write must pass through the
    // generation barrier so stale superblocks are dropped.
    let gen_before = machine.mem.code_gen();
    cc.handle_miss(&mut machine, &mut ep, idx).unwrap();
    assert!(
        machine.mem.code_gen() > gen_before,
        "CC code writes bump the invalidation generation"
    );

    // Keep driving through the block engine. If a stale lowering were
    // replayed the program would re-trap on dead stubs or jump into
    // reclaimed space; instead it must run to the native answer and
    // exercise real backpatching along the way.
    let exit = run_blocks(&mut machine, &mut cc, &mut ep);
    assert!(cc.stats.patches > 0, "run exercised backpatching");
    assert_eq!(exit, native_exit(), "program semantics preserved");
}

/// A TRRIP tcache small enough that fills evict: freed spans keep their
/// lowered superblocks until the next install writes over them.
const EVICTING: u32 = 384;

/// Full differential run of the softcache client: the block engine
/// (`run_block`) against the reference interpreter (`step`) must agree
/// bit-for-bit — exit code, cycle count, every execution counter and every
/// CC statistic — at an ample tcache, at a thrashing one, and at one
/// where eviction frees spans that other chunks then refill.
#[test]
fn block_engine_client_matches_reference_exactly() {
    let run = |tcache_size: u32, engine: bool| -> (i32, ExecStats, IcacheStats) {
        let (mut machine, mut cc, mut ep) = client(tcache_size);
        let exit = if engine {
            run_blocks(&mut machine, &mut cc, &mut ep)
        } else {
            loop {
                let s = machine.step().unwrap();
                if let Some(code) = service(s, &mut machine, &mut cc, &mut ep) {
                    break code;
                }
                assert!(machine.stats.instructions < 200_000_000, "runaway");
            }
        };
        cc.finalize_prefetch();
        (exit, machine.stats, cc.stats)
    };
    let want = native_exit();
    for tcache_size in [8 * 1024, 2048, EVICTING] {
        let engine = run(tcache_size, true);
        let reference = run(tcache_size, false);
        assert_eq!(
            engine, reference,
            "{tcache_size} B: block engine diverged from the reference"
        );
        assert_eq!(
            engine.0, want,
            "{tcache_size} B: softcache run matches native"
        );
        assert!(
            engine.2.patches > 0,
            "{tcache_size} B: run exercised backpatching"
        );
        if tcache_size == EVICTING {
            assert!(engine.2.evictions > 0, "{tcache_size} B: run evicted");
        }
    }
}

/// The small-tcache regime forces eviction + retranslation: stub words are
/// rewritten back and forth while the engine keeps lowering them.
#[test]
fn thrashing_tcache_never_replays_stale_superblocks() {
    let want = native_exit();
    let (mut machine, mut cc, mut ep) = client(2048);
    let exit = run_blocks(&mut machine, &mut cc, &mut ep);
    assert_eq!(exit, want);
    assert!(cc.stats.flushes + cc.stats.chunk_invalidations > 0 || cc.stats.translations > 3);
}
