//! Property tests for the machine simulator: no input — even adversarial
//! garbage memory — may panic the interpreter; faults must surface as
//! typed errors. The production engine (`Machine::run_block`) must match
//! the reference interpreter (`Machine::step`, called `slow` below) in
//! every outcome, fault, counter and cycle.

use proptest::prelude::*;
use softcache_sim::{Cpu, Machine, Memory, RunError, Step};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Stepping a CPU over arbitrary memory never panics: every word
    /// either executes, traps, or produces a typed error.
    #[test]
    fn cpu_never_panics_on_garbage(
        words in prop::collection::vec(any::<u32>(), 1..64),
        start in 0u32..32,
    ) {
        let mut mem = Memory::new(4096);
        mem.write_words(0, &words).unwrap();
        let mut cpu = Cpu::new((start % words.len() as u32) * 4);
        for _ in 0..200 {
            match cpu.step(&mut mem) {
                Ok(_) => {}
                Err(_) => break, // typed fault: fine
            }
        }
    }

    /// The same holds at the Machine level (with ecall servicing).
    #[test]
    fn machine_never_panics_on_garbage(
        words in prop::collection::vec(any::<u32>(), 1..64),
    ) {
        let image = softcache_isa::Image {
            entry: softcache_isa::layout::TEXT_BASE,
            text_base: softcache_isa::layout::TEXT_BASE,
            text: words,
            data_base: softcache_isa::layout::DATA_BASE,
            data: vec![],
            symbols: vec![],
        };
        let mut m = Machine::load_native(&image, b"xyz");
        for _ in 0..500 {
            match m.step() {
                Ok(Step::Running) => {}
                Ok(_) | Err(_) => break,
            }
        }
    }

    /// The batched block runner (`run_native`) matches the reference
    /// interpreter on well-formed programs run to completion.
    #[test]
    fn block_runner_matches_slow_path_on_real_programs(
        n in 1u32..120,
        stride in 1i32..7,
    ) {
        let src = format!(
            "_start: li t0, {n}\n li t1, 0\n.Ll: addi t1, t1, {stride}\n \
             addi t0, t0, -1\n bnez t0, .Ll\n mv a0, t1\n ecall 0"
        );
        let image = softcache_asm::assemble(&src).unwrap();
        let mut fast = Machine::load_native(&image, &[]);
        let fast_exit = fast.run_native(1_000_000).unwrap();
        let mut slow = Machine::load_native(&image, &[]);
        let slow_exit = loop {
            match slow.step().unwrap() {
                Step::Running => {}
                Step::Exited(code) => break code,
                s => return Err(TestCaseError::fail(format!("{s:?}"))),
            }
        };
        prop_assert_eq!(fast_exit, slow_exit);
        prop_assert_eq!(fast.stats, slow.stats, "stats diverged");
        prop_assert_eq!(fast_exit, n as i32 * stride);
    }

    /// The superblock micro-op engine (`run_block`) is step-for-step
    /// identical to the reference interpreter (`step`) on arbitrary
    /// programs — same retired counts, same faults, same stats — with
    /// external backpatches interleaved (as the CC does) and with varying
    /// block budgets so superblocks split at every possible boundary.
    #[test]
    fn superblock_engine_matches_slow_path_on_garbage(
        words in prop::collection::vec(any::<u32>(), 1..64),
        patches in prop::collection::vec((0u32..64, any::<u32>()), 0..4),
        budget in 1u64..9,
    ) {
        let image = softcache_isa::Image {
            entry: softcache_isa::layout::TEXT_BASE,
            text_base: softcache_isa::layout::TEXT_BASE,
            text: words.clone(),
            data_base: softcache_isa::layout::DATA_BASE,
            data: vec![],
            symbols: vec![],
        };
        let mut fast = Machine::load_native(&image, b"in");
        let mut slow = Machine::load_native(&image, b"in");
        // Drive `fast` in `budget`-sized run_block bites and hold `slow`
        // at the same retired-instruction count after every bite.
        let catch_up = |fast: &Machine, slow: &mut Machine,
                            f: &Result<Step, softcache_sim::SimError>|
         -> Result<(), TestCaseError> {
            // Every Ok step retires exactly one instruction (terminal ones
            // included); Err steps retire none. So the catch-up loop ends on
            // the outcome matching `f`.
            let mut last = Ok(Step::Running);
            while slow.stats.instructions < fast.stats.instructions {
                last = slow.step();
                prop_assert!(
                    last.is_ok(),
                    "slow faulted while behind: {last:?} at {} < {} (fast: {f:?})",
                    slow.stats.instructions, fast.stats.instructions
                );
            }
            if f.is_err() {
                // A fault does not retire the faulting instruction, so the
                // counters already agree; the next slow step must fault
                // identically.
                let s = slow.step();
                prop_assert_eq!(f, &s, "fault diverged");
            } else {
                prop_assert_eq!(f, &last, "step outcome diverged");
            }
            prop_assert_eq!(fast.stats, slow.stats, "stats diverged");
            prop_assert_eq!(fast.cpu.pc, slow.cpu.pc, "pc diverged");
            Ok(())
        };
        'outer: for (i, &(slot, val)) in patches.iter().enumerate() {
            for _ in 0..(10 * (i + 1)) {
                let f = fast.run_block(budget);
                catch_up(&fast, &mut slow, &f)?;
                if !matches!(f, Ok(Step::Running)) {
                    break 'outer;
                }
            }
            // External backpatch, exactly as the cache controller writes
            // a translated branch word mid-run.
            let addr = image.text_base + (slot % words.len() as u32) * 4;
            let _ = fast.mem.write_u32(addr, val);
            let _ = slow.mem.write_u32(addr, val);
        }
        for _ in 0..100 {
            let f = fast.run_block(budget);
            catch_up(&fast, &mut slow, &f)?;
            if !matches!(f, Ok(Step::Running)) {
                break;
            }
        }
        prop_assert_eq!(fast.env.output, slow.env.output, "output diverged");
    }

    /// A loop that stores over an instruction *later in its own
    /// superblock* every iteration: the mid-block code-write exit must
    /// retire exactly the prefix, resync, and execute the freshly written
    /// word — bit-identical to the slow path (cycles included).
    #[test]
    fn superblock_engine_matches_slow_path_on_self_patching_loop(
        n in 1u32..60,
        k in 2i32..50,
    ) {
        use softcache_isa::{AluOp, Inst, Reg};
        let patched = softcache_isa::encode(Inst::AluImm {
            op: AluOp::Add,
            rd: Reg::T1,
            rs1: Reg::T1,
            imm: k,
        });
        let src = format!(
            "_start: li t0, {n}\n li t1, 0\n la s0, .Lsite\n li s1, {patched}\n\
             .Ll: sw s1, 0(s0)\n\
             .Lsite: addi t1, t1, 1\n\
             addi t0, t0, -1\n bnez t0, .Ll\n mv a0, t1\n ecall 0"
        );
        let image = softcache_asm::assemble(&src).unwrap();
        let mut fast = Machine::load_native(&image, &[]);
        let fast_exit = fast.run_native(1_000_000).unwrap();
        let mut slow = Machine::load_native(&image, &[]);
        let slow_exit = loop {
            match slow.step().unwrap() {
                Step::Running => {}
                Step::Exited(code) => break code,
                s => return Err(TestCaseError::fail(format!("{s:?}"))),
            }
        };
        prop_assert_eq!(fast_exit, slow_exit);
        prop_assert_eq!(fast.stats, slow.stats, "stats diverged");
        // The store lands before .Lsite executes, so every iteration adds
        // the *patched* immediate.
        prop_assert_eq!(fast_exit, n as i32 * k);
    }

    /// Superblock *chaining* (trace formation) is step-for-step identical
    /// to both the unchained engine and the slow path on arbitrary
    /// programs with interleaved external backpatches. Budgets are large
    /// enough that traces genuinely chain (several blocks per
    /// `run_block`), and every backpatch bumps the code generation, so
    /// stamped links form, sever, and re-form throughout the run.
    #[test]
    fn chained_traces_match_slow_path_on_garbage(
        words in prop::collection::vec(any::<u32>(), 1..64),
        patches in prop::collection::vec((0u32..64, any::<u32>()), 0..4),
        budget in 16u64..96,
    ) {
        let image = softcache_isa::Image {
            entry: softcache_isa::layout::TEXT_BASE,
            text_base: softcache_isa::layout::TEXT_BASE,
            text: words.clone(),
            data_base: softcache_isa::layout::DATA_BASE,
            data: vec![],
            symbols: vec![],
        };
        let mut fast = Machine::load_native(&image, b"in");
        let mut nolink = Machine::load_native(&image, b"in");
        nolink.set_chaining_enabled(false);
        let mut slow = Machine::load_native(&image, b"in");
        let catch_up = |fast: &Machine, slow: &mut Machine,
                            f: &Result<Step, softcache_sim::SimError>|
         -> Result<(), TestCaseError> {
            let mut last = Ok(Step::Running);
            while slow.stats.instructions < fast.stats.instructions {
                last = slow.step();
                prop_assert!(
                    last.is_ok(),
                    "slow faulted while behind: {last:?} (fast: {f:?})"
                );
            }
            if f.is_err() {
                let s = slow.step();
                prop_assert_eq!(f, &s, "fault diverged");
            } else {
                prop_assert_eq!(f, &last, "step outcome diverged");
            }
            prop_assert_eq!(fast.stats, slow.stats, "stats diverged");
            prop_assert_eq!(fast.cpu.pc, slow.cpu.pc, "pc diverged");
            Ok(())
        };
        'outer: for (i, &(slot, val)) in patches.iter().enumerate() {
            for _ in 0..(10 * (i + 1)) {
                let f = fast.run_block(budget);
                let n = nolink.run_block(budget);
                prop_assert_eq!(&f, &n, "chained vs unchained outcome diverged");
                prop_assert_eq!(fast.stats, nolink.stats, "chained vs unchained stats");
                catch_up(&fast, &mut slow, &f)?;
                if !matches!(f, Ok(Step::Running)) {
                    break 'outer;
                }
            }
            let addr = image.text_base + (slot % words.len() as u32) * 4;
            let _ = fast.mem.write_u32(addr, val);
            let _ = nolink.mem.write_u32(addr, val);
            let _ = slow.mem.write_u32(addr, val);
        }
        for _ in 0..100 {
            let f = fast.run_block(budget);
            let n = nolink.run_block(budget);
            prop_assert_eq!(&f, &n, "chained vs unchained outcome diverged");
            prop_assert_eq!(fast.stats, nolink.stats, "chained vs unchained stats");
            catch_up(&fast, &mut slow, &f)?;
            if !matches!(f, Ok(Step::Running)) {
                break;
            }
        }
        prop_assert_eq!(fast.env.output, slow.env.output, "output diverged");
    }

    /// A loop whose first block stores over an instruction in its
    /// *successor* block every iteration: the store's generation bump
    /// severs the chain link mid-trace, the code-write exit retires
    /// exactly the prefix, and the freshly patched successor executes its
    /// new word — bit-identical to the slow path, cycles included. The
    /// `j .Lmid` terminator makes the patched site live in a *different*
    /// superblock from the store (the chained leg), unlike the
    /// self-patching-loop test where the store and site share a block.
    #[test]
    fn chained_trace_severs_link_when_successor_block_is_patched(
        n in 1u32..60,
        k in 2i32..50,
    ) {
        use softcache_isa::{AluOp, Inst, Reg};
        let patched = softcache_isa::encode(Inst::AluImm {
            op: AluOp::Add,
            rd: Reg::T1,
            rs1: Reg::T1,
            imm: k,
        });
        let src = format!(
            "_start: li t0, {n}\n li t1, 0\n la s0, .Lsite\n li s1, {patched}\n\
             .Ll: sw s1, 0(s0)\n j .Lmid\n\
             .Lmid: addi t1, t1, 1\n\
             .Lsite: addi t1, t1, 0\n\
             addi t0, t0, -1\n bnez t0, .Ll\n mv a0, t1\n ecall 0"
        );
        let image = softcache_asm::assemble(&src).unwrap();
        let mut fast = Machine::load_native(&image, &[]);
        let fast_exit = fast.run_native(1_000_000).unwrap();
        let mut slow = Machine::load_native(&image, &[]);
        let slow_exit = loop {
            match slow.step().unwrap() {
                Step::Running => {}
                Step::Exited(code) => break code,
                s => return Err(TestCaseError::fail(format!("{s:?}"))),
            }
        };
        prop_assert_eq!(fast_exit, slow_exit);
        prop_assert_eq!(fast.stats, slow.stats, "stats diverged");
        // The store lands before the successor block runs, so every
        // iteration (the first included) adds 1 + the patched immediate.
        prop_assert_eq!(fast_exit, n as i32 * (1 + k));
    }

    /// The indirect-branch inline caches are step-for-step
    /// identical to the IC-less chained engine and to the slow path on
    /// arbitrary programs with interleaved external backpatches: every
    /// cached indirect target is severed by the generation stamp the
    /// moment anything is patched, and a wrong prediction only costs the
    /// chain, never architectural state.
    #[test]
    fn indirect_ic_matches_slow_path_on_garbage(
        words in prop::collection::vec(any::<u32>(), 1..64),
        patches in prop::collection::vec((0u32..64, any::<u32>()), 0..4),
        budget in 16u64..96,
    ) {
        let image = softcache_isa::Image {
            entry: softcache_isa::layout::TEXT_BASE,
            text_base: softcache_isa::layout::TEXT_BASE,
            text: words.clone(),
            data_base: softcache_isa::layout::DATA_BASE,
            data: vec![],
            symbols: vec![],
        };
        // Defaults: chaining + indirect ICs on.
        let mut fast = Machine::load_native(&image, b"in");
        // Chained but with the inline caches off.
        let mut noic = Machine::load_native(&image, b"in");
        noic.set_indirect_ic_enabled(false);
        let mut slow = Machine::load_native(&image, b"in");
        let catch_up = |fast: &Machine, slow: &mut Machine,
                            f: &Result<Step, softcache_sim::SimError>|
         -> Result<(), TestCaseError> {
            let mut last = Ok(Step::Running);
            while slow.stats.instructions < fast.stats.instructions {
                last = slow.step();
                prop_assert!(
                    last.is_ok(),
                    "slow faulted while behind: {last:?} (fast: {f:?})"
                );
            }
            if f.is_err() {
                let s = slow.step();
                prop_assert_eq!(f, &s, "fault diverged");
            } else {
                prop_assert_eq!(f, &last, "step outcome diverged");
            }
            prop_assert_eq!(fast.stats, slow.stats, "stats diverged");
            prop_assert_eq!(fast.cpu.pc, slow.cpu.pc, "pc diverged");
            Ok(())
        };
        'outer: for (i, &(slot, val)) in patches.iter().enumerate() {
            for _ in 0..(10 * (i + 1)) {
                let f = fast.run_block(budget);
                let n = noic.run_block(budget);
                prop_assert_eq!(&f, &n, "IC-on vs IC-off outcome diverged");
                prop_assert_eq!(fast.stats, noic.stats, "IC-on vs IC-off stats");
                catch_up(&fast, &mut slow, &f)?;
                if !matches!(f, Ok(Step::Running)) {
                    break 'outer;
                }
            }
            let addr = image.text_base + (slot % words.len() as u32) * 4;
            let _ = fast.mem.write_u32(addr, val);
            let _ = noic.mem.write_u32(addr, val);
            let _ = slow.mem.write_u32(addr, val);
        }
        for _ in 0..100 {
            let f = fast.run_block(budget);
            let n = noic.run_block(budget);
            prop_assert_eq!(&f, &n, "IC-on vs IC-off outcome diverged");
            prop_assert_eq!(fast.stats, noic.stats, "IC-on vs IC-off stats");
            catch_up(&fast, &mut slow, &f)?;
            if !matches!(f, Ok(Step::Running)) {
                break;
            }
        }
        prop_assert_eq!(fast.env.output, slow.env.output, "output diverged");
        prop_assert_eq!(noic.trace.ic_hits, 0, "disabled IC must never fire");
    }

    /// A loop that patches an instruction *inside the target block of a
    /// cached indirect* every iteration: the store's generation bump must
    /// sever the `jr` site's inline-cached link (stamp compare), and the
    /// refilled cache must point at the freshly lowered target — the
    /// patched word executes, bit-identical to the slow path.
    #[test]
    fn cached_indirect_target_patch_severs_via_stamp(
        n in 1u32..60,
        k in 2i32..50,
    ) {
        use softcache_isa::{AluOp, Inst, Reg};
        let patched = softcache_isa::encode(Inst::AluImm {
            op: AluOp::Add,
            rd: Reg::T1,
            rs1: Reg::T1,
            imm: k,
        });
        let src = format!(
            "_start: li t0, {n}\n li t1, 0\n la s0, .Ltgt\n la s2, .Lsite\n li s1, {patched}\n\
             .Ll: sw s1, 0(s2)\n jr s0\n\
             .Ltgt: addi t1, t1, 1\n\
             .Lsite: addi t1, t1, 0\n\
             addi t0, t0, -1\n bnez t0, .Ll\n mv a0, t1\n ecall 0"
        );
        let image = softcache_asm::assemble(&src).unwrap();
        let mut fast = Machine::load_native(&image, &[]);
        let fast_exit = fast.run_native(1_000_000).unwrap();
        let mut slow = Machine::load_native(&image, &[]);
        let slow_exit = loop {
            match slow.step().unwrap() {
                Step::Running => {}
                Step::Exited(code) => break code,
                s => return Err(TestCaseError::fail(format!("{s:?}"))),
            }
        };
        prop_assert_eq!(fast_exit, slow_exit);
        prop_assert_eq!(fast.stats, slow.stats, "stats diverged");
        // Every iteration patches before the jr lands, so the patched
        // immediate is always live when .Lsite executes.
        prop_assert_eq!(fast_exit, n as i32 * (1 + k));
    }

    /// A single `jr` site whose target alternates every iteration: the
    /// inline cache misses on the target compare each time and refills at
    /// the loop top — repeated refills, zero architectural effect.
    #[test]
    fn polymorphic_jr_target_refills_inline_cache(n in 1u32..40) {
        // Select the target branch-free (s3 = t0 & 1 ? .Lb : .La) so one
        // superblock hosts the `jr` for both targets — a control-flow
        // diamond would give each path its own (monomorphic) jr block.
        let src = format!(
            "_start: li t0, {}\n li t1, 0\n la s0, .La\n la s1, .Lb\n sub s2, s1, s0\n\
             .Ll: andi t2, t0, 1\n mul t3, t2, s2\n add s3, s0, t3\n jr s3\n\
             .La: addi t1, t1, 1\n j .Lnext\n\
             .Lb: addi t1, t1, 2\n\
             .Lnext: addi t0, t0, -1\n bnez t0, .Ll\n mv a0, t1\n ecall 0",
            2 * n
        );
        let image = softcache_asm::assemble(&src).unwrap();
        let mut fast = Machine::load_native(&image, &[]);
        let fast_exit = fast.run_native(1_000_000).unwrap();
        let mut slow = Machine::load_native(&image, &[]);
        let slow_exit = loop {
            match slow.step().unwrap() {
                Step::Running => {}
                Step::Exited(code) => break code,
                s => return Err(TestCaseError::fail(format!("{s:?}"))),
            }
        };
        prop_assert_eq!(fast_exit, slow_exit);
        prop_assert_eq!(fast.stats, slow.stats, "stats diverged");
        // n even iterations add 1, n odd iterations add 2.
        prop_assert_eq!(fast_exit, 3 * n as i32);
        // The alternating target defeats the single-entry cache: it
        // refills (at least) once per target change after the first.
        prop_assert!(
            fast.trace.ic_fills as i64 >= n as i64 - 2,
            "expected repeated IC refills, got {} for n={n}",
            fast.trace.ic_fills
        );
    }

    /// Deep recursion through one `ret` shared by two call sites, with
    /// the inline cache on and off: stats match the slow path either way.
    /// With the cache on, only the two returns into not-yet-lowered code
    /// break their trace; with it off, every return does.
    #[test]
    fn deep_recursion_returns_match_slow_path(
        depth in 1u32..40,
        indirect_ic in any::<bool>(),
    ) {
        let src = format!(
            "_start: li a0, {depth}\n jal .Lrec\n mv a0, t1\n ecall 0\n\
             .Lrec: addi t1, t1, 1\n beqz a0, .Lbase\n\
             addi sp, sp, -8\n sw ra, 0(sp)\n addi a0, a0, -1\n jal .Lrec\n\
             lw ra, 0(sp)\n addi sp, sp, 8\n\
             .Lbase: ret"
        );
        let image = softcache_asm::assemble(&src).unwrap();
        let mut fast = Machine::load_native(&image, &[]);
        fast.set_indirect_ic_enabled(indirect_ic);
        let fast_exit = fast.run_native(1_000_000).unwrap();
        let mut slow = Machine::load_native(&image, &[]);
        let slow_exit = loop {
            match slow.step().unwrap() {
                Step::Running => {}
                Step::Exited(code) => break code,
                s => return Err(TestCaseError::fail(format!("{s:?}"))),
            }
        };
        prop_assert_eq!(fast_exit, slow_exit);
        prop_assert_eq!(fast.stats, slow.stats, "stats diverged");
        prop_assert_eq!(fast_exit, depth as i32 + 1, "one bump per call");
        let t = fast.trace;
        prop_assert_eq!(
            t.entries,
            t.breaks.total() + t.code_write_exits + t.fault_exits,
            "walk entries balance walk exits"
        );
        if indirect_ic {
            prop_assert!(t.breaks.ret <= 2, "{t:?}");
        } else {
            prop_assert_eq!(t.breaks.ret, u64::from(depth) + 1, "{:?}", t);
        }
    }

    /// The threaded dispatch tier (promotion threshold 0: every superblock
    /// lowers to a handler array immediately) is step-for-step identical to
    /// the match-dispatched superblock engine and to the slow path on
    /// arbitrary programs with interleaved external backpatches. Every
    /// generation bump demotes stale threaded bodies via the stamp
    /// barrier, and the in-chain sentinels must leave the trace ledger
    /// bit-identical to the walk's own link and inline-cache checks.
    #[test]
    fn threaded_tier_matches_slow_path_on_garbage(
        words in prop::collection::vec(any::<u32>(), 1..64),
        patches in prop::collection::vec((0u32..64, any::<u32>()), 0..4),
        budget in 16u64..96,
    ) {
        let image = softcache_isa::Image {
            entry: softcache_isa::layout::TEXT_BASE,
            text_base: softcache_isa::layout::TEXT_BASE,
            text: words.clone(),
            data_base: softcache_isa::layout::DATA_BASE,
            data: vec![],
            symbols: vec![],
        };
        // Everything threads on first execution.
        let mut thr = Machine::load_native(&image, b"in");
        thr.set_threaded_threshold(0);
        // The tier fully suppressed: pure match dispatch.
        let mut off = Machine::load_native(&image, b"in");
        off.set_threaded_threshold(softcache_sim::THREADED_NEVER);
        let mut slow = Machine::load_native(&image, b"in");
        let catch_up = |thr: &Machine, slow: &mut Machine,
                            f: &Result<Step, softcache_sim::SimError>|
         -> Result<(), TestCaseError> {
            let mut last = Ok(Step::Running);
            while slow.stats.instructions < thr.stats.instructions {
                last = slow.step();
                prop_assert!(
                    last.is_ok(),
                    "slow faulted while behind: {last:?} (threaded: {f:?})"
                );
            }
            if f.is_err() {
                let s = slow.step();
                prop_assert_eq!(f, &s, "fault diverged");
            } else {
                prop_assert_eq!(f, &last, "step outcome diverged");
            }
            prop_assert_eq!(thr.stats, slow.stats, "stats diverged");
            prop_assert_eq!(thr.cpu.pc, slow.cpu.pc, "pc diverged");
            Ok(())
        };
        'outer: for (i, &(slot, val)) in patches.iter().enumerate() {
            for _ in 0..(10 * (i + 1)) {
                let f = thr.run_block(budget);
                let n = off.run_block(budget);
                prop_assert_eq!(&f, &n, "threaded vs match outcome diverged");
                prop_assert_eq!(thr.stats, off.stats, "threaded vs match stats");
                catch_up(&thr, &mut slow, &f)?;
                if !matches!(f, Ok(Step::Running)) {
                    break 'outer;
                }
            }
            let addr = image.text_base + (slot % words.len() as u32) * 4;
            let _ = thr.mem.write_u32(addr, val);
            let _ = off.mem.write_u32(addr, val);
            let _ = slow.mem.write_u32(addr, val);
        }
        for _ in 0..100 {
            let f = thr.run_block(budget);
            let n = off.run_block(budget);
            prop_assert_eq!(&f, &n, "threaded vs match outcome diverged");
            prop_assert_eq!(thr.stats, off.stats, "threaded vs match stats");
            catch_up(&thr, &mut slow, &f)?;
            if !matches!(f, Ok(Step::Running)) {
                break;
            }
        }
        prop_assert_eq!(thr.env.output, slow.env.output, "output diverged");
        // The dispatch strategy must not perturb the trace ledger: same
        // walk entries, same chain transitions, same break profile, same
        // inline-cache hits — only the tier tallies may differ.
        prop_assert_eq!(thr.trace.entries, off.trace.entries);
        prop_assert_eq!(thr.trace.chained, off.trace.chained);
        prop_assert_eq!(thr.trace.breaks, off.trace.breaks);
        prop_assert_eq!(thr.trace.ic_hits, off.trace.ic_hits);
        prop_assert_eq!(off.trace.tier_threaded_insts, 0,
            "suppressed tier must retire nothing");
    }

    /// A loop that stores over an instruction *inside its own threaded
    /// block* every iteration: the handler array was lowered from the old
    /// words, so the store's code-write exit must retire exactly the
    /// prefix, the generation barrier must demote the stale body, and the
    /// re-lowered block must execute the freshly written word —
    /// bit-identical to the slow path, cycles included.
    #[test]
    fn threaded_block_self_patch_demotes_and_relowers(
        n in 1u32..60,
        k in 2i32..50,
    ) {
        use softcache_isa::{AluOp, Inst, Reg};
        let patched = softcache_isa::encode(Inst::AluImm {
            op: AluOp::Add,
            rd: Reg::T1,
            rs1: Reg::T1,
            imm: k,
        });
        let src = format!(
            "_start: li t0, {n}\n li t1, 0\n la s0, .Lsite\n li s1, {patched}\n\
             .Ll: sw s1, 0(s0)\n\
             .Lsite: addi t1, t1, 1\n\
             addi t0, t0, -1\n bnez t0, .Ll\n mv a0, t1\n ecall 0"
        );
        let image = softcache_asm::assemble(&src).unwrap();
        let mut fast = Machine::load_native(&image, &[]);
        fast.set_threaded_threshold(0);
        let fast_exit = fast.run_native(1_000_000).unwrap();
        let mut slow = Machine::load_native(&image, &[]);
        let slow_exit = loop {
            match slow.step().unwrap() {
                Step::Running => {}
                Step::Exited(code) => break code,
                s => return Err(TestCaseError::fail(format!("{s:?}"))),
            }
        };
        prop_assert_eq!(fast_exit, slow_exit);
        prop_assert_eq!(fast.stats, slow.stats, "stats diverged");
        prop_assert_eq!(fast_exit, n as i32 * k);
        prop_assert!(
            fast.trace.tier_threaded_insts > 0,
            "loop must actually run threaded: {:?}",
            fast.trace
        );
    }

    /// Promotion-threshold sweep: instant promotion (0), the default lazy
    /// threshold, and full suppression (`THREADED_NEVER`) are bit-identical
    /// in architectural state, ExecStats, and the trace ledger on real
    /// programs — hotness only moves retirement between tier tallies.
    #[test]
    fn promotion_threshold_sweep_is_bit_identical(
        n in 1u32..80,
        depth in 1u32..12,
    ) {
        let src = format!(
            "_start: li t0, {n}\n li t1, 0\n\
             .Ll: mv a0, zero\n li a0, {depth}\n jal .Lrec\n\
             addi t0, t0, -1\n bnez t0, .Ll\n mv a0, t1\n ecall 0\n\
             .Lrec: addi t1, t1, 1\n beqz a0, .Lbase\n\
             addi sp, sp, -8\n sw ra, 0(sp)\n addi a0, a0, -1\n jal .Lrec\n\
             lw ra, 0(sp)\n addi sp, sp, 8\n\
             .Lbase: ret"
        );
        let image = softcache_asm::assemble(&src).unwrap();
        let mut runs = Vec::new();
        for threshold in [0, softcache_sim::DEFAULT_THREADED_THRESHOLD, softcache_sim::THREADED_NEVER] {
            let mut m = Machine::load_native(&image, &[]);
            m.set_threaded_threshold(threshold);
            let exit = m.run_native(10_000_000).unwrap();
            runs.push((threshold, exit, m));
        }
        let (_, exit0, m0) = &runs[0];
        for (threshold, exit, m) in &runs[1..] {
            prop_assert_eq!(exit, exit0, "exit diverged at threshold {}", threshold);
            prop_assert_eq!(&m.stats, &m0.stats, "stats diverged at threshold {}", threshold);
            prop_assert_eq!(m.cpu.pc, m0.cpu.pc);
            prop_assert_eq!(&m.env.output, &m0.env.output);
            prop_assert_eq!(m.trace.entries, m0.trace.entries);
            prop_assert_eq!(m.trace.chained, m0.trace.chained);
            prop_assert_eq!(&m.trace.breaks, &m0.trace.breaks);
            prop_assert_eq!(m.trace.ic_hits, m0.trace.ic_hits);
        }
        // The tallies themselves shift with the threshold: instant
        // promotion retires everything the superblock tier would have.
        let all = m0.trace.tier_threaded_insts + m0.trace.tier_super_insts;
        prop_assert_eq!(m0.trace.tier_super_insts, 0, "thr=0 leaves nothing unthreaded");
        let (_, _, m_never) = &runs[2];
        prop_assert_eq!(m_never.trace.tier_threaded_insts, 0);
        prop_assert_eq!(m_never.trace.tier_super_insts + m_never.trace.tier_interp_insts,
            all + m0.trace.tier_interp_insts, "tier tallies conserve retirement");
    }

    /// Precise invalidation against the slow path: a loop body of 2–40
    /// straight-line `addi t1, t1, imm` words lowers to superblocks that
    /// cover several body slots each, and external backpatches rewrite
    /// body slots with fresh `addi`s between `run_block` bites. A write
    /// must drop every block that depends on the patched word — blocks
    /// starting below it included — so later iterations add the patched
    /// immediate exactly as the slow path does: same stats and pc after
    /// every bite, same exit value.
    #[test]
    fn backpatched_loop_body_matches_slow_path(
        imms in prop::collection::vec(-512i32..512, 2..41),
        patches in prop::collection::vec((0usize..40, -512i32..512), 1..8),
        budget in 1u64..48,
    ) {
        use softcache_isa::{AluOp, Inst, Reg};
        let body: String = imms.iter().map(|imm| format!(" addi t1, t1, {imm}\n")).collect();
        let src = format!(
            "_start: li t0, 50\n li t1, 0\n\
             body:\n{body} addi t0, t0, -1\n bnez t0, body\n mv a0, t1\n ecall 0"
        );
        let image = softcache_asm::assemble(&src).unwrap();
        let body_at = image.symbol("body").unwrap().addr;
        let mut fast = Machine::load_native(&image, &[]);
        let mut slow = Machine::load_native(&image, &[]);
        let bite = |fast: &mut Machine, slow: &mut Machine| -> Result<Step, TestCaseError> {
            let f = fast.run_block(budget).unwrap();
            let mut s = Step::Running;
            while slow.stats.instructions < fast.stats.instructions {
                s = slow.step().unwrap();
            }
            prop_assert_eq!(f, s, "step outcome diverged");
            prop_assert_eq!(fast.stats, slow.stats, "stats diverged");
            prop_assert_eq!(fast.cpu.pc, slow.cpu.pc, "pc diverged");
            Ok(f)
        };
        let mut outcome = Step::Running;
        'patching: for &(slot, imm) in &patches {
            for _ in 0..3 {
                outcome = bite(&mut fast, &mut slow)?;
                if outcome != Step::Running {
                    break 'patching;
                }
            }
            let word = softcache_isa::encode(Inst::AluImm {
                op: AluOp::Add,
                rd: Reg::T1,
                rs1: Reg::T1,
                imm,
            });
            let addr = body_at + 4 * (slot % imms.len()) as u32;
            fast.mem.write_u32(addr, word).unwrap();
            slow.mem.write_u32(addr, word).unwrap();
        }
        while outcome == Step::Running {
            outcome = bite(&mut fast, &mut slow)?;
        }
        prop_assert!(matches!(outcome, Step::Exited(_)), "{outcome:?}");
        prop_assert_eq!(fast.cpu.get(Reg::A0), slow.cpu.get(Reg::A0), "exit value diverged");
    }

    /// Cycle accounting is monotone and at least one per instruction.
    #[test]
    fn cycles_dominate_instructions(n in 1u32..200) {
        let src = format!(
            "_start: li t0, {n}\n.Ll: addi t0, t0, -1\n bnez t0, .Ll\n li a0, 0\n ecall 0"
        );
        let image = softcache_asm::assemble(&src).unwrap();
        let mut m = Machine::load_native(&image, &[]);
        match m.run_native(1_000_000) {
            Ok(_) => {
                prop_assert!(m.stats.cycles >= m.stats.instructions);
                prop_assert_eq!(m.stats.taken_branches, (n - 1) as u64);
            }
            Err(RunError::OutOfFuel { .. }) => prop_assert!(false, "loop must terminate"),
            Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
        }
    }
}
