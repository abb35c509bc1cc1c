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

    /// Deep recursion through one `ret` shared by two call sites: stats
    /// match the slow path, and only the two returns into not-yet-lowered
    /// code break their trace.
    #[test]
    fn deep_recursion_returns_match_slow_path(depth in 1u32..40) {
        let src = format!(
            "_start: li a0, {depth}\n jal .Lrec\n mv a0, t1\n ecall 0\n\
             .Lrec: addi t1, t1, 1\n beqz a0, .Lbase\n\
             addi sp, sp, -8\n sw ra, 0(sp)\n addi a0, a0, -1\n jal .Lrec\n\
             lw ra, 0(sp)\n addi sp, sp, 8\n\
             .Lbase: ret"
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
        prop_assert_eq!(fast_exit, depth as i32 + 1, "one bump per call");
        let t = fast.trace;
        prop_assert_eq!(
            t.entries,
            t.breaks.total() + t.code_write_exits + t.fault_exits,
            "walk entries balance walk exits"
        );
        prop_assert!(t.breaks.ret <= 2, "{t:?}");
    }

    /// A loop that stores over an instruction *inside its own block* every
    /// iteration: the handler array was lowered from the old words, so
    /// the store's code-write exit must retire exactly the prefix, the
    /// generation barrier must drop the stale block, and the re-lowered
    /// block must execute the freshly written word — bit-identical to the
    /// slow path, cycles included.
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
            fast.trace.tier_threaded_insts > 0 && fast.trace.demotions > 0,
            "loop must run threaded and drop its patched block: {:?}",
            fast.trace
        );
    }

    /// A loop of recursive calls through one `ret` shared by two call
    /// sites, with a store and a load per level: the engine matches the
    /// slow path in exit, output, pc and every statistic, the walk ledger
    /// balances, and every instruction is tallied once — in a threaded
    /// block, or on the cold tier.
    #[test]
    fn recursive_call_loop_matches_slow_path(
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
        let mut fast = Machine::load_native(&image, &[]);
        let fast_exit = fast.run_native(10_000_000).unwrap();
        let mut slow = Machine::load_native(&image, &[]);
        let slow_exit = loop {
            match slow.step().unwrap() {
                Step::Running => {}
                Step::Exited(code) => break code,
                s => return Err(TestCaseError::fail(format!("{s:?}"))),
            }
        };
        prop_assert_eq!(fast_exit, slow_exit);
        prop_assert_eq!(fast_exit, (n * (depth + 1)) as i32, "one bump per call");
        prop_assert_eq!(fast.stats, slow.stats, "stats diverged");
        prop_assert_eq!(fast.cpu.pc, slow.cpu.pc);
        prop_assert_eq!(&fast.env.output, &slow.env.output);
        let t = fast.trace;
        prop_assert_eq!(
            t.entries,
            t.breaks.total() + t.code_write_exits + t.fault_exits,
            "walk entries balance walk exits: {:?}", t
        );
        // No trap ends a native run, and `exit` retires in its block.
        prop_assert_eq!(
            t.tier_threaded_insts + t.tier_interp_insts,
            fast.stats.instructions,
            "tier tallies conserve retirement: {:?}", t
        );
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

proptest! {
    // The engine's one differential test on garbage programs, with three
    // times the case budget of the tests above.
    #![proptest_config(ProptestConfig::with_cases(768))]

    /// Threaded blocks are step-for-step identical to the slow path on
    /// arbitrary programs with interleaved external backpatches: every
    /// generation bump drops stale handler arrays via the stamp barrier,
    /// and the in-chain sentinels leave the walk ledger balanced.
    #[test]
    fn threaded_blocks_match_slow_path_on_garbage(
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
                catch_up(&fast, &mut slow, &f)?;
                if !matches!(f, Ok(Step::Running)) {
                    break 'outer;
                }
            }
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
        let t = fast.trace;
        prop_assert_eq!(
            t.entries,
            t.breaks.total() + t.code_write_exits + t.fault_exits,
            "walk entries balance walk exits: {:?}", t
        );
    }
}
