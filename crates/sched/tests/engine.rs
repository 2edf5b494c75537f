//! Behavioural tests of the simulator across the module split: these ran
//! against the monolithic `engine.rs` before the subsystem refactor and
//! must keep passing unchanged against the layered core.

use hbp_machine::MachineConfig;
use hbp_model::{BuildConfig, Builder, Computation, GArray};
use hbp_sched::{run, run_sequential, Policy};

/// The in-order-layout BP sum used across tests (paper §3.3).
fn bp_sum(n: usize, block: u64, padded: bool) -> Computation {
    let data: Vec<u64> = (0..n as u64).collect();
    let mut cfg = BuildConfig::with_block(block);
    if padded {
        cfg = cfg.padded();
    }
    Builder::build(cfg, n as u64, |b| {
        let a = b.input(&data);
        let out = b.alloc::<u64>(2 * n - 1);
        fn slot(lo: usize, hi: usize) -> usize {
            if hi - lo == 1 {
                2 * lo
            } else {
                2 * (lo + (hi - lo) / 2) - 1
            }
        }
        fn rec(b: &mut Builder, a: GArray<u64>, out: GArray<u64>, lo: usize, hi: usize) {
            if hi - lo == 1 {
                let v = b.read(a, lo);
                b.write(out, slot(lo, hi), v);
                return;
            }
            let mid = lo + (hi - lo) / 2;
            b.fork(
                (mid - lo) as u64,
                (hi - mid) as u64,
                |b| rec(b, a, out, lo, mid),
                |b| rec(b, a, out, mid, hi),
            );
            let v1 = b.read(out, slot(lo, mid));
            let v2 = b.read(out, slot(mid, hi));
            b.write(out, slot(lo, hi), v1 + v2);
        }
        rec(b, a, out, 0, n);
    })
}

#[test]
fn sequential_equals_parallel_with_one_core() {
    let comp = bp_sum(256, 32, false);
    let cfg = MachineConfig::new(1, 1 << 10, 32);
    let r = run(&comp, cfg, Policy::Pws);
    assert_eq!(r.steals, 0);
    assert_eq!(r.work, comp.work());
    assert_eq!(r.block_misses(), 0, "single core cannot block-miss");
}

#[test]
fn pws_executes_all_work_on_many_cores() {
    let comp = bp_sum(512, 32, false);
    for p in [2, 4, 8] {
        let cfg = MachineConfig::new(p, 1 << 10, 32);
        let r = run(&comp, cfg, Policy::Pws);
        assert_eq!(r.work, comp.work(), "p={p}");
        assert!(r.steals > 0, "p={p} should steal");
    }
}

#[test]
fn pws_is_deterministic() {
    let comp = bp_sum(512, 32, false);
    let cfg = MachineConfig::new(4, 1 << 10, 32);
    let r1 = run(&comp, cfg, Policy::Pws);
    let r2 = run(&comp, cfg, Policy::Pws);
    assert_eq!(r1.makespan, r2.makespan);
    assert_eq!(r1.steals, r2.steals);
    assert_eq!(r1.machine.total(), r2.machine.total());
    assert_eq!(r1.stolen_sizes, r2.stolen_sizes);
}

#[test]
fn rws_is_seed_deterministic() {
    let comp = bp_sum(512, 32, false);
    let cfg = MachineConfig::new(4, 1 << 10, 32);
    let a = run(&comp, cfg, Policy::Rws { seed: 7 });
    let b = run(&comp, cfg, Policy::Rws { seed: 7 });
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.steals, b.steals);
}

#[test]
fn pws_steals_at_most_p_minus_1_per_priority() {
    let comp = bp_sum(1024, 32, false);
    for p in [2, 4, 8, 16] {
        let cfg = MachineConfig::new(p, 1 << 12, 32);
        let r = run(&comp, cfg, Policy::Pws);
        assert!(
            r.max_steals_per_priority() <= (p as u64 - 1),
            "p={p}: {} steals at one priority",
            r.max_steals_per_priority()
        );
    }
}

#[test]
fn pws_steals_biggest_tasks_first() {
    let comp = bp_sum(1024, 32, false);
    let cfg = MachineConfig::new(4, 1 << 12, 32);
    let r = run(&comp, cfg, Policy::Pws);
    // Under PWS the first steal must be the biggest available task
    // (priority order ≈ size order); sizes must be non-increasing
    // within a factor 2 band along the steal sequence prefix.
    let first = r.stolen_sizes[0];
    assert!(first >= 256, "first stolen task is large, got {first}");
}

#[test]
fn parallel_speedup_on_uniform_work() {
    let comp = bp_sum(2048, 32, false);
    let m = 1 << 12;
    let seq = run_sequential(&comp, MachineConfig::new(1, m, 32));
    let par = run(&comp, MachineConfig::new(8, m, 32), Policy::Pws);
    assert!(
        par.makespan * 3 < seq.makespan,
        "8 cores should be >3x faster: {} vs {}",
        par.makespan,
        seq.makespan
    );
}

#[test]
fn work_conservation() {
    let comp = bp_sum(512, 32, false);
    let cfg = MachineConfig::new(4, 1 << 10, 32);
    let r = run(&comp, cfg, Policy::Pws);
    // Busy time = accesses + miss stalls + fork bookkeeping.
    let t = r.machine.total();
    let forks = comp.forks().count() as u64;
    let expect = t.accesses() + t.misses() * cfg.miss_cost() + forks;
    let busy: u64 = r.busy.iter().sum();
    assert_eq!(busy, expect);
}

#[test]
fn usurpations_occur_and_are_counted() {
    let comp = bp_sum(2048, 32, false);
    let cfg = MachineConfig::new(8, 1 << 10, 32);
    let r = run(&comp, cfg, Policy::Pws);
    // With steals there are joins completed by thieves.
    assert!(r.usurpations > 0);
    assert!(r.usurpations <= r.steals * 2);
}

#[test]
fn stack_sharing_produces_block_misses_unpadded() {
    // The up-pass writes into parent frames from thief cores: with
    // unpadded stacks on one region this must produce stack block
    // misses under multi-core PWS.
    let comp = bp_sum(2048, 32, false);
    let cfg = MachineConfig::new(8, 1 << 10, 32);
    let r = run(&comp, cfg, Policy::Pws);
    assert!(
        r.stack_block_misses + r.heap_block_misses > 0,
        "parallel run of a writing computation should block-miss somewhere"
    );
}

#[test]
fn padding_never_increases_stack_block_misses() {
    let plain = bp_sum(2048, 32, false);
    let padded = bp_sum(2048, 32, true);
    let cfg = MachineConfig::new(8, 1 << 12, 32);
    let rp = run(&plain, cfg, Policy::Pws);
    let rq = run(&padded, cfg, Policy::Pws);
    assert!(
        rq.stack_block_misses <= rp.stack_block_misses,
        "padding should not increase stack block misses: {} > {}",
        rq.stack_block_misses,
        rp.stack_block_misses
    );
}

#[test]
fn seq_report_matches_direct_q() {
    let comp = bp_sum(256, 32, false);
    let cfg = MachineConfig::new(8, 1 << 9, 32);
    let seq = run_sequential(&comp, cfg);
    assert!(seq.q_misses > 0);
    assert_eq!(seq.work, comp.work());
    assert_eq!(
        seq.makespan,
        seq.work + seq.q_misses * cfg.miss_cost() + comp.forks().count() as u64
    );
}

#[test]
fn bsp_steals_only_top_levels() {
    let comp = bp_sum(1024, 32, false);
    let cfg = MachineConfig::new(8, 1 << 12, 32);
    let levels = 4;
    let r = run(
        &comp,
        cfg,
        Policy::Bsp {
            prefix_levels: levels,
        },
    );
    assert_eq!(r.work, comp.work());
    // only tasks from the top `levels` priorities move: sizes ≥ n/2^4
    let min_size = r.stolen_sizes.iter().min().copied().unwrap_or(u64::MAX);
    assert!(
        min_size >= 1024 >> levels,
        "BSP stole a task of size {min_size}"
    );
    // and strictly fewer steals than full PWS
    let pws = run(&comp, cfg, Policy::Pws);
    assert!(r.steals <= pws.steals);
}

#[test]
fn bsp_with_full_prefix_equals_pws() {
    let comp = bp_sum(256, 32, false);
    let cfg = MachineConfig::new(4, 1 << 10, 32);
    let a = run(&comp, cfg, Policy::Bsp { prefix_levels: 64 });
    let b = run(&comp, cfg, Policy::Pws);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.steals, b.steals);
}

#[test]
fn l2_hierarchy_reduces_makespan_vs_flat_when_set_fits_l2() {
    // Working set larger than L1 but within the shared L2: the
    // hierarchical machine (§5.2) completes faster than the flat one
    // with the same L1, and slower than a flat machine with a giant L1.
    let comp = bp_sum(4096, 32, false);
    let flat = MachineConfig::new(4, 1 << 8, 32);
    let l2 = flat.with_l2(1 << 16, false);
    let rf = run(&comp, flat, Policy::Pws);
    let rl = run(&comp, l2, Policy::Pws);
    assert!(
        rl.makespan <= rf.makespan,
        "L2 should not slow things down: {} vs {}",
        rl.makespan,
        rf.makespan
    );
    let t = rl.machine.total();
    assert!(t.l2_hits > 0, "second phase reads must hit L2");
}

#[test]
fn partitioned_l2_behaves_like_private_second_level() {
    let comp = bp_sum(2048, 32, false);
    let base = MachineConfig::new(4, 1 << 8, 32);
    let shared = base.with_l2(1 << 14, false);
    let parted = base.with_l2(1 << 14, true);
    let rs = run(&comp, shared, Policy::Pws);
    let rp = run(&comp, parted, Policy::Pws);
    assert_eq!(rs.work, rp.work);
    // shared L2 serves coherence refills cheaply -> at least as many
    // L2 hits as the partitioned variant
    assert!(rs.machine.total().l2_hits >= rp.machine.total().l2_hits);
}

#[test]
fn rws_steals_more_or_equal_small_tasks() {
    // RWS steals shallow tasks too, but lacking rounds it typically
    // performs more total steals than PWS on the same machine.
    let comp = bp_sum(2048, 32, false);
    let cfg = MachineConfig::new(8, 1 << 10, 32);
    let pws = run(&comp, cfg, Policy::Pws);
    let rws = run(&comp, cfg, Policy::Rws { seed: 42 });
    assert!(rws.steals + 8 >= pws.steals);
}
