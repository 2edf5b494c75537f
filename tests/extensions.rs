//! Integration tests for the §5 extensions: the two-level cache hierarchy
//! (§5.2) and the bulk-synchronous mapping (§5.3), across the registry.

use hbp_core::prelude::*;

fn small_n(spec: &AlgoSpec) -> usize {
    spec.size.pick(256, 16)
}

#[test]
fn bsp_executes_all_work_with_bounded_steal_sizes() {
    for spec in registry() {
        let comp = (spec.build)(small_n(spec), BuildConfig::default(), 3);
        let cfg = MachineConfig::new(8, 1 << 11, 32);
        let levels = 4;
        let r = run(
            &comp,
            cfg,
            Policy::Bsp {
                prefix_levels: levels,
            },
        );
        assert_eq!(r.work, comp.work(), "{}", spec.name);
        let root_size = spec.elements(small_n(spec)) as u64;
        let floor = (root_size >> levels).max(1);
        for &s in &r.stolen_sizes {
            assert!(
                s >= floor,
                "{}: BSP stole size {s} below floor {floor}",
                spec.name
            );
        }
    }
}

#[test]
fn bsp_is_deterministic() {
    let spec = find("FFT").unwrap();
    let comp = (spec.build)(256, BuildConfig::default(), 3);
    let cfg = MachineConfig::new(8, 1 << 11, 32);
    let a = run(&comp, cfg, Policy::Bsp { prefix_levels: 4 });
    let b = run(&comp, cfg, Policy::Bsp { prefix_levels: 4 });
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.stolen_sizes, b.stolen_sizes);
}

#[test]
fn l2_machines_run_the_whole_registry() {
    for spec in registry() {
        let comp = (spec.build)(small_n(spec), BuildConfig::default(), 5);
        let flat = MachineConfig::new(4, 1 << 9, 32);
        for machine in [flat.with_l2(1 << 13, false), flat.with_l2(1 << 13, true)] {
            let r = run(&comp, machine, Policy::Pws);
            assert_eq!(r.work, comp.work(), "{}", spec.name);
            // L1 miss accounting is independent of the L2 (non-inclusive)
            let t = r.machine.total();
            assert_eq!(t.l2_hits + t.l2_misses, t.misses(), "{}", spec.name);
        }
    }
}

#[test]
fn shared_l2_never_slower_than_flat() {
    for name in ["Scans (PS)", "MT", "Sort (SPMS)"] {
        let spec = lookup(name);
        let comp = (spec.build)(small_n(spec), BuildConfig::default(), 5);
        let flat = MachineConfig::new(4, 1 << 8, 32);
        let rf = run(&comp, flat, Policy::Pws);
        let rl = run(&comp, flat.with_l2(1 << 13, false), Policy::Pws);
        assert!(
            rl.makespan <= rf.makespan,
            "{}: L2 {} > flat {}",
            name,
            rl.makespan,
            rf.makespan
        );
    }
}

#[test]
fn l1_miss_counts_close_with_and_without_l2() {
    // The L2 changes access *costs*, which shifts steal timing and thus
    // which core executes what — so L1 miss counts are not bit-identical,
    // but they must stay in the same ballpark (same algorithm, same
    // machine geometry).
    let spec = find("Scans (PS)").unwrap();
    let comp = (spec.build)(512, BuildConfig::default(), 5);
    let flat = MachineConfig::new(4, 1 << 9, 32);
    let rf = run(&comp, flat, Policy::Pws);
    let rl = run(&comp, flat.with_l2(1 << 13, false), Policy::Pws);
    let (tf, tl) = (rf.machine.total(), rl.machine.total());
    let (a, b) = (tf.misses() as f64, tl.misses() as f64);
    assert!(
        (a - b).abs() / a.max(b) < 0.25,
        "miss totals diverged: {a} vs {b}"
    );
}

#[test]
fn euler_tree_stats_integrate_with_scheduling() {
    use hbp_core::algos::{euler, gen};
    let n = 128;
    let edges = gen::random_tree(n, 11);
    let ts = euler::tree_stats(n, &edges, BuildConfig::default(), true);
    let cfg = MachineConfig::new(8, 1 << 11, 32);
    let r = run(&ts.comp, cfg, Policy::Pws);
    assert_eq!(r.work, ts.comp.work());
    assert!(r.max_steals_per_priority() <= 7);
}
