//! Cross-crate integration tests for the PWS scheduler invariants the
//! paper proves (Obs 4.1–4.3, Cor 4.1, Lemma 4.6) across the whole
//! algorithm registry, plus the determinism contracts: PWS runs are
//! byte-identical, RWS runs are byte-identical iff the seeds agree.

use hbp_core::prelude::*;
use proptest::prelude::*;

fn small_n(spec: &AlgoSpec) -> usize {
    match spec.size {
        SizeKind::Linear => 256,
        SizeKind::MatrixSide => 16,
    }
}

#[test]
fn obs_4_3_steals_at_most_p_minus_1_per_priority() {
    for spec in registry() {
        let comp = (spec.build)(small_n(spec), BuildConfig::default(), 7);
        for p in [2usize, 4, 8] {
            let cfg = MachineConfig::new(p, 1 << 12, 32);
            let r = run(&comp, cfg, Policy::Pws);
            assert!(
                r.max_steals_per_priority() <= (p - 1) as u64,
                "{} p={p}: {} steals at one priority",
                spec.name,
                r.max_steals_per_priority()
            );
        }
    }
}

#[test]
fn cor_4_1_steal_attempts_bounded_by_2_p_dprime() {
    for spec in registry() {
        let comp = (spec.build)(small_n(spec), BuildConfig::default(), 7);
        let p = 8usize;
        let cfg = MachineConfig::new(p, 1 << 12, 32);
        let r = run(&comp, cfg, Policy::Pws);
        let bound = 2 * p as u64 * (comp.n_priorities as u64 + 1);
        assert!(
            r.steal_attempts <= bound,
            "{}: {} attempts > 2pD' = {bound}",
            spec.name,
            r.steal_attempts
        );
    }
}

#[test]
fn pws_is_fully_deterministic_across_registry() {
    for spec in registry() {
        let comp = (spec.build)(small_n(spec), BuildConfig::default(), 3);
        let cfg = MachineConfig::new(4, 1 << 11, 32);
        let a = run(&comp, cfg, Policy::Pws);
        let b = run(&comp, cfg, Policy::Pws);
        assert_eq!(a.makespan, b.makespan, "{}", spec.name);
        assert_eq!(a.stolen_sizes, b.stolen_sizes, "{}", spec.name);
        assert_eq!(
            a.machine.total(),
            b.machine.total(),
            "{}: machine stats differ",
            spec.name
        );
    }
}

#[test]
fn all_work_executes_under_both_schedulers() {
    for spec in registry() {
        let comp = (spec.build)(small_n(spec), BuildConfig::default(), 5);
        let cfg = MachineConfig::new(4, 1 << 11, 32);
        let pws = run(&comp, cfg, Policy::Pws);
        assert_eq!(pws.work, comp.work(), "{} PWS", spec.name);
        let rws = run(&comp, cfg, Policy::Rws { seed: 9 });
        assert_eq!(rws.work, comp.work(), "{} RWS", spec.name);
    }
}

#[test]
fn usurpations_bounded_by_steals() {
    // Lemma 4.6: at most p−1 usurpers per collection; globally usurpations
    // can't exceed joins whose completing side was stolen.
    for spec in registry() {
        let comp = (spec.build)(small_n(spec), BuildConfig::default(), 5);
        let cfg = MachineConfig::new(8, 1 << 11, 32);
        let r = run(&comp, cfg, Policy::Pws);
        assert!(
            r.usurpations <= 4 * r.steals + 4,
            "{}: {} usurpations for {} steals",
            spec.name,
            r.usurpations,
            r.steals
        );
    }
}

#[test]
fn single_core_never_steals_and_never_block_misses() {
    for spec in registry() {
        let comp = (spec.build)(small_n(spec), BuildConfig::default(), 5);
        let cfg = MachineConfig::new(1, 1 << 11, 32);
        let r = run(&comp, cfg, Policy::Pws);
        assert_eq!(r.steals, 0, "{}", spec.name);
        assert_eq!(r.block_misses(), 0, "{}", spec.name);
    }
}

#[test]
fn extreme_geometries_do_not_panic_or_overflow() {
    // Debug builds run with integer-overflow checks, so this doubles as a
    // regression guard for the virtual-clock and miss accounting in
    // `hbp_sched::engine` on the corner geometries: max core count, a
    // single-block cache, 1-word blocks, and a cache far larger than the
    // computation. Both schedulers must finish and execute all work.
    let data: Vec<u64> = (0..128u64).collect();
    for &(p, m, b) in &[
        (64usize, 1u64, 1u64),
        (64, 32, 32),
        (1, 1, 1),
        (64, 1 << 20, 1 << 10),
    ] {
        let (comp, _) = hbp_core::algos::scan::m_sum(&data, BuildConfig::with_block(b));
        let cfg = MachineConfig::new(p, m, b);
        let seq = run_sequential(&comp, cfg);
        let pws = run(&comp, cfg, Policy::Pws);
        let rws = run(&comp, cfg, Policy::Rws { seed: 1 });
        assert_eq!(pws.work, comp.work(), "p={p} M={m} B={b} PWS");
        assert_eq!(rws.work, comp.work(), "p={p} M={m} B={b} RWS");
        // Excess accounting must also hold up at the corners (it subtracts
        // sequential from parallel miss counts).
        let ex = pws.excess_vs(&seq);
        assert_eq!(
            ex.cache_miss_excess,
            pws.plain_misses().saturating_sub(seq.q_misses),
            "p={p} M={m} B={b}"
        );
        assert_eq!(ex.block_miss_total, pws.block_misses(), "p={p} M={m} B={b}");
    }
}

#[test]
fn shrunken_stack_regions_still_execute_correctly() {
    // The per-kernel stack-region size is a MachineConfig knob now; an
    // extreme-geometry machine with tiny (but sufficient) regions must
    // still run every scheduler to completion.
    let data: Vec<u64> = (0..512u64).collect();
    let (comp, _) = hbp_core::algos::scan::m_sum(&data, BuildConfig::with_block(32));
    let cfg = MachineConfig::new(8, 1 << 10, 32).with_region_words(1 << 12);
    assert_eq!(cfg.region_words, 1 << 12);
    for policy in [Policy::Pws, Policy::Rws { seed: 3 }] {
        let r = run(&comp, cfg, policy);
        assert_eq!(r.work, comp.work(), "{policy:?}");
    }
    // Same machine, default regions: the simulated metrics agree exactly —
    // region size only relocates stacks, it does not change the schedule
    // as long as frames fit.
    let dflt = MachineConfig::new(8, 1 << 10, 32);
    let a = run(&comp, cfg, Policy::Pws);
    let b = run(&comp, dflt, Policy::Pws);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.steals, b.steals);
}

/// SPMS splitter determinism: the sample positions and splitters are
/// pure functions of the input, so two *builds* over the same data give
/// the same computation, and their PWS reports are byte-identical —
/// every counter, vector, and per-core series.
#[test]
fn spms_splitters_are_deterministic_across_builds() {
    let spec = lookup("Sort (SPMS)");
    for seed in [1u64, 9, 77] {
        let a = (spec.build)(512, BuildConfig::default(), seed);
        let b = (spec.build)(512, BuildConfig::default(), seed);
        assert_eq!(a.work(), b.work(), "seed {seed}: identical recordings");
        assert_eq!(a.n_priorities, b.n_priorities, "seed {seed}");
        let cfg = MachineConfig::new(4, 1 << 11, 32);
        let ra = format!("{:?}", run(&a, cfg, Policy::Pws));
        let rb = format!("{:?}", run(&b, cfg, Policy::Pws));
        assert_eq!(ra, rb, "seed {seed}: PWS reports must be byte-identical");
    }
}

/// PWS is deterministic down to the byte: two runs must produce
/// `ExecReport`s with identical Debug renderings (every counter, vector,
/// and per-core series — not just the headline metrics).
#[test]
fn pws_reports_are_byte_identical_across_runs() {
    for spec in registry() {
        let comp = (spec.build)(small_n(spec), BuildConfig::default(), 11);
        let cfg = MachineConfig::new(4, 1 << 11, 32);
        let a = format!("{:?}", run(&comp, cfg, Policy::Pws));
        let b = format!("{:?}", run(&comp, cfg, Policy::Pws));
        assert_eq!(a, b, "{} PWS reports diverge", spec.name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// RWS with equal seeds is byte-identical for arbitrary seeds and
    /// core counts.
    #[test]
    fn rws_equal_seeds_are_byte_identical(seed in 0u64..1_000_000, p in 2usize..=8) {
        let data: Vec<u64> = (0..256u64).collect();
        let (comp, _) = hbp_core::algos::scan::m_sum(&data, BuildConfig::with_block(32));
        let cfg = MachineConfig::new(p, 1 << 10, 32);
        let a = format!("{:?}", run(&comp, cfg, Policy::Rws { seed }));
        let b = format!("{:?}", run(&comp, cfg, Policy::Rws { seed }));
        prop_assert_eq!(a, b);
    }
}

/// Differing RWS seeds must actually change the schedule: across a batch
/// of seeds on a steal-heavy computation, the reports cannot all
/// coincide (and most seed pairs should differ).
#[test]
fn rws_differing_seeds_produce_differing_reports() {
    let data: Vec<u64> = (0..1024u64).collect();
    let (comp, _) = hbp_core::algos::scan::m_sum(&data, BuildConfig::with_block(32));
    let cfg = MachineConfig::new(8, 1 << 10, 32);
    let reports: Vec<String> = (0..16u64)
        .map(|seed| format!("{:?}", run(&comp, cfg, Policy::Rws { seed })))
        .collect();
    let distinct: std::collections::HashSet<&String> = reports.iter().collect();
    assert!(
        distinct.len() >= 8,
        "16 RWS seeds produced only {} distinct schedules",
        distinct.len()
    );
}

#[test]
fn makespan_never_exceeds_sequential() {
    // Work stealing with zero-cost idle waiting can't be slower than the
    // one-core schedule plus steal overhead.
    for spec in registry() {
        let comp = (spec.build)(small_n(spec), BuildConfig::default(), 5);
        let m = MachineConfig::new(8, 1 << 12, 32);
        let seq = run_sequential(&comp, m);
        let par = run(&comp, m, Policy::Pws);
        let overhead: u64 = par.steal_overhead.iter().sum::<u64>()
            + par.block_misses() * m.miss_cost
            + (par.plain_misses().saturating_sub(seq.q_misses)) * m.miss_cost;
        assert!(
            par.makespan <= seq.makespan + overhead,
            "{}: {} > {} + {overhead}",
            spec.name,
            par.makespan,
            seq.makespan
        );
    }
}
