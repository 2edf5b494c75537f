//! Cross-crate integration tests for the PWS scheduler invariants the
//! paper proves (Obs 4.1–4.3, Cor 4.1, Lemma 4.6) across the whole
//! algorithm registry, plus the determinism contracts: PWS runs are
//! byte-identical, RWS runs are byte-identical iff the seeds agree.

use hbp_core::prelude::*;
use proptest::prelude::*;

fn small_n(spec: &AlgoSpec) -> usize {
    spec.size.pick(256, 16)
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
    // regression guard for the virtual-clock and miss accounting behind
    // `hbp_sched::run` on the corner geometries: max core count, a
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
            + par.block_misses() * m.miss_cost()
            + (par.plain_misses().saturating_sub(seq.q_misses)) * m.miss_cost();
        assert!(
            par.makespan <= seq.makespan + overhead,
            "{}: {} > {} + {overhead}",
            spec.name,
            par.makespan,
            seq.makespan
        );
    }
}

/// 64-bit FNV-1a of `s`.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The machines of the pinned-digest table, in column order: the default
/// machine; one core; three cores with two frames each (an eviction on
/// almost every miss); a small machine under a shared L2; the same under
/// a partitioned L2.
fn pinned_machines() -> [MachineConfig; 5] {
    let small = MachineConfig::new(4, 1 << 8, 32);
    [
        MachineConfig::default_machine(),
        MachineConfig::new(1, 1 << 14, 32),
        MachineConfig::new(3, 64, 32),
        small.with_l2(1 << 11, false),
        small.with_l2(1 << 11, true),
    ]
}

const PINNED_POLICIES: [Policy; 3] = [
    Policy::Pws,
    Policy::Rws { seed: 1 },
    Policy::Bsp { prefix_levels: 3 },
];

/// Digests of the full `ExecReport` (`{:?}`: per-core stats, `busy`,
/// `idle`, `steal_overhead`, `stolen_sizes`, `steals_by_priority`,
/// `usurpations`, ...) of every registry row at `small_n`, build seed 7:
/// `PINNED_REPORTS[row].1[machine][policy]`, machines as in
/// `pinned_machines`, policies as in `PINNED_POLICIES`. Computed on the
/// tree *before* the simulator's LRU, block directory and event loop were
/// rewritten for speed; a change to the simulator that moves one bit of
/// one report on one of these 210 configurations fails here.
#[rustfmt::skip]
const PINNED_REPORTS: [(&str, [[u64; 3]; 5]); 14] = [
    ("Scans (M-Sum)", [
        [0x3a2076080bd4c35f, 0x768119ee12ebe36f, 0xfa865703d16d15bc],
        [0x2ebe2b81119a9eea, 0x2ebe2b81119a9eea, 0x2ebe2b81119a9eea],
        [0x50c59300fc211756, 0x4f91956ac2c53b58, 0x30e6dc1faf46c437],
        [0x5be0ed79213fa0b1, 0xe6e46b2e29bff4d2, 0x3ce63cd6be938540],
        [0x234f155e31481ff4, 0x957b577d9d428aa2, 0x30565b4d320c6160],
    ]),
    ("Scans (PS)", [
        [0x983e9a7a83de6e24, 0xf6cd218b5f7a3653, 0xbe82e3e9aee782ec],
        [0xe987896f530a53c0, 0xe987896f530a53c0, 0xe987896f530a53c0],
        [0xc8abdbedbbb41ebe, 0x850ad98b9b5a25ba, 0x7fe3f5c1a587cd20],
        [0x7fc366fa676285ac, 0x71f66474c22f1682, 0x7cf2bcc442e0ed26],
        [0x5009aaaa499b7119, 0x6325606d377ff734, 0x553be389b8ab9418],
    ]),
    ("MT", [
        [0xe7a20385da5fbf69, 0xe61a18bbe757db58, 0x7e4882f931f13989],
        [0x9d4f3400a359f8dd, 0x9d4f3400a359f8dd, 0x9d4f3400a359f8dd],
        [0x736e9b898635dba8, 0xd5dd799d33cd2e83, 0x71f4d85e764d55b1],
        [0x9ea042e6000bb856, 0x9c541ca6d4b06394, 0x100099a2dc7d3fdc],
        [0x8a19b153cc78b4d1, 0xe925cab6e6720a32, 0xa5ad9e7092caea6a],
    ]),
    ("Strassen", [
        [0xed04ce25c4d30af6, 0x13f2b845e1f560b0, 0x8fb5893981eaf9eb],
        [0x54e5dcd2e03a7a1b, 0x54e5dcd2e03a7a1b, 0x54e5dcd2e03a7a1b],
        [0x60f5859d95533899, 0xdf1bade54cfd737c, 0x1abedd8e6ee331ec],
        [0xde50033e013782e9, 0xf25f91cae85d9208, 0x885bb11abd96ae17],
        [0x42395060a216155e, 0x487752cfa672720a, 0x4d80a55e9a1a97d4],
    ]),
    ("RM to BI", [
        [0x1ea61808c87d3da3, 0x219ba691a01881ea, 0xa8188218c48e90a1],
        [0x536d0130ea3fc2ad, 0x536d0130ea3fc2ad, 0x536d0130ea3fc2ad],
        [0xa534ac014149354b, 0x97ba06c690ac188f, 0x0c156f9b655f5993],
        [0x1794e31cbbdfdc7d, 0x9e8a4b752613633b, 0xcaf07a878886db8b],
        [0xb419e80b888dbb55, 0x8978012bd83bb152, 0x8b8f3f93a0b73734],
    ]),
    ("Direct BI to RM", [
        [0x53babbcff33ac5e7, 0x7525c99dc465751d, 0x69f34aa8f567f83e],
        [0x536d0130ea3fc2ad, 0x536d0130ea3fc2ad, 0x536d0130ea3fc2ad],
        [0x82fb9e6b3e7107ff, 0x888e3e5fbeae6d19, 0x0307b86ada08fa12],
        [0x92a84a1e6eaa3f7e, 0xa76da5bba5e7fe82, 0x0df7cd9facd6914f],
        [0x642f940bd2e22110, 0x49283b0762cd4c87, 0xbe91cfe19b938020],
    ]),
    ("BI-RM (gap RM)", [
        [0x3c2a3b213a49927d, 0x9004ef6a84df4e3f, 0xe6607f098387edcb],
        [0x2b6232542b708695, 0x2b6232542b708695, 0x2b6232542b708695],
        [0x9dfefee5840c4b90, 0x4e78d792f3605937, 0x57bbd86da9bf876e],
        [0xdebb62fc2e500b51, 0x5e7cfc993dada814, 0xd22abe18925715bf],
        [0x7bfd2c718fd0764f, 0xb0132da73bb5f74d, 0x1d9087ac4b51f533],
    ]),
    ("BI-RM for FFT", [
        [0x802e0725ca14759b, 0x141dd28617ee9569, 0xd849db2bf4556f90],
        [0x9c7bed9263b6ec6b, 0x9c7bed9263b6ec6b, 0x9c7bed9263b6ec6b],
        [0xa709f7cc39b8fa48, 0x5878e20680b69d5d, 0x5beef8c6c6bfcaee],
        [0x416c5065515dc432, 0xdff8f4e33d91af34, 0x106d4fea07bfaba8],
        [0x3c7f15f1b6f9b397, 0x36181332d38ecc7f, 0xa5d75fc788499cd2],
    ]),
    ("FFT", [
        [0x863dca01ef54cac7, 0x08bdf8d9af905c5d, 0x6e1ba15963b8a14f],
        [0x187dedfe8db74eaa, 0x187dedfe8db74eaa, 0x187dedfe8db74eaa],
        [0x532fff0cb643a953, 0x72f4fb995ba54c30, 0x06ab9ca79a7c6c2c],
        [0xc0e0a9939c42fe6f, 0x792b43d59d4a34b3, 0x4ae9e42c6ba791ce],
        [0xe8b95e6ca9afe6b2, 0x6f910872927166de, 0xd563d4ab6d01c7cf],
    ]),
    ("LR", [
        [0x0d0a8ecd8e0a5098, 0xe36ae815c420eeec, 0xd197907cdc73c899],
        [0xb8f307383df82d57, 0xb8f307383df82d57, 0xb8f307383df82d57],
        [0xe52306f75f31c7ac, 0xee48666051a7933f, 0xedbda2bd0b43f970],
        [0x1ab568c63592ccc7, 0xc60126b8b28c9af6, 0x973192a595f0373a],
        [0x7663be654309839f, 0xaae0b20bd5de63f1, 0x7b03289df4db2ffe],
    ]),
    ("CC", [
        [0x28c802540a51f90e, 0x7b713f3e1a6fa286, 0x7ca8cd83c485e135],
        [0x5a097b92ce6b3b69, 0x5a097b92ce6b3b69, 0x5a097b92ce6b3b69],
        [0xe0a878600c2cac39, 0x8b09424773d42c75, 0x98d055fd8d99d5eb],
        [0xdb4d91e8f5dcd158, 0x47aac0d78a4b4dc8, 0x2a1aa3cf201b3a07],
        [0xf64bbbc3985e1e4c, 0x9f30947bd820f6d3, 0x8d56f083a0399fb0],
    ]),
    ("Depth-n-MM", [
        [0xbf02ef37f287bd65, 0x4bc277e35839345e, 0x1e19514afe4efbe1],
        [0x954cdf7651772449, 0x954cdf7651772449, 0x954cdf7651772449],
        [0xccfcb36d9e2bcf6b, 0xc54a68942fdfb56c, 0xe5198c1bae4a3695],
        [0x6d21d7a2cee37d8b, 0x89c1bf8ada11f7f1, 0xf22680c494ac30da],
        [0xfe0eab08aa303ebf, 0xd721a20de4604340, 0xa28bb878bfc54ef4],
    ]),
    ("Sort (SPMS)", [
        [0xc91f18e52a241486, 0xa4bd9f864c111b24, 0x75276aa75101ff64],
        [0xced1bb1ae9238c42, 0xced1bb1ae9238c42, 0xced1bb1ae9238c42],
        [0x3eeeb7f5e8b934ba, 0x21f81fbfe56bef41, 0xae543f6f08430746],
        [0x7f7768a2c4df0ba0, 0x17b3f34280a4b4f8, 0x907fe12ee70bc7ba],
        [0x99e23048e2d1aa4b, 0x8ab6f5be7fa0c85b, 0xa2fe2cf86c74cdcb],
    ]),
    ("Sort (merge std-in)", [
        [0x562d0e85c09bb543, 0x214ad67d94174a1b, 0x07a006127e47fe17],
        [0x229ceca93af0db72, 0x229ceca93af0db72, 0x229ceca93af0db72],
        [0xe078c77b3cc74c3a, 0xaefe80d20569eb4a, 0xd2e36fb5e8093fc8],
        [0x6309663136af78e9, 0xa06e884918ff9020, 0x37f2102213dfb278],
        [0x534104670d814dfd, 0x5b4b8def4dd3a2ab, 0xf030b0d7f273067b],
    ]),
];

/// Digests of the collected `run_traced` event stream (`{:?}` of every
/// `TraceEvent`: `seq`, `t`, worker, kind) under PWS on the default
/// machine, from the same tree as `PINNED_REPORTS`; re-derived with
/// `crates/` at `bc240c4` from that rendering with `StealCommit`'s
/// always-false cross-domain flag cut out of every event (the field
/// left the event next).
const PINNED_TRACES: [(&str, u64); 2] = [
    ("Sort (SPMS)", 0xb7b0_b75a_9dab_16be),
    ("LR", 0xc0e4_b024_3a96_e6a7),
];

/// The simulator's results are pinned bit for bit beyond what the
/// benchmark's golden visits (p = 8, flat, PWS/RWS, eleven counters per
/// row): see `PINNED_REPORTS` / `PINNED_TRACES`.
#[test]
fn reports_and_traces_match_the_pinned_digests() {
    let machines = pinned_machines();
    let actual: Vec<(&str, [[u64; 3]; 5])> = registry()
        .iter()
        .map(|spec| {
            let comp = (spec.build)(small_n(spec), BuildConfig::default(), 7);
            let row = machines.map(|cfg| {
                PINNED_POLICIES.map(|policy| fnv1a(&format!("{:?}", run(&comp, cfg, policy))))
            });
            (spec.name, row)
        })
        .collect();
    assert!(
        actual == PINNED_REPORTS,
        "ExecReport digests moved; the table now reads:\n{}",
        actual
            .iter()
            .map(|(name, row)| {
                let cols: Vec<String> = row
                    .iter()
                    .map(|m| format!("[{:#018x}, {:#018x}, {:#018x}]", m[0], m[1], m[2]))
                    .collect();
                format!(
                    "    ({name:?}, [\n        {},\n    ]),\n",
                    cols.join(",\n        ")
                )
            })
            .collect::<String>()
    );
    for (name, want) in PINNED_TRACES {
        let spec = lookup(name);
        let comp = (spec.build)(small_n(spec), BuildConfig::default(), 7);
        let cfg = MachineConfig::default_machine();
        let sink = TraceSink::new(cfg.p, ClockDomain::Virtual);
        run_traced(&comp, cfg, Policy::Pws, &sink);
        let trace = sink.collect();
        assert_eq!(trace.dropped, 0, "{name}: the trace must be complete");
        let got = fnv1a(&format!("{:?}", trace.events));
        assert_eq!(got, want, "{name}: trace digest is {got:#x}");
    }
}

/// A canonical, layout-independent text of everything a recording holds:
/// node count; per node in id order its `size`, `frame_words`,
/// `pad_words` and body in order (a segment as `s` followed by each
/// access's decoded target and `r`/`w`, a fork as its children and
/// priority); then `root`, `heap_words`, `block_words`, `n_priorities`
/// and the final heap. Nothing in it depends on where a body or an
/// access is stored.
fn recording_walk(comp: &Computation) -> String {
    use hbp_core::model::{Item, Target};
    use std::fmt::Write;
    let mut s = format!("nodes {}\n", comp.nodes.len());
    for (id, n) in comp.nodes.iter().enumerate() {
        write!(s, "n{id} {} {} {}:", n.size, n.frame_words, n.pad_words).unwrap();
        for it in comp.items_of(hbp_core::model::NodeId(id as u32)) {
            match *it {
                Item::Seg(seg) => {
                    s.push_str(" s");
                    for a in &comp.arena[seg.start as usize..seg.end as usize] {
                        let rw = if a.write() { 'w' } else { 'r' };
                        match a.target() {
                            Target::Global(w) => write!(s, " g{w}{rw}"),
                            Target::Local { node, off } => write!(s, " l{}.{off}{rw}", node.0),
                        }
                        .unwrap();
                    }
                }
                Item::Fork {
                    left,
                    right,
                    priority,
                } => write!(s, " f{},{},{priority}", left.0, right.0).unwrap(),
            }
        }
        s.push('\n');
    }
    write!(
        s,
        "root {} heap_words {} block_words {} n_priorities {}\nheap {:?}\n",
        comp.root.0, comp.heap_words, comp.block_words, comp.n_priorities, comp.heap
    )
    .unwrap();
    s
}

/// Digests of [`recording_walk`] for every registry row at `small_n`,
/// build seed 7: `[BuildConfig::default(), BuildConfig::default().padded()]`.
/// Computed on the tree *before* the recording was flattened (one item
/// arena, packed accesses, build-time parent / priority); the replay
/// digests above see a moved access only through the statistics it
/// perturbs, and pads, priorities and output values not at all.
#[rustfmt::skip]
const PINNED_RECORDINGS: [(&str, [u64; 2]); 14] = [
    ("Scans (M-Sum)", [0x1137783bf4932f58, 0x262f24614aa3bc13]),
    ("Scans (PS)", [0x83e2fa00704d6ef8, 0x98da475457d00913]),
    ("MT", [0x181865f0a6e51386, 0xed484bf098708487]),
    ("Strassen", [0xc4677e7ed34cd9fc, 0xbde35fdf65c4dcab]),
    ("RM to BI", [0x7b82e1b07010f2eb, 0x4820486d48989c5e]),
    ("Direct BI to RM", [0x8e15c880bffa3b6b, 0x4196e68bebbd2a96]),
    ("BI-RM (gap RM)", [0xb00f0edf2eceffcb, 0x67fb5c963e312ff4]),
    ("BI-RM for FFT", [0xc3b4afc00a669a39, 0xf8248c922b7c39e4]),
    ("FFT", [0x018cfec285c52a0f, 0xa11fc80d75a55934]),
    ("LR", [0x4fc5a3c0856b150d, 0x361aa54b7eec8373]),
    ("CC", [0x99595eaf2930e61a, 0x4d61a50445ce9b6d]),
    ("Depth-n-MM", [0x354f0f2d54665bb8, 0xe95ace950c274dd7]),
    ("Sort (SPMS)", [0x73ecb4ee7072fe79, 0x62d98f03bc176fc4]),
    ("Sort (merge std-in)", [0xb8728a75ae86f0b5, 0xb26d2a83129a8526]),
];

#[test]
fn recordings_match_the_pinned_digests() {
    let actual: Vec<(&str, [u64; 2])> = registry()
        .iter()
        .map(|spec| {
            let digest = |cfg| fnv1a(&recording_walk(&(spec.build)(small_n(spec), cfg, 7)));
            (
                spec.name,
                [
                    digest(BuildConfig::default()),
                    digest(BuildConfig::default().padded()),
                ],
            )
        })
        .collect();
    assert!(
        actual == PINNED_RECORDINGS,
        "recording digests moved; the table now reads:\n{}",
        actual
            .iter()
            .map(|(name, d)| format!("    ({name:?}, [{:#018x}, {:#018x}]),\n", d[0], d[1]))
            .collect::<String>()
    );
}
