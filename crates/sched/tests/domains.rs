//! Two-level (domain-sharded) stealing: the cross-domain depth floor
//! under real steal storms, and the flat-identity guarantee (`domains=1`
//! is structurally the flat pool). The local-first victim-order law is a
//! unit test beside `plan_scan` in `src/native/runtime.rs`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use hbp_sched::cl_deque::{ClDeque, Steal};
use hbp_sched::native::{join, NativeConfig, NativePool};
use hbp_sched::policy::native_facet;
use hbp_sched::{DomainSpec, Policy};

fn policies() -> [Policy; 3] {
    [
        Policy::Pws,
        Policy::Rws { seed: 11 },
        Policy::Bsp { prefix_levels: 3 },
    ]
}

/// Recursive join-based sum with busy leaves (same shape as
/// `tests/native.rs`): enough real work per leaf that idle workers
/// actually steal.
fn spin_sum(xs: &[u64], leaf: usize) -> u64 {
    if xs.len() <= leaf {
        let mut acc = 0u64;
        for _ in 0..200 {
            for &x in xs {
                acc = acc.wrapping_add(x).rotate_left(7) ^ x;
            }
        }
        let _ = std::hint::black_box(acc);
        return xs.iter().sum();
    }
    let (l, r) = xs.split_at(xs.len() / 2);
    let (a, b) = join(|| spin_sum(l, leaf), || spin_sum(r, leaf));
    a + b
}

/// The runtime's cross-domain admission, replayed as a `ClDeque` steal
/// storm: items are (depth-tagged) tasks, "cross-domain" thieves compose
/// `admit(depth) && cross_admit(depth, floor)` exactly as
/// `steal_from_others` does, local thieves just `admit(depth)`. No cross
/// thief may ever receive a task deeper than the floor, and exactly-once
/// accounting must survive the storm.
fn cross_floor_storm(policy: Policy, floor: u32, n: u64) {
    let facet: Arc<dyn hbp_sched::NativeStealPolicy> = Arc::from(native_facet(policy));
    // Value encoding: id in the low bits, fork depth in the high byte.
    let depth_of = |v: u64| -> u32 { (v >> 56) as u32 };
    let deque: Arc<ClDeque<u64>> = Arc::new(ClDeque::with_capacity(8));
    let done = Arc::new(AtomicBool::new(false));

    let (owner_got, local_got, cross_got) = std::thread::scope(|s| {
        let spawn_thief = |cross: bool| {
            let deque = Arc::clone(&deque);
            let done = Arc::clone(&done);
            let facet = Arc::clone(&facet);
            s.spawn(move || {
                let mut got: Vec<u64> = Vec::new();
                let admit = |v: &u64| {
                    let d = depth_of(*v);
                    facet.admit(d) && (!cross || facet.cross_admit(d, floor))
                };
                loop {
                    match deque.steal_with(admit) {
                        Steal::Data(v) => got.push(v),
                        Steal::Retry => {}
                        Steal::Empty | Steal::Denied => {
                            if done.load(Ordering::Acquire) {
                                match deque.steal_with(admit) {
                                    Steal::Data(v) => got.push(v),
                                    Steal::Retry => continue,
                                    _ => break,
                                }
                            } else {
                                std::hint::spin_loop();
                            }
                        }
                    }
                }
                got
            })
        };
        let locals: Vec<_> = (0..2).map(|_| spawn_thief(false)).collect();
        let crossers: Vec<_> = (0..2).map(|_| spawn_thief(true)).collect();

        let mut owner: Vec<u64> = Vec::new();
        for i in 0..n {
            // Depths cycle 0..8 so both sides of any floor are populated.
            deque.push(((i % 8) << 56) | i);
        }
        while let Some(v) = deque.pop() {
            owner.push(v);
        }
        done.store(true, Ordering::Release);
        let local_got: Vec<Vec<u64>> = locals.into_iter().map(|h| h.join().unwrap()).collect();
        let cross_got: Vec<Vec<u64>> = crossers.into_iter().map(|h| h.join().unwrap()).collect();
        (owner, local_got, cross_got)
    });

    for &v in cross_got.iter().flatten() {
        assert!(
            facet.cross_admit(depth_of(v), floor),
            "{policy:?}: cross-domain thief committed depth {} past floor {floor}",
            depth_of(v)
        );
    }
    for &v in local_got.iter().flatten() {
        assert!(
            facet.admit(depth_of(v)),
            "{policy:?}: local admission violated"
        );
    }
    // Exactly once: ids 0..n each surface on exactly one side.
    let mut seen = vec![0u32; n as usize];
    for &v in owner_got
        .iter()
        .chain(local_got.iter().flatten())
        .chain(cross_got.iter().flatten())
    {
        seen[(v & 0x00ff_ffff_ffff_ffff) as usize] += 1;
    }
    assert!(
        seen.iter().all(|&c| c == 1),
        "{policy:?}: lost/duplicated items under the cross-floor storm"
    );
}

#[test]
fn cross_domain_steals_below_the_floor_are_never_committed() {
    for policy in policies() {
        for floor in [0, 2, 5] {
            cross_floor_storm(policy, floor, 20_000);
        }
    }
}

#[test]
fn sharded_pools_compute_correctly_under_every_policy() {
    let xs: Vec<u64> = (0..1 << 13).collect();
    let want: u64 = xs.iter().sum();
    for policy in policies() {
        for domains in [
            DomainSpec::Count(2),
            DomainSpec::Count(4),
            DomainSpec::Tag(2),
        ] {
            let cfg = NativeConfig {
                workers: 4,
                seed: 23,
                policy,
                domains,
                cross_depth: 2,
                ..NativeConfig::default()
            };
            let (got, r) = NativePool::run(cfg, || spin_sum(&xs, 64));
            assert_eq!(got, want, "{policy:?} under {domains:?}");
            assert_eq!(
                r.work,
                ((1usize << 13) / 64) as u64,
                "{policy:?} under {domains:?}: task structure is domain-independent"
            );
        }
    }
}

/// The flat-identity gate, in-process: a `HBP_DOMAINS=1` pool must be
/// structurally identical to a sharded one under `trace_diff`'s
/// structural equality (same tasks, same forks, balanced begins/ends —
/// schedules may differ, structure may not). This is the programmatic
/// twin of CI's `domain-matrix` trace_diff gate.
#[test]
fn domains_one_is_structurally_identical_to_sharded_under_trace_diff() {
    let xs: Vec<u64> = (0..1 << 12).collect();
    let trace_of = |domains: DomainSpec| {
        let cfg = NativeConfig {
            workers: 4,
            seed: 31,
            policy: Policy::Rws { seed: 5 },
            domains,
            ..NativeConfig::default()
        };
        let sink = Arc::new(hbp_trace::TraceSink::new(4, hbp_trace::ClockDomain::WallNs));
        let (_, _) = NativePool::run_traced(cfg, Some(Arc::clone(&sink)), || spin_sum(&xs, 64));
        sink.collect()
    };
    let flat = trace_of(DomainSpec::Count(1));
    let sharded = trace_of(DomainSpec::Count(4));
    assert!(
        flat.domains.is_empty(),
        "a one-domain pool leaves the trace unlabelled (byte-identical to pre-domain traces)"
    );
    assert_eq!(
        sharded.domains,
        vec![0, 1, 2, 3],
        "a 4-domain pool labels every worker lane"
    );
    assert!(
        !flat.events.iter().any(|e| matches!(
            e.kind,
            hbp_trace::EventKind::StealCommit {
                cross_domain: true,
                ..
            }
        )),
        "one domain ⇒ no steal is ever cross-domain"
    );
    let d = hbp_trace::diff(&flat, &sharded);
    assert!(
        d.structurally_equal(),
        "domains=1 must be structurally identical to a sharded pool: {d}"
    );
}
