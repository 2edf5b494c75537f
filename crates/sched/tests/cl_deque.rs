//! Cross-thread stress tests of the lock-free Chase-Lev deque: steal
//! storms, growth under contention, and proptest linearizability-style
//! accounting — every pushed item is popped or stolen **exactly once**.
//!
//! (The single-threaded protocol paths live as Miri-clean unit tests in
//! `src/cl_deque.rs`; these tests exercise the actual cross-thread
//! races. CI also runs them under ThreadSanitizer, with the suppression
//! file `.github/tsan-suppressions.txt`, which names std frames only.)

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use hbp_sched::cl_deque::{ClDeque, Steal};
use proptest::prelude::*;

/// Which thief-side entry a [`storm`] hammers. Both are live: the
/// benchmark's layer probes call `steal()`, the runtime calls
/// `steal_batch_with`, and each has its own `top`/fence/`bottom`/buffer
/// snapshot ahead of the shared claim.
#[derive(Clone, Copy, Debug)]
enum Claim {
    /// `steal()`, one item per call.
    Single,
    /// `steal_batch_with(max, ..)`, up to `max` items per call.
    Batch(usize),
}

impl Claim {
    /// One claiming call; stolen items land in `buf`.
    fn steal(self, deque: &ClDeque<u64>, buf: &mut Vec<u64>) -> Steal<usize> {
        match self {
            Claim::Single => match deque.steal() {
                Steal::Data(v) => {
                    buf.push(v);
                    Steal::Data(1)
                }
                Steal::Empty => Steal::Empty,
                Steal::Retry => Steal::Retry,
                Steal::Denied => Steal::Denied,
            },
            Claim::Batch(max) => deque.steal_batch_with(max, |_| true, buf),
        }
    }
}

/// One steal-storm round: the owner pushes `n` items (popping a few on
/// the way, per `pop_every`), `thieves` threads hammer `claim` until the
/// deque drains, and every item must surface exactly once: across
/// thieves racing each other, the owner's bottom pops, and buffer growth
/// mid-claim.
///
/// Returns (owner-consumed, per-thief batch sizes) so callers can also
/// assert batch geometry (never more than the cap, never empty on Data).
fn storm(
    n: u64,
    thieves: usize,
    claim: Claim,
    initial_cap: usize,
    pop_every: u64,
) -> (usize, Vec<Vec<usize>>) {
    let max = match claim {
        Claim::Single => 1,
        Claim::Batch(max) => max,
    };
    let deque: Arc<ClDeque<u64>> = Arc::new(ClDeque::with_capacity(initial_cap));
    let done = Arc::new(AtomicBool::new(false));
    let mut seen = vec![0u32; n as usize];

    let (owner_got, thief_got) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..thieves)
            .map(|_| {
                let deque = Arc::clone(&deque);
                let done = Arc::clone(&done);
                s.spawn(move || {
                    let mut got: Vec<u64> = Vec::new();
                    let mut batches: Vec<usize> = Vec::new();
                    let mut buf: Vec<u64> = Vec::new();
                    loop {
                        // Read before the probe: the owner raises `done`
                        // only after its last push and its final drain,
                        // so an empty probe after it is final.
                        let finishing = done.load(Ordering::Acquire);
                        match claim.steal(&deque, &mut buf) {
                            Steal::Data(k) => {
                                assert_eq!(k, buf.len(), "count matches delivered items");
                                assert!(k >= 1 && k <= max, "batch size within [1, max]");
                                batches.push(k);
                                got.append(&mut buf);
                            }
                            Steal::Retry => {}
                            Steal::Empty | Steal::Denied => {
                                assert!(buf.is_empty(), "no items delivered without Data");
                                if finishing {
                                    break;
                                }
                                std::hint::spin_loop();
                            }
                        }
                    }
                    (got, batches)
                })
            })
            .collect();

        let mut owner: Vec<u64> = Vec::new();
        for i in 0..n {
            deque.push(i);
            if pop_every > 0 && i % pop_every == pop_every - 1 {
                if let Some(v) = deque.pop() {
                    owner.push(v);
                }
            }
        }
        // Owner drains what the thieves left behind.
        while let Some(v) = deque.pop() {
            owner.push(v);
        }
        done.store(true, Ordering::Release);
        let joined: Vec<(Vec<u64>, Vec<usize>)> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        (owner, joined)
    });

    for &v in owner_got
        .iter()
        .chain(thief_got.iter().flat_map(|(g, _)| g))
    {
        seen[v as usize] += 1;
    }
    let missing: Vec<u64> = (0..n).filter(|&i| seen[i as usize] == 0).collect();
    let duped: Vec<u64> = (0..n).filter(|&i| seen[i as usize] > 1).collect();
    assert!(
        missing.is_empty() && duped.is_empty(),
        "items lost {missing:?} / duplicated {duped:?} \
         (n={n}, thieves={thieves}, {claim:?}, cap={initial_cap})"
    );
    (
        owner_got.len(),
        thief_got.into_iter().map(|(_, b)| b).collect(),
    )
}

#[test]
fn steal_storm_every_item_exactly_once() {
    let (owner, steals) = storm(100_000, 3, Claim::Single, 64, 0);
    assert_eq!(owner + steals.iter().map(Vec::len).sum::<usize>(), 100_000);
}

#[test]
fn steal_storm_with_owner_pops_interleaved() {
    storm(50_000, 4, Claim::Single, 64, 7);
}

#[test]
fn steal_storm_under_forced_growth() {
    // Initial capacity 2: the owner grows the buffer dozens of times
    // while thieves race on retired generations.
    storm(20_000, 3, Claim::Single, 2, 0);
}

#[test]
fn steal_storm_single_thief_tiny() {
    storm(1_000, 1, Claim::Single, 2, 3);
}

#[test]
fn concurrent_filtered_steals_never_take_denied_items() {
    // Thieves only admit even values; odd values must all remain for
    // the owner. Exercises the read-admit-CAS window under contention.
    let n = 20_000u64;
    let deque: Arc<ClDeque<u64>> = Arc::new(ClDeque::with_capacity(8));
    let done = Arc::new(AtomicBool::new(false));
    let (owner_got, thief_got) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let deque = Arc::clone(&deque);
                let done = Arc::clone(&done);
                s.spawn(move || {
                    let mut got: Vec<u64> = Vec::new();
                    while !done.load(Ordering::Acquire) {
                        match deque.steal_with(|v| v % 2 == 0) {
                            Steal::Data(v) => got.push(v),
                            _ => std::hint::spin_loop(),
                        }
                    }
                    got
                })
            })
            .collect();
        let mut owner: Vec<u64> = Vec::new();
        for i in 0..n {
            deque.push(i);
        }
        while let Some(v) = deque.pop() {
            owner.push(v);
        }
        done.store(true, Ordering::Release);
        let thief_got: Vec<Vec<u64>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        (owner, thief_got)
    });
    for v in thief_got.iter().flatten() {
        assert_eq!(v % 2, 0, "thieves must only ever receive admitted items");
    }
    let total = owner_got.len() + thief_got.iter().map(Vec::len).sum::<usize>();
    assert_eq!(total, n as usize, "every item consumed exactly once");
    let odd_to_owner = owner_got.iter().filter(|&&v| v % 2 == 1).count();
    assert_eq!(
        odd_to_owner,
        (n / 2) as usize,
        "all odd items reach the owner"
    );
}

#[test]
fn batched_steal_storm_every_item_exactly_once() {
    let (owner, batches) = storm(100_000, 3, Claim::Batch(8), 64, 0);
    let stolen: usize = batches.iter().flatten().sum();
    assert_eq!(owner + stolen, 100_000);
}

#[test]
fn batched_steal_storm_with_owner_pops_and_growth() {
    // Capacity 2 forces dozens of grows while batches are mid-claim;
    // owner pops race the bottom end of the same windows.
    storm(30_000, 4, Claim::Batch(8), 2, 5);
}

#[test]
fn batched_storm_actually_batches() {
    // A real pre-load: the lone thief waits on a barrier until all of
    // the items are pushed, and the owner pops nothing until the thief
    // has drained the deque. Its first claim therefore sees every item
    // and must take exactly min(8, ⌈len/2⌉) = 8 — a regression where
    // steal_batch_with degenerates to single-steal fails here, where the
    // exactly-once storms above would still pass.
    const N: u64 = 50_000;
    let deque: ClDeque<u64> = ClDeque::with_capacity(64);
    let loaded = Barrier::new(2);
    let (mut got, batches) = std::thread::scope(|s| {
        let thief = s.spawn(|| {
            loaded.wait();
            let (mut got, mut batches, mut buf) = (Vec::new(), Vec::new(), Vec::new());
            loop {
                match deque.steal_batch_with(8, |_| true, &mut buf) {
                    Steal::Data(k) => {
                        batches.push(k);
                        got.append(&mut buf);
                    }
                    Steal::Retry => {}
                    Steal::Empty | Steal::Denied => break,
                }
            }
            (got, batches)
        });
        for i in 0..N {
            deque.push(i);
        }
        loaded.wait();
        thief.join().unwrap()
    });
    assert_eq!(
        batches.first(),
        Some(&8),
        "the first claim on a pre-loaded deque takes min(8, ⌈{N}/2⌉): {:?}",
        &batches[..batches.len().min(32)]
    );
    while let Some(v) = deque.pop() {
        got.push(v);
    }
    got.sort_unstable();
    assert!(
        got.iter().copied().eq(0..N),
        "every item surfaces exactly once"
    );
}

#[test]
fn batched_steals_respect_admission_prefix() {
    // Thieves admit only values below a horizon; everything else must
    // fall through to the owner, batches or not.
    let n = 20_000u64;
    let horizon = 10_000u64;
    let deque: Arc<ClDeque<u64>> = Arc::new(ClDeque::with_capacity(8));
    let done = Arc::new(AtomicBool::new(false));
    let (owner_got, thief_got) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let deque = Arc::clone(&deque);
                let done = Arc::clone(&done);
                s.spawn(move || {
                    let mut got: Vec<u64> = Vec::new();
                    let mut buf: Vec<u64> = Vec::new();
                    while !done.load(Ordering::Acquire) {
                        match deque.steal_batch_with(6, |&v| v < horizon, &mut buf) {
                            Steal::Data(_) => got.append(&mut buf),
                            _ => std::hint::spin_loop(),
                        }
                    }
                    got
                })
            })
            .collect();
        let mut owner: Vec<u64> = Vec::new();
        for i in 0..n {
            deque.push(i);
        }
        while let Some(v) = deque.pop() {
            owner.push(v);
        }
        done.store(true, Ordering::Release);
        let thief_got: Vec<Vec<u64>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        (owner, thief_got)
    });
    for v in thief_got.iter().flatten() {
        assert!(*v < horizon, "batched thieves only receive admitted items");
    }
    let total = owner_got.len() + thief_got.iter().map(Vec::len).sum::<usize>();
    assert_eq!(total, n as usize, "every item consumed exactly once");
    let beyond_to_owner = owner_got.iter().filter(|&&v| v >= horizon).count();
    assert_eq!(
        beyond_to_owner,
        (n - horizon) as usize,
        "all non-admitted items reach the owner"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Linearizability-style accounting under randomized geometry: for
    /// any (n, thieves, capacity, pop cadence), every pushed job is
    /// popped or stolen exactly once — no loss, no duplication, across
    /// growth and the last-element CAS races.
    #[test]
    fn storm_accounting_holds_for_any_geometry(
        n in 1u64..4000,
        thieves in 1usize..5,
        cap_pow in 1u32..7,
        pop_every in 0u64..9,
    ) {
        storm(n, thieves, Claim::Single, 1usize << cap_pow, pop_every);
    }

    /// Same accounting with batched thieves over randomized batch caps:
    /// exactly-once holds for any (n, thieves, max, capacity, cadence),
    /// including max=1 (what the runtime's join-waits pass) and caps
    /// larger than the deque ever holds.
    #[test]
    fn batched_storm_accounting_holds_for_any_geometry(
        n in 1u64..4000,
        thieves in 1usize..5,
        max in 1usize..13,
        cap_pow in 1u32..7,
        pop_every in 0u64..9,
    ) {
        storm(n, thieves, Claim::Batch(max), 1usize << cap_pow, pop_every);
    }
}
