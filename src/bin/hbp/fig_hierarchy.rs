//! **F10 — §5.2 cache hierarchy**: the paper's `d = 2` configuration —
//! private L1s under one L2 of `M₂ > p·M₁` words — in two flavors:
//!
//! * **partitioned** L2 (the paper's "simple but non-optimal" scheme):
//!   each core owns an `M₂/p` segment that behaves like a private second
//!   level (and is invalidated by coherence like one);
//! * **shared** L2: one copy; coherence-invalidated L1 lines refill from
//!   L2 at the cheap cost, so *block misses get cheaper* even though their
//!   count is unchanged.
//!
//! Simulator-only: the hierarchy lives in the machine model
//! ([`MachineConfig::with_l2`]). The native pool is resource oblivious,
//! as the paper's schedulers are — it steals flat over its workers and
//! never learns the host's cache topology — so this figure has no
//! native twin.

use hbp_core::prelude::*;

use crate::common::rule;

pub fn main() {
    println!("F10: flat vs partitioned-L2 vs shared-L2 (p=8, M1=2^8, M2=2^15, B=32)\n");
    println!(
        "{:<20} {:<12} {:>10} {:>9} {:>9} {:>9} {:>8}",
        "algorithm", "machine", "makespan", "L1 miss", "L2 hit", "blk miss", "speedup"
    );
    rule(84);
    for name in ["Scans (PS)", "MT", "FFT", "Sort (SPMS)"] {
        let spec = lookup(name);
        let n = spec.size.pick(1 << 13, 64);
        let comp = (spec.build)(n, BuildConfig::with_block(32), 42);
        let flat = MachineConfig::new(8, 1 << 8, 32);
        let machines = [
            ("flat (no L2)", flat),
            ("partitioned L2", flat.with_l2(1 << 15, true)),
            ("shared L2", flat.with_l2(1 << 15, false)),
        ];
        let base = run(&comp, flat, Policy::Pws).makespan;
        for (mname, m) in machines {
            let r = run(&comp, m, Policy::Pws);
            let t = r.machine.total();
            println!(
                "{:<20} {:<12} {:>10} {:>9} {:>9} {:>9} {:>8.2}",
                spec.name,
                mname,
                r.makespan,
                t.misses(),
                t.l2_hits,
                r.block_misses(),
                base as f64 / r.makespan as f64
            );
        }
        println!();
    }
    println!(
        "shared L2 ≥ partitioned ≥ flat in speedup; the shared L2 also\n\
         absorbs coherence refills (block-miss *cost* drops even though the\n\
         invalidation *count* is protocol-determined)."
    );
}
