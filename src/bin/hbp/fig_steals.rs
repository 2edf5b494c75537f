//! **F3 — Obs 4.3 + Cor 4.1**: PWS steals per priority and total steal
//! attempts, across the whole registry and a `p` sweep.
//!
//! Claims: at most `p − 1` tasks of any priority are stolen; total attempts
//! (successful + failed-round pairs) are at most `2·p·D'`.

use hbp_core::prelude::*;

use crate::common::rule;

pub fn main() {
    println!("F3: steals per priority (bound p-1) and attempts (bound 2pD')\n");
    println!(
        "{:<20} {:>3} {:>5} {:>9} {:>6} {:>9} {:>9} {:>6}",
        "algorithm", "p", "D'", "steals", "max/pri", "attempts", "2pD'", "ok"
    );
    rule(78);
    for spec in registry() {
        let n = spec.size.pick(1 << 12, 32);
        let comp = (spec.build)(n, BuildConfig::with_block(32), 42);
        for p in [4usize, 8, 16] {
            let cfg = MachineConfig::new(p, 1 << 12, 32);
            let r = run(&comp, cfg, Policy::Pws);
            let bound = 2 * p as u64 * (comp.n_priorities as u64 + 1);
            let ok = r.max_steals_per_priority() <= (p - 1) as u64 && r.steal_attempts <= bound;
            println!(
                "{:<20} {:>3} {:>5} {:>9} {:>6} {:>9} {:>9} {:>6}",
                spec.name,
                p,
                comp.n_priorities,
                r.steals,
                r.max_steals_per_priority(),
                r.steal_attempts,
                bound,
                if ok { "yes" } else { "VIOLATED" }
            );
            assert!(ok, "{} violated the steal bounds", spec.name);
        }
    }
    println!("\nall rows satisfy Obs 4.3 and Cor 4.1");
}
