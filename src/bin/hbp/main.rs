//! `hbp <command> [args]`: the paper's tables and figures, the trace
//! tools and the job server's reports, one subcommand each. `hbp help`
//! lists them; every command reads the rest of its configuration from
//! the `HBP_*` environment (README, "Configuration").
//!
//! Each module's docs say which table, figure or bound of the paper its
//! command regenerates.

use std::fmt::Write as _;

mod common;
mod fig_block_excess;
mod fig_bsp;
mod fig_cache_excess;
mod fig_gapping;
mod fig_hierarchy;
mod fig_listrank;
mod fig_padding;
mod fig_pws_vs_rws;
mod fig_runtime;
mod fig_steal_sizes;
mod fig_steals;
mod metrics_report;
mod serve_scenario;
mod table1;
mod trace_diff;
mod trace_report;

/// Every command: name, argument synopsis (empty when it takes none),
/// one-line summary, entry point.
#[rustfmt::skip]
const COMMANDS: [(&str, &str, &str, fn(&[String])); 16] = [
    ("table1", "", "Table 1: structural parameters, measured vs claimed", |_| table1::main()),
    ("fig_pws_vs_rws", "", "headline: PWS vs RWS misses and steals", |_| fig_pws_vs_rws::main()),
    ("fig_block_excess", "", "block-miss excess vs the Lemma 4.2 envelopes", |_| fig_block_excess::main()),
    ("fig_cache_excess", "", "cache-miss excess vs O(pM/B) (Lemmas 4.1, 4.4)", |_| fig_cache_excess::main()),
    ("fig_steals", "", "steals per priority vs p-1 (Obs 4.3, Cor 4.1)", |_| fig_steals::main()),
    ("fig_steal_sizes", "", "stolen-task sizes under PWS and RWS (Lemma 2.1)", |_| fig_steal_sizes::main()),
    ("fig_gapping", "", "BI->RM conversions with and without gapping (§3.2)", |_| fig_gapping::main()),
    ("fig_padding", "", "stack block misses, plain vs padded (§4.7)", |_| fig_padding::main()),
    ("fig_hierarchy", "", "flat vs partitioned vs shared L2 (§5.2)", |_| fig_hierarchy::main()),
    ("fig_bsp", "", "PWS vs bulk-synchronous distribution (§5.3)", |_| fig_bsp::main()),
    ("fig_listrank", "", "list ranking, gapped vs dense contracted lists", |_| fig_listrank::main()),
    ("fig_runtime", "", "makespan vs the runtime model; native: worker sweep", |_| fig_runtime::main()),
    ("trace_report", trace_report::ARGS, "one traced kernel: work, span, steals, misses", trace_report::main),
    ("trace_diff", trace_diff::ARGS, "one kernel under two schedules, traces aligned", trace_diff::main),
    ("serve_scenario", "", "one job-server scenario's JSON report", |_| serve_scenario::main()),
    ("metrics_report", "", "the metrics registry's view of one scenario", |_| metrics_report::main()),
];

/// The command table `hbp help` prints.
fn help() -> String {
    let mut s = String::from("usage: hbp <command> [args]\n\ncommands:\n");
    for (name, args, about, _) in COMMANDS {
        let _ = writeln!(s, "  {name:<18}{about}");
        for line in args.lines() {
            let _ = writeln!(s, "{:<20}{}", "", line.trim_start());
        }
    }
    s
}

/// Print `msg` and `command`'s usage to stderr, and exit 2.
fn usage(command: &str, msg: &str) -> ! {
    let args = COMMANDS.iter().find(|c| c.0 == command).map_or("", |c| c.1);
    eprintln!("error: {msg}");
    eprintln!("usage: hbp {command} {args}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map_or("", String::as_str);
    if name == "help" {
        print!("{}", help());
    } else if let Some((.., run)) = COMMANDS.iter().find(|c| c.0 == name) {
        run(&args[1..]);
    } else {
        if !name.is_empty() {
            eprintln!("error: unknown command {name:?}");
        }
        eprint!("{}", help());
        std::process::exit(2);
    }
}
