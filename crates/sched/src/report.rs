//! Execution reports: everything the paper's lemmas quantify.

use hbp_machine::MachineStats;

/// Result of one scheduled (parallel) execution.
#[derive(Debug, Clone)]
pub struct ExecReport {
    /// Number of simulated cores.
    pub p: usize,
    /// Completion time: max over cores of their final virtual clock.
    pub makespan: u64,
    /// Total accesses executed (must equal the computation's work).
    pub work: u64,
    /// Raw memory-system counters.
    pub machine: MachineStats,
    /// Coherence (block) misses on global-heap addresses.
    pub heap_block_misses: u64,
    /// Coherence (block) misses on execution-stack addresses (§3.3).
    pub stack_block_misses: u64,
    /// Plain (cold + capacity) misses on execution-stack addresses.
    pub stack_plain_misses: u64,
    /// Successful steals (claiming sequences: a batched steal on the
    /// native backend counts once however many tasks it moved).
    pub steals: u64,
    /// Tasks moved by successful steals. Equals `steals` on the sim
    /// backend; exceeds it on native whenever a top-level steal's one
    /// commit claimed several tasks.
    pub stolen_tasks: u64,
    /// Successful steals + deduplicated failed round attempts (Cor 4.1
    /// bounds this by `2·p·D'`).
    pub steal_attempts: u64,
    /// Steal count per task priority (Obs 4.3: each entry ≤ p−1).
    pub steals_by_priority: Vec<(u32, u64)>,
    /// Sizes of stolen tasks (Lemma 2.1's excess analysis).
    pub stolen_sizes: Vec<u64>,
    /// Usurpations: joins where the continuing core differs from the core
    /// that previously executed the parent (Def 4.1, Lemma 4.6).
    pub usurpations: u64,
    /// Per-core busy time (compute + miss stalls).
    pub busy: Vec<u64>,
    /// Per-core steal overhead (`sP` per success, probe fees on failures).
    pub steal_overhead: Vec<u64>,
    /// Per-core idle time (waiting in rounds / for joins).
    pub idle: Vec<u64>,
    /// Number of distinct priorities `D'` of the computation.
    pub n_priorities: u32,
    /// Peak worker participation during the job (driver included):
    /// `p` on the simulator, where every core takes part in every run;
    /// on the native pool, how many of its `p` workers registered for
    /// this job before it finished (`1..=p` — a short job can end before
    /// a parked thief wakes, and a job that never forks wakes none, so it
    /// reports 1).
    pub workers_active: usize,
}

impl ExecReport {
    /// Total cache misses excluding coherence misses — comparable to
    /// the sequential `Q(n, M, B)`.
    pub fn plain_misses(&self) -> u64 {
        self.machine.total().plain_misses()
    }

    /// Total coherence (block) misses.
    pub fn block_misses(&self) -> u64 {
        self.machine.total().coherence
    }

    /// Maximum steals over any single priority.
    pub fn max_steals_per_priority(&self) -> u64 {
        self.steals_by_priority
            .iter()
            .map(|&(_, c)| c)
            .max()
            .unwrap_or(0)
    }

    /// Compare against a sequential run: the paper's *excess* quantities.
    pub fn excess_vs(&self, seq: &SeqReport) -> ExcessReport {
        ExcessReport {
            cache_miss_excess: self.plain_misses().saturating_sub(seq.q_misses),
            block_miss_total: self.block_misses(),
            q_sequential: seq.q_misses,
        }
    }
}

/// Result of a sequential (p = 1) execution: the baseline `Q(n, M, B)`.
#[derive(Debug, Clone, Copy)]
pub struct SeqReport {
    /// Sequential cache complexity: all misses of the single core.
    pub q_misses: u64,
    /// Work (accesses).
    pub work: u64,
    /// Sequential completion time (`W + b·Q`).
    pub makespan: u64,
}

/// The paper's excess quantities (§4.2, §4.3): how much a scheduled
/// execution pays beyond the sequential cache complexity.
#[derive(Debug, Clone, Copy)]
pub struct ExcessReport {
    /// `max(0, parallel plain misses − Q)` — the PWS cache-miss excess
    /// `Q_C` before the `O(Q)` forgiveness constant.
    pub cache_miss_excess: u64,
    /// Total block misses (all coherence misses) — the block-miss excess
    /// `Q_B` is this figure when it exceeds `O(Q)`.
    pub block_miss_total: u64,
    /// The sequential baseline `Q`.
    pub q_sequential: u64,
}
