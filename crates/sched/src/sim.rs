//! The discrete-event engine core.
//!
//! [`Engine`] owns the simulated machine state — per-core virtual clocks,
//! the [`TaskDeques`], the
//! [`StackAllocator`], the
//! [`EventQueue`], and the statistics — and
//! executes the recorded computation in the order of the event queue: one
//! [`Step`](crate::clock::EvKind::Step) event per chargeable action,
//! popped by time and, within one instant, in push order.
//!
//! **Run-ahead.** The order is what is specified, not the queue traffic.
//! After a core's access moves its clock to `t`, its next `Step` would be
//! pushed at `t`, behind whatever is queued for `t` already. If no event
//! is pending in the calendar's buckets up to and including `t`, that
//! event would be the very next one popped, so the core keeps going in
//! place — through the rest of the segment and into the item after it —
//! without the push and the pop, and the calendar's cursor moves to `t`
//! with it. Including `t`: an event already queued for `t` itself was
//! pushed earlier and must run first. The sequence of executed actions is
//! therefore exactly the one the queue would have produced, and with it
//! every statistic, trace event and RWS probe draw. With one
//! core every access qualifies; with several, cores whose clocks are
//! level take turns through the queue.
//!
//! **Per-node state.** What is fixed when a node is recorded — its
//! parent, its priority, its frame size, where its body lies — is read
//! from the [`Computation`] (`TNode`, `items_of`); the engine rebuilds
//! none of it. What changes while a node runs is one `NodeRun` record
//! per node, and a core's cursor carries the open segment as a range of
//! the access arena, so a step inside a segment goes node-free from the
//! cursor to its access.
//!
//! **Critical path, forward.** [`Engine::keep_critical_path`] makes the
//! engine keep the split `hbp_trace::critical_path` would extract from a
//! trace of the run — work, steal charges and queue wait on the chain
//! that ends at the root's last close — without recording one. The
//! backward walk names each segment's release: the same core's previous
//! close at the same instant, or a steal, whose path runs on through the
//! fork that published the stolen task. So the split of the path ending
//! at any point is fixed when that point is reached, and three O(1)
//! updates carry it forward: a segment close adds its duration to its
//! core's split; a fork files the closed split under the right child it
//! publishes; a steal commit starts the thief from the filed split plus
//! the steal charge and the queue wait, with the commit instant clamped
//! into `[forked, begin]` as the walk clamps it. A split's `total` is
//! always the virtual time of its point, so the filed split carries the
//! fork's instant too. `tests/trace_invariants.rs` holds the two equal.
//!
//! **Sweeps.** *Who* steals *what* when a [`Sweep`](EvKind::Sweep)
//! fires is one of the paper's three disciplines, picked once per run
//! from the [`Policy`]: PWS's priority rounds (§4, §4.7), the same rounds
//! with §5.3's floor on the size of a stealable task under BSP, or a
//! seeded random probe per idle core under RWS. Everything else — frame
//! allocation, fork/join bookkeeping, miss accounting — is the same for
//! all three.

use hbp_machine::{MachineConfig, MemSystem, Word};
use hbp_model::{Computation, Item, NodeId, Target};
use hbp_trace::{CpTotals, EventKind as TrEv, TraceSink};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

use crate::clock::{EvKind, EventQueue};
use crate::deque::TaskDeques;
use crate::engine::Policy;
use crate::report::ExecReport;
use crate::stacks::StackAllocator;

/// Where a core is within its current node's item list.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    node: NodeId,
    /// Index of the next item of `node`'s body to open.
    item: u32,
    /// What is left of the open segment, as a range of
    /// [`Computation::arena`] (empty: no segment is open), so a step
    /// inside a segment goes straight to its access.
    pos: u32,
    end: u32,
}

impl Cursor {
    /// About to open item `item` of `node`.
    fn at(node: NodeId, item: u32) -> Self {
        Cursor {
            node,
            item,
            pos: 0,
            end: 0,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum CoreState {
    Idle,
    Run(Cursor),
}

#[derive(Debug)]
struct Core {
    time: u64,
    busy: u64,
    steal_overhead: u64,
    idle_accum: u64,
    idle_since: u64,
    state: CoreState,
    cur_region: u32,
    /// Miss deltas of the currently open trace segment
    /// (heap block / stack block / stack plain); tracked only when a
    /// tracer is attached, flushed as [`TrEv::MissDelta`] at segment close.
    seg_miss: [u64; 3],
}

/// The run-time state of one task node — one record, so starting or
/// finishing a node touches one cache line. (What is fixed at build time
/// — parent, priority, frame size — is read from the node itself.)
#[derive(Debug, Clone, Copy)]
struct NodeRun {
    /// Where the node's frame sits; `Word::MAX` while it has none.
    frame_addr: Word,
    /// The stack region the frame was pushed in.
    region: u32,
    /// Item index of its currently-active fork.
    active_fork: u32,
    /// Words of the deepest pad + frame chain the node heads: the size of
    /// the stack region it opens if it is the root or is stolen.
    chain: u32,
    /// Last core to execute part of the node's kernel items (`u8::MAX`
    /// before any; `p <= 64`).
    executor: u8,
    /// Remaining children of that fork.
    fork_remaining: u8,
}

const _: () = assert!(std::mem::size_of::<NodeRun>() == 24);

/// Who steals what when a sweep fires (see the module docs).
enum Stealer {
    /// Priority rounds over the tasks of at least `min_size`: 0 under
    /// PWS, §5.3's floor under BSP.
    Rounds { min_size: u64 },
    /// One uniformly random probe per idle core, drawn from a seeded RNG.
    Probe(Box<ChaCha8Rng>),
}

/// The forward critical-path state (see the module docs).
#[derive(Debug)]
struct CpState {
    /// Per core, the split of the path into its current segment: at the
    /// segment's open, then — once the close has added the segment's
    /// duration — at its close, which is the next segment's open unless
    /// a steal releases that one.
    at: Vec<CpTotals>,
    /// Per node, the split at the fork that published it as a right
    /// child (`total` is the fork's instant); only read for a node that
    /// is stolen, so only ever read after it is written.
    forked: Vec<CpTotals>,
    /// The root's final close: the run's split.
    path: Option<CpTotals>,
}

/// The simulator state (see module docs).
pub(crate) struct Engine<'a> {
    comp: &'a Computation,
    cfg: MachineConfig,
    ms: MemSystem,
    /// Optional structured-event recorder (see [`Engine::attach_trace`]).
    trace: Option<&'a TraceSink>,
    /// Optional critical-path split (see [`Engine::keep_critical_path`]).
    cp: Option<CpState>,
    // --- dynamic state ----------------------------------------------------
    cores: Vec<Core>,
    /// How many of `cores` are [`CoreState::Idle`] (sweeps are wanted
    /// only while this is non-zero).
    idle_cores: usize,
    deques: TaskDeques,
    stacks: StackAllocator,
    /// Per node, everything that changes while it runs.
    runs: Vec<NodeRun>,
    clock: EventQueue,
    done: bool,
    end_time: u64,
    // --- statistics --------------------------------------------------------
    executed: u64,
    steals: u64,
    steals_by_pri: Vec<u64>,
    stolen_sizes: Vec<u64>,
    /// Per priority, the thieves (bit `i` = core `i`; `p <= 64`) that sat
    /// out a round at it — Cor 4.1 counts each such pair once.
    failed_rounds: Vec<u64>,
    failed_probes: u64,
    usurpations: u64,
    heap_block_misses: u64,
    stack_block_misses: u64,
    stack_plain_misses: u64,
}

impl<'a> Engine<'a> {
    /// Fresh engine for `comp` on the machine `cfg`.
    pub(crate) fn new(comp: &'a Computation, cfg: MachineConfig) -> Self {
        assert_eq!(
            comp.block_words, cfg.block_words,
            "computation was built for block size {}, machine has {}",
            comp.block_words, cfg.block_words
        );
        let idle_node = NodeRun {
            frame_addr: Word::MAX,
            region: u32::MAX,
            active_fork: u32::MAX,
            chain: 0,
            executor: u8::MAX,
            fork_remaining: 0,
        };
        let mut runs = vec![idle_node; comp.nodes.len()];
        // A node forks only nodes with larger ids, so a reverse pass sees
        // every child's chain before its parent's.
        for (v, tn) in comp.nodes.iter().enumerate().rev() {
            let words = runs[v].chain as u64 + tn.pad_words as u64 + tn.frame_words as u64;
            let chain = u32::try_from(words).expect("a frame chain fits in u32 words");
            runs[v].chain = chain;
            if tn.parent != NodeId::NONE {
                let up = &mut runs[tn.parent.idx()].chain;
                *up = (*up).max(chain);
            }
        }
        Self {
            comp,
            cfg,
            ms: MemSystem::new(cfg),
            trace: None,
            cp: None,
            cores: (0..cfg.p)
                .map(|_| Core {
                    time: 0,
                    busy: 0,
                    steal_overhead: 0,
                    idle_accum: 0,
                    idle_since: 0,
                    state: CoreState::Idle,
                    cur_region: 0,
                    seg_miss: [0; 3],
                })
                .collect(),
            idle_cores: cfg.p,
            deques: TaskDeques::new(cfg.p),
            stacks: StackAllocator::new(comp, cfg),
            runs,
            clock: EventQueue::new(&cfg),
            done: false,
            end_time: 0,
            executed: 0,
            steals: 0,
            steals_by_pri: vec![0; comp.n_priorities as usize + 2],
            stolen_sizes: Vec::new(),
            failed_rounds: vec![0; comp.n_priorities as usize + 2],
            failed_probes: 0,
            usurpations: 0,
            heap_block_misses: 0,
            stack_block_misses: 0,
            stack_plain_misses: 0,
        }
    }

    /// Record structured events into `sink` for the rest of this run.
    ///
    /// Purely observational: the event loop, costs, and report are
    /// bit-identical with and without a tracer (the determinism tests
    /// cover this). The sink must be sized for at least `cfg.p` workers.
    pub(crate) fn attach_trace(&mut self, sink: &'a TraceSink) {
        assert!(
            sink.workers() >= self.cfg.p,
            "trace sink sized for {} workers, machine has {}",
            sink.workers(),
            self.cfg.p
        );
        assert!(
            sink.clock() == hbp_trace::ClockDomain::Virtual,
            "sim traces are virtual-time; use ClockDomain::Virtual"
        );
        self.trace = Some(sink);
    }

    /// Keep the split of this run's critical path as it goes (see the
    /// module docs); [`Engine::critical_path`] reads it once the run is
    /// done. Like a tracer, purely observational: the report is the
    /// same with and without it.
    pub(crate) fn keep_critical_path(&mut self) {
        self.cp = Some(CpState {
            at: vec![CpTotals::default(); self.cfg.p],
            forked: vec![CpTotals::default(); self.comp.nodes.len()],
            path: None,
        });
    }

    /// The split of the critical path of a finished run, or `None` if
    /// [`Engine::keep_critical_path`] was not called before
    /// [`Engine::drive`]. `total` equals the report's makespan.
    pub(crate) fn critical_path(&self) -> Option<CpTotals> {
        self.cp.as_ref()?.path
    }

    /// Emit one trace event for `core` (no-op without a tracer).
    #[inline]
    fn emit(&self, core: usize, t: u64, kind: TrEv) {
        if let Some(tr) = self.trace {
            tr.push(core, t, kind);
        }
    }

    /// Close `core`'s open segment at time `t`: extend its critical-path
    /// split by the segment's duration and flush the segment's miss
    /// deltas (called just before the segment-closing event is emitted).
    fn close_segment(&mut self, core: usize, t: u64) {
        if let Some(cp) = &mut self.cp {
            let at = &mut cp.at[core];
            at.work += t - at.total;
            at.total = t;
        }
        if self.trace.is_none() {
            return;
        }
        let seg_miss = std::mem::take(&mut self.cores[core].seg_miss);
        if seg_miss != [0; 3] {
            // The event's counts are 32-bit: one segment of one recorded
            // computation cannot miss 2^32 times, so refuse, never wrap.
            let [heap_block, stack_block, stack_plain] = seg_miss
                .map(|n| u32::try_from(n).expect("a segment's miss count fits the event's u32"));
            self.emit(
                core,
                t,
                TrEv::MissDelta {
                    heap_block,
                    stack_block,
                    stack_plain,
                },
            );
        }
    }

    fn schedule_sweep(&mut self, time: u64) {
        // Only idle cores benefit from sweeps; dedupe by timestamp.
        self.clock.schedule_sweep(time, self.idle_cores > 0);
    }

    /// Park `core` (blocked on a stolen sibling, or done).
    fn go_idle(&mut self, core: usize) {
        let c = &mut self.cores[core];
        c.state = CoreState::Idle;
        c.idle_since = c.time;
        self.idle_cores += 1;
    }

    /// Push `node`'s frame in `region` and make `core` start executing it.
    fn start_node(&mut self, core: usize, node: NodeId, region: u32) {
        let tn = &self.comp.nodes[node.idx()];
        let fa = self.stacks.push_frame(region, tn.pad_words, tn.frame_words);
        let run = &mut self.runs[node.idx()];
        run.frame_addr = fa;
        run.region = region;
        run.executor = core as u8;
        if matches!(self.cores[core].state, CoreState::Idle) {
            self.idle_cores -= 1;
        }
        self.cores[core].cur_region = region;
        self.cores[core].state = CoreState::Run(Cursor::at(node, 0));
        if self.trace.is_some() {
            let t = self.cores[core].time;
            self.emit(
                core,
                t,
                TrEv::TaskBegin {
                    task: node.idx() as u32,
                },
            );
        }
    }

    fn resolve(&self, t: Target) -> Word {
        match t {
            Target::Global(w) => w,
            Target::Local { node, off } => {
                let fa = self.runs[node.idx()].frame_addr;
                debug_assert!(fa != Word::MAX, "access to dead frame of {node:?}");
                fa + off as u64
            }
        }
    }

    /// Count one miss of `core` (heap block / stack block / stack plain;
    /// plain heap misses are only in the machine's own counters).
    fn note_miss(&mut self, core: usize, block_miss: bool, is_stack: bool) {
        let (counter, slot) = match (block_miss, is_stack) {
            (true, false) => (&mut self.heap_block_misses, 0),
            (true, true) => (&mut self.stack_block_misses, 1),
            (false, true) => (&mut self.stack_plain_misses, 2),
            (false, false) => return,
        };
        *counter += 1;
        if self.trace.is_some() {
            self.cores[core].seg_miss[slot] += 1;
        }
    }

    /// Advance `core` from its [`EvKind::Step`] event: zero-cost control
    /// steps (node finish, join resolution) cascade, a fork is charged
    /// and the core's next event queued, and a run of accesses is
    /// executed for as long as this core's next event would be the very
    /// next one popped anyway (see the module docs for why that changes
    /// nothing).
    fn step(&mut self, core: usize) {
        let comp = self.comp;
        loop {
            let cur = match self.cores[core].state {
                CoreState::Idle => return,
                CoreState::Run(c) => c,
            };
            let node = cur.node;
            if cur.pos < cur.end {
                let stack_base = self.stacks.stack_base();
                let t0 = self.cores[core].time;
                let (mut t, mut pos) = (t0, cur.pos);
                let mut ran_ahead = true;
                while ran_ahead && pos < cur.end {
                    let a = comp.arena[pos as usize];
                    let addr = self.resolve(a.target());
                    let (out, cost) = self.ms.access_costed(core, addr, a.write());
                    if out.is_miss() {
                        self.note_miss(core, out.is_block_miss(), addr >= stack_base);
                    }
                    pos += 1;
                    t += cost;
                    ran_ahead = self.clock.runs_next(t);
                }
                self.executed += (pos - cur.pos) as u64;
                let c = &mut self.cores[core];
                c.time = t;
                c.busy += t - t0;
                // An exhausted segment is closed here, whoever runs next.
                c.state = CoreState::Run(if pos == cur.end {
                    Cursor::at(node, cur.item)
                } else {
                    Cursor { pos, ..cur }
                });
                if ran_ahead {
                    // Nothing is due before this core's next event: go on
                    // to the next item.
                    continue;
                }
                self.clock.push(t, EvKind::Step(core as u32));
                return;
            }
            let items = comp.items_of(node);
            let Some(&item) = items.get(cur.item as usize) else {
                if self.finish_node(core, node) {
                    continue; // new state, keep cascading
                }
                return; // idle or done
            };
            match item {
                Item::Seg(s) => {
                    self.cores[core].state = CoreState::Run(Cursor {
                        node,
                        item: cur.item + 1,
                        pos: s.start,
                        end: s.end,
                    });
                }
                Item::Fork { left, right, .. } => {
                    // O(1) fork bookkeeping.
                    self.cores[core].time += 1;
                    self.cores[core].busy += 1;
                    let t = self.cores[core].time;
                    self.close_segment(core, t);
                    if let Some(cp) = &mut self.cp {
                        cp.forked[right.idx()] = cp.at[core];
                    }
                    if self.trace.is_some() {
                        self.emit(
                            core,
                            t,
                            TrEv::Fork {
                                parent: node.idx() as u32,
                                left: left.idx() as u32,
                                right: right.idx() as u32,
                            },
                        );
                    }
                    let run = &mut self.runs[node.idx()];
                    run.fork_remaining = 2;
                    run.active_fork = cur.item;
                    self.deques.push_bottom(core, right);
                    let region = self.cores[core].cur_region;
                    self.start_node(core, left, region);
                    self.clock.push(t, EvKind::Step(core as u32));
                    self.schedule_sweep(t);
                    return;
                }
            }
        }
    }

    /// Handle completion of `node` by `core`. Returns `true` if the core
    /// has a new running state to cascade into.
    fn finish_node(&mut self, core: usize, node: NodeId) -> bool {
        let t = self.cores[core].time;
        self.close_segment(core, t);
        if self.trace.is_some() {
            self.emit(
                core,
                t,
                TrEv::TaskEnd {
                    task: node.idx() as u32,
                },
            );
        }
        // Pop the frame (LIFO within its region).
        let tn = &self.comp.nodes[node.idx()];
        let run = &mut self.runs[node.idx()];
        self.stacks
            .pop_frame(run.region, run.frame_addr, tn.pad_words, tn.frame_words);
        run.frame_addr = Word::MAX;

        if node == self.comp.root {
            self.done = true;
            self.end_time = self.cores[core].time;
            if let Some(cp) = &mut self.cp {
                cp.path = Some(cp.at[core]);
            }
            self.go_idle(core);
            return false;
        }
        let pnode = tn.parent;
        self.runs[pnode.idx()].fork_remaining -= 1;
        if self.runs[pnode.idx()].fork_remaining > 0 {
            // Sibling still outstanding: resume it from our own deque if it
            // was not stolen, otherwise this kernel is blocked — go idle.
            if let Some(sib) = self.deques.pop_bottom(core) {
                debug_assert_eq!(
                    self.comp.nodes[sib.idx()].parent,
                    pnode,
                    "deque bottom is not the sibling"
                );
                let region = self.cores[core].cur_region;
                self.start_node(core, sib, region);
                let t = self.cores[core].time;
                self.schedule_sweep(t);
                return true;
            }
            self.go_idle(core);
            let t = self.cores[core].time;
            self.schedule_sweep(t);
            return false;
        }
        // Both children done: the last finisher continues the parent
        // (usurpation if it is not the core previously executing it).
        let prun = &mut self.runs[pnode.idx()];
        if prun.executor != core as u8 {
            self.usurpations += 1;
        }
        prun.executor = core as u8;
        self.cores[core].cur_region = prun.region;
        self.cores[core].state = CoreState::Run(Cursor::at(pnode, prun.active_fork + 1));
        if self.trace.is_some() {
            let t = self.cores[core].time;
            self.emit(
                core,
                t,
                TrEv::JoinResume {
                    task: pnode.idx() as u32,
                },
            );
        }
        true
    }

    /// Run the whole computation, serving every sweep by `policy`.
    pub(crate) fn drive(&mut self, policy: Policy) {
        let root = self.comp.root;
        let mut stealer = match policy {
            Policy::Pws => Stealer::Rounds { min_size: 0 },
            // §5.3: only subtrees from the top `prefix_levels` levels of
            // unravelling (size ≥ root/2^levels) may move.
            Policy::Bsp { prefix_levels } => Stealer::Rounds {
                min_size: (self.comp.nodes[root.idx()].size >> prefix_levels.min(63)).max(1),
            },
            Policy::Rws { seed } => Stealer::Probe(Box::new(ChaCha8Rng::seed_from_u64(seed))),
        };
        let region = self.stacks.new_region(root, self.runs[root.idx()].chain);
        self.start_node(0, root, region);
        if self.trace.is_some() {
            self.emit(
                0,
                0,
                TrEv::RegionAttach {
                    task: root.idx() as u32,
                    region,
                },
            );
        }
        self.clock.push(0, EvKind::Step(0));
        while let Some(ev) = self.clock.pop() {
            if self.done {
                break;
            }
            match ev.kind {
                EvKind::Step(c) => self.step(c as usize),
                EvKind::Sweep => {
                    self.clock.sweep_started();
                    match &mut stealer {
                        Stealer::Rounds { min_size } => self.priority_sweep(ev.time, *min_size),
                        Stealer::Probe(rng) => self.probe_sweep(ev.time, rng),
                    }
                }
            }
        }
        assert!(self.done, "event queue drained before completion");
        assert_eq!(self.executed, self.comp.work(), "not all accesses executed");
    }

    /// Extract the final [`ExecReport`].
    pub(crate) fn report(self) -> ExecReport {
        let makespan = self.cores.iter().map(|c| c.time).max().unwrap_or(0);
        let idle: Vec<u64> = self
            .cores
            .iter()
            .map(|c| makespan - c.busy - c.steal_overhead)
            .collect();
        let failed_rounds: u64 = self
            .failed_rounds
            .iter()
            .map(|thieves| thieves.count_ones() as u64)
            .sum();
        let steal_attempts = self.steals + failed_rounds + self.failed_probes;
        ExecReport {
            p: self.cfg.p,
            makespan,
            work: self.executed,
            machine: self.ms.stats(),
            heap_block_misses: self.heap_block_misses,
            stack_block_misses: self.stack_block_misses,
            stack_plain_misses: self.stack_plain_misses,
            steals: self.steals,
            // The sim steals one task per commit, always.
            stolen_tasks: self.steals,
            steal_attempts,
            steals_by_priority: self
                .steals_by_pri
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(p, &c)| (p as u32, c))
                .collect(),
            stolen_sizes: self.stolen_sizes,
            usurpations: self.usurpations,
            busy: self.cores.iter().map(|c| c.busy).collect(),
            steal_overhead: self.cores.iter().map(|c| c.steal_overhead).collect(),
            idle,
            n_priorities: self.comp.n_priorities,
            // Every simulated core participates in every run.
            workers_active: self.cfg.p,
        }
    }

    // --- sweeps -------------------------------------------------------------

    /// Whether `core` is idle (a candidate thief).
    fn is_idle(&self, core: usize) -> bool {
        matches!(self.cores[core].state, CoreState::Idle)
    }

    /// The round's view of the victims: the best stealable deque head as
    /// `(priority, victim)`, and the highest pending-priority flag — §4.7's
    /// upper bound `priority − 1` that a busy core with an empty deque
    /// publishes for a task it may yet generate — maxima over deque heads
    /// and busy cores, restricted to the stealable sizes (`min_size > 1`
    /// under §5.3).
    fn scan_victims(&self, min_size: u64) -> (Option<(u32, usize)>, Option<u32>) {
        let mut best_head: Option<(u32, usize)> = None;
        for v in 0..self.cfg.p {
            if let Some(head) = self.deques.head(v) {
                let tn = &self.comp.nodes[head.idx()];
                if tn.size >= min_size && best_head.is_none_or(|(bp, _)| tn.priority > bp) {
                    best_head = Some((tn.priority, v));
                }
            }
        }
        let max_pending = (0..self.cfg.p)
            .filter_map(|v| match self.cores[v].state {
                CoreState::Run(c) => Some((v, &self.comp.nodes[c.node.idx()])),
                CoreState::Idle => None,
            })
            // a busy core can still generate stealable tasks only while
            // its current node is big enough to fork them
            .filter(|&(v, tn)| tn.size / 2 >= min_size && self.deques.is_empty(v))
            .map(|(_, tn)| tn.priority.saturating_sub(1))
            .max();
        (best_head, max_pending)
    }

    /// One PWS priority round restricted to tasks of size at least
    /// `min_size`.
    fn priority_sweep(&mut self, now: u64, min_size: u64) {
        // Within a sweep only a committed steal changes what `scan_victims`
        // reads, so the scan is shared by the thieves between two steals.
        let mut scan = None;
        // Serve idle cores in index order (the deterministic rank matching
        // of the distributed implementation, §4.7).
        for thief in 0..self.cfg.p {
            if !self.is_idle(thief) || self.done {
                continue;
            }
            match *scan.get_or_insert_with(|| self.scan_victims(min_size)) {
                (Some((pri, victim)), pending) => {
                    if let Some(pp) = pending.filter(|&pp| pp > pri) {
                        // A busy core may yet generate a higher-priority
                        // task: wait for it (round has not started).
                        self.note_failed_round(thief, pp, now);
                        continue;
                    }
                    self.commit_steal(thief, victim, now);
                    scan = None;
                }
                (None, Some(pp)) => self.note_failed_round(thief, pp, now),
                (None, None) => {}
            }
        }
    }

    /// Randomized work stealing: each idle core, in index order, probes
    /// one uniformly random other core and steals its deque top if there
    /// is one.
    fn probe_sweep(&mut self, now: u64, rng: &mut ChaCha8Rng) {
        let p = self.cfg.p;
        for thief in 0..p {
            if !self.is_idle(thief) || self.done {
                continue;
            }
            let mut victim = rng.random_range(0..p.max(2) - 1);
            if victim >= thief {
                victim += 1;
            }
            if victim >= p {
                continue; // p == 1
            }
            if self.deques.head(victim).is_some() {
                self.commit_steal(thief, victim, now);
            } else {
                self.note_failed_probe(thief, now);
            }
        }
    }

    /// Steal the top of `victim`'s deque for `thief`: charge `sP`, open a
    /// fresh stack region, start the task, and record the statistics. The
    /// victim's deque must be non-empty.
    fn commit_steal(&mut self, thief: usize, victim: usize, now: u64) {
        let node = self.deques.steal_top(victim).expect("victim head exists");
        self.steals += 1;
        let pri = self.comp.nodes[node.idx()].priority;
        self.steals_by_pri[pri as usize] += 1;
        self.stolen_sizes.push(self.comp.nodes[node.idx()].size);
        if self.trace.is_some() {
            self.emit(
                thief,
                now,
                TrEv::StealCommit {
                    task: node.idx() as u32,
                    victim: victim as u32,
                    count: 1,
                },
            );
        }
        let begin = now + self.cfg.steal_cost();
        if let Some(cp) = &mut self.cp {
            // The critical-path walk's steal hop: the wait runs from the
            // fork to the commit, the charge from the commit to the
            // begin. A sweep pending at `now` can take a task whose fork
            // is stamped `now + 1` (the fork's unit charge moved the
            // victim's clock past the sweep), hence the clamp.
            let forked = cp.forked[node.idx()];
            assert!(
                forked.total <= begin,
                "stolen task {node:?} begins at {begin}, before its fork at {}",
                forked.total
            );
            let committed = now.clamp(forked.total, begin);
            cp.at[thief] = CpTotals {
                total: begin,
                work: forked.work,
                steal: forked.steal + (begin - committed),
                queue_wait: forked.queue_wait + (committed - forked.total),
            };
        }
        let c = &mut self.cores[thief];
        c.idle_accum += now.saturating_sub(c.idle_since);
        c.time = begin;
        c.steal_overhead += self.cfg.steal_cost();
        let region = self.stacks.new_region(node, self.runs[node.idx()].chain);
        self.start_node(thief, node, region);
        let t = self.cores[thief].time;
        if self.trace.is_some() {
            self.emit(
                thief,
                t,
                TrEv::RegionAttach {
                    task: node.idx() as u32,
                    region,
                },
            );
        }
        self.clock.push(t, EvKind::Step(thief as u32));
    }

    /// Record that `thief` sat out a round at priority `pri` in the sweep
    /// at `now` (deduplicated per `(thief, pri)` pair — Cor 4.1's attempt
    /// accounting). `pri` is one of this computation's priorities, as
    /// `scan_victims` reports them.
    fn note_failed_round(&mut self, thief: usize, pri: u32, now: u64) {
        // Only a *newly* failed (thief, pri) pair emits a trace event, so
        // the traced attempt volume matches Cor 4.1's deduplicated count.
        let thieves = &mut self.failed_rounds[pri as usize];
        let newly = *thieves & (1 << thief) == 0;
        *thieves |= 1 << thief;
        if newly && self.trace.is_some() {
            self.emit(thief, now, TrEv::StealFail);
        }
    }

    /// Record an unsuccessful randomized probe by `thief` in the sweep at
    /// `now` (RWS): charges the probe fee and counts toward steal attempts.
    fn note_failed_probe(&mut self, thief: usize, now: u64) {
        self.failed_probes += 1;
        self.cores[thief].steal_overhead += self.cfg.probe_cost();
        if self.trace.is_some() {
            self.emit(thief, now, TrEv::StealFail);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbp_model::{BuildConfig, Builder};
    use hbp_trace::ClockDomain;

    #[test]
    #[should_panic(expected = "fits the event's u32")]
    fn a_segment_miss_count_above_u32_max_is_refused_not_wrapped() {
        let comp = Builder::build(BuildConfig::with_block(32), 1, |b| {
            let a = b.alloc::<u64>(1);
            b.write(a, 0, 1);
        });
        let sink = TraceSink::new(1, ClockDomain::Virtual);
        let mut engine = Engine::new(&comp, MachineConfig::new(1, 1 << 10, 32));
        engine.attach_trace(&sink);
        engine.cores[0].seg_miss[1] = u64::from(u32::MAX) + 1;
        engine.close_segment(0, 0);
    }

    #[test]
    fn every_node_carries_its_deepest_frame_chain() {
        let comp = crate::stacks::tests::forked_comp(32);
        let engine = Engine::new(&comp, MachineConfig::new(2, 1 << 10, 32));
        for (v, chain) in crate::stacks::tests::chains(&comp) {
            assert_eq!(engine.runs[v.idx()].chain, chain, "{v:?}");
        }
    }
}
