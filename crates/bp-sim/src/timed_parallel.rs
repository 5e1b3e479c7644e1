//! Multi-threaded timed simulation with bitwise-identical results
//! (DESIGN.md §9 and §11).
//!
//! Under the zero communication model a conservative parallel
//! discrete-event simulator has zero lookahead across any channel: two PEs
//! connected (even transitively) by channels can interact at the very
//! timestamp being processed. What runs freely in parallel then are the
//! weakly connected components of the *direct* (zero-latency) channel
//! graph — no item routing, no dispatch wave, and no back-pressure ever
//! crosses between them. [`bp_core::ShardPlan`] groups those components
//! into per-worker shards; each worker runs the ordinary event loop
//! ([`crate::timed::ShardSim`]) over its own PEs.
//!
//! A nonzero [`bp_core::CommModel`] is what buys lookahead *within* a
//! component: a delayed channel's effects (arrivals, credit returns) land
//! at least its latency after the event that caused them, so the minimum
//! latency `L` over cross-shard channels bounds how far one shard can run
//! ahead of the others without missing an incoming event — classic
//! conservative (null-message-free, barrier-windowed) PDES. A coordinator
//! repeatedly gathers every shard's earliest pending/in-flight timestamp
//! `m` and releases the workers to process events with `t < m + L`;
//! cross-shard events ride per-shard mutex inboxes and are drained at the
//! next window boundary, which they cannot precede. With positive `L` even
//! a single connected component (e.g. `fig1b`) executes on multiple
//! workers; the zero model degenerates to one infinite window per
//! component, i.e. exactly the pre-model behavior.
//!
//! Within one shard, event times and handler effects are independent of
//! the other shards during a window (disjoint node state; remote effects
//! arrive only beyond the window edge), and the pop order of the shard's
//! events equals the sequential simulator's pop order restricted to that
//! shard: band-0 events (emissions, completions) are keyed by the local
//! insertion counter, which filters the global insertion order, and band-1
//! communication events carry creation-time `(stream, seq)` ordinals that
//! are identical in both engines. Per-shard artifacts — PE stats, node
//! firings, queue depths, each sink's end-of-frame times, source 0's frame
//! starts — are therefore already bitwise equal to the sequential run's,
//! and are merged by taking each entry from its owning shard. Nothing in
//! the report depends on how events interleave *across* shards: frames
//! are accounted per sink (frame `f` completes at the latest of every
//! sink's `f`-th end-of-frame), so no global event order is rebuilt.
//!
//! The one artifact that is a global order is the trace. A run with
//! [`SimConfig::trace`] set executes on the sequential engine, whose
//! trace is already in canonical pop order; the parallel workers never
//! trace.

use crate::parallel::DisjointSlots;
use crate::runtime::RtNode;
use crate::stats::{PeStats, SimReport};
use crate::timed::{
    build_shared, settle, Inboxes, RunArtifacts, ShardOutcome, ShardSim, Shared, SimConfig,
    TimedSimulator,
};
use crate::trace::Trace;
use bp_core::graph::AppGraph;
use bp_core::machine::{Mapping, ShardPlan, SyncMode};
use bp_core::Result;
use bp_metrics::{MetricsRecorder, MetricsTape};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

/// Cap on speculative execution batches per synchronization round under
/// optimistic sync. Each batch runs up to one checkpoint interval of
/// events and ends with a checkpoint, so the cap keeps checkpointing,
/// fossil collection, and timestamp publication regular while still
/// letting a shard run well past its conservative window.
const SPEC_BATCHES_PER_ROUND: usize = 8;

/// Bound on how far past its conservative window a shard may speculate,
/// in lookahead widths. Unbounded optimism is the classic Time Warp
/// failure mode: a fast shard races arbitrarily far ahead, every late
/// cross-shard message then unwinds an arbitrarily deep speculation, and
/// the anti-message cascade costs more than the work it cancels. Capping
/// the horizon at a few windows bounds rollback depth while still letting
/// a shard absorb a straggler's worth of skew. Irrelevant when the
/// lookahead is infinite (fully independent shards cannot roll back).
const SPEC_WINDOWS: f64 = 2.0;

/// Counters describing how a parallel run was scheduled, for scaling
/// analysis and tests (e.g. asserting that a single-component app really
/// executed on several workers once the comm model gave it lookahead).
#[derive(Clone, Debug)]
pub struct ParallelRunStats {
    /// Worker threads the run used (1 = sequential fallback, which every
    /// traced run takes).
    pub shards: usize,
    /// Conservative lookahead: the minimum latency over cross-shard
    /// channels (`+inf` when shards are fully independent — then a single
    /// unbounded window runs each shard to completion).
    pub lookahead_s: f64,
    /// Synchronization windows the coordinator released.
    pub windows: u64,
    /// Events processed by each shard's event loop (empty in the
    /// sequential fallback). Under optimistic sync, rolled-back events are
    /// not counted, so the sum equals the sequential engine's event count.
    pub shard_events: Vec<u64>,
    /// Optimistic-sync activity summed over shards (all zero under
    /// conservative sync and in the sequential fallback).
    pub sync_counters: bp_metrics::SyncCounters,
}

impl ParallelRunStats {
    /// The stats of a run on the sequential engine: one shard, no windows.
    pub(crate) fn sequential() -> Self {
        Self {
            shards: 1,
            lookahead_s: f64::INFINITY,
            windows: 0,
            shard_events: Vec::new(),
            sync_counters: bp_metrics::SyncCounters::default(),
        }
    }
}

/// Timed simulator that executes independent PE interaction regions on
/// worker threads. Produces bitwise-identical [`SimReport`]s to
/// [`TimedSimulator`] for every graph, mapping, and thread count.
pub struct ParallelTimedSimulator {
    nodes: Vec<RtNode>,
    shared: Shared,
    plan: ShardPlan,
}

impl ParallelTimedSimulator {
    /// Instantiate the graph under the given mapping, targeting up to
    /// `threads` worker threads. The usable parallelism is capped by the
    /// number of independent PE regions ([`ShardPlan::num_components`]);
    /// with one region (or `threads <= 1`) the run degrades to the
    /// sequential engine.
    pub fn new(
        graph: &AppGraph,
        mapping: &Mapping,
        config: SimConfig,
        threads: usize,
    ) -> Result<Self> {
        let (nodes, shared) = build_shared(graph, mapping, config)?;
        // Shards must not be split across *direct* (zero-latency) channels
        // — those deliver synchronously. Delayed channels are exactly the
        // safe cut points: their latency is the lookahead. Dependency
        // edges carry no runtime traffic, but fold them in anyway:
        // sharding is correctness-critical, and the cost of a merged
        // component is only lost parallelism.
        let mut edges: Vec<(usize, usize)> = shared
            .channels
            .iter()
            .filter(|c| c.latency_s <= 0.0)
            .map(|c| (c.src, c.dst))
            .collect();
        edges.extend(graph.dep_edges().iter().map(|d| (d.src.0, d.dst.0)));
        let plan = ShardPlan::build(mapping, &edges, threads.max(1));
        Ok(Self {
            nodes,
            shared,
            plan,
        })
    }

    /// Like [`new`](Self::new), but with an explicit, caller-built
    /// [`ShardPlan`] — the testing hook for deliberately skewed shard
    /// layouts (e.g. forcing deep optimistic rollbacks by pairing a huge
    /// shard with a tiny one). The sharding contract still holds: no
    /// direct (zero-latency) channel may cross shards — validated here,
    /// since a violation would silently break determinism rather than
    /// fail loudly.
    pub fn with_plan(
        graph: &AppGraph,
        mapping: &Mapping,
        config: SimConfig,
        plan: ShardPlan,
    ) -> Result<Self> {
        let (nodes, shared) = build_shared(graph, mapping, config)?;
        if plan.shard_of_pe.len() != shared.residents.len() {
            return Err(bp_core::BpError::Simulation(format!(
                "shard plan covers {} PEs but the machine has {}",
                plan.shard_of_pe.len(),
                shared.residents.len()
            )));
        }
        for c in &shared.channels {
            if c.latency_s <= 0.0
                && plan.shard_of_pe[shared.pe_of_node[c.src]]
                    != plan.shard_of_pe[shared.pe_of_node[c.dst]]
            {
                return Err(bp_core::BpError::Simulation(format!(
                    "shard plan cuts direct channel {} -> {}",
                    c.src, c.dst
                )));
            }
        }
        Ok(Self {
            nodes,
            shared,
            plan,
        })
    }

    /// Worker threads the run will actually use. A traced run uses 1: a
    /// trace is one global event order, which the sequential engine
    /// records directly and the workers would have to rebuild.
    pub fn num_shards(&self) -> usize {
        if self.shared.trace.is_some() {
            1
        } else {
            self.plan.num_shards
        }
    }

    /// Run the simulation to completion and report. A capacity deadlock
    /// becomes a simulation error carrying the rendered
    /// [`DeadlockReport`](crate::deadlock::DeadlockReport);
    /// [`run_artifacts`](Self::run_artifacts) keeps the structured
    /// diagnosis instead.
    pub fn run(self) -> Result<SimReport> {
        self.run_artifacts().outcome.into_report()
    }

    /// [`run`](Self::run), plus the [`Trace`] when [`SimConfig::trace`]
    /// was set. A traced run executes on the sequential engine, so the
    /// trace is the sequential engine's, bit for bit, at any thread count.
    pub fn run_with_trace(self) -> Result<(SimReport, Option<Trace>)> {
        let a = self.run_artifacts();
        Ok((a.outcome.into_report()?, a.trace))
    }

    /// [`run`](Self::run), plus the merged [`MetricsTape`] when
    /// [`SimConfig::with_metrics`] was set. Per-shard recorders merge into
    /// exactly the recorder a sequential run produces, so the tape is
    /// bitwise identical at any thread count.
    pub fn run_with_metrics(self) -> Result<(SimReport, Option<MetricsTape>)> {
        let a = self.run_artifacts();
        Ok((a.outcome.into_report()?, a.tape))
    }

    /// [`run_with_trace`](Self::run_with_trace), plus the
    /// [`ParallelRunStats`] describing the parallel schedule.
    pub fn run_with_stats(self) -> Result<(SimReport, Option<Trace>, ParallelRunStats)> {
        let a = self.run_artifacts();
        Ok((a.outcome.into_report()?, a.trace, a.stats))
    }

    /// Run the simulation and return every artifact of the run. The
    /// outcome — deadlock diagnosis included — the trace and the tape are
    /// bitwise identical to the sequential engine's at any thread count;
    /// only the schedule stats describe the parallel run itself.
    pub fn run_artifacts(self) -> RunArtifacts {
        let sequential = self.num_shards() <= 1;
        let Self {
            nodes,
            shared,
            plan,
        } = self;
        if sequential {
            return TimedSimulator::from_parts(nodes, shared).run_artifacts();
        }
        let n = nodes.len();
        let num_pes = shared.residents.len();
        // Conservative lookahead: no cross-shard channel can deliver an
        // effect sooner than this after its cause. Cross-shard channels are
        // delayed by construction (direct edges are never cut), so with any
        // of them present this is positive; with none it is +inf and each
        // shard runs to completion in one window.
        let lookahead_s = shared
            .channels
            .iter()
            .filter(|c| {
                plan.shard_of_pe[shared.pe_of_node[c.src]]
                    != plan.shard_of_pe[shared.pe_of_node[c.dst]]
            })
            .map(|c| c.latency_s)
            .fold(f64::INFINITY, f64::min);
        let shared = Arc::new(shared);
        let slots = Arc::new(DisjointSlots::new(nodes));
        // Cross-shard communication inboxes, one per destination shard.
        let inboxes: Inboxes = (0..plan.num_shards)
            .map(|_| Mutex::new(Vec::new()))
            .collect();
        // Per-shard published timestamps (f64 bits): the earliest pending
        // local event and the earliest message sent to another shard since
        // the last publication. All simulation times are non-negative, so
        // the bit patterns order like the floats.
        let next_t: Vec<AtomicU64> = (0..plan.num_shards)
            .map(|_| AtomicU64::new(f64::INFINITY.to_bits()))
            .collect();
        let min_out: Vec<AtomicU64> = (0..plan.num_shards)
            .map(|_| AtomicU64::new(f64::INFINITY.to_bits()))
            .collect();
        let window = AtomicU64::new(f64::INFINITY.to_bits());
        // GVT: the coordinator's conservative horizon, republished for the
        // optimistic workers. It lower-bounds every unprocessed event and
        // every message still to arrive (anti-messages included — an
        // anti's timestamp equals its positive's, which was ≥ GVT when it
        // was sent), so state committed below GVT can never be rolled
        // back and its checkpoints are safe to fossil-collect.
        let gvt = AtomicU64::new(0f64.to_bits());
        let optimistic = shared.sync == SyncMode::Optimistic;
        let stop = AtomicBool::new(false);
        // Workers + coordinator rendezvous twice per round: once so every
        // worker has published its timestamps, once so the coordinator has
        // set the window (or the stop flag).
        let barrier = Barrier::new(plan.num_shards + 1);
        let mut windows = 0u64;
        let mut outcomes: Vec<ShardOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..plan.num_shards)
                .map(|shard| {
                    let (shared, slots, inboxes) = (&shared, &slots, &inboxes);
                    let (next_t, min_out, barrier) = (&next_t[..], &min_out[..], &barrier);
                    let (window, stop, gvt) = (&window, &stop, &gvt);
                    let shard_of_pe = &plan.shard_of_pe[..];
                    scope.spawn(move || {
                        // Built on the worker, so its state is allocated
                        // by the thread that uses it.
                        let mut sim = ShardSim::new(
                            Arc::clone(shared),
                            Arc::clone(slots),
                            shard,
                            shard_of_pe.to_vec(),
                            Some(Arc::clone(inboxes)),
                        );
                        sim.init();
                        if optimistic {
                            sim.opt_enable();
                        }
                        next_t[shard].store(sim.next_pending().to_bits(), Ordering::SeqCst);
                        min_out[shard].store(sim.take_min_out().to_bits(), Ordering::SeqCst);
                        let mut round = 0u64;
                        loop {
                            barrier.wait();
                            barrier.wait();
                            if stop.load(Ordering::SeqCst) {
                                break;
                            }
                            let end = f64::from_bits(window.load(Ordering::SeqCst));
                            if optimistic {
                                let g = f64::from_bits(gvt.load(Ordering::SeqCst));
                                sim.drain_inbox_optimistic(g);
                                // Conservative window first — always, even
                                // under an injected stall: processing
                                // everything below the window is what
                                // keeps every published frontier ≥ GVT,
                                // which is what makes GVT monotone and
                                // fossil collection at GVT sound.
                                sim.run_window(end);
                                sim.opt_checkpoint();
                                sim.opt_fossil(g);
                                // Injected straggler: skip speculation for
                                // the round. The stalled shard's frontier
                                // then trails the speculators, so its
                                // later (perfectly conservative) sends
                                // land in their speculated pasts and force
                                // rollbacks — without ever perturbing any
                                // committed result.
                                let stalled = shared
                                    .straggler
                                    .as_ref()
                                    .is_some_and(|p| p.stalled(shard, round));
                                if stalled {
                                    sim.opt_note_stall();
                                } else {
                                    // Speculate ahead in checkpointed
                                    // batches, bounded to a few lookahead
                                    // widths past the window (SPEC_WINDOWS).
                                    let spec_end = end + SPEC_WINDOWS * lookahead_s;
                                    for _ in 0..SPEC_BATCHES_PER_ROUND {
                                        let ran =
                                            sim.run_speculate(spec_end, shared.checkpoint_interval);
                                        if ran == 0 {
                                            break;
                                        }
                                        sim.opt_checkpoint();
                                    }
                                }
                                next_t[shard].store(sim.next_pending().to_bits(), Ordering::SeqCst);
                            } else {
                                sim.drain_inbox();
                                let nt = sim.run_window(end);
                                next_t[shard].store(nt.to_bits(), Ordering::SeqCst);
                            }
                            round += 1;
                            min_out[shard].store(sim.take_min_out().to_bits(), Ordering::SeqCst);
                        }
                        sim.into_outcome()
                    })
                })
                .collect();
            // Coordinator: release windows until every shard is idle with
            // nothing in flight. Any message a worker sent this round is
            // visible in its `min_out` publication, so "all +inf" is a
            // sound global-quiescence test.
            let mut prev_gvt = 0.0f64;
            loop {
                barrier.wait();
                let horizon = (0..plan.num_shards)
                    .map(|s| {
                        f64::from_bits(next_t[s].load(Ordering::SeqCst))
                            .min(f64::from_bits(min_out[s].load(Ordering::SeqCst)))
                    })
                    .fold(f64::INFINITY, f64::min);
                if horizon.is_infinite() {
                    stop.store(true, Ordering::SeqCst);
                } else {
                    if optimistic {
                        // The horizon is the GVT: every published frontier
                        // and every in-flight message is ≥ it. Monotonicity
                        // is what makes fossil collection at GVT sound.
                        debug_assert!(horizon >= prev_gvt, "GVT regressed: {horizon} < {prev_gvt}");
                        prev_gvt = horizon;
                        gvt.store(horizon.to_bits(), Ordering::SeqCst);
                    }
                    window.store((horizon + lookahead_s).to_bits(), Ordering::SeqCst);
                    windows += 1;
                }
                barrier.wait();
                if stop.load(Ordering::SeqCst) {
                    break;
                }
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect()
        });
        let nodes = Arc::into_inner(slots)
            .expect("every shard released the node slots")
            .into_inner();

        // Disjoint merge: every PE (and node) is written by exactly one
        // shard; take its entries from the owner.
        let mut stats = vec![PeStats::default(); num_pes];
        for (pe, slot) in stats.iter_mut().enumerate() {
            *slot = outcomes[plan.shard_of_pe[pe]].stats[pe];
        }
        let owner_of = |i: usize| plan.shard_of_pe[shared.pe_of_node[i]];
        let node_busy: Vec<f64> = (0..n).map(|i| outcomes[owner_of(i)].node_busy[i]).collect();
        let custom_token_emissions: Vec<u64> = (0..n)
            .map(|i| outcomes[owner_of(i)].custom_token_emissions[i])
            .collect();
        let budget_overruns: Vec<u64> = (0..n)
            .map(|i| outcomes[owner_of(i)].budget_overruns[i])
            .collect();
        let node_max_queue: Vec<usize> = (0..n)
            .map(|i| outcomes[owner_of(i)].node_max_queue[i])
            .collect();
        let sink_eofs: Vec<Vec<f64>> = (0..n)
            .map(|i| std::mem::take(&mut outcomes[owner_of(i)].sink_eofs[i]))
            .collect();
        // Frame starts are source 0's, recorded by its shard.
        let frame_start_times = shared
            .tables
            .sources
            .first()
            .map(|s| std::mem::take(&mut outcomes[owner_of(s.node)].frame_start_times))
            .unwrap_or_default();
        // A channel's credits live with its *source* shard (the spender).
        let credits: Vec<i64> = shared
            .channels
            .iter()
            .enumerate()
            .map(|(ci, c)| outcomes[owner_of(c.src)].credits[ci])
            .collect();
        let violations: u64 = outcomes.iter().map(|o| o.violations).sum();
        // The sequential loop leaves `now` at the time of the last popped
        // event; events pop in ascending time, so that is the maximum event
        // time over all shards (pure selection, no arithmetic).
        let now = outcomes.iter().map(|o| o.now).fold(0.0f64, f64::max);

        // Per-shard metrics accumulators merge commutatively (interval
        // counters sum, high-water marks max, first-violation times min,
        // per-PE busy cells are disjoint), so a shard-order fold yields
        // exactly the sequential run's recorder.
        let metrics: Option<MetricsRecorder> = {
            let mut recs = outcomes.iter_mut().map(|o| o.metrics.take());
            recs.next().flatten().map(|mut first| {
                for mut rec in recs.flatten() {
                    rec.seal();
                    first.merge_from(&rec);
                }
                first
            })
        };

        // Sync-activity counters merge commutatively (plain sums), and —
        // unlike every simulated-time artifact — they are *expected* to
        // vary run to run: they describe the real-time schedule, not the
        // simulation. The tape keeps them out of its digest for the same
        // reason.
        let sync = outcomes
            .iter()
            .fold(bp_metrics::SyncCounters::default(), |mut acc, o| {
                acc.merge(&o.sync);
                acc
            });
        let run_stats = ParallelRunStats {
            shards: plan.num_shards,
            lookahead_s,
            windows,
            shard_events: outcomes.iter().map(|o| o.processed).collect(),
            sync_counters: sync,
        };
        let merged = ShardOutcome {
            stats,
            node_busy,
            violations,
            sink_eofs,
            frame_start_times,
            custom_token_emissions,
            budget_overruns,
            node_max_queue,
            credits,
            now,
            processed: run_stats.shard_events.iter().sum(),
            trace: None,
            metrics,
            sync,
        };
        let (outcome, tape) = settle(&shared, &nodes, merged);
        RunArtifacts {
            outcome,
            trace: None,
            tape,
            stats: run_stats,
        }
    }
}
