//! Resumable, event-budgeted simulation stepping.
//!
//! [`SteppableSim`] is the sequential timed engine behind an incremental
//! entry point: instead of draining the event queue in one call, the owner
//! advances the simulation a bounded number of events at a time and may
//! interleave many independent simulations in one thread (or partition
//! them across threads). This is the engine entry point the fleet host
//! (`bp-serve`) co-schedules tenants on.
//!
//! ## Simulation preservation
//!
//! Stepping is *chunk-invariant by construction*: every [`step`] call pops
//! and handles exactly the events a full [`crate::TimedSimulator::run`]
//! would have handled next, in the same `(t, ord)` order, with the same
//! per-event code (`ShardSim::run_budget` runs the one event loop, bounded
//! by event count instead of time).
//! The simulation owns its entire state — event queue, virtual clock, node
//! state, recorders — so interleaving *other* simulations between two
//! `step` calls cannot perturb it. Consequently the final [`SimReport`]
//! fingerprint and [`MetricsTape`] digest are bitwise identical to a solo
//! uninterrupted run, whatever the step sizes; the serving differential
//! suite pins this contract (DESIGN.md §16).
//!
//! ## Self-reference
//!
//! The engine (`ShardSim`) borrows the shared tables and node slots it
//! runs over. To make a resumable value the owner can hold and move, the
//! borrowed data lives in heap boxes whose addresses are stable under
//! moves of the wrapper, and the engine's borrows are lifetime-erased to
//! `'static` at construction. Soundness rests on three invariants, all
//! local to this module: the boxes are never dropped or reassigned while
//! the engine lives (field order makes the engine drop first), no method
//! hands out a `'static`-laundered reference, and [`finish`] consumes the
//! engine before unpacking the boxes.
//!
//! [`step`]: SteppableSim::step
//! [`finish`]: SteppableSim::finish

use crate::deadlock::SimOutcome;
use crate::parallel::DisjointSlots;
use crate::runtime::RtNode;
use crate::stats::SimReport;
use crate::timed::{build_shared, settle, ShardSim, Shared, SimConfig};
use bp_core::graph::AppGraph;
use bp_core::machine::Mapping;
use bp_core::Result;
use bp_metrics::MetricsTape;

/// A sequential timed simulation that advances a bounded number of events
/// per call. See the module docs for the chunk-invariance contract.
pub struct SteppableSim {
    // Field order is load-bearing: `sim` holds lifetime-erased borrows of
    // the boxed fields below and must drop before them.
    sim: ShardSim<'static>,
    slots: Box<DisjointSlots<RtNode>>,
    shard_of_pe: Box<[usize]>,
    shared: Box<Shared>,
    initialized: bool,
}

impl SteppableSim {
    /// Instantiate the graph under the given mapping, exactly as
    /// [`crate::TimedSimulator::new`] would. No event is processed until
    /// the first [`step`](Self::step).
    pub fn new(graph: &AppGraph, mapping: &Mapping, config: SimConfig) -> Result<Self> {
        let (nodes, shared) = build_shared(graph, mapping, config)?;
        let shared = Box::new(shared);
        // One shard owning every PE — the sequential special case.
        let shard_of_pe: Box<[usize]> = vec![0usize; shared.residents.len()].into_boxed_slice();
        let slots = Box::new(DisjointSlots::new(nodes));
        // SAFETY: the three borrows point into heap allocations owned by
        // this struct. Box contents never move when the struct moves, the
        // boxes are not dropped or reassigned while `sim` exists (declared
        // after `sim`, so they also outlive it in drop order), and no
        // method leaks a reference at the erased lifetime.
        let sim = unsafe {
            let shared_ref: &'static Shared = &*(shared.as_ref() as *const Shared);
            let slots_ref: &'static DisjointSlots<RtNode> =
                &*(slots.as_ref() as *const DisjointSlots<RtNode>);
            let sop_ref: &'static [usize] = &*(shard_of_pe.as_ref() as *const [usize]);
            ShardSim::new(shared_ref, slots_ref, 0, sop_ref, None)
        };
        Ok(Self {
            sim,
            slots,
            shard_of_pe,
            shared,
            initialized: false,
        })
    }

    /// Advance the simulation by at most `max_events` events and return
    /// how many were processed. The first call additionally fires the
    /// startup constants and seeds the sources (outside the budget, as in
    /// a full run they precede the first pop). A short count means the
    /// simulation settled: the queue drained before the budget did.
    pub fn step(&mut self, max_events: usize) -> usize {
        if !self.initialized {
            self.initialized = true;
            self.sim.init();
        }
        self.sim.run_budget(max_events)
    }

    /// True when the simulation has settled: it was started and no pending
    /// event remains. Further [`step`](Self::step) calls process nothing.
    pub fn is_done(&mut self) -> bool {
        self.initialized && self.sim.next_pending().is_infinite()
    }

    /// Current virtual time (timestamp of the last processed event).
    pub fn now(&self) -> f64 {
        self.sim.now()
    }

    /// Timestamp of the earliest pending event (`+inf` when none).
    pub fn next_event_time(&mut self) -> f64 {
        self.sim.next_pending()
    }

    /// Total events processed across all [`step`](Self::step) calls.
    pub fn events_processed(&self) -> u64 {
        self.sim.processed()
    }

    /// Settle the run into its outcome and metrics tape. Call after
    /// [`is_done`](Self::is_done); finishing early simply reports the
    /// simulation as it stands (typically a capacity-deadlock diagnosis or
    /// an incomplete frame count).
    pub fn finish(self) -> (SimOutcome, Option<MetricsTape>) {
        let Self {
            sim,
            slots,
            shard_of_pe,
            shared,
            ..
        } = self;
        // Consume the engine first: `into_outcome` ends every borrow of
        // the boxed state, after which unpacking the boxes is ordinary
        // owned data. This mirrors `TimedSimulator::run_outcome_with_artifacts`.
        let outcome = sim.into_outcome();
        let nodes = (*slots).into_inner();
        drop(shard_of_pe);
        settle(&shared, &nodes, outcome)
    }

    /// [`finish`](Self::finish), unwrapped to a completed [`SimReport`]
    /// (a capacity deadlock becomes a simulation error carrying the
    /// rendered diagnosis).
    pub fn finish_report(self) -> Result<(SimReport, Option<MetricsTape>)> {
        let (outcome, tape) = self.finish();
        Ok((outcome.into_report()?, tape))
    }
}

// The wrapper is a self-contained simulation: all laundered borrows point
// into boxes it owns, and `ShardSim`'s state is otherwise owned values
// (`Send` like the batch runner's per-simulation state). A fleet host may
// therefore move tenants across worker threads between rounds.
unsafe impl Send for SteppableSim {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timed::TimedSimulator;
    use bp_core::{Dim2, GraphBuilder};

    fn small_graph() -> AppGraph {
        let dim = Dim2::new(20, 12);
        let mut b = GraphBuilder::new();
        let src = b.add_source("In", bp_kernels::pattern_source(dim), dim, 50.0);
        let k = b.add("K", bp_kernels::scale(2.0, 0.0));
        let (sdef, _) = bp_kernels::sink();
        let snk = b.add("Out", sdef);
        b.connect(src, "out", k, "in");
        b.connect(k, "out", snk, "in");
        b.build().unwrap()
    }

    /// Stepping in any chunk size reproduces the one-shot run bit for bit.
    #[test]
    fn stepped_run_matches_one_shot() {
        let g = small_graph();
        let mapping = Mapping::one_to_one(g.node_count());
        let config = SimConfig::new(2);
        let want = TimedSimulator::new(&g, &mapping, config.clone())
            .unwrap()
            .run()
            .unwrap()
            .fingerprint();
        for budget in [1usize, 3, 7, 1024] {
            let mut sim = SteppableSim::new(&g, &mapping, config.clone()).unwrap();
            while !sim.is_done() {
                sim.step(budget);
            }
            let (report, _) = sim.finish_report().unwrap();
            assert_eq!(report.fingerprint(), want, "budget {budget} diverged");
        }
    }

    /// The wrapper stays valid when moved between steps.
    #[test]
    fn stepping_survives_moves() {
        let g = small_graph();
        let mapping = Mapping::one_to_one(g.node_count());
        let want = TimedSimulator::new(&g, &mapping, SimConfig::new(1))
            .unwrap()
            .run()
            .unwrap()
            .fingerprint();
        let mut sim = SteppableSim::new(&g, &mapping, SimConfig::new(1)).unwrap();
        sim.step(5);
        let mut moved = Box::new(sim);
        moved.step(5);
        let mut back = *moved;
        while !back.is_done() {
            back.step(11);
        }
        let (report, _) = back.finish_report().unwrap();
        assert_eq!(report.fingerprint(), want);
    }
}
