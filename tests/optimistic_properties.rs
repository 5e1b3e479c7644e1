//! Property tests for the Time Warp (optimistic sync) machinery, seeded
//! with the in-tree `bp_core::Rng64` (no external property-testing crate).
//!
//! Each case builds a random layered DAG, splits its PEs across two
//! shards with a deliberately skewed plan (even vs odd PEs — maximal
//! cross-shard traffic), and runs the optimistic engine under injected
//! stragglers. The properties pinned here:
//!
//! - **Faithful restore**: every rollback restores a checkpoint
//!   byte-identically. The engine self-checks this in debug builds — each
//!   checkpoint carries an FNV digest of the full mutable state, recomputed
//!   and asserted at restore — so the suite's job is to *force* rollbacks
//!   (asserted via the counters) with the asserts armed.
//! - **Anti-message conservation**: every anti shipped is consumed exactly
//!   once (annihilated in a queue or tombstoned past a rollback), and every
//!   positive sent is drained by its destination exactly once.
//! - **Committed-work invariance**: the number of *committed* cross-shard
//!   messages (sent minus cancelled) is a property of the schedule, not of
//!   speculation — identical across checkpoint intervals and straggler
//!   schedules.
//! - **GVT safety**: the engine debug-asserts that no message arrives below
//!   GVT and that GVT never regresses; running to completion with rollbacks
//!   forced exercises both on every drained message. The observable
//!   consequence pinned here: fingerprints match the sequential oracle.
//! - **Checkpoint-interval independence**: the report fingerprint is
//!   identical for checkpoint intervals 1, 16, 256, and "one giant batch".

use bp_compiler::{compile, CompileOptions};
use bp_core::machine::ShardPlan;
use bp_core::{CommModel, Dim2, GraphBuilder, NodeId, Rng64};
use bp_kernels as k;
use bp_sim::{
    ParallelTimedSimulator, SimConfig, StragglerPolicy, SyncCounters, SyncMode, TimedSimulator,
};

const FRAMES: u32 = 2;
const CASES: u64 = 6;

/// A random layered DAG: one source, a few rows of 1–3 arithmetic nodes
/// each drawing inputs from random earlier rows, and a sink on every leaf.
fn random_graph(rng: &mut Rng64) -> bp_core::graph::AppGraph {
    let dim = Dim2::new(8, 4);
    let mut b = GraphBuilder::new();
    let src = b.add_source("Input", k::pattern_source(dim), dim, 25.0);
    let mut pool: Vec<NodeId> = vec![src];
    let mut consumed: Vec<bool> = vec![true]; // the source always has takers
    let layers = 2 + rng.gen_index(3); // 2..=4
    let mut id = 0usize;
    for _ in 0..layers {
        let width = 1 + rng.gen_index(3); // 1..=3 nodes per layer
        let mut row = Vec::new();
        for _ in 0..width {
            id += 1;
            let node = if rng.gen_bool() {
                let n = b.add(
                    format!("U{id}"),
                    k::scale(rng.gen_range_f64(0.5, 2.0), rng.gen_range_f64(-1.0, 1.0)),
                );
                let from = rng.gen_index(pool.len());
                b.connect(pool[from], "out", n, "in");
                consumed[from] = true;
                n
            } else {
                let n = b.add(format!("B{id}"), k::add());
                let (a0, a1) = (rng.gen_index(pool.len()), rng.gen_index(pool.len()));
                b.connect(pool[a0], "out", n, "in0");
                b.connect(pool[a1], "out", n, "in1");
                consumed[a0] = true;
                consumed[a1] = true;
                n
            };
            row.push(node);
        }
        for n in row {
            pool.push(n);
            consumed.push(false);
        }
    }
    for (i, node) in pool.iter().enumerate() {
        if !consumed[i] {
            let (sdef, _h) = k::sink();
            let s = b.add(format!("Out{i}"), sdef);
            b.connect(*node, "out", s, "in");
        }
    }
    b.build().expect("random layered DAG is always valid")
}

/// A nonzero uniform delay model (16–300 PE cycles): every channel gets a
/// positive latency, so *any* PE split is a valid shard plan.
fn random_delay(rng: &mut Rng64) -> CommModel {
    let machine = bp_core::MachineSpec::default_eval();
    let cycles = 16.0 + rng.gen_range_f64(0.0, 284.0);
    CommModel::uniform(cycles / machine.pe_clock_hz, 1.0 / machine.pe_clock_hz)
}

struct Case {
    compiled: bp_compiler::Compiled,
    comm: CommModel,
    plan: ShardPlan,
    oracle: u64,
}

fn build_case(seed: u64) -> Case {
    let mut rng = Rng64::seed_from_u64(seed);
    let graph = random_graph(&mut rng);
    let comm = random_delay(&mut rng);
    let compiled = compile(&graph, &CompileOptions::default()).expect("compile random DAG");
    let num_pes = compiled.mapping.num_pes;
    let plan = ShardPlan {
        shard_of_pe: (0..num_pes).map(|pe| pe % 2).collect(),
        num_shards: 2,
        num_components: 2,
    };
    let config = SimConfig::new(FRAMES)
        .with_machine(bp_core::MachineSpec::default_eval())
        .with_comm(comm.clone());
    let oracle = TimedSimulator::new(&compiled.graph, &compiled.mapping, config)
        .expect("instantiate oracle")
        .run()
        .expect("oracle completes")
        .fingerprint();
    Case {
        compiled,
        comm,
        plan,
        oracle,
    }
}

fn run_optimistic(
    case: &Case,
    interval: usize,
    straggler: Option<StragglerPolicy>,
) -> (u64, SyncCounters) {
    let mut config = SimConfig::new(FRAMES)
        .with_machine(bp_core::MachineSpec::default_eval())
        .with_comm(case.comm.clone())
        .with_sync(SyncMode::Optimistic)
        .with_checkpoint_interval(interval);
    if let Some(p) = straggler {
        config = config.with_straggler(p);
    }
    let sim = ParallelTimedSimulator::with_plan(
        &case.compiled.graph,
        &case.compiled.mapping,
        config,
        case.plan.clone(),
    )
    .expect("positive-latency split plan is valid");
    let run = sim.run_artifacts();
    let report = run.outcome.into_report().expect("run completes");
    (report.fingerprint(), run.stats.sync_counters)
}

/// Faithful restore + anti-message conservation. Stragglers force real
/// rollbacks (every restore digest-checked under debug assertions), and on
/// every run the anti and drain ledgers must balance: antis consumed ==
/// antis sent, positives drained == positives sent.
#[test]
fn rollbacks_are_exact_and_antis_conserve() {
    let mut total_rollbacks = 0u64;
    for seed in 0..CASES {
        let case = build_case(0xA11D ^ (seed * 0x9E37_79B9));
        for (interval, rate) in [(1usize, (1u32, 2u32)), (4, (2, 3)), (16, (3, 4))] {
            let policy = StragglerPolicy::with_rate(0x5EED ^ seed, rate.0, rate.1);
            let (fp, c) = run_optimistic(&case, interval, Some(policy));
            assert_eq!(
                fp, case.oracle,
                "seed {seed}: optimistic fingerprint diverged (interval {interval})"
            );
            assert_eq!(
                c.antis_sent,
                c.antis_annihilated + c.antis_tombstoned,
                "seed {seed}: anti-messages leaked (sent {} != annihilated {} + \
                 tombstoned {})",
                c.antis_sent,
                c.antis_annihilated,
                c.antis_tombstoned
            );
            assert_eq!(
                c.in_appends, c.cross_sends,
                "seed {seed}: cross-shard sends and drains disagree"
            );
            assert!(
                c.fossils <= c.checkpoints,
                "seed {seed}: fossil-collected more checkpoints than were taken"
            );
            if c.rollbacks > 0 {
                assert!(
                    c.checkpoints > 0,
                    "seed {seed}: rollbacks without checkpoints"
                );
                assert!(
                    c.events_rolled_back > 0,
                    "seed {seed}: rollbacks undid no events"
                );
            }
            total_rollbacks += c.rollbacks;
        }
    }
    assert!(
        total_rollbacks > 0,
        "no case rolled back — the restore/anti machinery was never exercised"
    );
}

/// The committed cross-shard message count (sent minus cancelled) and the
/// report fingerprint are both independent of the checkpoint interval and
/// the straggler schedule: speculation may churn, but the committed
/// schedule is invariant.
#[test]
fn committed_work_is_speculation_invariant() {
    for seed in 0..CASES {
        let case = build_case(0xC0DE ^ (seed * 0x9E37_79B9));
        let mut committed: Option<u64> = None;
        for interval in [1usize, 16, 256, usize::MAX] {
            for straggler in [
                None,
                Some(StragglerPolicy::new(0xF00D ^ seed)),
                Some(StragglerPolicy::with_rate(0xBEEF ^ seed, 3, 4)),
            ] {
                let had_straggler = straggler.is_some();
                let (fp, c) = run_optimistic(&case, interval, straggler);
                assert_eq!(
                    fp, case.oracle,
                    "seed {seed}: fingerprint depends on speculation \
                     (interval {interval}, straggler {had_straggler})"
                );
                let this = c.cross_sends - c.antis_sent;
                match committed {
                    None => committed = Some(this),
                    Some(want) => assert_eq!(
                        this, want,
                        "seed {seed}: committed message count depends on speculation \
                         (interval {interval}, straggler {had_straggler})"
                    ),
                }
            }
        }
    }
}
