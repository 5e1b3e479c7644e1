//! Differential tests for optimistic (Time Warp) synchronization.
//!
//! The optimistic engine speculates past the conservative window,
//! checkpoints, rolls back on stragglers, and cancels speculative sends
//! with anti-messages — none of which may leave a trace in any result.
//! Every test here pins the same contract: for every example app, comm
//! model, thread count, shard plan, and fault-injection schedule, the
//! report fingerprint, metrics-tape digest/JSONL, and deadlock report are
//! bitwise identical to the sequential oracle's. The runs are untraced: a
//! traced run executes on the sequential engine (trace equality across
//! thread counts is pinned in `tests/trace_determinism.rs`).

use bp_apps::{apps, App, SLOW, SMALL};
use bp_compiler::{compile, CompileOptions};
use bp_core::machine::ShardPlan;
use bp_core::{CommModel, Dim2, MachineSpec, MetricsPolicy};
use bp_sim::{ParallelTimedSimulator, SimConfig, SimOutcome, StragglerPolicy, SyncMode};

const FRAMES: u32 = 2;

/// Every example application, by name; each build yields fresh sink handles.
const EXAMPLE_APPS: &[&str] = &[
    "fig1b",
    "bayer",
    "histogram",
    "parallel_buffer",
    "multi_conv",
    "temporal_iir",
    "fir_radio",
    "edge_detect",
    "analytics",
    "stereo_diff",
    "camera_bank",
];

fn build_example(name: &str) -> App {
    match name {
        "fig1b" => apps::fig1b(SMALL, SLOW),
        "bayer" => apps::bayer(SMALL, SLOW),
        "histogram" => apps::histogram_app(SMALL, SLOW, 32),
        "parallel_buffer" => apps::parallel_buffer_test(Dim2::new(64, 12), 10.0),
        "multi_conv" => apps::multi_conv(SMALL, SLOW, 3),
        "temporal_iir" => apps::temporal_iir(SMALL, SLOW),
        "fir_radio" => apps::fir_radio(72, 100.0),
        "edge_detect" => apps::edge_detect(SMALL, SLOW, 0.5),
        "analytics" => apps::analytics(SMALL, SLOW),
        "stereo_diff" => apps::stereo_diff(SMALL, SLOW),
        "camera_bank" => apps::camera_bank(3, SMALL, SLOW),
        _ => unreachable!("unknown app {name}"),
    }
}

/// The three communication models the suite sweeps (latencies in PE
/// cycles at the evaluation machine's clock, like `bpc --comm-model`).
fn comm_models(machine: &MachineSpec) -> Vec<(&'static str, CommModel)> {
    let cyc = |c: f64| c / machine.pe_clock_hz;
    vec![
        ("zero", CommModel::zero()),
        ("uniform", CommModel::uniform(cyc(64.0), cyc(1.0))),
        ("grid", CommModel::grid(cyc(32.0), cyc(16.0), cyc(1.0))),
    ]
}

fn base_config(comm: &CommModel) -> SimConfig {
    SimConfig::new(FRAMES)
        .with_machine(MachineSpec::default_eval())
        .with_comm(comm.clone())
        .with_metrics(MetricsPolicy::new())
}

/// Every deterministic surface of one run, digested for comparison.
#[derive(Debug, PartialEq)]
struct Surfaces {
    fingerprint: u64,
    tape_digest: u64,
    tape_jsonl: String,
}

/// One run at `threads` workers; returns the digested surfaces plus the
/// optimistic sync counters (all zero under conservative sync).
fn run_surfaces(name: &str, config: SimConfig, threads: usize) -> (Surfaces, bp_sim::SyncCounters) {
    let app = build_example(name);
    let opts = CompileOptions {
        machine: MachineSpec::default_eval(),
        ..Default::default()
    };
    let compiled = compile(&app.graph, &opts).expect("compile");
    let sim = ParallelTimedSimulator::new(&compiled.graph, &compiled.mapping, config, threads)
        .expect("instantiate");
    let run = sim.run_artifacts();
    let report = run.outcome.into_report().expect("run completes");
    let tape = run.tape.expect("metrics policy set");
    (
        Surfaces {
            fingerprint: report.fingerprint(),
            tape_digest: tape.digest(),
            tape_jsonl: tape.to_jsonl(),
        },
        run.stats.sync_counters,
    )
}

/// The tentpole differential: every example app under all three comm
/// models, {conservative, optimistic} × {1, 2, 4, 8} worker threads —
/// fingerprints and metrics tapes all bitwise identical
/// to the sequential oracle (the 1-thread fallback *is* the sequential
/// engine).
#[test]
fn optimistic_matches_sequential_on_every_surface() {
    let machine = MachineSpec::default_eval();
    for &name in EXAMPLE_APPS {
        for (cname, comm) in comm_models(&machine) {
            let (oracle, zero) = run_surfaces(name, base_config(&comm), 1);
            assert!(
                !zero.any(),
                "{name} under {cname}: sequential fallback reported sync activity"
            );
            for sync in [SyncMode::Conservative, SyncMode::Optimistic] {
                for threads in [1usize, 2, 4, 8] {
                    let config = base_config(&comm).with_sync(sync);
                    let (got, counters) = run_surfaces(name, config, threads);
                    assert_eq!(
                        got, oracle,
                        "{name} under {cname}: surfaces diverged ({sync:?} x{threads})"
                    );
                    if sync == SyncMode::Conservative {
                        assert!(
                            !counters.any(),
                            "{name} under {cname}: conservative run reported sync activity"
                        );
                    }
                }
            }
        }
    }
}

/// A deliberately skewed two-shard plan (even PEs vs odd PEs — maximal
/// cross-shard traffic, wildly unbalanced work) plus injected stragglers
/// forces deep rollbacks, and the results still match the oracle bit for
/// bit.
#[test]
fn skewed_plans_with_stragglers_stay_exact() {
    let machine = MachineSpec::default_eval();
    let comm = comm_models(&machine).remove(1).1;
    for &name in EXAMPLE_APPS {
        let app = build_example(name);
        let opts = CompileOptions {
            machine,
            ..Default::default()
        };
        let compiled = compile(&app.graph, &opts).expect("compile");
        let num_pes = compiled.mapping.num_pes;
        let plan = ShardPlan {
            shard_of_pe: (0..num_pes).map(|pe| pe % 2).collect(),
            num_shards: 2,
            num_components: 2,
        };
        let (oracle, _) = run_surfaces(name, base_config(&comm), 1);
        for seed in [0xB10Cu64, 0x5EED] {
            let config = base_config(&comm)
                .with_sync(SyncMode::Optimistic)
                .with_checkpoint_interval(8)
                .with_straggler(StragglerPolicy::new(seed));
            let sim = ParallelTimedSimulator::with_plan(
                &compiled.graph,
                &compiled.mapping,
                config,
                plan.clone(),
            )
            .expect("skewed plan is valid under a delayed comm model");
            let run = sim.run_artifacts();
            let (report, tape) = (run.outcome.into_report().expect("run completes"), run.tape);
            let got = Surfaces {
                fingerprint: report.fingerprint(),
                tape_digest: tape.as_ref().expect("tape").digest(),
                tape_jsonl: tape.expect("tape").to_jsonl(),
            };
            assert_eq!(
                got, oracle,
                "{name}: skewed-plan optimistic run diverged (seed {seed:#x})"
            );
        }
    }
}

/// The fault-injection acceptance gate: for every example app at least one
/// optimistic configuration must actually roll back (rollbacks > 0, with
/// anti-message and checkpoint activity to match) — exercising the Time
/// Warp machinery for real, not vacuously — while matching the oracle.
#[test]
fn straggler_injection_forces_rollbacks_on_every_app() {
    let machine = MachineSpec::default_eval();
    let comm = comm_models(&machine).remove(1).1;
    for &name in EXAMPLE_APPS {
        let (oracle, _) = run_surfaces(name, base_config(&comm), 1);
        let mut rolled_back = false;
        // Escalating schedule: finer checkpoints and harsher stall rates
        // until the app rolls back. Every configuration must stay exact
        // whether or not it rolled back.
        for (threads, interval, rate) in [
            (4usize, 8usize, (1u32, 2u32)),
            (8, 4, (2, 3)),
            (2, 1, (3, 4)),
        ] {
            let config = base_config(&comm)
                .with_sync(SyncMode::Optimistic)
                .with_checkpoint_interval(interval)
                .with_straggler(StragglerPolicy::with_rate(0xF417, rate.0, rate.1));
            let (got, counters) = run_surfaces(name, config, threads);
            assert_eq!(
                got, oracle,
                "{name}: optimistic run diverged (x{threads}, interval {interval})"
            );
            if counters.rollbacks > 0 {
                assert!(
                    counters.checkpoints > 0,
                    "{name}: rollbacks without checkpoints"
                );
                assert!(
                    counters.events_rolled_back > 0,
                    "{name}: rollbacks undid no events"
                );
                rolled_back = true;
                break;
            }
        }
        assert!(
            rolled_back,
            "{name}: no straggler configuration forced a rollback — the \
             optimistic path was never exercised"
        );
    }
}

/// Capacity-deadlock diagnosis is sync-mode invariant: `temporal_iir`
/// wedges when its feedback loop is pinned to capacity 64, and the
/// structured report — wait-for cycle, occupancies, suggested bump — is
/// identical under sequential, conservative, and optimistic execution.
#[test]
fn deadlock_report_is_sync_mode_invariant() {
    let machine = MachineSpec::default_eval();
    let comm = comm_models(&machine).remove(1).1;
    let outcome_of = |sync: SyncMode, threads: usize| -> SimOutcome {
        let app = build_example("temporal_iir");
        let opts = CompileOptions {
            machine,
            ..Default::default()
        };
        let compiled = compile(&app.graph, &opts).expect("compile");
        let config = SimConfig::new(FRAMES)
            .with_machine(machine)
            .with_comm(comm.clone())
            .with_channel_capacity(64)
            .with_sync(sync);
        ParallelTimedSimulator::new(&compiled.graph, &compiled.mapping, config, threads)
            .expect("instantiate")
            .run_artifacts()
            .outcome
    };
    let SimOutcome::Deadlocked(oracle) = outcome_of(SyncMode::Conservative, 1) else {
        panic!("temporal_iir must capacity-deadlock when pinned to 64");
    };
    for sync in [SyncMode::Conservative, SyncMode::Optimistic] {
        for threads in [2usize, 4] {
            let SimOutcome::Deadlocked(got) = outcome_of(sync, threads) else {
                panic!("temporal_iir did not deadlock under {sync:?} x{threads}");
            };
            assert_eq!(
                oracle, got,
                "DeadlockReport diverged under {sync:?} x{threads}"
            );
        }
    }
}
