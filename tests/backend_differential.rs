//! Fingerprint-differential suite pinning the mask planner
//! (`Backend::Compiled`: lowered readiness masks and fused fire routines)
//! to the scan planner (`Backend::Interpreted`: `RtNode::plan` and
//! `execute_with_cost`) on the shared event loop (DESIGN.md §13).
//!
//! For every example application × comm model, the sequential scan-planner
//! run is the reference; the mask planner — sequential and parallel at 1,
//! 2, 4, and 8 threads — must reproduce its `SimReport::fingerprint()` and
//! sink item streams bit for bit. Traces and structured
//! `Deadlocked(DeadlockReport)` outcomes are held to the same standard:
//! the backend switch may change *how fast* the simulator runs, never what
//! it computes, when, or how it diagnoses a wedge.

use bp_apps::{apps, App, SLOW, SMALL};
use bp_compiler::{compile, CompileOptions};
use bp_core::{AppGraph, BpError, CommModel, Dim2, GraphBuilder, Item, Mapping};
use bp_kernels as k;
use bp_sim::{
    Backend, ParallelTimedSimulator, SimConfig, SimOutcome, SimReport, TimedSimulator, TraceOptions,
};

const FRAMES: u32 = 2;

/// Every example application, by name (kept in sync with
/// `tests/determinism.rs` and `tests/comm_delay.rs`).
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

/// The three model shapes of `tests/comm_delay.rs`: direct delivery, a
/// uniform 64-cycle latency, and a distance-dependent grid.
fn models() -> Vec<(&'static str, CommModel)> {
    vec![
        ("zero", CommModel::zero()),
        ("uniform", CommModel::uniform(64e-9, 1e-9)),
        ("grid", CommModel::grid(32e-9, 8e-9, 1e-9)),
    ]
}

fn config_with(comm: &CommModel, backend: Backend) -> SimConfig {
    SimConfig::new(FRAMES)
        .with_comm(comm.clone())
        .with_backend(backend)
}

/// Run `name` under `comm` on the given backend and worker-thread count
/// (1 runs the sequential engine), returning the report result plus the
/// sink item streams.
fn run(
    name: &str,
    comm: &CommModel,
    backend: Backend,
    threads: usize,
) -> (bp_core::Result<SimReport>, Vec<Vec<Item>>) {
    let app = build_example(name);
    let compiled = compile(&app.graph, &CompileOptions::default()).expect("compile");
    let config = config_with(comm, backend);
    let out = ParallelTimedSimulator::new(&compiled.graph, &compiled.mapping, config, threads)
        .expect("instantiate")
        .run();
    let items = app.sinks.iter().map(|(_, h)| h.items()).collect();
    (out, items)
}

/// The core guarantee: for every app × comm model, the mask planner's
/// report fingerprint and sink items equal the scan planner's at 1 (the
/// sequential engine), 2, 4, and 8 worker threads.
#[test]
fn compiled_matches_interpreted_everywhere() {
    for &name in EXAMPLE_APPS {
        for (mname, comm) in models() {
            let (oracle, oracle_items) = run(name, &comm, Backend::Interpreted, 1);
            let check = |label: &str, got: &bp_core::Result<SimReport>, items: &Vec<Vec<Item>>| {
                match (&oracle, got) {
                    (Ok(o), Ok(c)) => assert_eq!(
                        o.fingerprint(),
                        c.fingerprint(),
                        "{name} under {mname} ({label}): compiled fingerprint diverged"
                    ),
                    (Err(oe), Err(ce)) => assert_eq!(
                        oe.to_string(),
                        ce.to_string(),
                        "{name} under {mname} ({label}): error diverged"
                    ),
                    _ => panic!(
                        "{name} under {mname} ({label}): outcomes diverged: \
                         oracle={oracle:?} compiled={got:?}"
                    ),
                }
                assert_eq!(
                    &oracle_items, items,
                    "{name} under {mname} ({label}): sink items diverged"
                );
            };
            for threads in [1usize, 2, 4, 8] {
                let (par, par_items) = run(name, &comm, Backend::Compiled, threads);
                check(&format!("{threads} threads"), &par, &par_items);
            }
        }
    }
}

/// Trace equality: the mask planner records the identical event
/// stream — firings, queue depths, tokens, comm events, and stall
/// attributions — not just the same aggregate report.
#[test]
fn compiled_traces_are_bitwise_identical() {
    for &name in ["fig1b", "temporal_iir", "camera_bank"].iter() {
        for (mname, comm) in models() {
            let trace_of = |backend: Backend| {
                let app = build_example(name);
                let compiled = compile(&app.graph, &CompileOptions::default()).expect("compile");
                let config = config_with(&comm, backend).with_trace(TraceOptions::default());
                let (report, trace) =
                    TimedSimulator::new(&compiled.graph, &compiled.mapping, config)
                        .expect("instantiate")
                        .run_with_trace()
                        .expect("runs");
                (report.fingerprint(), trace.expect("trace recorded"))
            };
            let (ofp, otrace) = trace_of(Backend::Interpreted);
            let (cfp, ctrace) = trace_of(Backend::Compiled);
            assert_eq!(ofp, cfp, "{name} under {mname}: fingerprint diverged");
            assert_eq!(
                otrace.dropped, ctrace.dropped,
                "{name} under {mname}: trace drop counts diverged"
            );
            assert_eq!(
                otrace.events, ctrace.events,
                "{name} under {mname}: trace event streams diverged"
            );
        }
    }
}

/// Structured deadlock outcomes survive the backend switch: pinning
/// `temporal_iir`'s capacities to a uniform 64 (disabling the
/// feedback-aware back-edge sizing) wedges the loop, and the mask
/// planner must assemble the identical `DeadlockReport` — wait-for cycle,
/// occupancies, and capacity-bump suggestion included.
#[test]
fn compiled_deadlock_reports_are_identical() {
    let comm = CommModel::uniform(64e-9, 1e-9);
    let outcome_of = |backend: Backend, threads: usize| -> SimOutcome {
        let app = build_example("temporal_iir");
        let compiled = compile(&app.graph, &CompileOptions::default()).expect("compile");
        let config = config_with(&comm, backend).with_channel_capacity(64);
        ParallelTimedSimulator::new(&compiled.graph, &compiled.mapping, config, threads)
            .expect("instantiate")
            .run_artifacts()
            .outcome
    };
    let SimOutcome::Deadlocked(oracle) = outcome_of(Backend::Interpreted, 1) else {
        panic!("temporal_iir must capacity-deadlock when pinned to 64");
    };
    for threads in [1, 2, 8] {
        let SimOutcome::Deadlocked(got) = outcome_of(Backend::Compiled, threads) else {
            panic!("compiled backend did not deadlock ({threads} threads)");
        };
        assert_eq!(
            oracle, got,
            "DeadlockReport diverged on the compiled backend ({threads} threads)"
        );
    }
}

/// Feedback capacities: with the derived (feedback-aware) plan,
/// `temporal_iir` completes identically under both planners — the primed
/// loop population, credit flow, and startup const firings all lower
/// correctly.
#[test]
fn compiled_feedback_capacities_complete_identically() {
    for (mname, comm) in models() {
        let (oracle, oracle_items) = run("temporal_iir", &comm, Backend::Interpreted, 1);
        let (got, got_items) = run("temporal_iir", &comm, Backend::Compiled, 1);
        let o = oracle.expect("temporal_iir completes under derived capacities");
        let c = got.expect("compiled temporal_iir completes");
        assert_eq!(
            o.fingerprint(),
            c.fingerprint(),
            "temporal_iir under {mname}: fingerprint diverged"
        );
        assert_eq!(oracle_items, got_items, "temporal_iir under {mname}: items");
    }
}

/// `source → split_rr(65) → 65 × scale → join_rr(65) → sink`, mapped 1:1:
/// the join's token synchronizers trigger on 65 input ports, one more than
/// the mask planner's `u64` head masks can index.
fn over_wide_graph() -> (AppGraph, Mapping, k::SinkHandle) {
    const WIDTH: usize = 65;
    let grain = Dim2::new(1, 1);
    let frame = Dim2::new(WIDTH as u32, 2);
    let mut b = GraphBuilder::new();
    let src = b.add_source("Input", k::pattern_source(frame), frame, 100.0);
    let split = b.add("Split", k::split_rr(WIDTH, grain));
    let join = b.add("Join", k::join_rr(WIDTH, grain));
    b.connect(src, "out", split, "in");
    for i in 0..WIDTH {
        let lane = b.add(format!("Scale{i}"), k::scale(2.0, 1.0));
        b.connect(split, &format!("out{i}"), lane, "in");
        b.connect(lane, "out", join, &format!("in{i}"));
    }
    let (sdef, handle) = k::sink();
    let snk = b.add("result", sdef);
    b.connect(join, "out", snk, "in");
    let graph = b.build().expect("over-wide graph is well-formed");
    let mapping = Mapping::one_to_one(graph.node_count());
    (graph, mapping, handle)
}

/// A kernel with more than 64 input ports cannot be lowered: `Auto` falls
/// back to the scan planner and runs it exactly like `Interpreted`
/// (sequentially and at 2 threads, under every comm model), while an
/// explicit `Compiled` request is refused with a validation error. The
/// fallback itself is taken in release builds; under debug assertions
/// `Auto` scans anyway, and the run checks that no head mask is touched
/// for a port index past 63.
#[test]
fn over_wide_kernels_fall_back_to_the_scan_planner() {
    for (mname, comm) in models() {
        let run = |backend: Backend, threads: usize| {
            let (graph, mapping, handle) = over_wide_graph();
            let config = config_with(&comm, backend);
            let report = ParallelTimedSimulator::new(&graph, &mapping, config, threads)
                .expect("instantiate")
                .run()
                .expect("over-wide graph runs");
            (
                report.fingerprint(),
                report.frames_completed,
                handle.items(),
            )
        };
        let (oracle, frames, items) = run(Backend::Interpreted, 1);
        assert_eq!(frames, FRAMES, "{mname}: every frame completes");
        assert!(!items.is_empty(), "{mname}: the sink saw the stream");
        for (backend, threads) in [
            (Backend::Interpreted, 2),
            (Backend::Auto, 1),
            (Backend::Auto, 2),
        ] {
            let (fp, _, got) = run(backend, threads);
            assert_eq!(oracle, fp, "{mname} {backend:?} {threads}t: fingerprint");
            assert_eq!(items, got, "{mname} {backend:?} {threads}t: sink items");
        }
        let (graph, mapping, _) = over_wide_graph();
        let config = config_with(&comm, Backend::Compiled);
        assert!(
            matches!(
                TimedSimulator::new(&graph, &mapping, config.clone()),
                Err(BpError::Validation(_))
            ),
            "{mname}: the compiled backend must refuse a 65-input kernel"
        );
        assert!(
            matches!(
                ParallelTimedSimulator::new(&graph, &mapping, config, 2),
                Err(BpError::Validation(_))
            ),
            "{mname}: the compiled backend must refuse a 65-input kernel (2 threads)"
        );
    }
}
