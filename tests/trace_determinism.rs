//! Determinism and inertness tests for the tracing subsystem.
//!
//! Two guarantees are pinned here, across every example application:
//!
//! 1. **Tracing is inert**: enabling it changes nothing about the
//!    simulation — the `SimReport` fingerprint with tracing on equals the
//!    fingerprint with tracing off (and a deadlocking app produces the
//!    identical error either way).
//! 2. **The trace is engine-independent**: a traced run through the
//!    parallel engine's API yields a trace *bitwise identical* to the
//!    sequential engine's at 1, 2, 4, and 8 threads (a traced run executes
//!    on the sequential engine, DESIGN.md §9), with no ring drops at the
//!    default capacity.

use bp_apps::{apps, App, SLOW, SMALL};
use bp_compiler::{compile, CompileOptions};
use bp_core::{CommModel, Dim2};
use bp_sim::{
    chrome_trace_json, validate_json, Backend, ParallelTimedSimulator, SimConfig, SimReport,
    TimedSimulator, Trace, TraceOptions,
};

const FRAMES: u32 = 2;

/// Every example application, by name (kept in sync with
/// `tests/determinism.rs`).
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

fn run_sequential(name: &str, trace: bool) -> bp_core::Result<(SimReport, Option<Trace>)> {
    let app = build_example(name);
    let compiled = compile(&app.graph, &CompileOptions::default()).expect("compile");
    let mut config = SimConfig::new(FRAMES);
    if trace {
        config = config.with_trace(TraceOptions::default());
    }
    TimedSimulator::new(&compiled.graph, &compiled.mapping, config)
        .expect("instantiate")
        .run_with_trace()
}

fn run_parallel(name: &str, threads: usize) -> bp_core::Result<(SimReport, Option<Trace>)> {
    let app = build_example(name);
    let compiled = compile(&app.graph, &CompileOptions::default()).expect("compile");
    let config = SimConfig::new(FRAMES).with_trace(TraceOptions::default());
    ParallelTimedSimulator::new(&compiled.graph, &compiled.mapping, config, threads)
        .expect("instantiate")
        .run_with_trace()
}

/// Tracing must not perturb the simulation: for every app, the report
/// fingerprint with tracing enabled equals the report fingerprint with
/// tracing disabled (and errors, if any, are identical).
#[test]
fn tracing_is_inert_on_every_app() {
    for &name in EXAMPLE_APPS {
        let plain = run_sequential(name, false);
        let traced = run_sequential(name, true);
        match (&plain, &traced) {
            (Ok((p, p_trace)), Ok((t, t_trace))) => {
                assert!(p_trace.is_none(), "{name}: trace returned while disabled");
                let trace = t_trace.as_ref().expect("trace returned while enabled");
                assert_eq!(
                    p.fingerprint(),
                    t.fingerprint(),
                    "{name}: enabling tracing changed the SimReport"
                );
                assert_eq!(trace.dropped, 0, "{name}: default ring wrapped");
                assert!(!trace.events.is_empty(), "{name}: empty trace");
            }
            (Err(pe), Err(te)) => assert_eq!(
                pe.to_string(),
                te.to_string(),
                "{name}: enabling tracing changed the error"
            ),
            _ => panic!("{name}: tracing changed the outcome: {plain:?} vs {traced:?}"),
        }
    }
}

/// A trace requested through the parallel engine is bitwise identical to
/// the sequential engine's, at every thread count — the API contract that
/// lets callers trace without choosing an engine. (Apps that deadlock return
/// an error from both engines; error equality is pinned in
/// `tests/determinism.rs`.)
#[test]
fn parallel_trace_is_bitwise_identical_to_sequential() {
    for &name in EXAMPLE_APPS {
        let Ok((seq_report, seq_trace)) = run_sequential(name, true) else {
            continue;
        };
        let seq_trace = seq_trace.expect("tracing enabled");
        assert_eq!(seq_trace.dropped, 0, "{name}: sequential ring wrapped");
        for threads in [1usize, 2, 4, 8] {
            let (par_report, par_trace) =
                run_parallel(name, threads).expect("parallel run should match sequential");
            let par_trace = par_trace.expect("tracing enabled");
            assert_eq!(
                seq_report.fingerprint(),
                par_report.fingerprint(),
                "{name} at {threads} threads: SimReport diverged"
            );
            assert_eq!(par_trace.dropped, 0, "{name}: parallel ring wrapped");
            assert_eq!(
                seq_trace.events, par_trace.events,
                "{name} at {threads} threads: trace is not bitwise \
                 identical to the sequential trace"
            );
            assert_eq!(
                seq_trace.digest(),
                par_trace.digest(),
                "{name} at {threads} threads: trace digests diverged"
            );
        }
    }
}

/// The upgraded capacity-deadlock diagnostic names the feedback channel
/// cycle that filled, identically on both engines. The deadlock is now
/// only reachable by pinning every channel to the historical uniform 64
/// (the default feedback-aware derivation sizes the back edge so the
/// loop drains).
#[test]
fn deadlock_error_names_the_feedback_cycle() {
    let run = |threads: usize| -> bp_core::Result<SimReport> {
        let app = build_example("temporal_iir");
        let compiled = compile(&app.graph, &CompileOptions::default()).expect("compile");
        let config = SimConfig::new(FRAMES).with_channel_capacity(64);
        ParallelTimedSimulator::new(&compiled.graph, &compiled.mapping, config, threads)
            .expect("instantiate")
            .run()
    };
    let seq_err = run(1)
        .expect_err("temporal_iir capacity-deadlocks at SMALL/SLOW when pinned to 64")
        .to_string();
    assert!(
        seq_err.contains("wait-for cycle:"),
        "deadlock error lost the cycle diagnostic: {seq_err}"
    );
    for channel in [
        "Mix.out -> Half.in",
        "Half.out -> FrameDelay.in",
        "FrameDelay.out -> Mix.in1",
    ] {
        assert!(
            seq_err.contains(channel),
            "cycle diagnostic missing channel '{channel}': {seq_err}"
        );
    }
    for threads in [2usize, 8] {
        let par_err = run(threads)
            .expect_err("parallel engine must also deadlock")
            .to_string();
        assert_eq!(seq_err, par_err, "engines' deadlock diagnostics diverged");
    }
}

/// The Chrome exporter produces well-formed JSON (checked by the in-tree
/// validator) with one duration pair per traced firing.
#[test]
fn chrome_export_is_wellformed_json() {
    let (_, trace) = run_sequential("fig1b", true).expect("fig1b runs");
    let trace = trace.expect("tracing enabled");
    let json = chrome_trace_json(&trace);
    validate_json(&json).expect("exported trace must be well-formed JSON");
    let begins = json.matches("\"ph\":\"B\"").count();
    let ends = json.matches("\"ph\":\"E\"").count();
    assert_eq!(begins, ends, "unbalanced duration events");
    assert!(begins > 0, "no firing slices exported");
    assert!(json.contains("\"ph\":\"C\""), "no counter tracks exported");
}

/// Derived metrics are self-consistent: every traced event is attributed,
/// utilization stays within [0, 1], and high-water marks agree with the
/// report's per-node queue maxima.
#[test]
fn derived_metrics_are_consistent() {
    let (report, trace) = run_sequential("fig1b", true).expect("fig1b runs");
    let trace = trace.expect("tracing enabled");
    let counts = trace.node_event_counts();
    assert_eq!(counts.len(), trace.meta.node_names.len());
    assert!(counts.iter().sum::<u64>() > 0);
    for row in trace.pe_utilization(0.005) {
        for u in row {
            assert!((0.0..=1.0 + 1e-9).contains(&u), "utilization out of range");
        }
    }
    for hw in trace.channel_high_water() {
        assert!(
            (hw.depth as usize) <= report.node_max_queue[hw.node],
            "trace high-water exceeds the report's max queue depth"
        );
    }
}

/// A tiny ring still yields a valid (truncated) trace: drops are counted
/// and the report is untouched.
#[test]
fn bounded_ring_truncates_without_perturbing_results() {
    let app = build_example("fig1b");
    let compiled = compile(&app.graph, &CompileOptions::default()).expect("compile");
    let config = SimConfig::new(FRAMES).with_trace(TraceOptions::with_capacity(64));
    let (report, trace) = TimedSimulator::new(&compiled.graph, &compiled.mapping, config)
        .expect("instantiate")
        .run_with_trace()
        .expect("run");
    let trace = trace.expect("tracing enabled");
    assert_eq!(trace.events.len(), 64, "ring should be at capacity");
    assert!(
        trace.dropped > 0,
        "a 64-event ring must have dropped events"
    );
    let (baseline, _) = run_sequential("fig1b", false).expect("fig1b runs");
    assert_eq!(
        baseline.fingerprint(),
        report.fingerprint(),
        "ring truncation perturbed the simulation"
    );
}

/// Golden report fingerprints at the reference test configuration
/// (SMALL/SLOW, 2 frames, default machine) for every example application
/// under the three comm models of `tests/backend_differential.rs`. The
/// zero-model fig1b and edge_detect values were recorded after the
/// length-separated fingerprint fix; the rest of the table was recorded
/// from the sequential engine's `Backend::Interpreted` run while it still
/// had its own event loop, the last independent reference for the
/// comm-model tables (delayed-channel credits, delayed space checks).
/// Both backends must reproduce every entry. Any change to simulation
/// semantics or to the fingerprint encoding must update these
/// deliberately.
#[test]
fn report_fingerprints_match_golden() {
    const GOLDEN: &[(&str, &str, u64)] = &[
        ("fig1b", "zero", 0x3fd7b8fa22f4f7fe),
        ("fig1b", "uniform", 0xad3bd7848978bd08),
        ("fig1b", "grid", 0x2fed8b29e574e67b),
        ("bayer", "zero", 0xf47942be663aff6f),
        ("bayer", "uniform", 0xb651e71a42cdf804),
        ("bayer", "grid", 0xebf04173c1ddf09a),
        ("histogram", "zero", 0x6de4b18d4a6c824c),
        ("histogram", "uniform", 0x70edb331335c6218),
        ("histogram", "grid", 0x49823915e016b2da),
        ("parallel_buffer", "zero", 0x7f5498ce4ad6047a),
        ("parallel_buffer", "uniform", 0x1024d0ea23f5d105),
        ("parallel_buffer", "grid", 0xbd70d233e14400ed),
        ("multi_conv", "zero", 0x38e227c6d8ac07d7),
        ("multi_conv", "uniform", 0xef7104db42d76074),
        ("multi_conv", "grid", 0x1688f25e2ffda3fc),
        ("temporal_iir", "zero", 0x7b866d603065851d),
        ("temporal_iir", "uniform", 0xd880c88521078311),
        ("temporal_iir", "grid", 0x7eb264bf7f736708),
        ("fir_radio", "zero", 0x909bd8088ab023ee),
        ("fir_radio", "uniform", 0xc9cdb3aae4e9e47d),
        ("fir_radio", "grid", 0x5f36083bf0ac9af2),
        ("edge_detect", "zero", 0x5d384e84264b7f0a),
        ("edge_detect", "uniform", 0xf0f2bd1ef13037ef),
        ("edge_detect", "grid", 0xc4ceeb3ff9d2f64c),
        ("analytics", "zero", 0x4b67e197bf53050a),
        ("analytics", "uniform", 0x2fee3c089bacfa4b),
        ("analytics", "grid", 0xda92dba00e06ad4f),
        ("stereo_diff", "zero", 0x877614c8d5407a5d),
        ("stereo_diff", "uniform", 0x5c2d100117850aba),
        ("stereo_diff", "grid", 0x443c9cf019422182),
        ("camera_bank", "zero", 0xc1ebec8b2e8339a4),
        ("camera_bank", "uniform", 0x322d38dbcb9679ba),
        ("camera_bank", "grid", 0x6f92277b74fef283),
    ];
    assert_eq!(GOLDEN.len(), EXAMPLE_APPS.len() * models().len());
    for &(name, mname, want) in GOLDEN {
        let (_, comm) = models()
            .into_iter()
            .find(|(m, _)| *m == mname)
            .expect("known model");
        for backend in [Backend::Interpreted, Backend::Compiled] {
            let app = build_example(name);
            let compiled = compile(&app.graph, &CompileOptions::default()).expect("compile");
            let config = SimConfig::new(FRAMES)
                .with_comm(comm.clone())
                .with_backend(backend);
            let report = TimedSimulator::new(&compiled.graph, &compiled.mapping, config)
                .expect("instantiate")
                .run()
                .expect("runs");
            assert_eq!(
                report.fingerprint(),
                want,
                "{name} under {mname} ({backend:?}): report fingerprint drifted (got {:#018x})",
                report.fingerprint()
            );
        }
    }
}

/// The three comm models of `tests/backend_differential.rs`: direct
/// delivery, a uniform 64-cycle latency, and a distance-dependent grid.
fn models() -> Vec<(&'static str, CommModel)> {
    vec![
        ("zero", CommModel::zero()),
        ("uniform", CommModel::uniform(64e-9, 1e-9)),
        ("grid", CommModel::grid(32e-9, 8e-9, 1e-9)),
    ]
}
