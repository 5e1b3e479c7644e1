//! End-to-end regression tests for the inter-PE communication delay model
//! (DESIGN.md §11).
//!
//! Three guarantees are pinned here, across every example application:
//!
//! 1. **The zero model is a no-op**: `CommModel::zero()` (the default)
//!    reproduces the pre-model golden sink digests and report
//!    fingerprints bit for bit.
//! 2. **Engine equivalence under delay**: with *any* comm model, the
//!    parallel engine's `SimReport` fingerprint and sink item streams are
//!    bitwise identical to the sequential engine's at 1, 2, 4, and 8
//!    threads — including identical deadlock diagnostics where an app
//!    legitimately capacity-deadlocks.
//! 3. **Lookahead actually parallelizes**: a connected app (`fig1b`) with
//!    a positive minimum cross-shard latency executes on at least two
//!    busy shards, observed via `ParallelRunStats::shard_events`.
//! 4. **Events are conserved**: under a nonzero model the shards of a
//!    parallel run process, between them, exactly the sequential engine's
//!    events.
//!
//! Frame accounting is per sink: frame *f* completes when every sink has
//! seen its *f*-th end-of-frame, even when one sink runs a frame ahead of
//! another (`per_sink_frames_survive_branch_drift`).

use bp_apps::{apps, App, SLOW, SMALL};
use bp_compiler::{compile, CompileOptions};
use bp_core::{CommModel, ControlToken, Dim2, GraphBuilder, Item, Mapping, ShardPlan};
use bp_sim::{
    ParallelRunStats, ParallelTimedSimulator, SimConfig, SimReport, TimedSimulator, TraceEvent,
    TraceOptions,
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

/// The three model shapes exercised everywhere below. Latencies are a few
/// PE cycles at the default 10^9 Hz clock — small enough to keep windows
/// plentiful, large enough that schedules genuinely shift.
fn models() -> Vec<(&'static str, CommModel)> {
    vec![
        ("zero", CommModel::zero()),
        ("uniform", CommModel::uniform(64e-9, 1e-9)),
        ("grid", CommModel::grid(32e-9, 8e-9, 1e-9)),
    ]
}

fn config_with(comm: &CommModel) -> SimConfig {
    SimConfig::new(FRAMES).with_comm(comm.clone())
}

fn run_seq(name: &str, comm: &CommModel) -> (bp_core::Result<SimReport>, Vec<Vec<Item>>) {
    let app = build_example(name);
    let compiled = compile(&app.graph, &CompileOptions::default()).expect("compile");
    let out = TimedSimulator::new(&compiled.graph, &compiled.mapping, config_with(comm))
        .expect("instantiate")
        .run();
    let items = app.sinks.iter().map(|(_, h)| h.items()).collect();
    (out, items)
}

fn run_par(
    name: &str,
    comm: &CommModel,
    threads: usize,
) -> (bp_core::Result<SimReport>, Vec<Vec<Item>>, ParallelRunStats) {
    let app = build_example(name);
    let compiled = compile(&app.graph, &CompileOptions::default()).expect("compile");
    let run = ParallelTimedSimulator::new(
        &compiled.graph,
        &compiled.mapping,
        config_with(comm),
        threads,
    )
    .expect("instantiate")
    .run_artifacts();
    let items = app.sinks.iter().map(|(_, h)| h.items()).collect();
    (run.outcome.into_report(), items, run.stats)
}

/// Events the sequential engine processes for `name` under `comm`.
fn seq_events(name: &str, comm: &CommModel) -> u64 {
    let app = build_example(name);
    let compiled = compile(&app.graph, &CompileOptions::default()).expect("compile");
    let mut sim = TimedSimulator::new(&compiled.graph, &compiled.mapping, config_with(comm))
        .expect("instantiate");
    while !sim.is_done() {
        sim.step(1 << 16);
    }
    sim.events_processed()
}

/// FNV-1a over the raw bit patterns of the samples (same digest as
/// `tests/determinism.rs`).
fn digest(samples: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for s in samples {
        for b in s.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// With the default zero model, sink output and report fingerprints
/// reproduce the goldens recorded before the comm-model subsystem
/// existed: the model's plumbing must be invisible when every latency is
/// zero.
#[test]
fn zero_model_reproduces_pinned_goldens() {
    const SINK_GOLDEN: &[(&str, u64, usize)] = &[
        ("fig1b", 0x4c09dd9a8495acaa, 64),
        ("edge_detect", 0x5a178332b5193325, 256),
    ];
    const REPORT_GOLDEN: &[(&str, u64)] = &[
        ("fig1b", 0x3fd7b8fa22f4f7fe),
        ("edge_detect", 0x5d384e84264b7f0a),
    ];
    for &(name, want_digest, want_count) in SINK_GOLDEN {
        let (out, items) = run_seq(name, &CommModel::zero());
        out.expect("runs");
        let samples: Vec<f64> = items[0]
            .iter()
            .filter_map(|i| i.window().map(|w| w.samples().to_vec()))
            .flatten()
            .collect();
        assert_eq!(samples.len(), want_count, "{name}: sample count");
        assert_eq!(
            digest(&samples),
            want_digest,
            "{name}: zero comm model changed the sink output"
        );
    }
    for &(name, want) in REPORT_GOLDEN {
        let (out, _) = run_seq(name, &CommModel::zero());
        let report = out.expect("runs");
        assert_eq!(
            report.fingerprint(),
            want,
            "{name}: zero comm model changed the report fingerprint"
        );
    }
}

/// For every app × model × thread count, the parallel engine is bitwise
/// identical to the sequential one: same fingerprint and same sink items
/// on success, or the identical error string where an app deadlocks
/// (none do by default now that feedback loops size their own back-edge
/// capacities — the Err arm is kept for symmetry). Under the nonzero
/// models at 2 and 4 threads the run really shards, and the shards'
/// event counts sum to the sequential engine's: no event is lost or
/// processed twice.
#[test]
fn parallel_matches_sequential_under_every_model() {
    for &name in EXAMPLE_APPS {
        for (mname, comm) in models() {
            let (seq, seq_items) = run_seq(name, &comm);
            let want_events = (mname != "zero").then(|| seq_events(name, &comm));
            for threads in [1usize, 2, 4, 8] {
                let (par, par_items, stats) = run_par(name, &comm, threads);
                if let (Some(want), 2 | 4) = (want_events, threads) {
                    assert!(
                        stats.shards >= 2,
                        "{name} under {mname} at {threads} threads: ran on one shard"
                    );
                    assert_eq!(
                        stats.shard_events.iter().sum::<u64>(),
                        want,
                        "{name} under {mname} at {threads} threads: shard events \
                         {:?} do not sum to the sequential count",
                        stats.shard_events
                    );
                }
                match (&seq, &par) {
                    (Ok(s), Ok(p)) => assert_eq!(
                        s.fingerprint(),
                        p.fingerprint(),
                        "{name} under {mname} at {threads} threads: SimReport diverged"
                    ),
                    (Err(se), Err(pe)) => assert_eq!(
                        se.to_string(),
                        pe.to_string(),
                        "{name} under {mname} at {threads} threads: error diverged"
                    ),
                    _ => panic!(
                        "{name} under {mname} at {threads} threads: outcomes diverged: \
                         seq={seq:?} par={par:?}"
                    ),
                }
                assert_eq!(
                    seq_items, par_items,
                    "{name} under {mname} at {threads} threads: sink items diverged"
                );
            }
        }
    }
}

/// A nonzero model genuinely changes the schedule (it is not silently
/// ignored): fig1b's report fingerprint differs between the zero and
/// uniform models, while its sink output — the functional result — stays
/// identical.
#[test]
fn nonzero_model_shifts_the_schedule_but_not_the_output() {
    let (zero, zero_items) = run_seq("fig1b", &CommModel::zero());
    let (delayed, delayed_items) = run_seq("fig1b", &CommModel::uniform(64e-9, 1e-9));
    let zero = zero.expect("runs");
    let delayed = delayed.expect("runs");
    assert_ne!(
        zero.fingerprint(),
        delayed.fingerprint(),
        "a 64-cycle uniform delay left the timed report untouched — \
         the comm model is being ignored"
    );
    assert!(
        delayed.sim_time > zero.sim_time,
        "delay did not extend simulated time ({} vs {})",
        delayed.sim_time,
        zero.sim_time
    );
    assert_eq!(
        zero_items, delayed_items,
        "comm delay changed *what* was computed, not just when"
    );
}

/// Grid distance matters: under a pure per-hop model, fig1b's one-to-one
/// mapping (more PEs, longer routes) yields a different schedule than the
/// same model with uniform latency of equal base. Checks the hop term is
/// wired through `channel_latency_s`.
#[test]
fn grid_model_distance_term_is_honored() {
    let app = build_example("fig1b");
    let compiled = compile(&app.graph, &CompileOptions::default()).expect("compile");
    // per-hop only: distance-1 neighbors pay 8 ns, distant pairs pay more.
    let grid = CommModel::grid(0.0, 8e-9, 0.0);
    let flat = CommModel::uniform(8e-9, 0.0);
    let run = |comm: &CommModel| {
        TimedSimulator::new(&compiled.graph, &compiled.mapping, config_with(comm))
            .expect("instantiate")
            .run()
            .expect("runs")
            .fingerprint()
    };
    // The mapped graph must contain at least one channel whose PEs sit
    // more than one hop apart, otherwise the two models coincide.
    let n = compiled.mapping.num_pes;
    let far = compiled.graph.channels().any(|(_, c)| {
        let a = compiled.mapping.pe_of_node[c.src.node.0];
        let b = compiled.mapping.pe_of_node[c.dst.node.0];
        a != b && grid.hops(a, b, n) > 1
    });
    assert!(far, "test premise: need a multi-hop channel in fig1b");
    assert_ne!(
        run(&grid),
        run(&flat),
        "per-hop latencies collapsed to uniform — grid distance ignored"
    );
}

/// The tentpole scalability claim: with a positive minimum cross-shard
/// latency, a *connected* app no longer degrades to one shard — fig1b
/// executes on at least two shards, each of which processes events.
#[test]
fn connected_app_fans_out_under_positive_lookahead() {
    let app = build_example("fig1b");
    let compiled = compile(&app.graph, &CompileOptions::default()).expect("compile");
    let comm = CommModel::uniform(64e-9, 0.0);
    let sim =
        ParallelTimedSimulator::new(&compiled.graph, &compiled.mapping, config_with(&comm), 4)
            .expect("instantiate");
    let (report, _, stats) = sim.run_with_stats().expect("runs");
    assert!(
        stats.shards >= 2,
        "fig1b sharded into {} shard(s) despite positive lookahead",
        stats.shards
    );
    assert!(
        stats.lookahead_s > 0.0 && stats.lookahead_s.is_finite(),
        "expected finite positive lookahead, got {}",
        stats.lookahead_s
    );
    assert!(stats.windows > 0, "no conservative windows were executed");
    let busy = stats.shard_events.iter().filter(|&&n| n > 0).count();
    assert!(
        busy >= 2,
        "only {busy} shard(s) processed events: {:?}",
        stats.shard_events
    );
    // And the fanned-out run still matches the sequential engine.
    let (seq, _) = run_seq("fig1b", &comm);
    assert_eq!(seq.expect("runs").fingerprint(), report.fingerprint());
}

/// With feedback-aware capacity derivation, `temporal_iir` only
/// deadlocks when an explicit uniform capacity pin disables the loop
/// sizing. Under that pin and a nonzero model, the wait-for-cycle
/// diagnostic must still name the feedback channels, identically on both
/// engines (sender-side credit accounting replaces direct queue
/// inspection for delayed channels).
#[test]
fn deadlock_diagnostic_is_stable_under_delay() {
    let comm = CommModel::uniform(64e-9, 1e-9);
    let run = |threads: usize| -> bp_core::Result<SimReport> {
        let app = build_example("temporal_iir");
        let compiled = compile(&app.graph, &CompileOptions::default()).expect("compile");
        let config = config_with(&comm).with_channel_capacity(64);
        ParallelTimedSimulator::new(&compiled.graph, &compiled.mapping, config, threads)
            .expect("instantiate")
            .run()
    };
    let seq_err = run(1)
        .expect_err("temporal_iir deadlocks at SMALL/SLOW when pinned to 64")
        .to_string();
    assert!(
        seq_err.contains("wait-for cycle:"),
        "deadlock error lost the cycle diagnostic under delay: {seq_err}"
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
        assert_eq!(
            seq_err, par_err,
            "deadlock diagnostics diverged at {threads} threads under delay"
        );
    }
}

/// Frame accounting is per sink. Two branches leave one source: the fast
/// one reaches its sink over one delayed hop, the slow one over three, and
/// the hop latency exceeds the frame period, so the fast sink's EOF for
/// frame *f*+1 lands before the slow sink's EOF for frame *f*. Frame *f*
/// must still complete at the later of the two sinks' *f*-th EOFs — on the
/// sequential engine and on the parallel one with the branches on
/// different shards. The expected times come from the sequential trace,
/// not from the engine's own bookkeeping.
#[test]
fn per_sink_frames_survive_branch_drift() {
    const DRIFT_FRAMES: u32 = 6;
    let dim = Dim2::new(4, 2);
    let rate_hz = 1000.0;
    let mut b = GraphBuilder::new();
    let src = b.add_source("In", bp_kernels::pattern_source(dim), dim, rate_hz);
    let (fast_def, _) = bp_kernels::sink();
    let fast = b.add("Fast", fast_def);
    let s1 = b.add("Slow1", bp_kernels::scale(2.0, 0.0));
    let s2 = b.add("Slow2", bp_kernels::scale(0.5, 0.0));
    let (slow_def, _) = bp_kernels::sink();
    let slow = b.add("Slow", slow_def);
    b.connect(src, "out", fast, "in");
    b.connect(src, "out", s1, "in");
    b.connect(s1, "out", s2, "in");
    b.connect(s2, "out", slow, "in");
    let graph = b.build().expect("drift graph");
    let mapping = Mapping::one_to_one(graph.node_count());
    // One hop costs 1.5 frame periods.
    let comm = CommModel::uniform(1.5 / rate_hz, 0.0);
    let config = SimConfig::new(DRIFT_FRAMES).with_comm(comm);

    // Expected per-sink EOF times and frame starts from a traced run.
    let (_, trace) = TimedSimulator::new(
        &graph,
        &mapping,
        config.clone().with_trace(TraceOptions::default()),
    )
    .expect("instantiate")
    .run_with_trace()
    .expect("runs");
    let trace = trace.expect("traced");
    let eofs = |sink: usize| -> Vec<f64> {
        trace
            .events
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::Token {
                    t,
                    node,
                    token: ControlToken::EndOfFrame,
                    ..
                } if node as usize == sink => Some(t),
                _ => None,
            })
            .collect()
    };
    let (fast_eofs, slow_eofs) = (eofs(fast.0), eofs(slow.0));
    let starts: Vec<f64> = trace
        .events
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::FiringBegin { t, node, .. } if node as usize == src.0 => Some(t),
            _ => None,
        })
        .step_by(dim.area() as usize)
        .collect();
    assert_eq!(fast_eofs.len(), DRIFT_FRAMES as usize);
    assert_eq!(slow_eofs.len(), DRIFT_FRAMES as usize);
    assert_eq!(starts.len(), DRIFT_FRAMES as usize);
    assert!(
        fast_eofs[1] < slow_eofs[0],
        "test premise: the fast sink must run a frame ahead \
         (fast EOFs {fast_eofs:?}, slow EOFs {slow_eofs:?})"
    );
    let completions: Vec<f64> = fast_eofs
        .iter()
        .zip(&slow_eofs)
        .map(|(a, b)| a.max(*b))
        .collect();
    let latencies: Vec<f64> = completions
        .iter()
        .zip(&starts)
        .map(|(c, s)| c - s)
        .collect();
    let span = completions.last().unwrap() - completions[0];
    let achieved = (completions.len() - 1) as f64 / span;

    let check = |what: &str, report: &SimReport| {
        assert_eq!(report.frames_completed, DRIFT_FRAMES, "{what}: frames");
        assert_eq!(
            report
                .frame_latencies
                .iter()
                .map(|l| l.to_bits())
                .collect::<Vec<_>>(),
            latencies.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
            "{what}: frame latencies {:?}, want {latencies:?}",
            report.frame_latencies
        );
        assert_eq!(
            report.verdict.achieved_rate_hz.to_bits(),
            achieved.to_bits(),
            "{what}: achieved rate {} Hz, want {achieved} Hz",
            report.verdict.achieved_rate_hz
        );
    };
    let seq = TimedSimulator::new(&graph, &mapping, config.clone())
        .expect("instantiate")
        .run()
        .expect("runs");
    check("sequential", &seq);
    // Source and fast sink on shard 0, the slow branch on shard 1.
    let mut shard_of_pe = vec![0usize; mapping.num_pes];
    for node in [s1, s2, slow] {
        shard_of_pe[mapping.pe_of_node[node.0]] = 1;
    }
    let plan = ShardPlan {
        shard_of_pe,
        num_shards: 2,
        num_components: 2,
    };
    let (par, _, stats) = ParallelTimedSimulator::with_plan(&graph, &mapping, config, plan)
        .expect("instantiate")
        .run_with_stats()
        .expect("runs");
    assert_eq!(stats.shards, 2, "the branches must run on separate shards");
    check("2 threads", &par);
    assert_eq!(seq.fingerprint(), par.fingerprint());
}
