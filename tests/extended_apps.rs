//! End-to-end tests for the extended application set: 1-D signal chains,
//! edge detection, morphology, upsampling, and the data-dependent-cost
//! motion search with its runtime resource exceptions (§VII).

use bp_apps::{apps, reference};
use bp_compiler::{compile, CompileOptions};
use bp_core::{Dim2, GraphBuilder, Step2, Window};
use bp_kernels as k;
use bp_sim::{FunctionalExecutor, SimConfig, TimedSimulator};

fn run_compiled(graph: &bp_core::AppGraph, frames: u32) -> bp_core::AppGraph {
    let c = compile(graph, &CompileOptions::default()).unwrap();
    let mut ex = FunctionalExecutor::new(&c.graph).unwrap();
    ex.run_frames(frames).unwrap();
    assert_eq!(ex.residual_items(), 0);
    c.graph
}

#[test]
fn fir_radio_matches_reference_chain() {
    let app = apps::fir_radio(72, 100.0);
    run_compiled(&app.graph, 2);
    let taps: Vec<f64> = k::lowpass_taps(9).samples().to_vec();
    for (f, got) in app.sinks[0].1.frames().iter().enumerate() {
        let signal: Vec<f64> = (0..72)
            .map(|x| reference::pattern_pixel(f as u32, x, 0))
            .collect();
        let filtered = reference::fir_valid(&signal, &taps);
        let expected = reference::decimate_by(&filtered, 4);
        assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(&expected) {
            assert!((g - e).abs() < 1e-9, "frame {f}");
        }
    }
}

#[test]
fn fir_radio_parallelizes_at_high_rate() {
    // 2 kHz frame rate over 72-sample frames: the FIR replicates.
    let app = apps::fir_radio(72, 2000.0);
    let c = compile(&app.graph, &CompileOptions::default()).unwrap();
    let plan = c.report.parallelize.plan_for("FIR").unwrap();
    assert!(plan.granted >= 2, "{plan:?}");
    let mut ex = FunctionalExecutor::new(&c.graph).unwrap();
    ex.run_frames(1).unwrap();
    let taps: Vec<f64> = k::lowpass_taps(9).samples().to_vec();
    let signal: Vec<f64> = (0..72).map(|x| reference::pattern_pixel(0, x, 0)).collect();
    let expected = reference::decimate_by(&reference::fir_valid(&signal, &taps), 4);
    let got = &app.sinks[0].1.frames()[0];
    for (g, e) in got.iter().zip(&expected) {
        assert!((g - e).abs() < 1e-9);
    }
}

#[test]
fn edge_detect_matches_reference_chain() {
    let dim = Dim2::new(16, 12);
    let app = apps::edge_detect(dim, 50.0, 20.0);
    run_compiled(&app.graph, 2);
    for (f, got) in app.sinks[0].1.frames().iter().enumerate() {
        let img = reference::pattern_frame(dim.w, dim.h, f as u32);
        let med = reference::median_valid(&img, 3, 3);
        let sob = reference::sobel_valid(&med);
        let expected: Vec<f64> = reference::threshold_img(&sob, 20.0)
            .into_iter()
            .flatten()
            .collect();
        assert_eq!(got, &expected, "frame {f}");
    }
}

#[test]
fn morphology_pipeline_computes_gradient() {
    // Morphological gradient: dilate - erode over the same window, using
    // the automatic alignment machinery (both paths have equal halos, so
    // no trim is needed).
    let dim = Dim2::new(12, 10);
    let mut b = GraphBuilder::new();
    let src = b.add_source("Input", k::pattern_source(dim), dim, 20.0);
    let di = b.add("Dilate", k::dilate(3, 3));
    let er = b.add("Erode", k::erode(3, 3));
    let sub = b.add("Sub", k::subtract());
    let (sdef, h) = k::sink();
    let snk = b.add("Out", sdef);
    b.connect(src, "out", di, "in");
    b.connect(src, "out", er, "in");
    b.connect(di, "out", sub, "in0");
    b.connect(er, "out", sub, "in1");
    b.connect(sub, "out", snk, "in");
    let g = b.build().unwrap();
    run_compiled(&g, 1);
    let img = reference::pattern_frame(dim.w, dim.h, 0);
    let got = &h.frames()[0];
    let mut idx = 0;
    for oy in 0..(dim.h - 2) as usize {
        for ox in 0..(dim.w - 2) as usize {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for dy in 0..3 {
                for dx in 0..3 {
                    lo = lo.min(img[oy + dy][ox + dx]);
                    hi = hi.max(img[oy + dy][ox + dx]);
                }
            }
            assert_eq!(got[idx], hi - lo, "at ({ox},{oy})");
            idx += 1;
        }
    }
}

#[test]
fn upsample_then_downsample_is_identity() {
    // upsample 2x2 (replicate) then block-average downsample 2x2 recovers
    // the original stream exactly.
    let dim = Dim2::new(6, 4);
    let mut b = GraphBuilder::new();
    let src = b.add_source("Input", k::pattern_source(dim), dim, 20.0);
    let up = b.add("Up", k::upsample(2, 2, k::UpsampleMode::Replicate));
    let down = b.add("Down", k::downsample(2, 2));
    let (sdef, h) = k::sink();
    let snk = b.add("Out", sdef);
    b.connect(src, "out", up, "in");
    b.connect(up, "out", down, "in");
    b.connect(down, "out", snk, "in");
    let g = b.build().unwrap();
    run_compiled(&g, 1);
    let expected: Vec<f64> = reference::pattern_frame(dim.w, dim.h, 0)
        .into_iter()
        .flatten()
        .collect();
    assert_eq!(h.frames()[0], expected);
}

#[test]
fn motion_search_budget_exceptions_only_under_optimistic_budget() {
    let build = |budget: u64| {
        let dim = Dim2::new(20, 12);
        let mut b = GraphBuilder::new();
        let src = b.add_source("Input", k::pattern_source(dim), dim, 50.0);
        let ms = b.add("MS", k::motion_search(0.5, budget));
        let (sdef, h) = k::sink();
        let snk = b.add("Out", sdef);
        b.connect(src, "out", ms, "in");
        b.connect(ms, "out", snk, "in");
        (b.build().unwrap(), h)
    };
    let mut outputs = Vec::new();
    let mut overruns = Vec::new();
    for budget in [9u64, 1] {
        let (g, h) = build(budget);
        let c = compile(&g, &CompileOptions::default()).unwrap();
        let report = TimedSimulator::new(&c.graph, &c.mapping, SimConfig::new(2))
            .unwrap()
            .run()
            .unwrap();
        outputs.push(h.frames());
        overruns.push(report.total_budget_overruns());
    }
    assert_eq!(outputs[0], outputs[1], "budget must not change results");
    assert_eq!(overruns[0], 0, "worst-case budget is exception-free");
    assert!(overruns[1] > 0, "optimistic budget raises exceptions");
}

#[test]
fn strided_buffer_feeds_motion_search() {
    // The motion search uses a (6x6)[2,2] window: the buffer must stride
    // by 2 in both dimensions and still be bit-exact.
    let dim = Dim2::new(12, 8);
    let def = k::buffer(Dim2::ONE, Dim2::new(6, 6), Step2::new(2, 2), dim);
    assert_eq!(def.spec.outputs[0].step, Step2::new(2, 2));
    let mut b = GraphBuilder::new();
    let src = b.add_source("Input", k::pattern_source(dim), dim, 20.0);
    let ms = b.add("MS", k::motion_search(-1.0, 9));
    let (sdef, h) = k::sink();
    let snk = b.add("Out", sdef);
    b.connect(src, "out", ms, "in");
    b.connect(ms, "out", snk, "in");
    let g = b.build().unwrap();
    run_compiled(&g, 1);
    // (12-6)/2+1 = 4 by (8-6)/2+1 = 2 iterations.
    assert_eq!(h.frames()[0].len(), 8);
    // Every SAD is the minimum over nine candidates; with the exhaustive
    // (negative) threshold the self-match guarantees 0.
    assert!(h.frames()[0].iter().all(|&v| v == 0.0));
}

#[test]
fn fir_requires_tileable_decimation() {
    // 70-8 = 62 is not divisible by 4: the app constructor rejects it.
    let result = std::panic::catch_unwind(|| apps::fir_radio(70, 100.0));
    assert!(result.is_err());
}

#[test]
fn window_report_cycles_roundtrip() {
    // Emitter::into_parts carries the reported cost; into_items drops it.
    let def = k::motion_search(0.5, 9);
    let mut beh = (def.factory)();
    let consumed = vec![(
        0usize,
        bp_core::Item::Window(Window::filled(Dim2::new(6, 6), 1.0)),
    )];
    let data = bp_core::FireData::new(&def.spec, &consumed);
    let mut out = bp_core::Emitter::new(&def.spec);
    beh.fire(0, &data, &mut out);
    let (items, cycles) = out.into_parts();
    assert_eq!(items.len(), 1);
    assert!(cycles.is_some());
}

#[test]
fn stereo_diff_with_two_sources_matches_golden() {
    let dim = Dim2::new(12, 8);
    let app = apps::stereo_diff(dim, 40.0);
    let c = compile(&app.graph, &CompileOptions::default()).unwrap();
    let mut ex = FunctionalExecutor::new(&c.graph).unwrap();
    ex.run_frames(2).unwrap();
    assert_eq!(ex.residual_items(), 0);
    for f in 0..2u32 {
        let diff: Vec<Vec<f64>> = (0..dim.h)
            .map(|y| {
                (0..dim.w)
                    .map(|x| {
                        let l = reference::pattern_pixel(f, x, y);
                        let r = l * 0.5 + 7.0;
                        (l - r).abs()
                    })
                    .collect()
            })
            .collect();
        let expected = reference::histogram(&diff, &reference::uniform_uppers(16, 0.0, 160.0));
        assert_eq!(app.sinks[0].1.frames()[f as usize], expected, "frame {f}");
    }
}

#[test]
fn stereo_diff_timed_simulation_paces_both_sources() {
    let dim = Dim2::new(12, 8);
    let app = apps::stereo_diff(dim, 40.0);
    let c = compile(&app.graph, &CompileOptions::default()).unwrap();
    let report = TimedSimulator::new(&c.graph, &c.mapping, SimConfig::new(3))
        .unwrap()
        .run()
        .unwrap();
    assert!(report.verdict.met, "{:?}", report.verdict);
    assert_eq!(report.frames_completed, 3);
    // The diff kernel pairs items from both sources; with identical pacing
    // its input queues stay shallow.
    let g = &c.graph;
    let diff = g.find_node("Diff").unwrap();
    assert!(
        report.node_max_queue[diff.0] <= 4,
        "queue {:?}",
        report.node_max_queue[diff.0]
    );
}

#[test]
fn queue_depth_observability_reflects_backlog() {
    // The conv behind a buffer accumulates a within-frame backlog that the
    // channel slack absorbs (see SimConfig docs); the report exposes it.
    let app = apps::parallel_buffer_test(Dim2::new(64, 12), 20.0);
    let c = compile(&app.graph, &CompileOptions::default()).unwrap();
    let report = TimedSimulator::new(&c.graph, &c.mapping, SimConfig::new(2))
        .unwrap()
        .run()
        .unwrap();
    assert!(report.verdict.met);
    let max = report.node_max_queue.iter().max().copied().unwrap_or(0);
    assert!(max > 1, "some backlog must be visible");
    assert!(
        max <= 64,
        "never beyond the configured capacity + burst slack"
    );
}
