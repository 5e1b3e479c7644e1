//! The traced run: the per-layer ledger, measured from outside.
//!
//! Every number here comes from timing or counting calls into the public
//! functions of `bp-compiler`, `bp-codegen`, `bp-sim`, `bp-metrics` and
//! `bp-serve`; no library code is instrumented. Spans are recorded around
//! each call ([`Spans`]) and written once at the end; every ratio comes
//! from interleaved pairs ([`paired_ratio`]). Metrics of a layer that a
//! workload does not call read 0.

use crate::alloc::{counting, AllocCount};
use crate::spans::Spans;
use crate::stats::{median, paired_ratio, percentile, Ratio};
use crate::workload::{fleet, Case, Oracle, Ran, Ready, SimCase, THREADS};
use crate::{per_layer_metrics, Outcome, RunOptions, KERNEL_KINDS, MIN_OPS};
use bp_compiler::{
    align, analyze, compile, derive_capacities, fuse_pipelines, insert_buffers, map, parallelize,
    to_dot, CompileOptions,
};
use bp_core::graph::AppGraph;
use bp_core::machine::Mapping;
use bp_serve::{generate, LoadPlan, TenantSpec};
use bp_sim::{ParallelRunStats, SimConfig, SteppableSim, SyncMode, TraceOptions};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// The compiler passes in `compile`'s order, as span names. The metric of
/// each is its name with `_ms` appended.
const PASSES: [&str; 7] = [
    "compiler.align",
    "compiler.buffering",
    "compiler.parallelize",
    "compiler.fuse",
    "compiler.dataflow",
    "compiler.map",
    "compiler.capacities",
];

/// Per-layer values collected during the traced run.
struct Ledger {
    values: BTreeMap<String, f64>,
}

impl Ledger {
    fn new() -> Self {
        let mut values = BTreeMap::new();
        for (name, _) in per_layer_metrics() {
            values.insert(name, 0.0);
        }
        Self { values }
    }

    fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    fn ratio(&mut self, name: &str, r: Ratio, out: &mut Outcome) {
        self.set(name, r.median);
        self.set(&format!("{name}.q1"), r.q1);
        self.set(&format!("{name}.q3"), r.q3);
        // Every side is one checked operation.
        out.attempted += r.sides as u64;
        out.failed += r.failed as u64;
        out.notes.push(format!(
            "{name}: median {:.4} (q1 {:.4}, q3 {:.4}) over {} pairs",
            r.median, r.q1, r.q3, r.pairs
        ));
    }

    fn kernels(&mut self, graph: &AppGraph, firings: &[u64]) {
        for ((_, node), n) in graph.nodes().zip(firings) {
            let kind = node.spec().kind.as_str();
            let kind = if KERNEL_KINDS.contains(&kind) {
                kind
            } else {
                "other"
            };
            *self
                .values
                .entry(format!("kernels.firings.{kind}"))
                .or_insert(0.0) += *n as f64;
        }
    }
}

/// Run the traced ledger for one workload, recording spans into `spans`.
pub fn traced(run: &RunOptions, case: &Case, oracle: &Oracle, spans: &mut Spans) -> Outcome {
    let mut out = Outcome::default();
    let mut ledger = Ledger::new();
    let start = Instant::now();
    match case {
        Case::Sim(c) => traced_sim(run, c, oracle, spans, &mut ledger, &mut out),
        Case::Serve(plan) => traced_serve(run, plan, oracle, spans, &mut ledger, &mut out),
    }
    out.notes.push(format!(
        "traced run took {:.2} s",
        start.elapsed().as_secs_f64()
    ));
    let mut selfs: Vec<(&str, f64)> = spans.self_times_ms().into_iter().collect();
    selfs.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (name, ms) in selfs {
        out.notes.push(format!("self time {ms:>12.3} ms  {name}"));
    }
    out.set_metrics(&per_layer_metrics(), &ledger.values);
    out
}

/// The compiler's output as far as the benchmark compares it.
struct Replayed {
    graph: AppGraph,
    mapping: Mapping,
}

impl Replayed {
    fn same_as(&self, graph: &AppGraph, mapping: &Mapping) -> Result<(), String> {
        if to_dot(&self.graph) != to_dot(graph) || self.mapping != *mapping {
            return Err("pass-by-pass compile differs from compile()".into());
        }
        Ok(())
    }
}

/// Call the compiler passes one by one, in `compile`'s order, each inside
/// its own span.
fn replay_compile(
    s: &mut Spans,
    graph: &AppGraph,
    opts: &CompileOptions,
) -> bp_core::Result<Replayed> {
    let mut g = graph.clone();
    g.validate()?;
    s.record(PASSES[0], |_| align(&mut g, opts.align))?;
    s.record(PASSES[1], |_| insert_buffers(&mut g))?;
    s.record(PASSES[2], |_| parallelize(&mut g, &opts.machine))?;
    if opts.fuse {
        s.record(PASSES[3], |_| fuse_pipelines(&mut g))?;
    }
    let dataflow = s.record(PASSES[4], |_| analyze(&g))?;
    let mapping = s.record(PASSES[5], |_| {
        map(&g, &dataflow, &opts.machine, opts.mapping)
    });
    s.record(PASSES[6], |_| derive_capacities(&g));
    Ok(Replayed { graph: g, mapping })
}

/// What the ledger needs from one traced operation.
struct TracedOp {
    run_s: f64,
    allocs: AllocCount,
    ran: Ran,
}

/// What a ratio side asks the engine for.
#[derive(Clone, Copy)]
enum Artifact {
    /// The report.
    Report,
    /// The report, with the run step recorded in a span and its
    /// allocations counted, as the traced operations run it.
    Spanned,
    /// The report and a trace.
    Trace,
    /// The report and a metrics tape.
    Metrics,
}

fn traced_sim(
    run: &RunOptions,
    c: &SimCase,
    oracle: &Oracle,
    spans: &mut Spans,
    ledger: &mut Ledger,
    out: &mut Outcome,
) {
    // Operation 0: the reference compile and the exact event count.
    spans.set_op(0);
    let prepared = spans.record("prepare", |s| {
        let compiled = s
            .record("compiler.compile", |_| compile(&c.graph, &c.opts))
            .map_err(|e| e.to_string())?;
        let program = s
            .record("codegen.lower", |_| {
                bp_codegen::lower_graph(&compiled.graph)
            })
            .map_err(|e| e.to_string())?;
        let config = c.config.clone().with_lowered(Arc::new(program));
        let events = s.record("sim.stepped", |_| {
            stepped_events(&compiled.graph, &compiled.mapping, config.clone(), oracle)
        })?;
        Ok((compiled, config, events))
    });
    let Some((compiled, config, events)) = out.attempt("stepped reference run", prepared) else {
        return;
    };
    ledger.set("compiler.nodes", compiled.graph.node_count() as f64);
    ledger.set("compiler.pes", compiled.mapping.num_pes as f64);
    ledger.set("sim.events", events as f64);

    // Operations 1..: set-up pass by pass, run step, check.
    let ops: Vec<u64> = (1..=MIN_OPS as u64).collect();
    let mut samples = Vec::new();
    for &op in &ops {
        spans.set_op(op);
        let result = spans.record("op", |s| {
            let (replayed, ready) = s
                .record("setup", |s| {
                    let r = replay_compile(s, &c.graph, &c.opts)?;
                    let program =
                        s.record("codegen.lower", |_| bp_codegen::lower_graph(&r.graph))?;
                    let config = c.config.clone().with_lowered(Arc::new(program));
                    let ready = s.record("sim.instantiate", |_| {
                        c.instantiate(&r.graph, &r.mapping, config, c.threads)
                    })?;
                    Ok::<_, bp_core::BpError>((r, ready))
                })
                .map_err(|e| e.to_string())?;
            let t = Instant::now();
            let (ran, allocs) = s.record("sim.run", |_| counting(|| ready.run()));
            let run_s = t.elapsed().as_secs_f64();
            let ran = ran.map_err(|e| e.to_string())?;
            s.record("check", |_| {
                replayed.same_as(&compiled.graph, &compiled.mapping)?;
                oracle.check(&ran)
            })?;
            Ok(TracedOp { run_s, allocs, ran })
        });
        if let Some(sample) = out.attempt("traced operation", result) {
            samples.push(sample);
        }
    }
    let Some(last) = samples.last() else {
        return;
    };
    for pass in PASSES {
        ledger.set(&format!("{pass}_ms"), median(&spans.per_op_ms(pass, &ops)));
    }
    ledger.set(
        "codegen.lower_ms",
        median(&spans.per_op_ms("codegen.lower", &ops)),
    );
    ledger.set(
        "sim.instantiate_ms",
        median(&spans.per_op_ms("sim.instantiate", &ops)),
    );
    run_step_metrics(ledger, &samples, events);
    if let Ran::Sim { report, stats } = &last.ran {
        ledger.kernels(&compiled.graph, &report.node_firings);
        if let Some(st) = stats {
            ledger.set("par.shards", st.shards as f64);
            ledger.set("par.windows", st.windows as f64);
            let n = st.shard_events.len().max(1) as f64;
            let mean = st.shard_events.iter().sum::<u64>() as f64 / n;
            let max = st.shard_events.iter().copied().max().unwrap_or(0) as f64;
            ledger.set("par.shard_skew", if mean > 0.0 { max / mean } else { 1.0 });
        }
    }

    // Ratios, each from interleaved pairs of untraced run steps; their
    // spans belong to operation 0 with the preparation.
    spans.set_op(0);
    let parallel = c.threads > 1;
    let n_ratios = if parallel { 5 } else { 3 };
    let budget = run.duration() / n_ratios;
    let (graph, mapping) = (&compiled.graph, &compiled.mapping);
    let side = |config: &SimConfig, threads: usize, artifact: Artifact| {
        let config = config.clone();
        move || timed_sim_side(c, graph, mapping, &config, threads, artifact, oracle).map(|r| r.0)
    };
    let traced_config = config.clone().with_trace(TraceOptions::default());
    let metrics_config = config.clone().with_metrics(bp_sim::MetricsPolicy::new());
    let r = spans.record("ratio.trace", |_| {
        paired_ratio(
            budget,
            side(&traced_config, c.threads, Artifact::Trace),
            side(&config, c.threads, Artifact::Report),
        )
    });
    ledger.ratio("sim.trace_overhead_ratio", r, out);
    let r = spans.record("ratio.metrics", |_| {
        paired_ratio(
            budget,
            side(&metrics_config, c.threads, Artifact::Metrics),
            side(&config, c.threads, Artifact::Report),
        )
    });
    ledger.ratio("metrics.overhead_ratio", r, out);
    let r = spans.record("ratio.bench", |_| {
        paired_ratio(
            budget,
            side(&config, c.threads, Artifact::Spanned),
            side(&config, c.threads, Artifact::Report),
        )
    });
    ledger.ratio("bench.overhead_ratio", r, out);
    if parallel {
        let r = spans.record("ratio.speedup", |_| {
            paired_ratio(
                budget,
                side(&config, 1, Artifact::Report),
                side(&config, c.threads, Artifact::Report),
            )
        });
        ledger.ratio("par.speedup_vs_seq", r, out);
        let optimistic = config.clone().with_sync(SyncMode::Optimistic);
        let mut rollbacks = 0u64;
        let r = spans.record("ratio.optimistic", |_| {
            paired_ratio(budget, side(&config, c.threads, Artifact::Report), || {
                let (secs, stats) = timed_sim_side(
                    c,
                    graph,
                    mapping,
                    &optimistic,
                    c.threads,
                    Artifact::Report,
                    oracle,
                )?;
                let rolled = stats.map_or(0, |st| st.sync_counters.rollbacks);
                rollbacks = rollbacks.max(rolled);
                Ok(secs)
            })
        });
        ledger.ratio("par.optimistic_ratio", r, out);
        ledger.set("par.rollbacks", rollbacks as f64);
    }
}

/// Run the compiled graph through `SteppableSim` and return the exact
/// number of events it processed, checking its report against the oracle.
fn stepped_events(
    graph: &AppGraph,
    mapping: &Mapping,
    config: SimConfig,
    oracle: &Oracle,
) -> Result<u64, String> {
    let mut sim = SteppableSim::new(graph, mapping, config).map_err(|e| e.to_string())?;
    while !sim.is_done() {
        sim.step(1 << 16);
    }
    let events = sim.events_processed();
    let (report, _) = sim.finish_report().map_err(|e| e.to_string())?;
    oracle.check_report(&report)?;
    Ok(events)
}

/// Set the run-step metrics every workload shares from the traced
/// operations, and return the median run-step seconds.
fn run_step_metrics(ledger: &mut Ledger, samples: &[TracedOp], events: u64) -> f64 {
    let med = |f: fn(&TracedOp) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    let run_s = med(|x| x.run_s);
    let firings = samples.last().map_or(0, |x| x.ran.firings()) as f64;
    ledger.set("sim.firings", firings);
    ledger.set("sim.ns_per_event", run_s * 1e9 / events.max(1) as f64);
    ledger.set(
        "sim.allocs_per_firing",
        med(|x| x.allocs.allocs as f64) / firings.max(1.0),
    );
    ledger.set("sim.alloc_bytes", med(|x| x.allocs.bytes as f64));
    ledger.set("bench.traced_firings_per_s", firings / run_s);
    run_s
}

/// One ratio side: instantiate (untimed), time the run step, check.
/// Returns the seconds and, from the parallel engine's plain run, its
/// schedule stats.
fn timed_sim_side(
    c: &SimCase,
    graph: &AppGraph,
    mapping: &Mapping,
    config: &SimConfig,
    threads: usize,
    artifact: Artifact,
    oracle: &Oracle,
) -> Result<(f64, Option<ParallelRunStats>), String> {
    let ready = c
        .instantiate(graph, mapping, config.clone(), threads)
        .map_err(|e| e.to_string())?;
    let mut scratch = Spans::new();
    let t = Instant::now();
    let ran: bp_core::Result<Ran> = match (ready, artifact) {
        (ready, Artifact::Report) => ready.run(),
        (ready, Artifact::Spanned) => scratch.record("sim.run", |_| counting(|| ready.run())).0,
        (Ready::Seq(sim), Artifact::Trace) => sim.run_with_trace().map(|r| r.0.into()),
        (Ready::Seq(sim), Artifact::Metrics) => sim.run_with_metrics().map(|r| r.0.into()),
        (Ready::Par(sim), Artifact::Trace) => sim.run_with_trace().map(|r| r.0.into()),
        (Ready::Par(sim), Artifact::Metrics) => sim.run_with_metrics().map(|r| r.0.into()),
        (Ready::Serve(_), _) => return Err("fleet host in a simulator ratio".into()),
    };
    let secs = t.elapsed().as_secs_f64();
    match ran.map_err(|e| e.to_string())? {
        Ran::Sim { report, stats } => {
            oracle.check_report(&report)?;
            Ok((secs, stats))
        }
        Ran::Serve(_) => Err("fleet report from a simulator run".into()),
    }
}

/// Rebuild a generated tenant's uncompiled app from its name and input
/// rate, so its compile can be replayed pass by pass. Mirrors the app
/// table of `bp_serve::generate`; a tenant it cannot rebuild fails the
/// replay check.
fn tenant_app(spec: &TenantSpec) -> Option<AppGraph> {
    let src = spec.graph.sources().first()?;
    let app = match spec.name.split('-').next()? {
        "camera" => bp_apps::apps::camera_bank(2, src.frame, src.rate_hz),
        "fig1b" => bp_apps::apps::fig1b(src.frame, src.rate_hz),
        "iir" => bp_apps::apps::temporal_iir(src.frame, src.rate_hz),
        _ => return None,
    };
    Some(app.graph)
}

fn traced_serve(
    run: &RunOptions,
    plan: &LoadPlan,
    oracle: &Oracle,
    spans: &mut Spans,
    ledger: &mut Ledger,
    out: &mut Outcome,
) {
    // Operation 0: every tenant's compile replayed pass by pass, one
    // lowering per distinct shape, and every tenant's instantiation; summed,
    // these are the compiler, codegen and instantiation work of one fleet.
    spans.set_op(0);
    let Some(specs) = out.attempt(
        "load generation",
        spans.record("serve.generate", |_| {
            generate(plan).map_err(|e| e.to_string())
        }),
    ) else {
        return;
    };
    let opts = CompileOptions::default();
    let replay = spans.record("compiler.replay", |s| {
        for spec in &specs {
            let app = tenant_app(spec).ok_or_else(|| format!("cannot rebuild {}", spec.name))?;
            replay_compile(s, &app, &opts)
                .map_err(|e| e.to_string())?
                .same_as(&spec.graph, &spec.mapping)
                .map_err(|e| format!("{}: {e}", spec.name))?;
        }
        Ok(())
    });
    out.attempt("pass-by-pass compile of every tenant", replay);
    let lowered = spans.record("codegen.shapes", |s| {
        let mut programs = BTreeMap::new();
        for spec in &specs {
            if let Entry::Vacant(slot) = programs.entry(bp_codegen::shape_key(&spec.graph)) {
                let p = s.record("codegen.lower", |_| bp_codegen::lower_graph(&spec.graph))?;
                slot.insert(Arc::new(p));
            }
        }
        for spec in &specs {
            let program = programs[&bp_codegen::shape_key(&spec.graph)].clone();
            let config = spec.config.clone().with_lowered(program);
            s.record("sim.instantiate", |_| {
                SteppableSim::new(&spec.graph, &spec.mapping, config)
            })?;
        }
        Ok::<_, bp_core::BpError>(())
    });
    out.attempt(
        "lowering and instantiation",
        lowered.map_err(|e| e.to_string()),
    );
    for pass in PASSES {
        ledger.set(&format!("{pass}_ms"), spans.per_op_ms(pass, &[0])[0]);
    }
    ledger.set(
        "codegen.lower_ms",
        spans.per_op_ms("codegen.lower", &[0])[0],
    );
    ledger.set(
        "sim.instantiate_ms",
        spans.per_op_ms("sim.instantiate", &[0])[0],
    );
    ledger.set(
        "compiler.nodes",
        specs.iter().map(|s| s.graph.node_count()).sum::<usize>() as f64,
    );
    ledger.set(
        "compiler.pes",
        specs.iter().map(|s| s.mapping.num_pes).sum::<usize>() as f64,
    );

    // Operations 1..: generate, enqueue, run, check.
    let ops: Vec<u64> = (1..=MIN_OPS as u64).collect();
    let mut samples = Vec::new();
    for &op in &ops {
        spans.set_op(op);
        let result = spans.record("op", |s| {
            let host = s.record("setup", |s| {
                let specs = s.record("serve.generate", |_| generate(plan))?;
                Ok::<_, bp_core::BpError>(s.record("serve.enqueue", |_| fleet(specs, THREADS)))
            });
            let host = host.map_err(|e| e.to_string())?;
            let t = Instant::now();
            let (ran, allocs) = s.record("serve.run", |_| counting(|| Ready::Serve(host).run()));
            let run_s = t.elapsed().as_secs_f64();
            let ran = ran.map_err(|e| e.to_string())?;
            s.record("check", |_| oracle.check(&ran))?;
            Ok(TracedOp { run_s, allocs, ran })
        });
        if let Some(sample) = out.attempt("traced operation", result) {
            samples.push(sample);
        }
    }
    let Some(TracedOp {
        ran: Ran::Serve(report),
        ..
    }) = samples.last()
    else {
        return;
    };
    let events = report.total_events();
    ledger.set("sim.events", events as f64);
    let run_s = run_step_metrics(ledger, &samples, events);
    ledger.set(
        "serve.generate_ms",
        median(&spans.per_op_ms("serve.generate", &ops)),
    );
    let cache = report.cache;
    ledger.set("serve.cache_hits", cache.hits as f64);
    ledger.set("serve.cache_misses", cache.misses as f64);
    ledger.set(
        "serve.cache_hit_ratio",
        cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
    );
    ledger.set("serve.rounds", report.rounds as f64);
    ledger.set("serve.round_us", run_s * 1e6 / report.rounds.max(1) as f64);
    let turnaround: Vec<f64> = report
        .tenants
        .iter()
        .map(|t| (t.finished_round - t.admitted_round) as f64)
        .collect();
    ledger.set("serve.turnaround_rounds_p99", percentile(&turnaround, 99.0));
    ledger.set("serve.shed", report.admission.shed as f64);
    let by_name: BTreeMap<&str, &TenantSpec> = specs.iter().map(|s| (s.name.as_str(), s)).collect();
    for t in &report.tenants {
        if let Some(spec) = by_name.get(t.name.as_str()) {
            ledger.kernels(&spec.graph, &t.report.node_firings);
        }
    }

    // Ratios from interleaved pairs of untraced fleet runs.
    spans.set_op(0);
    let budget = run.duration() / 3;
    let bare_plan = LoadPlan {
        metrics: false,
        qos: false,
        ..*plan
    };
    let Some(bare) = out.attempt(
        "load generation without metrics",
        generate(&bare_plan).map_err(|e| e.to_string()),
    ) else {
        return;
    };
    let fleet_side = |specs: &[TenantSpec], workers: usize, tapes: bool, traced: bool| {
        let host = fleet(specs.to_vec(), workers);
        let t = Instant::now();
        let report = if traced {
            let mut scratch = Spans::new();
            scratch
                .record("serve.run", |_| counting(|| Ready::Serve(host).run()))
                .0
        } else {
            Ready::Serve(host).run()
        };
        let secs = t.elapsed().as_secs_f64();
        match report.map_err(|e| e.to_string())? {
            Ran::Serve(r) => oracle.check_fleet(&r, tapes)?,
            Ran::Sim { .. } => return Err("simulator report from a fleet run".into()),
        }
        Ok(secs)
    };
    let r = spans.record("ratio.metrics", |_| {
        paired_ratio(
            budget,
            || fleet_side(&specs, THREADS, true, false),
            || fleet_side(&bare, THREADS, false, false),
        )
    });
    ledger.ratio("metrics.overhead_ratio", r, out);
    let r = spans.record("ratio.serve", |_| {
        paired_ratio(
            budget,
            || fleet_side(&specs, 1, true, false),
            || {
                let t = Instant::now();
                let solo = Oracle::solo(&specs);
                let secs = t.elapsed().as_secs_f64();
                if solo.map_err(|e| e.to_string())? != *oracle {
                    return Err("solo runs differ from the oracle".into());
                }
                Ok(secs)
            },
        )
    });
    ledger.ratio("serve.overhead_ratio", r, out);
    let r = spans.record("ratio.bench", |_| {
        paired_ratio(
            budget,
            || fleet_side(&specs, THREADS, true, true),
            || fleet_side(&specs, THREADS, true, false),
        )
    });
    ledger.ratio("bench.overhead_ratio", r, out);
}
