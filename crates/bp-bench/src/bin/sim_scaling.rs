//! E-perf — thread-scaling study of the sharded parallel timed simulator
//! (DESIGN.md §9, §17) on a machine with many independent PE regions.
//!
//! The workload is `camera_bank(8, ...)`: eight disjoint camera pipelines
//! mapped one-to-one, giving a 384-PE machine (96 in `--smoke`) whose
//! mapped channel graph has eight weakly connected components — the shape
//! the sharded engine parallelizes. The sweep covers both synchronization
//! modes (`conservative` lookahead windows and `optimistic` Time Warp)
//! at each worker count in {1, 2, 4, 8}, records median wall time, and
//! asserts the `SimReport` fingerprint is identical across *every* point
//! (the engine's core guarantee — sync mode included), then splices a
//! `"sim_scaling"` object into `BENCH_sim.json` (schema `bench_sim/v8`,
//! see EXPERIMENTS.md).
//!
//! Flags: `--threads N` caps the sweep at N workers; `--smoke` runs a
//! fast configuration and skips the JSON splice (used by CI to exercise
//! the parallel engine end to end); `--assert-optimistic-speedup` fails
//! the run unless some optimistic point is at least as fast as the
//! conservative point at the same thread count (a 1.0x non-regression
//! floor that holds even on single-core hosts).

use bp_bench::{extract_number, extract_object};
use bp_compiler::{compile, CompileOptions, MappingKind};
use bp_sim::{ParallelTimedSimulator, SimConfig, SyncMode};
use std::fmt::Write as _;
use std::time::Instant;

/// Camera pipelines in the bank; one weakly connected component each.
const CAMERAS: usize = 8;

/// `--assert-optimistic-speedup` floor: at some thread count the
/// optimistic sweep's best sample must beat (or match) the conservative
/// sweep's worst sample. A non-regression gate rather than an
/// absolute-speedup gate so it holds on 1-core CI hosts, where no
/// parallel configuration can beat the sequential baseline and the two
/// modes do identical committed work; comparing best-vs-worst samples
/// keeps shared-runner noise from flapping it while still catching the
/// failure it exists for — speculation runaway (rollback/anti-message
/// storms) costing integer factors of wall time. The real multi-core
/// speedup curve is what the regenerated `sim_scaling` block records.
const SPEEDUP_FLOOR: f64 = 1.0;

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

struct SweepPoint {
    sync: SyncMode,
    threads: usize,
    shards: usize,
    wall_ms_median: f64,
    wall_ms_min: f64,
    wall_ms_max: f64,
    rollbacks: u64,
}

fn sync_name(sync: SyncMode) -> &'static str {
    match sync {
        SyncMode::Conservative => "conservative",
        SyncMode::Optimistic => "optimistic",
    }
}

fn main() {
    let mut out_path = "BENCH_sim.json".to_string();
    let mut max_threads = 8usize;
    let mut smoke = false;
    let mut assert_speedup = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--threads" => {
                max_threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--threads needs a positive integer");
            }
            "--smoke" => smoke = true,
            "--assert-optimistic-speedup" => assert_speedup = true,
            other => out_path = other.to_string(),
        }
    }
    // Smoke still takes 7 samples per point: the non-regression gate
    // compares best-vs-worst samples, and a wider envelope is what keeps
    // scheduler noise on shared 1-core runners from flapping it.
    let (frames, samples, dim, rate) = if smoke {
        (2u32, 7usize, bp_apps::SMALL, bp_apps::SLOW)
    } else {
        (4u32, 9usize, bp_apps::BIG, bp_apps::FAST)
    };

    let app = bp_apps::camera_bank(CAMERAS, dim, rate);
    let opts = CompileOptions {
        mapping: MappingKind::OneToOne,
        ..Default::default()
    };
    let compiled = compile(&app.graph, &opts).expect("compile camera_bank");
    assert!(
        compiled.mapping.num_pes >= 64,
        "scaling study needs a >=64-PE machine, got {}",
        compiled.mapping.num_pes
    );
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "camera_bank x{CAMERAS} {}x{} @ {rate} Hz: {} PEs, {} frames, \
         {samples} samples/point, {cores} core(s) available",
        dim.w, dim.h, compiled.mapping.num_pes, frames
    );

    let mut fingerprint: Option<u64> = None;
    let mut points: Vec<SweepPoint> = Vec::new();
    for sync in [SyncMode::Conservative, SyncMode::Optimistic] {
        for threads in [1usize, 2, 4, 8] {
            if threads > max_threads {
                break;
            }
            if sync == SyncMode::Optimistic && threads == 1 {
                // The 1-thread path is the sequential fallback in either
                // mode; the conservative sweep already measured it.
                continue;
            }
            let config = SimConfig::new(frames)
                .with_machine(opts.machine)
                .with_sync(sync);
            let mut walls = Vec::with_capacity(samples);
            let mut shards = 0usize;
            let mut rollbacks = 0u64;
            for s in 0..samples + 2 {
                let sim = ParallelTimedSimulator::new(
                    &compiled.graph,
                    &compiled.mapping,
                    config.clone(),
                    threads,
                )
                .expect("instantiate");
                shards = sim.num_shards();
                let t0 = Instant::now();
                let (report, _, stats) = sim.run_with_stats().expect("run");
                let wall = t0.elapsed().as_secs_f64();
                rollbacks = stats.sync_counters.rollbacks;
                let fp = report.fingerprint();
                match fingerprint {
                    None => fingerprint = Some(fp),
                    Some(want) => assert_eq!(
                        fp,
                        want,
                        "SimReport diverged at {threads} threads ({}) — parallel \
                         engine is not bitwise deterministic",
                        sync_name(sync)
                    ),
                }
                if s >= 2 {
                    walls.push(wall * 1e3); // first two samples are warm-up
                }
            }
            let wall_ms_min = walls.iter().cloned().fold(f64::INFINITY, f64::min);
            let wall_ms_max = walls.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let wall_ms_median = median(walls);
            let speedup = points
                .first()
                .map(|p| p.wall_ms_median / wall_ms_median)
                .unwrap_or(1.0);
            println!(
                "  {} {threads} thread(s): {shards} shard(s), median \
                 {wall_ms_median:.3} ms ({speedup:.2}x vs 1 thread, \
                 {rollbacks} rollback(s))",
                sync_name(sync)
            );
            points.push(SweepPoint {
                sync,
                threads,
                shards,
                wall_ms_median,
                wall_ms_min,
                wall_ms_max,
                rollbacks,
            });
        }
    }
    let fingerprint = fingerprint.expect("at least one sweep point");
    println!("report fingerprint identical across all sweep points: {fingerprint:#018x}");

    let base = points[0].wall_ms_median;
    if assert_speedup {
        let best = points
            .iter()
            .filter(|p| p.sync == SyncMode::Optimistic)
            .filter_map(|p| {
                points
                    .iter()
                    .find(|c| c.sync == SyncMode::Conservative && c.threads == p.threads)
                    .map(|c| c.wall_ms_max / p.wall_ms_min)
            })
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            best >= SPEEDUP_FLOOR,
            "optimistic sync regressed below the {SPEEDUP_FLOOR:.1}x non-regression \
             floor at every thread count (best optimistic sample {best:.2}x the \
             worst same-thread conservative sample)"
        );
        println!(
            "optimistic non-regression floor met: best sample {best:.2}x vs \
             worst same-thread conservative sample"
        );
    }

    if smoke {
        println!("smoke mode: skipping {out_path} update");
        return;
    }

    let mut block = String::new();
    block.push_str("{\n");
    let _ = writeln!(
        block,
        "    \"app\": \"camera_bank\", \"cameras\": {CAMERAS}, \"dim\": \"{}x{}\", \
         \"rate_hz\": {rate:.1}, \"frames\": {frames}, \"samples\": {samples}, \
         \"num_pes\": {}, \"cores_available\": {cores},",
        dim.w, dim.h, compiled.mapping.num_pes
    );
    let _ = writeln!(block, "    \"fingerprint\": \"{fingerprint:#018x}\",");
    block.push_str("    \"threads\": [\n");
    for (i, p) in points.iter().enumerate() {
        let _ = writeln!(
            block,
            "      {{ \"sync\": \"{}\", \"threads\": {}, \"shards\": {}, \
             \"wall_ms_median\": {:.3}, \"speedup_vs_1_thread\": {:.3}, \
             \"rollbacks\": {} }}{}",
            sync_name(p.sync),
            p.threads,
            p.shards,
            p.wall_ms_median,
            base / p.wall_ms_median,
            p.rollbacks,
            if i + 1 < points.len() { "," } else { "" }
        );
    }
    block.push_str("    ]\n  }");

    // Splice the block into BENCH_sim.json, replacing any previous one.
    let src = std::fs::read_to_string(&out_path)
        .unwrap_or_else(|e| panic!("{out_path}: {e} — run bench_json first"));
    let out = match extract_object(&src, "sim_scaling") {
        Some(old) => src.replacen(&old, &block, 1),
        None => {
            let anchor = "  \"timed_speedup_vs_baseline\"";
            let at = src.find(anchor).expect("bench_sim schema anchor");
            format!("{}  \"sim_scaling\": {block},\n{}", &src[..at], &src[at..])
        }
    };
    // Sanity: the spliced file still parses for the keys we care about.
    assert!(extract_number(&out, "cores_available").is_some());
    std::fs::write(&out_path, &out).expect("write BENCH_sim.json");
    println!("wrote sim_scaling block into {out_path}");
}
