//! End-to-end and per-layer benchmark of the block-parallel compiler,
//! simulators and fleet host.
//!
//! One run measures one workload ([`workload`]) for a fixed number of
//! seconds and checks every operation against an oracle. The untraced run
//! ([`end_to_end`]) reports what a user waits on; the traced run
//! ([`traced::traced`]) times each layer from outside, through its public
//! functions, and writes the spans as Chrome trace-event JSON. See
//! `README.md` for the metrics and what each should move.

#![warn(missing_docs)]

pub mod alloc;
pub mod spans;
pub mod stats;
pub mod traced;
pub mod workload;

use stats::median;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use workload::{Case, Oracle, Size, Workload};

/// The end-to-end metrics of the untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 3] = [
    ("firings_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Kernel kinds with their own firing-count metric; firings of any other
/// kind are counted under `kernels.firings.other`.
pub const KERNEL_KINDS: [&str; 20] = [
    "add",
    "bins",
    "buffer",
    "coeff",
    "conv2d",
    "feedback",
    "histogram",
    "inset",
    "join_cols",
    "join_rr",
    "median",
    "merge",
    "replicate",
    "scale",
    "sink",
    "source",
    "split_cols",
    "split_rr",
    "subtract",
    "other",
];

/// Ratio metrics, each reported with `.q1` and `.q3` companions.
pub const RATIOS: [&str; 6] = [
    "sim.trace_overhead_ratio",
    "par.speedup_vs_seq",
    "par.optimistic_ratio",
    "metrics.overhead_ratio",
    "serve.overhead_ratio",
    "bench.overhead_ratio",
];

/// The per-layer metrics of the traced run, excluding ratios and kernel
/// counts: `(name, unit)`.
pub const LAYER_METRICS: [(&str, &str); 29] = [
    ("compiler.align_ms", "ms"),
    ("compiler.buffering_ms", "ms"),
    ("compiler.parallelize_ms", "ms"),
    ("compiler.fuse_ms", "ms"),
    ("compiler.dataflow_ms", "ms"),
    ("compiler.map_ms", "ms"),
    ("compiler.capacities_ms", "ms"),
    ("compiler.nodes", "count"),
    ("compiler.pes", "count"),
    ("codegen.lower_ms", "ms"),
    ("sim.instantiate_ms", "ms"),
    ("sim.events", "count"),
    ("sim.firings", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.allocs_per_firing", "allocs/firing"),
    ("sim.alloc_bytes", "B"),
    ("par.shards", "count"),
    ("par.windows", "count"),
    ("par.shard_skew", "ratio"),
    ("par.rollbacks", "count"),
    ("serve.generate_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.rounds", "count"),
    ("serve.round_us", "us"),
    ("serve.turnaround_rounds_p99", "rounds"),
    ("serve.shed", "count"),
    ("bench.traced_firings_per_s", "1/s"),
];

/// Every per-layer metric of the traced run, in output order:
/// `(name, unit)`.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = LAYER_METRICS
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for r in RATIOS {
        for suffix in ["", ".q1", ".q3"] {
            out.push((format!("{r}{suffix}"), "ratio"));
        }
    }
    for k in KERNEL_KINDS {
        out.push((format!("kernels.firings.{k}"), "count"));
    }
    out
}

/// True when `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one benchmark run.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose outputs failed the oracle (or that errored).
    pub failed: u64,
    /// Problems that are not a single operation's failure, such as an
    /// invalid span file or a missing metric.
    pub problems: Vec<String>,
    /// Metrics, in declaration order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Count one operation, failed when `result` is an error.
    pub fn attempt<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: {what} failed: {e}");
                None
            }
        }
    }

    /// True when every operation passed and nothing else went wrong.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.problems.is_empty()
    }

    /// Fill `metrics` from `values` in the order of `declared`, recording a
    /// problem for a missing or non-finite value.
    pub fn set_metrics(
        &mut self,
        declared: &[(String, &'static str)],
        values: &std::collections::BTreeMap<String, f64>,
    ) {
        for (name, unit) in declared {
            match values.get(name) {
                Some(v) if v.is_finite() => self.metrics.push(Metric {
                    name: name.clone(),
                    value: *v,
                    unit,
                }),
                other => self
                    .problems
                    .push(format!("metric {name} missing or not finite: {other:?}")),
            }
        }
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Operations every run measures, whatever the time; the traced run times
/// exactly this many layer by layer.
pub const MIN_OPS: usize = 3;
/// Leading operations of the untraced run that are checked but left out of
/// its medians.
pub const WARMUP: usize = 1;

/// What one run measures.
#[derive(Clone, Copy, Debug)]
pub struct RunOptions {
    /// The workload.
    pub workload: Workload,
    /// Seed of the workload's inputs.
    pub seed: u64,
    /// Input size.
    pub size: Size,
    /// Measurement time: operations start until it has elapsed.
    pub seconds: f64,
}

impl RunOptions {
    /// The reference configuration of `workload`.
    pub fn reference(workload: Workload, seed: u64, seconds: f64) -> Self {
        Self {
            workload,
            seed,
            size: workload.reference_size(),
            seconds,
        }
    }

    /// The measurement time.
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds.max(0.0))
    }
}

/// The untraced run: set-up and run step repeat until the time is up,
/// every operation checked against `oracle`. `firings_per_s` and `setup_s`
/// are medians over the timed operations, so both sample the whole run.
/// `peak_rss_mb` is the resident peak through the first operation, the
/// warm-up, counted from a trimmed heap once the oracle is done: what a
/// process that runs the workload once holds at most.
pub fn end_to_end(run: &RunOptions, case: &Case, oracle: &Oracle) -> Outcome {
    let mut out = Outcome::default();
    let (mut rates, mut setups) = (Vec::new(), Vec::new());
    let mut peak = None;
    let reset = reset_peak_rss();
    let start = Instant::now();
    let mut op = 0;
    while op < MIN_OPS + WARMUP || start.elapsed() < run.duration() {
        let t = Instant::now();
        let ready = case.setup();
        let setup_s = t.elapsed().as_secs_f64();
        let result = ready.map_err(|e| e.to_string()).and_then(|ready| {
            let t = Instant::now();
            let ran = ready.run().map_err(|e| e.to_string())?;
            let run_s = t.elapsed().as_secs_f64();
            if op == 0 && reset {
                peak = peak_rss_mb();
            }
            oracle.check(&ran)?;
            Ok(ran.firings() as f64 / run_s)
        });
        if let Some(rate) = out.attempt("operation", result) {
            if op >= WARMUP {
                rates.push(rate);
                setups.push(setup_s);
            }
        }
        op += 1;
    }
    let mut values = std::collections::BTreeMap::new();
    values.insert("firings_per_s".to_string(), median(&rates));
    values.insert("setup_s".to_string(), median(&setups));
    if let Some(mb) = peak {
        values.insert("peak_rss_mb".to_string(), mb);
    }
    let declared: Vec<(String, &'static str)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    out.set_metrics(&declared, &values);
    out.notes.push(format!(
        "medians of {} timed operations, after {WARMUP} warm-up",
        rates.len()
    ));
    out
}

/// Return the heap's free memory to the system and reset this process's
/// resident high-water mark to its current resident size, so that a later
/// [`peak_rss_mb`] covers only what runs in between and not what earlier
/// work (such as the oracle) left resident. Linux: glibc's `malloc_trim`,
/// then `5` written to `/proc/self/clear_refs`. False where the platform
/// does not allow it.
pub fn reset_peak_rss() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::ffi::c_int;
        }
        // SAFETY: glibc's malloc_trim takes no pointers and may be called
        // at any time from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident memory of this process in MiB (`VmHWM`) since it started
/// or since the last [`reset_peak_rss`], where the platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Where a result came from, as one JSON object: core count, CPU model,
/// rustc version, commit, workload and seed. The rustc version and commit
/// come from `PERFBENCH_RUSTC` and `PERFBENCH_COMMIT`, which `run.py` sets.
pub fn provenance_json(run: &RunOptions) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"cores\": {cores}, \"cpu_model\": {}, \"rustc\": {}, \"commit\": {}, \
         \"workload\": \"{}\", \"seed\": {}, \"frames\": {}, \"tenants\": {}}}",
        json_string(&cpu),
        json_string(&env("PERFBENCH_RUSTC")),
        json_string(&env("PERFBENCH_COMMIT")),
        run.workload.name(),
        run.seed,
        run.size.frames,
        run.size.tenants
    )
}

/// `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
