//! # bp-bench — harnesses regenerating the paper's figures
//!
//! One binary per evaluation figure (`fig03` … `fig13`, see DESIGN.md §4)
//! plus Criterion micro-benchmarks for the compiler passes, the simulators
//! and the kernel library. This library crate holds the shared plumbing:
//! compiling an application, running the timed simulation, and rendering
//! the small ASCII tables/bars the binaries print.

#![warn(missing_docs)]

pub mod microbench;

use bp_apps::App;
use bp_compiler::{compile, CompileOptions, Compiled};
use bp_core::Result;
use bp_sim::{ParallelTimedSimulator, SimConfig, SimReport};

/// Mapped-PE count at and above which [`compile_and_simulate`] switches to
/// the sharded parallel timed simulator. Below it the sharding bookkeeping
/// isn't worth spinning up workers; above it the engines are
/// interchangeable because their reports are bitwise identical
/// (DESIGN.md §9).
pub const PARALLEL_PE_THRESHOLD: usize = 16;

/// Compile an application and run the timed simulator for `frames` frames.
/// Machines with at least [`PARALLEL_PE_THRESHOLD`] mapped PEs run on the
/// sharded parallel engine with one worker per available core; the report
/// is bitwise identical either way.
pub fn compile_and_simulate(
    app: &App,
    opts: &CompileOptions,
    frames: u32,
) -> Result<(Compiled, SimReport)> {
    let compiled = compile(&app.graph, opts)?;
    let config = SimConfig::new(frames).with_machine(opts.machine);
    let workers = if compiled.mapping.num_pes >= PARALLEL_PE_THRESHOLD {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        1
    };
    let report =
        ParallelTimedSimulator::new(&compiled.graph, &compiled.mapping, config, workers)?.run()?;
    Ok((compiled, report))
}

/// Extract the balanced-brace object value of `"key":` from raw JSON text.
/// The `BENCH_sim.json` schema contains no braces inside strings, so brace
/// counting is exact. Shared by `bench_json` (baseline carry-over) and
/// `sim_scaling` (block splicing).
pub fn extract_object(src: &str, key: &str) -> Option<String> {
    let kpos = src.find(&format!("\"{key}\":"))?;
    let start = kpos + src[kpos..].find('{')?;
    let mut depth = 0usize;
    for (i, c) in src[start..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(src[start..=start + i].to_string());
                }
            }
            _ => {}
        }
    }
    None
}

/// Extract the first numeric value of `"key":` inside `obj`.
pub fn extract_number(obj: &str, key: &str) -> Option<f64> {
    let kpos = obj.find(&format!("\"{key}\":"))?;
    let rest = &obj[kpos + key.len() + 3..];
    let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Render a percentage as a fixed-width ASCII bar, one `#` per 2%.
pub fn bar(fraction: f64) -> String {
    let n = (fraction * 50.0).round().clamp(0.0, 50.0) as usize;
    format!("{:<50}", "#".repeat(n))
}

/// Format a (run, read, write) utilization breakdown like the stacked bars
/// of Fig. 13.
pub fn breakdown_row(label: &str, report: &SimReport) -> String {
    let (run, read, write) = report.utilization_breakdown();
    let total = run + read + write;
    format!(
        "{label:>6} | {:>5.1}% = run {:>5.1}% + read {:>5.1}% + write {:>5.1}% on {:>3} PEs |{}|",
        100.0 * total,
        100.0 * run,
        100.0 * read,
        100.0 * write,
        report.num_pes(),
        bar(total)
    )
}

/// A minimal fixed-width table printer.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells.to_vec());
    }

    /// Render with per-column widths.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut s = line(&self.headers);
        s.push('\n');
        s.push_str(&"-".repeat(s.len().saturating_sub(1)));
        s.push('\n');
        for row in &self.rows {
            s.push_str(&line(row));
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_scales_and_clamps() {
        assert_eq!(bar(0.0).trim(), "");
        assert_eq!(bar(1.0).trim().len(), 50);
        assert_eq!(bar(2.0).trim().len(), 50);
        assert_eq!(bar(0.5).trim().len(), 25);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["a", "long-header"]);
        t.row(&["x".into(), "1".into()]);
        t.row(&["yyyy".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("long-header"));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    fn compile_and_simulate_small_case() {
        let app = bp_apps::fig1b(bp_apps::SMALL, bp_apps::SLOW);
        let (c, r) = compile_and_simulate(&app, &CompileOptions::default(), 1).unwrap();
        assert!(r.verdict.met);
        assert!(c.report.pes_used > 0);
        let row = breakdown_row("SS", &r);
        assert!(row.contains("run"));
    }

    #[test]
    fn json_helpers_roundtrip() {
        let src = r#"{ "a": { "x": 1.5, "nested": { "y": 2 } }, "b": { "z": 3 } }"#;
        let a = extract_object(src, "a").unwrap();
        assert!(a.contains("nested"));
        assert_eq!(extract_number(&a, "x"), Some(1.5));
        assert_eq!(extract_number(&a, "y"), Some(2.0));
        assert_eq!(extract_object(src, "b").unwrap(), r#"{ "z": 3 }"#);
        assert_eq!(extract_object(src, "missing"), None);
        assert_eq!(extract_number(src, "missing"), None);
    }
}
