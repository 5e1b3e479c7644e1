//! Steady-state heap allocations of the timed simulator, counted by a
//! `#[global_allocator]` wrapper.
//!
//! The marginal cost of simulating more frames is measured as the
//! allocation count of an 8-frame run minus that of a 4-frame run, so
//! everything paid once (instantiation, first-touch buffer growth, report
//! assembly) cancels. Both backends run the one event loop and differ only
//! in their planner and fire path, so their marginal allocations must be
//! identical: any extra per-firing allocation on either path shows up as a
//! difference proportional to the firing count.
//!
//! What remains is kernel payload. On fig1b most of it is the line
//! buffer's windows, one shared-slice allocation each, so its compiled
//! marginal count is also bounded per firing (DESIGN.md §8).
//!
//! The file holds a single `#[test]` on purpose: the counter is global, and
//! a concurrently running test would pollute it.

use bp_apps::{apps, App, SLOW, SMALL};
use bp_compiler::{compile, CompileOptions};
use bp_sim::{Backend, SimConfig, TimedSimulator};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting allocations and reallocations.
struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`; the
// counting touches one atomic and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn build_example(name: &str) -> App {
    match name {
        "fig1b" => apps::fig1b(SMALL, SLOW),
        "edge_detect" => apps::edge_detect(SMALL, SLOW, 0.5),
        "camera_bank" => apps::camera_bank(3, SMALL, SLOW),
        _ => unreachable!("unknown app {name}"),
    }
}

/// Allocations made by one sequential run of `name` (compile and
/// instantiation excluded), plus the run's firing count.
fn run_allocs(name: &str, frames: u32, backend: Backend) -> (u64, u64) {
    let app = build_example(name);
    let compiled = compile(&app.graph, &CompileOptions::default()).expect("compile");
    let config = SimConfig::new(frames).with_backend(backend);
    let sim = TimedSimulator::new(&compiled.graph, &compiled.mapping, config).expect("instantiate");
    let before = ALLOCS.load(Relaxed);
    let report = sim.run().expect("runs");
    let allocs = ALLOCS.load(Relaxed) - before;
    let firings = report.node_firings.iter().sum();
    (allocs, firings)
}

/// fig1b's marginal allocations per marginal firing on the compiled path.
/// Building each multi-sample window in one allocation puts it at 0.26;
/// filling a `Vec` and then copying it into the shared slice measured 0.46.
const FIG1B_ALLOCS_PER_FIRING: f64 = 0.30;

#[test]
fn marginal_allocations_are_backend_independent() {
    for name in ["fig1b", "edge_detect", "camera_bank"] {
        let delta = |backend: Backend| {
            let (a4, f4) = run_allocs(name, 4, backend);
            let (a8, f8) = run_allocs(name, 8, backend);
            (a8 - a4, f8 - f4)
        };
        let (interp, interp_firings) = delta(Backend::Interpreted);
        let (compiled, compiled_firings) = delta(Backend::Compiled);
        assert_eq!(interp_firings, compiled_firings, "{name}: firing counts");
        assert_eq!(
            interp, compiled,
            "{name}: 4 extra frames cost {interp} allocations interpreted but \
             {compiled} compiled over {compiled_firings} extra firings"
        );
        if name == "fig1b" {
            let per_firing = compiled as f64 / compiled_firings as f64;
            assert!(
                per_firing <= FIG1B_ALLOCS_PER_FIRING,
                "fig1b: {per_firing:.3} marginal allocations per firing \
                 ({compiled} over {compiled_firings} firings), bound {FIG1B_ALLOCS_PER_FIRING}"
            );
        }
    }
}
