//! A data-dependent-cost kernel: toy block-matching motion search — the
//! paper's own §VII example of what the static model cannot express without
//! "bounds on real-time processing requirements and runtime exceptions".
//!
//! Each iteration matches the 2×2 block at the window center against the
//! nine 2×2 candidate blocks at offsets in {-1,0,1}², stopping early when a
//! candidate's sum-of-absolute-differences falls below a threshold. The
//! *actual* cycle count therefore varies with the data; the kernel reports
//! it via [`Emitter::report_cycles`], and the timed simulator raises a
//! budget-overrun exception whenever a firing runs past the declared cost.

use bp_core::kernel::{Emitter, FireData, KernelBehavior, KernelDef, KernelSpec};
use bp_core::method::{MethodCost, MethodSpec};
use bp_core::port::{InputSpec, OutputSpec};
use bp_core::{Dim2, Offset2, Step2, Window};

/// Base cycles per firing (setup + output).
pub const SEARCH_BASE_CYCLES: u64 = 20;
/// Cycles per candidate position evaluated.
pub const SEARCH_POSITION_CYCLES: u64 = 12;

struct MotionSearchBehavior {
    threshold: f64,
}

fn sad(w: &Window, ax: u32, ay: u32, bx: u32, by: u32) -> f64 {
    let mut acc = 0.0;
    for dy in 0..2 {
        for dx in 0..2 {
            acc += (w.get(ax + dx, ay + dy) - w.get(bx + dx, by + dy)).abs();
        }
    }
    acc
}

impl MotionSearchBehavior {
    /// The shared search body: best SAD plus candidates tried. Both
    /// dispatch paths call this so their emissions and reported cycles are
    /// identical by construction (pinned by the parity test below).
    fn search(&self, w: &Window) -> (f64, u64) {
        // Reference block at the window center (2,2)..(3,3); candidates at
        // center + offsets in {-1,0,1}^2 are fully contained in the 6x6
        // window.
        let mut best = f64::INFINITY;
        let mut tried: u64 = 0;
        'search: for oy in 0..3u32 {
            for ox in 0..3u32 {
                tried += 1;
                let s = sad(w, 2, 2, 1 + ox, 1 + oy);
                if s < best {
                    best = s;
                }
                if best <= self.threshold {
                    break 'search; // early exit: data-dependent cost
                }
            }
        }
        (best, tried)
    }
}

impl KernelBehavior for MotionSearchBehavior {
    fn fire(&mut self, _m: usize, d: &FireData<'_>, out: &mut Emitter<'_>) {
        let (best, tried) = self.search(d.window_at(0));
        out.report_cycles(SEARCH_BASE_CYCLES + tried * SEARCH_POSITION_CYCLES);
        out.window_at(0, Window::scalar(best));
    }
}

/// A motion-search kernel with a data-dependent cost. `budget_positions` is
/// the number of candidate evaluations the *declared* cost covers (the
/// compile-time budget); searches that run longer raise runtime resource
/// exceptions in the timed simulation report. Declare 9 for a sound
/// worst-case budget, or less to model an optimistic allocation.
pub fn motion_search(threshold: f64, budget_positions: u64) -> KernelDef {
    assert!((1..=9).contains(&budget_positions));
    let spec = KernelSpec::new("motion_search")
        .input(
            InputSpec::windowed("in", Dim2::new(6, 6), Step2::new(2, 2))
                .with_offset(Offset2::new(2.0, 2.0)),
        )
        .output(OutputSpec::stream("out"))
        .method(MethodSpec::on_data(
            "search",
            "in",
            vec!["out".into()],
            MethodCost::new(
                SEARCH_BASE_CYCLES + budget_positions * SEARCH_POSITION_CYCLES,
                36,
            ),
        ));
    KernelDef::new(spec, move || MotionSearchBehavior { threshold })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_core::Item;

    fn fire(def: &KernelDef, w: Window) -> (f64, Option<u64>) {
        let mut b = (def.factory)();
        let consumed = vec![(0usize, Item::Window(w))];
        let data = FireData::new(&def.spec, &consumed);
        let mut out = Emitter::new(&def.spec);
        b.fire(0, &data, &mut out);
        let (items, cycles) = out.into_parts();
        (items[0].1.window().unwrap().as_scalar(), cycles)
    }

    #[test]
    fn flat_data_exits_after_one_candidate() {
        let def = motion_search(0.5, 9);
        let (best, cycles) = fire(&def, Window::filled(Dim2::new(6, 6), 3.0));
        assert_eq!(best, 0.0);
        assert_eq!(cycles, Some(SEARCH_BASE_CYCLES + SEARCH_POSITION_CYCLES));
    }

    #[test]
    fn unattainable_threshold_searches_all_positions() {
        // A negative threshold can never be met (SAD >= 0), so the search
        // always evaluates all nine candidates — the declared worst case.
        let def = motion_search(-1.0, 9);
        let w = Window::from_fn(Dim2::new(6, 6), |x, y| ((y * 6 + x) * (y + 2)) as f64);
        let (_best, cycles) = fire(&def, w);
        assert_eq!(
            cycles,
            Some(SEARCH_BASE_CYCLES + 9 * SEARCH_POSITION_CYCLES)
        );
    }

    #[test]
    fn zero_offset_candidate_is_exact_match() {
        // Candidate (ox,oy)=(1,1) is the reference block itself, so the
        // best SAD is always 0 by the fifth evaluation at the latest.
        let def = motion_search(0.0, 9);
        let w = Window::from_fn(Dim2::new(6, 6), |x, y| (y * 7 + x * 3) as f64);
        let (best, cycles) = fire(&def, w);
        assert_eq!(best, 0.0);
        assert_eq!(
            cycles,
            Some(SEARCH_BASE_CYCLES + 5 * SEARCH_POSITION_CYCLES)
        );
    }

    #[test]
    fn declared_budget_reflects_positions() {
        let opt = motion_search(0.0, 3);
        assert_eq!(
            opt.spec.methods[0].cost.cycles,
            SEARCH_BASE_CYCLES + 3 * SEARCH_POSITION_CYCLES
        );
        let worst = motion_search(0.0, 9);
        assert!(worst.spec.methods[0].cost.cycles > opt.spec.methods[0].cost.cycles);
    }
}
