//! Order statistics and the interleaved paired-ratio estimator.

use std::time::{Duration, Instant};

/// Median of the samples (mean of the middle two for an even count); 0 for
/// none.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method).
/// With fewer than two samples both quartiles are that sample (or 0).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Nearest-rank percentile `p` in `0..=100`; 0 for no samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// A ratio estimated from paired samples: the median per-pair ratio with
/// its quartiles.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Ratio {
    /// Median of the per-pair ratios.
    pub median: f64,
    /// First quartile of the per-pair ratios.
    pub q1: f64,
    /// Third quartile of the per-pair ratios.
    pub q3: f64,
    /// Pairs that completed on both sides.
    pub pairs: usize,
    /// Sides run, counting both sides of every pair.
    pub sides: usize,
    /// Sides that failed their correctness check (their pair is dropped).
    pub failed: usize,
}

/// Pairs every ratio estimate takes, whatever the time.
pub const MIN_PAIRS: usize = 3;
/// Most pairs behind any ratio estimate.
pub const MAX_PAIRS: usize = 40;

/// Estimate `numerator ÷ denominator` from interleaved pairs: at least
/// [`MIN_PAIRS`], then more until `time` has elapsed, up to [`MAX_PAIRS`].
/// Each side returns the seconds it measured, or an error when its output failed the
/// oracle. Even pairs run the numerator first and odd pairs the denominator
/// first, so drift in the machine's speed cancels rather than biasing one
/// side.
pub fn paired_ratio(
    time: Duration,
    mut numerator: impl FnMut() -> Result<f64, String>,
    mut denominator: impl FnMut() -> Result<f64, String>,
) -> Ratio {
    let start = Instant::now();
    let mut ratios = Vec::new();
    let mut failed = 0;
    let mut k = 0;
    while k < MAX_PAIRS && (k < MIN_PAIRS || start.elapsed() < time) {
        let (n, d) = if k % 2 == 0 {
            let n = numerator();
            (n, denominator())
        } else {
            let d = denominator();
            (numerator(), d)
        };
        k += 1;
        match (n, d) {
            (Ok(n), Ok(d)) if d > 0.0 => ratios.push(n / d),
            (n, d) => {
                for e in [n.err(), d.err()].into_iter().flatten() {
                    eprintln!("perfbench: ratio side failed: {e}");
                    failed += 1;
                }
            }
        }
    }
    let (q1, q3) = quartiles(&ratios);
    Ratio {
        median: median(&ratios),
        q1,
        q3,
        pairs: ratios.len(),
        sides: 2 * k,
        failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn paired_ratio_alternates_and_drops_failed_pairs() {
        let mut order = Vec::new();
        let order_cell = std::cell::RefCell::new(&mut order);
        let r = paired_ratio(
            Duration::ZERO,
            || {
                order_cell.borrow_mut().push('n');
                Ok(2.0)
            },
            || {
                let mut o = order_cell.borrow_mut();
                o.push('d');
                if o.len() == 6 {
                    Err("perturbed".into())
                } else {
                    Ok(1.0)
                }
            },
        );
        assert_eq!(order.iter().collect::<String>(), "nddnnd");
        assert_eq!((r.pairs, r.sides, r.failed, r.median), (2, 6, 1, 2.0));
    }
}
