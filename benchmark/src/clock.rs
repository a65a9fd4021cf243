//! Cycle normalisation and the sample estimator.
//!
//! The host steps between core speeds and suffers neighbour contention,
//! so nanoseconds of the same binary move by tens of percent between
//! runs. Every timed region is therefore bracketed by a *probe* — a
//! dependent multiply/rotate chain whose length in core cycles is known
//! — and reported in core cycles: `region_ns / (probe_ns / PROBE_CYCLES)`.
//! Contention only ever adds time, so a metric's value is the 10th
//! percentile of its samples; the median and the highest percentile
//! with at least ten samples beyond it are kept beside it.

use std::hint::black_box;
use std::time::Instant;

/// Iterations of the probe chain.
pub const PROBE_ITERS: u32 = 1024;
/// Core cycles one probe takes by convention: `imul` (3) + `rol` (1)
/// per iteration, each depending on the previous result.
pub const PROBE_CYCLES: f64 = 4.0 * PROBE_ITERS as f64;
/// Nominal clock used only to express set-up cycles as seconds.
pub const NOMINAL_HZ: f64 = 3.0e9;

/// Run the probe once and return its duration in nanoseconds.
#[inline(never)]
pub fn probe_ns() -> u64 {
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    let t = Instant::now();
    for _ in 0..PROBE_ITERS {
        x = x.wrapping_mul(0x2545_F491_4F6C_DD1D).rotate_left(17);
    }
    let ns = t.elapsed().as_nanos() as u64;
    black_box(x);
    ns.max(1)
}

/// Core cycles of a region that took `ns`, given the probes run right
/// before and after it. The faster probe is the one an interrupt did
/// not hit.
pub fn cycles(ns: u64, probe_before: u64, probe_after: u64) -> f64 {
    ns as f64 * PROBE_CYCLES / probe_before.min(probe_after) as f64
}

/// Time `f` between two probes; returns its result and its core cycles.
pub fn timed_cycles<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let pa = probe_ns();
    let t = Instant::now();
    let out = f();
    let ns = t.elapsed().as_nanos() as u64;
    let pb = probe_ns();
    (out, cycles(ns, pa, pb))
}

/// Linear-interpolated percentile (`q` in 0..=1) of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// What is kept of one metric's samples.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    /// The reported value: 10th percentile.
    pub p10: f64,
    pub p50: f64,
    /// Highest percentile (0..=100) with at least ten samples beyond it;
    /// the median when there are fewer than twenty samples.
    pub hi_pct: f64,
    pub hi: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let n = s.len();
        let hi_q = if n >= 20 { 1.0 - 10.0 / n as f64 } else { 0.5 };
        Summary {
            p10: percentile(&s, 0.10),
            p50: percentile(&s, 0.50),
            hi_pct: hi_q * 100.0,
            hi: percentile(&s, hi_q),
            n,
        }
    }

    /// Median over the reported value: 1.0 on a quiet machine, and the
    /// larger it is the less the p10 can be trusted.
    pub fn noise(&self) -> f64 {
        if self.p10 > 0.0 {
            self.p50 / self.p10
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&s, 0.0), 10.0);
        assert_eq!(percentile(&s, 0.5), 30.0);
        assert_eq!(percentile(&s, 1.0), 50.0);
        assert!((percentile(&s, 0.10) - 14.0).abs() < 1e-9);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn summary_keeps_low_decile_median_and_supported_tail() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let s = Summary::of(&samples);
        assert_eq!(s.n, 100);
        assert!((s.p10 - 10.9).abs() < 1e-9);
        assert!((s.p50 - 50.5).abs() < 1e-9);
        // 100 samples: ten lie beyond p90.
        assert!((s.hi_pct - 90.0).abs() < 1e-9);
        assert!((s.hi - 90.1).abs() < 1e-9);
        assert!((s.noise() - 50.5 / 10.9).abs() < 1e-9);
        // Too few samples for a tail: fall back to the median.
        assert_eq!(Summary::of(&[3.0, 1.0, 2.0]).hi, 2.0);
    }

    #[test]
    fn outliers_move_the_median_side_not_the_low_decile() {
        let mut samples = vec![100.0; 80];
        samples.extend(vec![400.0; 20]);
        let s = Summary::of(&samples);
        assert_eq!(s.p10, 100.0);
        assert_eq!(s.p50, 100.0);
        assert_eq!(s.hi, 400.0);
    }

    #[test]
    fn probe_normalisation_cancels_clock_speed() {
        // The same 1000-cycle region on a core running at 1 and at
        // 1.28 cycles/ns reads the same once divided by the probe.
        let slow = cycles(1000, 4096, 4096);
        let fast = cycles(781, 3200, 3200);
        assert!((slow - 1000.0).abs() < 1e-9);
        assert!((fast - 1000.0).abs() < 1.0);
        // A probe hit by an interrupt is ignored in favour of the other.
        assert_eq!(cycles(1000, 4096, 90_000), slow);
    }

    #[test]
    fn probe_runs_and_scales_with_its_length() {
        let best = (0..50).map(|_| probe_ns()).min().unwrap();
        // 4096 dependent cycles cannot finish in under 100 ns on any
        // core this runs on, nor take a millisecond when undisturbed.
        assert!(best > 100 && best < 1_000_000, "probe took {best} ns");
    }
}
