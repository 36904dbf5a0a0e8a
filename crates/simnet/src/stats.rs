//! Statistics used by the measurement analysis: running moments, empirical
//! CDFs, least-squares fits, correlations and percentiles.
//!
//! The paper reports means and standard deviations of throughput (Fig. 3),
//! CDFs of estimation errors (Fig. 19), a linear fit `BLE = 1.7 T − 0.65`
//! (Fig. 15) and correlations between link quality and variability (§6, §8).
//! Everything here is deterministic and allocation-light.

use electrifi_state::{Persist, PersistValue, SectionReader, SectionWriter, StateError};
use serde::{Deserialize, Serialize};

/// Numerically stable running mean/variance (Welford's algorithm), plus
/// min/max tracking.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Fresh, empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation. Non-finite values are ignored (and counted
    /// nowhere) so a single corrupt sample cannot poison a day-long run.
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merge another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of (finite) observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 with fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`NaN` when empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest observation (`NaN` when empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Coefficient of variation `std/mean` (`NaN` for zero mean).
    pub fn cv(&self) -> f64 {
        self.std() / self.mean()
    }
}

impl PersistValue for RunningStats {
    fn encode(&self, w: &mut SectionWriter) {
        w.put_u64(self.n);
        w.put_f64(self.mean);
        w.put_f64(self.m2);
        w.put_f64(self.min);
        w.put_f64(self.max);
    }

    fn decode(r: &mut SectionReader<'_>) -> Result<Self, StateError> {
        Ok(RunningStats {
            n: r.get_u64()?,
            mean: r.get_f64()?,
            m2: r.get_f64()?,
            min: r.get_f64()?,
            max: r.get_f64()?,
        })
    }
}

impl Persist for RunningStats {
    fn save_state(&self, w: &mut SectionWriter) {
        self.encode(w);
    }
    fn load_state(&mut self, r: &mut SectionReader<'_>) -> Result<(), StateError> {
        *self = RunningStats::decode(r)?;
        Ok(())
    }
}

/// An empirical CDF over a finite sample.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build from any sample; non-finite values are dropped.
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.retain(|x| x.is_finite());
        samples.sort_by(f64::total_cmp);
        Ecdf { sorted: samples }
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when no samples were retained.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `F(x)`: fraction of samples `<= x`.
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Inverse CDF: the `q`-quantile for `q` in `[0, 1]` (nearest-rank).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        let q = q.clamp(0.0, 1.0);
        let idx = ((q * self.sorted.len() as f64).ceil() as usize)
            .saturating_sub(1)
            .min(self.sorted.len() - 1);
        self.sorted[idx]
    }

    /// Median, shorthand for `quantile(0.5)`.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Iterate `(x, F(x))` over the sample points; handy for plotting.
    pub fn points(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        let n = self.sorted.len() as f64;
        self.sorted
            .iter()
            .enumerate()
            .map(move |(i, &x)| (x, (i + 1) as f64 / n))
    }
}

/// Result of an ordinary-least-squares line fit `y = slope * x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinearFit {
    /// Slope of the fitted line.
    pub slope: f64,
    /// Intercept of the fitted line.
    pub intercept: f64,
    /// Coefficient of determination in `[0, 1]`.
    pub r2: f64,
    /// Number of points used.
    pub n: usize,
}

impl LinearFit {
    /// Evaluate the fitted line at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }

    /// Residuals of the fit against the given points.
    pub fn residuals<'a>(&'a self, points: &'a [(f64, f64)]) -> impl Iterator<Item = f64> + 'a {
        points.iter().map(move |&(x, y)| y - self.predict(x))
    }
}

/// Ordinary least squares over `(x, y)` pairs. Returns `None` with fewer
/// than two distinct x values.
pub fn linear_fit(points: &[(f64, f64)]) -> Option<LinearFit> {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .copied()
        .filter(|(x, y)| x.is_finite() && y.is_finite())
        .collect();
    let n = pts.len();
    if n < 2 {
        return None;
    }
    let nf = n as f64;
    let mx = pts.iter().map(|p| p.0).sum::<f64>() / nf;
    let my = pts.iter().map(|p| p.1).sum::<f64>() / nf;
    let sxx: f64 = pts.iter().map(|p| (p.0 - mx).powi(2)).sum();
    if sxx == 0.0 {
        return None;
    }
    let sxy: f64 = pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let syy: f64 = pts.iter().map(|p| (p.1 - my).powi(2)).sum();
    let r2 = if syy == 0.0 {
        1.0
    } else {
        let ss_res: f64 = pts
            .iter()
            .map(|&(x, y)| (y - (slope * x + intercept)).powi(2))
            .sum();
        (1.0 - ss_res / syy).clamp(0.0, 1.0)
    };
    Some(LinearFit {
        slope,
        intercept,
        r2,
        n,
    })
}

/// Pearson correlation coefficient. Returns `None` when either variable is
/// constant or fewer than two finite pairs exist.
pub fn pearson(points: &[(f64, f64)]) -> Option<f64> {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .copied()
        .filter(|(x, y)| x.is_finite() && y.is_finite())
        .collect();
    if pts.len() < 2 {
        return None;
    }
    let nf = pts.len() as f64;
    let mx = pts.iter().map(|p| p.0).sum::<f64>() / nf;
    let my = pts.iter().map(|p| p.1).sum::<f64>() / nf;
    let sxx: f64 = pts.iter().map(|p| (p.0 - mx).powi(2)).sum();
    let syy: f64 = pts.iter().map(|p| (p.1 - my).powi(2)).sum();
    if sxx == 0.0 || syy == 0.0 {
        return None;
    }
    let sxy: f64 = pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    Some(sxy / (sxx * syy).sqrt())
}

/// Spearman rank correlation: Pearson over the ranks. More robust to the
/// heavy-tailed metrics of the study (loss rates span decades in Fig. 21).
pub fn spearman(points: &[(f64, f64)]) -> Option<f64> {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .copied()
        .filter(|(x, y)| x.is_finite() && y.is_finite())
        .collect();
    if pts.len() < 2 {
        return None;
    }
    let rank = |vals: Vec<f64>| -> Vec<f64> {
        let mut idx: Vec<usize> = (0..vals.len()).collect();
        idx.sort_by(|&a, &b| vals[a].total_cmp(&vals[b]));
        let mut ranks = vec![0.0; vals.len()];
        let mut i = 0;
        while i < idx.len() {
            let mut j = i;
            while j + 1 < idx.len() && vals[idx[j + 1]] == vals[idx[i]] {
                j += 1;
            }
            // Average rank across ties.
            let avg = (i + j) as f64 / 2.0 + 1.0;
            for &k in &idx[i..=j] {
                ranks[k] = avg;
            }
            i = j + 1;
        }
        ranks
    };
    let rx = rank(pts.iter().map(|p| p.0).collect());
    let ry = rank(pts.iter().map(|p| p.1).collect());
    let ranked: Vec<(f64, f64)> = rx.into_iter().zip(ry).collect();
    pearson(&ranked)
}

/// Shapiro–Wilk is overkill here; this is a simple normality check via
/// standardized skewness and excess kurtosis, both of which should be small
/// for normal residuals (used to verify the Fig. 15 claim that fit
/// residuals are normally distributed).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct NormalityCheck {
    /// Sample skewness (0 for a normal distribution).
    pub skewness: f64,
    /// Excess kurtosis (0 for a normal distribution).
    pub excess_kurtosis: f64,
    /// Samples used.
    pub n: usize,
}

impl NormalityCheck {
    /// Compute the check over a sample.
    pub fn of(samples: &[f64]) -> Option<Self> {
        let xs: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
        if xs.len() < 8 {
            return None;
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let m2 = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        if m2 <= 0.0 {
            return None;
        }
        let m3 = xs.iter().map(|x| (x - mean).powi(3)).sum::<f64>() / n;
        let m4 = xs.iter().map(|x| (x - mean).powi(4)).sum::<f64>() / n;
        Some(NormalityCheck {
            skewness: m3 / m2.powf(1.5),
            excess_kurtosis: m4 / (m2 * m2) - 3.0,
            n: xs.len(),
        })
    }

    /// Loose acceptance test: |skew| and |kurtosis| both under a threshold
    /// scaled for the sample size.
    pub fn looks_normal(&self) -> bool {
        // Standard errors: skew ~ sqrt(6/n), kurtosis ~ sqrt(24/n).
        let n = self.n as f64;
        self.skewness.abs() < 4.0 * (6.0 / n).sqrt() + 0.5
            && self.excess_kurtosis.abs() < 4.0 * (24.0 / n).sqrt() + 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stats_basics() {
        let mut s = RunningStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Unbiased variance of this classic sample is 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn running_stats_ignores_non_finite() {
        let mut s = RunningStats::new();
        s.push(1.0);
        s.push(f64::NAN);
        s.push(f64::INFINITY);
        s.push(3.0);
        assert_eq!(s.count(), 2);
        assert!((s.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn running_stats_merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = RunningStats::new();
        xs.iter().for_each(|&x| whole.push(x));
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        xs[..37].iter().for_each(|&x| a.push(x));
        xs[37..].iter().for_each(|&x| b.push(x));
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn ecdf_eval_and_quantiles() {
        let e = Ecdf::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(1.0), 0.25);
        assert_eq!(e.eval(2.5), 0.5);
        assert_eq!(e.eval(10.0), 1.0);
        assert_eq!(e.quantile(0.0), 1.0);
        assert_eq!(e.quantile(0.5), 2.0);
        assert_eq!(e.quantile(1.0), 4.0);
        assert_eq!(e.median(), 2.0);
    }

    #[test]
    fn ecdf_drops_non_finite_and_handles_empty() {
        let e = Ecdf::new(vec![f64::NAN, 1.0, f64::INFINITY]);
        assert_eq!(e.len(), 1);
        let empty = Ecdf::new(vec![f64::NAN]);
        assert!(empty.is_empty());
        assert!(empty.eval(0.0).is_nan());
        assert!(empty.quantile(0.5).is_nan());
    }

    #[test]
    fn linear_fit_recovers_exact_line() {
        let pts: Vec<(f64, f64)> = (0..50).map(|i| (i as f64, 1.7 * i as f64 - 0.65)).collect();
        let fit = linear_fit(&pts).unwrap();
        assert!((fit.slope - 1.7).abs() < 1e-12);
        assert!((fit.intercept + 0.65).abs() < 1e-9);
        assert!((fit.r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn linear_fit_degenerate_inputs() {
        assert!(linear_fit(&[]).is_none());
        assert!(linear_fit(&[(1.0, 2.0)]).is_none());
        assert!(linear_fit(&[(1.0, 2.0), (1.0, 3.0)]).is_none());
    }

    #[test]
    fn pearson_signs() {
        let up: Vec<(f64, f64)> = (0..20).map(|i| (i as f64, 2.0 * i as f64)).collect();
        assert!((pearson(&up).unwrap() - 1.0).abs() < 1e-12);
        let down: Vec<(f64, f64)> = (0..20).map(|i| (i as f64, -(i as f64))).collect();
        assert!((pearson(&down).unwrap() + 1.0).abs() < 1e-12);
        assert!(pearson(&[(1.0, 1.0), (1.0, 2.0)]).is_none());
    }

    #[test]
    fn spearman_monotone_nonlinear() {
        // Monotone but nonlinear: Spearman is 1, Pearson is below 1.
        let pts: Vec<(f64, f64)> = (1..30).map(|i| (i as f64, (i as f64).exp())).collect();
        let s = spearman(&pts).unwrap();
        assert!((s - 1.0).abs() < 1e-12);
        assert!(pearson(&pts).unwrap() < 1.0);
    }

    #[test]
    fn spearman_handles_ties() {
        let pts = [(1.0, 1.0), (2.0, 1.0), (3.0, 2.0), (4.0, 3.0)];
        let s = spearman(&pts).unwrap();
        assert!(s > 0.8, "s={s}");
    }

    #[test]
    fn normality_check_accepts_normal_rejects_exponential() {
        use crate::rng::{Distributions, RngPool};
        let pool = RngPool::new(11);
        let mut r = pool.stream("norm-check");
        let normal: Vec<f64> = (0..5_000)
            .map(|_| Distributions::normal(&mut r, 0.0, 1.0))
            .collect();
        assert!(NormalityCheck::of(&normal).unwrap().looks_normal());
        let expo: Vec<f64> = (0..5_000)
            .map(|_| Distributions::exponential(&mut r, 1.0))
            .collect();
        assert!(!NormalityCheck::of(&expo).unwrap().looks_normal());
    }
}
