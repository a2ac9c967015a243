//! Data covariance estimation for correlated fits.
//!
//! Correlator points at neighboring times are strongly correlated; a
//! correlated χ² needs the inverse covariance, but the sample covariance of
//! `N` configurations is noisy (and singular for fewer configurations than
//! time slices). Linear shrinkage toward the diagonal (Ledoit–Wolf style)
//! keeps the inverse well conditioned — standard practice in lattice
//! analyses.

use crate::linalg;

/// Sample covariance of `samples[config][component]`, normalized by `N−1`.
///
/// Returns `None` if there are fewer than two samples or the rows differ in
/// length.
pub fn sample_covariance(samples: &[Vec<f64>]) -> Option<Vec<Vec<f64>>> {
    let n = samples.len();
    let m = samples.first()?.len();
    if n < 2 || samples.iter().any(|s| s.len() != m) {
        return None;
    }
    let mean: Vec<f64> = (0..m)
        .map(|k| samples.iter().map(|s| s[k]).sum::<f64>() / n as f64)
        .collect();
    let mut cov = vec![vec![0.0; m]; m];
    for s in samples {
        for i in 0..m {
            let di = s[i] - mean[i];
            for j in 0..m {
                cov[i][j] += di * (s[j] - mean[j]);
            }
        }
    }
    for row in cov.iter_mut() {
        for v in row.iter_mut() {
            *v /= (n - 1) as f64;
        }
    }
    Some(cov)
}

/// Shrink a covariance toward its diagonal:
/// `C' = (1−λ) C + λ diag(C)`.
///
/// Returns `None` if `cov` is not square or `lambda` is outside `[0, 1]`
/// (NaN included).
pub fn shrink(cov: &[Vec<f64>], lambda: f64) -> Option<Vec<Vec<f64>>> {
    let m = cov.len();
    if cov.iter().any(|row| row.len() != m) || !(0.0..=1.0).contains(&lambda) {
        return None;
    }
    let mut out = vec![vec![0.0; m]; m];
    for i in 0..m {
        for j in 0..m {
            out[i][j] = if i == j {
                cov[i][j]
            } else {
                (1.0 - lambda) * cov[i][j]
            };
        }
    }
    Some(out)
}

/// Covariance of the *mean* (sample covariance / N), shrunk and inverted —
/// the matrix a correlated fit of ensemble-averaged data wants.
/// Returns `None` when there is no such matrix: fewer than two samples,
/// ragged rows, `lambda` outside `[0, 1]`, a covariance entry that is not
/// finite (a NaN or infinite sample, or overflow), or a shrunk matrix that
/// is still singular.
pub fn inverse_mean_covariance(samples: &[Vec<f64>], lambda: f64) -> Option<Vec<Vec<f64>>> {
    let n = samples.len() as f64;
    let mut cov = shrink(&sample_covariance(samples)?, lambda)?;
    for row in cov.iter_mut() {
        for v in row.iter_mut() {
            *v /= n;
        }
    }
    if cov.iter().flatten().any(|v| !v.is_finite()) {
        return None;
    }
    linalg::invert(&cov)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn gauss(rng: &mut SmallRng) -> f64 {
        let u1: f64 = rng.gen::<f64>().max(1e-300);
        let u2: f64 = rng.gen();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    fn correlated_samples(n: usize, m: usize, rho: f64, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut z = gauss(&mut rng);
                (0..m)
                    .map(|_| {
                        z = rho * z + (1.0 - rho * rho).sqrt() * gauss(&mut rng);
                        z
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn diagonal_matches_componentwise_variance() {
        let samples = correlated_samples(2000, 4, 0.6, 3);
        let cov = sample_covariance(&samples).expect("two or more even rows");
        for k in 0..4 {
            assert!((cov[k][k] - 1.0).abs() < 0.15, "var[{k}] = {}", cov[k][k]);
        }
        // AR(1): adjacent correlation ≈ ρ.
        assert!((cov[0][1] - 0.6).abs() < 0.1);
    }

    #[test]
    fn covariance_is_symmetric_positive_diagonal() {
        let samples = correlated_samples(100, 6, 0.5, 5);
        let cov = sample_covariance(&samples).expect("two or more even rows");
        for i in 0..6 {
            assert!(cov[i][i] > 0.0);
            for j in 0..6 {
                assert!((cov[i][j] - cov[j][i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn shrinkage_rescues_singular_covariance() {
        // Fewer samples than components: raw covariance is singular.
        let samples = correlated_samples(5, 10, 0.7, 7);
        let raw = sample_covariance(&samples).expect("two or more even rows");
        assert!(linalg::invert(&raw).is_none(), "rank-deficient");
        let inv = inverse_mean_covariance(&samples, 0.5).expect("shrunk is invertible");
        assert_eq!(inv.len(), 10);
    }

    #[test]
    fn full_shrinkage_gives_diagonal_weights() {
        let samples = correlated_samples(200, 3, 0.8, 9);
        let inv = inverse_mean_covariance(&samples, 1.0).expect("diagonal");
        for i in 0..3 {
            for j in 0..3 {
                if i != j {
                    assert!(inv[i][j].abs() < 1e-10, "off-diagonal survived");
                }
            }
        }
    }

    #[test]
    fn sample_covariance_of_fewer_than_two_samples_is_none() {
        assert!(sample_covariance(&[]).is_none());
        assert!(sample_covariance(&[vec![1.0, 2.0]]).is_none());
    }

    #[test]
    fn sample_covariance_of_ragged_rows_is_none() {
        let mut samples = correlated_samples(20, 4, 0.5, 13);
        samples[7].pop();
        assert!(sample_covariance(&samples).is_none());
        samples[0].pop();
        assert!(sample_covariance(&samples).is_none());
    }

    #[test]
    fn shrinking_a_non_square_matrix_is_none() {
        assert!(shrink(&[vec![1.0, 0.5]], 0.1).is_none());
        assert!(shrink(&[vec![1.0, 0.5], vec![0.5]], 0.1).is_none());
        assert!(shrink(&[vec![1.0], vec![0.5]], 0.1).is_none());
    }

    #[test]
    fn shrinking_by_lambda_outside_unit_interval_is_none() {
        let cov = [vec![1.0, 0.5], vec![0.5, 2.0]];
        for lambda in [-0.1, 1.5, f64::NAN] {
            assert!(shrink(&cov, lambda).is_none(), "{lambda}");
        }
        let half = shrink(&cov, 0.5).expect("λ in [0, 1]");
        assert_eq!(half, [vec![1.0, 0.25], vec![0.25, 2.0]]);
    }

    #[test]
    fn fewer_than_two_samples_is_none() {
        assert!(inverse_mean_covariance(&[], 0.1).is_none());
        assert!(inverse_mean_covariance(&[vec![1.0, 2.0]], 0.1).is_none());
    }

    #[test]
    fn ragged_rows_are_none() {
        let mut samples = correlated_samples(20, 4, 0.5, 13);
        samples[7].pop();
        assert!(inverse_mean_covariance(&samples, 0.1).is_none());
        samples[0].pop();
        assert!(inverse_mean_covariance(&samples, 0.1).is_none());
    }

    #[test]
    fn non_finite_entry_is_none() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300] {
            let mut samples = correlated_samples(20, 4, 0.5, 17);
            samples[3][2] = bad;
            assert!(inverse_mean_covariance(&samples, 0.1).is_none(), "{bad}");
        }
    }

    #[test]
    fn lambda_outside_unit_interval_is_none() {
        let samples = correlated_samples(20, 4, 0.5, 19);
        for lambda in [-0.1, 1.5, f64::NAN] {
            assert!(
                inverse_mean_covariance(&samples, lambda).is_none(),
                "{lambda}"
            );
        }
        assert!(inverse_mean_covariance(&samples, 0.0).is_some());
    }

    #[test]
    fn correlated_fit_with_estimated_covariance_recovers_truth() {
        // End-to-end: estimate covariance from samples, fit the mean.
        let mut rng = SmallRng::seed_from_u64(11);
        let m = 8;
        let n = 400;
        let xs: Vec<f64> = (0..m).map(|i| i as f64).collect();
        let truth: Vec<f64> = xs.iter().map(|&x| 2.0 - 0.25 * x).collect();
        let samples: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                let mut z = gauss(&mut rng);
                truth
                    .iter()
                    .map(|&t| {
                        z = 0.7 * z + (1.0f64 - 0.49).sqrt() * gauss(&mut rng);
                        t + 0.05 * z
                    })
                    .collect()
            })
            .collect();
        let mean: Vec<f64> = (0..m)
            .map(|k| samples.iter().map(|s| s[k]).sum::<f64>() / n as f64)
            .collect();
        let inv = inverse_mean_covariance(&samples, 0.1).expect("invertible");
        let fit = crate::fit::curve_fit_correlated(
            &xs,
            &mean,
            &inv,
            |x, p| p[0] + p[1] * x,
            &[0.0, 0.0],
            &crate::fit::FitSettings::default(),
        );
        assert!(fit.converged);
        assert!((fit.params[0] - 2.0).abs() < 0.02);
        assert!((fit.params[1] + 0.25).abs() < 0.005);
        assert!(fit.chi2_per_dof() < 3.0);
    }
}
