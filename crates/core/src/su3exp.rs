//! The su(3) exponential map and algebra projection used by stout
//! smearing.

use crate::complex::Complex;
use crate::su3::{Su3, NC};

/// Project a matrix onto the su(3) algebra (anti-hermitian traceless):
/// `P(M) = (M − M†)/2 − Tr(M − M†)/(2Nc)`.
pub fn project_antihermitian_traceless(m: &Su3<f64>) -> Su3<f64> {
    let mdag = m.dagger();
    let mut out = Su3::zero();
    for i in 0..NC {
        for j in 0..NC {
            out.m[i][j] = (m.m[i][j] - mdag.m[i][j]).scale(0.5);
        }
    }
    let tr = out.trace();
    let third = Complex::new(tr.re / NC as f64, tr.im / NC as f64);
    for i in 0..NC {
        out.m[i][i] -= third;
    }
    out
}

/// Matrix exponential `exp(M)` by scaling-and-squaring with a 12th-order
/// Taylor core — plenty for the `‖M‖ ≲ 1` matrices of smearing.
pub fn exp_su3(m: &Su3<f64>) -> Su3<f64> {
    // Scale down until the norm is comfortably small.
    let norm: f64 = {
        let mut acc = 0.0;
        for i in 0..NC {
            for j in 0..NC {
                acc += m.m[i][j].norm_sqr();
            }
        }
        acc.sqrt()
    };
    let mut squarings = 0u32;
    let mut scale = 1.0;
    while norm * scale > 0.5 {
        scale *= 0.5;
        squarings += 1;
    }
    let scaled = m.scale(scale);

    // Taylor series.
    let mut result = Su3::identity();
    let mut term = Su3::identity();
    for k in 1..=12 {
        term = term * scaled;
        term = term.scale(1.0 / k as f64);
        result += term;
    }
    // Square back up.
    for _ in 0..squarings {
        result = result * result;
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_algebra(seed: u64, size: f64) -> Su3<f64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut m = Su3::zero();
        for i in 0..3 {
            for j in 0..3 {
                m.m[i][j] = Complex::new(
                    size * (rng.gen::<f64>() - 0.5),
                    size * (rng.gen::<f64>() - 0.5),
                );
            }
        }
        project_antihermitian_traceless(&m)
    }

    #[test]
    fn projection_lands_in_the_algebra() {
        let m = random_algebra(3, 2.0);
        // Anti-hermitian: M† = −M.
        let mdag = m.dagger();
        let mut neg = Su3::zero();
        for i in 0..3 {
            for j in 0..3 {
                neg.m[i][j] = -m.m[i][j];
            }
        }
        assert!(mdag.distance(&neg) < 1e-14);
        assert!(m.trace().abs() < 1e-14);
        // Idempotent.
        let again = project_antihermitian_traceless(&m);
        assert!(again.distance(&m) < 1e-14);
    }

    #[test]
    fn exp_of_zero_is_identity() {
        let e = exp_su3(&Su3::zero());
        assert!(e.distance(&Su3::identity()) < 1e-15);
    }

    #[test]
    fn exp_of_algebra_element_is_special_unitary() {
        for seed in 0..10 {
            let m = random_algebra(seed, 1.5);
            let u = exp_su3(&m);
            assert!(u.unitarity_error() < 1e-12, "seed {seed}");
            assert!((u.det() - Complex::one()).abs() < 1e-12, "seed {seed}");
        }
    }

    #[test]
    fn exp_satisfies_group_inverse() {
        let m = random_algebra(11, 1.0);
        let u = exp_su3(&m);
        let uinv = exp_su3(&m.scale(-1.0));
        assert!((u * uinv).distance(&Su3::identity()) < 1e-12);
    }

    #[test]
    fn exp_matches_series_for_small_arguments() {
        // exp(εM) ≈ 1 + εM + ε²M²/2 to O(ε³).
        let m = random_algebra(13, 1.0);
        let eps = 1e-4;
        let u = exp_su3(&m.scale(eps));
        let mut approx = Su3::identity();
        approx += m.scale(eps);
        approx += (m * m).scale(eps * eps / 2.0);
        assert!(u.distance(&approx) < 1e-10);
    }

    #[test]
    fn exp_scaling_and_squaring_agrees_across_magnitudes() {
        // exp(2M) == exp(M)².
        let m = random_algebra(17, 0.8);
        let e2m = exp_su3(&m.scale(2.0));
        let em = exp_su3(&m);
        assert!(e2m.distance(&(em * em)) < 1e-11);
    }
}
