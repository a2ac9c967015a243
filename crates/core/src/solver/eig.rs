//! Lanczos eigensolver for the Hermitian normal operator, and low-mode
//! deflation of CG.
//!
//! Light-quark solves are dominated by the lowest eigenmodes of `D†D`;
//! projecting them out ("deflation") removes the worst of the condition
//! number. Production DWF campaigns deflate with hundreds of Lanczos
//! vectors; this implementation is the same machinery at demonstration
//! scale: shift-invert Lanczos (each Krylov step a CG solve of `A`) with
//! full reorthogonalization, a tridiagonal Rayleigh–Ritz, and a final
//! block rotation against `A` itself.

use super::CgParams;
use crate::blas;
use crate::complex::C64;
use crate::dirac::LinearOp;
use crate::field::FermionField;
use crate::spinor::Spinor;
use obs::Json;

/// A converged eigenpair of the operator.
#[derive(Clone)]
pub struct EigenPair {
    /// Eigenvalue (real: the operator is Hermitian).
    pub value: f64,
    /// Unit-norm eigenvector.
    pub vector: Vec<Spinor<f64>>,
}

/// Parameters of the restarted shift-invert Lanczos run.
#[derive(Clone, Copy, Debug)]
pub struct LanczosParams {
    /// Number of lowest eigenpairs requested.
    pub n_eig: usize,
    /// Krylov subspace dimension per pass.
    pub krylov_dim: usize,
    /// Seed of the Gaussian start vector.
    pub seed: u64,
    /// Extra passes allowed when the residual bound is unmet; each restart
    /// re-seeds the Krylov sequence from the current Ritz vectors. `0`
    /// reproduces the single-pass [`lanczos_lowest`] exactly.
    pub max_restarts: usize,
    /// Acceptance bound on `‖A v − λ v‖ / max(λ, 1)` over all pairs.
    pub resid_tol: f64,
}

impl LanczosParams {
    /// Single-pass parameters (no restarts), as [`lanczos_lowest`] uses.
    pub fn new(n_eig: usize, krylov_dim: usize, seed: u64) -> Self {
        Self {
            n_eig,
            krylov_dim,
            seed,
            max_restarts: 0,
            resid_tol: 1e-4,
        }
    }

    /// Enable restarts with an explicit residual bound.
    pub fn with_restarts(mut self, max_restarts: usize, resid_tol: f64) -> Self {
        self.max_restarts = max_restarts;
        self.resid_tol = resid_tol;
        self
    }
}

/// Jacobi eigenvalue iteration for a small real symmetric matrix; returns
/// (eigenvalues ascending, row-major eigenvector matrix `v[k][i]`).
fn symmetric_eigen(mut a: Vec<Vec<f64>>) -> (Vec<f64>, Vec<Vec<f64>>) {
    let n = a.len();
    let mut v = vec![vec![0.0; n]; n];
    for (i, row) in v.iter_mut().enumerate() {
        row[i] = 1.0;
    }
    for _sweep in 0..100 {
        let mut off = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                off += a[i][j] * a[i][j];
            }
        }
        if off < 1e-24 {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                if a[p][q].abs() < 1e-300 {
                    continue;
                }
                let theta = (a[q][q] - a[p][p]) / (2.0 * a[p][q]);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                for k in 0..n {
                    let akp = a[k][p];
                    let akq = a[k][q];
                    a[k][p] = c * akp - s * akq;
                    a[k][q] = s * akp + c * akq;
                }
                for k in 0..n {
                    let apk = a[p][k];
                    let aqk = a[q][k];
                    a[p][k] = c * apk - s * aqk;
                    a[q][k] = s * apk + c * aqk;
                }
                for k in 0..n {
                    let vkp = v[k][p];
                    let vkq = v[k][q];
                    v[k][p] = c * vkp - s * vkq;
                    v[k][q] = s * vkp + c * vkq;
                }
            }
        }
    }
    // Sort ascending.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| a[i][i].total_cmp(&a[j][j]));
    let values: Vec<f64> = order.iter().map(|&i| a[i][i]).collect();
    let vectors: Vec<Vec<f64>> = order
        .iter()
        .map(|&col| (0..n).map(|row| v[row][col]).collect())
        .collect();
    (values, vectors)
}

/// Compute the `n_eig` lowest eigenpairs of the Hermitian positive-definite
/// operator by **shift-invert Lanczos**: the Krylov sequence is built with
/// `A⁻¹` (each application a CG solve), where the lowest modes of `A` are
/// *exterior* and converge fast regardless of how clustered they are in `A`
/// itself — the standard trick production eigensolvers use for Dirac
/// low-mode deflation.
pub fn lanczos_lowest<A: LinearOp<f64> + ?Sized>(
    op: &A,
    n_eig: usize,
    krylov_dim: usize,
    seed: u64,
) -> Vec<EigenPair> {
    lanczos(op, &LanczosParams::new(n_eig, krylov_dim, seed))
}

/// Restarted shift-invert Lanczos with observability: runs single passes
/// ([`lanczos_lowest`]'s algorithm) until every returned pair satisfies the
/// residual bound `‖A v − λ v‖ ≤ resid_tol · max(λ, 1)` or the restart
/// budget is spent. Each restart re-seeds the Krylov sequence from the sum
/// of the current Ritz vectors (rich in exactly the low modes that have not
/// yet converged). Progress is published to the ambient [`obs::Registry`]:
/// `solver.eig.runs` / `solver.eig.lanczos_iters` / `solver.eig.restarts`
/// counters plus `solver.eig.restart` / `solver.eig.done` events.
pub fn lanczos<A: LinearOp<f64> + ?Sized>(op: &A, params: &LanczosParams) -> Vec<EigenPair> {
    let reg = obs::Registry::current();
    reg.counter("solver.eig.runs").inc();
    let mut start: Option<Vec<Spinor<f64>>> = None;
    let mut restarts = 0usize;
    loop {
        let pairs = lanczos_pass(
            op,
            params.n_eig,
            params.krylov_dim,
            params.seed,
            start.take(),
        );
        let worst = worst_relative_residual(op, &pairs);
        if worst <= params.resid_tol || restarts >= params.max_restarts {
            reg.event(
                "solver.eig.done",
                vec![
                    ("modes", Json::from(pairs.len() as u64)),
                    ("restarts", Json::from(restarts as u64)),
                    ("worst_resid", Json::from(worst)),
                ],
            );
            return pairs;
        }
        restarts += 1;
        reg.counter("solver.eig.restarts").inc();
        reg.event(
            "solver.eig.restart",
            vec![
                ("attempt", Json::from(restarts as u64)),
                ("worst_resid", Json::from(worst)),
            ],
        );
        // Re-seed from the span of the current approximate low modes.
        let mut s = vec![Spinor::zero(); op.vec_len()];
        for p in &pairs {
            blas::axpy(1.0, &p.vector, &mut s);
        }
        let nrm = blas::norm_sqr(&s).sqrt();
        start = if nrm.is_finite() && nrm > 1e-14 {
            blas::scal(1.0 / nrm, &mut s);
            Some(s)
        } else {
            None
        };
    }
}

/// Largest relative eigen-equation residual over `pairs`
/// (`‖A v − λ v‖ / max(λ, 1)`); infinite when any residual is non-finite.
fn worst_relative_residual<A: LinearOp<f64> + ?Sized>(op: &A, pairs: &[EigenPair]) -> f64 {
    let n = op.vec_len();
    let mut worst = 0.0f64;
    for p in pairs {
        let mut av = vec![Spinor::zero(); n];
        op.apply(&mut av, &p.vector);
        blas::axpy(-p.value, &p.vector, &mut av);
        let res = blas::norm_sqr(&av).sqrt() / p.value.abs().max(1.0);
        if !res.is_finite() {
            return f64::INFINITY;
        }
        worst = worst.max(res);
    }
    worst
}

/// One shift-invert Lanczos pass; `start` overrides the Gaussian seed
/// vector (used by restarts).
fn lanczos_pass<A: LinearOp<f64> + ?Sized>(
    op: &A,
    n_eig: usize,
    krylov_dim: usize,
    seed: u64,
    start: Option<Vec<Spinor<f64>>>,
) -> Vec<EigenPair> {
    let n = op.vec_len();
    assert!(n_eig >= 1 && krylov_dim > n_eig);
    let m = krylov_dim.min(n * 12);
    let inner = CgParams {
        tol: 1e-10,
        max_iter: 50_000,
    };
    // One A⁻¹ application.
    let apply_inv = |out: &mut Vec<Spinor<f64>>, inp: &[Spinor<f64>]| {
        blas::zero(out);
        super::cg(op, out, inp, inner);
    };

    // Lanczos on A⁻¹ with full reorthogonalization.
    let mut basis: Vec<Vec<Spinor<f64>>> = Vec::with_capacity(m);
    let mut alpha = Vec::with_capacity(m);
    let mut beta = Vec::with_capacity(m);

    let mut q = match start {
        Some(s) => s,
        None => FermionField::<f64>::gaussian(n, seed).data,
    };
    let norm = blas::norm_sqr(&q).sqrt();
    blas::scal(1.0 / norm, &mut q);
    basis.push(q);

    let mut steps = 0u64;
    let mut w = vec![Spinor::zero(); n];
    for j in 0..m {
        steps += 1;
        apply_inv(&mut w, &basis[j]);
        let a_j = blas::dot(&basis[j], &w).re;
        alpha.push(a_j);
        blas::axpy(-a_j, &basis[j], &mut w);
        if j > 0 {
            let b_prev: f64 = beta[j - 1];
            blas::axpy(-b_prev, &basis[j - 1], &mut w);
        }
        // Full reorthogonalization (twice for stability).
        for _ in 0..2 {
            for b in &basis {
                let c = blas::dot(b, &w);
                blas::caxpy(-c, b, &mut w);
            }
        }
        let b_j = blas::norm_sqr(&w).sqrt();
        if j + 1 == m || b_j < 1e-14 {
            break;
        }
        beta.push(b_j);
        let mut next = w.clone();
        blas::scal(1.0 / b_j, &mut next);
        basis.push(next);
    }
    obs::Registry::current()
        .counter("solver.eig.lanczos_iters")
        .add(steps);

    // Tridiagonal Rayleigh–Ritz on A⁻¹: its *largest* Ritz values are the
    // lowest modes of A.
    let k = basis.len();
    let mut t = vec![vec![0.0; k]; k];
    for i in 0..k {
        t[i][i] = alpha[i];
        if i + 1 < k {
            t[i][i + 1] = beta[i];
            t[i + 1][i] = beta[i];
        }
    }
    let (values, vectors) = symmetric_eigen(t);

    // Take the top `n_eig` Ritz pairs of A⁻¹ (end of the ascending list).
    let ritz: Vec<Vec<Spinor<f64>>> = (0..n_eig.min(k))
        .map(|e| {
            let idx = k - 1 - e;
            let mut vec = vec![Spinor::zero(); n];
            for (j, b) in basis.iter().enumerate() {
                blas::axpy(vectors[idx][j], b, &mut vec);
            }
            let nrm = blas::norm_sqr(&vec).sqrt();
            blas::scal(1.0 / nrm, &mut vec);
            vec
        })
        .collect();
    let _ = values;

    // Rotate within the block against A itself and report A-eigenvalues.
    block_rayleigh_ritz(op, ritz)
}

/// Diagonalize the operator restricted to the span of `block` and return
/// the rotated eigenpairs (ascending). Uses the real 2k×2k embedding of the
/// complex Hermitian block matrix.
fn block_rayleigh_ritz<A: LinearOp<f64> + ?Sized>(
    op: &A,
    block: Vec<Vec<Spinor<f64>>>,
) -> Vec<EigenPair> {
    let k = block.len();
    let n = op.vec_len();
    // A v_j for every block vector.
    let avs: Vec<Vec<Spinor<f64>>> = block
        .iter()
        .map(|v| {
            let mut av = vec![Spinor::zero(); n];
            op.apply(&mut av, v);
            av
        })
        .collect();
    // Complex Hermitian H_ij = ⟨v_i, A v_j⟩, embedded as [[Re, −Im],[Im, Re]].
    let mut h = vec![vec![0.0; 2 * k]; 2 * k];
    for i in 0..k {
        for j in 0..k {
            let c: C64 = blas::dot(&block[i], &avs[j]);
            h[i][j] = c.re;
            h[i][j + k] = -c.im;
            h[i + k][j] = c.im;
            h[i + k][j + k] = c.re;
        }
    }
    let (values, vectors) = symmetric_eigen(h);
    // Eigenvalues come doubled; take one representative of each pair.
    let mut out: Vec<EigenPair> = Vec::with_capacity(k);
    let mut used = 0usize;
    let mut idx = 0usize;
    while used < k && idx < 2 * k {
        let value = values[idx];
        // Skip the duplicate partner (next index with ~equal eigenvalue is
        // consumed implicitly by taking every other entry).
        let coeffs: Vec<C64> = (0..k)
            .map(|j| C64::new(vectors[idx][j], vectors[idx][j + k]))
            .collect();
        let mut vector = vec![Spinor::zero(); n];
        for (j, v) in block.iter().enumerate() {
            blas::caxpy(coeffs[j], v, &mut vector);
        }
        let nrm = blas::norm_sqr(&vector).sqrt();
        if nrm > 1e-10 {
            blas::scal(1.0 / nrm, &mut vector);
            // Keep only vectors orthogonal to those already taken (the
            // duplicate embedding partner is i·v, which is parallel in the
            // complex sense: |⟨out, v⟩| ≈ 1).
            let dup = out
                .iter()
                .any(|p| blas::dot(&p.vector, &vector).abs() > 0.5);
            if !dup {
                out.push(EigenPair { value, vector });
                used += 1;
            }
        }
        idx += 1;
    }
    out.sort_by(|a, b| a.value.total_cmp(&b.value));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dirac::{NormalOp, WilsonDirac};
    use crate::field::GaugeField;
    use crate::lattice::Lattice;
    use crate::solver::cg;

    fn setup() -> (Lattice, GaugeField<f64>) {
        let lat = Lattice::new([4, 4, 2, 4]);
        let gauge = GaugeField::<f64>::hot(&lat, 51);
        (lat, gauge)
    }

    #[test]
    fn jacobi_diagonalizes_a_known_matrix() {
        let a = vec![vec![2.0, 1.0], vec![1.0, 2.0]];
        let (vals, vecs) = symmetric_eigen(a);
        assert!((vals[0] - 1.0).abs() < 1e-12);
        assert!((vals[1] - 3.0).abs() < 1e-12);
        // Eigenvector of λ=1 is (1,-1)/√2 up to sign.
        assert!((vecs[0][0].abs() - 1.0 / 2.0f64.sqrt()).abs() < 1e-12);
        assert!((vecs[0][0] + vecs[0][1]).abs() < 1e-12);
    }

    #[test]
    fn lanczos_pairs_satisfy_the_eigen_equation() {
        let (lat, gauge) = setup();
        let d = WilsonDirac::new(&lat, &gauge, 0.1, true);
        let a = NormalOp::new(&d);
        let pairs = lanczos_lowest(&a, 4, 90, 3);
        assert_eq!(pairs.len(), 4);
        for (k, p) in pairs.iter().enumerate() {
            assert!(p.value > 0.0, "D†D is positive definite");
            let mut av = vec![Spinor::zero(); lat.volume()];
            a.apply(&mut av, &p.vector);
            blas::axpy(-p.value, &p.vector, &mut av);
            let res = blas::norm_sqr(&av).sqrt();
            assert!(res < 1e-4 * p.value.max(1.0), "pair {k}: residual {res}");
        }
        // Ascending order.
        assert!(pairs.windows(2).all(|w| w[0].value <= w[1].value + 1e-12));
    }

    #[test]
    fn lanczos_vectors_are_orthonormal() {
        let (lat, gauge) = setup();
        let d = WilsonDirac::new(&lat, &gauge, 0.1, true);
        let a = NormalOp::new(&d);
        let pairs = lanczos_lowest(&a, 3, 50, 5);
        for i in 0..3 {
            for j in 0..3 {
                let dot = blas::dot(&pairs[i].vector, &pairs[j].vector);
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!(
                    (dot.re - expect).abs() < 1e-8 && dot.im.abs() < 1e-8,
                    "⟨v{i}, v{j}⟩ = {dot:?}"
                );
            }
        }
    }

    #[test]
    fn deflation_reduces_cg_iterations() {
        let (lat, gauge) = setup();
        // Light mass: poorly conditioned normal operator.
        let d = WilsonDirac::new(&lat, &gauge, 0.02, true);
        let a = NormalOp::new(&d);
        let b = FermionField::<f64>::gaussian(lat.volume(), 7).data;
        let params = CgParams {
            tol: 1e-8,
            max_iter: 20_000,
        };

        let mut x_plain = vec![Spinor::zero(); lat.volume()];
        let s_plain = cg(&a, &mut x_plain, &b, params);
        assert!(s_plain.converged);

        let modes = lanczos_lowest(&a, 8, 80, 9);
        let mut x_defl = vec![Spinor::zero(); lat.volume()];
        crate::solver::Deflation::new(modes).guess(&mut x_defl, &b);
        let s_defl = cg(&a, &mut x_defl, &b, params);
        assert!(s_defl.converged, "{s_defl:?}");
        assert!(
            s_defl.iterations < s_plain.iterations,
            "deflation must help: {} vs {}",
            s_defl.iterations,
            s_plain.iterations
        );

        // Same solution.
        let diff = blas::sub(&x_plain, &x_defl);
        let rel = blas::norm_sqr(&diff) / blas::norm_sqr(&x_plain);
        assert!(rel < 1e-12, "solutions differ: {rel}");
    }
}
