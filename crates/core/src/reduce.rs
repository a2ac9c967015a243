//! Fixed-shape deterministic reductions over site/link indices.
//!
//! The gauge monitors (plaquette, unitarity, 16-bit decode error) used to
//! reduce per-site floats straight through a parallel iterator's `sum()`,
//! whose accumulation order — and therefore bits — depends on the pool width. With
//! the solve-service
//! result cache keyed on bit-exact outputs, that is a correctness bug, not
//! a style nit: the same configuration measured at a different thread
//! count would miss the cache (or worse, collide with a stale entry that
//! compares unequal). These helpers route every such reduction through
//! [`rayon::reduce_chunks`]: chunk boundaries derive from `len` only, each
//! chunk folds sequentially, and partials combine in index order — the
//! same contract [`crate::blas`] already keeps for the solver reductions —
//! so the result is bit-identical at any pool width.

use crate::blas::grain_for;

/// `Σ_{i<len} f(i)` with a width-invariant accumulation order.
pub fn sum_sites<F>(len: usize, f: F) -> f64
where
    F: Fn(usize) -> f64 + Sync + Send,
{
    rayon::reduce_chunks(
        len,
        grain_for(len),
        || 0.0f64,
        |acc, r| r.fold(acc, |a, i| a + f(i)),
        |a, b| a + b,
    )
}

/// `max_{i<len} f(i)` over the same fixed chunk shape. `f64::max` is
/// insensitive to association order for the finite values these monitors
/// produce, but routing it through the shared reducer keeps every float
/// reduction in the crate on one audited code path.
pub fn max_sites<F>(len: usize, f: F) -> f64
where
    F: Fn(usize) -> f64 + Sync + Send,
{
    rayon::reduce_chunks(
        len,
        grain_for(len),
        || 0.0f64,
        |acc, r| r.fold(acc, |a, i| a.max(f(i))),
        f64::max,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_matches_sequential_below_threshold() {
        // One chunk: bit-identical to a plain fold by construction.
        let vals: Vec<f64> = (0..100).map(|i| (i as f64).sin()).collect();
        let seq: f64 = vals.iter().fold(0.0, |a, v| a + v);
        assert_eq!(sum_sites(vals.len(), |i| vals[i]).to_bits(), seq.to_bits());
    }

    #[test]
    fn max_finds_the_maximum() {
        let n = 50_000;
        assert_eq!(max_sites(n, |i| (i % 997) as f64), 996.0);
        assert_eq!(max_sites(0, |_| 1.0), 0.0);
    }
}
