//! Width-invariance regression suite for the gauge monitors that used to
//! reduce floats through unordered parallel-iterator `sum()` / `reduce()` chains
//! (`R5-unordered-float-reduce` baseline suppressions burned down alongside
//! the solve service).
//!
//! Every fixed site now routes through the fixed-shape
//! `lqcd_core::reduce` helpers, so each value here must be bit-identical
//! at pool widths 1 and 8. These are exactly the quantities a
//! content-addressed result cache compares bit-for-bit: a width-dependent
//! plaquette would silently fork the cache key space.

use lqcd::core::prelude::*;

fn at_width<R: Send>(w: usize, op: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(w)
        .build()
        .expect("width handle")
        .install(op)
}

/// Run `op` at widths 1 and 8 and require bitwise-equal results.
fn widths_agree<R, F>(what: &str, op: F) -> R
where
    R: PartialEq + std::fmt::Debug + Send,
    F: Fn() -> R + Send + Sync,
{
    let r1 = at_width(1, &op);
    let r8 = at_width(8, &op);
    assert_eq!(r1, r8, "{what}: width 1 vs 8 disagree");
    r1
}

/// A lattice big enough that every reduction splits into multiple chunks
/// at width 8 (the single-chunk shortcut would make the test vacuous).
fn test_gauge() -> (Lattice, GaugeField<f64>) {
    let lat = Lattice::new([8, 8, 8, 8]);
    let gauge = GaugeField::<f64>::hot(&lat, 2024);
    (lat, gauge)
}

#[test]
fn plaquette_bits_stable_across_widths() {
    let (lat, gauge) = test_gauge();
    let p = widths_agree("average_plaquette", || {
        average_plaquette(&lat, &gauge).to_bits()
    });
    assert!(f64::from_bits(p).is_finite());
}

#[test]
fn max_unitarity_error_bits_stable_across_widths() {
    let (_, mut gauge) = test_gauge();
    // Perturb the links so the max is a nontrivial float, not ~1e-16 noise.
    for u in gauge.links_mut().iter_mut().step_by(7) {
        *u = u.scale(1.0 + 1e-6);
    }
    widths_agree("max_unitarity_error", || {
        gauge.max_unitarity_error().to_bits()
    });
}

#[test]
fn halfprec_decode_error_bits_stable_across_widths() {
    let (_, gauge) = test_gauge();
    let half = HalfGaugeField::from_gauge(&gauge);
    let e = widths_agree("HalfGaugeField::max_abs_error", || {
        half.max_abs_error(&gauge).to_bits()
    });
    assert!(f64::from_bits(e) > 0.0, "16-bit codes must lose something");
}
