//! Autotuning of the stencil kernels.
//!
//! QUDA tunes each kernel's CUDA launch geometry at first encounter and
//! caches the optimum. The analogous knob for our rayon kernels is the
//! parallel grain size (sites per task). This module adapts any of the
//! Dirac operators to the [`autotune::Tunable`] interface so a shared
//! [`autotune::Tuner`] can sweep and cache per (kernel, volume, precision).

use crate::dirac::{DslashVariant, LinearOp};
use crate::field::FermionField;
use crate::lattice::volume_string;
use crate::real::Real;
use crate::solver::FallibleOp;
use crate::spinor::Spinor;
use autotune::{ParamSpace, TimingHarness, Tunable, TuneKey, TuneParam, Tuner};

/// Trait for operators whose parallel grain can be set post-construction.
pub trait GrainTunable<R: Real>: LinearOp<R> {
    /// Set the parallel chunk size used by the stencil loops.
    fn set_grain(&mut self, grain: usize);
    /// Stable kernel name for the tune cache.
    fn kernel_name(&self) -> &'static str;
    /// Volume component of the tune key (includes L5 for 5D operators).
    fn volume_key(&self) -> String;
}

/// Trait for operators that can additionally switch their execution
/// [`DslashVariant`] — the axis [`tune_dslash_variant`] sweeps jointly with
/// the grain size. Every supported variant must be bit-identical, so the
/// sweep can only change speed, never results.
pub trait VariantTunable<R: Real>: GrainTunable<R> {
    /// Variants this operator can execute on its geometry.
    fn supported_variants(&self) -> Vec<DslashVariant>;
    /// Select the execution variant.
    fn set_variant(&mut self, variant: DslashVariant);
    /// Currently selected variant.
    fn variant(&self) -> DslashVariant;
    /// Storage/reconstruction label of the bound gauge field (a tune-key
    /// axis: compressed links shift the optimum).
    fn recon_name(&self) -> &'static str;
}

macro_rules! impl_grain_tunable_4d {
    ($ty:ident, $name:literal) => {
        impl<'a, R: Real, G: crate::field::GaugeLinks<R>> GrainTunable<R>
            for crate::dirac::$ty<'a, R, G>
        {
            fn set_grain(&mut self, grain: usize) {
                self.grain = grain;
            }
            fn kernel_name(&self) -> &'static str {
                $name
            }
            fn volume_key(&self) -> String {
                volume_string(self.lattice().dims())
            }
        }
    };
}

macro_rules! impl_grain_tunable_5d {
    ($ty:ident, $name:literal) => {
        impl<'a, R: Real, G: crate::field::GaugeLinks<R>> GrainTunable<R>
            for crate::dirac::$ty<'a, R, G>
        {
            fn set_grain(&mut self, grain: usize) {
                self.grain = grain;
            }
            fn kernel_name(&self) -> &'static str {
                $name
            }
            fn volume_key(&self) -> String {
                format!(
                    "{}x{}",
                    volume_string(self.lattice().dims()),
                    self.params().l5
                )
            }
        }
    };
}

impl_grain_tunable_4d!(WilsonDirac, "dslash_wilson");
impl_grain_tunable_4d!(PrecWilson, "dslash_wilson_prec");
impl_grain_tunable_5d!(MobiusDirac, "dslash_mobius");
impl_grain_tunable_5d!(PrecMobius, "dslash_mobius_prec");

macro_rules! impl_variant_tunable {
    ($ty:ident) => {
        impl<'a, R: Real, G: crate::field::GaugeLinks<R>> VariantTunable<R>
            for crate::dirac::$ty<'a, R, G>
        {
            fn supported_variants(&self) -> Vec<DslashVariant> {
                // Resolves to the operator's inherent method.
                crate::dirac::$ty::supported_variants(self)
            }
            fn set_variant(&mut self, variant: DslashVariant) {
                self.variant = variant;
            }
            fn variant(&self) -> DslashVariant {
                self.variant
            }
            fn recon_name(&self) -> &'static str {
                self.hopping().recon_name()
            }
        }
    };
}

impl_variant_tunable!(WilsonDirac);
impl_variant_tunable!(PrecWilson);
impl_variant_tunable!(MobiusDirac);
impl_variant_tunable!(PrecMobius);

/// Adapter that times one operator application at a candidate grain size,
/// on a plain vector (`nrhs = 1`) or batched over an interleaved
/// `nrhs`-column block. The key carries the block-size axis — the optimum
/// grain genuinely shifts with how many columns each site row holds, so
/// block sizes must not share cache entries.
struct OpTunable<'t, R: Real, Op: GrainTunable<R>> {
    op: &'t mut Op,
    nrhs: usize,
    input: Vec<Spinor<R>>,
    output: Vec<Spinor<R>>,
}

impl<'t, R: Real, Op: GrainTunable<R>> OpTunable<'t, R, Op> {
    fn new(op: &'t mut Op, nrhs: usize) -> Self {
        assert!(nrhs > 0, "a block needs at least one column");
        let n = op.vec_len() * nrhs;
        Self {
            input: FermionField::<R>::gaussian(n, 0xC0FFEE).data,
            output: vec![Spinor::zero(); n],
            op,
            nrhs,
        }
    }
}

impl<'t, R: Real, Op: GrainTunable<R>> Tunable for OpTunable<'t, R, Op> {
    fn key(&self) -> TuneKey {
        TuneKey::new(
            self.op.kernel_name(),
            self.op.volume_key(),
            format!("prec={}", R::NAME),
        )
        .with_nrhs(self.nrhs)
    }

    fn param_space(&self) -> ParamSpace {
        ParamSpace::grain_ladder(self.op.vec_len())
    }

    fn run(&mut self, param: TuneParam) {
        self.op.set_grain(param.grain);
        // Time what a solver runs, through the solver-facing trait (a
        // one-column block is the single-RHS kernel); `&Op` cannot fail.
        let mut op: &Op = self.op;
        let _ = FallibleOp::apply_block(&mut op, &mut self.output, &self.input, self.nrhs);
    }

    fn harness(&self) -> TimingHarness {
        TimingHarness::WallClock { reps: 2 }
    }

    fn flops(&self) -> f64 {
        self.op.flops_per_apply() * self.nrhs as f64
    }
}

/// Tune `op`'s grain size through `tuner` (sweeping on first encounter) and
/// leave the operator configured with the optimum. Returns the chosen grain.
pub fn tune_operator<R: Real, Op: GrainTunable<R>>(tuner: &Tuner, op: &mut Op) -> usize {
    tune_block_operator(tuner, op, 1)
}

/// Tune `op`'s grain size for batched applies at block size `nrhs` and
/// leave the operator configured with the optimum. Cached independently of
/// the single-RHS entry (and of other block sizes) via the key's `nrhs`
/// axis. Returns the chosen grain.
pub fn tune_block_operator<R: Real, Op: GrainTunable<R>>(
    tuner: &Tuner,
    op: &mut Op,
    nrhs: usize,
) -> usize {
    let param = {
        let mut adapter = OpTunable::new(op, nrhs);
        tuner.tune(&mut adapter)
    };
    op.set_grain(param.grain);
    param.grain
}

/// Adapter sweeping the cross product of supported [`DslashVariant`]s and a
/// grain ladder; the variant index rides in [`TuneParam::policy`]. Keyed on
/// the `layout="variant"` marker plus the gauge field's reconstruction
/// label, so the combined sweep never collides with plain grain tuning and
/// compressed-link operators tune separately from full-storage ones.
struct VariantOpTunable<'t, R: Real, Op: VariantTunable<R>> {
    op: &'t mut Op,
    variants: Vec<DslashVariant>,
    input: Vec<Spinor<R>>,
    output: Vec<Spinor<R>>,
}

impl<'t, R: Real, Op: VariantTunable<R>> VariantOpTunable<'t, R, Op> {
    fn new(op: &'t mut Op) -> Self {
        let n = op.vec_len();
        let variants = op.supported_variants();
        assert!(!variants.is_empty(), "operator supports no variants");
        Self {
            input: FermionField::<R>::gaussian(n, 0xC0FFEE).data,
            output: vec![Spinor::zero(); n],
            variants,
            op,
        }
    }
}

impl<'t, R: Real, Op: VariantTunable<R>> Tunable for VariantOpTunable<'t, R, Op> {
    fn key(&self) -> TuneKey {
        TuneKey::new(
            self.op.kernel_name(),
            self.op.volume_key(),
            format!("prec={}", R::NAME),
        )
        .with_layout("variant")
        .with_recon(self.op.recon_name())
    }

    fn param_space(&self) -> ParamSpace {
        let max_sites = self.op.vec_len().max(64);
        let mut candidates = Vec::new();
        for (vi, _) in self.variants.iter().enumerate() {
            let before = candidates.len();
            // ×2 ladder: the sweet spot for the fused 5D paths sits between
            // the ×4 rungs (e.g. grain 512 on an 8⁴ half-volume), and the
            // sweep is cheap — a handful of applies per extra rung.
            let mut grain = 64usize;
            while grain <= max_sites {
                candidates.push(TuneParam {
                    grain,
                    block: 64,
                    policy: vi,
                });
                grain *= 2;
            }
            // Tiny geometries (< 64 sites) still get one candidate per
            // variant, which also keeps the space provably nonempty.
            if candidates.len() == before {
                candidates.push(TuneParam {
                    grain: max_sites.max(1),
                    block: 64,
                    policy: vi,
                });
            }
        }
        match ParamSpace::from_candidates(candidates) {
            Some(space) => space,
            // Unreachable: the loop above pushes at least one candidate per
            // variant and `self.variants` is never empty.
            None => ParamSpace::grain_ladder(max_sites.max(1)),
        }
    }

    fn run(&mut self, param: TuneParam) {
        self.op
            .set_variant(self.variants[param.policy.min(self.variants.len() - 1)]);
        self.op.set_grain(param.grain);
        self.op.apply(&mut self.output, &self.input);
    }

    fn harness(&self) -> TimingHarness {
        // Best-of-3 per candidate: the ×2 grain ladder has close rungs, so a
        // single noisy sample could mis-rank neighboring grains.
        TimingHarness::WallClock { reps: 3 }
    }

    fn flops(&self) -> f64 {
        self.op.flops_per_apply()
    }
}

/// Jointly tune `op`'s execution variant and grain size through `tuner`
/// (sweeping every supported variant across the grain ladder on first
/// encounter) and leave the operator configured with the optimum. Returns
/// the winning variant and parameter point. Cached under the key's
/// `layout`/`recon` axes, so it coexists with [`tune_operator`] entries and
/// round-trips through the JSON cache.
pub fn tune_dslash_variant<R: Real, Op: VariantTunable<R>>(
    tuner: &Tuner,
    op: &mut Op,
) -> (DslashVariant, TuneParam) {
    let (variants, param) = {
        let mut adapter = VariantOpTunable::new(op);
        let param = tuner.tune(&mut adapter);
        (adapter.variants, param)
    };
    let variant = variants[param.policy.min(variants.len() - 1)];
    op.set_variant(variant);
    op.set_grain(param.grain);
    (variant, param)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dirac::WilsonDirac;
    use crate::field::GaugeField;
    use crate::lattice::Lattice;

    #[test]
    fn tuning_sets_grain_and_caches() {
        let lat = Lattice::new([4, 4, 4, 4]);
        let gauge = GaugeField::<f64>::hot(&lat, 3);
        let mut d = WilsonDirac::new(&lat, &gauge, 0.1, true);
        let tuner = Tuner::new();

        let g1 = tune_operator(&tuner, &mut d);
        assert_eq!(d.grain, g1);
        assert_eq!(tuner.stats().misses, 1);

        // Second operator with the same key: pure cache hit.
        let mut d2 = WilsonDirac::new(&lat, &gauge, 0.1, true);
        let g2 = tune_operator(&tuner, &mut d2);
        assert_eq!(g1, g2);
        assert_eq!(tuner.stats().hits, 1);
    }

    #[test]
    fn different_precisions_tune_separately() {
        let lat = Lattice::new([4, 4, 2, 4]);
        let gauge64 = GaugeField::<f64>::hot(&lat, 5);
        let gauge32 = gauge64.cast::<f32>();
        let mut d64 = WilsonDirac::new(&lat, &gauge64, 0.1, true);
        let mut d32 = WilsonDirac::new(&lat, &gauge32, 0.1, true);
        let tuner = Tuner::new();
        tune_operator(&tuner, &mut d64);
        tune_operator(&tuner, &mut d32);
        assert_eq!(tuner.len(), 2, "f32 and f64 keys must be distinct");
    }

    #[test]
    fn block_sizes_tune_separately_and_preserve_bits() {
        let lat = Lattice::new([4, 4, 2, 4]);
        let gauge = GaugeField::<f64>::hot(&lat, 11);
        let mut d = WilsonDirac::new(&lat, &gauge, 0.1, true);
        let tuner = Tuner::new();
        let nrhs = 3;
        let x = crate::field::FermionField::<f64>::gaussian(lat.volume() * nrhs, 2).data;
        let mut before = vec![crate::spinor::Spinor::zero(); lat.volume() * nrhs];
        d.apply_block(&mut before, &x, nrhs);

        tune_operator(&tuner, &mut d);
        tune_block_operator(&tuner, &mut d, nrhs);
        assert_eq!(
            tuner.len(),
            2,
            "nrhs=1 and nrhs={nrhs} keys must be distinct"
        );

        let mut after = vec![crate::spinor::Spinor::zero(); lat.volume() * nrhs];
        d.apply_block(&mut after, &x, nrhs);
        assert_eq!(before, after, "tuning must not change blocked results");
    }

    #[test]
    fn variant_tuning_selects_supported_variant_and_preserves_bits() {
        use crate::dirac::LinearOp;
        let lat = Lattice::new([4, 4, 2, 4]);
        let gauge = GaugeField::<f64>::hot(&lat, 13);
        let mut d = WilsonDirac::new(&lat, &gauge, 0.1, true);
        let x = crate::field::FermionField::<f64>::gaussian(lat.volume(), 6).data;
        let mut before = vec![crate::spinor::Spinor::zero(); lat.volume()];
        d.apply(&mut before, &x);

        let tuner = Tuner::new();
        let (variant, param) = tune_dslash_variant(&tuner, &mut d);
        assert!(d.supported_variants().contains(&variant));
        assert_eq!(d.variant, variant);
        assert_eq!(d.grain, param.grain);
        assert_eq!(tuner.stats().misses, 1);

        let mut after = vec![crate::spinor::Spinor::zero(); lat.volume()];
        d.apply(&mut after, &x);
        assert_eq!(before, after, "variant tuning must not change results");

        // Same operator again: pure cache hit, same winner.
        let mut d2 = WilsonDirac::new(&lat, &gauge, 0.1, true);
        let (v2, p2) = tune_dslash_variant(&tuner, &mut d2);
        assert_eq!((v2, p2), (variant, param));
        assert_eq!(tuner.stats().hits, 1);
    }

    #[test]
    fn variant_and_grain_tuning_use_distinct_keys() {
        let lat = Lattice::new([4, 4, 2, 4]);
        let gauge = GaugeField::<f64>::hot(&lat, 17);
        let mut d = WilsonDirac::new(&lat, &gauge, 0.1, true);
        let tuner = Tuner::new();
        tune_operator(&tuner, &mut d);
        tune_dslash_variant(&tuner, &mut d);
        assert_eq!(tuner.len(), 2, "layout axis must separate the entries");
    }

    #[test]
    fn variant_tune_entries_round_trip_through_json() {
        let lat = Lattice::new([4, 4, 2, 4]);
        let gauge = GaugeField::<f64>::hot(&lat, 19);
        let mut d = WilsonDirac::new(&lat, &gauge, 0.1, true);
        let tuner = Tuner::new();
        let (variant, param) = tune_dslash_variant(&tuner, &mut d);

        let json = tuner.to_json();
        assert!(json.contains("\"layout\""), "layout axis serialized");
        assert!(json.contains("\"recon\""), "recon axis serialized");
        let restored = Tuner::new();
        restored.merge_json(&json).expect("cache parses");
        let mut d2 = WilsonDirac::new(&lat, &gauge, 0.1, true);
        let (v2, p2) = tune_dslash_variant(&restored, &mut d2);
        assert_eq!((v2, p2), (variant, param), "restored cache must hit");
        assert_eq!(restored.stats().hits, 1);
        assert_eq!(restored.stats().misses, 0);
    }

    #[test]
    fn tuned_result_is_unchanged_by_grain() {
        use crate::dirac::LinearOp;
        let lat = Lattice::new([4, 4, 2, 4]);
        let gauge = GaugeField::<f64>::hot(&lat, 7);
        let mut d = WilsonDirac::new(&lat, &gauge, 0.1, true);
        let x = crate::field::FermionField::<f64>::gaussian(lat.volume(), 1).data;
        let mut before = vec![crate::spinor::Spinor::zero(); lat.volume()];
        d.apply(&mut before, &x);
        let tuner = Tuner::new();
        tune_operator(&tuner, &mut d);
        let mut after = vec![crate::spinor::Spinor::zero(); lat.volume()];
        d.apply(&mut after, &x);
        assert_eq!(before, after);
    }
}
