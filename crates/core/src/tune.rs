//! Autotuning of the stencil kernels.
//!
//! QUDA tunes each kernel's CUDA launch geometry at first encounter and
//! caches the optimum. The analogous knob for our rayon kernels is the
//! parallel grain size (sites per task). This module adapts any of the
//! Dirac operators to the [`autotune::Tunable`] interface so a shared
//! [`autotune::Tuner`] can sweep and cache per (kernel, volume, precision).

use crate::dirac::LinearOp;
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
