//! Lattice QCD core library.
//!
//! Implements the numerical heart of the paper "Simulating the weak death of
//! the neutron in a femtoscale universe with near-Exascale computing"
//! (Berkowitz et al., SC18): SU(3) gauge fields on a 4D lattice, the Wilson
//! and Möbius domain-wall Dirac operators with red–black preconditioning,
//! mixed-precision Krylov solvers with reliable updates, quenched gauge
//! generation, quark propagators, hadronic contractions, and the
//! Feynman–Hellmann propagators that give the exponential improvement in the
//! axial-coupling signal.
//!
//! # Quick start
//!
//! ```
//! use lqcd_core::prelude::*;
//!
//! // A tiny quenched lattice with a hot start.
//! let lat = Lattice::new([4, 4, 4, 8]);
//! let gauge = GaugeField::<f64>::hot(&lat, 42);
//!
//! // Solve the Möbius domain-wall Dirac equation for a random source.
//! let params = MobiusParams::standard(4, 0.1);
//! let d = MobiusDirac::new(&lat, &gauge, params);
//! let mut x = vec![Spinor::zero(); d.vec_len()];
//! let b = FermionField::<f64>::gaussian(d.vec_len(), 1).data;
//! let stats = cgne(&d, &mut x, &b, CgParams::default());
//! assert!(stats.converged);
//! ```

// Index loops over multiple coupled arrays are the natural idiom in stencil
// and contraction code; iterator rewrites obscure the site arithmetic.
#![allow(clippy::needless_range_loop)]

pub mod blas;
pub mod block;
pub mod comms;
pub mod complex;
pub mod contract;
pub mod crc32c;
pub mod dirac;
pub mod fh;
pub mod field;
pub mod flops;
pub mod gamma;
pub mod gauge;
pub mod halfprec;
pub mod lattice;
pub mod prop;
pub mod real;
pub mod recon;
pub mod reduce;
pub mod simd;
pub mod solver;
pub mod spinor;
pub mod su3;
pub mod threads;

/// Convenient re-exports of the most used items.
pub mod prelude {
    pub use crate::blas;
    pub use crate::block::BlockSpinor;
    pub use crate::comms::{
        tune_comm_policy, CommStats, DomainDecomposition, ShardedField, ShardedHopping,
    };
    pub use crate::complex::{Complex, C32, C64};
    pub use crate::contract::{
        effective_mass, meson_correlator, pion_correlator, pion_correlator_momentum,
        proton_correlator, proton_correlator_general,
    };
    pub use crate::dirac::{
        DiracOp, HoppingKernel, LinearOp, MobiusDirac, MobiusParams, NormalOp, PrecMobius,
        PrecWilson, WilsonDirac,
    };
    pub use crate::fh::{effective_ga, fh_nucleon_correlator, FeynmanHellmann};
    pub use crate::field::{FermionField, GaugeField, GaugeLinks};
    pub use crate::gamma::{gamma5_dense, gamma_dense, SpinMatrix, NS};
    pub use crate::gauge::{average_plaquette, HeatbathParams, QuenchedEnsemble};
    pub use crate::halfprec::{HalfFermionField, HalfGaugeField, HalfRecon12Gauge};
    pub use crate::lattice::{Lattice, Parity, ND};
    pub use crate::prop::{
        point_source, wall_source, z2_noise_source, Propagator, PropagatorSolver, SolverKind,
    };
    pub use crate::real::Real;
    pub use crate::recon::{Recon12Gauge, Recon8Gauge};
    pub use crate::solver::{cg, cg_block, cgne, mixed_cg, CgParams, MixedParams, SolveStats};
    pub use crate::spinor::Spinor;
    pub use crate::su3::{ColorVec, Su3, NC};
}

pub use prelude::*;
