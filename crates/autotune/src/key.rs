use serde::{Deserialize, Serialize};
use std::fmt;

/// Unique identifier for a tunable computation.
///
/// Mirrors QUDA's `TuneKey`: a kernel name, a volume string describing the
/// local problem, and an auxiliary string carrying anything else that changes
/// the optimum (precision, parity, communication topology, machine name).
/// Batched multi-RHS kernels additionally carry the block size `nrhs` —
/// the optimum policy genuinely shifts with how many right-hand-sides share
/// each gauge-link load, so block sizes must not share cache entries.
/// Two computations with equal keys share a cached optimum; anything that
/// could shift the optimum must be folded into one of the fields.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize, Debug)]
pub struct TuneKey {
    /// Kernel or algorithm name, e.g. `"dslash_wilson"` or `"halo_exchange"`.
    pub name: String,
    /// Problem-geometry component, e.g. `"48x48x48x64x12"`.
    pub volume: String,
    /// Auxiliary discriminator, e.g. `"prec=half,parity=odd,nodes=4"`.
    pub aux: String,
    /// Right-hand-side block size of a batched kernel; `1` for the
    /// single-RHS kernels (and absent from their displayed keys and from
    /// pre-batching cache files, which [`crate::Tuner::merge_json`] reads
    /// as single-RHS).
    pub nrhs: usize,
}

impl TuneKey {
    /// Build a single-RHS key from its three string components.
    pub fn new(name: impl Into<String>, volume: impl Into<String>, aux: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            volume: volume.into(),
            aux: aux.into(),
            nrhs: 1,
        }
    }

    /// The same key at RHS block size `nrhs`.
    pub fn with_nrhs(mut self, nrhs: usize) -> Self {
        self.nrhs = nrhs;
        self
    }
}

impl fmt::Display for TuneKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}::{}::{}", self.name, self.volume, self.aux)?;
        if self.nrhs != 1 {
            write!(f, "::rhs{}", self.nrhs)?;
        }
        Ok(())
    }
}
