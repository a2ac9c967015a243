use serde::{Deserialize, Serialize};

/// One point in a kernel's tuning space: a policy index.
///
/// QUDA tunes CUDA launch geometry (block/grid dims, shared-memory bytes).
/// Our kernels run on CPU threads and decide their parallel grain once, in
/// the kernel, so what is left to tune is a discrete choice, such as which
/// communication policy stages a halo exchange.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default, Serialize, Deserialize)]
pub struct TuneParam {
    /// Discrete policy selector (e.g. which communication policy).
    pub policy: usize,
}

/// A finite candidate set to sweep: one candidate per policy index.
#[derive(Clone, Debug)]
pub struct ParamSpace {
    candidates: Vec<TuneParam>,
}

impl ParamSpace {
    /// One candidate per policy index in `0..n_policies`.
    pub fn policies(n_policies: usize) -> Self {
        let candidates = (0..n_policies.max(1))
            .map(|policy| TuneParam { policy })
            .collect();
        Self { candidates }
    }

    /// All candidate points.
    pub fn candidates(&self) -> &[TuneParam] {
        &self.candidates
    }

    /// Number of candidate points.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// Whether the space is empty (never true for constructed spaces).
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }
}
