use serde::{Deserialize, Serialize};

/// One point in a kernel's launch-parameter space.
///
/// QUDA tunes CUDA launch geometry (block/grid dims, shared-memory bytes).
/// Our kernels run on CPU threads, so the analogous knobs are the parallel
/// *grain size* (sites per rayon task), an inner *blocking factor* (sites per
/// cache block), and a free `policy` index used for discrete choices such as
/// communication strategies.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct TuneParam {
    /// Sites handed to one parallel task at a time.
    pub grain: usize,
    /// Inner cache-blocking factor (sites per block within a task).
    pub block: usize,
    /// Discrete policy selector (e.g. which communication policy).
    pub policy: usize,
}

impl TuneParam {
    /// Parameter point with a policy index only (grain/block irrelevant).
    pub fn policy_only(policy: usize) -> Self {
        Self {
            grain: 1,
            block: 1,
            policy,
        }
    }
}

impl Default for TuneParam {
    fn default() -> Self {
        Self {
            grain: 1024,
            block: 64,
            policy: 0,
        }
    }
}

/// A finite candidate set to sweep: one candidate per policy index.
#[derive(Clone, Debug)]
pub struct ParamSpace {
    candidates: Vec<TuneParam>,
}

impl ParamSpace {
    /// One candidate per policy index in `0..n_policies`.
    pub fn policies(n_policies: usize) -> Self {
        let candidates = (0..n_policies.max(1)).map(TuneParam::policy_only).collect();
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
