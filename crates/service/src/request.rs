//! The solve-request schema and the content-addressed cache key derived
//! from it.
//!
//! The key is *canonical*: every field that changes the answer is folded in
//! with its exact bit pattern, and nothing else is. Two lessons are baked
//! in from cache-aliasing bugs this repository has already paid for:
//!
//! - the configuration enters by **content hash** of the gauge links, not
//!   by id or path — re-generating a configuration under a different id
//!   must still hit, and two configurations that happen to share an id
//!   namespace must never alias;
//! - the quark mass enters as **raw `f64` bits** (`to_bits`), never as a
//!   formatted string — `0.05` and `0.05 + 1 ulp` are different systems
//!   and must be different keys.
//!
//! Equality on [`CacheKey`] compares the *full tuple*, so even a 64-bit
//! config-hash collision cannot make two distinct requests share a cache
//! slot: the colliding entries simply occupy different keys.

/// Working tolerance tier of a solve. Sloppy solves are the high-volume
/// AMA bias samples; double solves are the correction term.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Precision {
    /// Full tolerance (`1e-9`).
    Double,
    /// Relaxed tolerance (`1e-5`), the all-mode-averaging workhorse.
    Sloppy,
}

impl Precision {
    /// CG relative tolerance for this tier.
    pub fn tol(self) -> f64 {
        match self {
            Precision::Double => 1e-9,
            Precision::Sloppy => 1e-5,
        }
    }

    /// Stable one-byte tag folded into the cache key.
    pub fn tag(self) -> u8 {
        match self {
            Precision::Double => 0,
            Precision::Sloppy => 1,
        }
    }
}

/// Which solve pipeline serves the request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Policy {
    /// In-process Wilson normal-equation solve, batched multi-RHS.
    Dense,
    /// Sharded Möbius normal-equation solve through the fault-tolerant
    /// `cg_ft` stack (comm faults injected, checkpoint/restart live).
    Sharded,
}

impl Policy {
    /// Stable one-byte tag folded into the cache key.
    pub fn tag(self) -> u8 {
        match self {
            Policy::Dense => 0,
            Policy::Sharded => 1,
        }
    }
}

/// One solve request as admitted by the gateway.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SolveRequest {
    /// Submitting tenant (contraction campaign), for fair scheduling.
    pub tenant: u32,
    /// Which gauge configuration to solve against (gateway-local id; the
    /// cache key uses the configuration's content hash instead).
    pub config_id: u32,
    /// Seed of the Gaussian source vector.
    pub source_seed: u64,
    /// Quark mass.
    pub mass: f64,
    /// Tolerance tier.
    pub precision: Precision,
    /// Solve pipeline.
    pub policy: Policy,
    /// Arrival time in virtual ticks (monotone non-decreasing across a
    /// generated stream).
    pub arrival: u64,
}

/// Canonical content-addressed identity of a solve. See the module docs
/// for why each field has the representation it does.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// FNV-1a over the raw bit pattern of every gauge link of the
    /// configuration (not its id, not its path).
    pub config_hash: u64,
    /// Source-vector seed (the source is fully determined by it).
    pub source_seed: u64,
    /// `mass.to_bits()` — exact, every ulp distinct.
    pub mass_bits: u64,
    /// [`Precision::tag`].
    pub precision: u8,
    /// [`Policy::tag`].
    pub policy: u8,
}

impl CacheKey {
    /// Derive the canonical key for `req` given the content hash of the
    /// configuration it names.
    pub fn canonical(req: &SolveRequest, config_hash: u64) -> Self {
        CacheKey {
            config_hash,
            source_seed: req.source_seed,
            mass_bits: req.mass.to_bits(),
            precision: req.precision.tag(),
            policy: req.policy.tag(),
        }
    }

    /// Stable text form of the key (audit messages name keys by it). Every
    /// key field appears in full, so distinct keys never share a stem.
    pub fn file_stem(&self) -> String {
        format!(
            "c{:016x}-s{:016x}-m{:016x}-p{}{}",
            self.config_hash, self.source_seed, self.mass_bits, self.precision, self.policy
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(mass: f64) -> SolveRequest {
        SolveRequest {
            tenant: 0,
            config_id: 3,
            source_seed: 11,
            mass,
            precision: Precision::Sloppy,
            policy: Policy::Dense,
            arrival: 0,
        }
    }

    #[test]
    fn one_ulp_of_mass_changes_the_key() {
        let m = 0.05f64;
        let m_ulp = f64::from_bits(m.to_bits() + 1);
        assert_ne!(m, m_ulp);
        let k = CacheKey::canonical(&req(m), 42);
        let k_ulp = CacheKey::canonical(&req(m_ulp), 42);
        assert_ne!(k, k_ulp, "mass 0.05 and 0.05+1ulp must never alias");
        assert_ne!(k.file_stem(), k_ulp.file_stem());
    }

    #[test]
    fn key_uses_content_hash_not_config_id() {
        let mut a = req(0.05);
        let mut b = req(0.05);
        a.config_id = 1;
        b.config_id = 2;
        // Same content hash → same key, whatever the ids say.
        assert_eq!(CacheKey::canonical(&a, 7), CacheKey::canonical(&b, 7));
        // Different content under the same id → different key.
        assert_ne!(CacheKey::canonical(&a, 7), CacheKey::canonical(&a, 8));
    }

    #[test]
    fn precision_and_policy_are_key_material() {
        let r = req(0.2);
        let base = CacheKey::canonical(&r, 1);
        let mut d = r;
        d.precision = Precision::Double;
        assert_ne!(base, CacheKey::canonical(&d, 1));
        let mut s = r;
        s.policy = Policy::Sharded;
        assert_ne!(base, CacheKey::canonical(&s, 1));
    }
}
