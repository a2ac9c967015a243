//! Service-level error type. The gateway and cache are library code in the
//! unattended-at-scale panic scope: every failure propagates as a
//! [`ServiceError`] instead of panicking under load.

use std::fmt;

/// Why a service operation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The request or service configuration is unusable (unknown
    /// configuration id, grid does not decompose the lattice, …).
    Config(String),
    /// A filesystem operation of the caller failed (e.g. creating the
    /// spill directory). No cache path constructs it: the cache degrades
    /// every spill write or revive failure to a recompute.
    Io(String),
    /// An in-run bit-identity audit failed: a cached or batched response
    /// did not match a fresh solo solve bit-for-bit.
    Audit(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Config(m) => write!(f, "service configuration error: {m}"),
            ServiceError::Io(m) => write!(f, "service io error: {m}"),
            ServiceError::Audit(m) => write!(f, "service audit failure: {m}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<ServiceError> for std::io::Error {
    fn from(e: ServiceError) -> Self {
        std::io::Error::other(e.to_string())
    }
}
