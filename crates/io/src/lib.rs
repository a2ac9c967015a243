//! Lattice field I/O.
//!
//! The paper's workflow writes every propagator to disk between the GPU
//! solve stage and the CPU contraction stage, through parallel HDF5
//! ("I/O takes about 0.5% of our total application time"). HDF5 is not
//! available here, so this crate implements a chunked, checksummed binary
//! container with the same role:
//!
//! - a JSON header (name, element type, shape, free-form metadata),
//! - fixed-size chunks, each carrying a CRC-32C of its payload (three
//!   interleaved SSE4.2 `crc32` chains where the CPU has the instruction,
//!   slice-by-8 elsewhere).
//!
//! Gauge fields, propagator bundles, correlators and solver checkpoints all
//! serialize through the same container, by one encoder and one decoder.
//! A writer encodes its object's records (a spinor, a link, a complex
//! number, a real) straight into the framed file image: one pool task per
//! chunk writes the chunk's length, its payload and its CRC-32C, and the
//! image goes to the file in one write. A reader verifies every chunk's
//! CRC-32C in place in the file image, then decodes from the verified chunks
//! straight into the destination object; no payload is staged or
//! concatenated on either path except where an owned [`Container`] or
//! [`SalvagedContainer`] is asked for.
//!
//! Corruption of any chunk byte is detected on read (the header JSON
//! carries no checksum), and detection is recoverable rather than fatal:
//! bounded re-read retries ([`read_container_with_retry`]) handle transient
//! read-path faults, and partial salvage ([`salvage_container`],
//! [`read_propagator_salvaged`]) recovers the intact chunks of a damaged
//! file so only the lost pieces need recomputing.

pub mod bundle;
pub mod checkpoint;
pub mod container;
pub mod fields;
#[cfg(test)]
mod tests;

/// The chunk checksum, shared with the halo frames of `lqcd_core::comms`.
pub use lqcd_core::crc32c;

pub use checkpoint::{read_checkpoint, write_checkpoint, CheckpointStore};

pub use bundle::{
    read_propagator, read_propagator_salvaged, write_propagator, BundlePrecision,
    SalvagedPropagator,
};
pub use container::{
    parse_container, read_container, read_container_retrying, read_container_with_retry,
    read_header, salvage_container, salvage_container_bytes, write_container, Container, Header,
    SalvagedContainer,
};
pub use fields::{read_correlator, read_gauge, write_correlator, write_gauge};

/// Errors produced by this crate.
#[derive(Debug)]
pub enum IoError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// Malformed file (bad magic, truncated, bad JSON).
    Format(String),
    /// A chunk's CRC-32C did not match its payload.
    ChecksumMismatch {
        /// Index of the corrupt chunk.
        chunk: usize,
    },
    /// The file's shape does not match the requested object.
    ShapeMismatch(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Format(m) => write!(f, "format error: {m}"),
            IoError::ChecksumMismatch { chunk } => {
                write!(f, "checksum mismatch in chunk {chunk}")
            }
            IoError::ShapeMismatch(m) => write!(f, "shape mismatch: {m}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}
