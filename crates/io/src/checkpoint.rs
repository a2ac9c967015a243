//! CRC-protected checkpoint storage over the LQIO container format.
//!
//! Solver checkpoint-restart (the fault-tolerant CG in `lqcd-core`) needs a
//! durable place to park recurrence snapshots so a rank loss mid-solve does
//! not cost the whole Krylov history. This module stores an opaque `f64`
//! payload — the solver serializes its own state, keeping this crate free of
//! any dependency on field types — inside the same chunked, CRC-32C-framed
//! container used for propagators, so corruption of any byte of a snapshot
//! is detected on read rather than silently resumed from.
//!
//! [`CheckpointStore`] adds the durability policy on top: snapshots rotate
//! between two slot files, so the previous snapshot is never overwritten
//! while the new one is being written. If the newest slot fails its CRC on
//! restore (torn write, bit rot, deliberate fault injection), the store
//! falls back to the surviving older slot instead of failing the restart.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::container::{fill_records, read_verified, write_framed, Header};
use crate::IoError;

/// Metadata key under which the checkpoint sequence number is stored.
const SEQ_KEY: &str = "checkpoint_seq";

/// Write one checkpoint payload to `path`.
///
/// `label` names the dataset in the container header; `seq` is a caller
/// counter (monotone per store) recorded in the metadata and returned by
/// [`read_checkpoint`], letting a restore pick the newer of two candidates.
pub fn write_checkpoint(path: &Path, label: &str, seq: u64, data: &[f64]) -> Result<(), IoError> {
    let mut metadata = BTreeMap::new();
    metadata.insert(SEQ_KEY.to_string(), seq.to_string());
    write_framed(
        path,
        Header::new(label, "f64", vec![data.len()], metadata),
        data.len() * 8,
        |at, out| fill_records(at, out, |i, b| *b = data[i].to_le_bytes()),
    )
}

/// Read one checkpoint payload from `path`, returning `(seq, data)`.
///
/// Any CRC-32C mismatch in the container surfaces as
/// [`IoError::ChecksumMismatch`]; a missing or malformed sequence number is
/// a [`IoError::Format`] error.
pub fn read_checkpoint(path: &Path) -> Result<(u64, Vec<f64>), IoError> {
    read_verified(path, |header, payload| {
        let seq = header
            .metadata
            .get(SEQ_KEY)
            .and_then(|s| s.parse::<u64>().ok())
            .ok_or_else(|| IoError::Format(format!("missing or bad {SEQ_KEY} metadata")))?;
        header.check_payload("f64", payload.len())?;
        Ok((seq, payload.decode_vec(|b| f64::from_le_bytes(*b))))
    })
}

/// Two-slot rotating checkpoint store.
///
/// Writes alternate between `<stem>.a.lqio` and `<stem>.b.lqio`; the slot
/// holding the older snapshot is always the one overwritten, so the most
/// recent *intact* snapshot survives a failure at any point during a write.
/// [`CheckpointStore::load_latest`] returns the newest slot whose CRC
/// verifies, falling back to the other slot before giving up.
#[derive(Debug)]
pub struct CheckpointStore {
    slots: [PathBuf; 2],
    label: String,
    /// Sequence number the next `save` will stamp.
    next_seq: u64,
    /// Slot index the next `save` will write.
    next_slot: usize,
}

impl CheckpointStore {
    /// Create a store writing `<stem>.a.lqio` / `<stem>.b.lqio`.
    ///
    /// The store starts fresh (sequence 0, slot A first); it does not scan
    /// for existing slot files — use [`CheckpointStore::load_latest`] to
    /// recover state from a previous run before saving over it.
    pub fn new(stem: &Path, label: &str) -> Self {
        let slot = |suffix: &str| {
            let mut name = stem.file_name().map_or_else(
                || "checkpoint".to_string(),
                |n| n.to_string_lossy().into_owned(),
            );
            name.push_str(suffix);
            stem.with_file_name(name)
        };
        Self {
            slots: [slot(".a.lqio"), slot(".b.lqio")],
            label: label.to_string(),
            next_seq: 0,
            next_slot: 0,
        }
    }

    /// The two slot paths (for tests and cleanup).
    pub fn slot_paths(&self) -> [&Path; 2] {
        [&self.slots[0], &self.slots[1]]
    }

    /// Persist one snapshot, rotating slots.
    pub fn save(&mut self, data: &[f64]) -> Result<(), IoError> {
        write_checkpoint(
            &self.slots[self.next_slot],
            &self.label,
            self.next_seq,
            data,
        )?;
        self.next_seq += 1;
        self.next_slot ^= 1;
        Ok(())
    }

    /// Load the newest snapshot that passes its CRC.
    ///
    /// Returns `(seq, data)` of the winning slot. If both slots are
    /// unreadable, returns slot A's (`<stem>.a.lqio`) error, whichever
    /// slot was written last; slot B's error is dropped.
    pub fn load_latest(&self) -> Result<(u64, Vec<f64>), IoError> {
        let mut best: Option<(u64, Vec<f64>)> = None;
        let mut first_err: Option<IoError> = None;
        for path in &self.slots {
            match read_checkpoint(path) {
                Ok((seq, data)) => {
                    if best.as_ref().is_none_or(|(s, _)| seq > *s) {
                        best = Some((seq, data));
                    }
                }
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        match best {
            Some(hit) => Ok(hit),
            None => Err(first_err
                .unwrap_or_else(|| IoError::Format("checkpoint store has no slots".into()))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("lqio-ckpt-{tag}-{}", std::process::id()));
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn checkpoint_roundtrip_preserves_bits() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("cg.lqio");
        let data: Vec<f64> = (0..513).map(|i| (i as f64).sin() * 1e3).collect();
        write_checkpoint(&path, "cg-state", 7, &data).unwrap();
        let (seq, back) = read_checkpoint(&path).unwrap();
        assert_eq!(seq, 7);
        assert_eq!(back.len(), data.len());
        for (a, b) in back.iter().zip(&data) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_checkpoint_is_rejected() {
        let dir = tmpdir("corrupt");
        let path = dir.join("cg.lqio");
        let data: Vec<f64> = (0..64).map(|i| i as f64).collect();
        write_checkpoint(&path, "cg-state", 0, &data).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() - 17; // inside the payload chunk
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        match read_checkpoint(&path) {
            Err(IoError::ChecksumMismatch { .. }) => {}
            other => panic!("corruption must fail the CRC, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn hostile_checkpoint_files_are_errors_never_panics_or_wrong_data() {
        let dir = tmpdir("hostile");
        let path = dir.join("cg.lqio");
        let data: Vec<f64> = (0..64).map(|i| (i as f64).cos()).collect();
        write_checkpoint(&path, "cg-state", 7, &data).unwrap();
        let image = fs::read(&path).unwrap();
        // The sequence number sits in the unchecksummed header: a flip in
        // its digit may parse as another number. Nothing else may change.
        let key = format!("\"{SEQ_KEY}\":\"7\"");
        let at = image.windows(key.len()).position(|w| w == key.as_bytes());
        let digit = at.expect("seq in header") + key.len() - 2;
        crate::tests::assert_hostile_reads(&path, &image, 1, read_checkpoint, |(seq, v), byte| {
            v.iter()
                .map(|x| x.to_bits())
                .eq(data.iter().map(|x| x.to_bits()))
                && (*seq == 7 || byte == digit)
        });
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_rotates_and_falls_back_on_corruption() {
        let dir = tmpdir("rotate");
        let mut store = CheckpointStore::new(&dir.join("cg"), "cg-state");
        store.save(&[1.0, 2.0]).unwrap(); // seq 0 → slot a
        store.save(&[3.0, 4.0]).unwrap(); // seq 1 → slot b
        store.save(&[5.0, 6.0]).unwrap(); // seq 2 → slot a (rotated)

        let (seq, data) = store.load_latest().unwrap();
        assert_eq!((seq, data.as_slice()), (2, &[5.0, 6.0][..]));

        // Corrupt the newest slot: the store must restore the previous one.
        let newest = store.slot_paths()[0].to_path_buf();
        let mut bytes = fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&newest, &bytes).unwrap();
        let (seq, data) = store.load_latest().unwrap();
        assert_eq!((seq, data.as_slice()), (1, &[3.0, 4.0][..]));

        // Corrupt both: the restore fails loudly instead of resuming garbage.
        let older = store.slot_paths()[1].to_path_buf();
        let mut bytes = fs::read(&older).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&older, &bytes).unwrap();
        assert!(store.load_latest().is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_store_reports_missing_slots() {
        let dir = tmpdir("empty");
        let store = CheckpointStore::new(&dir.join("cg"), "cg-state");
        assert!(store.load_latest().is_err());
        fs::remove_dir_all(&dir).unwrap();
    }
}
