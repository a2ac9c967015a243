//! Property-based tests over the fault-tolerant transport and checkpoint
//! serialization: exactly-once delivery under duplication + reordering,
//! dedup-by-seq idempotence, and CRC-gated checkpoint restore.

use lqcd::core::comms::{CommFaultProfile, CommRetryPolicy, FaultyTransport};
use lqcd::core::prelude::*;
use lqcd::core::solver::{CgCheckpoint, CKPT_SPINOR_F64};
use lqcd::io::{read_checkpoint, CheckpointStore, IoError};
use proptest::prelude::*;

fn arb_payload(len: usize) -> impl Strategy<Value = Vec<Spinor<f64>>> {
    proptest::collection::vec(-100.0f64..100.0, len * 24).prop_map(move |v| {
        let mut out = vec![Spinor::zero(); len];
        for (i, s) in out.iter_mut().enumerate() {
            for sp in 0..4 {
                for c in 0..3 {
                    let k = (i * 12 + sp * 3 + c) * 2;
                    s.s[sp].c[c] = lqcd::core::complex::Complex::new(v[k], v[k + 1]);
                }
            }
        }
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Under any mix of duplication and reordering (faults that multiply or
    /// shuffle frames but never destroy them), a send/recv sequence delivers
    /// every payload exactly once, in order, bit-identically.
    #[test]
    fn exactly_once_under_duplication_and_reordering(
        seed in any::<u64>(),
        dup in 0.0f64..0.9,
        reorder in 0.0f64..0.9,
        payload in arb_payload(3),
    ) {
        let mut tr = FaultyTransport::<f64>::new(2);
        tr.set_faults(
            CommFaultProfile {
                duplicate_prob: dup,
                reorder_prob: reorder,
                seed,
                ..CommFaultProfile::default()
            },
            CommRetryPolicy::default(),
        );
        for seq in 0..16u64 {
            let mut p = payload.clone();
            // Tag the payload with the seq so cross-seq mixups are visible.
            p[0].s[0].c[0] = lqcd::core::complex::Complex::new(seq as f64, 0.0);
            tr.send(0, 1, 2, 1, p.clone(), seq).unwrap();
            let got = tr.recv(1, 2, 1, 0, seq, p.len()).unwrap();
            prop_assert_eq!(got.payload, p, "seq {} must arrive exactly once, intact", seq);
        }
        // A duplicate of the final seq is still parked in the mailbox; a
        // drain recv (which must come up empty-handed) flushes it through
        // the seq filter so the accounting below is exact.
        prop_assert!(tr.recv(1, 2, 1, 0, 16, payload.len()).is_err());
        let stats = tr.fault_stats();
        // Duplicated and reordered frames were all discarded by seq dedup,
        // never delivered twice or out of order.
        prop_assert_eq!(
            stats.duplicates_dropped,
            stats.injected_duplicates + stats.injected_reorders,
            "every surplus frame is dropped by the seq filter"
        );
        prop_assert_eq!(stats.crc_failures, 0);
    }

    /// Dedup is idempotent in seq: re-sending an already-consumed seq (a
    /// late retransmission) never corrupts the delivery of the next seq.
    #[test]
    fn stale_retransmissions_are_ignored(
        payload in arb_payload(2),
        stale_repeats in 1usize..4,
    ) {
        let tr = {
            let mut t = FaultyTransport::<f64>::new(2);
            t.set_faults(CommFaultProfile::default(), CommRetryPolicy::default());
            t
        };
        // Deliver seq 0 cleanly.
        tr.send(0, 1, 0, 0, payload.clone(), 0).unwrap();
        let got = tr.recv(1, 0, 0, 0, 0, payload.len()).unwrap();
        prop_assert_eq!(&got.payload, &payload);
        // A confused sender re-sends seq 0 several times, then seq 1.
        for _ in 0..stale_repeats {
            tr.send(0, 1, 0, 0, payload.clone(), 0).unwrap();
        }
        let mut next = payload.clone();
        next[0].s[0].c[0] = lqcd::core::complex::Complex::new(-7.0, 7.0);
        tr.send(0, 1, 0, 0, next.clone(), 1).unwrap();
        let got = tr.recv(1, 0, 0, 0, 1, next.len()).unwrap();
        prop_assert_eq!(got.payload, next, "stale seq-0 frames must not shadow seq 1");
        prop_assert_eq!(tr.fault_stats().duplicates_dropped, stale_repeats as u64);
    }

    /// CG checkpoints survive serialization bit-exactly, and the two-slot
    /// store's CRC gate rejects a corrupted snapshot, restoring from the
    /// previous one instead.
    #[test]
    fn checkpoint_roundtrip_and_crc_gated_restore(
        case in any::<u32>(),
        iteration in 0usize..10_000,
        rho in 1e-12f64..1e6,
        x in arb_payload(2),
        r in arb_payload(2),
        p in arb_payload(2),
    ) {
        let ckpt = CgCheckpoint { iteration, rho, x, r, p };
        let flat = ckpt.to_f64_vec();
        prop_assert_eq!(flat.len(), 3 + 3 * 2 * CKPT_SPINOR_F64);
        let back = CgCheckpoint::<f64>::from_f64_vec(&flat).unwrap();
        prop_assert_eq!(&back, &ckpt, "flat round-trip must be bit-exact");
        // Truncation is rejected, not misparsed.
        prop_assert!(CgCheckpoint::<f64>::from_f64_vec(&flat[..flat.len() - 1]).is_none());

        // Through the on-disk store: save twice (slot a then b), corrupt the
        // newest file, and require the restore to fall back to the older
        // snapshot rather than resume from garbage.
        let dir = std::env::temp_dir()
            .join(format!("transport-props-{}-{case}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut store = CheckpointStore::new(&dir.join("cg"), "cg-state");
        let older = CgCheckpoint {
            iteration: iteration.saturating_sub(1),
            ..ckpt.clone()
        };
        store.save(&older.to_f64_vec()).unwrap();
        store.save(&flat).unwrap();

        let newest = store.slot_paths()[1].to_path_buf();
        let mut bytes = std::fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        std::fs::write(&newest, &bytes).unwrap();
        prop_assert!(matches!(
            read_checkpoint(&newest),
            Err(IoError::ChecksumMismatch { .. })
        ));
        let (seq, data) = store.load_latest().unwrap();
        prop_assert_eq!(seq, 0, "restore falls back to the older slot");
        let restored = CgCheckpoint::<f64>::from_f64_vec(&data).unwrap();
        prop_assert_eq!(restored, older);
        std::fs::remove_dir_all(&dir).ok();
    }
}
