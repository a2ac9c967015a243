//! Seeded-defect tests for the vector-clock race detector.
//!
//! Built (and meaningful) only with `--features race-detect`, which
//! threads `checkmate::race` through the vendored `parking_lot`, `rayon`,
//! and `crossbeam` shims. Two directions are proven here:
//!
//! - **teeth**: a deliberately unsynchronized shared counter — conflicting
//!   writes with no lock, channel, or pool-handoff edge between them —
//!   must produce a race report;
//! - **fidelity**: the same access pattern ordered by each real sync
//!   mechanism (a `parking_lot` lock, a pool job's publish/join handoff, a
//!   halo transport's send/recv through its mailbox lock) must stay
//!   report-free, so the blocking CI race step cannot cry wolf on the
//!   determinism suites.
//!
//! The detector's state is process-global, so all phases share one `#[test]`
//! with explicit resets; this file is its own test binary, keeping other
//! suites out of the same process.
#![cfg(feature = "race-detect")]

use checkmate::race;
use lqcd::core::comms::{FaultyTransport, BOX_FWD};
use lqcd::core::spinor::Spinor;
use parking_lot::Mutex;

#[test]
fn seeded_unsync_counter_is_caught_and_synced_patterns_are_clean() {
    let prev = race::set_panic_on_race(false);

    // Phase 1 (teeth): two threads bump a shared counter with no sync
    // edge. The `AtomicU64` keeps this memory-safe; `Relaxed` ordering
    // means no happens-before edge, which is precisely the defect class
    // the detector exists to flag.
    race::reset();
    let counter = std::sync::atomic::AtomicU64::new(0);
    let key = race::key("defect.unsync_counter");
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                race::on_write(key);
                counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            });
        }
    });
    assert_eq!(counter.load(std::sync::atomic::Ordering::Relaxed), 2);
    let reports = race::take_reports();
    assert!(
        !reports.is_empty(),
        "unsynchronized counter writes must be reported"
    );
    assert!(
        reports.iter().all(|r| r.name == "defect.unsync_counter"),
        "reports must name the racing location: {reports:?}"
    );

    // Phase 2 (fidelity, locks): the same counter guarded by the
    // parking_lot shim. Lock/unlock edges order the writes; no report.
    race::reset();
    let locked = Mutex::new(0u64);
    let key = race::key("sync.locked_counter");
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                let mut guard = locked.lock();
                race::on_write(key);
                *guard += 1;
            });
        }
    });
    assert!(
        race::take_reports().is_empty(),
        "lock-ordered writes must not be reported"
    );

    // Phase 3 (fidelity, pool handoff): pool chunks write disjoint marked
    // locations and the caller reads them all after the join. The job's
    // publish/join edges (plus the per-chunk exactly-once marks the pool
    // itself records) must keep this clean at any pool width.
    race::reset();
    let mut cells = vec![0u64; 64];
    rayon::for_each_chunk_mut(&mut cells, 4, |base, chunk| {
        for (off, cell) in chunk.iter_mut().enumerate() {
            race::on_write(race::keyed("sync.pool_cell", (base + off) as u64));
            *cell = (base + off) as u64;
        }
    });
    for (i, cell) in cells.iter().enumerate() {
        race::on_read(race::keyed("sync.pool_cell", i as u64));
        assert_eq!(*cell, i as u64);
    }
    assert!(
        race::take_reports().is_empty(),
        "pool publish/join edges must order chunk writes before caller reads"
    );

    // Phase 4 (fidelity, transport): a halo handoff. The sender marks a
    // location before `send`; the receiver retries `recv` until the frame
    // arrives and reads it after. The box lock's release/acquire edges must
    // order the pair.
    race::reset();
    let transport = FaultyTransport::<f64>::new(2);
    let key = race::key("sync.mailbox_payload");
    let mut payload = vec![Spinor::zero()];
    payload[0].s[0].c[0].re = 42.0;
    std::thread::scope(|scope| {
        scope.spawn(|| {
            race::on_write(key);
            transport.send(0, 1, 0, BOX_FWD, payload, 0).unwrap();
        });
        scope.spawn(|| loop {
            if let Ok(frame) = transport.recv(1, 0, BOX_FWD, 0, 0, 1) {
                race::on_read(key);
                assert_eq!(frame.payload[0].s[0].c[0].re, 42.0);
                break;
            }
            std::thread::yield_now();
        });
    });
    assert!(
        race::take_reports().is_empty(),
        "transport send/recv edges must order producer writes before consumer reads"
    );

    race::set_panic_on_race(prev);
}
