//! Content-addressed result cache: LRU in memory, CRC-gated spill to one
//! slab file per cache, and in-flight deduplication so two requests racing
//! the same cold key trigger exactly one solve.
//!
//! The concurrency protocol of [`ResultCache::get_or_compute`] (miss →
//! claim in-flight → compute unlocked → publish → wake waiters; waiters
//! loop on the condvar and re-check) is modeled and exhaustively schedule-
//! checked in `checkmate::protocols::cache`; the implementation here keeps
//! the same state machine shape deliberately.

use crate::backend::SolveResult;
use crate::error::ServiceError;
use crate::request::CacheKey;
use lattice_io::crc32c::crc32c;
use lqcd_core::spinor::Spinor;
use lqcd_core::su3::NC;
use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// How a request was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from memory.
    Hit,
    /// Served from a spilled entry on disk (CRC verified, key verified).
    SpillHit,
    /// Arrived while another caller was computing the same key and waited
    /// for that solve instead of duplicating it.
    Coalesced,
    /// Cold miss: this caller ran the solve.
    Computed,
}

/// Monotone counters describing cache behaviour so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub spill_hits: u64,
    pub coalesced: u64,
    pub misses: u64,
    pub evictions: u64,
    pub spills: u64,
    /// Spilled records rejected on revive (unreadable, CRC failure, a
    /// length that does not match the spinor count, or a key that does not
    /// match the requested key bit for bit). Each rejection degrades to a
    /// recompute, never to wrong data.
    pub spill_rejects: u64,
}

enum Slot {
    /// Value present; `stamp` indexes into the recency map.
    Ready { stamp: u64, value: Arc<SolveResult> },
    /// A caller is computing this key; waiters sleep on the condvar.
    InFlight,
}

struct Inner {
    map: HashMap<CacheKey, Slot>,
    /// recency stamp → key, oldest first; evictions pop the first entry.
    recency: BTreeMap<u64, CacheKey>,
    next_stamp: u64,
    ready: usize,
    stats: CacheStats,
    /// This cache's spill file, opened at the first spill.
    slab: Option<Slab>,
}

/// The cache. Clone-free; share it by reference (or `Arc`) across the
/// pool.
pub struct ResultCache {
    inner: Mutex<Inner>,
    cv: Condvar,
    capacity: usize,
    spill_dir: Option<PathBuf>,
}

fn relock<T>(r: Result<T, PoisonError<T>>) -> T {
    // A poisoned lock means a *test* thread panicked mid-critical-section;
    // the state itself is a plain map and stays structurally sound.
    r.unwrap_or_else(PoisonError::into_inner)
}

impl ResultCache {
    /// An empty cache holding at most `capacity` entries in memory.
    /// Evicted entries spill to a slab file of this cache's own in
    /// `spill_dir` when one is given; the file goes with the cache.
    pub fn new(capacity: usize, spill_dir: Option<PathBuf>) -> Self {
        ResultCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                recency: BTreeMap::new(),
                next_stamp: 0,
                ready: 0,
                stats: CacheStats::default(),
                slab: None,
            }),
            cv: Condvar::new(),
            capacity: capacity.max(1),
            spill_dir,
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        relock(self.inner.lock()).stats
    }

    /// Ready entries currently held in memory.
    pub fn len(&self) -> usize {
        relock(self.inner.lock()).ready
    }

    /// Whether no ready entries are held in memory.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Memory lookup + spill probe, bumping recency on a hit. Does not
    /// wait on in-flight computations (the gateway tracks those itself
    /// against its virtual clock). The `bool` is true when the value was
    /// revived from disk.
    pub fn lookup(&self, key: &CacheKey) -> Option<(Arc<SolveResult>, bool)> {
        let mut inner = relock(self.inner.lock());
        if let Some(v) = touch_ready(&mut inner, key) {
            inner.stats.hits += 1;
            return Some((v, false));
        }
        if matches!(inner.map.get(key), Some(Slot::InFlight)) {
            return None;
        }
        let revived = self.try_revive(&mut inner, key)?;
        inner.stats.spill_hits += 1;
        Some((revived, true))
    }

    /// Publish a computed value (gateway path — the solve already ran).
    pub fn insert(&self, key: CacheKey, value: Arc<SolveResult>) {
        let mut inner = relock(self.inner.lock());
        self.insert_ready(&mut inner, key, value);
        self.cv.notify_all();
    }

    /// Get `key`, running `compute` exactly once per cold key even under
    /// concurrent callers: the first caller claims the key and computes
    /// with the lock released; latecomers sleep on the condvar and receive
    /// the published `Arc`. If the computing caller fails, its claim is
    /// withdrawn and exactly one waiter retries.
    pub fn get_or_compute<F>(
        &self,
        key: CacheKey,
        compute: F,
    ) -> Result<(Arc<SolveResult>, CacheOutcome), ServiceError>
    where
        F: FnOnce() -> Result<SolveResult, ServiceError>,
    {
        let mut waited = false;
        let mut inner = relock(self.inner.lock());
        loop {
            if let Some(v) = touch_ready(&mut inner, &key) {
                if waited {
                    inner.stats.coalesced += 1;
                    return Ok((v, CacheOutcome::Coalesced));
                }
                inner.stats.hits += 1;
                return Ok((v, CacheOutcome::Hit));
            }
            if matches!(inner.map.get(&key), Some(Slot::InFlight)) {
                waited = true;
                inner = relock(self.cv.wait(inner));
                continue;
            }
            if let Some(revived) = self.try_revive(&mut inner, &key) {
                inner.stats.spill_hits += 1;
                return Ok((revived, CacheOutcome::SpillHit));
            }
            break;
        }
        // Claim the key and solve with the lock released.
        inner.map.insert(key, Slot::InFlight);
        drop(inner);
        let computed = compute();
        let mut inner = relock(self.inner.lock());
        // Withdraw the claim whatever happened; on success it is replaced
        // by the published value below.
        inner.map.remove(&key);
        match computed {
            Ok(v) => {
                let v = Arc::new(v);
                self.insert_ready(&mut inner, key, v.clone());
                inner.stats.misses += 1;
                self.cv.notify_all();
                Ok((v, CacheOutcome::Computed))
            }
            Err(e) => {
                // Wake everyone: one of the waiters will find the key
                // absent and become the new computer.
                self.cv.notify_all();
                Err(e)
            }
        }
    }

    fn insert_ready(&self, inner: &mut Inner, key: CacheKey, value: Arc<SolveResult>) {
        if let Some(Slot::Ready { stamp, .. }) = inner.map.get(&key) {
            let stamp = *stamp;
            inner.recency.remove(&stamp);
            inner.ready -= 1;
        }
        while inner.ready >= self.capacity {
            let Some((&oldest, &victim)) = inner.recency.iter().next() else {
                break;
            };
            inner.recency.remove(&oldest);
            if let Some(Slot::Ready { value, .. }) = inner.map.remove(&victim) {
                inner.ready -= 1;
                inner.stats.evictions += 1;
                if self.spill(inner, &victim, &value).is_some() {
                    inner.stats.spills += 1;
                }
            }
        }
        let stamp = inner.next_stamp;
        inner.next_stamp += 1;
        inner.recency.insert(stamp, key);
        inner.map.insert(key, Slot::Ready { stamp, value });
        inner.ready += 1;
    }

    /// Best-effort spill of an evicted entry into the slab, opening it at
    /// the first spill. IO errors degrade the entry to
    /// recompute-on-next-miss rather than failing the insert.
    fn spill(&self, inner: &mut Inner, key: &CacheKey, value: &SolveResult) -> Option<()> {
        if inner.slab.is_none() {
            inner.slab = Slab::create(self.spill_dir.as_ref()?);
        }
        inner.slab.as_mut()?.write(key, value)
    }

    /// Try to revive `key` from its extent in the slab. The record must
    /// pass its CRC-32C, be exactly as long as its spinor count says, and
    /// carry this very key, field for field; anything else drops the
    /// extent and counts a reject, so a corrupt or foreign record can only
    /// ever degrade to a miss.
    fn try_revive(&self, inner: &mut Inner, key: &CacheKey) -> Option<Arc<SolveResult>> {
        let slab = inner.slab.as_mut()?;
        let extent = *slab.extents.get(key)?;
        match slab.read(key, extent) {
            Some(v) => {
                let v = Arc::new(v);
                self.insert_ready(inner, *key, v.clone());
                Some(v)
            }
            None => {
                slab.extents.remove(key);
                inner.stats.spill_rejects += 1;
                None
            }
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        relock(self.inner.lock())
    }

    /// Keys of the ready entries, oldest first (tests and diagnostics).
    pub fn resident_keys(&self) -> Vec<CacheKey> {
        let inner = self.lock();
        inner.recency.values().copied().collect()
    }
}

fn touch_ready(inner: &mut Inner, key: &CacheKey) -> Option<Arc<SolveResult>> {
    let Some(Slot::Ready { stamp, value }) = inner.map.get(key) else {
        return None;
    };
    let (old, value) = (*stamp, value.clone());
    inner.recency.remove(&old);
    let stamp = inner.next_stamp;
    inner.next_stamp += 1;
    inner.recency.insert(stamp, *key);
    inner.map.insert(
        *key,
        Slot::Ready {
            stamp,
            value: value.clone(),
        },
    );
    Some(value)
}

/// Bytes of a record before its payload: the five key fields, `iterations`,
/// the residual bits, `converged`, `recovered` and the spinor count.
const HEADER: usize = 3 * 8 + 2 + 2 * 8 + 2 + 8;
/// Bytes of one `Spinor<f64>`: 4 spins × 3 colours × (re, im).
const SPINOR_BYTES: usize = 4 * NC * 2 * 8;
/// The CRC-32C that closes every record.
const CRC_BYTES: usize = 4;

/// Slabs created by this process so far: with the process id, every
/// cache's slab has a name of its own.
static SLABS: AtomicU64 = AtomicU64::new(0);

/// One cache's spill file. Each key owns one extent, appended at the end
/// on the key's first spill and rewritten in place on every later one.
struct Slab {
    file: File,
    path: PathBuf,
    /// key → (offset, length) of its record.
    extents: HashMap<CacheKey, (u64, usize)>,
    end: u64,
    /// The one buffer every spill encodes into and every revive reads into.
    buf: Vec<u8>,
}

impl Slab {
    fn create(dir: &Path) -> Option<Slab> {
        let n = SLABS.fetch_add(1, Ordering::SeqCst);
        let path = dir.join(format!("spill-{}-{n}.slab", std::process::id()));
        let file = File::create_new(&path).ok()?;
        Some(Slab {
            file,
            path,
            extents: HashMap::new(),
            end: 0,
            buf: Vec::new(),
        })
    }

    fn write(&mut self, key: &CacheKey, value: &SolveResult) -> Option<()> {
        encode(&mut self.buf, key, value);
        let len = self.buf.len();
        let grown = self.end + len as u64;
        let offset = match self.extents.get(key) {
            Some(&(offset, l)) if l == len => offset,
            _ => std::mem::replace(&mut self.end, grown),
        };
        // A failed rewrite leaves at worst a torn record of this same key,
        // which its CRC rejects on revive.
        self.file.write_all_at(&self.buf, offset).ok()?;
        self.extents.insert(*key, (offset, len));
        Some(())
    }

    fn read(&mut self, key: &CacheKey, (offset, len): (u64, usize)) -> Option<SolveResult> {
        self.buf.resize(len, 0);
        self.file.read_exact_at(&mut self.buf, offset).ok()?;
        decode(&self.buf, key)
    }
}

impl Drop for Slab {
    /// The slab is private to its cache and goes with it.
    fn drop(&mut self) {
        std::fs::remove_file(&self.path).ok();
    }
}

/// Encode `key` and `value` as one record into `buf`: little-endian
/// header, the spinors' reals, then a CRC-32C over all of it.
fn encode(buf: &mut Vec<u8>, key: &CacheKey, value: &SolveResult) {
    buf.clear();
    for w in [key.config_hash, key.source_seed, key.mass_bits] {
        buf.extend_from_slice(&w.to_le_bytes());
    }
    buf.extend_from_slice(&[key.precision, key.policy]);
    for w in [value.iterations as u64, value.final_rel_residual.to_bits()] {
        buf.extend_from_slice(&w.to_le_bytes());
    }
    buf.extend_from_slice(&[u8::from(value.converged), u8::from(value.recovered)]);
    buf.extend_from_slice(&(value.solution.len() as u64).to_le_bytes());
    buf.resize(HEADER + value.solution.len() * SPINOR_BYTES, 0);
    let spinors = buf[HEADER..].chunks_exact_mut(SPINOR_BYTES);
    for (out, sp) in spinors.zip(&value.solution) {
        for (out, z) in out.chunks_exact_mut(16).zip(sp.s.iter().flat_map(|v| &v.c)) {
            out[..8].copy_from_slice(&z.re.to_le_bytes());
            out[8..].copy_from_slice(&z.im.to_le_bytes());
        }
    }
    let crc = crc32c(buf);
    buf.extend_from_slice(&crc.to_le_bytes());
}

/// Decode a record written by [`encode`], or `None` unless its CRC holds,
/// its length is exactly what its spinor count implies, and it carries
/// `key` in every field.
fn decode(record: &[u8], key: &CacheKey) -> Option<SolveResult> {
    let (body, crc) = record.split_at(record.len().checked_sub(CRC_BYTES)?);
    if body.len() < HEADER || crc != crc32c(body).to_le_bytes() {
        return None;
    }
    let word = |at: usize| u64::from_le_bytes(std::array::from_fn(|i| body[at + i]));
    let stored = CacheKey {
        config_hash: word(0),
        source_seed: word(8),
        mass_bits: word(16),
        precision: body[24],
        policy: body[25],
    };
    let n = usize::try_from(word(44)).ok()?;
    if stored != *key || n.checked_mul(SPINOR_BYTES)?.checked_add(HEADER)? != body.len() {
        return None;
    }
    let flag = |b: u8| (b < 2).then_some(b == 1);
    let solution = body[HEADER..]
        .chunks_exact(SPINOR_BYTES)
        .map(|b| {
            let mut sp = Spinor::zero();
            let reals = sp.s.iter_mut().flat_map(|v| &mut v.c);
            for (z, w) in reals.zip(b.chunks_exact(16)) {
                z.re = f64::from_le_bytes(std::array::from_fn(|i| w[i]));
                z.im = f64::from_le_bytes(std::array::from_fn(|i| w[8 + i]));
            }
            sp
        })
        .collect();
    Some(SolveResult {
        solution,
        iterations: usize::try_from(word(26)).ok()?,
        final_rel_residual: f64::from_bits(word(34)),
        converged: flag(body[42])?,
        recovered: flag(body[43])?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use std::sync::atomic::AtomicUsize;

    fn key(seed: u64) -> CacheKey {
        CacheKey {
            config_hash: 0xabcd,
            source_seed: seed,
            mass_bits: 0.2f64.to_bits(),
            precision: 1,
            policy: 0,
        }
    }

    fn result(tag: f64) -> SolveResult {
        let mut sp = Spinor::zero();
        sp.s[0].c[0] = lqcd_core::complex::Complex::new(tag, -tag);
        SolveResult {
            solution: vec![sp; 4],
            iterations: 7,
            final_rel_residual: 1e-6,
            converged: true,
            recovered: false,
        }
    }

    #[test]
    fn lru_evicts_oldest_and_hits_refresh_recency() {
        let cache = ResultCache::new(2, None);
        cache.insert(key(1), Arc::new(result(1.0)));
        cache.insert(key(2), Arc::new(result(2.0)));
        // Touch key 1 so key 2 is now the LRU victim.
        assert!(cache.lookup(&key(1)).is_some());
        cache.insert(key(3), Arc::new(result(3.0)));
        assert_eq!(cache.resident_keys(), vec![key(1), key(3)]);
        assert!(cache.lookup(&key(2)).is_none());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn racing_misses_run_exactly_one_compute() {
        let cache = ResultCache::new(8, None);
        let computes = AtomicUsize::new(0);
        let outcomes: Vec<CacheOutcome> = {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(4)
                .build()
                .expect("pool");
            let mut slots: Vec<Option<CacheOutcome>> = vec![None; 8];
            pool.install(|| {
                rayon::for_each_chunk_mut(&mut slots, 1, |_, slot| {
                    let (v, outcome) = cache
                        .get_or_compute(key(9), || {
                            computes.fetch_add(1, Ordering::SeqCst);
                            Ok(result(9.0))
                        })
                        .expect("get_or_compute");
                    assert_eq!(v.solution, result(9.0).solution);
                    slot[0] = Some(outcome);
                })
            });
            slots
                .into_iter()
                .map(|o| o.expect("every miss ran"))
                .collect()
        };
        assert_eq!(computes.load(Ordering::SeqCst), 1, "exactly one solve");
        assert_eq!(
            outcomes
                .iter()
                .filter(|o| **o == CacheOutcome::Computed)
                .count(),
            1
        );
    }

    #[test]
    fn failed_compute_releases_the_claim() {
        let cache = ResultCache::new(8, None);
        let r = cache.get_or_compute(key(5), || Err(ServiceError::Config("injected".into())));
        assert!(r.is_err());
        // The key is free again: a retry computes.
        let (_, outcome) = cache
            .get_or_compute(key(5), || Ok(result(5.0)))
            .expect("retry");
        assert_eq!(outcome, CacheOutcome::Computed);
    }

    /// A fresh spill directory of this test's own.
    fn spill_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("svc-spill-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("spill dir");
        dir
    }

    /// A capacity-1 cache on `dir` that has just evicted and spilled
    /// `key(1)`, with its slab's path and that key's extent.
    fn spilled(dir: &Path) -> (ResultCache, PathBuf, (u64, usize)) {
        let cache = ResultCache::new(1, Some(dir.to_path_buf()));
        cache.insert(key(1), Arc::new(result(1.0)));
        cache.insert(key(2), Arc::new(result(2.0)));
        let (path, extent) = {
            let inner = cache.lock();
            let slab = inner.slab.as_ref().expect("slab opened at the first spill");
            (slab.path.clone(), slab.extents[&key(1)])
        };
        (cache, path, extent)
    }

    /// Overwrite key 1's record in the slab at `path` with `record`.
    fn overwrite(path: &Path, offset: u64, record: &[u8]) {
        let f = OpenOptions::new()
            .write(true)
            .open(path)
            .expect("open slab");
        f.write_all_at(record, offset).expect("overwrite record");
    }

    /// After key 1's record was damaged: the revive is an honest miss
    /// that counts one reject, and the next `get_or_compute` solves again.
    fn assert_rejected(cache: &ResultCache, what: &str) {
        let rejects = cache.stats().spill_rejects;
        assert!(cache.lookup(&key(1)).is_none(), "{what}: served");
        assert_eq!(cache.stats().spill_rejects, rejects + 1, "{what}");
        let computes = AtomicUsize::new(0);
        let (v, outcome) = cache
            .get_or_compute(key(1), || {
                computes.fetch_add(1, Ordering::SeqCst);
                Ok(result(1.0))
            })
            .expect("recompute");
        assert_eq!(outcome, CacheOutcome::Computed, "{what}");
        assert_eq!(computes.load(Ordering::SeqCst), 1, "{what}");
        assert_eq!(v.solution, result(1.0).solution, "{what}");
    }

    #[test]
    fn spill_round_trips_and_rejects_a_foreign_key() {
        let dir = spill_dir("foreign");
        let (cache, _, _) = spilled(&dir);
        assert_eq!(cache.stats().spills, 1);
        let (revived, from_disk) = cache.lookup(&key(1)).expect("revive from spill");
        assert!(from_disk);
        assert_eq!(*revived, result(1.0));
        assert_eq!(cache.stats().spill_hits, 1);
        drop(cache);

        // A record with a valid CRC, written by the same encoder for a key
        // that differs from the probed one in any single field, must not
        // serve it.
        let mut foreign = [key(1); 5];
        foreign[0].config_hash ^= 1;
        foreign[1].source_seed ^= 1 << 63;
        foreign[2].mass_bits += 1;
        foreign[3].precision ^= 1;
        foreign[4].policy ^= 1;
        for (field, foreign) in foreign.iter().enumerate() {
            let (cache, path, (offset, len)) = spilled(&dir);
            let mut record = Vec::new();
            encode(&mut record, foreign, &result(1.0));
            assert_eq!(record.len(), len);
            overwrite(&path, offset, &record);
            assert_rejected(&cache, &format!("key field {field} changed"));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_record_is_rejected_at_every_field_boundary() {
        let dir = spill_dir("truncate");
        let n = result(1.0).solution.len();
        let mut boundaries = vec![0, 8, 16, 24, 25, 26, 34, 42, 43, 44];
        boundaries.extend((0..=n).map(|i| HEADER + i * SPINOR_BYTES));
        boundaries.push(HEADER + n * SPINOR_BYTES + CRC_BYTES);
        let mut cuts: Vec<usize> = boundaries
            .iter()
            .flat_map(|&b| [b.saturating_sub(1), b, b + 1])
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        let mut cases = 0;
        for cut in cuts {
            let (cache, path, (offset, len)) = spilled(&dir);
            if cut >= len {
                continue;
            }
            let f = OpenOptions::new()
                .write(true)
                .open(&path)
                .expect("open slab");
            f.set_len(offset + cut as u64).expect("truncate slab");
            assert_rejected(&cache, &format!("truncated to {cut} of {len} bytes"));
            cases += 1;
        }
        assert!(cases > 30, "only {cases} truncations");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn single_bit_flips_are_rejected_in_header_payload_and_crc() {
        let dir = spill_dir("bitflip");
        let mut state = 0x5EED_u64;
        let mut next = move || {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as usize
        };
        for i in 0..200 {
            let (cache, path, (offset, len)) = spilled(&dir);
            // Cycle through the three regions so each sees its share.
            let (lo, hi) = [
                (0, HEADER),
                (HEADER, len - CRC_BYTES),
                (len - CRC_BYTES, len),
            ][i % 3];
            let bit = lo * 8 + next() % ((hi - lo) * 8);
            let mut record = vec![0u8; len];
            File::open(&path)
                .expect("open slab")
                .read_exact_at(&mut record, offset)
                .expect("read record");
            record[bit / 8] ^= 1 << (bit % 8);
            overwrite(&path, offset, &record);
            assert_rejected(&cache, &format!("flip {i}: bit {bit} of {len} bytes"));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spinor_count_that_overflows_is_rejected() {
        let dir = spill_dir("overflow");
        for count in [u64::MAX, u64::MAX / SPINOR_BYTES as u64 + 1, 5] {
            let (cache, path, (offset, _)) = spilled(&dir);
            let mut record = Vec::new();
            encode(&mut record, &key(1), &result(1.0));
            record[44..HEADER].copy_from_slice(&count.to_le_bytes());
            let body = record.len() - CRC_BYTES;
            let crc = crc32c(&record[..body]);
            record[body..].copy_from_slice(&crc.to_le_bytes());
            overwrite(&path, offset, &record);
            assert_rejected(&cache, &format!("spinor count {count}"));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn respill_rewrites_the_key_extent_in_place() {
        let dir = spill_dir("inplace");
        let (cache, path, (_, len)) = spilled(&dir);
        // Capacity 1: each lookup revives one key and spills the other.
        for i in 0..10 {
            let k = key(1 + (i % 2));
            assert!(cache.lookup(&k).expect("revive").1);
        }
        assert_eq!(cache.stats().spills, 11);
        let files: Vec<_> = std::fs::read_dir(&dir).expect("list").collect();
        assert_eq!(files.len(), 1, "one slab, no per-key files");
        let size = std::fs::metadata(&path).expect("slab").len();
        assert_eq!(size, 2 * len as u64, "two keys, two extents");
        drop(cache);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn caches_sharing_a_directory_keep_private_slabs_and_leave_none() {
        let dir = spill_dir("shared");
        let caches = [
            ResultCache::new(1, Some(dir.clone())),
            ResultCache::new(1, Some(dir.clone())),
        ];
        // Both spill the same key with different values.
        for (cache, tag) in caches.iter().zip([1.0, 2.0]) {
            cache.insert(key(1), Arc::new(result(tag)));
            cache.insert(key(2), Arc::new(result(tag + 10.0)));
        }
        for (cache, tag) in caches.iter().zip([1.0, 2.0]) {
            let (v, from_disk) = cache.lookup(&key(1)).expect("revive own spill");
            assert!(from_disk);
            assert_eq!(v.solution, result(tag).solution);
            assert_eq!(cache.stats().spill_rejects, 0);
        }
        drop(caches);
        let left = std::fs::read_dir(&dir).expect("list").count();
        assert_eq!(left, 0, "slabs left behind");
        std::fs::remove_dir_all(&dir).ok();
    }
}
