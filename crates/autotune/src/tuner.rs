use crate::tunable::time_candidate;
use crate::{Tunable, TuneKey, TuneParam};
use obs::{Clock, Json, JsonError, Registry, WallClock};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// Cached optimum for one [`TuneKey`], with performance metadata.
#[derive(Clone, Debug, PartialEq)]
pub struct TuneEntry {
    /// Winning launch parameters.
    pub param: TuneParam,
    /// Best observed (or modeled) time for one invocation, seconds.
    pub seconds: f64,
    /// GFLOP/s at the optimum, when the tunable reports a flop count.
    pub gflops: f64,
    /// Number of candidates that were swept.
    pub candidates_swept: usize,
}

/// Aggregate statistics about tuner behaviour, for reporting and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TunerStats {
    /// Cache lookups that found an existing entry.
    pub hits: u64,
    /// Cache lookups that triggered a brute-force sweep.
    pub misses: u64,
}

#[derive(Default)]
struct Inner {
    cache: HashMap<TuneKey, TuneEntry>,
    stats: TunerStats,
}

/// `autotune.candidate_seconds` buckets: 1 µs .. ~68 s, ×4 per bucket.
const CANDIDATE_SECONDS_BOUNDS: [f64; 13] = [
    1e-6, 4e-6, 1.6e-5, 6.4e-5, 2.56e-4, 1.024e-3, 4.096e-3, 1.6384e-2, 6.5536e-2, 2.62144e-1,
    1.048576, 4.194304, 16.777216,
];

/// Deterministic ordering over every key axis, shared by the JSON dump and
/// the human-readable summary.
fn sort_key(k: &TuneKey) -> (&String, &String, &String, usize) {
    (&k.name, &k.volume, &k.aux, k.nrhs)
}

/// The autotuner cache.
///
/// `tune` performs QUDA's protocol: look the key up; on a miss, `backup` the
/// tunable, sweep every candidate in its parameter space, keep the fastest,
/// `restore`, store the entry, and return the winning parameters. Subsequent
/// calls with the same key are pure lookups.
///
/// ```
/// use autotune::{ParamSpace, TimingHarness, TuneKey, TuneParam, Tunable, Tuner};
///
/// struct Kernel;
/// impl Tunable for Kernel {
///     fn key(&self) -> TuneKey { TuneKey::new("halo", "8x8x8x16", "prec=f32") }
///     fn param_space(&self) -> ParamSpace { ParamSpace::policies(4) }
///     fn run(&mut self, _p: TuneParam) {}
///     fn modeled_cost(&self, p: TuneParam) -> f64 { (p.policy as f64 - 2.0).abs() + 1.0 }
///     fn harness(&self) -> TimingHarness { TimingHarness::Modeled }
/// }
///
/// let tuner = Tuner::new();
/// let best = tuner.tune(&mut Kernel);
/// assert_eq!(best.policy, 2);          // swept on first encounter
/// assert_eq!(tuner.tune(&mut Kernel).policy, 2); // cache hit thereafter
/// assert_eq!(tuner.stats().hits, 1);
/// ```
pub struct Tuner {
    inner: RwLock<Inner>,
    /// Time source for wall-clock candidate sweeps. Real runs use
    /// [`WallClock`]; tests inject [`obs::ManualClock`] so sweep timing is
    /// deterministic.
    clock: Arc<dyn Clock>,
}

impl Default for Tuner {
    fn default() -> Self {
        Self::with_clock(Arc::new(WallClock::new()))
    }
}

impl Tuner {
    /// Empty tuner with no cached entries, timing against the wall clock.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty tuner that times candidate sweeps against `clock`.
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        Self {
            inner: RwLock::default(),
            clock,
        }
    }

    /// Return the optimum launch parameters for `tunable`, sweeping its
    /// parameter space first if this key has never been seen.
    pub fn tune<T: Tunable + ?Sized>(&self, tunable: &mut T) -> TuneParam {
        let key = tunable.key();
        let reg = Registry::current();
        if let Some(entry) = self.lookup(&key) {
            self.inner.write().stats.hits += 1;
            reg.counter("autotune.cache_hits").inc();
            return entry.param;
        }
        self.inner.write().stats.misses += 1;
        reg.counter("autotune.cache_misses").inc();

        let space = tunable.param_space();
        tunable.backup();
        let candidate_seconds =
            reg.histogram("autotune.candidate_seconds", &CANDIDATE_SECONDS_BOUNDS);
        let mut best_param = space.candidates()[0];
        let mut best_time = f64::INFINITY;
        for &candidate in space.candidates() {
            let seconds = time_candidate(tunable, candidate, self.clock.as_ref());
            candidate_seconds.record(seconds);
            if seconds < best_time {
                best_time = seconds;
                best_param = candidate;
            }
        }
        tunable.restore();

        let gflops = if best_time > 0.0 {
            tunable.flops() / best_time / 1e9
        } else {
            0.0
        };
        let entry = TuneEntry {
            param: best_param,
            seconds: best_time,
            gflops,
            candidates_swept: space.len(),
        };
        reg.event(
            "autotune.tuned",
            vec![
                ("key", Json::from(key.to_string())),
                ("policy", Json::from(best_param.policy)),
                ("seconds", Json::from(best_time)),
                ("gflops", Json::from(gflops)),
                ("swept", Json::from(space.len())),
            ],
        );
        self.inner.write().cache.insert(key, entry);
        best_param
    }

    /// Tune and immediately execute under the optimum.
    pub fn launch<T: Tunable + ?Sized>(&self, tunable: &mut T) {
        let param = self.tune(tunable);
        tunable.run(param);
    }

    /// Cached entry for `key`, if any.
    pub fn lookup(&self, key: &TuneKey) -> Option<TuneEntry> {
        self.inner.read().cache.get(key).cloned()
    }

    /// Insert or overwrite an entry directly (used when restoring from disk
    /// or seeding tests).
    pub fn insert(&self, key: TuneKey, entry: TuneEntry) {
        self.inner.write().cache.insert(key, entry);
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.inner.read().cache.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> TunerStats {
        self.inner.read().stats
    }

    /// Serialize the cache to JSON (QUDA persists to `tunecache.tsv`; we use
    /// JSON for the same purpose). Entries are sorted by key so the output
    /// is deterministic.
    pub fn to_json(&self) -> String {
        let inner = self.inner.read();
        let mut entries: Vec<(&TuneKey, &TuneEntry)> = inner.cache.iter().collect();
        entries.sort_by(|a, b| sort_key(a.0).cmp(&sort_key(b.0)));
        Json::Arr(
            entries
                .into_iter()
                .map(|(k, e)| {
                    Json::obj(vec![
                        ("name", Json::from(k.name.as_str())),
                        ("volume", Json::from(k.volume.as_str())),
                        ("aux", Json::from(k.aux.as_str())),
                        ("nrhs", Json::from(k.nrhs)),
                        ("policy", Json::from(e.param.policy)),
                        ("seconds", Json::from(e.seconds)),
                        ("gflops", Json::from(e.gflops)),
                        ("candidates_swept", Json::from(e.candidates_swept)),
                    ])
                })
                .collect(),
        )
        .to_string_pretty()
    }

    /// Restore a cache previously produced by `to_json`, merging into the
    /// current cache (disk entries win on key collision). Returns the number
    /// of entries merged; entries on a retired key axis are skipped, and the
    /// `grain` and `block` fields older files carry are ignored.
    pub fn merge_json(&self, json: &str) -> Result<usize, JsonError> {
        let bad = |msg: &str| JsonError {
            offset: 0,
            message: msg.to_string(),
        };
        let doc = Json::parse(json)?;
        let items = doc
            .as_arr()
            .ok_or_else(|| bad("tune cache: expected array"))?;
        let mut entries = Vec::with_capacity(items.len());
        for item in items {
            let s = |f: &str| {
                item.get(f)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| bad(&format!("tune cache: missing {f}")))
            };
            let u = |f: &str| {
                item.get(f)
                    .and_then(Json::as_u64)
                    .map(|v| v as usize)
                    .ok_or_else(|| bad(&format!("tune cache: missing {f}")))
            };
            let f = |f: &str| {
                item.get(f)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| bad(&format!("tune cache: missing {f}")))
            };
            // Caches written while the key still had layout/reconstruction
            // axes may hold variant sweeps (`policy` = variant index) that
            // would now alias the plain key and, since disk entries win,
            // overwrite it: skip anything off the default axes.
            let off_axis =
                |f: &str, default: &str| item.get(f).is_some_and(|v| v.as_str() != Some(default));
            if off_axis("layout", "aos") || off_axis("recon", "full") {
                continue;
            }
            // Pre-batching cache files have no `nrhs` (single-RHS).
            let nrhs = item.get("nrhs").and_then(Json::as_u64).unwrap_or(1) as usize;
            entries.push((
                TuneKey::new(s("name")?, s("volume")?, s("aux")?).with_nrhs(nrhs),
                TuneEntry {
                    param: TuneParam {
                        policy: u("policy")?,
                    },
                    seconds: f("seconds")?,
                    gflops: f("gflops")?,
                    candidates_swept: u("candidates_swept")?,
                },
            ));
        }
        let n = entries.len();
        let mut inner = self.inner.write();
        for (k, v) in entries {
            inner.cache.insert(k, v);
        }
        Ok(n)
    }

    /// Human-readable summary of the cache, one line per entry, sorted by
    /// key — the `tunecache` dump operators use to inspect what was chosen.
    pub fn summary(&self) -> String {
        let inner = self.inner.read();
        let mut entries: Vec<(&TuneKey, &TuneEntry)> = inner.cache.iter().collect();
        entries.sort_by(|a, b| sort_key(a.0).cmp(&sort_key(b.0)));
        let mut out = String::new();
        for (k, e) in entries {
            out.push_str(&format!(
                "{k}  policy={}  {:.3e}s  {:.1} GFLOP/s  ({} swept)\n",
                e.param.policy, e.seconds, e.gflops, e.candidates_swept
            ));
        }
        out
    }

    /// Persist the cache to a file.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Load a cache file saved by `save`, merging its entries.
    pub fn load(&self, path: &Path) -> io::Result<usize> {
        let json = std::fs::read_to_string(path)?;
        self.merge_json(&json)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}
