use crate::*;

/// A deterministic tunable whose modeled cost has a unique minimum, so tests
/// can assert the sweep finds it.
struct QuadraticCost {
    name: String,
    optimum: usize,
    n_policies: usize,
    runs: Vec<TuneParam>,
    backed_up: u32,
    restored: u32,
}

impl QuadraticCost {
    fn new(name: &str, optimum: usize, n_policies: usize) -> Self {
        Self {
            name: name.to_string(),
            optimum,
            n_policies,
            runs: Vec::new(),
            backed_up: 0,
            restored: 0,
        }
    }
}

impl Tunable for QuadraticCost {
    fn key(&self) -> TuneKey {
        TuneKey::new(self.name.clone(), "v", "")
    }
    fn param_space(&self) -> ParamSpace {
        ParamSpace::policies(self.n_policies)
    }
    fn run(&mut self, param: TuneParam) {
        self.runs.push(param);
    }
    fn modeled_cost(&self, param: TuneParam) -> f64 {
        let d = param.policy as f64 - self.optimum as f64;
        1.0 + d * d
    }
    fn harness(&self) -> TimingHarness {
        TimingHarness::Modeled
    }
    fn backup(&mut self) {
        self.backed_up += 1;
    }
    fn restore(&mut self) {
        self.restored += 1;
    }
    fn flops(&self) -> f64 {
        2.0e9
    }
}

#[test]
fn sweep_finds_modeled_minimum() {
    let tuner = Tuner::new();
    let mut t = QuadraticCost::new("quad", 5, 9);
    let p = tuner.tune(&mut t);
    assert_eq!(p.policy, 5);
}

#[test]
fn second_call_is_cache_hit_and_skips_sweep() {
    let tuner = Tuner::new();
    let mut t = QuadraticCost::new("quad", 2, 6);
    tuner.tune(&mut t);
    let runs_after_first = t.runs.len();
    let p = tuner.tune(&mut t);
    assert_eq!(p.policy, 2);
    assert_eq!(t.runs.len(), runs_after_first, "cache hit must not re-run");
    assert_eq!(tuner.stats().misses, 1);
    assert_eq!(tuner.stats().hits, 1);
}

#[test]
fn backup_restore_bracket_the_sweep_exactly_once() {
    let tuner = Tuner::new();
    let mut t = QuadraticCost::new("quad", 0, 4);
    tuner.tune(&mut t);
    tuner.tune(&mut t);
    assert_eq!(t.backed_up, 1);
    assert_eq!(t.restored, 1);
}

#[test]
fn distinct_keys_get_distinct_entries() {
    let tuner = Tuner::new();
    let mut a = QuadraticCost::new("a", 1, 4);
    let mut b = QuadraticCost::new("b", 3, 4);
    assert_eq!(tuner.tune(&mut a).policy, 1);
    assert_eq!(tuner.tune(&mut b).policy, 3);
    assert_eq!(tuner.len(), 2);
}

#[test]
fn entry_records_metadata() {
    let tuner = Tuner::new();
    let mut t = QuadraticCost::new("meta", 2, 7);
    tuner.tune(&mut t);
    let e = tuner.lookup(&t.key()).expect("entry cached");
    assert_eq!(e.candidates_swept, 7);
    assert!((e.seconds - 1.0).abs() < 1e-12, "optimum cost is 1.0");
    assert!(
        (e.gflops - 2.0).abs() < 1e-9,
        "2e9 flops in 1 s = 2 GFLOP/s"
    );
}

#[test]
fn json_round_trip_preserves_cache() {
    let tuner = Tuner::new();
    let mut a = QuadraticCost::new("a", 1, 4);
    let mut b = QuadraticCost::new("b", 3, 6);
    tuner.tune(&mut a);
    tuner.tune(&mut b);
    let json = tuner.to_json();

    let restored = Tuner::new();
    let n = restored.merge_json(&json).expect("valid json");
    assert_eq!(n, 2);
    assert_eq!(restored.lookup(&a.key()), tuner.lookup(&a.key()));
    assert_eq!(restored.lookup(&b.key()), tuner.lookup(&b.key()));

    // A restored entry must satisfy lookups without re-sweeping.
    let mut a2 = QuadraticCost::new("a", 1, 4);
    restored.tune(&mut a2);
    assert!(a2.runs.is_empty());
}

#[test]
fn save_load_file_round_trip() {
    let dir = std::env::temp_dir().join("autotune_test_cache");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tunecache.json");

    let tuner = Tuner::new();
    let mut t = QuadraticCost::new("file", 4, 8);
    tuner.tune(&mut t);
    tuner.save(&path).unwrap();

    let loaded = Tuner::new();
    assert_eq!(loaded.load(&path).unwrap(), 1);
    assert_eq!(loaded.lookup(&t.key()), tuner.lookup(&t.key()));
    std::fs::remove_file(&path).ok();
}

#[test]
fn merge_json_rejects_garbage() {
    let tuner = Tuner::new();
    assert!(tuner.merge_json("not json at all").is_err());
}

/// One cache entry for `dslash_wilson` at 4⁴, as an older build wrote it:
/// `extra` fields first, and the `grain` and `block` it still persisted.
fn old_entry(extra: &str, policy: usize, seconds: f64) -> String {
    format!(
        r#"{{"name": "dslash_wilson", "volume": "4x4x4x4", "aux": "prec=f64", "nrhs": 1,{extra}
            "grain": 256, "block": 64, "policy": {policy},
            "seconds": {seconds:e}, "gflops": 1.0, "candidates_swept": 5}}"#
    )
}

#[test]
fn merge_json_skips_entries_on_retired_key_axes() {
    // A cache persisted by a build whose key still had layout/recon axes:
    // all three entries share (name, volume, aux, nrhs), so without the skip
    // the later two would overwrite the plain entry.
    let json = format!(
        "[{},{},{}]",
        old_entry("", 0, 1.0e-3),
        old_entry(r#" "layout": "variant", "recon": "full","#, 2, 2.0e-3),
        old_entry(r#" "layout": "aos", "recon": "r12","#, 1, 3.0e-3),
    );
    let tuner = Tuner::new();
    assert_eq!(tuner.merge_json(&json).expect("cache parses"), 1);
    assert_eq!(tuner.len(), 1);
    let kept = tuner
        .lookup(&TuneKey::new("dslash_wilson", "4x4x4x4", "prec=f64"))
        .expect("plain entry kept");
    assert_eq!((kept.param.policy, kept.seconds), (0, 1.0e-3));
}

#[test]
fn merge_json_ignores_retired_grain_and_block() {
    // `grain` and `block` are read by nothing: an old file's entry loads as
    // its policy, and the cache writes it back without them.
    let tuner = Tuner::new();
    let json = format!("[{}]", old_entry("", 3, 1.0e-3));
    assert_eq!(tuner.merge_json(&json).expect("cache parses"), 1);
    let key = TuneKey::new("dslash_wilson", "4x4x4x4", "prec=f64");
    let kept = tuner.lookup(&key).expect("entry loaded");
    assert_eq!(kept.param, TuneParam { policy: 3 });
    let out = tuner.to_json();
    assert!(!out.contains("grain") && !out.contains("block"), "{out}");
}

#[test]
fn wall_clock_harness_runs_each_candidate() {
    struct Sleepy {
        runs: usize,
    }
    impl Tunable for Sleepy {
        fn key(&self) -> TuneKey {
            TuneKey::new("sleepy", "v", "")
        }
        fn param_space(&self) -> ParamSpace {
            ParamSpace::policies(3)
        }
        fn run(&mut self, _p: TuneParam) {
            self.runs += 1;
        }
        fn harness(&self) -> TimingHarness {
            TimingHarness::WallClock { reps: 2 }
        }
    }
    let tuner = Tuner::new();
    let mut s = Sleepy { runs: 0 };
    tuner.tune(&mut s);
    assert_eq!(s.runs, 3 * 2, "3 candidates x 2 reps");
}

#[test]
fn manual_clock_makes_wall_clock_sweeps_deterministic() {
    use obs::{Clock, ManualClock};
    use std::sync::Arc;

    // Each run advances the injected clock by a policy-dependent amount, so
    // the "wall clock" sweep is fully scripted: policy 1 is fastest.
    struct Scripted {
        clock: Arc<ManualClock>,
    }
    impl Tunable for Scripted {
        fn key(&self) -> TuneKey {
            TuneKey::new("scripted", "v", "")
        }
        fn param_space(&self) -> ParamSpace {
            ParamSpace::policies(3)
        }
        fn run(&mut self, p: TuneParam) {
            self.clock.advance(match p.policy {
                1 => 0.25,
                _ => 1.0,
            });
        }
        fn harness(&self) -> TimingHarness {
            TimingHarness::WallClock { reps: 2 }
        }
    }

    let clock = ManualClock::new(100.0);
    let tuner = Tuner::with_clock(clock.clone());
    let mut t = Scripted {
        clock: clock.clone(),
    };
    let best = tuner.tune(&mut t);
    assert_eq!(best.policy, 1, "scripted fastest candidate must win");
    let e = tuner.lookup(&t.key()).expect("entry cached");
    assert_eq!(e.seconds, 0.25, "best time is exactly the scripted advance");
    // 3 candidates x 2 reps, each advancing the manual clock.
    assert_eq!(clock.now(), 100.0 + 2.0 * (1.0 + 0.25 + 1.0));
}

#[test]
fn summary_lists_every_entry_sorted() {
    let tuner = Tuner::new();
    let mut b = QuadraticCost::new("zeta", 1, 3);
    let mut a = QuadraticCost::new("alpha", 2, 4);
    tuner.tune(&mut b);
    tuner.tune(&mut a);
    let s = tuner.summary();
    let lines: Vec<&str> = s.lines().collect();
    assert_eq!(lines.len(), 2);
    assert!(lines[0].starts_with("alpha"), "sorted by key: {s}");
    assert!(lines[1].starts_with("zeta"));
    assert!(lines[0].contains("policy=2"));
}

#[test]
fn tuner_is_shareable_across_threads() {
    use std::sync::Arc;
    let tuner = Arc::new(Tuner::new());
    let handles: Vec<_> = (0..8)
        .map(|i| {
            let tuner = Arc::clone(&tuner);
            std::thread::spawn(move || {
                let mut t = QuadraticCost::new(if i % 2 == 0 { "even" } else { "odd" }, 1, 3);
                tuner.tune(&mut t).policy
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().unwrap(), 1);
    }
    assert_eq!(tuner.len(), 2);
}
