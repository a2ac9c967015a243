//! The metrics registry: named counters/gauges/histograms plus the event
//! log and clock, with ambient (thread-local or global) installation so
//! deep call stacks — solver inner loops, DES event handlers — can record
//! without threading a handle through every signature.
//!
//! Lookup discipline: `Registry::current()` returns the innermost scoped
//! registry on this thread, else the globally installed one, else a
//! process-wide default. Tests install a fresh registry with
//! [`Registry::install_scoped`] and get perfect isolation.

use crate::clock::{Clock, WallClock};
use crate::events::{Event, EventLog};
use crate::json::Json;
use crate::metrics::{Counter, FloatCounter, Gauge, Histogram};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock, RwLock};

struct RegistryInner {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    float_counters: RwLock<BTreeMap<String, Arc<FloatCounter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
    events: EventLog,
    clock: RwLock<Arc<dyn Clock>>,
}

#[derive(Clone)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

thread_local! {
    static SCOPED: RefCell<Vec<Registry>> = const { RefCell::new(Vec::new()) };
}

static GLOBAL: OnceLock<RwLock<Option<Registry>>> = OnceLock::new();
static DEFAULT: OnceLock<Registry> = OnceLock::new();

fn global_slot() -> &'static RwLock<Option<Registry>> {
    GLOBAL.get_or_init(|| RwLock::new(None))
}

/// Read-lock, continuing through poison: the registry maps hold only
/// `Arc` handles and the metric cells themselves are monotone atomics, so
/// a panicking holder cannot leave them inconsistent — and
/// instrumentation must never take the process down with it.
fn read_on<T>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    lock.read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Write-lock twin of [`read_on`], with the same poison-blind rationale.
fn write_on<T>(lock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    lock.write()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Pops the scoped registry when dropped.
pub struct ScopedInstall {
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for ScopedInstall {
    fn drop(&mut self) {
        SCOPED.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

impl Registry {
    pub fn new() -> Registry {
        Registry {
            inner: Arc::new(RegistryInner {
                counters: RwLock::new(BTreeMap::new()),
                float_counters: RwLock::new(BTreeMap::new()),
                gauges: RwLock::new(BTreeMap::new()),
                histograms: RwLock::new(BTreeMap::new()),
                events: EventLog::new(),
                clock: RwLock::new(Arc::new(WallClock::new())),
            }),
        }
    }

    /// The ambient registry: innermost scoped on this thread, else global,
    /// else a shared process default (so instrumentation is always safe).
    pub fn current() -> Registry {
        if let Some(r) = SCOPED.with(|s| s.borrow().last().cloned()) {
            return r;
        }
        if let Some(r) = read_on(global_slot()).clone() {
            return r;
        }
        DEFAULT.get_or_init(Registry::new).clone()
    }

    /// Install as the ambient registry for the current thread until the
    /// returned guard drops. Nests: the innermost install wins.
    #[must_use = "the registry is uninstalled when the guard drops"]
    pub fn install_scoped(&self) -> ScopedInstall {
        SCOPED.with(|s| s.borrow_mut().push(self.clone()));
        ScopedInstall {
            _not_send: std::marker::PhantomData,
        }
    }

    /// Install as the process-global fallback registry.
    pub fn install_global(&self) {
        *write_on(global_slot()) = Some(self.clone());
    }

    /// Replace the clock used to stamp events.
    pub fn set_clock(&self, clock: Arc<dyn Clock>) {
        *write_on(&self.inner.clock) = clock;
    }

    pub fn now(&self) -> f64 {
        read_on(&self.inner.clock).now()
    }

    // ---- metric handles (get-or-create) --------------------------------

    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = read_on(&self.inner.counters).get(name) {
            return c.clone();
        }
        write_on(&self.inner.counters)
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Counter::new()))
            .clone()
    }

    pub fn float_counter(&self, name: &str) -> Arc<FloatCounter> {
        if let Some(c) = read_on(&self.inner.float_counters).get(name) {
            return c.clone();
        }
        write_on(&self.inner.float_counters)
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(FloatCounter::new()))
            .clone()
    }

    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(g) = read_on(&self.inner.gauges).get(name) {
            return g.clone();
        }
        write_on(&self.inner.gauges)
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Gauge::new()))
            .clone()
    }

    /// Get-or-create a histogram. `bounds` applies only on first creation;
    /// later callers get the existing histogram whatever its bounds.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        if let Some(h) = read_on(&self.inner.histograms).get(name) {
            return h.clone();
        }
        write_on(&self.inner.histograms)
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Histogram::new(bounds)))
            .clone()
    }

    /// Fetch an existing histogram without creating it.
    pub fn try_histogram(&self, name: &str) -> Option<Arc<Histogram>> {
        read_on(&self.inner.histograms).get(name).cloned()
    }

    // ---- events --------------------------------------------------------

    /// Record an event stamped with this registry's clock.
    pub fn event(&self, kind: &str, fields: Vec<(&str, Json)>) {
        let t = self.now();
        self.event_at(t, kind, fields);
    }

    /// Record an event at an explicit time (simulated seconds from a DES).
    pub fn event_at(&self, t: f64, kind: &str, fields: Vec<(&str, Json)>) {
        self.inner.events.record(Event::new(t, kind, fields));
    }

    pub fn events(&self) -> &EventLog {
        &self.inner.events
    }

    // ---- export --------------------------------------------------------

    /// Full snapshot as ordered JSON: counters, float counters, gauges,
    /// histogram summaries, and event-kind counts. BTreeMap storage means
    /// every section is emitted in sorted name order — deterministic
    /// output for golden diffs.
    pub fn to_json(&self) -> Json {
        let counters = Json::Obj(
            read_on(&self.inner.counters)
                .iter()
                .map(|(k, v)| (k.clone(), Json::from(v.get())))
                .collect(),
        );
        let float_counters = Json::Obj(
            read_on(&self.inner.float_counters)
                .iter()
                .map(|(k, v)| (k.clone(), Json::from(v.get())))
                .collect(),
        );
        let gauges = Json::Obj(
            read_on(&self.inner.gauges)
                .iter()
                .map(|(k, v)| (k.clone(), Json::from(v.get())))
                .collect(),
        );
        let histograms = Json::Obj(
            read_on(&self.inner.histograms)
                .iter()
                .map(|(k, h)| {
                    let s = h.snapshot();
                    (
                        k.clone(),
                        Json::obj(vec![
                            ("count", Json::from(s.count)),
                            ("sum", Json::from(s.sum)),
                            (
                                "min",
                                if s.count == 0 {
                                    Json::Null
                                } else {
                                    Json::from(s.min)
                                },
                            ),
                            (
                                "max",
                                if s.count == 0 {
                                    Json::Null
                                } else {
                                    Json::from(s.max)
                                },
                            ),
                            (
                                "bounds",
                                Json::Arr(s.bounds.iter().map(|&b| Json::from(b)).collect()),
                            ),
                            (
                                "buckets",
                                Json::Arr(s.buckets.iter().map(|&c| Json::from(c)).collect()),
                            ),
                        ]),
                    )
                })
                .collect(),
        );
        let event_counts = Json::Obj(
            self.inner
                .events
                .counts_by_kind()
                .into_iter()
                .map(|(k, v)| (k, Json::from(v)))
                .collect(),
        );
        Json::obj(vec![
            ("counters", counters),
            ("float_counters", float_counters),
            ("gauges", gauges),
            ("histograms", histograms),
            ("event_counts", event_counts),
        ])
    }

    /// Flat CSV of all scalar metrics: `kind,name,value`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("kind,name,value\n");
        for (k, v) in read_on(&self.inner.counters).iter() {
            out.push_str(&format!("counter,{k},{}\n", v.get()));
        }
        for (k, v) in read_on(&self.inner.float_counters).iter() {
            out.push_str(&format!("float_counter,{k},{}\n", v.get()));
        }
        for (k, v) in read_on(&self.inner.gauges).iter() {
            out.push_str(&format!("gauge,{k},{}\n", v.get()));
        }
        for (k, h) in read_on(&self.inner.histograms).iter() {
            let s = h.snapshot();
            out.push_str(&format!("histogram_count,{k},{}\n", s.count));
            out.push_str(&format!("histogram_sum,{k},{}\n", s.sum));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    #[test]
    fn handles_are_shared_by_name() {
        let r = Registry::new();
        r.counter("x").inc();
        r.counter("x").add(2);
        assert_eq!(r.counter("x").get(), 3);
        r.gauge("g").set(1.5);
        assert_eq!(r.gauge("g").get(), 1.5);
    }

    #[test]
    fn scoped_install_nests_and_restores() {
        let outer = Registry::new();
        let inner = Registry::new();
        {
            let _g1 = outer.install_scoped();
            Registry::current().counter("n").inc();
            {
                let _g2 = inner.install_scoped();
                Registry::current().counter("n").inc();
            }
            Registry::current().counter("n").inc();
        }
        assert_eq!(outer.counter("n").get(), 2);
        assert_eq!(inner.counter("n").get(), 1);
    }

    #[test]
    fn manual_clock_drives_event_timestamps() {
        let r = Registry::new();
        let clock = ManualClock::new(100.0);
        r.set_clock(clock.clone());
        r.event("tick", vec![]);
        clock.advance(5.0);
        r.event("tick", vec![]);
        let snap = r.events().snapshot();
        assert_eq!((snap[0].t, snap[1].t), (100.0, 105.0));
    }

    #[test]
    fn json_export_is_sorted_and_complete() {
        let r = Registry::new();
        r.counter("b.second").inc();
        r.counter("a.first").add(2);
        r.float_counter("flops").add(1e9);
        r.gauge("depth").set(4.0);
        r.histogram("h", &[1.0, 2.0]).record(1.5);
        r.event_at(0.0, "go", vec![]);
        let j = r.to_json();
        let names: Vec<&str> = j
            .get("counters")
            .unwrap()
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(names, vec!["a.first", "b.second"]);
        assert_eq!(
            j.get_path(&["float_counters", "flops"]).unwrap().as_f64(),
            Some(1e9)
        );
        assert_eq!(
            j.get_path(&["histograms", "h", "count"]).unwrap().as_u64(),
            Some(1)
        );
        assert_eq!(
            j.get_path(&["event_counts", "go"]).unwrap().as_u64(),
            Some(1)
        );
        // Round trip through the parser.
        assert_eq!(Json::parse(&j.to_string_pretty()).unwrap(), j);
    }

    #[test]
    fn csv_lists_every_metric_kind() {
        let r = Registry::new();
        r.counter("c").inc();
        r.gauge("g").set(2.0);
        r.histogram("h", &[1.0]).record(0.5);
        let csv = r.to_csv();
        assert!(csv.contains("counter,c,1"));
        assert!(csv.contains("gauge,g,2"));
        assert!(csv.contains("histogram_count,h,1"));
    }
}
