//! Observability for the lattice pipeline: a zero-dependency, thread-safe
//! metrics registry (counters, gauges, fixed-bucket histograms) on an
//! injectable clock, a structured event log with text / JSON / CSV export,
//! and assertion macros that turn metric values into regression tests.
//!
//! Design notes live in DESIGN.md §Observability. The short version:
//!
//! * **Ambient registry.** Instrumented code calls
//!   [`Registry::current()`]; tests and experiment drivers install a
//!   fresh registry with [`Registry::install_scoped`] for isolation, or
//!   [`Registry::install_global`] for a whole process.
//! * **Injectable clock.** Events are stamped by the
//!   registry's [`Clock`]; the scheduler simulations install a
//!   [`ManualClock`] (or pass explicit times to
//!   [`Registry::event_at`]) so metric time is *simulated* time.
//! * **Deterministic export.** Metrics are stored in sorted maps and
//!   [`Registry::to_json`] emits them in name order, so two identical
//!   runs produce byte-identical JSON — the property the committed
//!   `results/metrics.json` golden and CI diff step rely on.

pub mod clock;
pub mod events;
pub mod json;
pub mod metrics;
pub mod registry;
pub mod testing;

pub use clock::{Clock, ManualClock, WallClock};
pub use events::{Event, EventLog};
pub use json::{Json, JsonError};
pub use metrics::{Counter, FloatCounter, Gauge, Histogram, HistogramSnapshot};
pub use registry::{Registry, ScopedInstall};
