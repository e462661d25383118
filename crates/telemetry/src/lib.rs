//! # qismet-telemetry
//!
//! Zero-dependency observability substrate for the QISMET reproduction:
//! counters, gauges, fixed-bucket log2 histograms, and RAII span timers
//! behind one global registry, plus a per-slot fleet-health table for the
//! cluster coordinator, deterministic JSON metrics export, and a Chrome
//! `trace_event`-format trace writer (load the file in `chrome://tracing`
//! or [Perfetto](https://ui.perfetto.dev)).
//!
//! ## Design contract
//!
//! * **Never perturbs results.** Telemetry only observes wall-clock time
//!   and event counts; no simulation or scheduling decision may read it.
//!   Campaign reports with telemetry enabled are byte-identical to
//!   telemetry disabled (pinned by `bench/tests/telemetry_identity.rs`).
//! * **No-op when disabled.** Every hot-path hook is gated on one relaxed
//!   atomic load ([`enabled`]); when off, no locks are taken, no time is
//!   read, and no memory is written. The gate is a runtime switch (not a
//!   cargo feature) so one binary can pin on-vs-off identity in tests.
//! * **Offline-friendly.** Like the vendored shims, this crate has zero
//!   dependencies; JSON is emitted by a small writer in [`json`].
//!
//! ## Usage
//!
//! ```
//! use qismet_telemetry as telemetry;
//!
//! telemetry::set_enabled(true);
//! telemetry::counter!("demo.requests").add(3);
//! {
//!     let _span = telemetry::span!("demo.work");
//!     // ... timed region; drop records a latency histogram sample ...
//! }
//! let snap = telemetry::snapshot();
//! assert_eq!(snap.counter("demo.requests"), 3);
//! telemetry::reset();
//! telemetry::set_enabled(false);
//! ```

pub mod buildinfo;
pub mod fleet;
pub mod json;
pub mod metrics;
pub mod trace;

pub use buildinfo::BuildInfo;
pub use fleet::{fleet_reset, fleet_snapshot, fleet_update, write_fleet_json, SlotHealth};
pub use metrics::{
    counter, gauge, histogram, snapshot, Counter, Gauge, Histogram, HistogramSnapshot,
    MetricsSnapshot,
};
pub use trace::{drain_trace_json, instant, set_trace_enabled, span_start, trace_enabled, Span};

use std::sync::atomic::{AtomicBool, Ordering};

/// The metrics/trace gates are process-global, so unit tests that toggle
/// them serialize on this lock to keep `cargo test`'s parallel runner from
/// interleaving a toggle with an assertion.
#[cfg(test)]
pub(crate) static TEST_GATE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether metric recording is globally enabled. One relaxed load — this is
/// the entire cost of every instrumentation hook while telemetry is off.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn metric recording on or off. Pre-registered handles stay valid
/// across toggles; samples recorded while disabled are simply not taken.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Zero every counter, gauge, and histogram, and clear events, the fleet
/// table, and the trace buffer. Handles previously returned by
/// [`counter()`]/[`gauge()`]/[`histogram()`] remain valid (they are zeroed in
/// place), so call-site caches survive a reset.
pub fn reset() {
    metrics::reset_metrics();
    fleet::fleet_reset();
    trace::reset_trace();
}

/// Record a structured event (e.g. a worker respawn or a poisoned spec).
/// Events carry a process-wide sequence number and appear in the metrics
/// snapshot and, when tracing is on, as instant events in the trace.
pub fn event(kind: &'static str, detail: String) {
    if !enabled() {
        return;
    }
    metrics::record_event(kind, detail);
}

/// Serializes one complete metrics document — build provenance, the global
/// metrics snapshot (counters / gauges / histograms / events), and the
/// per-slot fleet health table — as a single JSON object. This is what
/// `campaign --metrics-out` writes and what the CI schema check validates.
pub fn metrics_json(build: &BuildInfo) -> String {
    let mut w = json::JsonWriter::new();
    w.begin_object(None);
    w.begin_object(Some("build"));
    w.field_str("version", &build.version);
    w.field_str("git_hash", &build.git_hash);
    w.field_str("target_features", &build.target_features);
    w.field_bool("parallel", build.parallel);
    w.end_object();
    snapshot().write_json(&mut w);
    write_fleet_json(&mut w, &fleet_snapshot());
    w.end_object();
    w.into_string()
}

/// Counter handle cached in a call-site static: one relaxed load to check
/// the gate, one registry lookup ever.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static __H: ::std::sync::OnceLock<&'static $crate::metrics::Counter> =
            ::std::sync::OnceLock::new();
        *__H.get_or_init(|| $crate::metrics::counter($name))
    }};
}

/// Gauge handle cached in a call-site static.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static __H: ::std::sync::OnceLock<&'static $crate::metrics::Gauge> =
            ::std::sync::OnceLock::new();
        *__H.get_or_init(|| $crate::metrics::gauge($name))
    }};
}

/// Histogram handle cached in a call-site static.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static __H: ::std::sync::OnceLock<&'static $crate::metrics::Histogram> =
            ::std::sync::OnceLock::new();
        *__H.get_or_init(|| $crate::metrics::histogram($name))
    }};
}

/// RAII span timer: on drop, records the elapsed nanoseconds into the
/// histogram named `$name` and (when tracing is on) pushes a Chrome
/// `trace_event` complete event. Inert — no clock read — when disabled.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::trace::span_start($name, {
            static __H: ::std::sync::OnceLock<&'static $crate::metrics::Histogram> =
                ::std::sync::OnceLock::new();
            *__H.get_or_init(|| $crate::metrics::histogram($name))
        })
    };
}
