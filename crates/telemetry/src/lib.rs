//! Telemetry for the Hyper-Tune runtime: a structured event log, a
//! lock-cheap metrics registry, and timing spans.
//!
//! # Module map
//!
//! | module | contents |
//! |---|---|
//! | [`event`] | `Event` taxonomy, `EventRecord`, JSON (de)serialization |
//! | [`sink`] | `EventSink` trait; ring buffer, JSONL, console sinks |
//! | [`metrics`] | counters / gauges / histograms with `snapshot()` |
//! | [`span`] | injected `Clock`s (wall + manual/virtual), used by spans |
//! | [`replay`] | JSONL reader and `TraceSummary` for `trace-report` |
//!
//! # The handle
//!
//! Everything funnels through a [`TelemetryHandle`], built with
//! [`Telemetry`] and cloned freely into the runner, schedulers, samplers,
//! and cluster substrates:
//!
//! ```
//! use hypertune_telemetry::{Event, RingBufferSink, Telemetry};
//!
//! let ring = RingBufferSink::new(1024);
//! let t = Telemetry::new().with_sink(ring.clone()).build();
//! t.emit_with(0.5, || Event::PromotionMade { bracket: 0, to_level: 1 });
//! t.counter_add("trials.completed", 1);
//! assert_eq!(ring.snapshot().len(), 1);
//! assert_eq!(t.snapshot().unwrap().counter("trials.completed"), Some(1));
//! ```
//!
//! # The disabled guarantee
//!
//! [`Telemetry::disabled()`] (also `TelemetryHandle::default()`) carries
//! no allocation behind it and short-circuits every operation before
//! touching a clock, a sink, or an event constructor — `emit_with`
//! closures are never called, spans never read time. Instrumented code
//! therefore runs bit-identically to uninstrumented code when telemetry
//! is off: no RNG draws, no clock reads, no allocation on any hot path.
//!
//! # Timestamps
//!
//! Event times are supplied by the *emitter* (`emit_with(time, …)`):
//! the simulated runner passes virtual seconds, the threaded runner
//! passes wall seconds. Span durations instead use the handle's injected
//! [`Clock`] — wall by default, a [`ManualClock`] when a test or the
//! simulator wants deterministic durations.

pub mod event;
pub mod metrics;
pub mod replay;
pub mod sink;
pub mod span;

pub use event::{Event, EventRecord, FailureKind, FaultKind};
pub use metrics::{HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use replay::{read_jsonl, TraceSummary};
pub use sink::{ConsoleSink, EventSink, JsonlSink, RingBufferSink};
pub use span::{Clock, ManualClock, WallClock};

use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

struct Inner {
    /// The next sequence number. Held while a record is written to the
    /// sinks, so every sink sees records in `seq` order.
    seq: Mutex<u64>,
    sinks: Vec<Box<dyn EventSink>>,
    metrics: MetricsRegistry,
    clock: Arc<dyn Clock>,
}

impl Inner {
    fn seq(&self) -> MutexGuard<'_, u64> {
        // A sink that panicked mid-write leaves the counter itself intact.
        self.seq.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Assigns the next `seq` and records to every sink under one lock:
    /// concurrent emitters cannot interleave between numbering and
    /// writing, so `seq` is strictly increasing in every sink.
    fn publish(&self, time: f64, event: Event, tenant: Option<u64>) {
        let mut seq = self.seq();
        let rec = EventRecord {
            seq: *seq,
            time,
            event,
            tenant,
        };
        *seq += 1;
        for sink in &self.sinks {
            sink.record(&rec);
        }
    }
}

/// A cheap, cloneable handle to a telemetry pipeline — or to nothing.
///
/// The disabled handle (the [`Default`]) is a `None` and every method on
/// it returns before doing observable work; see the crate docs for the
/// exact guarantee.
#[derive(Clone, Default)]
pub struct TelemetryHandle {
    inner: Option<Arc<Inner>>,
    tenant: Option<u64>,
}

impl fmt::Debug for TelemetryHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            Some(inner) => f
                .debug_struct("TelemetryHandle")
                .field("enabled", &true)
                .field("sinks", &inner.sinks.len())
                .field("seq", &*inner.seq())
                .field("tenant", &self.tenant)
                .finish(),
            None => f
                .debug_struct("TelemetryHandle")
                .field("enabled", &false)
                .finish(),
        }
    }
}

impl TelemetryHandle {
    /// The no-op handle. Identical to `TelemetryHandle::default()`.
    pub fn disabled() -> Self {
        Self {
            inner: None,
            tenant: None,
        }
    }

    /// True when events and metrics actually go somewhere.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A clone of this handle that stamps every emitted record (spans
    /// included) with `study` as its tenant id. The pipeline behind the
    /// handle — sinks, metrics, the sequence counter — stays shared, so
    /// tenant-scoped records interleave in one global log and
    /// `trace-report --per-study` can split them back out.
    pub fn with_tenant(&self, study: u64) -> Self {
        Self {
            inner: self.inner.clone(),
            tenant: Some(study),
        }
    }

    /// The tenant id this handle stamps, if any.
    pub fn tenant(&self) -> Option<u64> {
        self.tenant
    }

    /// Emits an event at the given emitter timestamp. The closure runs
    /// only when enabled, so event construction (and its allocations)
    /// costs nothing on a disabled handle.
    pub fn emit_with(&self, time: f64, make: impl FnOnce() -> Event) {
        if let Some(inner) = &self.inner {
            inner.publish(time, make(), self.tenant);
        }
    }

    /// Like [`emit_with`](Self::emit_with) but stamps the event with the
    /// handle's own clock — for emitters with no better notion of time
    /// (e.g. the thread pool's dispatch path).
    pub fn emit_now_with(&self, make: impl FnOnce() -> Event) {
        if let Some(inner) = &self.inner {
            inner.publish(inner.clock.now(), make(), self.tenant);
        }
    }

    /// Adds `n` to a counter. No-op when disabled.
    pub fn counter_add(&self, name: &str, n: u64) {
        if let Some(inner) = &self.inner {
            inner.metrics.counter_add(name, n);
        }
    }

    /// Sets a gauge. No-op when disabled.
    pub fn gauge_set(&self, name: &str, v: f64) {
        if let Some(inner) = &self.inner {
            inner.metrics.gauge_set(name, v);
        }
    }

    /// Records into a histogram. No-op when disabled.
    pub fn histogram_record(&self, name: &str, v: f64) {
        if let Some(inner) = &self.inner {
            inner.metrics.histogram_record(name, v);
        }
    }

    /// A point-in-time metrics view, or `None` when disabled.
    pub fn snapshot(&self) -> Option<MetricsSnapshot> {
        self.inner.as_ref().map(|i| i.metrics.snapshot())
    }

    /// Opens a timing span; the returned guard records a
    /// `span.<name>` histogram entry and a [`Event::SpanClosed`] event
    /// when dropped. On a disabled handle the guard is inert and never
    /// reads the clock.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        let state = self
            .inner
            .as_ref()
            .map(|inner| (Arc::clone(inner), inner.clock.now()));
        SpanGuard {
            state,
            name,
            tenant: self.tenant,
        }
    }

    /// Flushes every sink (buffered JSONL output in particular).
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            for sink in &inner.sinks {
                sink.flush();
            }
        }
    }
}

/// Drop guard returned by [`TelemetryHandle::span`].
///
/// Timing uses the handle's injected [`Clock`], so spans measure virtual
/// seconds when a [`ManualClock`] is driven by the simulator and wall
/// seconds otherwise.
#[must_use = "a span measures until dropped; binding to _ drops immediately"]
pub struct SpanGuard {
    state: Option<(Arc<Inner>, f64)>,
    name: &'static str,
    tenant: Option<u64>,
}

impl SpanGuard {
    /// Discards the span without recording anything — for callers that
    /// only want a measurement when the guarded section actually did
    /// work (e.g. a refresh that turned out to be a no-op).
    pub fn cancel(mut self) {
        self.state = None;
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((inner, start)) = self.state.take() {
            let end = inner.clock.now();
            let duration = (end - start).max(0.0);
            inner
                .metrics
                .histogram_record(&format!("span.{}", self.name), duration);
            inner.publish(
                end,
                Event::SpanClosed {
                    name: self.name.to_string(),
                    duration,
                },
                self.tenant,
            );
        }
    }
}

impl fmt::Debug for SpanGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpanGuard")
            .field("name", &self.name)
            .field("active", &self.state.is_some())
            .finish()
    }
}

/// Builder for an enabled [`TelemetryHandle`].
#[derive(Default)]
pub struct Telemetry {
    sinks: Vec<Box<dyn EventSink>>,
    clock: Option<Arc<dyn Clock>>,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry")
            .field("sinks", &self.sinks.len())
            .field("custom_clock", &self.clock.is_some())
            .finish()
    }
}

impl Telemetry {
    /// An empty builder (no sinks, wall clock).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a sink. Keep a clone of a [`RingBufferSink`] to read events
    /// back in-process.
    pub fn with_sink(mut self, sink: impl EventSink + 'static) -> Self {
        self.sinks.push(Box::new(sink));
        self
    }

    /// Injects the clock used for span timing and
    /// [`TelemetryHandle::emit_now_with`]. Pass a shared
    /// [`ManualClock`] to drive spans on virtual time.
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Builds the enabled handle. A handle with no sinks still counts
    /// metrics and sequences events — the events just go nowhere.
    pub fn build(self) -> TelemetryHandle {
        TelemetryHandle {
            inner: Some(Arc::new(Inner {
                seq: Mutex::new(0),
                sinks: self.sinks,
                metrics: MetricsRegistry::new(),
                clock: self.clock.unwrap_or_else(|| Arc::new(WallClock::new())),
            })),
            tenant: None,
        }
    }

    /// The no-op handle; shorthand for [`TelemetryHandle::disabled`].
    pub fn disabled() -> TelemetryHandle {
        TelemetryHandle::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_never_runs_event_closures() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.emit_with(1.0, || unreachable!("closure must not run when disabled"));
        t.emit_now_with(|| unreachable!("closure must not run when disabled"));
        t.counter_add("x", 1);
        t.gauge_set("y", 2.0);
        t.histogram_record("z", 3.0);
        assert!(t.snapshot().is_none());
        let _span = t.span("idle");
        t.flush();
    }

    #[test]
    fn concurrent_emitters_record_strictly_increasing_seq() {
        // Event construction yields the CPU, widening the window in which
        // another thread could take a later `seq` and record it first.
        let make = |level| {
            std::thread::yield_now();
            Event::SurrogatePredict { level, n_models: 1 }
        };
        let ring = RingBufferSink::new(4096);
        let t = Telemetry::new().with_sink(ring.clone()).build();
        std::thread::scope(|s| {
            for thread in 0..4u64 {
                let t = t.with_tenant(thread);
                s.spawn(move || {
                    for i in 0..1000 {
                        if i % 2 == 0 {
                            t.emit_with(i as f64, || make(0));
                        } else {
                            t.emit_now_with(|| make(1));
                        }
                    }
                });
            }
        });
        let seqs: Vec<u64> = ring.snapshot().iter().map(|r| r.seq).collect();
        assert_eq!(seqs.len(), 4000);
        assert!(
            seqs.windows(2).all(|w| w[0] < w[1]),
            "recorded seq out of order"
        );
    }

    #[test]
    fn sequence_numbers_are_monotone_across_sinks_and_spans() {
        let ring = RingBufferSink::new(64);
        let clock = Arc::new(ManualClock::new());
        let t = Telemetry::new()
            .with_sink(ring.clone())
            .with_clock(clock.clone())
            .build();
        t.emit_with(0.0, || Event::SurrogatePredict {
            level: 0,
            n_models: 1,
        });
        {
            let _s = t.span("work");
            clock.advance(0.5);
        }
        t.emit_with(9.0, || Event::CheckpointWritten {
            completions: 3,
            path: "p".into(),
        });
        let recs = ring.snapshot();
        assert_eq!(recs.len(), 3);
        let seqs: Vec<u64> = recs.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        match &recs[1].event {
            Event::SpanClosed { name, duration } => {
                assert_eq!(name, "work");
                assert!((duration - 0.5).abs() < 1e-12);
            }
            other => panic!("expected span close, got {other:?}"),
        }
        assert_eq!(recs[1].time, 0.5);
    }

    #[test]
    fn span_records_histogram_under_prefixed_name() {
        let clock = Arc::new(ManualClock::new());
        let t = Telemetry::new().with_clock(clock.clone()).build();
        {
            let _s = t.span("fit");
            clock.advance(0.25);
        }
        let snap = t.snapshot().unwrap();
        let h = snap.histogram("span.fit").unwrap();
        assert_eq!(h.count, 1);
        assert!((h.sum - 0.25).abs() < 1e-12);
    }

    #[test]
    fn cancelled_span_records_nothing() {
        let ring = RingBufferSink::new(8);
        let clock = Arc::new(ManualClock::new());
        let t = Telemetry::new()
            .with_sink(ring.clone())
            .with_clock(clock.clone())
            .build();
        let s = t.span("maybe");
        clock.advance(1.0);
        s.cancel();
        assert_eq!(ring.len(), 0);
        assert!(t.snapshot().unwrap().histogram("span.maybe").is_none());
    }

    #[test]
    fn fan_out_reaches_every_sink() {
        let a = RingBufferSink::new(8);
        let b = RingBufferSink::new(8);
        let t = Telemetry::new()
            .with_sink(a.clone())
            .with_sink(b.clone())
            .build();
        t.emit_with(0.0, || Event::FaultInjected {
            kind: FaultKind::Error,
        });
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn tenant_handles_stamp_records_and_share_the_pipeline() {
        let ring = RingBufferSink::new(8);
        let clock = Arc::new(ManualClock::new());
        let t = Telemetry::new()
            .with_sink(ring.clone())
            .with_clock(clock.clone())
            .build();
        let a = t.with_tenant(7);
        assert_eq!(a.tenant(), Some(7));
        assert_eq!(t.tenant(), None);
        t.emit_with(0.0, || Event::BreakerClosed);
        a.emit_with(1.0, || Event::BreakerClosed);
        {
            let _s = a.span("suggest_batch");
            clock.advance(0.5);
        }
        let recs = ring.snapshot();
        assert_eq!(recs.len(), 3);
        assert_eq!(
            recs.iter().map(|r| r.tenant).collect::<Vec<_>>(),
            vec![None, Some(7), Some(7)]
        );
        // One shared sequence across the base and tenant handles.
        assert_eq!(
            recs.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn handle_clones_share_the_sequence() {
        let ring = RingBufferSink::new(8);
        let t = Telemetry::new().with_sink(ring.clone()).build();
        let t2 = t.clone();
        t.emit_with(0.0, || Event::SurrogateFit {
            level: 0,
            n_points: 1,
        });
        t2.emit_with(1.0, || Event::SurrogateFit {
            level: 1,
            n_points: 2,
        });
        let seqs: Vec<u64> = ring.snapshot().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1]);
    }
}
