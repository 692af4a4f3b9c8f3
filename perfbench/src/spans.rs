//! The benchmark's own tracing: spans recorded around calls into each
//! crate's public functions, and a trace sink that stamps host time on every
//! market trace record.
//!
//! Spans are kept in memory and written out as JSON lines when the traced
//! run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::rc::Rc;
use std::time::Instant;

use simcore::trace::{TraceEvent, TraceRecord, TraceSink};

/// One recorded span: what ran, when (nanoseconds since the recorder's
/// origin), and the span that caused it.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// In-memory span recorder.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = self.open(name);
        let out = std::hint::black_box(f());
        self.close(idx);
        out
    }

    /// Open a span that closes with [`Spans::close`] — for bodies that need
    /// `&mut self` of the caller while the span is open.
    pub fn open(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        idx
    }

    pub fn close(&mut self, idx: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans close innermost first");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string())
            )?;
        }
        Ok(())
    }
}

/// The variant name of a trace event, used as the interval bucket of the
/// record that closes it.
pub fn event_kind(ev: &TraceEvent) -> &'static str {
    match ev {
        TraceEvent::MarketReserve { .. } => "MarketReserve",
        TraceEvent::MarketRelease { .. } => "MarketRelease",
        TraceEvent::MarketLeaseRenew { .. } => "MarketLeaseRenew",
        TraceEvent::MarketReplan { .. } => "MarketReplan",
        TraceEvent::MarketCrashDetect { .. } => "MarketCrashDetect",
        TraceEvent::MarketCrashRepair { .. } => "MarketCrashRepair",
        TraceEvent::MarketFailover { .. } => "MarketFailover",
        TraceEvent::MarketTreeFailover { .. } => "MarketTreeFailover",
        TraceEvent::MarketTreeRebuilt { .. } => "MarketTreeRebuilt",
        TraceEvent::MarketSessionLost { .. } => "MarketSessionLost",
        TraceEvent::MarketLeasesLapsed { .. } => "MarketLeasesLapsed",
        TraceEvent::MarketHostFault { .. } => "MarketHostFault",
        TraceEvent::OracleTiers { .. } => "OracleTiers",
        _ => "Other",
    }
}

/// Every interval bucket [`event_kind`] can return.
pub const EVENT_KINDS: [&str; 14] = [
    "MarketReserve",
    "MarketRelease",
    "MarketLeaseRenew",
    "MarketReplan",
    "MarketCrashDetect",
    "MarketCrashRepair",
    "MarketFailover",
    "MarketTreeFailover",
    "MarketTreeRebuilt",
    "MarketSessionLost",
    "MarketLeasesLapsed",
    "MarketHostFault",
    "OracleTiers",
    "Other",
];

/// What the stamping sink saw: every record with the host instant it
/// arrived.
pub type Stamps = Vec<(Instant, TraceRecord)>;

/// A [`TraceSink`] that stamps host time on every record and passes it on
/// to `inner` (the live-operations store, when the workload has one).
pub struct StampSink {
    stamps: Rc<RefCell<Stamps>>,
    inner: Option<Box<dyn TraceSink>>,
}

impl StampSink {
    pub fn new(inner: Option<Box<dyn TraceSink>>) -> (StampSink, Rc<RefCell<Stamps>>) {
        let stamps = Rc::new(RefCell::new(Stamps::default()));
        (
            StampSink {
                stamps: stamps.clone(),
                inner,
            },
            stamps,
        )
    }
}

impl TraceSink for StampSink {
    fn record(&mut self, rec: TraceRecord) {
        let at = Instant::now();
        if let Some(inner) = &mut self.inner {
            inner.record(rec.clone());
        }
        self.stamps.borrow_mut().push((at, rec));
    }
}

/// Host time between consecutive records, charged to the record that
/// closes each interval, plus the tail after the last record. Kept in whole
/// nanoseconds, so the buckets add up to `end - start` exactly.
pub struct Intervals {
    pub by_kind_ns: BTreeMap<&'static str, u128>,
    pub unattributed_ns: u128,
    pub wall_ns: u128,
}

impl Intervals {
    pub fn of(stamps: &[(Instant, TraceRecord)], start: Instant, end: Instant) -> Intervals {
        let mut by_kind_ns: BTreeMap<&'static str, u128> =
            EVENT_KINDS.iter().map(|&k| (k, 0)).collect();
        let mut prev = start;
        for (at, rec) in stamps {
            *by_kind_ns
                .get_mut(event_kind(&rec.ev))
                .expect("bucket exists") += at.duration_since(prev).as_nanos();
            prev = *at;
        }
        Intervals {
            by_kind_ns,
            unattributed_ns: end.duration_since(prev).as_nanos(),
            wall_ns: end.duration_since(start).as_nanos(),
        }
    }

    /// Whether the buckets account for the whole wall time.
    pub fn balanced(&self) -> bool {
        self.by_kind_ns.values().sum::<u128>() + self.unattributed_ns == self.wall_ns
    }
}
