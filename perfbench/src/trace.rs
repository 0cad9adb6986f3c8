//! Spans recorded from the benchmark's own wrappers, and the arithmetic
//! that turns them into per-layer self times and a per-op waterfall.
//!
//! Spans are keyed by the request's wire correlation id. The `ServiceFn`
//! around `ProviderService::handle` records one per request (handle start
//! → end) and the store wrapper one per store call; the store span's
//! parent is found through [`CURRENT`], which the service wrapper sets
//! for the duration of each request on its worker thread. The client
//! span (submit → reply) comes from the generator's own send and receive
//! stamps. Spans stay in memory until the run ends.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Which wrapper recorded a span.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Layer {
    /// Service wrapper: `ProviderService::handle` start → end.
    Service,
    /// Store wrapper: one `ConcurrentKv` call.
    Store,
}

impl Layer {
    /// Stable label used in the span dump.
    pub fn label(self) -> &'static str {
        match self {
            Layer::Service => "service",
            Layer::Store => "store",
        }
    }
}

/// One recorded interval, in nanoseconds since the recorder's epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Wire correlation id of the request the span belongs to.
    pub corr: u64,
    /// Recording wrapper.
    pub layer: Layer,
    /// What the span did (store op name, wire op label).
    pub what: &'static str,
    /// Start, ns since epoch.
    pub start: u64,
    /// End, ns since epoch.
    pub end: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

thread_local! {
    /// Correlation id of the request the current worker thread is
    /// handling (0 outside a request).
    pub static CURRENT: Cell<u64> = const { Cell::new(0) };
}

/// In-memory span sink shared by every wrapper of one run.
pub struct Recorder {
    epoch: Instant,
    on: AtomicBool,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// An empty, switched-off recorder whose clock starts at `epoch`.
    pub fn new(epoch: Instant, capacity: usize) -> Self {
        Recorder {
            epoch,
            on: AtomicBool::new(false),
            spans: Mutex::new(Vec::with_capacity(capacity)),
        }
    }

    /// Starts or stops recording (set-up and replays stay out of it).
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Nanoseconds from the epoch to `t` (0 for instants before it).
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records one span (a no-op while switched off).
    pub fn record(
        &self,
        corr: u64,
        layer: Layer,
        what: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if !self.is_on() {
            return;
        }
        let span = Span {
            corr,
            layer,
            what,
            start: self.ns(start),
            end: self.ns(end),
        };
        self.spans
            .lock()
            .expect("span sink poisoned by a panicking recorder")
            .push(span);
    }

    /// Every span recorded so far, sorted by correlation id then start.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("span sink poisoned by a panicking recorder"),
        );
        spans.sort_by_key(|s| (s.corr, s.start, s.layer));
        spans
    }
}

/// Length of the part of `within` that the union of `children` covers.
/// Children may overlap each other and stick out of `within`.
pub fn covered(within: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (lo, hi) = within;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// A span's self time: its duration minus the part its children cover.
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    span.1.saturating_sub(span.0) - covered(span, children)
}

/// One bar of a waterfall.
#[derive(Clone, Debug, PartialEq)]
pub struct Part {
    /// Layer name (`net.inbound`, `store`, `provider.self`, ...).
    pub name: String,
    /// Median self time, ms.
    pub ms: f64,
}

/// Where one op's client-observed median went: each layer's self time
/// plus the explicit remainder no layer claimed. Medians do not add, so
/// the remainder is whatever makes the bars sum to the observed median
/// and may be negative.
#[derive(Clone, Debug, PartialEq)]
pub struct Waterfall {
    /// Wire op label.
    pub op: &'static str,
    /// Client-observed median latency, ms.
    pub observed_ms: f64,
    /// Per-layer self times, ms.
    pub parts: Vec<Part>,
    /// `observed_ms` minus the sum of `parts`.
    pub unattributed_ms: f64,
}

impl Waterfall {
    /// Builds the waterfall, closing it with the unattributed remainder.
    pub fn new(op: &'static str, observed_ms: f64, parts: Vec<Part>) -> Self {
        let attributed: f64 = parts.iter().map(|p| p.ms).sum();
        Waterfall {
            op,
            observed_ms,
            parts,
            unattributed_ms: observed_ms - attributed,
        }
    }

    /// Sum of every bar including the remainder (equals `observed_ms`
    /// up to float rounding).
    pub fn total_ms(&self) -> f64 {
        self.parts.iter().map(|p| p.ms).sum::<f64>() + self.unattributed_ms
    }

    /// One text line per bar.
    pub fn render(&self) -> String {
        let mut out = format!(
            "waterfall {}: client-observed p50 {:.4} ms\n",
            self.op, self.observed_ms
        );
        for p in &self.parts {
            out.push_str(&format!("  {:<22} {:>9.4} ms\n", p.name, p.ms));
        }
        out.push_str(&format!(
            "  {:<22} {:>9.4} ms\n  {:<22} {:>9.4} ms\n",
            "unattributed",
            self.unattributed_ms,
            "= total",
            self.total_ms()
        ));
        out
    }
}
