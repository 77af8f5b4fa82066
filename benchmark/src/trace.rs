//! Tracing from outside the program: spans around the benchmark's calls
//! into each layer, and a counting wrapper around the `Detector` trait.
//!
//! Spans live in memory and are written out when the run ends. Per-event
//! detector hooks are far too frequent for spans, so [`Timed`] keeps call
//! and nanosecond counters instead.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use scord_core::{AccessEffects, Detector, DetectorError, FaultStats, MemAccess, RaceLog, Trace};
use scord_isa::Scope;

use crate::json;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary crossed (`<layer>.<call>`).
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation (simulation, trace, request) the span belongs to.
    pub op_id: u64,
}

/// An open span, returned by [`Tracer::enter`] and closed by
/// [`Tracer::exit`].
#[must_use]
pub struct Open {
    index: Option<usize>,
    start: Instant,
}

/// Span recorder. When off it records nothing, but [`Tracer::exit`] still
/// returns the elapsed time, so traced and untraced runs time the same
/// calls the same way.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans when `on`, timed from `epoch`.
    #[must_use]
    pub fn new(on: bool, epoch: Instant) -> Self {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans and layer counters are being recorded.
    #[must_use]
    pub fn on(&self) -> bool {
        self.on
    }

    /// A recorder for another thread, sharing this one's epoch and switch.
    #[must_use]
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.on, self.epoch)
    }

    /// Opens span `name` for operation `op_id`, nested in the innermost
    /// open span.
    pub fn enter(&mut self, name: &'static str, op_id: u64) -> Open {
        let start = Instant::now();
        let index = self.on.then(|| {
            let ns = self.ns(start);
            self.spans.push(Span {
                name,
                start_ns: ns,
                end_ns: ns,
                parent: self.stack.last().copied(),
                op_id,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { index, start }
    }

    /// Closes `open` and returns its duration in seconds.
    pub fn exit(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(i) = open.index {
            self.spans[i].end_ns = self.ns(end);
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(i), "spans close in reverse order");
        }
        end.duration_since(open.start).as_secs_f64()
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Appends a forked tracer's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON lines to `path`, creating its directory.
    ///
    /// # Errors
    ///
    /// Any I/O error.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for s in &self.spans {
            out.push_str("{\"name\":");
            json::write_str(&mut out, s.name);
            out.push_str(&format!(
                ",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op_id\":{}}}\n",
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.op_id
            ));
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(out.as_bytes())?;
        f.flush()
    }
}

/// Per span name: `(count, total ns, self ns)`, where a span's self time is
/// its duration minus the part of it its child spans cover.
#[must_use]
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, cov) in spans.iter().zip(covered) {
        let dur = s.end_ns - s.start_ns;
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += dur;
        e.2 += dur.saturating_sub(cov);
    }
    out
}

/// Call and time counters shared between a [`Timed`] detector (owned by a
/// `Gpu`) and the benchmark that reads them after the run. Relaxed
/// atomics: they are statistics and publish nothing else.
#[derive(Debug, Default)]
pub struct DetectorCounters {
    /// `on_access` calls.
    pub access_calls: AtomicU64,
    /// Nanoseconds inside `on_access`.
    pub access_ns: AtomicU64,
    /// Barrier, fence, warp-assignment and kernel-boundary calls.
    pub sync_calls: AtomicU64,
    /// Nanoseconds inside those calls.
    pub sync_ns: AtomicU64,
}

impl DetectorCounters {
    fn count(calls: &AtomicU64, ns: &AtomicU64, start: Instant) {
        calls.fetch_add(1, Ordering::Relaxed);
        let dt = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        ns.fetch_add(dt, Ordering::Relaxed);
    }

    /// `(access calls, access s, sync calls, sync s)`.
    #[must_use]
    pub fn read(&self) -> (u64, f64, u64, f64) {
        let ld = |a: &AtomicU64| a.load(Ordering::Relaxed);
        (
            ld(&self.access_calls),
            ld(&self.access_ns) as f64 * 1e-9,
            ld(&self.sync_calls),
            ld(&self.sync_ns) as f64 * 1e-9,
        )
    }
}

/// A detector that forwards every [`Detector`] method to `D` — the
/// defaulted ones included — and counts calls and time in the per-event
/// hooks.
#[derive(Debug)]
pub struct Timed<D> {
    inner: D,
    counters: Arc<DetectorCounters>,
}

impl<D: Detector> Timed<D> {
    /// Wraps `inner`, counting into `counters`.
    pub fn new(inner: D, counters: Arc<DetectorCounters>) -> Self {
        Timed { inner, counters }
    }

    fn sync<R>(&mut self, f: impl FnOnce(&mut D) -> R) -> R {
        let t = Instant::now();
        let r = f(&mut self.inner);
        DetectorCounters::count(&self.counters.sync_calls, &self.counters.sync_ns, t);
        r
    }
}

impl<D: Detector> Detector for Timed<D> {
    fn on_barrier(&mut self, sm: u8, block_slot: u8) -> Result<(), DetectorError> {
        self.sync(|d| d.on_barrier(sm, block_slot))
    }

    fn on_fence(&mut self, sm: u8, warp_slot: u8, scope: Scope) -> Result<(), DetectorError> {
        self.sync(|d| d.on_fence(sm, warp_slot, scope))
    }

    fn on_warp_assigned(&mut self, sm: u8, warp_slot: u8) -> Result<(), DetectorError> {
        self.sync(|d| d.on_warp_assigned(sm, warp_slot))
    }

    fn on_access(&mut self, access: &MemAccess) -> Result<AccessEffects, DetectorError> {
        let t = Instant::now();
        let r = self.inner.on_access(access);
        DetectorCounters::count(&self.counters.access_calls, &self.counters.access_ns, t);
        r
    }

    fn races(&self) -> &RaceLog {
        self.inner.races()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn on_kernel_boundary(&mut self) {
        self.sync(Detector::on_kernel_boundary);
    }

    fn fault_stats(&self) -> Option<&FaultStats> {
        self.inner.fault_stats()
    }

    fn trace(&self) -> Option<&Trace> {
        self.inner.trace()
    }

    fn store_usage(&self) -> Option<(u64, u64)> {
        self.inner.store_usage()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scord_core::{DetectorConfig, FuzzConfig, ScordDetector};

    #[test]
    fn timed_detector_is_transparent() {
        let trace = FuzzConfig {
            events: 2000,
            race_pct: 30,
            ..FuzzConfig::default()
        }
        .generate(11);
        let cfg = DetectorConfig::paper_default(1 << 20);
        let mut bare = ScordDetector::new(cfg);
        trace.replay(&mut bare).unwrap();
        let counters = Arc::new(DetectorCounters::default());
        let mut timed = Timed::new(ScordDetector::new(cfg), Arc::clone(&counters));
        trace.replay(&mut timed).unwrap();

        assert!(bare.races().unique_count() > 0, "the trace must race");
        assert_eq!(timed.races().records(), bare.races().records());
        let uniques = |d: &dyn Detector| -> std::collections::HashSet<_> {
            d.races().unique_races().collect()
        };
        assert_eq!(uniques(&timed), uniques(&bare));
        assert_eq!(timed.races().total_count(), bare.races().total_count());
        assert_eq!(timed.store_usage(), bare.store_usage());
        assert!(timed.store_usage().is_some());
        assert_eq!(timed.fault_stats().is_some(), bare.fault_stats().is_some());
        assert!(timed.trace().is_none());

        let (access, _, sync, _) = counters.read();
        assert_eq!(
            access + sync,
            trace.len() as u64,
            "every event counted once"
        );
        assert!(access > 0 && sync > 0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "a",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                op_id: 0,
            },
            Span {
                name: "b",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                op_id: 0,
            },
            Span {
                name: "b",
                start_ns: 50,
                end_ns: 60,
                parent: Some(0),
                op_id: 0,
            },
        ];
        let t = self_times(&spans);
        assert_eq!(t["a"], (1, 100, 60));
        assert_eq!(t["b"], (2, 40, 40));
    }

    #[test]
    fn tracer_nests_and_absorbs() {
        let mut t = Tracer::new(true, Instant::now());
        let outer = t.enter("outer", 1);
        let inner = t.enter("inner", 1);
        assert!(t.exit(inner) >= 0.0);
        let _ = t.exit(outer);
        let mut other = t.fork();
        let o = other.enter("x", 2);
        let i = other.enter("y", 2);
        let _ = other.exit(i);
        let _ = other.exit(o);
        t.absorb(other);
        let parents: Vec<_> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), None, Some(2)]);

        let mut off = Tracer::new(false, Instant::now());
        let s = off.enter("z", 0);
        let _ = off.exit(s);
        assert!(off.spans().is_empty());
    }
}
