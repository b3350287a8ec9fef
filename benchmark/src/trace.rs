//! In-memory span recorder and the statistics the report is built from.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer; they stay in memory and are written once, when the
//! run ends. A layer's self time is its span's duration minus the part
//! its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Spans of one request share this identifier.
    pub request: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans while enabled; a disabled recorder costs one branch
/// per call, so the same code path runs in traced and untraced runs.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    /// Open spans, innermost last: a new span's parent is the top.
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name`, child of whatever span is open on
    /// this recorder. Close it with [`Recorder::exit`]; spans close in
    /// the reverse of the order they opened.
    pub fn enter(&mut self, name: &'static str, request: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.stack.push(self.spans.len());
        self.spans.push(Span {
            name,
            request,
            parent: self.stack.iter().rev().nth(1).copied(),
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let index = self.stack.pop().expect("exit without a matching enter");
        self.spans[index].end_ns = end_ns;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Writes named groups of spans as one JSON document. Span ids and
/// parents index into their own group; each group has its own time
/// origin.
pub fn write_json(
    path: &Path,
    workload: &str,
    groups: &[(String, &[Span])],
) -> std::io::Result<()> {
    let mut out = String::new();
    let _ = write!(out, "{{\"workload\": \"{workload}\"");
    for (group, spans) in groups {
        let _ = write!(out, ",\n\"{group}\": [");
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{}\n{{\"id\": {i}, \"name\": \"{}\", \"request\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.request,
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("\n]");
    }
    out.push_str("\n}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

/// Total self time per span name: each span's duration minus the time
/// its direct children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    let mut totals = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        *totals.entry(s.name).or_insert(0) += s.duration_ns().saturating_sub(covered);
    }
    totals
}

/// Raw timing samples of one kind, in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
}

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
    }

    pub fn count(&self) -> usize {
        self.ns.len()
    }

    /// The `q`-quantile in microseconds, or `None` when fewer than ten
    /// samples lie beyond it (the median only needs one sample).
    pub fn percentile_us(&mut self, q: f64) -> Option<f64> {
        let n = self.ns.len();
        if n == 0 || (q > 0.5 && (n as f64) * (1.0 - q) < 10.0) {
            return None;
        }
        // Already-sorted input costs the sort one linear pass.
        self.ns.sort_unstable();
        let idx = ((n - 1) as f64 * q).round() as usize;
        Some(self.ns[idx.min(n - 1)] as f64 / 1e3)
    }

    pub fn median_us(&mut self) -> Option<f64> {
        self.percentile_us(0.5)
    }

    pub fn mean_us(&self) -> Option<f64> {
        let total: u64 = self.ns.iter().sum();
        (!self.ns.is_empty()).then(|| total as f64 / 1e3 / self.ns.len() as f64)
    }

    /// The highest of p99, p95, p90, p75 that has ten samples beyond
    /// it, with the level used; falls back to the median.
    pub fn tail_us(&mut self) -> Option<(f64, f64)> {
        [0.99, 0.95, 0.90, 0.75, 0.5]
            .into_iter()
            .find_map(|q| self.percentile_us(q).map(|v| (q, v)))
    }
}

/// Median of a small set of measurements.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `q`-quantile of a small set of measurements, interpolated
/// between the two nearest of them.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = (v.len() - 1) as f64 * q;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
}

/// Geometric mean of positive values.
pub fn geometric_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of nothing");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            request: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // request [0,100) -> decode [5,25), handle [30,90) -> store [35,60), engine [60,85)
        let spans = vec![
            span("request", None, 0, 100),
            span("decode", Some(0), 5, 25),
            span("handle", Some(0), 30, 90),
            span("store", Some(2), 35, 60),
            span("engine", Some(2), 60, 85),
            span("request", None, 100, 130),
        ];
        let t = self_times(&spans);
        assert_eq!(t["request"], (100 - 20 - 60) + 30);
        assert_eq!(t["decode"], 20);
        assert_eq!(t["handle"], 60 - 25 - 25);
        assert_eq!(t["store"], 25);
        assert_eq!(t["engine"], 25);
        // Self times add up to the root spans' durations.
        assert_eq!(t.values().sum::<u64>(), 130);
    }

    #[test]
    fn recorder_nests_spans_and_is_free_when_disabled() {
        let mut rec = Recorder::new(true);
        rec.enter("outer", 7);
        rec.enter("inner", 7);
        rec.exit();
        rec.exit();
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Recorder::new(false);
        off.enter("outer", 1);
        off.exit();
        assert!(off.spans().is_empty());
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let mut s = Samples::default();
        for i in 1..=999u64 {
            s.push(i * 1000);
        }
        assert_eq!(s.median_us(), Some(500.0));
        assert_eq!(s.percentile_us(0.99), None, "9.99 samples beyond p99");
        s.push(1_000_000);
        assert_eq!(s.percentile_us(0.99), Some(990.0));
        assert_eq!(s.tail_us(), Some((0.99, 990.0)));

        let mut few = Samples::default();
        for i in 1..=40u64 {
            few.push(i * 1000);
        }
        assert_eq!(few.percentile_us(0.9), None);
        assert_eq!(few.tail_us(), Some((0.75, 30.0)));
        assert_eq!(Samples::default().median_us(), None);
    }

    #[test]
    fn mean_of_samples() {
        let mut s = Samples::default();
        assert_eq!(s.mean_us(), None);
        s.push(1000);
        s.push(4000);
        assert_eq!(s.mean_us(), Some(2.5));
    }

    #[test]
    fn median_quantile_and_geometric_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[7.0], 0.25), 7.0);
        assert_eq!(quantile(&[5.0, 1.0, 3.0, 2.0, 4.0], 0.25), 2.0);
        assert_eq!(quantile(&[4.0, 1.0, 2.0, 3.0], 0.75), 3.25);
        assert!((geometric_mean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }
}
