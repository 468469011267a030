//! Spans recorded by the benchmark around each call into a layer, and the
//! per-request stage totals the per-layer metrics are medians of.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval. Spans of one request share `request`; `parent` is
/// the index of the enclosing span in [`Tracer::spans`].
#[derive(Clone, Debug)]
pub struct Span {
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// In-memory span store; written out once, when the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
    /// First span of the current request.
    first: usize,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
            first: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens the root span of request `id`.
    pub fn begin(&mut self, id: u64, name: &'static str) {
        assert!(self.open.is_empty(), "request {} still open", self.request);
        self.request = id;
        self.first = self.spans.len();
        self.open_span(name);
    }

    fn open_span(&mut self, name: &'static str) {
        let start_ns = self.now();
        self.spans.push(Span {
            request: self.request,
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Times `f` as a child of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.open_span(name);
        let value = f();
        let end = self.now();
        let index = self.open.pop().expect("span was opened above");
        self.spans[index].end_ns = end;
        value
    }

    /// Closes the root span and returns the request's wall time and the
    /// total time of its spans by name (root excluded), in nanoseconds.
    pub fn end(&mut self) -> (u64, BTreeMap<&'static str, u64>) {
        let root = self.open.pop().expect("a request is open");
        assert!(self.open.is_empty(), "unclosed child span");
        self.spans[root].end_ns = self.now();
        let mut totals = BTreeMap::new();
        for span in &self.spans[self.first + 1..] {
            *totals.entry(span.name).or_insert(0) += span.end_ns - span.start_ns;
        }
        (self.spans[root].end_ns - self.spans[root].start_ns, totals)
    }

    /// Closes whatever a failed request left open.
    pub fn abandon(&mut self) {
        let end = self.now();
        for index in self.open.drain(..) {
            self.spans[index].end_ns = end;
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per span, one span per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"request\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.request, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Per-request values of every per-layer metric, by metric name.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    /// Adds one request's value of `metric`.
    pub fn push(&mut self, metric: &'static str, value: f64) {
        self.values.entry(metric).or_default().push(value);
    }

    /// Adds one request's span totals; a span named like its metric
    /// (`sim.sample_ms`) is converted to the unit its suffix names.
    pub fn push_spans(&mut self, totals: &BTreeMap<&'static str, u64>) {
        for (&name, &ns) in totals {
            self.push(name, ns_in_unit(name, ns));
        }
    }

    /// Median over the requests that reported `metric`; 0 when none did,
    /// which means the workload does not exercise that layer.
    pub fn median(&self, metric: &str) -> f64 {
        self.values
            .get(metric)
            .map_or(0.0, |values| crate::stats::median(values))
    }

    pub fn count(&self, metric: &str) -> usize {
        self.values.get(metric).map_or(0, Vec::len)
    }
}

/// Converts nanoseconds to the unit a span name's suffix declares.
pub fn ns_in_unit(name: &str, ns: u64) -> f64 {
    let ns = ns as f64;
    if name.ends_with("_ms") {
        ns / 1e6
    } else if name.ends_with("_us") {
        ns / 1e3
    } else if name.ends_with("_s") {
        ns / 1e9
    } else {
        ns
    }
}

/// Sum of every span total: the re-executed stages of one request.
pub fn stage_sum_ns(totals: &BTreeMap<&'static str, u64>, skip: &[&str]) -> u64 {
    totals
        .iter()
        .filter(|(name, _)| !skip.contains(name))
        .map(|(_, &ns)| ns)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_total_by_name() {
        let mut tracer = Tracer::new();
        tracer.begin(7, "request");
        tracer.span("a_us", || ());
        tracer.span("a_us", || ());
        tracer.span("b_ms", || ());
        let (wall, totals) = tracer.end();
        assert_eq!(totals.len(), 2);
        assert!(wall >= stage_sum_ns(&totals, &[]));
        let spans = tracer.spans();
        assert_eq!(spans.len(), 4);
        assert!(spans.iter().all(|s| s.request == 7));
        assert_eq!(spans[0].parent, None);
        assert!(spans[1..].iter().all(|s| s.parent == Some(0)));
        assert_eq!(tracer.to_jsonl().lines().count(), 4);
    }

    #[test]
    fn units_follow_suffixes() {
        assert_eq!(ns_in_unit("x_ms", 2_000_000), 2.0);
        assert_eq!(ns_in_unit("x_us", 2_000), 2.0);
        let mut layers = Layers::default();
        layers.push("c", 3.0);
        layers.push("c", 1.0);
        layers.push("c", 2.0);
        assert_eq!(layers.median("c"), 2.0);
        assert_eq!(layers.median("absent"), 0.0);
    }
}
