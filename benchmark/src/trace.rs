//! Benchmark-side spans: one record per call into a layer, kept in memory
//! and written out when the run ends.
//!
//! A span's layer is the first dot-separated component of its name
//! (`parasitics.parse` belongs to `parasitics`). Spans nest through an
//! explicit stack, so a span's parent is the span open around it, and
//! every span carries the [`Group`] — set-up sample, unit of work or
//! replay round — it belongs to. While disabled, [`Tracer::span`] is a
//! plain call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// What a span's work belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Group {
    /// One set-up sample.
    Setup(u32),
    /// One timed unit of work.
    Unit(u32),
    /// One per-victim replay round, or other out-of-unit replay work.
    Replay(u32),
    /// Post-run checks (audits, accuracy probes).
    Post,
}

impl Group {
    fn label(self) -> String {
        match self {
            Group::Setup(i) => format!("setup/{i}"),
            Group::Unit(i) => format!("unit/{i}"),
            Group::Replay(i) => format!("replay/{i}"),
            Group::Post => "post".into(),
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// `layer.operation`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The set-up sample, unit or replay round the span belongs to.
    pub group: Group,
}

impl SpanRecord {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }

    /// The layer: the name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    group: Group,
    open: Vec<usize>,
    spans: Vec<SpanRecord>,
}

impl Tracer {
    /// A tracer that records nothing until [`Tracer::enable`].
    pub fn new() -> Self {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            group: Group::Post,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Starts recording.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Stops recording (recorded spans are kept).
    pub fn disable(&mut self) {
        self.enabled = false;
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the group of the spans opened from now on.
    pub fn set_group(&mut self, group: Group) {
        self.group = group;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` under the currently open one; close it
    /// with [`Tracer::end`]. Returns `None` while disabled.
    pub fn begin(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let idx = self.spans.len();
        self.spans.push(SpanRecord {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            group: self.group,
        });
        self.open.push(idx);
        Some(idx)
    }

    /// Closes a span opened by [`Tracer::begin`] (and any still open
    /// inside it).
    pub fn end(&mut self, span: Option<usize>) {
        let Some(idx) = span else { return };
        self.spans[idx].end_ns = self.now_ns();
        while let Some(top) = self.open.pop() {
            if top == idx {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.begin(name);
        let out = f();
        self.end(span);
        out
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Total duration (ms) of the spans named `name`, per group in which
    /// the name occurs.
    pub fn per_group_ms(&self, name: &str) -> Vec<f64> {
        let mut totals: BTreeMap<Group, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *totals.entry(s.group).or_default() += s.ms();
        }
        totals.into_values().collect()
    }

    /// Self time (span time minus child-span time, ms) per layer, per
    /// group in which the layer has a span, over the groups `keep` admits.
    pub fn self_ms_by_layer(
        &self,
        keep: impl Fn(Group) -> bool,
    ) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        let mut per: BTreeMap<&'static str, BTreeMap<Group, f64>> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(&child_ms) {
            if !keep(s.group) {
                continue;
            }
            *per.entry(s.layer())
                .or_default()
                .entry(s.group)
                .or_default() += (s.ms() - children).max(0.0);
        }
        per.into_iter()
            .map(|(layer, groups)| (layer, groups.into_values().collect()))
            .collect()
    }

    /// The spans as a Chrome trace-event JSON array (loadable in Perfetto
    /// or `chrome://tracing`); each event's args carry its parent index
    /// and group.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"id\":{i},\"parent\":{},\"group\":\"{}\"}}}}",
                s.name,
                s.layer(),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.group.label(),
            );
        }
        out.push_str("\n]\n");
        out
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new();
        assert_eq!(tr.span("sta.si", || 7), 7);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut tr = Tracer::new();
        tr.enable();
        tr.set_group(Group::Unit(3));
        let unit = tr.begin("bench.unit");
        tr.span("sta.si", || tr_sleep(4));
        let parse = tr.begin("parasitics.parse");
        tr_sleep(2);
        tr.end(parse);
        tr.end(unit);
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.group == Group::Unit(3)));
        let layers = tr.self_ms_by_layer(|_| true);
        let bench = layers["bench"][0];
        assert!(
            bench < spans[0].ms() - 5.0,
            "children not subtracted: {bench}"
        );
        assert!(layers["sta"][0] >= 4.0);
        assert_eq!(tr.per_group_ms("sta.si").len(), 1);
    }

    fn tr_sleep(ms: u64) {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }
}
