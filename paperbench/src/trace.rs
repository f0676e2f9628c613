//! The traced run's span store and the attribution arithmetic over it.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions, kept in memory with their parent and rep id,
//! and written out as JSON when the run ends.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Trace`].
pub type SpanId = usize;

/// One timed interval of the traced run.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer or phase name (`rep`, `layers`, `bnn`, `dmu`, …).
    pub name: &'static str,
    /// The enclosing span, `None` for a rep's root.
    pub parent: Option<SpanId>,
    /// Timed rep the span belongs to.
    pub rep: usize,
    /// Start, in nanoseconds since the trace began.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace began.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Every span of one workload's traced run, in opening order.
#[derive(Debug)]
pub struct Trace {
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace for `workload`.
    pub fn new(workload: &'static str) -> Self {
        Self {
            workload,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; it lasts until [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, rep: usize) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            rep,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a leaf span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        rep: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, rep);
        let out = f();
        self.close(id);
        out
    }

    /// All spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per rep, the summed duration in seconds of the spans named `name`
    /// (zero for a rep that has none).
    pub fn per_rep_s(&self, name: &str, reps: usize) -> Vec<f64> {
        let mut out = vec![0.0; reps];
        for s in self.spans.iter().filter(|s| s.name == name) {
            out[s.rep] += s.duration_ns() as f64 * 1e-9;
        }
        out
    }

    /// Writes the spans as JSON to `path`, creating its directory.
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut text = format!("{{\"workload\": \"{}\", \"spans\": [\n", self.workload);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let sep = if id + 1 < self.spans.len() { "," } else { "" };
            let _ = writeln!(
                text,
                "  {{\"id\": {id}, \"name\": \"{}\", \"parent\": {parent}, \"rep\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}}}{sep}",
                s.name, s.rep, s.start_ns, s.end_ns
            );
        }
        text.push_str("]}\n");
        std::fs::write(path, text)
    }
}

/// Self time of span `id`: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
pub fn self_ns(spans: &[Span], id: SpanId) -> u64 {
    let me = &spans[id];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| {
            (
                s.start_ns.clamp(me.start_ns, me.end_ns),
                s.end_ns.clamp(me.start_ns, me.end_ns),
            )
        })
        .collect();
    children.sort_unstable();
    let mut covered = 0u64;
    let mut reach = me.start_ns;
    for (start, end) in children {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    me.duration_ns() - covered
}

/// The share of the root spans' wall time that no layer span accounts
/// for: the summed self time of every span named in `glue` (the phases
/// that only group layer calls), over the summed duration of the roots.
pub fn residual_frac(spans: &[Span], glue: &[&str]) -> f64 {
    let wall: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::duration_ns)
        .sum();
    let unattributed: u64 = (0..spans.len())
        .filter(|&id| glue.contains(&spans[id].name))
        .map(|id| self_ns(spans, id))
        .sum();
    unattributed as f64 / wall.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            rep: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn residual_counts_only_uncovered_glue_time() {
        // rep [0,100): layers [0,60) holding bnn [0,30) and host [40,50);
        // execute [65,95). Unattributed: rep 0..0 + 60..65 + 95..100 = 10,
        // layers 30..40 + 50..60 = 20.
        let spans = vec![
            span("rep", None, 0, 100),
            span("layers", Some(0), 0, 60),
            span("bnn", Some(1), 0, 30),
            span("host", Some(1), 40, 50),
            span("execute", Some(0), 65, 95),
        ];
        assert_eq!(self_ns(&spans, 0), 10);
        assert_eq!(self_ns(&spans, 1), 20);
        assert_eq!(self_ns(&spans, 2), 30);
        let r = residual_frac(&spans, &["rep", "layers"]);
        assert!((r - 0.30).abs() < 1e-12, "{r}");
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Children overlap each other and overhang the parent's end.
        let spans = vec![
            span("rep", None, 10, 50),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 20, 40),
            span("c", Some(0), 45, 70),
        ];
        // Covered: 10..40 and 45..50 = 35 of 40.
        assert_eq!(self_ns(&spans, 0), 5);
        let r = residual_frac(&spans, &["rep"]);
        assert!((r - 5.0 / 40.0).abs() < 1e-12, "{r}");
    }

    #[test]
    fn residual_sums_over_reps() {
        let spans = vec![
            span("rep", None, 0, 10),
            span("bnn", Some(0), 0, 10),
            Span {
                rep: 1,
                ..span("rep", None, 20, 40)
            },
            Span {
                rep: 1,
                ..span("bnn", Some(2), 20, 30)
            },
        ];
        assert!((residual_frac(&spans, &["rep"]) - 10.0 / 30.0).abs() < 1e-12);
    }

    #[test]
    fn per_rep_sums_same_named_spans() {
        let mut t = Trace::new("w");
        t.spans = vec![
            span("dmu", None, 0, 1_000_000),
            span("dmu", None, 2_000_000, 5_000_000),
            Span {
                rep: 1,
                ..span("dmu", None, 0, 2_000_000)
            },
        ];
        let s = t.per_rep_s("dmu", 2);
        assert!((s[0] - 0.004).abs() < 1e-12 && (s[1] - 0.002).abs() < 1e-12);
    }
}
