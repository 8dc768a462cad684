//! In-memory spans recorded around the benchmark's calls into each
//! layer's public functions.
//!
//! A span is a name, a start and end on the host clock, the span that
//! was open when it started (its parent), and a request id shared by
//! every span of one request. Nothing inside the library is traced:
//! each span wraps one call the benchmark makes, so a layer's time is
//! the time its public entry points took, seen from outside.

use std::time::Instant;
use vcu_telemetry::json::{escape, fmt_f64};

/// One recorded span. Times are host seconds since the tracer began.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Records spans when enabled; when disabled, [`Tracer::span`] only
/// calls its closure.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name` for request `request`.
    /// Spans opened by `f` become its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_s: self.epoch.elapsed().as_secs_f64(),
            end_s: f64::NAN,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_s = self.epoch.elapsed().as_secs_f64();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the durations of its
/// direct children. Spans come from one call stack, so children never
/// overlap each other and lie inside their parent.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut out: Vec<f64> = spans.iter().map(Span::duration_s).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] -= s.duration_s();
        }
    }
    out
}

/// Sum of self time over the spans named `name`.
pub fn self_time_of(spans: &[Span], name: &str) -> f64 {
    self_times(spans)
        .iter()
        .zip(spans)
        .filter(|(_, s)| s.name == name)
        .map(|(t, _)| t)
        .sum()
}

/// Renders spans as a JSON array, one object per span.
pub fn spans_json(spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .map(|s| {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            format!(
                "{{\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{},\"request\":{}}}",
                escape(s.name),
                fmt_f64(s.start_s),
                fmt_f64(s.end_s),
                parent,
                s.request
            )
        })
        .collect();
    format!("[\n{}\n]", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("a", 0, |t| t.span("b", 0, |_| 7));
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn children_link_to_parents_and_self_time_excludes_them() {
        let mut t = Tracer::new(true);
        t.span("root", 1, |t| {
            t.span("child", 2, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            t.span("child", 3, |_| ());
        });
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        let selfs = self_times(s);
        let children: f64 = s[1].duration_s() + s[2].duration_s();
        assert!((selfs[0] - (s[0].duration_s() - children)).abs() < 1e-12);
        assert!(self_time_of(s, "child") >= 0.005);
    }
}
