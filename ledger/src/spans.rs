//! Spans recorded in the benchmark's own memory around each call into a
//! layer, and written out once when the run ends. Spans inside the program
//! under test are a later change.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified call name, e.g. `sim.gpu.run`.
    pub name: &'static str,
    /// Microseconds since the tracer was created.
    pub start_us: f64,
    /// Microseconds since the tracer was created.
    pub end_us: f64,
    /// Index of the span this one ran inside, if any.
    pub parent: Option<usize>,
    /// Repetition of the workload the call belongs to.
    pub rep: u32,
}

impl Span {
    fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Collects spans when enabled; when disabled, [`Tracer::span`] only runs
/// the call, so the timed set and the traced set share one code path.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Repetition stamped on the spans recorded from now on.
    pub rep: u32,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only forwards calls.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    /// Runs `f` inside a span named `name`. Spans opened by `f` through the
    /// tracer it is handed become this span's children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_us: self.epoch.elapsed().as_secs_f64() * 1e6,
            end_us: 0.0,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        out
    }

    /// Total seconds spent in spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        let spans = self.spans.iter().filter(|s| s.name == name);
        spans.map(Span::dur_us).sum::<f64>() / 1e6
    }

    /// A span's duration minus the part its direct children cover.
    fn self_us(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::dur_us)
            .sum();
        self.spans[id].dur_us() - children
    }

    /// Renders the spans as Chrome trace-event JSON (complete events, one
    /// per span; `args` carries parent, rep, workload and self time), which
    /// `chrome://tracing` and Perfetto load as is.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{id},\"parent\":{parent},\"workload\":\"{workload}\",\
                 \"rep\":{},\"self_us\":{:.3}}}}}{}",
                s.name,
                s.start_us,
                s.dur_us(),
                s.rep,
                self.self_us(id),
                if id + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_to_their_parent_and_self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            t.span("inner", |_| ());
        });
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(0));
        assert!(t.total("inner") >= 0.005);
        assert!(t.self_us(0) <= t.spans[0].dur_us() - 5000.0);
        assert!(t.to_json("w").contains("\"parent\":0"));
    }

    #[test]
    fn a_disabled_tracer_only_forwards_the_call() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.spans.is_empty());
    }
}
