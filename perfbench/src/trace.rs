//! The benchmark's own span recorder.
//!
//! Spans are recorded by the benchmark around each call it makes into a
//! public layer of the library, kept in memory, and written once at the end
//! as Chrome trace-event JSON, which Perfetto and `chrome://tracing` open
//! directly. The end-to-end run never creates a recorder.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    pub iteration: u32,
    /// Track the span is drawn on (one per thread or per service job).
    pub track: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_us - self.start_us) / 1e6
    }
}

/// In-memory span recorder. When disabled, [`Recorder::span`] only runs
/// its closure, so the same code path can be timed with and without
/// tracing.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    workload: String,
    iteration: u32,
    next_id: u64,
    stack: Vec<u64>,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(workload: &str, enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            workload: workload.to_string(),
            iteration: 0,
            next_id: 1,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// An enabled recorder whose timestamps count from `origin`, for spans
    /// measured before the recorder was created.
    pub fn with_origin(workload: &str, origin: Instant) -> Self {
        Recorder {
            origin,
            ..Recorder::new(workload, true)
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn set_iteration(&mut self, iteration: u32) {
        self.iteration = iteration;
    }

    /// Microseconds since the recorder's origin.
    pub fn micros(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().copied();
        self.stack.push(id);
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        self.stack.pop();
        self.push(id, parent, name, self.micros(start), self.micros(end), 1);
        out
    }

    /// Records a span whose bounds were measured elsewhere (for example by
    /// the sort service), on its own track; returns its id.
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
        track: u64,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        if self.enabled {
            self.push(
                id,
                parent,
                name,
                self.micros(start),
                self.micros(end),
                track,
            );
        }
        id
    }

    fn push(&mut self, id: u64, parent: Option<u64>, name: &str, start: f64, end: f64, track: u64) {
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_us: start,
            end_us: end,
            iteration: self.iteration,
            track,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span called `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// The spans as a Chrome trace-event JSON document.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\
                 \"workload\":\"{}\",\"iteration\":{}}}}}",
                escape(&span.name),
                escape(span.name.split('.').next().unwrap_or("")),
                span.track,
                span.start_us,
                span.end_us - span.start_us,
                span.id,
                parent,
                escape(&self.workload),
                span.iteration,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut rec = Recorder::new("w", true);
        rec.set_iteration(3);
        rec.span("outer", |rec| {
            rec.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert_eq!(inner.iteration, 3);
        assert!(inner.seconds() >= 0.02);
        assert!(outer.seconds() >= inner.seconds());
        let json = rec.chrome_json();
        assert!(json.contains("\"parent\":1"));
        assert!(json.contains("\"workload\":\"w\""));
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut rec = Recorder::new("w", false);
        assert_eq!(rec.span("outer", |_| 7), 7);
        assert!(rec.spans().is_empty());
    }
}
