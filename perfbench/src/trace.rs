//! Benchmark-side spans around each call into a layer's public API. Kept in
//! memory during the run and written out as JSON lines when it ends.

use std::fmt::Write as _;
use std::time::Instant;

struct SpanRec {
    name: &'static str,
    /// The job the span belongs to: spans of one job share it.
    job: usize,
    /// The span that caused this one (`None` for a job's root span).
    parent: Option<&'static str>,
    label: String,
    start_us: f64,
    dur_us: f64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<SpanRec>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a closed span (no-op when tracing is off).
    pub fn record(
        &mut self,
        name: &'static str,
        job: usize,
        parent: Option<&'static str>,
        label: &str,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        self.spans.push(SpanRec {
            name,
            job,
            parent,
            label: label.to_string(),
            start_us: start.saturating_duration_since(self.epoch).as_secs_f64() * 1e6,
            dur_us: end.saturating_duration_since(start).as_secs_f64() * 1e6,
        });
    }

    /// An empty tracer on the same clock, for another thread.
    pub fn fork(&self) -> Tracer {
        Tracer {
            on: self.on,
            epoch: self.epoch,
            spans: Vec::new(),
        }
    }

    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Total milliseconds of the spans named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us)
            .sum::<f64>()
            / 1e3
    }

    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"job\":{},\"parent\":{},\"label\":\"{}\",\"start_us\":{:.1},\"dur_us\":{:.1}}}",
                s.name,
                s.job,
                s.parent.map_or("null".to_string(), |p| format!("\"{p}\"")),
                s.label,
                s.start_us,
                s.dur_us
            );
        }
        out
    }
}
