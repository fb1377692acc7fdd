//! Spans recorded by the benchmark around its calls into the program.
//!
//! A span has a name, a parent, a start and an end. Spans stay in memory
//! until the traced run ends, then go to one JSON file. A disabled
//! recorder runs the same code and records nothing: the untraced run
//! calls the miners through the same functions as the traced run
//! ([`crate::miners::direct`], [`crate::miners::run_governed`]) with a
//! disabled recorder.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
pub struct Span {
    /// The layer call it wraps, e.g. `agree.alg2`.
    pub name: &'static str,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The traced round the span belongs to.
    pub round: usize,
    /// Start, as an offset from the recorder's creation.
    pub start: Duration,
    /// End, as an offset from the recorder's creation.
    pub end: Duration,
}

/// The span recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    round: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder that keeps spans.
    pub fn on() -> Tracer {
        Tracer {
            enabled: true,
            epoch: Instant::now(),
            round: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder that keeps nothing.
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::on()
        }
    }

    /// Tags the spans that follow with a round number.
    pub fn set_round(&mut self, round: usize) {
        self.round = round;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            round: self.round,
            start: self.epoch.elapsed(),
            end: Duration::ZERO,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.epoch.elapsed();
        out
    }

    /// Total seconds spent in spans named `name` during `round`.
    pub fn seconds(&self, name: &str, round: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.round == round)
            .map(|s| (s.end - s.start).as_secs_f64())
            .sum()
    }

    /// Writes every span as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"schema\": \"perfbench-spans/1\", \"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": ["
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{}\n{{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"round\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.round,
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_sum_by_name() {
        let mut t = Tracer::on();
        t.span("outer", |t| {
            t.span("inner", |_| std::thread::sleep(Duration::from_millis(2)));
            t.span("inner", |_| {});
        });
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(0));
        assert!(t.seconds("inner", 0) >= 0.002);
        assert!(t.seconds("outer", 0) >= t.seconds("inner", 0));
        assert_eq!(t.seconds("inner", 1), 0.0);
    }

    #[test]
    fn a_disabled_recorder_keeps_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.spans.is_empty());
    }
}
