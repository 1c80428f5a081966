//! Benchmark-side spans: one record per call into a layer, kept in memory
//! and written out as a Chrome trace when the run ends. All spans are
//! opened on the single driver thread, so a stack gives each its parent.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Layer-qualified name (`ckpt.dump`, `op.checkpoint`, …).
    pub name: &'static str,
    /// Start, µs since the tracer was created.
    pub start_us: f64,
    /// End, µs since the tracer was created (0 while open).
    pub end_us: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one operation.
    pub op: u64,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

/// In-memory span recorder. A disabled tracer still times spans (callers
/// use the durations) but keeps nothing.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Starts the next operation: spans opened from now on carry its id.
    pub fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        let rec = SpanRec {
            name,
            start_us: self.now_us(),
            end_us: 0.0,
            parent: self.stack.last().copied(),
            op: self.op,
        };
        self.spans.push(rec);
        self.stack.push(self.spans.len() - 1);
        SpanId(self.spans.len() - 1)
    }

    /// Closes `id` (and anything left open inside it); returns its
    /// duration in milliseconds.
    pub fn exit(&mut self, id: SpanId) -> f64 {
        let end = self.now_us();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_us = end;
            if top == id.0 {
                break;
            }
        }
        let ms = (end - self.spans[id.0].start_us) / 1e3;
        if !self.enabled && self.stack.is_empty() {
            self.spans.clear();
        }
        ms
    }

    /// Share (%) of the wall time of every span named `parent` that its
    /// direct children do not cover: the untiled remainder.
    pub fn gap_pct(&self, parent: &str) -> f64 {
        let (mut wall, mut covered) = (0.0, 0.0);
        for (i, p) in self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == parent)
        {
            wall += p.end_us - p.start_us;
            covered += self
                .spans
                .iter()
                .filter(|c| c.parent == Some(i))
                .map(|c| c.end_us - c.start_us)
                .sum::<f64>();
        }
        if wall > 0.0 {
            (wall - covered) / wall * 100.0
        } else {
            0.0
        }
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Writes the spans as Chrome trace events (`chrome://tracing`,
    /// Perfetto): name, start, duration, and in `args` the span's own
    /// index, its parent's index and the operation id.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"traceEvents\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {parent}, \"op\": {}}}}}{}",
                s.name,
                s.start_us,
                s.end_us - s.start_us,
                s.op,
                if i + 1 < self.spans.len() { "," } else { "" }
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_carry_the_op_id() {
        let mut t = Tracer::new(true);
        let op = t.next_op();
        let outer = t.enter("hand.ckpt");
        let inner = t.enter("ckpt.dump");
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(t.exit(inner) >= 2.0);
        t.exit(outer);
        assert_eq!(t.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].op, op);
        assert!(t.gap_pct("hand.ckpt") < 50.0);
    }

    #[test]
    fn disabled_tracer_times_but_keeps_nothing() {
        let mut t = Tracer::new(false);
        let s = t.enter("x");
        assert!(t.exit(s) >= 0.0);
        assert!(t.is_empty());
    }
}
