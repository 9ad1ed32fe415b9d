//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed from the benchmark's own code around calls
//! into each layer's public functions; nothing inside the program is
//! instrumented. Every span records its name, start, end, parent span and
//! a request id shared by all spans of one request (0 = not a request).
//! The spans stay in memory until [`Tracer::write_jsonl`] at the end.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    /// 1-based index into the recorder; 0 = no parent.
    parent: u32,
    req: u64,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One layer's totals over a recorder: span count, summed duration and
/// self time (duration minus the part covered by child spans).
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str, req: u64) -> u32 {
        let parent = self.open.last().copied().unwrap_or(0);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            req,
            start_ns,
            end_ns: start_ns,
        });
        let id = self.spans.len() as u32;
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: u32) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        let now = self.now_ns();
        self.spans[id as usize - 1].end_ns = now;
    }

    /// Records a finished span measured elsewhere (e.g. on another thread),
    /// under the innermost open span.
    pub fn record(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        let parent = self.open.last().copied().unwrap_or(0);
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent,
            req,
            start_ns: at(start),
            end_ns: at(end),
        });
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per-name totals with self time.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            child_ns[s.parent as usize] += s.dur_ns();
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_s += s.dur_ns() as f64 / 1e9;
            t.self_s += s.dur_ns().saturating_sub(child_ns[i + 1]) as f64 / 1e9;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                i + 1,
                s.parent,
                s.req,
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        let root = t.begin("root", 1);
        let child = t.begin("child", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(child);
        t.end(root);
        let lt = t.layer_times();
        assert_eq!(lt["root"].count, 1);
        assert!(lt["child"].self_s >= 0.002);
        assert!(lt["root"].self_s < lt["root"].total_s);
        assert_eq!(t.spans[1].parent, 1);
    }
}
