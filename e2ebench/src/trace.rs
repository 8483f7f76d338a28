//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Every generator thread owns a [`SpanLog`]; nothing is shared or locked
//! while the load runs. The logs are merged and written out when the run
//! ends. A disabled log records nothing, so untraced runs pay one branch
//! per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span. Ids are unique across threads (`thread << 32 | n`);
/// parent 0 means a root span.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct SpanLog {
    enabled: bool,
    thread: u64,
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(enabled: bool, thread: u64, origin: Instant) -> SpanLog {
        SpanLog {
            enabled,
            thread,
            origin,
            spans: Vec::new(),
        }
    }

    /// Opens a span and returns its id (0 when disabled).
    pub fn open(&mut self, name: &'static str, parent: u64, request: u64) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = (self.thread << 32) | (self.spans.len() as u64 + 1);
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        id
    }

    pub fn close(&mut self, id: u64) {
        if id == 0 {
            return;
        }
        let idx = (id & 0xffff_ffff) as usize - 1;
        self.spans[idx].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per span name: count, total time and self time (total minus the time
/// covered by child spans), in milliseconds.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns.saturating_sub(s.start_ns);
    }
    let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for s in spans {
        let total = s.end_ns.saturating_sub(s.start_ns) as f64 / 1e6;
        let own = total - child_ns.get(&s.id).copied().unwrap_or(0) as f64 / 1e6;
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += total;
        e.2 += own;
    }
    out
}

/// Writes spans as JSON lines.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mk = |id, parent, start_ns, end_ns| Span {
            id,
            parent,
            request: 1,
            name: if parent == 0 { "request" } else { "call" },
            start_ns,
            end_ns,
        };
        let spans = [
            mk(1, 0, 0, 10_000_000),
            mk(2, 1, 1_000_000, 4_000_000),
            mk(3, 1, 5_000_000, 9_000_000),
        ];
        let t = self_times(&spans);
        assert_eq!(t["request"], (1, 10.0, 3.0));
        assert_eq!(t["call"], (2, 7.0, 7.0));
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(false, 1, Instant::now());
        let id = log.open("x", 0, 1);
        log.close(id);
        assert_eq!(log.time("y", 0, 1, || 5), 5);
        assert!(log.into_spans().is_empty());
    }
}
