//! Spans recorded in the benchmark's own code around each call into a
//! layer. Each thread owns a [`Spans`] buffer (no sharing on the hot
//! path); the buffers are merged and written out once, at the end.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the run's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one, named by its `req` (a request's or
    /// transaction's root span); 0 for a root.
    pub parent: u64,
    /// Id shared by every span of one request or transaction.
    pub req: u64,
}

/// A per-thread span buffer; a disabled buffer records nothing.
pub struct Spans {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(on: bool, epoch: Instant) -> Spans {
        Spans { on, epoch, spans: Vec::new() }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span given in epoch nanoseconds.
    pub fn record_ns(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u64,
        req: u64,
    ) {
        if self.on {
            self.spans.push(Span { name, start_ns, end_ns, parent, req });
        }
    }

    /// Records a span given as instants.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u64,
        req: u64,
    ) {
        if self.on {
            let (s, e) = (self.ns(start), self.ns(end));
            self.record_ns(name, s, e, parent, req);
        }
    }

    pub fn absorb(&mut self, other: Spans) {
        self.spans.extend(other.spans);
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes one JSON object per span, ordered by start time.
    pub fn write_jsonl(mut self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        self.spans.sort_by_key(|s| (s.start_ns, s.end_ns));
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.parent, s.req
            )?;
        }
        out.flush()
    }
}
