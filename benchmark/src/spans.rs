//! Harness-side spans: recorded around calls *into* each layer, from the
//! benchmark's own files (spans inside the program are a later change).
//!
//! One [`SpanLog`] per measuring thread, kept in memory and written out
//! once at exit. A span is `{trace_id, id, parent, name, start_ns,
//! end_ns}`; spans of one request share the request index as `trace_id`.
//! A layer's *self time* is its span minus the part its children cover.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval. `parent == 0` marks a root.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Request index within its pass.
    pub trace_id: u32,
    /// Unique within the log, starting at 1.
    pub id: u32,
    /// `id` of the enclosing span, 0 for a root.
    pub parent: u32,
    /// Layer-qualified name, e.g. `serve.funnel`.
    pub name: &'static str,
    /// Nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the log's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Wall time the span covers.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store with a monotonic epoch.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// Empty log whose epoch is now.
    pub fn new() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Store one span and return its id.
    pub fn record(
        &mut self,
        trace_id: u32,
        parent: u32,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            trace_id,
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Time `f` as a span under `parent` and return `(id, result)`.
    pub fn time<T>(
        &mut self,
        trace_id: u32,
        parent: u32,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (u32, T) {
        let start = self.now();
        let out = f();
        let end = self.now();
        (self.record(trace_id, parent, name, start, end), out)
    }

    /// Start a span whose end is not known yet (it will enclose other
    /// recorded spans); [`close`](Self::close) stamps the end.
    pub fn open(&mut self, trace_id: u32, parent: u32, name: &'static str) -> u32 {
        let now = self.now();
        self.record(trace_id, parent, name, now, now)
    }

    /// End a span started with [`open`](Self::open) now.
    pub fn close(&mut self, id: u32) {
        self.spans[id as usize - 1].end_ns = self.now();
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of all spans called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Self times of all spans called `name`, in recording order.
    pub fn self_times(&self, name: &str) -> Vec<u64> {
        let selfs = self_times(&self.spans);
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| selfs[&s.id])
            .collect()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once,
/// parts of a child outside the parent are ignored).
pub fn self_times(spans: &[Span]) -> HashMap<u32, u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(start, end) in kids.iter() {
                    let (start, end) = (start.max(cursor), end.min(s.end_ns));
                    if end > start {
                        covered += end - start;
                        cursor = end;
                    }
                }
            }
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// Write passes of spans as one JSON document:
/// `{"passes":[{"pass":…,"spans":[[trace_id,id,parent,"name",start,end],…]}]}`.
pub fn write_json(path: &Path, passes: &[(&str, &SpanLog)]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(
        w,
        "{{\"columns\":[\"trace_id\",\"id\",\"parent\",\"name\",\"start_ns\",\"end_ns\"],\"passes\":["
    )?;
    for (i, (pass, log)) in passes.iter().enumerate() {
        if i > 0 {
            write!(w, ",")?;
        }
        write!(w, "\n{{\"pass\":\"{pass}\",\"spans\":[")?;
        for (j, s) in log.spans().iter().enumerate() {
            if j > 0 {
                write!(w, ",")?;
            }
            write!(
                w,
                "\n[{},{},{},\"{}\",{},{}]",
                s.trace_id, s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        write!(w, "]}}")?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            trace_id: 0,
            id,
            parent,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),  // 20 inside
            span(3, 1, 25, 50),  // overlaps span 2: adds 20, not 25
            span(4, 1, 90, 120), // sticks out: only 10 inside
            span(5, 2, 12, 20),  // grandchild: belongs to span 2 only
            span(6, 1, 60, 60),  // empty child
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 20 - 20 - 10);
        assert_eq!(st[&2], 20 - 8);
        assert_eq!(st[&3], 25);
        assert_eq!(st[&5], 8);
    }

    #[test]
    fn open_spans_enclose_what_is_timed_inside_them() {
        let mut log = SpanLog::new();
        let outer = log.open(7, 0, "outer");
        let (inner, v) = log.time(7, outer, "inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            41 + 1
        });
        assert_eq!(v, 42);
        log.close(outer);
        let (o, i) = (
            log.spans()[outer as usize - 1],
            log.spans()[inner as usize - 1],
        );
        assert_eq!(i.parent, outer);
        assert!(o.start_ns <= i.start_ns && i.end_ns <= o.end_ns);
        assert!(i.dur_ns() >= 2_000_000);
        assert_eq!(log.self_times("outer"), vec![o.dur_ns() - i.dur_ns()]);
        assert_eq!(log.durations("inner"), vec![i.dur_ns()]);
    }

    #[test]
    fn json_dump_is_parseable() {
        let mut log = SpanLog::new();
        log.record(3, 0, "a.b", 5, 9);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir).expect("out dir");
        let path = dir.join(format!("spans-selftest-{}.json", std::process::id()));
        write_json(&path, &[("p", &log)]).expect("write trace");
        let text = std::fs::read_to_string(&path).expect("read trace");
        std::fs::remove_file(&path).ok();
        let doc = serde_json::parse_content(&text).expect("trace.json parses");
        assert!(doc.as_map().is_some());
        assert!(text.contains("[3,1,0,\"a.b\",5,9]"));
    }
}
