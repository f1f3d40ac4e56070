//! The benchmark's own span recorder: spans are taken around the calls
//! into each layer, from outside the program, kept in memory, and
//! written as Chrome trace-event JSON when the run ends (load the file
//! in `chrome://tracing` or Perfetto). Spans inside the program are a
//! later change.

use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use crate::util::median_u32;

/// One closed span. `parent` is the id (index + 1) of the span that
/// caused it; 0 marks a root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub parent: u32,
    pub start_ns: u64,
    pub host_ns: u64,
    pub sim_ns: u64,
    pub prims: u64,
}

#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

/// Most spans a trace file holds: the first of a replay show every op
/// kind; a 200 000-op replay in full would be a 25 MB file per run.
const EXPORT_CAP: usize = 50_000;

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder was made.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a closed span and returns its id.
    pub fn push(&mut self, span: Span) -> u32 {
        self.spans.push(span);
        self.spans.len() as u32
    }

    /// Reserves a parent span to be closed later with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str) -> u32 {
        let start_ns = self.now_ns();
        self.push(Span {
            name,
            parent: 0,
            start_ns,
            host_ns: 0,
            sim_ns: 0,
            prims: 0,
        })
    }

    pub fn close(&mut self, id: u32, sim_ns: u64, prims: u64) {
        let now = self.now_ns();
        let span = &mut self.spans[id as usize - 1];
        span.host_ns = now - span.start_ns;
        span.sim_ns = sim_ns;
        span.prims = prims;
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Median host ns, sim ns and primitives of the spans named `name`
    /// (zeros if there are none).
    pub fn medians(&self, name: &str) -> (f64, f64, f64) {
        let of = |f: fn(&Span) -> u64| {
            let mut v: Vec<u32> = self
                .spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| f(s).min(u64::from(u32::MAX)) as u32)
                .collect();
            median_u32(&mut v)
        };
        (of(|s| s.host_ns), of(|s| s.sim_ns), of(|s| s.prims))
    }

    /// Writes the spans (the first [`EXPORT_CAP`]) as Chrome trace-event
    /// JSON.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"displayTimeUnit\": \"ns\", \"traceEvents\": [")?;
        let shown = self.spans.len().min(EXPORT_CAP);
        for (i, s) in self.spans[..shown].iter().enumerate() {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            writeln!(
                out,
                "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {}, \"parent\": {}, \
                 \"sim_ns\": {}, \"prims\": {}}}}}{}",
                s.name,
                layer,
                s.start_ns as f64 / 1e3,
                s.host_ns as f64 / 1e3,
                i + 1,
                s.parent,
                s.sim_ns,
                s.prims,
                if i + 1 == shown { "" } else { "," }
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn span(name: &'static str, parent: u32, start_ns: u64, host_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            host_ns,
            sim_ns: host_ns * 2,
            prims: 3,
        }
    }

    #[test]
    fn medians_and_export() {
        let mut r = Recorder::new();
        let root = r.open("ds.replay");
        for (i, host) in [100, 300, 200].into_iter().enumerate() {
            r.push(span("ds.map_get", root, i as u64 * 1000, host));
        }
        r.push(span("ds.map_insert", root, 5000, 900));
        r.close(root, 4000, 12);
        assert_eq!(r.medians("ds.map_get"), (200.0, 400.0, 3.0));
        assert_eq!(r.medians("ds.list_insert"), (0.0, 0.0, 0.0));
        let parent = r.spans()[0];
        assert_eq!((parent.sim_ns, parent.prims), (4000, 12));

        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/spans-unit-test.json");
        r.write_chrome(&path).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 5);
        assert_eq!(events[1].get("cat").unwrap().as_str(), Some("ds"));
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .as_f64(),
            Some(f64::from(root))
        );
    }
}
