//! Spans recorded by the benchmark around its own calls into the program:
//! name, parent, start and end (ns since the run began). Kept in memory
//! and written out once, after the measurements.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// An in-memory span log.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its id.
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Writes the log as a JSON array of
    /// `{"id", "name", "parent", "start_ns", "end_ns"}` objects.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {id}, \"name\": {:?}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.start_ns, s.end_ns
            );
            out.push_str(if id + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
