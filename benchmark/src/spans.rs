//! In-memory spans, written out once when the benchmark ends.
//!
//! The benchmark records a span around each call into a layer: `rep` →
//! `cell.<name>` → `netsim.new | netsim.run | netsim.read`, and `rep` →
//! `pass.cold | pass.warm` → `bench.experiment.<id>`. Spans live in a
//! `Vec` while the run is measured; [`Spans::to_json`] renders them at
//! exit. A disabled recorder (the untraced run) does nothing at all.

use std::time::Instant;

use crate::json;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of this span in the recorder.
    pub id: u32,
    /// Span name, e.g. `netsim.run`.
    pub name: String,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// The span that was open when this one started.
    pub parent: Option<u32>,
}

impl Span {
    /// Span duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Span recorder with an explicit open-span stack.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Spans {
    /// Creates a recorder; a disabled one records nothing.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off (open spans must be closed first).
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.open.is_empty(), "toggle with spans open");
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &str) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
    }

    /// Closes the innermost open span and returns its duration in seconds
    /// (0 when disabled).
    pub fn exit(&mut self) -> f64 {
        if !self.enabled {
            return 0.0;
        }
        let id = self.open.pop().expect("exit without a matching enter");
        let now = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.secs()
    }

    /// Number of spans currently open.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Closes open spans until only `depth` remain (used after a panic cut
    /// a nested sequence short).
    pub fn close_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            self.exit();
        }
    }

    /// All closed spans, in start order.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds of every span with this exact name.
    pub fn total_secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Renders the trace file: `{"workload": ..., "spans": [...]}`.
    pub fn to_json(&self, workload: &str) -> String {
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let mut o = json::Obj::new();
                o.int("id", s.id as u64)
                    .str("name", &s.name)
                    .int("start_ns", s.start_ns)
                    .int("end_ns", s.end_ns);
                match s.parent {
                    Some(p) => o.int("parent", p as u64),
                    None => o.raw("parent", "null"),
                };
                o.render()
            })
            .collect();
        let mut o = json::Obj::new();
        o.str("workload", workload)
            .raw("spans", &format!("[\n{}\n]", spans.join(",\n")));
        o.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_records_parents() {
        let mut s = Spans::new(true);
        s.enter("rep");
        s.enter("cell.a");
        s.enter("netsim.run");
        s.exit();
        s.exit();
        s.enter("cell.b");
        s.exit();
        s.exit();
        let all = s.all();
        assert_eq!(all.len(), 4);
        assert_eq!(all[0].parent, None);
        assert_eq!(all[1].parent, Some(0));
        assert_eq!(all[2].parent, Some(1));
        assert_eq!(all[3].parent, Some(0));
        assert!(all.iter().all(|sp| sp.end_ns >= sp.start_ns));
        let text = s.to_json("w");
        let parsed = json::parse(&text).expect("trace file is valid JSON");
        assert_eq!(parsed.get("spans").unwrap().as_array().unwrap().len(), 4);
    }

    #[test]
    fn disabled_records_nothing() {
        let mut s = Spans::new(false);
        s.enter("rep");
        assert_eq!(s.exit(), 0.0);
        assert!(s.all().is_empty());
    }
}
