//! In-memory spans for the traced run. Spans are recorded around the
//! calls the benchmark makes into each layer's public functions, kept in
//! memory, and written out as JSON lines when the run ends.

use crate::harness::Json;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed interval: a layer call inside one unit of work.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub unit: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            // Reserved up front so no push reallocates inside a span.
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    /// Opens a span and returns its id; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, unit: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            unit,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Times `f` as a span named `name`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        unit: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, unit, parent);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover (children of one span never overlap: the benchmark
    /// is serial inside a unit).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] = out[p].saturating_sub(s.ns());
            }
        }
        out
    }

    /// The reconciliation error of every root span (a unit): the share of
    /// its wall time that no layer span below it accounts for, i.e.
    /// `1 - Σ self time of its descendants / wall`. The layer self-times
    /// of a unit sum to its wall time exactly when this is 0.
    pub fn reconcile_errors(&self) -> Vec<f64> {
        let own = self.self_ns();
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent.is_none() && s.ns() > 0)
            .map(|(i, s)| own[i] as f64 / s.ns() as f64)
            .collect()
    }

    /// Writes every span as one JSON line to `path`, creating its directory.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let line = Json::obj([
                ("id", Json::from(id)),
                ("name", Json::str(s.name)),
                ("unit", Json::from(s.unit)),
                ("parent", s.parent.map_or(Json::Null, Json::from)),
                ("start_ns", Json::from(s.start_ns)),
                ("end_ns", Json::from(s.end_ns)),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}
