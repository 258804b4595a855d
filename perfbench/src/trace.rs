//! In-memory span recorder for the traced replay.
//!
//! The benchmark records spans around its own calls into each layer's
//! public functions (the program itself carries no tracing). A span
//! has a name, start and end offsets from the recorder's epoch, the
//! index of the span that was open when it started (its parent) and
//! the id of the unit of work it belongs to. Spans are kept in memory
//! and written out once the run ends.
//!
//! The replay that records spans runs on one thread, so a single open
//! span stack describes the nesting exactly. A disabled recorder runs
//! the same closures and records nothing: the difference between a
//! traced and an untraced replay is the tracing overhead.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.dp` or `store.put`.
    pub name: String,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a top-level span.
    pub parent: Option<usize>,
    /// Id of the unit of work (house, scenario, occupant-day).
    pub unit: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    unit: u64,
}

/// Span recorder; `Tracer::off()` records nothing.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    state: Mutex<State>,
}

impl Tracer {
    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer {
            enabled: true,
            epoch: Instant::now(),
            state: Mutex::default(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::on()
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("tracer lock poisoned by a panicking replay")
    }

    /// Runs `f` as the top-level span of unit `unit`.
    pub fn unit<R>(&self, name: &str, unit: u64, f: impl FnOnce() -> R) -> R {
        if self.enabled {
            self.lock().unit = unit;
        }
        self.span(name, f)
    }

    /// Runs `f` inside a span named `name`, nested in the open span.
    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let idx = {
            let mut st = self.lock();
            let idx = st.spans.len();
            let parent = st.open.last().copied();
            let unit = st.unit;
            st.spans.push(Span {
                name: name.to_string(),
                start_ns: 0,
                end_ns: 0,
                parent,
                unit,
            });
            st.open.push(idx);
            idx
        };
        // Stamp the start after the bookkeeping so it is not charged to
        // the span.
        let start = self.now_ns();
        self.lock().spans[idx].start_ns = start;
        let out = f();
        let end = self.now_ns();
        let mut st = self.lock();
        st.spans[idx].end_ns = end;
        let closed = st.open.pop();
        debug_assert_eq!(closed, Some(idx), "spans must close in LIFO order");
        out
    }

    /// All recorded spans.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// Self seconds per span name: each span's duration minus the time
    /// its direct children cover (children of one span never overlap on
    /// the single replay thread).
    pub fn self_times(&self) -> BTreeMap<String, f64> {
        let spans = self.spans();
        let mut child_ns = vec![0u64; spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(c) as f64 * 1e-9;
            *out.entry(s.name.clone()).or_insert(0.0) += own;
        }
        out
    }

    /// Number of spans recorded per name.
    pub fn counts(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for s in self.lock().spans.iter() {
            *out.entry(s.name.clone()).or_insert(0) += 1;
        }
        out
    }

    /// Seconds covered by top-level spans.
    pub fn top_level_seconds(&self) -> f64 {
        self.lock()
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::seconds)
            .sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        use std::io::Write as _;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for (i, s) in self.lock().spans.iter().enumerate() {
            out.push_str(&format!("{{\"id\":{i},\"name\":"));
            crate::stats::json_str(&mut out, &s.name);
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                ",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"unit\":{}}}\n",
                s.start_ns, s.end_ns, s.unit
            ));
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        f.write_all(out.as_bytes())?;
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < u128::from(ms) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::on();
        t.unit("root", 7, || {
            spin(5);
            t.span("child", || spin(10));
            t.span("child", || spin(10));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.unit == 7));
        assert_eq!(spans[1].parent, Some(0));
        let st = t.self_times();
        assert!(st["child"] >= 0.020);
        assert!(st["root"] >= 0.005, "root self {}", st["root"]);
        let whole = spans[0].end_ns - spans[0].start_ns;
        let children: u64 = spans[1..].iter().map(|s| s.end_ns - s.start_ns).sum();
        assert!((st["root"] - (whole - children) as f64 * 1e-9).abs() < 1e-12);
        assert!((t.top_level_seconds() - spans[0].seconds()).abs() < 1e-12);
        assert_eq!(t.counts()["child"], 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::off();
        let v = t.unit("root", 1, || t.span("x", || 41) + 1);
        assert_eq!(v, 42);
        assert!(t.spans().is_empty());
        assert_eq!(t.top_level_seconds(), 0.0);
    }
}
