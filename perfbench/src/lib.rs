//! The SHATTER benchmark: named workloads driven through the public
//! crate APIs, end-to-end metrics from untraced passes, and per-layer
//! metrics from a traced replay of each workload's units.
//!
//! `run.py` is the entry point; it builds this crate and runs its
//! binary once per invocation (so peak RSS is per workload). See
//! `README.md` for the workloads, the metrics and what each per-layer
//! metric should move.

#![forbid(unsafe_code)]

mod fleet;
mod stats;
pub mod suite;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use trace::Tracer;

/// Worker threads of the parallel workloads.
const THREADS: usize = 2;

/// Set-ups timed in fresh processes per untraced run, besides the run's
/// own; `setup_s` is the median of them all. A process keeps one heap
/// layout, and set-up time depends on it: the suite's set-up took 16-18
/// us in some processes and 25-30 us in others, steady within each, so
/// repeating set-ups inside one process sampled a single layout.
pub const SETUP_PROCESSES: usize = 31;

/// Workload names.
pub const WORKLOADS: [&str; 2] = ["suite", "fleet_cold"];

/// Environment variables the program reads; any of them set would
/// silently change what is measured.
pub const PROGRAM_ENV: [&str; 7] = [
    "SHATTER_EXACT_SIMPLEX",
    "SHATTER_BUDGET",
    "SHATTER_PORTFOLIO",
    "SHATTER_PORTFOLIO_HARD",
    "SHATTER_FAULTS",
    "SHATTER_STORE",
    "SHATTER_CACHE_MB",
];

/// Input sizes.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Days per month (suite and fleets).
    pub days: usize,
    /// Scalability span (suite) and SMT-slice span (fleets).
    pub span: usize,
    /// Homes per fleet.
    pub fleet_homes: usize,
}

impl Scale {
    /// The benchmark's sizes.
    pub fn full() -> Scale {
        Scale {
            days: 30,
            span: 60,
            fleet_homes: 16,
        }
    }

    /// Toy sizes for the benchmark's own tests.
    pub fn toy() -> Scale {
        Scale {
            days: 3,
            span: 20,
            fleet_homes: 2,
        }
    }
}

/// One untraced pass over a workload's units.
#[derive(Debug, Clone, Default)]
struct Pass {
    /// Wall seconds of the pass.
    pub wall: f64,
    /// Process CPU seconds over the pass.
    pub cpu: f64,
    /// Units of work attempted.
    pub units: u64,
    /// Units that failed, degraded, were quarantined or failed an output
    /// check.
    pub failed: u64,
    /// What failed.
    pub problems: Vec<String>,
    /// Effort counts that must repeat exactly, by per-layer metric name.
    pub exact: BTreeMap<String, f64>,
}

/// A benchmark workload.
trait Workload {
    /// Threads the workload's pass may keep busy.
    fn threads(&self) -> usize;
    /// One untraced pass through the program.
    fn pass(&mut self) -> Pass;
    /// One replay of the workload's units through the layers' public
    /// functions, recording spans into `tracer`. Returns counts the
    /// replay observed, by per-layer metric name.
    fn replay(&mut self, tracer: &Tracer) -> BTreeMap<String, f64>;
}

/// Builds workload `name` for `seed`, with its files under `root`.
fn setup(name: &str, seed: u64, scale: &Scale, root: PathBuf) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "suite" => Box::new(suite::Suite::setup(seed, scale.days, scale.span)?),
        "fleet_cold" => Box::new(fleet::Fleet::setup(seed, scale, root)),
        other => {
            return Err(format!(
                "unknown workload {other:?}; expected one of {WORKLOADS:?}"
            ))
        }
    })
}

/// End-to-end metrics `(name, unit)`, printed with tracing off.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("units_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Span names whose self time is a per-layer metric (`<name>_s`).
const LAYER_SPANS: [&str; 13] = [
    "dataset.synth",
    "dataset.episodes",
    "adm.train",
    "core.reward",
    "core.dp",
    "core.impact",
    "core.trigger",
    "core.attacked_trace",
    "hvac.day_cost",
    "core.detect",
    "core.smt",
    "store.put",
    "store.journal_put",
];

/// Per-layer metrics `(name, unit)`, printed by the traced run.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = LAYER_SPANS
        .iter()
        .map(|s| (format!("{s}_s"), "s"))
        .collect();
    for (name, unit) in [
        ("core.dp_days", "count"),
        ("core.smt_windows", "count"),
        ("core.smt_degraded_windows", "count"),
        ("smt.sat_decisions", "count"),
        ("smt.sat_propagations", "count"),
        ("smt.theory_conflicts", "count"),
        ("smt.float_pivots", "count"),
        ("smt.exact_fallbacks", "count"),
        ("smt.bin_props", "count"),
        ("store.put_bytes", "bytes"),
        ("store.writes", "count"),
        ("store.journal_writes", "count"),
        ("engine.cache_hits", "count"),
        ("engine.cache_misses", "count"),
        ("engine.cache_hit_ratio", "ratio"),
        ("engine.pool_utilization", "ratio"),
        ("engine.pool_idle_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.unattributed_s", "s"),
    ] {
        v.push((name.to_string(), unit));
    }
    for id in suite::SUITE_IDS {
        v.push((format!("engine.scenario.{id}_s"), "s"));
    }
    v
}

/// Result of one benchmark invocation.
#[derive(Debug, Clone)]
pub struct Report {
    /// Units attempted over the measured passes.
    pub attempted: u64,
    /// Units failed over the measured passes.
    pub failed: u64,
    /// Failed output checks.
    pub problems: Vec<String>,
    /// Effort counts that differed between passes or replays.
    pub nondeterministic: Vec<String>,
    /// Metrics `(name, value, unit)`.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Extra facts for the detail line (sample counts, exact counts).
    pub detail: BTreeMap<String, String>,
}

impl Report {
    /// Whether every unit passed its output checks. Counts that failed
    /// to repeat are reported beside the result, not folded into it:
    /// they describe the measurement, not the program's outputs.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            stats::json_str(&mut out, name);
            out.push_str(&format!(
                ": {{\"value\": {}, \"unit\": ",
                stats::json_num(*value)
            ));
            stats::json_str(&mut out, unit);
            out.push('}');
        }
        out.push_str("}}");
        out
    }

    /// The detail line: problems, nondeterminism and sample facts.
    pub fn detail_json(&self) -> String {
        let mut out = String::from("{\"detail\": {");
        let list = |out: &mut String, key: &str, items: &[String]| {
            stats::json_str(out, key);
            out.push_str(": [");
            for (i, p) in items.iter().take(20).enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                stats::json_str(out, p);
            }
            out.push(']');
        };
        list(&mut out, "problems", &self.problems);
        out.push_str(", ");
        list(&mut out, "nondeterministic", &self.nondeterministic);
        for (k, v) in &self.detail {
            out.push_str(", ");
            stats::json_str(&mut out, k);
            out.push_str(": ");
            out.push_str(v);
        }
        out.push_str("}}");
        out
    }
}

/// Names of the counts in `got` that differ from `want`.
fn count_mismatches(
    what: &str,
    want: &BTreeMap<String, f64>,
    got: &BTreeMap<String, f64>,
) -> Vec<String> {
    want.iter()
        .filter(|(k, v)| got.get(*k) != Some(v))
        .map(|(k, v)| format!("{what}: {k} was {v}, then {:?}", got.get(k)))
        .collect()
}

fn json_array(xs: &[f64]) -> String {
    let cells: Vec<String> = xs.iter().map(|x| stats::json_num(*x)).collect();
    format!("[{}]", cells.join(", "))
}

fn json_counts(m: &BTreeMap<String, f64>) -> String {
    let cells: Vec<String> = m
        .iter()
        .map(|(k, v)| {
            let mut s = String::new();
            stats::json_str(&mut s, k);
            format!("{s}: {}", stats::json_num(*v))
        })
        .collect();
    format!("{{{}}}", cells.join(", "))
}

/// Sets up workload `name` and returns the seconds from `started` to the
/// end of the set-up: one `setup_s` sample when `started` is the start of
/// a fresh process.
pub fn setup_seconds(
    name: &str,
    seed: u64,
    scale: &Scale,
    root: PathBuf,
    started: Instant,
) -> Result<f64, String> {
    let w = setup(name, seed, scale, root)?;
    let seconds = started.elapsed().as_secs_f64();
    drop(w);
    Ok(seconds)
}

/// Untraced run: set up (timed from `started`), run passes until
/// `seconds` have been measured, then take [`SETUP_PROCESSES`] further
/// set-up samples from `fresh_setup`, which times a set-up in a fresh
/// process.
pub fn run_untraced(
    name: &str,
    seed: u64,
    seconds: f64,
    scale: &Scale,
    root: PathBuf,
    started: Instant,
    fresh_setup: &mut dyn FnMut() -> Result<f64, String>,
) -> Result<Report, String> {
    let mut w = setup(name, seed, scale, root.join("setup0"))?;
    let first = started.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut passes = Vec::new();
    let mut peaks = Vec::new();
    loop {
        stats::reset_peak_rss();
        passes.push(w.pass());
        peaks.push(stats::peak_rss_mb());
        if t.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    drop(w);
    let mut setups = vec![first];
    for _ in 0..SETUP_PROCESSES {
        setups.push(fresh_setup()?);
    }
    let walls: Vec<f64> = passes.iter().map(|p| p.wall).collect();
    let cpus: Vec<f64> = passes.iter().map(|p| p.cpu).collect();
    let rates: Vec<f64> = passes.iter().map(|p| p.units as f64 / p.wall).collect();
    let units: u64 = passes.iter().map(|p| p.units).sum();
    let mut nondeterministic = Vec::new();
    for (i, p) in passes.iter().enumerate().skip(1) {
        nondeterministic.extend(count_mismatches(
            &format!("pass {i}"),
            &passes[0].exact,
            &p.exact,
        ));
    }
    let detail = BTreeMap::from([
        ("setup_s".to_string(), json_array(&setups)),
        ("pass_wall_s".to_string(), json_array(&walls)),
        ("pass_cpu_s".to_string(), json_array(&cpus)),
        ("pass_peak_rss_mb".to_string(), json_array(&peaks)),
        ("exact_counts".to_string(), json_counts(&passes[0].exact)),
    ]);
    let values = [
        stats::median(&setups),
        stats::median(&walls),
        stats::median(&rates),
        stats::median(&cpus),
        // The first pass runs in a fresh process, as a user's run does.
        // Later passes start on heap the allocator kept from earlier
        // ones, and their peaks wander with it (195-255 MB within one
        // suite run against 1.6% across first passes of ten seeds).
        peaks[0],
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name.to_string(), v, unit))
        .collect();
    Ok(Report {
        attempted: units,
        failed: passes.iter().map(|p| p.failed).sum(),
        problems: passes.iter().flat_map(|p| p.problems.clone()).collect(),
        nondeterministic,
        metrics,
        detail,
    })
}

/// Traced run: one untraced pass for the program's own counts, then
/// alternating untraced and traced replays until `seconds` have passed
/// (at least one of each). Spans of the last traced replay are written
/// to `spans_out`.
pub fn run_traced(
    name: &str,
    seed: u64,
    seconds: f64,
    scale: &Scale,
    root: PathBuf,
    spans_out: Option<PathBuf>,
) -> Result<Report, String> {
    let mut w = setup(name, seed, scale, root)?;
    let t = Instant::now();
    let pass = w.pass();
    let mut plain_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut unattributed = Vec::new();
    let mut self_times: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut replay_counts: Vec<BTreeMap<String, f64>> = Vec::new();
    let last = loop {
        let off = Tracer::off();
        let t0 = Instant::now();
        w.replay(&off);
        plain_walls.push(t0.elapsed().as_secs_f64());

        let on = Tracer::on();
        let t0 = Instant::now();
        let mut counts = w.replay(&on);
        let wall = t0.elapsed().as_secs_f64();
        traced_walls.push(wall);
        unattributed.push(wall - on.top_level_seconds());
        let own = on.self_times();
        for span in LAYER_SPANS {
            let v = own.get(span).copied().unwrap_or(0.0);
            self_times.entry(format!("{span}_s")).or_default().push(v);
        }
        for (span, v) in own {
            if let Some(id) = span.strip_prefix("engine.scenario.") {
                self_times
                    .entry(format!("engine.scenario.{id}_s"))
                    .or_default()
                    .push(v);
            }
        }
        counts.insert(
            "core.dp_days".into(),
            on.counts().get("core.dp").copied().unwrap_or(0) as f64,
        );
        replay_counts.push(counts);
        if t.elapsed().as_secs_f64() >= seconds {
            break on;
        }
    };
    let mut nondeterministic = Vec::new();
    for (i, c) in replay_counts.iter().enumerate().skip(1) {
        nondeterministic.extend(count_mismatches(
            &format!("replay {i}"),
            &replay_counts[0],
            c,
        ));
    }
    if let Some(path) = spans_out {
        last.write_jsonl(&path)
            .map_err(|e| format!("writing spans to {}: {e}", path.display()))?;
    }

    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    for (k, v) in &replay_counts[0] {
        values.insert(k.clone(), *v);
    }
    // The program's own counters win over the replay's where both exist.
    for (k, v) in &pass.exact {
        values.insert(k.clone(), *v);
    }
    for (k, v) in &self_times {
        values.insert(k.clone(), stats::median(v));
    }
    let hits = values.get("engine.cache_hits").copied().unwrap_or(0.0);
    let lookups = hits + values.get("engine.cache_misses").copied().unwrap_or(0.0);
    values.insert(
        "engine.cache_hit_ratio".into(),
        if lookups > 0.0 { hits / lookups } else { 0.0 },
    );
    let threads = w.threads() as f64;
    values.insert(
        "engine.pool_utilization".into(),
        pass.cpu / (threads * pass.wall),
    );
    values.insert("engine.pool_idle_s".into(), threads * pass.wall - pass.cpu);
    values.insert(
        "trace.overhead_s".into(),
        stats::median(&traced_walls) - stats::median(&plain_walls),
    );
    values.insert("trace.unattributed_s".into(), stats::median(&unattributed));
    let metrics = per_layer()
        .into_iter()
        .map(|(name, unit)| {
            let v = values.get(&name).copied().unwrap_or(0.0);
            (name, v, unit)
        })
        .collect();
    let detail = BTreeMap::from([
        ("replays".to_string(), traced_walls.len().to_string()),
        ("traced_wall_s".to_string(), json_array(&traced_walls)),
        ("untraced_wall_s".to_string(), json_array(&plain_walls)),
        ("exact_counts".to_string(), json_counts(&pass.exact)),
        ("replay_counts".to_string(), json_counts(&replay_counts[0])),
    ]);
    Ok(Report {
        attempted: pass.units,
        failed: pass.failed,
        problems: pass.problems,
        nondeterministic,
        metrics,
        detail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
        for n in &names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
    }
}
