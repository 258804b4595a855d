//! `suite`: every registry scenario through `run_scenarios`, the
//! paper-regeneration path.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use shatter_engine::runner::run_scenarios;
use shatter_engine::{FixtureCache, RunConfig, RunParams, Scenario, Table};

use crate::trace::Tracer;
use crate::{Pass, Workload, THREADS};

/// Scenario ids of the registry, in submission order; one per-layer
/// metric `engine.scenario.<id>_s` each.
pub(crate) const SUITE_IDS: [&str; 19] = [
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "tab3",
    "tab4",
    "tab5",
    "strategies",
    "fig10",
    "tab6",
    "tab7",
    "fig11",
    "testbed",
    "ablation",
    "scaled_homes",
    "capability_grid",
    "defense_sweep",
    "fleet_smoke",
    "fleet_scaling",
];

/// Number of base seeds with pinned table digests; `--seed n` runs the
/// suite at base seed `n % PINNED_SEEDS`.
pub const PINNED_SEEDS: u64 = 8;

/// Digests pinned from the parent commit: `base_seed<TAB>id<TAB>digest`.
const PINS: &str = include_str!("../pins/suite.tsv");

/// Columns holding wall-clock measurements, left out of the digests of
/// the two scenarios that print timings.
fn timing_columns(id: &str) -> &'static [&'static str] {
    match id {
        "fig11" => &["total_ms", "per_window_us"],
        "fleet_scaling" => &[
            "cold_s",
            "cold_homes_s",
            "warm_s",
            "warm_homes_s",
            "warmup_x",
        ],
        _ => &[],
    }
}

/// FNV-1a digest of a table's id, title, header and rows, without its
/// timing columns.
fn table_digest(t: &Table) -> u64 {
    let skip = timing_columns(&t.id);
    let keep: Vec<usize> = (0..t.header.len())
        .filter(|&c| !skip.contains(&t.header[c].as_str()))
        .collect();
    let mut text = format!("{}\n{}\n", t.id, t.title);
    let line = |cells: &[String]| -> String {
        keep.iter()
            .map(|&c| cells.get(c).map_or("", String::as_str))
            .collect::<Vec<_>>()
            .join("\t")
    };
    text.push_str(&line(&t.header));
    for row in &t.rows {
        text.push('\n');
        text.push_str(&line(row));
    }
    shatter_store::fnv1a_bytes(text.as_bytes())
}

/// Pinned digests for one base seed, by scenario id.
fn pinned(base_seed: u64) -> BTreeMap<String, u64> {
    PINS.lines()
        .filter_map(|l| {
            let mut f = l.split('\t');
            let seed: u64 = f.next()?.parse().ok()?;
            let id = f.next()?;
            let digest = u64::from_str_radix(f.next()?, 16).ok()?;
            (seed == base_seed).then(|| (id.to_string(), digest))
        })
        .collect()
}

/// Checks one suite outcome: every scenario ran `ok` and its table
/// digest matches the pin. Returns the failing scenario ids with the
/// reason.
fn check_reports(reports: &[(String, bool, Table)], pins: &BTreeMap<String, u64>) -> Vec<String> {
    let mut bad = Vec::new();
    for (id, ok, table) in reports {
        if !ok {
            bad.push(format!("{id}: status not ok"));
            continue;
        }
        match pins.get(id) {
            Some(&want) if want == table_digest(table) => {}
            Some(&want) => bad.push(format!(
                "{id}: digest {:016x} != pinned {want:016x}",
                table_digest(table)
            )),
            None => bad.push(format!("{id}: no pinned digest")),
        }
    }
    bad
}

/// The suite workload.
pub struct Suite {
    scenarios: Vec<Arc<dyn Scenario>>,
    cfg: RunConfig,
    pins: BTreeMap<String, u64>,
}

impl Suite {
    /// Builds the registry and loads the pins for `seed`.
    pub fn setup(seed: u64, days: usize, span: usize) -> Result<Suite, String> {
        let base_seed = seed % PINNED_SEEDS;
        let reg = shatter_bench::builtin_registry();
        let ids = reg.ids();
        if ids != SUITE_IDS {
            return Err(format!("registry ids changed: {ids:?}"));
        }
        Ok(Suite {
            scenarios: reg.all(),
            cfg: RunConfig {
                threads: THREADS,
                params: RunParams {
                    days,
                    span,
                    base_seed,
                },
                fail_fast: false,
            },
            pins: pinned(base_seed),
        })
    }

    /// Runs the whole suite once on a fresh cache, returning the
    /// per-scenario `(id, ok, table)` reports and the cache counters.
    fn run_once(&self) -> (Vec<(String, bool, Table)>, shatter_engine::CacheStats, f64) {
        let cache = FixtureCache::new();
        let t = Instant::now();
        let out = run_scenarios(&self.scenarios, &cache, &self.cfg);
        let wall = t.elapsed().as_secs_f64();
        let reports = out
            .reports
            .into_iter()
            .map(|r| (r.id, r.status.is_ok(), r.table))
            .collect();
        (reports, out.cache, wall)
    }

    /// Digests of one clean run, for pinning.
    pub fn digests(&self) -> Vec<(String, u64)> {
        let (reports, _, _) = self.run_once();
        reports
            .iter()
            .map(|(id, ok, t)| {
                assert!(ok, "{id} did not finish ok; refusing to pin it");
                (id.clone(), table_digest(t))
            })
            .collect()
    }
}

impl Workload for Suite {
    fn threads(&self) -> usize {
        THREADS
    }

    fn pass(&mut self) -> Pass {
        let cpu0 = crate::stats::cpu_seconds();
        let (reports, cache, wall) = self.run_once();
        let cpu = crate::stats::cpu_seconds() - cpu0;
        let problems = check_reports(&reports, &self.pins);
        let mut exact = BTreeMap::new();
        exact.insert("engine.cache_hits".into(), cache.hits as f64);
        exact.insert("engine.cache_misses".into(), cache.misses as f64);
        Pass {
            wall,
            cpu,
            units: reports.len() as u64,
            failed: problems.len() as u64,
            problems,
            exact,
        }
    }

    fn replay(&mut self, tracer: &Tracer) -> BTreeMap<String, f64> {
        // Each scenario alone through the runner, in submission order,
        // sharing one fresh cache as the scenarios of a suite run do.
        let cache = FixtureCache::new();
        for (i, s) in self.scenarios.iter().enumerate() {
            let name = format!("engine.scenario.{}", s.id());
            tracer.unit(&name, i as u64, || {
                run_scenarios(std::slice::from_ref(s), &cache, &self.cfg)
            });
        }
        BTreeMap::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        let mut t = Table::new("fig11", "SMT", &["sweep", "total_ms", "sat_decisions"]);
        t.push(vec!["horizon".into(), "12.5".into(), "77".into()]);
        t
    }

    #[test]
    fn digest_ignores_timing_columns_only() {
        let a = table();
        let mut b = table();
        b.rows[0][1] = "99.0".into();
        assert_eq!(table_digest(&a), table_digest(&b));
        b.rows[0][2] = "78".into();
        assert_ne!(table_digest(&a), table_digest(&b));
    }

    #[test]
    fn corrupted_or_failed_tables_are_reported() {
        let t = table();
        let pins = BTreeMap::from([("fig11".to_string(), table_digest(&t))]);
        assert!(check_reports(&[("fig11".into(), true, t.clone())], &pins).is_empty());
        let mut corrupt = t.clone();
        corrupt.rows[0][0] = "span".into();
        assert_eq!(
            check_reports(&[("fig11".into(), true, corrupt)], &pins).len(),
            1
        );
        assert_eq!(
            check_reports(&[("fig11".into(), false, t.clone())], &pins).len(),
            1
        );
        assert_eq!(check_reports(&[("tab9".into(), true, t)], &pins).len(), 1);
    }

    #[test]
    fn a_corrupted_pin_fails_its_scenario() {
        let scale = crate::Scale::toy();
        let mut s = Suite::setup(1, scale.days, scale.span).expect("registry");
        s.pins = s.digests().into_iter().collect();
        let clean = s.pass();
        assert_eq!(clean.failed, 0, "{:?}", clean.problems);
        assert_eq!(clean.units, SUITE_IDS.len() as u64);
        *s.pins.get_mut("tab5").expect("tab5 pinned") ^= 1;
        let bad = s.pass();
        assert_eq!(bad.failed, 1, "{:?}", bad.problems);
        assert!(bad.problems[0].starts_with("tab5:"));
    }

    #[test]
    fn pins_cover_every_scenario_for_every_base_seed() {
        for seed in 0..PINNED_SEEDS {
            let p = pinned(seed);
            let ids: Vec<&str> = p.keys().map(String::as_str).collect();
            let mut want = SUITE_IDS.to_vec();
            want.sort_unstable();
            assert_eq!(ids, want, "base seed {seed}");
        }
    }
}
