//! `fleet_cold`: `FleetScenario` over generated homes with the journal
//! on and an empty `BlobStore` under a fresh fixture cache every pass.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use shatter_adm::{AdmKind, HullAdm};
use shatter_bench::fleet::{config_signature, derive_house, FleetPolicy, FleetScenario};
use shatter_core::biota::detection_rate;
use shatter_core::impact::attacked_day_trace;
use shatter_core::trigger::plan_triggers;
use shatter_core::{
    AttackSchedule, AttackerCapability, RewardTable, SmtScheduler, SmtStats, StrategyRegistry,
    WindowMemo, WindowSolution,
};
use shatter_dataset::episodes::extract_episodes;
use shatter_dataset::{synthesize, Dataset, DayTrace, SynthConfig};
use shatter_engine::runner::run_scenarios;
use shatter_engine::{FixtureCache, RunConfig, RunParams, Table};
use shatter_hvac::{DchvacController, EnergyModel};
use shatter_smarthome::OccupantId;
use shatter_store::{Blob, BlobStore, Journal};

use crate::trace::Tracer;
use crate::{Pass, Scale, Workload, THREADS};

/// Index of the `status` column of the fleet table.
const STATUS_COL: usize = 9;

/// Sum of the sizes of the files directly under `dir` (the blob store
/// is flat), `0` when it does not exist.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// What one program pass over the fleet produced.
struct FleetRun {
    table: Table,
    ok: bool,
    wall: f64,
    cpu: f64,
    exact: BTreeMap<String, f64>,
}

/// Compares a pass's fleet table with the reference table: returns the
/// number of rows that are not `ok` or differ from the reference (all
/// rows when the shapes differ), with a description of each problem.
fn check_table(table: &Table, reference: Option<&Table>) -> (u64, Vec<String>) {
    let mut problems = Vec::new();
    let mut bad = 0u64;
    if let Some(r) = reference {
        if r.header != table.header || r.rows.len() != table.rows.len() {
            return (
                table.rows.len().max(1) as u64,
                vec!["fleet table shape differs from the reference".into()],
            );
        }
    }
    for (i, row) in table.rows.iter().enumerate() {
        let status = row.get(STATUS_COL).map_or("", String::as_str);
        let differs = reference.is_some_and(|r| &r.rows[i] != row);
        if status != "ok" || differs {
            bad += 1;
            problems.push(format!(
                "house row {i}: status {status:?}{}",
                if differs {
                    ", differs from the reference"
                } else {
                    ""
                }
            ));
        }
    }
    (bad, problems)
}

/// The fleet_cold workload.
pub(crate) struct Fleet {
    homes: usize,
    params: RunParams,
    root: PathBuf,
    /// Table every pass must reproduce: the first pass's.
    reference: Option<Table>,
    passes: u64,
}

impl Fleet {
    /// A fleet whose files live under `root` (created by the store and
    /// journal as they open).
    pub(crate) fn setup(seed: u64, scale: &Scale, root: PathBuf) -> Fleet {
        Fleet {
            homes: scale.fleet_homes,
            params: RunParams {
                days: scale.days,
                span: scale.span,
                base_seed: seed,
            },
            root,
            reference: None,
            passes: 0,
        }
    }

    fn scenario(&self, journal: &Path) -> FleetScenario {
        FleetScenario::new("fleet", self.homes).with_journal(journal.to_path_buf())
    }

    /// One `FleetScenario` run through the runner over a fresh store at
    /// `store_dir`, a fresh cache and a fresh journal at `journal`.
    fn run_program(&self, store_dir: &Path, journal: &Path) -> FleetRun {
        let store = BlobStore::open(store_dir, shatter_engine::disk_schema_sig())
            .unwrap_or_else(|e| panic!("opening store {}: {e}", store_dir.display()));
        let cache = FixtureCache::new().with_disk(store);
        let scenario = self.scenario(journal);
        let sig = config_signature(scenario.config(), &self.params);
        let scenarios: Vec<Arc<dyn shatter_engine::Scenario>> = vec![Arc::new(scenario)];
        let cfg = RunConfig {
            threads: THREADS,
            params: self.params,
            fail_fast: false,
        };
        let cpu0 = crate::stats::cpu_seconds();
        let t = Instant::now();
        let out = run_scenarios(&scenarios, &cache, &cfg);
        let wall = t.elapsed().as_secs_f64();
        let cpu = crate::stats::cpu_seconds() - cpu0;
        let report = out.reports.into_iter().next().expect("one fleet report");
        let blob = cache.disk().expect("disk tier attached").stats();
        // Reopening validates every record the pass wrote.
        let journal_writes = Journal::open(journal, sig)
            .map(|j| j.stats().loaded)
            .unwrap_or(0);
        let c = cache.stats();
        let exact = BTreeMap::from([
            ("engine.cache_hits".to_string(), c.hits as f64),
            ("engine.cache_misses".to_string(), c.misses as f64),
            ("store.writes".to_string(), blob.writes as f64),
            ("store.put_bytes".to_string(), dir_bytes(store_dir) as f64),
            ("store.journal_writes".to_string(), journal_writes as f64),
        ]);
        FleetRun {
            ok: report.status.is_ok() && report.quarantined == 0,
            table: report.table,
            wall,
            cpu,
            exact,
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.root).ok();
    }
}

impl Workload for Fleet {
    fn threads(&self) -> usize {
        THREADS
    }

    fn pass(&mut self) -> Pass {
        self.passes += 1;
        let dir = self.root.join(format!("pass{}", self.passes));
        let run = self.run_program(&dir.join("store"), &dir.join("journal"));
        std::fs::remove_dir_all(&dir).ok();
        let (mut failed, mut problems) = check_table(&run.table, self.reference.as_ref());
        if !run.ok {
            problems.push("fleet scenario did not finish ok".into());
            failed = run.table.rows.len().max(1) as u64;
        }
        if self.reference.is_none() {
            self.reference = Some(run.table.clone());
        }
        Pass {
            wall: run.wall,
            cpu: run.cpu,
            units: run.table.rows.len() as u64,
            failed,
            problems,
            exact: run.exact,
        }
    }

    fn replay(&mut self, tracer: &Tracer) -> BTreeMap<String, f64> {
        self.passes += 1;
        let dir = self.root.join(format!("replay{}", self.passes));
        let counts = replay_fleet(tracer, &self.params, self.homes, &dir);
        std::fs::remove_dir_all(&dir).ok();
        counts
    }
}

/// Replays houses `0..homes` serially, in the order `FleetScenario`
/// evaluates one house, through the layers' public functions, into a
/// fresh store and journal under `dir`.
fn replay_fleet(
    tr: &Tracer,
    params: &RunParams,
    homes: usize,
    dir: &Path,
) -> BTreeMap<String, f64> {
    let store = BlobStore::open(&dir.join("store"), shatter_engine::disk_schema_sig())
        .unwrap_or_else(|e| panic!("opening replay store under {}: {e}", dir.display()));
    let cfg = shatter_bench::fleet::FleetConfig {
        n_houses: homes,
        sample: None,
        policy: FleetPolicy::default(),
    };
    let journal = Journal::open(&dir.join("journal"), config_signature(&cfg, params))
        .unwrap_or_else(|e| panic!("opening replay journal: {e}"));
    let mut smt = SmtStats::default();
    for i in 0..homes {
        let stats = tr.unit("fleet.house", i as u64, || {
            replay_house(tr, i, params, &cfg.policy, &store, &journal)
        });
        smt.merge(&stats);
    }
    smt_counts(&smt)
}

/// The `smt.*` and `core.smt_*` per-layer counts of `s`.
fn smt_counts(s: &SmtStats) -> BTreeMap<String, f64> {
    BTreeMap::from([
        ("core.smt_windows".to_string(), s.windows as f64),
        (
            "core.smt_degraded_windows".to_string(),
            s.degraded_windows as f64,
        ),
        ("smt.sat_decisions".to_string(), s.sat_decisions as f64),
        (
            "smt.sat_propagations".to_string(),
            s.sat_propagations as f64,
        ),
        (
            "smt.theory_conflicts".to_string(),
            s.theory_conflicts as f64,
        ),
        ("smt.float_pivots".to_string(), s.float_pivots as f64),
        ("smt.exact_fallbacks".to_string(), s.exact_fallbacks as f64),
        ("smt.bin_props".to_string(), s.bin_props as f64),
    ])
}

/// Computes a value and persists it, like a fixture-cache miss with a
/// disk tier.
fn persist<T: Blob>(tr: &Tracer, store: &BlobStore, key: &str, compute: impl FnOnce() -> T) -> T {
    let v = compute();
    tr.span("store.put", || store.put_blob(key, &v));
    v
}

/// SMT window memo over the replay's blob store, like the fixture
/// cache's disk tier under the program's window memo.
struct StoreMemo<'a> {
    tr: &'a Tracer,
    store: &'a BlobStore,
}

impl WindowMemo for StoreMemo<'_> {
    fn window(&self, key: &str, compute: &mut dyn FnMut() -> WindowSolution) -> WindowSolution {
        persist(self.tr, self.store, key, compute)
    }
}

/// The pieces of `impact::evaluate_day_with_schedule`, one span each.
/// Returns `(attacked cost, detection rate)`.
fn impact(
    tr: &Tracer,
    model: &EnergyModel,
    adm: &HullAdm,
    cap: &AttackerCapability,
    day: &DayTrace,
    schedule: &AttackSchedule,
) -> (f64, f64) {
    tr.span("core.impact", || {
        let triggers = tr.span("core.trigger", || {
            plan_triggers(model.home(), adm, cap, day, schedule)
        });
        let attacked = tr.span("core.attacked_trace", || {
            attacked_day_trace(day, schedule, &triggers)
        });
        let cost = tr.span("hvac.day_cost", || {
            model.day_cost(&DchvacController, &attacked).total_usd()
        });
        std::hint::black_box((triggers.total_minutes(), schedule.divergence(day)));
        let detect = tr.span("core.detect", || detection_rate(adm, schedule, day));
        (cost, detect)
    })
}

/// One house: fixture, ADM, reward table and benign costs; per day the
/// DP schedule and its impact; the budgeted SMT slice of day 0; the
/// journal record.
fn replay_house(
    tr: &Tracer,
    i: usize,
    params: &RunParams,
    policy: &FleetPolicy,
    store: &BlobStore,
    journal: &Journal,
) -> SmtStats {
    let days = params.days;
    let (spec, seed) = tr.span("bench.derive_house", || derive_house(i, params.base_seed));
    let key = format!("{}/{days}/{seed}", spec.cache_tag());
    let home = spec.home.build();
    let model = EnergyModel::standard(home.clone());
    let month: Dataset = persist(tr, store, &format!("fixture/{key}"), || {
        tr.span("dataset.synth", || {
            synthesize(&SynthConfig::new(spec.clone(), days, seed))
        })
    });
    let adm_kind = AdmKind::default_dbscan();
    let adm: HullAdm = persist(tr, store, &format!("adm/{key}"), || {
        let eps = tr.span("dataset.episodes", || {
            extract_episodes(&month.prefix_days(days))
        });
        tr.span("adm.train", || HullAdm::train_from_episodes(&eps, adm_kind))
    });
    let table: RewardTable = persist(tr, store, &format!("rtable/{key}"), || {
        tr.span("core.reward", || RewardTable::build(&model))
    });
    let benign: Vec<f64> = persist(tr, store, &format!("benign/{key}"), || {
        tr.span("hvac.day_cost", || {
            model
                .dataset_costs(&DchvacController, &month.days)
                .iter()
                .map(|c| c.total_usd())
                .collect()
        })
    });
    let cap = AttackerCapability::full(&home);
    let dp = StrategyRegistry::builtin()
        .get("dp")
        .expect("builtin dp strategy")
        .scheduler
        .clone();
    let (mut attacked, mut detect) = (0.0, 0.0);
    for (d, day) in month.days.iter().enumerate() {
        let schedule: AttackSchedule = persist(tr, store, &format!("sched/{key}/{d}"), || {
            tr.span("core.dp", || dp.schedule(&table, &adm, &cap, day))
        });
        let (cost, det) = impact(tr, &model, &adm, &cap, day, &schedule);
        attacked += cost;
        detect += det;
    }
    let smt = SmtScheduler {
        budget: Some(policy.house_budget),
        ..SmtScheduler::default()
    };
    let memo = StoreMemo { tr, store };
    let (_, stats) = tr.span("core.smt", || {
        smt.schedule_occupant_memo(
            OccupantId(0),
            &table,
            &adm,
            &cap,
            &month.days[0],
            params.span,
            Some((&memo, &format!("smtw/{key}/fleet/0"))),
        )
    });
    let benign_total: f64 = benign.iter().sum();
    let row = [
        format!("{}#{i}", spec.short),
        home.zones().len().to_string(),
        home.occupants().len().to_string(),
        format!("{benign_total:.2}"),
        format!("{attacked:.2}"),
        format!("{:.2}", detect / days as f64),
        stats.sat_decisions.to_string(),
        "ok".to_string(),
    ]
    .join("\t");
    tr.span("store.journal_put", || {
        journal
            .put(&format!("h{i:06}/{key}"), row.as_bytes())
            .unwrap_or_else(|e| panic!("replay journal write: {e}"))
    });
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(status: &str) -> Table {
        let cols = shatter_bench::fleet::FLEET_COLUMNS;
        let mut t = Table::new("fleet", "Fleet", &cols);
        let mut row: Vec<String> = cols.iter().map(|c| c.to_string()).collect();
        row[STATUS_COL] = status.into();
        t.push(row.clone());
        t.push(row);
        t
    }

    #[test]
    fn rows_must_be_ok_and_match_the_reference() {
        let good = table("ok");
        assert_eq!(check_table(&good, Some(&good)).0, 0);
        assert_eq!(check_table(&table("degraded"), None).0, 2);
        assert_eq!(check_table(&table("quarantined"), Some(&good)).0, 2);
        let mut changed = good.clone();
        changed.rows[1][3] = "1.00".into();
        assert_eq!(check_table(&changed, Some(&good)).0, 1);
        let mut short = good.clone();
        short.rows.pop();
        assert_eq!(check_table(&short, Some(&good)).0, 1);
    }
}
