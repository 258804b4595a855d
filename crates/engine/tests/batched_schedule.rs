//! Batched day scheduling through the engine's [`PoolExecutor`]: the
//! assembled schedule and merged statistics must be byte-identical to
//! the serial reference executor at every pool width — in portfolio
//! mode too — and fault-injection scoping must survive the hop onto
//! pool helper threads.

use std::collections::HashMap;
use std::sync::Mutex;

use shatter_adm::{AdmKind, HullAdm};
use shatter_core::{
    schedule_day_batched, AttackSchedule, AttackerCapability, BatchExecutor, RewardTable,
    SerialExecutor, SmtScheduler, SmtStats, WindowMemo, WindowSolution,
};
use shatter_dataset::{synthesize, Dataset, HouseSpec, SynthConfig};
use shatter_engine::{PoolExecutor, WorkPool};
use shatter_hvac::EnergyModel;
use shatter_smarthome::houses;

fn world(seed: u64) -> (Dataset, HullAdm, RewardTable, AttackerCapability) {
    let ds = synthesize(&SynthConfig::new(HouseSpec::aras_a(), 6, seed));
    let adm = HullAdm::train(&ds.prefix_days(5), AdmKind::default_kmeans());
    let model = EnergyModel::standard(houses::aras_house_a());
    let table = RewardTable::build(&model);
    let cap = AttackerCapability::full(&houses::aras_house_a());
    (ds, adm, table, cap)
}

/// Minimal in-memory [`WindowMemo`]; each run gets its own instance so
/// equality between runs is never a trivial cache replay.
#[derive(Default)]
struct MapMemo(Mutex<HashMap<String, WindowSolution>>);

impl WindowMemo for MapMemo {
    fn window(&self, key: &str, compute: &mut dyn FnMut() -> WindowSolution) -> WindowSolution {
        if let Some(hit) = self.0.lock().unwrap().get(key) {
            return hit.clone();
        }
        let v = compute();
        self.0.lock().unwrap().insert(key.to_string(), v.clone());
        v
    }
}

fn day_with(
    sched: &SmtScheduler,
    world: &(Dataset, HullAdm, RewardTable, AttackerCapability),
    exec: &dyn BatchExecutor,
) -> (AttackSchedule, SmtStats) {
    let (ds, adm, table, cap) = world;
    let memo = MapMemo::default();
    schedule_day_batched(sched, table, adm, cap, &ds.days[5], &memo, "day5", exec)
}

#[test]
fn batched_day_byte_identical_across_pool_widths_and_modes() {
    let w = world(9);
    let configs: Vec<(&str, SmtScheduler)> = vec![
        ("default", SmtScheduler::default()),
        (
            "portfolio",
            SmtScheduler {
                portfolio: 3,
                portfolio_hard_conflicts: 0,
                ..SmtScheduler::default()
            },
        ),
    ];
    let mut decisions: HashMap<&str, u64> = HashMap::new();
    for (name, sched) in &configs {
        let (serial_a, serial_stats) = day_with(sched, &w, &SerialExecutor);
        // Width 0: the pool executor degenerates to inline execution.
        // Width 7: occupant chains and (in portfolio mode) race
        // attempts genuinely run on borrowed helper threads.
        for width in [0usize, 7] {
            let exec = PoolExecutor::new(WorkPool::new(width));
            let (pooled, pooled_stats) = day_with(sched, &w, &exec);
            assert_eq!(
                serial_a, pooled,
                "{name}: schedule diverged at width {width}"
            );
            assert_eq!(
                serial_stats, pooled_stats,
                "{name}: stats diverged at width {width}"
            );
        }
        assert!(serial_stats.windows > 0, "{name}: no windows solved");
        decisions.insert(name, serial_stats.sat_decisions);
    }
    // Non-vacuity: with the hardness threshold at zero the portfolio
    // run must actually race (extra attempts burn extra decisions),
    // while the committed schedule above stayed pinned to serial.
    assert!(
        decisions["portfolio"] > decisions["default"],
        "portfolio racing never ran: {:?}",
        decisions
    );
}

#[test]
fn pool_helpers_keep_fault_scenario_armed() {
    // A rule that can never fire still arms its scenario, which is all
    // `scenario_armed` needs; the huge hit index keeps this inert for
    // every other test in the process.
    shatter_faults::install_str("tlsprobe/smt.window/panic@9999999999").unwrap();
    let exec = shatter_faults::with_scenario("tlsprobe", || PoolExecutor::new(WorkPool::new(7)));
    // Helper threads are fresh OS threads with empty fault TLS: every
    // attempt must still observe the captured scenario scope, whether
    // it lands on the caller or on a borrowed helper.
    let attempts = exec.run_attempts(8, &|_| WindowSolution {
        degraded: shatter_faults::scenario_armed(),
        ..WindowSolution::default()
    });
    assert_eq!(attempts.len(), 8);
    assert!(
        attempts.iter().all(|a| a.degraded),
        "a pool worker lost the fault scenario scope"
    );
    // Outside the scenario the same pool sees no armed scope.
    let bare = PoolExecutor::new(WorkPool::new(7));
    let attempts = bare.run_attempts(8, &|_| WindowSolution {
        degraded: shatter_faults::scenario_armed(),
        ..WindowSolution::default()
    });
    assert!(attempts.iter().all(|a| !a.degraded));
}

#[test]
fn injected_window_fault_in_batched_day_matches_serial() {
    // Separate scenario names per run: hit counters are shared per
    // (scenario, site) across the process, so each run needs its own
    // counter stream for the fault to land on the same window.
    shatter_faults::install_str("bfault/smt.window/budget@5,sfault/smt.window/budget@5").unwrap();
    let w = world(9);
    let sched = SmtScheduler::default();
    let (batched, batched_stats) = shatter_faults::with_scenario("bfault", || {
        let exec = PoolExecutor::new(WorkPool::new(7));
        day_with(&sched, &w, &exec)
    });
    let (serial, serial_stats) =
        shatter_faults::with_scenario("sfault", || day_with(&sched, &w, &SerialExecutor));
    assert!(
        batched_stats.fallbacks >= 1,
        "injected budget fault never degraded a window"
    );
    assert_eq!(batched, serial, "faulted batched schedule diverged");
    assert_eq!(batched_stats, serial_stats, "faulted stats diverged");
}
