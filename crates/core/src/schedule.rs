use shatter_adm::HullAdm;
use shatter_dataset::episodes::Episode;
use shatter_dataset::DayTrace;
use shatter_smarthome::{Activity, Minute, OccupantId, ZoneId, MINUTES_PER_DAY};

use crate::{AttackerCapability, RewardTable};

/// A falsified per-occupant zone/activity timeline for one day — the
/// attack schedule `S̄^OT` of the paper's §IV-C.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackSchedule {
    /// `zones[o][t]`: reported zone of occupant `o` during minute `t`.
    pub zones: Vec<Vec<ZoneId>>,
    /// `activities[o][t]`: reported activity backing the zone claim.
    pub activities: Vec<Vec<Activity>>,
}

/// Violation found by [`AttackSchedule::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleError {
    /// A reported stay episode falls outside every ADM cluster while
    /// differing from the occupant's actual behaviour.
    NotStealthy {
        /// The offending episode.
        episode: Episode,
    },
    /// A relocation the attacker lacks access to perform.
    CapabilityViolation {
        /// Occupant being relocated.
        occupant: OccupantId,
        /// Minute of the violation.
        minute: Minute,
    },
    /// A reported activity implausible for its reported zone.
    ImplausibleActivity {
        /// Occupant index.
        occupant: OccupantId,
        /// Minute of the violation.
        minute: Minute,
    },
    /// Schedule dimensions do not match the day trace.
    ShapeMismatch,
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::NotStealthy { episode } => write!(
                f,
                "episode (o={}, z={}, arrival={}, stay={}) outside all ADM clusters",
                episode.occupant, episode.zone, episode.arrival, episode.stay
            ),
            ScheduleError::CapabilityViolation { occupant, minute } => {
                write!(
                    f,
                    "occupant {occupant} relocated without access at minute {minute}"
                )
            }
            ScheduleError::ImplausibleActivity { occupant, minute } => {
                write!(
                    f,
                    "occupant {occupant} reports implausible activity at minute {minute}"
                )
            }
            ScheduleError::ShapeMismatch => write!(f, "schedule shape mismatch"),
        }
    }
}

impl std::error::Error for ScheduleError {}

impl AttackSchedule {
    /// Assembles a schedule from per-occupant zone rows, backing every
    /// zone claim with its plausibility-maximizing activity.
    pub fn from_zone_rows(zones: Vec<Vec<ZoneId>>, table: &RewardTable) -> AttackSchedule {
        let activities = zones
            .iter()
            .enumerate()
            .map(|(o, row)| {
                row.iter()
                    .enumerate()
                    .map(|(t, &z)| table.best_activity(OccupantId(o), z, t as Minute))
                    .collect()
            })
            .collect();
        AttackSchedule { zones, activities }
    }

    /// The identity schedule: report exactly the actual behaviour.
    pub fn from_actual(day: &DayTrace) -> AttackSchedule {
        let n_occupants = day.minutes[0].occupants.len();
        let mut zones = vec![Vec::with_capacity(MINUTES_PER_DAY); n_occupants];
        let mut activities = vec![Vec::with_capacity(MINUTES_PER_DAY); n_occupants];
        for rec in &day.minutes {
            for (o, os) in rec.occupants.iter().enumerate() {
                zones[o].push(os.zone);
                activities[o].push(os.activity);
            }
        }
        AttackSchedule { zones, activities }
    }

    /// Number of occupants covered.
    pub fn n_occupants(&self) -> usize {
        self.zones.len()
    }

    /// Extracts the reported stay episodes (day index 0).
    pub fn episodes(&self) -> Vec<Episode> {
        let mut out = Vec::new();
        for (o, row) in self.zones.iter().enumerate() {
            let mut start = 0usize;
            for t in 1..row.len() {
                if row[t] != row[start] {
                    out.push(Episode {
                        occupant: OccupantId(o),
                        zone: row[start],
                        day: 0,
                        arrival: start as u32,
                        stay: (t - start) as u32,
                    });
                    start = t;
                }
            }
            out.push(Episode {
                occupant: OccupantId(o),
                zone: row[start],
                day: 0,
                arrival: start as u32,
                stay: (row.len() - start) as u32,
            });
        }
        out
    }

    /// Total scheduler reward of this schedule under a reward table.
    pub fn reward(&self, table: &RewardTable) -> f64 {
        let mut total = 0.0;
        for (o, row) in self.zones.iter().enumerate() {
            for (t, z) in row.iter().enumerate() {
                total += table.rate(OccupantId(o), *z, t as Minute);
            }
        }
        total
    }

    /// Minutes where the schedule diverges from actual behaviour.
    pub fn divergence(&self, actual: &DayTrace) -> usize {
        let mut n = 0;
        for (t, rec) in actual.minutes.iter().enumerate() {
            for (o, os) in rec.occupants.iter().enumerate() {
                if self.zones[o][t] != os.zone {
                    n += 1;
                }
            }
        }
        n
    }

    /// Checks the three stealth/feasibility invariants (paper Eq. 12,
    /// Eq. 16–20 aftermath):
    ///
    /// 1. every reported episode that *differs from actual behaviour* lies
    ///    within an ADM cluster,
    /// 2. every relocation is within the attacker's capability,
    /// 3. every reported activity is plausible for its reported zone.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(
        &self,
        adm: &HullAdm,
        cap: &AttackerCapability,
        actual: &DayTrace,
    ) -> Result<(), ScheduleError> {
        let n_occupants = self.zones.len();
        if actual.minutes.len() != MINUTES_PER_DAY
            || self.zones.iter().any(|r| r.len() != MINUTES_PER_DAY)
            || self.activities.iter().any(|r| r.len() != MINUTES_PER_DAY)
        {
            return Err(ScheduleError::ShapeMismatch);
        }
        // (2) capability.
        for t in 0..MINUTES_PER_DAY {
            for o in 0..n_occupants {
                let actual_zone = actual.minutes[t].occupants[o].zone;
                let reported = self.zones[o][t];
                if !cap.can_relocate(OccupantId(o), actual_zone, reported, t as Minute) {
                    return Err(ScheduleError::CapabilityViolation {
                        occupant: OccupantId(o),
                        minute: t as Minute,
                    });
                }
            }
        }
        // (3) plausibility.
        for o in 0..n_occupants {
            for t in 0..MINUTES_PER_DAY {
                let z = self.zones[o][t];
                let a = self.activities[o][t];
                if shatter_dataset::default_zone_for(a) != z {
                    return Err(ScheduleError::ImplausibleActivity {
                        occupant: OccupantId(o),
                        minute: t as Minute,
                    });
                }
            }
        }
        // (1) ADM stealth, with actual-mirroring episodes exempt (an alarm
        // raised on genuine behaviour is not attributable to the attack).
        let actual_sched = AttackSchedule::from_actual(actual);
        let actual_eps: std::collections::HashSet<(usize, usize, u32, u32)> = actual_sched
            .episodes()
            .into_iter()
            .map(|e| (e.occupant.index(), e.zone.index(), e.arrival, e.stay))
            .collect();
        for e in self.episodes() {
            let key = (e.occupant.index(), e.zone.index(), e.arrival, e.stay);
            if actual_eps.contains(&key) {
                continue;
            }
            if !adm.within(e.occupant, e.zone, e.arrival as f64, e.stay as f64) {
                return Err(ScheduleError::NotStealthy { episode: e });
            }
        }
        Ok(())
    }
}

/// One memoizable schedule fragment: a window's zone row (or `None` when
/// the window had no stealthy solution) together with the solver effort
/// it cost, so cached hits replay the effort statistics instead of
/// reporting zero (the conflict and SAT-counter columns of fig11 and the
/// strategy shootout must not depend on which exhibit solved a window
/// first).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WindowSolution {
    /// The window's committed zone row; `None` marks infeasible.
    pub zones: Option<Vec<ZoneId>>,
    /// Theory conflicts the original solve cost.
    pub theory_conflicts: u64,
    /// CDCL decisions the original solve cost.
    pub sat_decisions: u64,
    /// CDCL unit propagations the original solve cost.
    pub sat_propagations: u64,
    /// Learned clauses the CDCL core kept during the original solve.
    pub sat_learned: u64,
    /// CDCL restarts during the original solve.
    pub sat_restarts: u64,
    /// Learnt clauses garbage-collected by the clause-DB reduction
    /// during the original solve.
    pub sat_gc_clauses: u64,
    /// Live learnt clauses at the end of the window solve, before the
    /// pop (gauge).
    pub sat_learnt_live: u64,
    /// Simplex pivots the original solve ran through the certified f64
    /// fast path.
    pub float_pivots: u64,
    /// Simplex comparisons that landed inside the float error margin and
    /// fell back to exact rational arithmetic during the original solve.
    pub exact_fallbacks: u64,
    /// Literals implied through the SAT core's binary implication layer
    /// (adjacency lists over two-literal clauses) during the original
    /// solve.
    pub bin_props: u64,
    /// Saved-phase resets performed on restart during the original solve
    /// (diversified portfolio configurations only; the default
    /// configuration never resets).
    pub phase_resets: u64,
    /// 1 when this window was portfolio-raced and a non-default solver
    /// configuration finished first at the winning effort level.
    pub portfolio_wins: u64,
    /// Conflicts of the window's *canonical* pass: the single solve for
    /// normal windows, the canonical extraction solve for hard windows
    /// (zero when the extraction was skipped because the window was
    /// infeasible). Drives the next window's hardness classification, so
    /// it is defined to be independent of portfolio mode and thread
    /// count.
    pub canonical_conflicts: u64,
    /// Proven-optimal objective value in integer micro-dollars; `None`
    /// when the window was infeasible or degraded before the optimum was
    /// proven.
    pub objective: Option<i64>,
    /// The window stopped early — a resource budget ran out (the zones,
    /// when present, are the best verified so far rather than proven
    /// optimal) or the tableau degraded and the fallback row was used.
    pub degraded: bool,
    /// The window was re-solved on the forced-exact pipeline after the
    /// float fast path hit a rational overflow.
    pub retried: bool,
    /// A rational overflow poisoned the window's tableau. Transient
    /// marker consumed by the scheduler's exact-retry logic; a memoized
    /// fragment never carries it (retries happen before caching).
    pub overflow: bool,
}

/// Memoizes solved schedule fragments (SMT window solutions) across
/// scheduler invocations. Implemented by the evaluation engine's fixture
/// cache.
pub trait WindowMemo: Sync {
    /// Returns the fragment cached under `key`, or computes, stores and
    /// returns it. `compute` is invoked at most once.
    fn window(&self, key: &str, compute: &mut dyn FnMut() -> WindowSolution) -> WindowSolution;
}

/// Executes batches of independent solver jobs — full occupant window
/// chains and portfolio race attempts — possibly in parallel. Results
/// always come back in submission order and every job is a pure function
/// of its index, so scheduling through any executor (inline serial, the
/// engine's `WorkPool`) leaves schedules and statistics byte-identical;
/// only wall-clock time changes.
pub trait BatchExecutor: Sync {
    /// Runs the occupant-chain jobs `job(0), ..., job(n - 1)` and
    /// returns their results in submission order.
    fn run_chains(
        &self,
        n: usize,
        job: &(dyn Fn(usize) -> (Vec<ZoneId>, crate::SmtStats) + Sync),
    ) -> Vec<(Vec<ZoneId>, crate::SmtStats)>;

    /// Runs the portfolio race attempts `job(0), ..., job(n - 1)` and
    /// returns their results in submission order. All attempts run to
    /// their (deterministic) effort budget — "first answer wins" is
    /// decided by index among finishers, never by wall clock.
    fn run_attempts(
        &self,
        n: usize,
        job: &(dyn Fn(usize) -> WindowSolution + Sync),
    ) -> Vec<WindowSolution>;
}

/// The reference executor: runs every job inline, in submission order.
/// The parallel executors are checked byte-identical against it.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialExecutor;

impl BatchExecutor for SerialExecutor {
    fn run_chains(
        &self,
        n: usize,
        job: &(dyn Fn(usize) -> (Vec<ZoneId>, crate::SmtStats) + Sync),
    ) -> Vec<(Vec<ZoneId>, crate::SmtStats)> {
        (0..n).map(job).collect()
    }

    fn run_attempts(
        &self,
        n: usize,
        job: &(dyn Fn(usize) -> WindowSolution + Sync),
    ) -> Vec<WindowSolution> {
        (0..n).map(job).collect()
    }
}

/// Synthesizes a one-day attack schedule with the independent occupant
/// window chains submitted through `exec` — batched across the engine's
/// worker pool when one is behind the executor — and the per-occupant
/// results merged in occupant order. Each chain builds its own solver
/// instances, so the assembled schedule and the merged statistics are
/// byte-identical to the serial path regardless of executor parallelism.
#[allow(clippy::too_many_arguments)]
pub fn schedule_day_batched(
    scheduler: &(dyn Scheduler + Sync),
    table: &RewardTable,
    adm: &HullAdm,
    cap: &AttackerCapability,
    actual: &DayTrace,
    memo: &dyn WindowMemo,
    prefix: &str,
    exec: &dyn BatchExecutor,
) -> (AttackSchedule, crate::SmtStats) {
    let n_occupants = actual.minutes[0].occupants.len();
    let results = exec.run_chains(n_occupants, &|o| {
        scheduler.schedule_occupant_zones_batched(
            OccupantId(o),
            table,
            adm,
            cap,
            actual,
            memo,
            prefix,
            exec,
        )
    });
    let mut stats = crate::SmtStats::default();
    let mut zones = Vec::with_capacity(n_occupants);
    for (row, chain_stats) in results {
        stats.merge(&chain_stats);
        zones.push(row);
    }
    (AttackSchedule::from_zone_rows(zones, table), stats)
}

/// An attack-schedule generator (DP, greedy, or SMT-backed).
///
/// Implementors supply the per-occupant synthesis
/// ([`Scheduler::schedule_occupant_zones`]); the full-day
/// [`Scheduler::schedule`] is derived from it, and callers that can split
/// work across threads (the scenario engine's `par_map`) synthesize the
/// independent occupant rows in parallel and reassemble them with
/// [`AttackSchedule::from_zone_rows`].
pub trait Scheduler {
    /// Synthesizes the reported zone row for one occupant against the
    /// given actual behaviour, ADM and capability.
    fn schedule_occupant_zones(
        &self,
        o: OccupantId,
        table: &RewardTable,
        adm: &HullAdm,
        cap: &AttackerCapability,
        actual: &DayTrace,
    ) -> Vec<ZoneId>;

    /// Like [`Scheduler::schedule_occupant_zones`], with a
    /// cross-invocation [`WindowMemo`] for schedulers whose synthesis
    /// decomposes into cacheable fragments (the SMT window solver).
    /// `prefix` must identify every solver input not encoded in the
    /// fragment keys: the day trace, the reward table contents and the
    /// ADM. Schedulers without cacheable structure ignore the memo.
    #[allow(clippy::too_many_arguments)]
    fn schedule_occupant_zones_memo(
        &self,
        o: OccupantId,
        table: &RewardTable,
        adm: &HullAdm,
        cap: &AttackerCapability,
        actual: &DayTrace,
        memo: &dyn WindowMemo,
        prefix: &str,
    ) -> Vec<ZoneId> {
        let _ = (memo, prefix);
        self.schedule_occupant_zones(o, table, adm, cap, actual)
    }

    /// Like [`Scheduler::schedule_occupant_zones_memo`], additionally
    /// reporting solver-effort statistics. Schedulers without a solver
    /// core (DP, greedy, rules) report zeros — only the SMT scheduler
    /// overrides this, which is how the SAT-core counters reach the
    /// exhibit tables.
    #[allow(clippy::too_many_arguments)]
    fn schedule_occupant_zones_memo_stats(
        &self,
        o: OccupantId,
        table: &RewardTable,
        adm: &HullAdm,
        cap: &AttackerCapability,
        actual: &DayTrace,
        memo: &dyn WindowMemo,
        prefix: &str,
    ) -> (Vec<ZoneId>, crate::SmtStats) {
        (
            self.schedule_occupant_zones_memo(o, table, adm, cap, actual, memo, prefix),
            crate::SmtStats::default(),
        )
    }

    /// Like [`Scheduler::schedule_occupant_zones_memo_stats`], with a
    /// [`BatchExecutor`] for schedulers that can fan solver work out —
    /// the SMT scheduler races diversified configurations on hard
    /// windows through it. Results are defined to be byte-identical to
    /// the serial path; the default implementation simply ignores the
    /// executor.
    #[allow(clippy::too_many_arguments)]
    fn schedule_occupant_zones_batched(
        &self,
        o: OccupantId,
        table: &RewardTable,
        adm: &HullAdm,
        cap: &AttackerCapability,
        actual: &DayTrace,
        memo: &dyn WindowMemo,
        prefix: &str,
        exec: &dyn BatchExecutor,
    ) -> (Vec<ZoneId>, crate::SmtStats) {
        let _ = exec;
        self.schedule_occupant_zones_memo_stats(o, table, adm, cap, actual, memo, prefix)
    }

    /// Synthesizes a one-day attack schedule: every occupant's zone row
    /// plus the plausibility-maximizing activity backing each claim.
    fn schedule(
        &self,
        table: &RewardTable,
        adm: &HullAdm,
        cap: &AttackerCapability,
        actual: &DayTrace,
    ) -> AttackSchedule {
        let n_occupants = actual.minutes[0].occupants.len();
        let zones = (0..n_occupants)
            .map(|o| self.schedule_occupant_zones(OccupantId(o), table, adm, cap, actual))
            .collect();
        AttackSchedule::from_zone_rows(zones, table)
    }

    /// Display name for reports.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;
    use shatter_adm::AdmKind;
    use shatter_dataset::{synthesize, HouseSpec, SynthConfig};
    use shatter_hvac::EnergyModel;
    use shatter_smarthome::houses;

    #[test]
    fn identity_schedule_roundtrip() {
        let ds = synthesize(&SynthConfig::new(HouseSpec::aras_a(), 1, 8));
        let s = AttackSchedule::from_actual(&ds.days[0]);
        assert_eq!(s.n_occupants(), 2);
        assert_eq!(s.divergence(&ds.days[0]), 0);
        // Episodes tile the day.
        for o in 0..2 {
            let total: u32 = s
                .episodes()
                .iter()
                .filter(|e| e.occupant.index() == o)
                .map(|e| e.stay)
                .sum();
            assert_eq!(total, MINUTES_PER_DAY as u32);
        }
    }

    #[test]
    fn identity_schedule_validates_with_full_cap() {
        let ds = synthesize(&SynthConfig::new(HouseSpec::aras_a(), 10, 8));
        let adm = HullAdm::train(&ds, AdmKind::default_kmeans());
        let home = houses::aras_house_a();
        let cap = AttackerCapability::full(&home);
        let s = AttackSchedule::from_actual(&ds.days[0]);
        s.validate(&adm, &cap, &ds.days[0]).unwrap();
    }

    #[test]
    fn implausible_activity_detected() {
        let ds = synthesize(&SynthConfig::new(HouseSpec::aras_a(), 3, 8));
        let adm = HullAdm::train(&ds, AdmKind::default_kmeans());
        let home = houses::aras_house_a();
        let cap = AttackerCapability::full(&home);
        let mut s = AttackSchedule::from_actual(&ds.days[0]);
        // Claim cooking in the bathroom.
        s.zones[0][700] = ZoneId(4);
        s.activities[0][700] = Activity::PreparingLunch;
        let err = s.validate(&adm, &cap, &ds.days[0]).unwrap_err();
        assert!(matches!(
            err,
            ScheduleError::ImplausibleActivity { .. } | ScheduleError::NotStealthy { .. }
        ));
    }

    #[test]
    fn reward_matches_table() {
        let ds = synthesize(&SynthConfig::new(HouseSpec::aras_a(), 1, 8));
        let model = EnergyModel::standard(houses::aras_house_a());
        let table = RewardTable::build(&model);
        let s = AttackSchedule::from_actual(&ds.days[0]);
        let direct: f64 = (0..MINUTES_PER_DAY)
            .map(|t| {
                (0..2)
                    .map(|o| table.rate(OccupantId(o), s.zones[o][t], t as Minute))
                    .sum::<f64>()
            })
            .sum();
        assert!((s.reward(&table) - direct).abs() < 1e-9);
    }
}
