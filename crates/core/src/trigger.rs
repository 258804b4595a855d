//! Real-time appliance-triggering decisions (paper Algorithm 1 and
//! Eq. 16).
//!
//! The pre-computed attack schedule evades the ADM; evading the *occupants*
//! requires real-time decisions, because real behaviour diverges from the
//! schedule. An appliance may be adversarially activated (by inaudible
//! voice command) only when:
//!
//! 1. the attacker can reach it (`D^A`, `T^A`),
//! 2. the appliance's zone is *actually* unoccupied — or everyone actually
//!    there is unaware (deep sleep / shower) — so nobody notices (Eq. 16),
//! 3. the attack schedule *reports* an occupant in that zone performing an
//!    activity linked to the appliance, so the controller sees a coherent
//!    activity–appliance picture,
//! 4. the reported occupant is still within the ADM's minimum expected
//!    stay (`minStay`) for their reported arrival (Algorithm 1's `thresh`),
//!    after which a real interaction pattern would be expected.

use std::sync::Arc;

use shatter_adm::{HullAdm, StayProfile};
use shatter_dataset::{DayTrace, MinuteRecord};
use shatter_smarthome::{ApplianceId, Home, OccupantId, ZoneId, MINUTES_PER_DAY};

use crate::{AttackSchedule, AttackerCapability};

/// Per-minute adversarial appliance activations for one day.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TriggerPlan {
    /// `on[t]` = appliances adversarially activated during minute `t`.
    pub on: Vec<Vec<ApplianceId>>,
}

impl TriggerPlan {
    /// Total appliance-minutes triggered.
    pub fn total_minutes(&self) -> usize {
        self.on.iter().map(Vec::len).sum()
    }

    /// Whether anything is triggered at all.
    pub fn is_empty(&self) -> bool {
        self.total_minutes() == 0
    }
}

/// Eq. 16: the zone is unoccupied at this minute, or everyone actually in
/// it is unaware (deep sleep / shower), so a triggered appliance goes
/// unnoticed.
pub(crate) fn zone_is_safe(rec: &MinuteRecord, zone: ZoneId) -> bool {
    rec.occupants
        .iter()
        .all(|os| os.zone != zone || os.activity.is_unaware())
}

/// Derives the day's appliance-triggering plan (Algorithm 1 + Eq. 16).
///
/// One pass over the day: each occupant's reported arrival is carried
/// along and reset whenever the reported zone changes, and `minStay`
/// comes from the occupant's [`StayProfile`] for the reported zone,
/// fetched once per call — O(minutes × occupants) plus the appliance
/// checks of the minutes that pass Algorithm 1's `trig`.
pub fn plan_triggers(
    home: &Home,
    adm: &HullAdm,
    cap: &AttackerCapability,
    actual: &DayTrace,
    schedule: &AttackSchedule,
) -> TriggerPlan {
    let n_occupants = schedule.n_occupants();
    let n_zones = home.zones().len();
    let mut on: Vec<Vec<ApplianceId>> = vec![Vec::new(); MINUTES_PER_DAY];
    let mut arrival = vec![0usize; n_occupants];
    let mut profiles: Vec<Option<Arc<StayProfile>>> = vec![None; n_occupants * n_zones];

    #[allow(clippy::needless_range_loop)]
    for t in 0..MINUTES_PER_DAY {
        let rec = &actual.minutes[t];
        for (o, row) in schedule.zones.iter().enumerate() {
            let zone = row[t];
            if t > 0 && row[t - 1] != zone {
                arrival[o] = t;
            }
            // Algorithm 1's `trig`: the occupant is not actually in the
            // reported zone, and the reported stay is within `minStay`.
            if rec.occupants[o].zone == zone {
                continue;
            }
            let profile = profiles[o * n_zones + zone.index()]
                .get_or_insert_with(|| adm.stay_profile(OccupantId(o), zone));
            let within_thresh = profile
                .min_stay(arrival[o])
                .is_some_and(|thresh| (t - arrival[o]) as f64 <= thresh);
            if !within_thresh || !zone_is_safe(rec, zone) {
                continue;
            }
            let activity = schedule.activities[o][t];
            for a in home.appliances_in(zone) {
                if !cap.can_trigger(a.id, t as u32) {
                    continue;
                }
                if !a.linked_to(activity) {
                    continue;
                }
                // Already genuinely on? Then triggering adds nothing.
                if rec.appliances[a.id.index()] {
                    continue;
                }
                if !on[t].contains(&a.id) {
                    on[t].push(a.id);
                }
            }
        }
    }
    TriggerPlan { on }
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use super::*;
    use crate::{RewardTable, Scheduler, WindowDpScheduler};
    use proptest::prelude::*;
    use shatter_adm::AdmKind;
    use shatter_dataset::{synthesize, HouseSpec, SynthConfig};
    use shatter_hvac::EnergyModel;
    use shatter_smarthome::houses;

    /// The walk-back `trig` predicate with direct hull queries: the
    /// reported arrival is found by scanning back from `t`, and
    /// `minStay` comes from [`HullAdm::min_stay`].
    fn trig_window(
        adm: &HullAdm,
        schedule: &AttackSchedule,
        actual: &DayTrace,
        o: OccupantId,
        t: usize,
    ) -> bool {
        let zone = schedule.zones[o.index()][t];
        let mut arrival = t;
        while arrival > 0 && schedule.zones[o.index()][arrival - 1] == zone {
            arrival -= 1;
        }
        let Some(thresh) = adm.min_stay(o, zone, arrival as f64) else {
            return false;
        };
        let within_thresh = (t - arrival) as f64 <= thresh;
        let actually_there = actual.minutes[t].occupants[o.index()].zone == zone;
        within_thresh && !actually_there
    }

    /// Reference planner: Algorithm 1 evaluated per (minute, occupant)
    /// with [`trig_window`], O(stay²) per day. [`plan_triggers`] must
    /// match it exactly, including the order of each minute's list.
    fn plan_triggers_reference(
        home: &Home,
        adm: &HullAdm,
        cap: &AttackerCapability,
        actual: &DayTrace,
        schedule: &AttackSchedule,
    ) -> TriggerPlan {
        let mut on: Vec<Vec<ApplianceId>> = vec![Vec::new(); MINUTES_PER_DAY];
        for (t, apps) in on.iter_mut().enumerate() {
            let rec = &actual.minutes[t];
            for o in (0..schedule.n_occupants()).map(OccupantId) {
                if !trig_window(adm, schedule, actual, o, t) {
                    continue;
                }
                let zone = schedule.zones[o.index()][t];
                let activity = schedule.activities[o.index()][t];
                if !zone_is_safe(rec, zone) {
                    continue;
                }
                for a in home.appliances_in(zone) {
                    if cap.can_trigger(a.id, t as u32)
                        && a.linked_to(activity)
                        && !rec.appliances[a.id.index()]
                        && !apps.contains(&a.id)
                    {
                        apps.push(a.id);
                    }
                }
            }
        }
        TriggerPlan { on }
    }

    /// One home with a trained ADM, shared by the oracle tests.
    struct Fixture {
        home: Home,
        ds: shatter_dataset::Dataset,
        adm: HullAdm,
        table: RewardTable,
    }

    /// ARAS A, ARAS B and the 16-zone, 4-occupant scaled home: ADMs
    /// trained on days 0..10, days 10 and 11 held out.
    fn fixtures() -> &'static [Fixture] {
        static FIXTURES: OnceLock<Vec<Fixture>> = OnceLock::new();
        FIXTURES.get_or_init(|| {
            [
                HouseSpec::aras_a(),
                HouseSpec::aras_b(),
                HouseSpec::scaled(16, 4),
            ]
            .into_iter()
            .map(|spec| {
                let home = spec.home.build();
                let ds = synthesize(&SynthConfig::new(spec, 12, 41));
                let adm = HullAdm::train(&ds.prefix_days(10), AdmKind::default_kmeans());
                let table = RewardTable::build(&EnergyModel::standard(home.clone()));
                Fixture {
                    home,
                    ds,
                    adm,
                    table,
                }
            })
            .collect()
        })
    }

    /// Full access, then restricted zones, timeslots and appliances.
    fn capabilities(home: &Home) -> [AttackerCapability; 4] {
        let full = AttackerCapability::full(home);
        let even = home
            .appliances()
            .iter()
            .map(|a| a.id)
            .filter(|d| d.index() % 2 == 0);
        [
            full.clone(),
            full.clone().with_zone_access([ZoneId(1), ZoneId(2)]),
            full.clone().with_timeslots(420, 1140),
            full.with_appliance_access(even),
        ]
    }

    /// Reported zone rows for every occupant: the occupant's row on
    /// another day `base` (ADM-plausible stays that disagree with the
    /// attacked day), delayed by `shift × o` minutes, then overwritten
    /// by raw `(zone, length, start)` stays in zones that row visits. A
    /// quarter of those last one minute, and a tenth run 400..1300
    /// minutes, longer than any trained hull.
    fn zone_rows(
        base: &DayTrace,
        shift: usize,
        stays: &[(usize, usize, usize)],
    ) -> Vec<Vec<ZoneId>> {
        (0..base.minutes[0].occupants.len())
            .map(|o| {
                let delay = shift * o;
                let mut row: Vec<ZoneId> = (0..MINUTES_PER_DAY)
                    .map(|t| base.minutes[t.saturating_sub(delay)].occupants[o].zone)
                    .collect();
                let mut visited = row.clone();
                visited.sort();
                visited.dedup();
                for &(zone, len, start) in stays {
                    let len = match len % 100 {
                        0..=24 => 1,
                        r @ 25..=59 => 2 + r,
                        r @ 60..=89 => 30 + 5 * r,
                        r => 400 + 100 * (r - 90),
                    };
                    let start = (start + 97 * o) % MINUTES_PER_DAY;
                    let end = (start + len).min(MINUTES_PER_DAY);
                    row[start..end].fill(visited[zone % visited.len()]);
                }
                row
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// `plan_triggers` (running arrivals, cached stay profiles)
        /// equals the walk-back reference on randomized reported stays,
        /// in every fixture home under every capability.
        #[test]
        fn plan_matches_reference_on_random_rows(
            (fixture, cap) in (0usize..3, 0usize..4),
            (day, base) in (10usize..12, 0usize..12),
            shift in 0usize..30,
            stays in prop::collection::vec((0usize..64, 0usize..1000, 0usize..1440), 0..12),
        ) {
            let fx = &fixtures()[fixture];
            let cap = &capabilities(&fx.home)[cap];
            let rows = zone_rows(&fx.ds.days[base], shift, &stays);
            let sched = AttackSchedule::from_zone_rows(rows, &fx.table);
            let day = &fx.ds.days[day];
            prop_assert_eq!(
                plan_triggers(&fx.home, &fx.adm, cap, day, &sched),
                plan_triggers_reference(&fx.home, &fx.adm, cap, day, &sched)
            );
        }
    }

    /// The same equality on the window DP's own schedules: every fixture
    /// home, both held-out days, every capability.
    #[test]
    fn plan_matches_reference_on_dp_schedules() {
        let mut triggered = 0;
        for fx in fixtures() {
            for cap in &capabilities(&fx.home) {
                for day in &fx.ds.days[10..12] {
                    let sched = WindowDpScheduler::default().schedule(&fx.table, &fx.adm, cap, day);
                    let plan = plan_triggers(&fx.home, &fx.adm, cap, day, &sched);
                    assert_eq!(
                        plan,
                        plan_triggers_reference(&fx.home, &fx.adm, cap, day, &sched)
                    );
                    triggered += plan.total_minutes();
                }
            }
        }
        assert!(triggered > 0, "no schedule triggered anything");
    }

    fn setup() -> (
        Home,
        shatter_dataset::Dataset,
        HullAdm,
        RewardTable,
        AttackerCapability,
    ) {
        let home = houses::aras_house_a();
        let ds = synthesize(&SynthConfig::new(HouseSpec::aras_a(), 12, 41));
        let adm = HullAdm::train(&ds.prefix_days(10), AdmKind::default_kmeans());
        let model = EnergyModel::standard(home.clone());
        let table = RewardTable::build(&model);
        let cap = AttackerCapability::full(&home);
        (home, ds, adm, table, cap)
    }

    #[test]
    fn triggers_never_fire_in_actually_occupied_aware_zones() {
        let (home, ds, adm, table, cap) = setup();
        let day = &ds.days[10];
        let sched = WindowDpScheduler::default().schedule(&table, &adm, &cap, day);
        let plan = plan_triggers(&home, &adm, &cap, day, &sched);
        for (t, apps) in plan.on.iter().enumerate() {
            for aid in apps {
                let zone = home.appliance(*aid).zone;
                assert!(
                    zone_is_safe(&day.minutes[t], zone),
                    "minute {t}: {} triggered in occupied zone",
                    home.appliance(*aid).name
                );
            }
        }
    }

    #[test]
    fn triggers_respect_appliance_capability() {
        let (home, ds, adm, table, cap) = setup();
        let day = &ds.days[10];
        let sched = WindowDpScheduler::default().schedule(&table, &adm, &cap, day);
        let restricted = cap
            .clone()
            .with_appliance_access([ApplianceId(0), ApplianceId(1)]);
        let plan = plan_triggers(&home, &adm, &restricted, day, &sched);
        for apps in &plan.on {
            for aid in apps {
                assert!(aid.index() < 2);
            }
        }
    }

    #[test]
    fn triggers_match_reported_activity() {
        let (home, ds, adm, table, cap) = setup();
        let day = &ds.days[11];
        let sched = WindowDpScheduler::default().schedule(&table, &adm, &cap, day);
        let plan = plan_triggers(&home, &adm, &cap, day, &sched);
        for (t, apps) in plan.on.iter().enumerate() {
            for aid in apps {
                let a = home.appliance(*aid);
                let matched = (0..sched.n_occupants())
                    .any(|o| sched.zones[o][t] == a.zone && a.linked_to(sched.activities[o][t]));
                assert!(matched, "minute {t}: {} has no reporting occupant", a.name);
            }
        }
    }

    #[test]
    fn schedule_with_divergence_usually_triggers_something() {
        let (home, ds, adm, table, cap) = setup();
        let mut total = 0usize;
        for day in &ds.days[10..12] {
            let sched = WindowDpScheduler::default().schedule(&table, &adm, &cap, day);
            if sched.divergence(day) > 100 {
                total += plan_triggers(&home, &adm, &cap, day, &sched).total_minutes();
            }
        }
        assert!(total > 0, "no triggering despite diverging schedules");
    }

    #[test]
    fn no_trigger_when_appliance_already_on() {
        let (home, ds, adm, table, cap) = setup();
        let day = &ds.days[10];
        let sched = WindowDpScheduler::default().schedule(&table, &adm, &cap, day);
        let plan = plan_triggers(&home, &adm, &cap, day, &sched);
        for (t, apps) in plan.on.iter().enumerate() {
            for aid in apps {
                assert!(!day.minutes[t].appliances[aid.index()]);
            }
        }
    }
}
