//! Criterion microbench of the per-day attack kernels — the DP schedule
//! synthesis behind every month-scale exhibit (tab5/tab6/tab7/fig10/
//! ablation) and the real-time trigger planner run on every attacked day.
//!
//! `full_day` measures `WindowDpScheduler::schedule` end to end (both
//! occupants, stay profiles warm after the first iteration, exactly like
//! a suite run); `single_occupant` isolates one DP sweep; `cold_profiles`
//! retrains nothing but clones the ADM each iteration so the per-zone
//! [`StayProfile`] build cost is included — the difference between the
//! two quantifies what the lookup tables save. `scaled16_full_day` runs
//! the same schedule on the 16-zone, 4-occupant scaled home (the largest
//! fleet shape), where the per-zone loops dominate; `trigger_plan` runs
//! `plan_triggers` on the `full_day` schedule.
//!
//! [`StayProfile`]: shatter_adm::StayProfile

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use shatter_adm::AdmKind;
use shatter_bench::common::HouseFixture;
use shatter_core::{
    trigger::plan_triggers, AttackerCapability, RewardTable, Scheduler, WindowDpScheduler,
};
use shatter_dataset::HouseSpec;
use shatter_smarthome::OccupantId;

fn bench_dp_kernel(c: &mut Criterion) {
    let fx = HouseFixture::new(&HouseSpec::aras_a(), 12);
    let adm = fx.adm(AdmKind::default_kmeans(), 10);
    let table = RewardTable::build(&fx.model);
    let cap = AttackerCapability::full(&fx.home);
    let day = &fx.month.days[10];
    let sched = WindowDpScheduler::default();
    let schedule = sched.schedule(&table, &adm, &cap, day);

    let scaled = HouseFixture::new(&HouseSpec::scaled(16, 4), 12);
    let scaled_adm = scaled.adm(AdmKind::default_kmeans(), 10);
    let scaled_table = RewardTable::build(&scaled.model);
    let scaled_cap = AttackerCapability::full(&scaled.home);
    let scaled_day = &scaled.month.days[10];

    let mut group = c.benchmark_group("dp_kernel");
    group.sample_size(20);
    group.bench_function("full_day", |b| {
        b.iter(|| black_box(sched.schedule(&table, &adm, &cap, day)))
    });
    group.bench_function("single_occupant", |b| {
        b.iter(|| black_box(sched.schedule_occupant_zones(OccupantId(0), &table, &adm, &cap, day)))
    });
    group.bench_function("cold_profiles", |b| {
        b.iter(|| {
            let cold = adm.clone();
            black_box(sched.schedule_occupant_zones(OccupantId(0), &table, &cold, &cap, day))
        })
    });
    group.bench_function("scaled16_full_day", |b| {
        b.iter(|| black_box(sched.schedule(&scaled_table, &scaled_adm, &scaled_cap, scaled_day)))
    });
    group.bench_function("trigger_plan", |b| {
        b.iter(|| black_box(plan_triggers(&fx.home, &adm, &cap, day, &schedule)))
    });
    group.finish();
}

criterion_group!(benches, bench_dp_kernel);
criterion_main!(benches);
