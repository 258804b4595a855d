//! Blob-store serialization of memoized scheduler intermediates:
//! window solutions and attack schedules (the reward table's encoding
//! lives in `reward.rs` with its private fields).
//!
//! A [`WindowSolution`] blob carries the full effort-counter set, so a
//! warm run replays conflict/pivot/propagation columns byte-identically
//! instead of reporting zeros — the same contract the in-RAM memo
//! already provides. Field order is part of the format; any change
//! must bump the tag.

use shatter_smarthome::{Activity, ZoneId};
use shatter_store::wire::{Reader, Writer};
use shatter_store::Blob;

use crate::schedule::{AttackSchedule, WindowSolution};

impl Blob for WindowSolution {
    const TAG: &'static str = "window-solution/2";

    fn encode(&self, w: &mut Writer) {
        match &self.zones {
            Some(zones) => {
                w.bool(true);
                w.usize(zones.len());
                for z in zones {
                    w.u32(z.0 as u32);
                }
            }
            None => w.bool(false),
        }
        for v in [
            self.theory_conflicts,
            self.sat_decisions,
            self.sat_propagations,
            self.sat_learned,
            self.sat_restarts,
            self.sat_gc_clauses,
            self.sat_learnt_live,
            self.float_pivots,
            self.exact_fallbacks,
            self.bin_props,
            self.phase_resets,
            self.portfolio_wins,
            self.canonical_conflicts,
        ] {
            w.u64(v);
        }
        w.opt_i64(self.objective);
        w.bool(self.degraded);
        w.bool(self.retried);
        w.bool(self.overflow);
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let zones = if r.bool()? {
            let n = r.seq_len()?;
            let mut zs = Vec::with_capacity(n);
            for _ in 0..n {
                zs.push(ZoneId(r.u32()? as usize));
            }
            Some(zs)
        } else {
            None
        };
        Some(WindowSolution {
            zones,
            theory_conflicts: r.u64()?,
            sat_decisions: r.u64()?,
            sat_propagations: r.u64()?,
            sat_learned: r.u64()?,
            sat_restarts: r.u64()?,
            sat_gc_clauses: r.u64()?,
            sat_learnt_live: r.u64()?,
            float_pivots: r.u64()?,
            exact_fallbacks: r.u64()?,
            bin_props: r.u64()?,
            phase_resets: r.u64()?,
            portfolio_wins: r.u64()?,
            canonical_conflicts: r.u64()?,
            objective: r.opt_i64()?,
            degraded: r.bool()?,
            retried: r.bool()?,
            overflow: r.bool()?,
        })
    }
}

impl Blob for AttackSchedule {
    const TAG: &'static str = "attack-schedule/1";

    fn encode(&self, w: &mut Writer) {
        w.usize(self.zones.len());
        for row in &self.zones {
            w.usize(row.len());
            for z in row {
                w.u32(z.0 as u32);
            }
        }
        w.usize(self.activities.len());
        for row in &self.activities {
            w.usize(row.len());
            for a in row {
                w.u8(a.code());
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let n = r.seq_len()?;
        let mut zones = Vec::with_capacity(n);
        for _ in 0..n {
            let m = r.seq_len()?;
            let mut row = Vec::with_capacity(m);
            for _ in 0..m {
                row.push(ZoneId(r.u32()? as usize));
            }
            zones.push(row);
        }
        let n = r.seq_len()?;
        let mut activities = Vec::with_capacity(n);
        for _ in 0..n {
            let m = r.seq_len()?;
            let mut row = Vec::with_capacity(m);
            for _ in 0..m {
                row.push(Activity::from_code(r.u8()?)?);
            }
            activities.push(row);
        }
        Some(AttackSchedule { zones, activities })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The effort-rich solution the round-trip and golden tests share.
    fn sample_solution() -> WindowSolution {
        WindowSolution {
            zones: Some(vec![ZoneId(3), ZoneId(0), ZoneId(7)]),
            theory_conflicts: 41,
            sat_decisions: 1000,
            sat_propagations: 123_456,
            sat_learned: 17,
            sat_restarts: 2,
            sat_gc_clauses: 5,
            sat_learnt_live: 9,
            float_pivots: 88,
            exact_fallbacks: 3,
            bin_props: 404,
            phase_resets: 1,
            portfolio_wins: 1,
            canonical_conflicts: 40,
            objective: Some(-12_345),
            degraded: false,
            retried: true,
            overflow: false,
        }
    }

    #[test]
    fn window_solution_roundtrip() {
        let sol = sample_solution();
        assert_eq!(WindowSolution::from_blob(&sol.to_blob()), Some(sol));
        let infeasible = WindowSolution {
            zones: None,
            objective: None,
            ..WindowSolution::default()
        };
        assert_eq!(
            WindowSolution::from_blob(&infeasible.to_blob()),
            Some(infeasible)
        );
    }

    #[test]
    fn window_solution_encoding_is_pinned() {
        // A field change that keeps the tag would make old store blobs
        // misdecode; this golden pin fails first. Bump `TAG` and re-pin.
        let bytes = sample_solution().to_blob();
        assert_eq!(bytes.len(), 162);
        assert_eq!(
            shatter_store::fnv::fnv1a_bytes(&bytes),
            0x9291_e9e8_ed15_da97
        );
    }

    #[test]
    fn window_solution_v1_layout_is_rejected() {
        // The `window-solution/1` layout had one more u64 (learnts kept
        // across window pops) between `sat_gc_clauses` and
        // `sat_learnt_live`; stores written with it must recompute, not
        // misread.
        let mut w = Writer::new();
        w.str("window-solution/1");
        w.bool(true);
        w.usize(3);
        for z in [3, 0, 7] {
            w.u32(z);
        }
        for v in [41, 1000, 123_456, 17, 2, 5, 0, 9, 88, 3, 404, 1, 1, 40] {
            w.u64(v);
        }
        w.opt_i64(Some(-12_345));
        w.bool(false);
        w.bool(true);
        w.bool(false);
        assert_eq!(WindowSolution::from_blob(&w.into_bytes()), None);
    }

    #[test]
    fn attack_schedule_roundtrip() {
        let sched = AttackSchedule {
            zones: vec![vec![ZoneId(1); 4], vec![ZoneId(2); 4]],
            activities: vec![vec![Activity::ALL[0]; 4], vec![Activity::ALL[26]; 4]],
        };
        assert_eq!(AttackSchedule::from_blob(&sched.to_blob()), Some(sched));
    }

    #[test]
    fn truncation_and_tag_confusion_are_none() {
        let sol = WindowSolution::default();
        let bytes = sol.to_blob();
        assert_eq!(WindowSolution::from_blob(&bytes[..bytes.len() - 1]), None);
        assert_eq!(AttackSchedule::from_blob(&bytes), None);
    }
}
