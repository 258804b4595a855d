//! Shared fixture/table types, now provided by `shatter-engine` and
//! re-exported here for continuity, plus small labeling helpers and the
//! engine↔core memo adapter.

pub use shatter_engine::{write_csv, FixtureCache, HouseFixture, Table};

use shatter_core::{WindowMemo, WindowSolution};
use shatter_dataset::HouseSpec;

/// Dataset label in the paper's HAO1/HBO2 convention (generalized to any
/// spec label: `"S6O3"` for occupant 3 of the 6-zone scaled home).
pub fn dataset_label(spec: &HouseSpec, occupant: usize) -> String {
    format!("{}O{}", spec.label, occupant + 1)
}

/// Adapter exposing the engine's [`FixtureCache::memo_blob`] to the
/// core schedulers' [`WindowMemo`] hook, so SMT window solutions are
/// shared across exhibits (the span sweep of fig11 re-solves the
/// windows the strategy shootout already committed) and, when the cache
/// has a disk tier, across runs.
pub struct EngineWindowMemo<'a>(pub &'a FixtureCache);

impl WindowMemo for EngineWindowMemo<'_> {
    fn window(&self, key: &str, compute: &mut dyn FnMut() -> WindowSolution) -> WindowSolution {
        (*self.0.memo_blob(key, compute)).clone()
    }
}
