//! Every workload end to end at toy scale, untraced and traced, printing
//! exactly the metrics `BENCHMARK.json` names, with their units.
//!
//! The suite is slow without optimizations: run with
//! `cargo test --release`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use shatter_perfbench::{run_traced, run_untraced, setup_seconds, Scale, WORKLOADS};

/// `name -> unit` of one metric list of `BENCHMARK.json` (`end_to_end`
/// or `per_layer`), read with a scanner sufficient for that file.
fn benchmark_metrics(section: &str) -> BTreeMap<String, String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("reading BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("metric list closes")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("metric field") + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("closing quote");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn printed(metrics: &[(String, f64, &'static str)]) -> BTreeMap<String, String> {
    metrics
        .iter()
        .map(|(n, _, u)| (n.clone(), u.to_string()))
        .collect()
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("perfbench-toy-{}-{name}", std::process::id()))
}

#[test]
fn every_workload_runs_and_prints_exactly_the_named_metrics() {
    let e2e = benchmark_metrics("end_to_end");
    let layers = benchmark_metrics("per_layer");
    assert!(e2e.contains_key("setup_s") && layers.len() > e2e.len());
    for w in WORKLOADS {
        let root = scratch(w);
        let mut fresh_setup =
            || setup_seconds(w, 5, &Scale::toy(), root.join("setup"), Instant::now());
        let r = run_untraced(
            w,
            5,
            1e-3,
            &Scale::toy(),
            root.clone(),
            Instant::now(),
            &mut fresh_setup,
        )
        .unwrap_or_else(|e| panic!("{w}: {e}"));
        assert!(r.attempted >= 1, "{w}: no units");
        assert_eq!(printed(&r.metrics), e2e, "{w}: end-to-end metrics");
        for (name, value, _) in &r.metrics {
            assert!(*value > 0.0, "{w}: {name} = {value}");
        }
        let r = run_traced(w, 5, 1e-3, &Scale::toy(), root.clone(), None)
            .unwrap_or_else(|e| panic!("{w}: {e}"));
        std::fs::remove_dir_all(&root).ok();
        assert_eq!(printed(&r.metrics), layers, "{w}: per-layer metrics");
        assert!(
            r.nondeterministic.is_empty(),
            "{w}: {:?}",
            r.nondeterministic
        );
    }
}

#[test]
fn the_fleet_passes_its_table_checks() {
    let root = scratch("check-fleet");
    let r = run_untraced(
        "fleet_cold",
        9,
        1e-3,
        &Scale::toy(),
        root.clone(),
        Instant::now(),
        &mut || Ok(1e-6),
    )
    .unwrap_or_else(|e| panic!("fleet_cold: {e}"));
    std::fs::remove_dir_all(&root).ok();
    assert_eq!(r.failed, 0, "{:?}", r.problems);
    assert_eq!(r.attempted, Scale::toy().fleet_homes as u64);
}
