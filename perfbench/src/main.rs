//! Benchmark binary; `run.py` builds and runs it.
//!
//! ```text
//! shatter-perfbench --workload NAME --seed N --seconds S --trace 0|1 --scratch DIR [--spans FILE] [--setup-only]
//! shatter-perfbench --pin-suite FILE
//! ```
//!
//! Prints a detail line and then the result line on stdout. Exits 2 on
//! a usage error or a stray program environment variable, 1 when the
//! workload cannot be set up. With `--setup-only` it sets the workload
//! up and prints only the seconds from process start to the end of the
//! set-up; the untraced run starts itself that way for its `setup_s`
//! samples.

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use shatter_perfbench::{run_traced, run_untraced, setup_seconds, suite, Scale, PROGRAM_ENV};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: PathBuf,
    spans: Option<PathBuf>,
    setup_only: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scratch = None;
    let mut spans = None;
    let mut setup_only = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: expected 0 or 1")),
                })
            }
            "--scratch" => scratch = Some(PathBuf::from(value()?)),
            "--spans" => spans = Some(PathBuf::from(value()?)),
            "--setup-only" => setup_only = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scratch: scratch.ok_or("--scratch is required")?,
        spans,
        setup_only,
    })
}

/// Runs this binary again with `argv` and `--setup-only`, and returns the
/// set-up seconds it printed. Waits for the child to end.
fn fresh_setup(argv: &[String]) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let out = Command::new(exe)
        .args(argv)
        .arg("--setup-only")
        .output()
        .map_err(|e| format!("starting a set-up process: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "set-up process failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.trim()
        .parse()
        .map_err(|e| format!("set-up process printed {text:?}: {e}"))
}

/// Writes the pinned suite digests for every pinned base seed.
fn pin_suite(out: &str) -> Result<(), String> {
    let scale = Scale::full();
    let mut text = String::new();
    for base_seed in 0..suite::PINNED_SEEDS {
        let s = suite::Suite::setup(base_seed, scale.days, scale.span)?;
        for (id, digest) in s.digests() {
            text.push_str(&format!("{base_seed}\t{id}\t{digest:016x}\n"));
        }
        eprintln!("pinned base seed {base_seed}");
    }
    std::fs::write(out, text).map_err(|e| format!("writing {out}: {e}"))
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let stray: Vec<&str> = PROGRAM_ENV
        .iter()
        .copied()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if !stray.is_empty() {
        eprintln!("perfbench: refusing to run with {stray:?} set; they change what is measured");
        return ExitCode::from(2);
    }
    if argv.len() == 2 && argv[0] == "--pin-suite" {
        return match pin_suite(&argv[1]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let scale = Scale::full();
    let root = args
        .scratch
        .join(format!("{}-{}", args.workload, std::process::id()));
    if args.setup_only {
        let result = setup_seconds(&args.workload, args.seed, &scale, root.clone(), started);
        std::fs::remove_dir_all(&root).ok();
        return match result {
            Ok(seconds) => {
                println!("{seconds}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let result = if args.trace {
        run_traced(
            &args.workload,
            args.seed,
            args.seconds,
            &scale,
            root.clone(),
            args.spans,
        )
    } else {
        run_untraced(
            &args.workload,
            args.seed,
            args.seconds,
            &scale,
            root.clone(),
            started,
            &mut || fresh_setup(&argv),
        )
    };
    std::fs::remove_dir_all(&root).ok();
    match result {
        Ok(report) => {
            for p in report.problems.iter().chain(&report.nondeterministic) {
                eprintln!("perfbench: {p}");
            }
            println!("{}", report.detail_json());
            println!("{}", report.result_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
