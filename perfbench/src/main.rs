//! `perfbench` — hetflow's repeatable host-time benchmark.
//!
//! ```text
//! perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One workload per process, on one thread. The untraced run (`--trace 0`)
//! repeats the workload for `--seconds` and prints the end-to-end metrics;
//! the traced run (`--trace 1`) prints the per-layer metrics. Either way
//! the last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`, and the exit code is nonzero when
//! a correctness check fails. `--workload all` runs every workload in its
//! own child process, on the given seed and then on a held-out seed.
//! See `README.md` in this directory for what each metric means.

mod alloc;
mod calib;
mod layers;
mod pins;
mod report;
mod workloads;

use report::{median, Metrics};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Outputs, Scale, Tracing};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// End-to-end metrics: `(name, unit)`, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Set-ups timed back to back (and dropped unrun) after the repetitions;
/// `setup_s` is their median. Set-up takes well under a millisecond for
/// some workloads, so it is sampled in one steady state, not interleaved
/// with runs that leave the caches cold.
const SETUP_SAMPLES: usize = 51;

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: workloads::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let result = if args.trace {
        layers::traced(&args.workload, args.seed, args.seconds, Scale::FULL)
    } else {
        untraced(&args.workload, args.seed, args.seconds, Scale::FULL)
    };
    match result {
        Ok(mut r) => {
            if let Some(bad) = r.metrics.0.iter().find(|m| !report::valid_name(&m.name)) {
                r.problems
                    .push(format!("illegal metric name {:?}", bad.name));
            }
            for m in &r.metrics.0 {
                println!(
                    "{:<18} {:<44} {:>16.6} {}",
                    args.workload, m.name, m.value, m.unit
                );
            }
            let failed_frac = r.failed as f64 / r.attempted.max(1) as f64;
            println!(
                "{:<18} {:<44} {:>16.6} frac",
                args.workload, "failed_frac", failed_frac
            );
            for v in &r.problems {
                println!("CHECK FAILED: {v}");
            }
            println!(
                "{}",
                report::result_line(r.problems.is_empty(), r.attempted, r.failed, &r.metrics)
            );
            if r.problems.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What one benchmark invocation reports.
pub struct RunResult {
    /// Operations attempted over every repetition.
    pub attempted: u64,
    /// Operations that errored, panicked, or belong to a repetition that
    /// failed a correctness check.
    pub failed: u64,
    /// Correctness problems (empty = correct).
    pub problems: Vec<String>,
    /// The metrics to print.
    pub metrics: Metrics,
}

/// Tallies repetitions and checks each against the pins and against the
/// first repetition of the same workload, seed and scale (same inputs,
/// same outputs).
#[derive(Default)]
pub struct Checker {
    first: std::collections::BTreeMap<String, Vec<workloads::Observation>>,
    /// Operations attempted so far.
    pub attempted: u64,
    /// Operations failed so far.
    pub failed: u64,
    /// Problems found so far (deduplicated).
    pub problems: Vec<String>,
}

impl Checker {
    /// Checks one repetition's outputs.
    pub fn record(&mut self, workload: &str, seed: u64, scale: Scale, out: &Outputs) {
        let mut problems: Vec<String> = out.violations.clone();
        if seed == workloads::DEFAULT_SEED && scale.pinned {
            problems.extend(pins::check(workload, &out.observed));
        }
        let first = self
            .first
            .entry(format!("{workload}/{seed}/{scale:?}"))
            .or_insert_with(|| out.observed.clone());
        if *first != out.observed {
            problems.push(format!(
                "{workload}: outputs differ between repetitions of seed {seed}"
            ));
        }
        self.attempted += out.ops;
        self.failed += if problems.is_empty() {
            out.errored
        } else {
            out.ops
        };
        for p in problems {
            if !self.problems.contains(&p) {
                self.problems.push(p);
            }
        }
    }
}

/// The untraced measurement: repeat set-up + run for `seconds`.
///
/// The first repetition warms caches and the allocator and is not timed.
/// Every later one is timed in host seconds and rescaled to the nominal
/// host speed by the reference kernel timed just before and just after it
/// (`calib`); `wall_s` and `setup_s` are medians of such calibrated times.
fn untraced(workload: &str, seed: u64, seconds: f64, scale: Scale) -> Result<RunResult, String> {
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut checker = Checker::default();

    let out = workloads::run(workloads::setup(workload, seed, scale, Tracing::Off)?);
    // A finished `Sim` keeps its parked actors alive (an `Rc` cycle
    // through the executor), so memory grows with every repetition. The
    // high-water mark after the first repetition, taken before the
    // calibration tables exist, is the cost of one run from a fresh
    // process whatever the number of repetitions.
    let peak_rss_mb = report::peak_rss_mb().unwrap_or(f64::NAN);
    for (key, value) in &out.observed {
        println!("{workload:<18} output {key} = {value}");
    }
    let ops_per_rep = out.ops;
    checker.record(workload, seed, scale, &out);

    let mut calibrator = calib::Calibrator::new();
    let mut cal_before = calibrator.measure();
    let mut cals = vec![cal_before];
    let (mut walls, mut host_walls) = (Vec::new(), Vec::new());
    while walls.len() < 2 || started.elapsed() < budget {
        let prepared = workloads::setup(workload, seed, scale, Tracing::Off)?;
        let t1 = Instant::now();
        let out = workloads::run(std::hint::black_box(prepared));
        let host = t1.elapsed().as_secs_f64();
        let cal_after = calibrator.measure();
        walls.push(calib::calibrated(host, cal_before, cal_after));
        host_walls.push(host);
        cals.push(cal_after);
        cal_before = cal_after;
        checker.record(workload, seed, scale, &out);
    }
    let mut setups = Vec::with_capacity(SETUP_SAMPLES);
    for _ in 0..SETUP_SAMPLES {
        let t0 = Instant::now();
        let prepared = workloads::setup(workload, seed, scale, Tracing::Off)?;
        setups.push(t0.elapsed().as_secs_f64());
        drop(std::hint::black_box(prepared));
    }
    let cal_after = calibrator.measure();
    cals.push(cal_after);
    let host_setup_s = median(&setups);

    let wall_s = median(&walls);
    let mut metrics = Metrics::default();
    metrics.push("wall_s", wall_s, "s");
    metrics.push(
        "setup_s",
        calib::calibrated(host_setup_s, cal_before, cal_after),
        "s",
    );
    metrics.push("ops_per_s", ops_per_rep as f64 / wall_s, "1/s");
    metrics.push("peak_rss_mb", peak_rss_mb, "MiB");
    if metrics.names() != END_TO_END.map(|(n, _)| n) {
        checker
            .problems
            .push("the untraced run did not emit exactly the end-to-end metric set".into());
    }
    for (name, value) in [
        ("host_wall_s", median(&host_walls)),
        ("host_setup_s", host_setup_s),
        ("calibration_s", median(&cals)),
    ] {
        println!("{workload:<18} info {name} = {value:.6} s");
    }
    eprintln!(
        "{workload}: {} timed repetitions, host wall {:?}, calibration {:?}, setup median of {}",
        walls.len(),
        host_walls
            .iter()
            .map(|w| format!("{w:.4}"))
            .collect::<Vec<_>>(),
        cals.iter().map(|c| format!("{c:.4}")).collect::<Vec<_>>(),
        setups.len()
    );
    Ok(RunResult {
        attempted: checker.attempted,
        failed: checker.failed,
        problems: checker.problems,
        metrics,
    })
}

/// `--workload all`: each workload in its own process (so `peak_rss_mb`
/// is per workload), on the given seed and then on the held-out seed.
fn run_all(args: &Args) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("perfbench: cannot locate the running executable");
        return ExitCode::FAILURE;
    };
    let mut ok = true;
    for seed in [args.seed, workloads::HELD_OUT_SEED] {
        for workload in workloads::NAMES {
            let status = std::process::Command::new(&exe)
                .args(["--workload", workload, "--seed", &seed.to_string()])
                .args([
                    "--seconds",
                    &args.seconds.to_string(),
                    "--trace",
                    if args.trace { "1" } else { "0" },
                ])
                .status();
            match status {
                Ok(s) if s.success() => {}
                Ok(s) => {
                    eprintln!("perfbench: {workload} seed {seed} failed ({s})");
                    ok = false;
                }
                Err(e) => {
                    eprintln!("perfbench: could not run {workload}: {e}");
                    ok = false;
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `"name": "..."` values in one section of `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<String> {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        body.split("\"name\"")
            .skip(1)
            .map(|chunk| chunk.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn metric_names_are_legal_and_declared() {
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        for name in e2e.iter().chain(&declared("per_layer")) {
            assert!(report::valid_name(name), "illegal metric name {name}");
        }
        assert_eq!(declared("end_to_end"), e2e);
        assert_eq!(declared("workloads"), workloads::NAMES.map(String::from));
    }

    #[test]
    fn every_workload_emits_the_end_to_end_set_and_passes_its_checks() {
        for workload in workloads::NAMES {
            let r = untraced(workload, workloads::DEFAULT_SEED, 0.001, Scale::TINY).expect("runs");
            assert_eq!(r.metrics.names(), END_TO_END.map(|(n, _)| n), "{workload}");
            assert!(r.problems.is_empty(), "{workload}: {:?}", r.problems);
            assert!(r.attempted > 0 && r.failed == 0, "{workload}");
            assert!(
                r.metrics.0.iter().all(|m| m.value > 0.0),
                "{workload}: {:?}",
                r.metrics
            );
        }
    }

    #[test]
    fn every_workload_emits_the_per_layer_set() {
        for workload in workloads::NAMES {
            let r = layers::traced(workload, workloads::HELD_OUT_SEED, 0.001, Scale::TINY)
                .expect("runs");
            assert_eq!(r.metrics.names(), declared("per_layer"), "{workload}");
            assert!(r.problems.is_empty(), "{workload}: {:?}", r.problems);
        }
    }

    #[test]
    fn args_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload hit --seed 7 --seconds 3 --trace 1")).expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("hit", 7, 3.0, true)
        );
        for bad in [
            "",
            "--seed 1",
            "--workload w --trace 2",
            "--workload w --seconds 0",
            "--workload w --bogus 1",
            "--workload",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?}");
        }
    }
}
