//! Perf baseline: emits `BENCH_hetflow.json`, the one artifact CI
//! tracks for throughput regressions across PRs.
//!
//! Schema v3 probes, all cheap enough for every CI run:
//!
//! - `events_per_sec` — raw DES churn: a few hundred interleaved
//!   sleepers hammer the timer wheel; timer fires per wall second.
//! - `tasks_per_sec` — end-to-end no-op campaign through the FnX
//!   fabric (the Fig. 3 §V-C1 wiring): completed tasks per wall
//!   second, including steering-queue and store hops.
//! - `channel_ops_per_sec` — message deliveries per wall second
//!   through the pooled-waker channel (producer/consumer ping).
//! - `store_ops_per_sec` — put+get round trips per wall second
//!   against the arena-backed object store.
//! - `campaign_tasks_per_sec` — a small proxied campaign (Redis
//!   store, 100 kB payloads): the *real* lifecycle with store puts
//!   and proxy resolves, not just control-plane no-ops.
//! - `peak_rss_kb` — the `VmHWM` high-water mark from
//!   `/proc/self/status`. On platforms without procfs the field is
//!   `null`, never a silent `0`: a zero would read as "no memory
//!   used" to a regression gate, while `null` plus the companion
//!   `rss_source` field says "not measured here".
//!
//! Every throughput probe reports its best of three runs (minimum
//! wall time), so one scheduler hiccup on a shared CI runner does not
//! masquerade as a regression.
//!
//! Wall-clock reads are legal here: hetlint R1 scopes to sim-driven
//! crates, and `bench` is a driver, not a simulation actor.
//!
//! Usage: `perf_baseline [output.json] [--compare committed.json]`.
//! With `--compare`, the run exits nonzero when any gated rate
//! regresses more than 30% against the committed baseline — wide
//! enough that shared-runner noise passes, narrow enough that an
//! accidental O(n) slip in the kernel does not. The JSON is also
//! echoed to stdout so CI logs carry the numbers even if the artifact
//! upload fails.
//!
//! Tolerance notes: the 70% floor applies only to the wall-clock
//! rates above. The overload probe lives in its own binary
//! (`overload_sweep`, `BENCH_overload.json`) and needs *no*
//! tolerance at all — every number there is virtual-time-derived and
//! deterministic, so it self-gates on exact thresholds (goodput at 2x
//! saturation >= 80% of peak, bounded p99 queue wait) instead of a
//! noise floor. Do not fold virtual-time metrics into this artifact's
//! compare gate: a deterministic number wrapped in a 30% band is a
//! regression hiding place.

use std::time::{Duration, Instant};

use hetflow_bench::{NoopPipeline, StoreKind};
use hetflow_sim::{channel, Sim};

/// Regression gate: fail `--compare` when a rate drops below this
/// fraction of the committed baseline.
const COMPARE_FLOOR: f64 = 0.70;

/// Runs `probe` three times and returns the fastest run (count,
/// minimum wall seconds): best-of-3 keeps one scheduler hiccup on a
/// shared runner from reading as a regression.
fn best_of_3<C: Copy>(mut probe: impl FnMut() -> (C, f64)) -> (C, f64) {
    let mut best = probe();
    for _ in 0..2 {
        let run = probe();
        if run.1 < best.1 {
            best = run;
        }
    }
    best
}

/// Timer-wheel churn: `sleepers` tasks each awaiting `rounds` staggered
/// timers. Returns (timer fires, wall seconds).
fn timer_churn(sleepers: usize, rounds: usize) -> (u64, f64) {
    let start = Instant::now();
    let sim = Sim::new();
    for s in 0..sleepers {
        let sim2 = sim.clone();
        sim.spawn(async move {
            for r in 0..rounds {
                // Staggered, co-prime-ish delays keep the wheel busy
                // rather than batching every fire at one instant.
                let us = (1 + (s * 31 + r * 7) % 97) as u64;
                sim2.sleep(Duration::from_micros(us)).await;
            }
        });
    }
    let report = sim.run();
    (report.timer_fires, start.elapsed().as_secs_f64())
}

/// End-to-end no-op campaign on the FnX fabric. Returns (completed
/// tasks, wall seconds).
fn noop_campaign(n_tasks: usize) -> (usize, f64) {
    let start = Instant::now();
    let breakdown = NoopPipeline::fig3(StoreKind::None).run(10_000, n_tasks);
    (breakdown.count, start.elapsed().as_secs_f64())
}

/// Channel throughput: one producer streams `n_msgs` values to one
/// consumer through the pooled-waker channel, with the consumer
/// parked between sends so every delivery exercises the waker slot.
/// Returns (messages delivered, wall seconds).
fn channel_churn(n_msgs: usize) -> (usize, f64) {
    let start = Instant::now();
    let sim = Sim::new();
    let (tx, rx) = channel::<usize>();
    let sim2 = sim.clone();
    sim.spawn(async move {
        for i in 0..n_msgs {
            // A 1 µs gap per message forces the receiver to park and
            // re-register its waker slot every iteration — the
            // register/wake/release cycle is exactly what we measure.
            sim2.sleep(Duration::from_micros(1)).await;
            let _ = tx.send_now(i);
        }
    });
    let h = sim.spawn(async move {
        let mut got = 0usize;
        while rx.recv().await.is_some() {
            got += 1;
        }
        got
    });
    let got = sim.block_on(h);
    (got, start.elapsed().as_secs_f64())
}

/// Store object churn: `n_ops` put+get round trips against an
/// Fs-model store (arena-backed object table, count-based eviction so
/// slots recycle). Returns (round trips, wall seconds).
fn store_churn(n_ops: usize) -> (usize, f64) {
    use hetflow_store::{Backend, EvictionPolicy, FsParams, SiteId, SiteSet, Store};
    use std::rc::Rc;
    let start = Instant::now();
    let sim = Sim::new();
    let site = SiteId(0);
    let store = Store::new(
        sim.clone(),
        "bench-fs",
        Backend::Fs(FsParams {
            members: SiteSet::of(&[site]),
            op_latency: hetflow_sim::Dist::Constant(0.0001),
            write_bandwidth: 1e9,
            read_bandwidth: 1e9,
        }),
        hetflow_sim::SimRng::from_seed(7),
    );
    store.set_eviction(EvictionPolicy::AfterResolves(1));
    let s = store.clone();
    let h = sim.spawn(async move {
        let value: Rc<dyn std::any::Any> = Rc::new(());
        let mut done = 0usize;
        for _ in 0..n_ops {
            let Ok(key) = s.put_raw(Rc::clone(&value), 1_000, site).await else { break };
            if s.get_raw(key, site).await.is_err() {
                break;
            }
            done += 1;
        }
        done
    });
    let done = sim.block_on(h);
    (done, start.elapsed().as_secs_f64())
}

/// A small *proxied* campaign: 100 kB payloads auto-proxied through a
/// Redis-model store — store puts, proxy resolves, result envelopes,
/// the full data-plane lifecycle. Returns (tasks, wall seconds).
fn proxied_campaign(n_tasks: usize) -> (usize, f64) {
    let start = Instant::now();
    let breakdown = NoopPipeline::fig3(StoreKind::Redis).run(100_000, n_tasks);
    (breakdown.count, start.elapsed().as_secs_f64())
}

/// `VmHWM` in kB from procfs; `None` when the platform has no procfs
/// (or the field is missing) so the artifact says "unmeasured" instead
/// of masquerading as a 0 kB process.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let digits: String = rest.chars().filter(|c| c.is_ascii_digit()).collect();
            if let Ok(v) = digits.parse() {
                return Some(v);
            }
        }
    }
    None
}

fn rate(count: u64, secs: f64) -> f64 {
    count as f64 / secs.max(1e-9)
}

/// Every measurement the artifact carries.
struct Measurements {
    fires: u64,
    churn_secs: f64,
    tasks: usize,
    campaign_secs: f64,
    channel_msgs: usize,
    channel_secs: f64,
    store_ops: usize,
    store_secs: f64,
    proxied_tasks: usize,
    proxied_secs: f64,
    rss_kb: Option<u64>,
}

impl Measurements {
    fn events_per_sec(&self) -> f64 {
        rate(self.fires, self.churn_secs)
    }
    fn tasks_per_sec(&self) -> f64 {
        rate(self.tasks as u64, self.campaign_secs)
    }
    fn channel_ops_per_sec(&self) -> f64 {
        rate(self.channel_msgs as u64, self.channel_secs)
    }
    fn store_ops_per_sec(&self) -> f64 {
        rate(self.store_ops as u64, self.store_secs)
    }
    fn campaign_tasks_per_sec(&self) -> f64 {
        rate(self.proxied_tasks as u64, self.proxied_secs)
    }

    /// The `(key, value)` pairs the `--compare` gate checks.
    fn gated_rates(&self) -> [(&'static str, f64); 5] {
        [
            ("events_per_sec", self.events_per_sec()),
            ("tasks_per_sec", self.tasks_per_sec()),
            ("channel_ops_per_sec", self.channel_ops_per_sec()),
            ("store_ops_per_sec", self.store_ops_per_sec()),
            ("campaign_tasks_per_sec", self.campaign_tasks_per_sec()),
        ]
    }
}

fn render(m: &Measurements) -> String {
    let (rss, rss_source) = match m.rss_kb {
        Some(v) => (v.to_string(), "procfs"),
        None => ("null".to_string(), "unavailable"),
    };
    format!(
        "{{\n  \"tool\": \"hetflow-bench\",\n  \"schema_version\": 3,\n  \
         \"events_per_sec\": {:.0},\n  \"tasks_per_sec\": {:.1},\n  \
         \"channel_ops_per_sec\": {:.0},\n  \"store_ops_per_sec\": {:.0},\n  \
         \"campaign_tasks_per_sec\": {:.1},\n  \
         \"peak_rss_kb\": {rss},\n  \"rss_source\": \"{rss_source}\",\n  \"detail\": {{\n    \
         \"timer_fires\": {},\n    \"timer_wall_secs\": {:.4},\n    \
         \"noop_tasks\": {},\n    \"noop_wall_secs\": {:.4},\n    \
         \"channel_msgs\": {},\n    \"channel_wall_secs\": {:.4},\n    \
         \"store_round_trips\": {},\n    \"store_wall_secs\": {:.4},\n    \
         \"proxied_tasks\": {},\n    \"proxied_wall_secs\": {:.4}\n  }}\n}}\n",
        m.events_per_sec(),
        m.tasks_per_sec(),
        m.channel_ops_per_sec(),
        m.store_ops_per_sec(),
        m.campaign_tasks_per_sec(),
        m.fires,
        m.churn_secs,
        m.tasks,
        m.campaign_secs,
        m.channel_msgs,
        m.channel_secs,
        m.store_ops,
        m.store_secs,
        m.proxied_tasks,
        m.proxied_secs,
    )
}

/// Pulls a top-level numeric field out of a baseline artifact. The
/// artifact is our own stable shape (`"key": 123.4,`), so a scan
/// beats a JSON dependency; returns `None` on absent or non-numeric
/// values (including the `null` RSS sentinel).
fn json_number(doc: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = doc.find(&needle)? + needle.len();
    let rest = doc[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Compares a fresh run against a committed baseline; returns the list
/// of human-readable gate failures (empty = pass). Missing baseline
/// fields are a pass — an older-schema artifact must not brick CI.
fn compare(baseline: &str, rates: &[(&str, f64)]) -> Vec<String> {
    let mut failures = Vec::new();
    for &(key, got) in rates {
        let Some(want) = json_number(baseline, key) else { continue };
        if want <= 0.0 {
            continue;
        }
        let ratio = got / want;
        if ratio < COMPARE_FLOOR {
            failures.push(format!(
                "{key} regressed: {got:.0} vs committed {want:.0} \
                 ({:.0}% of baseline, floor {:.0}%)",
                ratio * 100.0,
                COMPARE_FLOOR * 100.0
            ));
        } else if ratio < 1.0 {
            eprintln!(
                "perf_baseline: {key} at {:.0}% of committed baseline \
                 ({got:.0} vs {want:.0}) — within the {:.0}% floor, not failing",
                ratio * 100.0,
                COMPARE_FLOOR * 100.0
            );
        }
    }
    failures
}

fn main() -> std::process::ExitCode {
    let mut out_path = String::from("BENCH_hetflow.json");
    let mut compare_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--compare" {
            compare_path = args.next();
            if compare_path.is_none() {
                eprintln!("perf_baseline: --compare needs a baseline path");
                return std::process::ExitCode::from(2);
            }
        } else {
            out_path = arg;
        }
    }

    let (fires, churn_secs) = best_of_3(|| timer_churn(200, 200));
    let (tasks, campaign_secs) = best_of_3(|| noop_campaign(300));
    let (channel_msgs, channel_secs) = best_of_3(|| channel_churn(50_000));
    let (store_ops, store_secs) = best_of_3(|| store_churn(20_000));
    let (proxied_tasks, proxied_secs) = best_of_3(|| proxied_campaign(150));
    let m = Measurements {
        fires,
        churn_secs,
        tasks,
        campaign_secs,
        channel_msgs,
        channel_secs,
        store_ops,
        store_secs,
        proxied_tasks,
        proxied_secs,
        rss_kb: peak_rss_kb(),
    };

    let doc = render(&m);
    print!("{doc}");
    if let Err(e) = std::fs::write(&out_path, &doc) {
        eprintln!("perf_baseline: cannot write {out_path}: {e}");
        return std::process::ExitCode::from(2);
    }
    eprintln!("perf_baseline: wrote {out_path}");

    if let Some(path) = compare_path {
        let baseline = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("perf_baseline: cannot read baseline {path}: {e}");
                return std::process::ExitCode::from(2);
            }
        };
        let failures = compare(&baseline, &m.gated_rates());
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("perf_baseline: FAIL: {f}");
            }
            return std::process::ExitCode::from(1);
        }
        eprintln!("perf_baseline: within {:.0}% of {path}", COMPARE_FLOOR * 100.0);
    }
    std::process::ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Measurements {
        Measurements {
            fires: 100,
            churn_secs: 0.5,
            tasks: 10,
            campaign_secs: 0.25,
            channel_msgs: 500,
            channel_secs: 0.1,
            store_ops: 300,
            store_secs: 0.2,
            proxied_tasks: 20,
            proxied_secs: 0.4,
            rss_kb: Some(4096),
        }
    }

    #[test]
    fn churn_fires_every_timer() {
        let (fires, _) = timer_churn(10, 10);
        assert_eq!(fires, 100);
    }

    #[test]
    fn campaign_completes_every_task() {
        let (tasks, _) = noop_campaign(5);
        assert_eq!(tasks, 5);
    }

    #[test]
    fn channel_probe_delivers_every_message() {
        let (got, _) = channel_churn(100);
        assert_eq!(got, 100);
    }

    #[test]
    fn store_probe_round_trips_every_op() {
        let (done, _) = store_churn(50);
        assert_eq!(done, 50);
    }

    #[test]
    fn proxied_campaign_completes_every_task() {
        let (tasks, _) = proxied_campaign(3);
        assert_eq!(tasks, 3);
    }

    #[test]
    fn best_of_3_keeps_fastest_run() {
        let mut walls = [0.9, 0.2, 0.5].into_iter();
        let (count, secs) = best_of_3(|| (1u64, walls.next().unwrap()));
        assert_eq!(count, 1);
        assert_eq!(secs, 0.2);
    }

    #[test]
    fn rss_probe_never_fails() {
        // Either a real VmHWM or the None sentinel; both keep the schema.
        let _ = peak_rss_kb();
    }

    #[test]
    fn artifact_shape_is_stable() {
        let doc = render(&sample());
        for key in [
            "\"tool\": \"hetflow-bench\"",
            "\"schema_version\": 3",
            "\"events_per_sec\": 200",
            "\"tasks_per_sec\": 40.0",
            "\"channel_ops_per_sec\": 5000",
            "\"store_ops_per_sec\": 1500",
            "\"campaign_tasks_per_sec\": 50.0",
            "\"peak_rss_kb\": 4096",
            "\"rss_source\": \"procfs\"",
            "\"timer_fires\": 100",
            "\"noop_tasks\": 10",
            "\"channel_msgs\": 500",
            "\"store_round_trips\": 300",
            "\"proxied_tasks\": 20",
        ] {
            assert!(doc.contains(key), "missing {key} in {doc}");
        }
    }

    #[test]
    fn missing_rss_renders_null_sentinel() {
        let mut m = sample();
        m.rss_kb = None;
        let doc = render(&m);
        assert!(doc.contains("\"peak_rss_kb\": null"), "null sentinel in {doc}");
        assert!(doc.contains("\"rss_source\": \"unavailable\""), "source tag in {doc}");
        assert!(!doc.contains("\"peak_rss_kb\": 0"), "never a silent zero");
    }

    #[test]
    fn rate_guards_zero_elapsed() {
        assert!(rate(100, 0.0).is_finite());
    }

    #[test]
    fn json_number_reads_artifact_fields() {
        let mut m = sample();
        m.rss_kb = None;
        let doc = render(&m);
        assert_eq!(json_number(&doc, "events_per_sec"), Some(200.0));
        assert_eq!(json_number(&doc, "tasks_per_sec"), Some(40.0));
        assert_eq!(json_number(&doc, "channel_ops_per_sec"), Some(5000.0));
        assert_eq!(json_number(&doc, "store_ops_per_sec"), Some(1500.0));
        assert_eq!(json_number(&doc, "campaign_tasks_per_sec"), Some(50.0));
        // The null sentinel is "absent" to the gate, not 0.
        assert_eq!(json_number(&doc, "peak_rss_kb"), None);
        assert_eq!(json_number(&doc, "no_such_key"), None);
    }

    #[test]
    fn compare_gates_every_schema_v3_rate() {
        let baseline = render(&sample());
        let good = sample().gated_rates();
        assert!(compare(&baseline, &good).is_empty(), "equal passes");
        for i in 0..good.len() {
            let mut dropped = good;
            dropped[i].1 *= 0.5; // well below the 70% floor
            let failures = compare(&baseline, &dropped);
            assert_eq!(failures.len(), 1, "{} drop fails: {failures:?}", good[i].0);
            assert!(failures[0].contains(good[i].0));
            let mut noisy = good;
            noisy[i].1 *= 0.8; // within the floor
            assert!(compare(&baseline, &noisy).is_empty(), "{} noise passes", good[i].0);
        }
    }

    #[test]
    fn compare_tolerates_older_schema_baselines() {
        // A v2 baseline missing the new keys gates only what it has.
        let v2 = "{\"schema_version\": 2, \"events_per_sec\": 100}";
        let rates = [("events_per_sec", 100.0), ("channel_ops_per_sec", 5.0)];
        assert!(compare(v2, &rates).is_empty());
        assert_eq!(compare(v2, &[("events_per_sec", 50.0)]).len(), 1);
        // And one missing every rate key gates nothing.
        assert!(compare("{\"schema_version\": 1}", &rates).is_empty());
    }
}
