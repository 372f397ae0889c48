//! The four end-to-end workloads.
//!
//! Each workload splits into a *set-up* step (input generation,
//! `core::deploy`, chaos install, reading the lint corpus) and a *run*
//! step that brings every operation to a terminal outcome. `main` times
//! the two separately. A run returns its outputs as [`Outputs`]: the
//! correctness observables that `pins` checks, plus the operation count
//! that turns `wall_s` into `ops_per_s`.

use hetflow_apps::{finetune, moldesign};
use hetflow_core::{deploy, Deployment, DeploymentSpec, WorkflowConfig};
use hetflow_fabric::{
    AdmissionConfig, BreakerConfig, ChaosAction, ChaosSpec, HedgeConfig, ReliabilityPolicies,
    ReliabilityPolicy, RetryPolicies, RetryPolicy, TaskError, TaskFn, TaskOutcome, TaskWork,
};
use hetflow_lint::{ratchet, FileContext, LintedFile};
use hetflow_sim::{Dist, OverflowPolicy, Sim, SimRng, SimTime, Symbol, Tracer};
use hetflow_steer::{ClientQueues, Payload};
use std::any::Any;
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Duration;

/// The workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 4] = [
    "lifecycle_flood",
    "reliability_storm",
    "paper_campaigns",
    "hetlint_cold",
];

/// Seed whose outputs `pins` records exactly.
pub const DEFAULT_SEED: u64 = 1;

/// Seed held out from pinning: only the seed-independent checks apply.
pub const HELD_OUT_SEED: u64 = 977;

/// How big each workload is. [`Scale::FULL`] is the benchmark; the
/// smaller scale exists so the benchmark's own tests run quickly.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Tasks per configuration in `lifecycle_flood`.
    pub flood_tasks: usize,
    /// Campaign tasks per configuration in `reliability_storm` (the
    /// chaos task storm adds [`Scale::storm_junk`] more).
    pub storm_tasks: usize,
    /// Junk tasks the `TaskStorm` chaos action submits.
    pub storm_junk: u32,
    /// Moldesign library size in `paper_campaigns`.
    pub library: usize,
    /// Moldesign node-hour budget.
    pub node_hours: u64,
    /// Finetune target of new reference structures.
    pub finetune_target: usize,
    /// Corpus files `hetlint_cold` lints (`usize::MAX` = all).
    pub lint_files: usize,
    /// Whether `pins` holds exact outputs for this scale (default seed).
    pub pinned: bool,
    /// Ladder sizes (no-op tasks per row): small and large.
    pub ladder_sizes: [usize; 2],
    /// Campaign tasks per configuration in the traced run's flood and
    /// reference-storm probes.
    pub probe_tasks: usize,
}

impl Scale {
    /// The benchmark's sizes.
    pub const FULL: Scale = Scale {
        flood_tasks: 100_000,
        storm_tasks: 10_000,
        storm_junk: 2_000,
        library: 10_000,
        node_hours: 6,
        finetune_target: 64,
        lint_files: usize::MAX,
        pinned: true,
        ladder_sizes: [1_000, 10_000],
        probe_tasks: 10_000,
    };

    /// Sizes for the benchmark's own tests.
    pub const TINY: Scale = Scale {
        flood_tasks: 400,
        storm_tasks: 400,
        storm_junk: 100,
        library: 1_000,
        node_hours: 1,
        finetune_target: 8,
        lint_files: 12,
        pinned: false,
        ladder_sizes: [50, 200],
        probe_tasks: 200,
    };
}

/// Whether the program's own `Tracer` records events during a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tracing {
    /// `Tracer::disabled()` — the end-to-end measurement.
    Off,
    /// `Tracer::enabled()` — the traced run.
    On,
}

impl Tracing {
    fn tracer(self) -> Tracer {
        match self {
            Tracing::Off => Tracer::disabled(),
            Tracing::On => Tracer::enabled(),
        }
    }
}

/// A named correctness observable of one run.
pub type Observation = (String, u64);

/// What one run of a workload produced.
#[derive(Clone, Debug, Default)]
pub struct Outputs {
    /// Operations attempted (task lifecycles or source files).
    pub ops: u64,
    /// Operations that errored or panicked.
    pub errored: u64,
    /// Correctness observables, in a fixed order.
    pub observed: Vec<Observation>,
    /// Seed-independent invariant violations found by the run itself.
    pub violations: Vec<String>,
    /// Executor future polls, summed over the run's simulations.
    pub polls: u64,
    /// Executor timer fires, summed over the run's simulations.
    pub timer_fires: u64,
    /// Trace digest and per-kind event counts of each traced simulation
    /// (empty when tracing is off).
    pub traces: Vec<TraceCounts>,
}

impl Outputs {
    /// Adds another simulation's outputs to this run's.
    fn absorb(&mut self, mut other: Outputs) {
        self.ops += other.ops;
        self.errored += other.errored;
        self.observed.append(&mut other.observed);
        self.violations.append(&mut other.violations);
        self.polls += other.polls;
        self.timer_fires += other.timer_fires;
        self.traces.append(&mut other.traces);
    }
}

/// What one simulation's `Tracer` recorded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceCounts {
    /// The streaming FNV-1a digest of every event.
    pub digest: u64,
    /// Events per kind, in `trace_kinds::ALL` order.
    pub per_kind: Vec<u64>,
}

impl TraceCounts {
    fn of(tracer: &Tracer) -> TraceCounts {
        let per_kind = {
            let events = tracer.events();
            hetflow_sim::trace_kinds::ALL
                .iter()
                .map(|k| events.iter().filter(|e| e.kind == *k).count() as u64)
                .collect()
        };
        TraceCounts {
            digest: tracer.digest(),
            per_kind,
        }
    }
}

/// A workload after set-up, ready to run.
pub enum Prepared {
    /// Simulator workloads: one deployed simulation per configuration.
    Sims(Vec<SimCase>),
    /// Both paper applications on FnX+Globus.
    Campaigns(Box<CampaignCase>),
    /// The lint corpus, read into memory; traced runs time its phases.
    Lint(Corpus, Tracing),
}

/// Sets `workload` up for one run.
pub fn setup(
    workload: &str,
    seed: u64,
    scale: Scale,
    tracing: Tracing,
) -> Result<Prepared, String> {
    match workload {
        "lifecycle_flood" => {
            let plan = Rc::new(Plan::generate(seed, scale.flood_tasks, 0));
            Ok(Prepared::Sims(
                WorkflowConfig::all()
                    .into_iter()
                    .map(|c| SimCase::flood(c, seed, &plan, tracing))
                    .collect(),
            ))
        }
        "reliability_storm" => {
            let plan = Rc::new(Plan::generate(seed, scale.storm_tasks, scale.storm_junk));
            Ok(Prepared::Sims(
                [WorkflowConfig::FnXGlobus, WorkflowConfig::ParslRedis]
                    .into_iter()
                    .map(|c| SimCase::storm(c, seed, &plan, tracing))
                    .collect(),
            ))
        }
        "paper_campaigns" => Ok(Prepared::Campaigns(Box::new(CampaignCase::new(
            seed, scale, tracing,
        )))),
        "hetlint_cold" => Corpus::read(scale.lint_files).map(|c| Prepared::Lint(c, tracing)),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {NAMES:?})"
        )),
    }
}

/// Runs a prepared workload to completion. A panic inside one
/// configuration counts that configuration's operations as errored.
pub fn run(prepared: Prepared) -> Outputs {
    let mut out = Outputs::default();
    match prepared {
        Prepared::Sims(cases) => {
            for case in cases {
                let label = case.label;
                let ops = case.plan.len() as u64;
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| case.run())) {
                    Ok(one) => out.absorb(one),
                    Err(_) => {
                        out.ops += ops;
                        out.errored += ops;
                        out.violations
                            .push(format!("{label}: the simulation panicked"));
                    }
                }
            }
        }
        Prepared::Campaigns(case) => {
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| case.run())) {
                Ok(one) => out = one,
                Err(_) => {
                    // The campaign sizes are unknown until it reports:
                    // count one errored operation.
                    out.ops = 1;
                    out.errored = 1;
                    out.violations
                        .push("paper_campaigns: a campaign panicked".into());
                }
            }
        }
        Prepared::Lint(corpus, Tracing::Off) => out = corpus.lint(None),
        Prepared::Lint(corpus, Tracing::On) => out = corpus.lint(Some(&mut LintSpans::default())),
    }
    out
}

// --------------------------------------------------------------------
// Open-loop task plans (lifecycle_flood, reliability_storm)
// --------------------------------------------------------------------

/// Virtual work per task.
const TASK_WORK: Duration = Duration::from_millis(5);
/// Inline payload of three tasks in four.
const SMALL_BYTES: u64 = 1_000;
/// Payload of one task in four: above the 10 kB auto-proxy threshold.
const LARGE_BYTES: u64 = 50_000;
/// Result size (inline on the way back).
const RESULT_BYTES: u64 = 1_000;
/// Open-loop arrival rate, tasks per virtual second, split evenly
/// between a CPU topic (8 Theta workers) and a GPU topic (20 Venti
/// workers). The task server forwards one task at a time and an FnX
/// submission pays an HTTPS round trip plus a cloud-store put (~0.14 s
/// modelled), so FnX+Globus accepts about 7 tasks/s: 4/s keeps every
/// configuration below capacity and the simulated backlog bounded.
const ARRIVALS_PER_SEC: f64 = 4.0;
/// A run whose last result lands later than this after the last arrival
/// has a growing backlog — a violation.
const MAX_DRAIN: Duration = Duration::from_secs(120);

/// The CPU-side topic.
const CPU_TOPIC: &str = "simulate";
/// The GPU-side topic.
const GPU_TOPIC: &str = "infer";
/// The topic chaos task storms submit on.
const STORM_TOPIC: &str = "noop";

/// One planned submission.
#[derive(Clone, Copy, Debug)]
struct Arrival {
    /// Virtual submission time.
    at: SimTime,
    /// GPU topic (else CPU topic).
    gpu: bool,
    /// 50 kB payload (else 1 kB).
    large: bool,
}

/// An open-loop submission schedule generated from the seed.
#[derive(Debug)]
pub struct Plan {
    arrivals: Vec<Arrival>,
    /// Junk tasks a chaos task storm adds (0 for the flood).
    junk: u32,
}

impl Plan {
    /// Exponential inter-arrivals at [`ARRIVALS_PER_SEC`]; in every block
    /// of four tasks exactly one (at a seeded position) carries the large
    /// payload, and each block splits two and two between the topics.
    fn generate(seed: u64, tasks: usize, junk: u32) -> Plan {
        let mut rng = SimRng::stream(seed, "perfbench-plan");
        let gap = Dist::Exponential {
            mean: 1.0 / ARRIVALS_PER_SEC,
        };
        let mut t = 0.0;
        let mut arrivals = Vec::with_capacity(tasks);
        let mut block = [false, false, true, true];
        for i in 0..tasks {
            if i % 4 == 0 {
                rng.shuffle(&mut block);
            }
            t += gap.sample(&mut rng);
            arrivals.push(Arrival {
                at: SimTime::from_secs_f64(t),
                gpu: block[i % 4],
                large: false,
            });
        }
        for start in (0..tasks).step_by(4) {
            let width = (tasks - start).min(4);
            let pick = start + rng.below(width);
            arrivals[pick].large = width == 4;
        }
        Plan { arrivals, junk }
    }

    /// Planned campaign submissions.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Submissions per topic: (CPU, GPU).
    fn per_topic(&self) -> (u64, u64) {
        let gpu = self.arrivals.iter().filter(|a| a.gpu).count() as u64;
        (self.arrivals.len() as u64 - gpu, gpu)
    }

    fn last_arrival(&self) -> SimTime {
        self.arrivals.last().map_or(SimTime::ZERO, |a| a.at)
    }
}

/// Terminal outcomes seen by one result collector.
#[derive(Debug, Default)]
struct Tally {
    ids: Vec<u64>,
    completed: u64,
    failed: u64,
    timed_out: u64,
    shed: u64,
    finished_at: Option<SimTime>,
}

/// One deployed simulation with its submission plan.
pub struct SimCase {
    label: &'static str,
    sim: Sim,
    deployment: Deployment,
    plan: Rc<Plan>,
}

impl SimCase {
    /// `lifecycle_flood`: zero-default reliability, no chaos.
    fn flood(config: WorkflowConfig, seed: u64, plan: &Rc<Plan>, tracing: Tracing) -> SimCase {
        let sim = Sim::new();
        let spec = DeploymentSpec {
            seed,
            ..Default::default()
        };
        let deployment = deploy(&sim, config, &spec, tracing.tracer());
        SimCase {
            label: config_key(config),
            sim,
            deployment,
            plan: Rc::clone(plan),
        }
    }

    /// `reliability_storm`: every reliability and overload mechanism on,
    /// plus flapping, straggling and a task storm.
    fn storm(config: WorkflowConfig, seed: u64, plan: &Rc<Plan>, tracing: Tracing) -> SimCase {
        let sim = Sim::new();
        let spec = storm_spec(seed);
        let deployment = deploy(&sim, config, &spec, tracing.tracer());
        storm_chaos(plan.len(), plan.junk).install(&sim, seed, &deployment.chaos);
        SimCase {
            label: config_key(config),
            sim,
            deployment,
            plan: Rc::clone(plan),
        }
    }

    /// Submits the plan open-loop, collects every result, and checks the
    /// seed-independent invariants.
    fn run(self) -> Outputs {
        let SimCase {
            label,
            sim,
            deployment,
            plan,
        } = self;
        let (cpu, gpu) = plan.per_topic();
        spawn_submitter(&sim, &deployment.queues, &plan);
        let mut expected = vec![(CPU_TOPIC, cpu), (GPU_TOPIC, gpu)];
        if plan.junk > 0 {
            expected.push((STORM_TOPIC, u64::from(plan.junk)));
        }
        let tallies: Vec<Rc<RefCell<Tally>>> = expected
            .iter()
            .map(|&(topic, n)| spawn_collector(&sim, &deployment.queues, topic, n))
            .collect();

        // Drive until every collector is done. Reliability watchers may
        // keep timers alive after the last result, so the run stops at the
        // collectors, not at quiescence; the horizon catches lost tasks.
        let horizon = plan.last_arrival() + MAX_DRAIN * 4;
        let done = |t: &[Rc<RefCell<Tally>>]| t.iter().all(|t| t.borrow().finished_at.is_some());
        let report = loop {
            let report = sim.run_until(sim.now() + Duration::from_secs(10));
            if done(&tallies) || sim.now() >= horizon || report.pending_tasks == 0 {
                break report;
            }
        };
        let mut out = Outputs {
            polls: report.polls,
            timer_fires: report.timer_fires,
            ..Outputs::default()
        };
        let (mut ids, mut completed, mut failed, mut timed_out, mut shed) =
            (Vec::new(), 0, 0, 0, 0);
        let mut end = SimTime::ZERO;
        for (t, &(topic, n)) in tallies.iter().zip(&expected) {
            let t = t.borrow();
            if t.ids.len() as u64 != n {
                out.violations.push(format!(
                    "{label}: topic {topic} returned {} of {n} tasks (lost tasks)",
                    t.ids.len()
                ));
            }
            ids.extend_from_slice(&t.ids);
            completed += t.completed;
            failed += t.failed;
            timed_out += t.timed_out;
            shed += t.shed;
            end = end.max(t.finished_at.unwrap_or(sim.now()));
        }
        let submitted: u64 = expected.iter().map(|&(_, n)| n).sum();
        ids.sort_unstable();
        let distinct = {
            let mut d = ids.clone();
            d.dedup();
            d.len() as u64
        };
        if distinct != ids.len() as u64 {
            out.violations.push(format!(
                "{label}: {} duplicated terminal outcomes",
                ids.len() as u64 - distinct
            ));
        }
        if completed + failed + shed != submitted {
            out.violations.push(format!(
                "{label}: conservation violated: {completed} + {failed} + {shed} != {submitted}"
            ));
        }
        let drain = end.duration_since(plan.last_arrival().min(end));
        if drain > MAX_DRAIN {
            out.violations.push(format!(
                "{label}: backlog drained {drain:?} after the last arrival"
            ));
        }
        // The lifecycle ledger must agree with what the collectors saw.
        let ledger = hetflow_steer::Breakdown::of(&deployment.queues.records(), None);
        if ledger.count as u64 != submitted
            || ledger.shed as u64 != shed
            || ledger.failed as u64 != failed
        {
            out.violations.push(format!(
                "{label}: ledger {}/{}/{} disagrees with collectors {submitted}/{shed}/{failed}",
                ledger.count, ledger.shed, ledger.failed
            ));
        }

        out.ops = submitted;
        let health = &deployment.health;
        let stores = [&deployment.local_store, &deployment.remote_store];
        let (puts, gets) = stores
            .iter()
            .filter_map(|s| s.as_ref())
            .map(|s| s.stats())
            .fold((0, 0), |(p, g), s| (p + s.puts, g + s.gets));
        for (key, value) in [
            ("completed", completed),
            ("failed", failed),
            ("shed", shed),
            ("end_ns", end.as_nanos()),
            ("timed_out", timed_out),
            ("hedged", health.hedged()),
            ("rerouted", health.rerouted()),
            ("cancelled", health.cancelled()),
            ("store_puts", puts),
            ("store_gets", gets),
        ] {
            out.observed.push((format!("{label}.{key}"), value));
        }
        if deployment.tracer.is_enabled() {
            out.traces.push(TraceCounts::of(&deployment.tracer));
        }
        out
    }
}

/// Metric-safe key of a configuration.
pub fn config_key(config: WorkflowConfig) -> &'static str {
    match config {
        WorkflowConfig::Parsl => "parsl",
        WorkflowConfig::ParslRedis => "parsl_redis",
        WorkflowConfig::FnXGlobus => "fnx_globus",
    }
}

fn spawn_submitter(sim: &Sim, queues: &ClientQueues, plan: &Rc<Plan>) {
    let (sim2, q, plan) = (sim.clone(), queues.clone(), Rc::clone(plan));
    sim.spawn_detached(async move {
        // Interned once; the closure and payload value are shared by
        // every submission, as a tuned campaign loop would do.
        let (cpu, gpu) = (Symbol::intern(CPU_TOPIC), Symbol::intern(GPU_TOPIC));
        let compute: TaskFn = Rc::new(|_| TaskWork::new((), RESULT_BYTES, TASK_WORK));
        let unit: Rc<dyn Any> = Rc::new(());
        for a in &plan.arrivals {
            sim2.sleep_until(a.at).await;
            let bytes = if a.large { LARGE_BYTES } else { SMALL_BYTES };
            let topic = if a.gpu { gpu } else { cpu };
            q.submit(
                topic,
                [Payload::shared(Rc::clone(&unit), bytes)],
                Rc::clone(&compute),
            )
            .await;
        }
    });
}

fn spawn_collector(
    sim: &Sim,
    queues: &ClientQueues,
    topic: &'static str,
    n: u64,
) -> Rc<RefCell<Tally>> {
    let tally = Rc::new(RefCell::new(Tally::default()));
    let (sim2, q, t) = (sim.clone(), queues.clone(), Rc::clone(&tally));
    sim.spawn_detached(async move {
        let topic = Symbol::intern(topic);
        for _ in 0..n {
            let Some(done) = q.get_result(topic).await else {
                break;
            };
            let r = done.resolve().await;
            let mut t = t.borrow_mut();
            t.ids.push(r.record.id);
            match &r.record.outcome {
                TaskOutcome::Success => t.completed += 1,
                TaskOutcome::Shed => t.shed += 1,
                TaskOutcome::Failed(e) => {
                    t.failed += 1;
                    if matches!(e, TaskError::Timeout { .. }) {
                        t.timed_out += 1;
                    }
                }
            }
        }
        t.borrow_mut().finished_at = Some(sim2.now());
    });
    tally
}

/// The storm's deployment: hedging, breaker, reroutes, deadline,
/// admission bucket, a bounded shed-oldest CPU queue, one failover
/// endpoint, and delivery timeouts that feed the reroute path.
fn storm_spec(seed: u64) -> DeploymentSpec {
    let policy = ReliabilityPolicy {
        breaker: BreakerConfig {
            failure_threshold: 5,
            open_for: Duration::from_secs(5),
            close_after: 1,
            // Long enough that tasks dispatched early in an outage sit in
            // the cloud past their delivery timeout and get rerouted.
            offline_grace: Duration::from_secs(30),
            latency_slo: Duration::ZERO,
        },
        hedge: HedgeConfig {
            quantile: 0.95,
            factor: 1.0,
            min_samples: 8,
            max_hedges: 1,
        },
        max_reroutes: 2,
        deadline: Duration::from_secs(60),
        // Campaign topics arrive at 2/s each and pass; the storm on its
        // own topic submits faster than 4/s and is partly refused.
        admission: AdmissionConfig {
            rate: 4.0,
            burst: 20.0,
            max_in_flight: 100,
        },
        ..Default::default()
    };
    // Admission and hedging are configured per topic; the default policy
    // also governs the endpoints' connectivity watchers.
    let mut reliability = ReliabilityPolicies {
        default: policy.clone(),
        ..Default::default()
    };
    for topic in [CPU_TOPIC, GPU_TOPIC, STORM_TOPIC] {
        reliability = reliability.with_topic(topic, policy.clone());
    }
    DeploymentSpec {
        seed,
        reliability,
        retry: RetryPolicies {
            default: RetryPolicy {
                timeout: Some(Duration::from_secs(10)),
                ..Default::default()
            },
            ..Default::default()
        },
        cpu_queue_capacity: 64,
        overflow: OverflowPolicy::ShedOldest,
        cpu_failover_sites: 1,
        ..Default::default()
    }
}

/// Flap the primary CPU endpoint, straggle its pool and the failover
/// pool, and flood it with `junk` low-priority tasks while the campaign
/// is running. Times are fractions of the plan's nominal span (`tasks`
/// arrivals at [`ARRIVALS_PER_SEC`]: 2 500 virtual seconds at full scale),
/// so every scale sees every fault.
fn storm_chaos(tasks: usize, junk: u32) -> ChaosSpec {
    let span = tasks as f64 / ARRIVALS_PER_SEC;
    let at = |frac: f64| SimTime::from_secs_f64(frac * span);
    let for_ = |frac: f64| Duration::from_secs_f64(frac * span);
    // 5 ms tasks take 15 s while straggling: past the 10 s delivery
    // timeout. The primary pool straggles before its first flap; pool 2
    // is FnX's failover pool, which carries the CPU topic once the
    // flapping primary's breaker has opened.
    let straggle = |pool, start| ChaosAction::Straggle {
        pool,
        at: at(start),
        duration: for_(0.04),
        factor: 3_000.0,
    };
    ChaosSpec::new(vec![
        ChaosAction::Flap {
            endpoint: 0,
            start: at(0.08),
            up: Dist::Exponential { mean: 0.08 * span },
            down: Dist::Exponential { mean: 0.024 * span },
            cycles: 4,
        },
        straggle(0, 0.024),
        straggle(2, 0.6),
        ChaosAction::TaskStorm {
            at: at(0.44),
            tasks: junk,
            interval: Dist::Constant(0.02),
            bytes: 64,
            work: Dist::Uniform { lo: 0.0, hi: 0.5 },
        },
    ])
}

// --------------------------------------------------------------------
// paper_campaigns
// --------------------------------------------------------------------

/// Both applications, each on its own FnX+Globus deployment.
pub struct CampaignCase {
    mol: (Sim, Deployment, moldesign::MolDesignParams),
    fine: (Sim, Deployment, finetune::FinetuneParams),
}

impl CampaignCase {
    fn new(seed: u64, scale: Scale, tracing: Tracing) -> CampaignCase {
        let spec = DeploymentSpec {
            seed,
            ..Default::default()
        };
        let deployed = || {
            let sim = Sim::new();
            let d = deploy(&sim, WorkflowConfig::FnXGlobus, &spec, tracing.tracer());
            (sim, d)
        };
        let (mol_sim, mol_d) = deployed();
        let (fine_sim, fine_d) = deployed();
        let mol = moldesign::MolDesignParams {
            library_size: scale.library,
            budget: Duration::from_secs(scale.node_hours * 3600),
            ensemble_size: 8,
            seed,
            ..Default::default()
        };
        let fine = finetune::FinetuneParams {
            target_new: scale.finetune_target,
            seed,
            ..Default::default()
        };
        CampaignCase {
            mol: (mol_sim, mol_d, mol),
            fine: (fine_sim, fine_d, fine),
        }
    }

    fn run(self) -> Outputs {
        let CampaignCase { mol, fine } = self;
        let m = moldesign::run(&mol.0, &mol.1, mol.2);
        let f = finetune::run(&fine.0, &fine.1, fine.2);
        let mut out = Outputs::default();
        let records = m.records.len() as u64 + f.records.len() as u64;
        out.ops = records;
        let lost = (m.failed + m.shed + f.shed) as u64;
        if lost > 0 {
            out.violations.push(format!(
                "paper_campaigns: {lost} tasks failed or shed without chaos"
            ));
        }
        for (key, value) in [
            ("moldesign.simulations", m.simulations as u64),
            ("moldesign.found", m.found as u64),
            ("moldesign.tasks", m.records.len() as u64),
            ("moldesign.end_ns", m.end.as_nanos()),
            ("finetune.training_rounds", f.training_rounds as u64),
            ("finetune.new_structures", f.new_structures as u64),
            ("finetune.force_rmsd_bits", f.final_force_rmsd.to_bits()),
            ("finetune.tasks", f.records.len() as u64),
            ("finetune.end_ns", f.end.as_nanos()),
        ] {
            out.observed.push((key.to_string(), value));
        }
        for (app, recs) in [("moldesign", &m.records), ("finetune", &f.records)] {
            for topic in ["simulate", "sample", "train", "infer"] {
                let n = recs.iter().filter(|r| r.topic.as_str() == topic).count() as u64;
                out.observed.push((format!("{app}.topic.{topic}"), n));
            }
        }
        for d in [&mol.1, &fine.1] {
            if d.tracer.is_enabled() {
                out.traces.push(TraceCounts::of(&d.tracer));
            }
        }
        out
    }
}

// --------------------------------------------------------------------
// hetlint_cold
// --------------------------------------------------------------------

/// Directory of the fixed lint corpus, relative to this package.
const CORPUS_DIR: &str = "fixtures/corpus";

/// The fixed hetlint corpus, read into memory.
pub struct Corpus {
    /// `(context, source)` per classified file, in path order.
    pub files: Vec<(FileContext, String)>,
    /// R5/R13–R15 budgets from the corpus's own ratchet file.
    pub budgets: ratchet::Ratchet,
    /// FNV-1a 64 over every file's path and bytes, in path order.
    pub hash: u64,
    /// Bytes of source read.
    pub bytes: u64,
}

/// Per-phase host seconds of one lint pass (the traced run's spans).
#[derive(Clone, Copy, Debug, Default)]
pub struct LintSpans {
    /// Summed `lint_file` time over the corpus.
    pub per_file_s: f64,
    /// `finish_workspace` time (R7–R16 and report assembly).
    pub cross_s: f64,
}

impl Corpus {
    /// The corpus root inside this package.
    pub fn root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join(CORPUS_DIR)
    }

    /// Reads up to `limit` classified files plus the ratchet.
    pub fn read(limit: usize) -> Result<Corpus, String> {
        let root = Corpus::root();
        let err = |e: std::io::Error| format!("reading the lint corpus at {}: {e}", root.display());
        let ratchet_text = std::fs::read_to_string(root.join("hetlint.ratchet")).map_err(err)?;
        let budgets = ratchet::parse(&ratchet_text)?;
        let mut files = Vec::new();
        let mut hash = hetflow_sim::rng::fnv1a(ratchet_text.as_bytes());
        let mut bytes = ratchet_text.len() as u64;
        for path in hetflow_lint::collect_sources(&root).map_err(err)? {
            let rel = path
                .strip_prefix(&root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let Some(ctx) = hetflow_lint::classify(&rel) else {
                continue;
            };
            if files.len() >= limit {
                break;
            }
            let source = std::fs::read_to_string(&path).map_err(err)?;
            hash = fold(fold(hash, rel.as_bytes()), source.as_bytes());
            bytes += source.len() as u64;
            files.push((ctx, source));
        }
        if files.is_empty() {
            return Err(format!("the lint corpus at {} is empty", root.display()));
        }
        Ok(Corpus {
            files,
            budgets,
            hash,
            bytes,
        })
    }

    /// One uncached hetlint pass over the corpus; with `spans`, records
    /// the per-phase times.
    pub fn lint(&self, spans: Option<&mut LintSpans>) -> Outputs {
        let t0 = std::time::Instant::now();
        let linted: Vec<LintedFile> = self
            .files
            .iter()
            .map(|(ctx, src)| hetflow_lint::lint_file(ctx, src))
            .collect();
        let t1 = std::time::Instant::now();
        let report = hetflow_lint::finish_workspace(linted, &self.budgets).report;
        if let Some(s) = spans {
            s.per_file_s = (t1 - t0).as_secs_f64();
            s.cross_s = t1.elapsed().as_secs_f64();
        }
        let mut out = Outputs {
            ops: self.files.len() as u64,
            ..Outputs::default()
        };
        if !report.clean() {
            out.violations.push(format!(
                "hetlint_cold: corpus not clean ({} violations, {} bad allows)",
                report.violations.len(),
                report.bad_allows.len()
            ));
        }
        for (key, value) in [
            ("files_scanned", report.files_scanned as u64),
            ("violations", report.violations.len() as u64),
            ("bad_allows", report.bad_allows.len() as u64),
            ("suppressed", report.suppressed.len() as u64),
            ("corpus_hash", self.hash),
            ("corpus_bytes", self.bytes),
        ] {
            out.observed.push((format!("hetlint.{key}"), value));
        }
        out
    }
}

fn fold(mut h: u64, bytes: &[u8]) -> u64 {
    // FNV-1a continued from `h`, with a separator so that path/content
    // boundaries are part of the hash.
    for &b in bytes.iter().chain(std::iter::once(&0u8)) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
