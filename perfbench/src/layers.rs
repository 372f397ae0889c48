//! The traced run: per-layer metrics.
//!
//! Spans are recorded here, around calls into each layer's public API,
//! never inside the program. The run has three parts:
//!
//! 1. the workload itself, alternately untraced and traced (the
//!    program's `Tracer` on, lint phases timed), for `trace_overhead_frac`;
//! 2. the layer ladder: a no-op lifecycle built up one layer per row
//!    (sim → channel → store → fabric → steer → proxied campaign, plus the
//!    reliability stack), every row at two sizes;
//! 3. single-layer probes (timer wheel, channel, store round trips,
//!    deploy, ml/chem kernels, lint phases) and a traced reference storm
//!    whose digest is pinned.
//!
//! The probes use fixed seeds, so every workload's traced run reports the
//! same per-layer set; only part 1 depends on `--workload` and `--seed`.

use crate::report::{median, Metrics};
use crate::workloads::{self, Corpus, LintSpans, Outputs, Scale, Tracing};
use crate::{alloc, pins, Checker, RunResult};
use hetflow_chem::{
    pretraining_set, run_md, solvated_methane, MdParams, MoleculeLibrary, MorsePes,
};
use hetflow_core::platform::{THETA, VENTI};
use hetflow_core::{deploy, Calibration, DeploymentSpec, WorkflowConfig};
use hetflow_fabric::{
    EndpointSpec, Fabric, FnXExecutor, HedgeConfig, HtexEndpoint, HtexExecutor, Knob,
    ReliabilityPolicies, ReliabilityPolicy, RetryPolicies, TaskFn, TaskResult, TaskSpec, TaskWork,
    WorkerPoolConfig,
};
use hetflow_ml::{
    bag_indices, LabelledStructure, PairPotParams, PairPotential, RadialBasis, RffRidge,
    SurrogateParams,
};
use hetflow_sim::{channel, OverflowPolicy, Receiver, RunReport, Sim, SimRng, Symbol, Tracer};
use hetflow_steer::{ClientQueues, Payload, QueueConfig, TaskServer};
use hetflow_store::{
    Backend, EvictionPolicy, GlobusBackend, GlobusService, ProxyPolicy, SiteId, Store,
};
use std::any::Any;
use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Seed of every probe (fixed, so per-layer figures compare across runs).
const PROBE_SEED: u64 = workloads::DEFAULT_SEED;

/// Timed repetitions per probe; the median is reported.
const REPS: usize = 3;

/// Trace kinds reported as `trace.<kind>` (the registry in
/// `hetflow_sim::trace::kinds` at the time the benchmark was written; a
/// kind that disappears reads 0).
pub const TRACE_KINDS: [&str; 17] = [
    "task_created",
    "task_started",
    "task_retry",
    "task_finished",
    "task_failed",
    "task_timeout",
    "result_received",
    "breaker_opened",
    "breaker_closed",
    "task_hedged",
    "task_cancelled",
    "task_rerouted",
    "task_shed",
    "backpressure_on",
    "backpressure_off",
    "fidelity_degraded",
    "fidelity_restored",
];

/// Ladder rows, in build-up order.
pub const LADDER: [&str; 11] = [
    "ladder.sim",
    "ladder.channel",
    "ladder.store_fs",
    "ladder.store_redis",
    "ladder.store_globus",
    "ladder.fnx",
    "ladder.htex",
    "ladder.steer_fnx",
    "ladder.steer_htex",
    "ladder.proxied",
    "ladder.reliability",
];

/// The traced run of `workload`.
pub fn traced(workload: &str, seed: u64, seconds: f64, scale: Scale) -> Result<RunResult, String> {
    let mut checker = Checker::default();
    let overhead = workload_overhead(workload, seed, seconds, scale, &mut checker)?;
    let mut metrics = Metrics::default();
    probes(&mut metrics, scale, &mut checker)?;
    metrics.push("trace_overhead_frac", overhead, "frac");
    Ok(RunResult {
        attempted: checker.attempted,
        failed: checker.failed,
        problems: checker.problems,
        metrics,
    })
}

/// Alternates untraced and traced repetitions of the workload for
/// `seconds` and returns `median(traced) / median(untraced) - 1`. Tracing
/// must not change any output.
fn workload_overhead(
    workload: &str,
    seed: u64,
    seconds: f64,
    scale: Scale,
    checker: &mut Checker,
) -> Result<f64, String> {
    let started = Instant::now();
    let (mut off, mut on) = (Vec::new(), Vec::new());
    while off.len() < 2 || started.elapsed().as_secs_f64() < seconds {
        let mut outs: Vec<Outputs> = Vec::new();
        for (tracing, walls) in [(Tracing::Off, &mut off), (Tracing::On, &mut on)] {
            let prepared = workloads::setup(workload, seed, scale, tracing)?;
            let t = Instant::now();
            let out = workloads::run(black_box(prepared));
            walls.push(t.elapsed().as_secs_f64());
            checker.record(workload, seed, scale, &out);
            outs.push(out);
        }
        if outs[0].observed != outs[1].observed {
            checker
                .problems
                .push(format!("{workload}: tracing changed the outputs"));
        }
    }
    Ok(median(&on) / median(&off) - 1.0)
}

/// Every per-layer probe, in a fixed order.
pub fn probes(m: &mut Metrics, scale: Scale, checker: &mut Checker) -> Result<(), String> {
    kernel_probes(m, scale);
    ladder(m, scale, checker);
    flood_counts(m, scale, checker)?;
    store_probes(m, scale);
    deploy_probes(m);
    campaign_probes(m, scale, checker)?;
    lint_probes(m, scale)?;
    reference_storm(m, scale, checker)?;
    Ok(())
}

/// Median wall seconds of `REPS` runs of `f`.
fn timed<T>(mut f: impl FnMut() -> T) -> f64 {
    let walls: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&walls)
}

// --------------------------------------------------------------------
// sim
// --------------------------------------------------------------------

fn kernel_probes(m: &mut Metrics, scale: Scale) {
    let fires = (scale.ladder_sizes[1] * 10) as u64;
    let mut fired = 0;
    let wall = timed(|| fired = timer_churn(fires));
    m.push("sim.timer_ns", wall * 1e9 / fired.max(1) as f64, "ns");
    let wall = timed(|| channel_churn(fires));
    m.push("sim.channel_ns", wall * 1e9 / fires as f64, "ns");
}

/// 200 sleepers with staggered delays share `fires` timer fires.
fn timer_churn(fires: u64) -> u64 {
    let sim = Sim::new();
    let sleepers = 200u64;
    for s in 0..sleepers {
        let sim2 = sim.clone();
        sim.spawn_detached(async move {
            for r in 0..fires / sleepers {
                sim2.sleep(Duration::from_micros(1 + (s * 31 + r * 7) % 97))
                    .await;
            }
        });
    }
    sim.run().timer_fires
}

/// One producer streams `n` messages to one consumer; a 1 µs gap per
/// message parks the consumer so every delivery wakes it.
fn channel_churn(n: u64) -> u64 {
    let sim = Sim::new();
    let (tx, rx) = channel::<u64>();
    let sim2 = sim.clone();
    sim.spawn_detached(async move {
        for i in 0..n {
            sim2.sleep(Duration::from_micros(1)).await;
            let _ = tx.send_now(i);
        }
    });
    let h = sim.spawn(async move {
        let mut got = 0;
        while rx.recv().await.is_some() {
            got += 1;
        }
        got
    });
    sim.block_on(h)
}

// --------------------------------------------------------------------
// The ladder
// --------------------------------------------------------------------

/// Gap between no-op submissions in the rows that pace themselves.
const GAP: Duration = Duration::from_millis(1);
/// No-op task work (virtual).
const NOOP_WORK: Duration = Duration::from_millis(5);

/// One row at one size: `(report, tasks completed)`.
type Row = fn(usize) -> (RunReport, u64);

fn ladder(m: &mut Metrics, scale: Scale, checker: &mut Checker) {
    let rows: [Row; 11] = [
        row_sim,
        row_channel,
        |n| row_store(n, StoreBackend::Fs),
        |n| row_store(n, StoreBackend::Redis),
        |n| row_store(n, StoreBackend::Globus),
        |n| row_fabric(n, Fab::FnX, false),
        |n| row_fabric(n, Fab::Htex, false),
        |n| row_steer(n, Fab::FnX, false),
        |n| row_steer(n, Fab::Htex, false),
        |n| row_steer(n, Fab::FnX, true),
        |n| row_fabric(n, Fab::FnX, true),
    ];
    let [small, large] = scale.ladder_sizes;
    for (name, row) in LADDER.iter().zip(rows) {
        let mut ns = [0.0; 2];
        let mut counts = [(0u64, 0u64); 2];
        for (i, n) in [small, large].into_iter().enumerate() {
            let mut walls = Vec::new();
            for _ in 0..REPS {
                let a0 = alloc::allocs();
                let t = Instant::now();
                let (report, done) = row(n);
                walls.push(t.elapsed().as_secs_f64());
                // Counts repeat exactly once interning and thread-locals
                // are warm: keep the last repetition's.
                counts[i] = (alloc::allocs() - a0, report.polls);
                checker.attempted += n as u64;
                if done != n as u64 {
                    checker.failed += n as u64 - done;
                    checker
                        .problems
                        .push(format!("{name}: {done} of {n} no-op tasks completed"));
                }
            }
            ns[i] = median(&walls) * 1e9 / n as f64;
        }
        // Marginal counts between the two sizes cancel fixed set-up cost.
        let extra = (large - small) as f64;
        m.push(format!("{name}.ns_per_task_1k"), ns[0], "ns");
        m.push(format!("{name}.ns_per_task_10k"), ns[1], "ns");
        m.push(
            format!("{name}.allocs_per_task"),
            (counts[1].0 as f64 - counts[0].0 as f64) / extra,
            "count",
        );
        m.push(
            format!("{name}.polls_per_task"),
            (counts[1].1 as f64 - counts[0].1 as f64) / extra,
            "count",
        );
    }
    let get = |k: &str| m.get(k).unwrap_or(f64::NAN);
    let (fnx, htex) = (
        get("ladder.fnx.ns_per_task_10k"),
        get("ladder.htex.ns_per_task_10k"),
    );
    let steer = get("ladder.steer_fnx.ns_per_task_10k") - fnx;
    let (rel_small, rel_large) = (
        get("ladder.reliability.ns_per_task_1k"),
        get("ladder.reliability.ns_per_task_10k"),
    );
    m.push("fabric.fnx_ns_per_task", fnx, "ns");
    m.push("fabric.htex_ns_per_task", htex, "ns");
    m.push("steer.ns_per_task", steer, "ns");
    m.push("fabric.reliability_ns_per_task_1k", rel_small, "ns");
    m.push("fabric.reliability_ns_per_task_10k", rel_large, "ns");
    m.push("fabric.hedge_growth", rel_large / rel_small, "ratio");
}

/// Sim only: one spawned task per no-op, sleeping its work.
fn row_sim(n: usize) -> (RunReport, u64) {
    let sim = Sim::new();
    let done = Rc::new(Cell::new(0u64));
    let (s, d) = (sim.clone(), Rc::clone(&done));
    sim.spawn_detached(async move {
        for _ in 0..n {
            let (s2, d2) = (s.clone(), Rc::clone(&d));
            s.spawn_detached(async move {
                s2.sleep(NOOP_WORK).await;
                d2.set(d2.get() + 1);
            });
            s.sleep(GAP).await;
        }
    });
    let report = sim.run();
    (report, done.get())
}

/// Adds a channel: each no-op reports through a channel to one consumer.
fn row_channel(n: usize) -> (RunReport, u64) {
    let sim = Sim::new();
    let (tx, rx) = channel::<u64>();
    let s = sim.clone();
    sim.spawn_detached(async move {
        for i in 0..n as u64 {
            let (s2, tx2) = (s.clone(), tx.clone());
            s.spawn_detached(async move {
                s2.sleep(NOOP_WORK).await;
                let _ = tx2.send_now(i);
            });
            s.sleep(GAP).await;
        }
    });
    count_received(&sim, rx, n)
}

fn count_received<T: 'static>(sim: &Sim, rx: Receiver<T>, n: usize) -> (RunReport, u64) {
    let done = Rc::new(Cell::new(0u64));
    let d = Rc::clone(&done);
    sim.spawn_detached(async move {
        for _ in 0..n {
            if rx.recv().await.is_none() {
                break;
            }
            d.set(d.get() + 1);
        }
    });
    let report = sim.run();
    (report, done.get())
}

#[derive(Clone, Copy)]
enum StoreBackend {
    Fs,
    Redis,
    Globus,
}

/// The deployment's store for `backend`, with one-shot eviction so the
/// object table recycles, plus the (put, get) sites the deployments use.
fn make_store(sim: &Sim, backend: StoreBackend) -> (Store, SiteId, SiteId) {
    let cal = Calibration::default();
    let rng = SimRng::stream(PROBE_SEED, "perfbench-store");
    let (store, get_at) = match backend {
        StoreBackend::Fs => (
            Store::new(sim.clone(), "fs", Backend::Fs(cal.fs_theta.clone()), rng),
            THETA,
        ),
        StoreBackend::Redis => (
            Store::new(sim.clone(), "redis", Backend::Redis(cal.redis.clone()), rng),
            VENTI,
        ),
        StoreBackend::Globus => {
            let service = GlobusService::new(sim.clone(), cal.globus.clone(), rng.substream(1));
            let backend = Backend::Globus(Box::new(GlobusBackend {
                service,
                src_fs: cal.fs_theta.clone(),
                dst_fs: cal.fs_venti.clone(),
                push_to: vec![THETA, VENTI],
            }));
            (Store::new(sim.clone(), "globus", backend, rng), VENTI)
        }
    };
    store.set_eviction(EvictionPolicy::AfterResolves(1));
    (store, THETA, get_at)
}

/// Adds the store: each no-op puts a 50 kB object and gets it back before
/// reporting through the channel.
fn row_store(n: usize, backend: StoreBackend) -> (RunReport, u64) {
    let sim = Sim::new();
    let (store, put_at, get_at) = make_store(&sim, backend);
    let (tx, rx) = channel::<u64>();
    let s = sim.clone();
    sim.spawn_detached(async move {
        let value: Rc<dyn Any> = Rc::new(());
        for i in 0..n as u64 {
            let (s2, tx2, st, v) = (s.clone(), tx.clone(), store.clone(), Rc::clone(&value));
            s.spawn_detached(async move {
                let Ok(key) = st.put_raw(v, 50_000, put_at).await else {
                    return;
                };
                if st.get_raw(key, get_at).await.is_ok() {
                    s2.sleep(NOOP_WORK).await;
                    let _ = tx2.send_now(i);
                }
            });
            s.sleep(GAP).await;
        }
    });
    count_received(&sim, rx, n)
}

#[derive(Clone, Copy)]
enum Fab {
    FnX,
    Htex,
}

fn noop_pool(policy: ProxyPolicy) -> WorkerPoolConfig {
    let cal = Calibration::default();
    WorkerPoolConfig {
        site: THETA,
        label: "theta".into(),
        workers: 8,
        result_policy: policy,
        ser: cal.ser.clone(),
        local_hop: cal.worker_hop.clone(),
        failure: None,
        retry: RetryPolicies::default(),
        start_delays: Vec::new(),
        pace: Knob::new(1.0),
        crash: Knob::new(0.0),
        queue_capacity: 0,
        overflow: OverflowPolicy::default(),
    }
}

/// The probes' reliability stack: hedging at q0.95 with two reroutes and
/// a deadline, over a primary and one failover endpoint.
fn hedged_policies() -> ReliabilityPolicies {
    let policy = ReliabilityPolicy {
        hedge: HedgeConfig {
            quantile: 0.95,
            factor: 1.0,
            min_samples: 8,
            max_hedges: 1,
        },
        max_reroutes: 2,
        deadline: Duration::from_secs(60),
        ..Default::default()
    };
    ReliabilityPolicies {
        default: policy.clone(),
        ..Default::default()
    }
    .with_topic("noop", policy)
}

/// A fabric with one (or, for the reliability row, two) Theta endpoints
/// serving `noop`, plus its result channel.
fn make_fabric(
    sim: &Sim,
    fab: Fab,
    reliable: bool,
    policy: ProxyPolicy,
) -> (Rc<dyn Fabric>, Receiver<TaskResult>) {
    let cal = Calibration::default();
    let (tx, rx) = channel();
    let rng = SimRng::stream(PROBE_SEED, "perfbench-fabric");
    let endpoints = if reliable { 2 } else { 1 };
    let policies = if reliable {
        hedged_policies()
    } else {
        ReliabilityPolicies::default()
    };
    let fabric: Rc<dyn Fabric> = match fab {
        Fab::FnX => Rc::new(FnXExecutor::with_reliability(
            sim,
            cal.fnx.clone(),
            (0..endpoints)
                .map(|_| EndpointSpec::reliable(noop_pool(policy.clone()), vec!["noop"]))
                .collect(),
            tx,
            rng,
            Tracer::disabled(),
            policies,
        )),
        Fab::Htex => Rc::new(HtexExecutor::with_reliability(
            sim,
            cal.htex.clone(),
            (0..endpoints)
                .map(|_| HtexEndpoint {
                    pool: noop_pool(policy.clone()),
                    topics: vec!["noop"],
                    link: cal.link_theta.clone(),
                })
                .collect(),
            tx,
            rng,
            Tracer::disabled(),
            policies,
        )),
    };
    (fabric, rx)
}

/// The fabric alone (no steer): submit `TaskSpec::noop`s straight to the fabric,
/// one after another as the task server does, and count the results.
fn row_fabric(n: usize, fab: Fab, reliable: bool) -> (RunReport, u64) {
    let sim = Sim::new();
    let (fabric, rx) = make_fabric(&sim, fab, reliable, ProxyPolicy::disabled());
    sim.spawn_detached(async move {
        for i in 0..n as u64 {
            fabric.submit(TaskSpec::noop(i, 1_000)).await;
        }
    });
    count_received(&sim, rx, n)
}

/// Adds steer: the same fabric behind a task server and thinker queues;
/// with `proxied`, 50 kB inputs go through a Redis store (the full
/// proxied lifecycle).
fn row_steer(n: usize, fab: Fab, proxied: bool) -> (RunReport, u64) {
    let sim = Sim::new();
    let cal = Calibration::default();
    let (policy, bytes) = if proxied {
        let (store, _, _) = make_store(&sim, StoreBackend::Redis);
        (ProxyPolicy::uniform(store, cal.proxy_threshold), 50_000)
    } else {
        (ProxyPolicy::disabled(), 1_000)
    };
    let (fabric, results) = make_fabric(&sim, fab, false, policy.clone());
    let queues = TaskServer::start(
        &sim,
        QueueConfig {
            thinker_site: THETA,
            queue_latency: cal.queue_latency.clone(),
            queue_bandwidth: cal.queue_bandwidth,
            ser: cal.ser.clone(),
            policy,
        },
        fabric,
        results,
        &["noop"],
        SimRng::stream(PROBE_SEED, "perfbench-steer"),
        Tracer::disabled(),
    );
    let q = queues.clone();
    sim.spawn_detached(async move {
        let topic = Symbol::intern("noop");
        let compute: TaskFn = Rc::new(|_| TaskWork::noop());
        let unit: Rc<dyn Any> = Rc::new(());
        for _ in 0..n {
            q.submit(
                topic,
                [Payload::shared(Rc::clone(&unit), bytes)],
                Rc::clone(&compute),
            )
            .await;
        }
    });
    let done = Rc::new(Cell::new(0u64));
    let d = Rc::clone(&done);
    sim.spawn_detached(collect_results(queues, n, d));
    let report = sim.run();
    (report, done.get())
}

async fn collect_results(q: ClientQueues, n: usize, done: Rc<Cell<u64>>) {
    let topic = Symbol::intern("noop");
    for _ in 0..n {
        let Some(r) = q.get_result(topic).await else {
            break;
        };
        let r = r.resolve().await;
        if !r.is_failed() && !r.is_shed() {
            done.set(done.get() + 1);
        }
    }
}

// --------------------------------------------------------------------
// Kernel counts on the flood, store and deploy probes
// --------------------------------------------------------------------

/// `lifecycle_flood` at probe size: exact polls and timer fires per task
/// from the kernel's `RunReport`, and per-configuration store traffic.
fn flood_counts(m: &mut Metrics, scale: Scale, checker: &mut Checker) -> Result<(), String> {
    let probe = Scale {
        flood_tasks: scale.probe_tasks,
        pinned: false,
        ..scale
    };
    let out = workloads::run(workloads::setup(
        "lifecycle_flood",
        PROBE_SEED,
        probe,
        Tracing::Off,
    )?);
    checker.record("lifecycle_flood", PROBE_SEED, probe, &out);
    let tasks = out.ops.max(1) as f64;
    m.push("sim.polls_per_task", out.polls as f64 / tasks, "count");
    m.push(
        "sim.timer_fires_per_task",
        out.timer_fires as f64 / tasks,
        "count",
    );
    for config in ["parsl_redis", "fnx_globus"] {
        for op in ["puts", "gets"] {
            let key = format!("{config}.store_{op}");
            let v = out
                .observed
                .iter()
                .find(|(k, _)| *k == key)
                .map_or(f64::NAN, |(_, v)| *v as f64);
            m.push(format!("store.{op}.{config}"), v, "count");
        }
    }
    Ok(())
}

/// ns per sequential put+get round trip through the `Store` API.
fn store_probes(m: &mut Metrics, scale: Scale) {
    for (name, backend) in [
        ("store.fs_ns", StoreBackend::Fs),
        ("store.redis_ns", StoreBackend::Redis),
        ("store.globus_ns", StoreBackend::Globus),
    ] {
        let n = scale.ladder_sizes[1];
        let wall = timed(|| store_round_trips(n, backend));
        m.push(name, wall * 1e9 / n as f64, "ns");
    }
}

fn store_round_trips(n: usize, backend: StoreBackend) -> usize {
    let sim = Sim::new();
    let (store, put_at, get_at) = make_store(&sim, backend);
    let h = sim.spawn(async move {
        let value: Rc<dyn Any> = Rc::new(());
        let mut done = 0;
        for _ in 0..n {
            let Ok(key) = store.put_raw(Rc::clone(&value), 50_000, put_at).await else {
                break;
            };
            if store.get_raw(key, get_at).await.is_err() {
                break;
            }
            done += 1;
        }
        done
    });
    sim.block_on(h)
}

/// `core::deploy` per configuration, median of 15.
fn deploy_probes(m: &mut Metrics) {
    for config in WorkflowConfig::all() {
        let spec = DeploymentSpec {
            seed: PROBE_SEED,
            ..Default::default()
        };
        let walls: Vec<f64> = (0..15)
            .map(|_| {
                let sim = Sim::new();
                let t = Instant::now();
                let d = deploy(&sim, config, &spec, Tracer::disabled());
                let wall = t.elapsed().as_secs_f64();
                drop(black_box(d));
                wall
            })
            .collect();
        m.push(
            format!("core.deploy_ms.{}", workloads::config_key(config)),
            median(&walls) * 1e3,
            "ms",
        );
    }
}

// --------------------------------------------------------------------
// ml / chem kernels and the campaigns they explain
// --------------------------------------------------------------------

/// Host seconds of the science kernels the campaigns call.
#[derive(Clone, Copy, Debug)]
struct Kernels {
    library_s: f64,
    rff_fit_s: f64,
    predict_s_per_mol: f64,
    pairpot_fit_s: f64,
    md_s_per_step: f64,
}

/// MD steps per finetune sampling task: the mean of its 20 → 1000 ramp.
const FINETUNE_MD_STEPS: usize = 510;

/// Times the ml/chem kernels the campaigns call; surrogates are fitted on
/// a bag of a `database`-molecule training set, as moldesign's are.
fn science_probes(m: &mut Metrics, scale: Scale, database: usize) -> Kernels {
    let library = MoleculeLibrary::generate(scale.library, PROBE_SEED);
    let library_s = timed(|| MoleculeLibrary::generate(scale.library, PROBE_SEED));

    let mut rng = SimRng::stream(PROBE_SEED, "perfbench-ml");
    let database = database.clamp(8, scale.library);
    let bag = bag_indices(database, hetflow_ml::DEFAULT_BAG_FRACTION, &mut rng);
    let inputs: Vec<Vec<f64>> = bag.iter().map(|&i| library.features(i).to_vec()).collect();
    let targets: Vec<f64> = bag.iter().map(|&i| library.true_ip(i)).collect();
    let fit = |rng: &mut SimRng| RffRidge::fit(&inputs, &targets, SurrogateParams::default(), rng);
    let model = fit(&mut rng.substream(1)).ok();
    let rff_fit_s = timed(|| fit(&mut rng.substream(1)).is_ok());
    let predict_s = timed(|| match &model {
        Some(model) => (0..library.len())
            .map(|i| model.predict(&library.features(i)))
            .sum::<f64>(),
        None => f64::NAN,
    });

    let approx = MorsePes::approx();
    let data: Vec<LabelledStructure> = pretraining_set(220, PROBE_SEED)
        .iter()
        .enumerate()
        .map(|(i, s)| LabelledStructure::from_model(s, &approx, i % 8 == 0))
        .collect();
    let pairpot = || {
        PairPotential::fit(
            &data,
            RadialBasis::default_for_clusters(),
            PairPotParams {
                force_weight: 8.0,
                ..Default::default()
            },
        )
    };
    let potential = pairpot().ok();
    let pairpot_fit_s = timed(|| pairpot().is_ok());
    let start = solvated_methane(PROBE_SEED);
    let md_s = timed(|| match &potential {
        Some(p) => {
            let params = MdParams {
                dt: 0.005,
                steps: FINETUNE_MD_STEPS,
                init_temp: 0.05,
                sample_every: 128,
            };
            run_md(p, &start, params, &mut rng.substream(2))
                .frames
                .len()
        }
        None => 0,
    });

    let k = Kernels {
        library_s,
        rff_fit_s,
        predict_s_per_mol: predict_s / library.len() as f64,
        pairpot_fit_s,
        md_s_per_step: md_s / FINETUNE_MD_STEPS as f64,
    };
    m.push("chem.library_ms", k.library_s * 1e3, "ms");
    m.push("ml.rff_fit_ms", k.rff_fit_s * 1e3, "ms");
    m.push("ml.predict_ns_per_mol", k.predict_s_per_mol * 1e9, "ns");
    m.push("ml.pairpot_fit_ms", k.pairpot_fit_s * 1e3, "ms");
    m.push("chem.md_ns_per_step", k.md_s_per_step * 1e9, "ns");
    k
}

/// Runs `paper_campaigns` once at the probe seed, times its kernels, and
/// reports `apps.accounted_frac`: the share of the run's wall time the
/// kernel probes explain, given the campaign's per-topic task counts.
/// Moldesign builds its library once, fits one surrogate per train task
/// (on a database that grows from empty, so the probe fits on half the
/// final one) and scores the whole library per infer task; finetune fits
/// one pair potential per train task and runs one MD trajectory per
/// sample task. Everything else the campaigns do is unexplained.
fn campaign_probes(m: &mut Metrics, scale: Scale, checker: &mut Checker) -> Result<(), String> {
    let prepared = workloads::setup("paper_campaigns", PROBE_SEED, scale, Tracing::Off)?;
    let t = Instant::now();
    let out = workloads::run(prepared);
    let wall = t.elapsed().as_secs_f64();
    checker.record("paper_campaigns", PROBE_SEED, scale, &out);
    let count = |key: &str| {
        out.observed
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0.0, |(_, v)| *v as f64)
    };
    let k = science_probes(m, scale, count("moldesign.simulations") as usize / 2);
    let explained = k.library_s
        + count("moldesign.topic.train") * k.rff_fit_s
        + count("moldesign.topic.infer") * scale.library as f64 * k.predict_s_per_mol
        + count("finetune.topic.train") * k.pairpot_fit_s
        + count("finetune.topic.sample") * FINETUNE_MD_STEPS as f64 * k.md_s_per_step;
    m.push("apps.accounted_frac", explained / wall, "frac");
    Ok(())
}

// --------------------------------------------------------------------
// lint
// --------------------------------------------------------------------

fn lint_probes(m: &mut Metrics, scale: Scale) -> Result<(), String> {
    let corpus = Corpus::read(scale.lint_files)?;
    let mut spans = LintSpans::default();
    black_box(corpus.lint(Some(&mut spans)));
    let linted: Vec<_> = corpus
        .files
        .iter()
        .map(|(ctx, src)| hetflow_lint::lint_file(ctx, src))
        .collect();
    let t = Instant::now();
    black_box(hetflow_lint::graph::build(&linted));
    let graph_s = t.elapsed().as_secs_f64();
    m.push("lint.per_file_s", spans.per_file_s, "s");
    m.push("lint.graph_s", graph_s, "s");
    m.push("lint.cross_s", spans.cross_s, "s");
    Ok(())
}

// --------------------------------------------------------------------
// The traced reference storm
// --------------------------------------------------------------------

/// `reliability_storm` at probe size with the program's `Tracer` on:
/// reliability counters, the useful-work ratio, per-kind trace counts,
/// and the digest pins.
fn reference_storm(m: &mut Metrics, scale: Scale, checker: &mut Checker) -> Result<(), String> {
    let probe = Scale {
        storm_tasks: scale.probe_tasks,
        storm_junk: (scale.probe_tasks / 5) as u32,
        pinned: false,
        ..scale
    };
    let out = workloads::run(workloads::setup(
        "reliability_storm",
        PROBE_SEED,
        probe,
        Tracing::On,
    )?);
    checker.record("reliability_storm", PROBE_SEED, probe, &out);
    for t in &out.traces {
        eprintln!("reference storm: trace digest {:#018x}", t.digest);
    }
    if scale.pinned {
        checker.problems.extend(pins::check_trace(&out.traces));
    }
    let sum = |key: &str| -> f64 {
        out.observed
            .iter()
            .filter(|(k, _)| k.ends_with(&format!(".{key}")))
            .map(|(_, v)| *v as f64)
            .sum()
    };
    for key in ["hedged", "rerouted", "cancelled", "shed", "timed_out"] {
        m.push(format!("fabric.{key}"), sum(key), "count");
    }
    // Each hedge and each reroute dispatches one extra copy.
    let terminal = out.ops as f64;
    m.push(
        "fabric.useful_ratio",
        terminal / (terminal + sum("hedged") + sum("rerouted")),
        "ratio",
    );
    for kind in TRACE_KINDS {
        let idx = hetflow_sim::trace_kinds::ALL
            .iter()
            .position(|k| *k == kind);
        let n: u64 = out
            .traces
            .iter()
            .map(|t| idx.map_or(0, |j| t.per_kind[j]))
            .sum();
        m.push(format!("trace.{kind}"), n as f64, "count");
    }
    Ok(())
}
