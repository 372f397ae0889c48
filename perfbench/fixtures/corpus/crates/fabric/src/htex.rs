//! HTEX — the direct-connection executor baseline (the paper's Parsl
//! HighThroughputExecutor, §V-B).
//!
//! An *interchange* process co-located with the task server forwards
//! tasks over direct TCP links to per-resource managers, which hand them
//! to workers. This requires two open ports (or a tunnel) per resource —
//! the deployment burden the cloud-managed approach removes — but moves
//! payloads at LAN/tunnel bandwidth instead of through cloud storage
//! tiers.
//!
//! Without ProxyStore, large task data rides these links and is
//! re-serialized at each hop; the per-byte cost below is the *effective*
//! aggregate (pickle passes + ZMQ copies), calibrated so a 3 MB payload
//! costs ~hundreds of ms end-to-end (Fig. 7b) while multi-GB inference
//! payloads remain feasible, merely slow (Fig. 6).

use crate::fabric::Fabric;
use crate::health::{ReliabilityLayer, ReliabilityPolicies, TimeoutVerdict, Verdict};
use crate::reliability::chaos::ChaosTargets;
use crate::reliability::overload::{AdmissionConfig, AdmissionController, BackpressureGate};
use crate::reliability::{Knob, RetryPolicies};
use crate::task::{Arg, TaskError, TaskOutcome, TaskResult, TaskSpec, WorkerReport};
use crate::worker::{WorkerPool, WorkerPoolConfig};
use hetflow_sim::{
    channel, trace_kinds as kinds, Dist, Offered, OverflowPolicy, Sender, Sim, SimRng, Symbol,
    SymbolMap, Tracer,
};
use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;

/// Link from the interchange to one resource's manager.
#[derive(Clone, Debug)]
pub struct LinkParams {
    /// Per-message latency (TCP + framing).
    pub latency: Dist,
    /// Effective payload throughput, bytes/s, including the pickle
    /// passes at interchange and manager.
    pub bandwidth: f64,
}

impl LinkParams {
    /// A fast intra-facility link.
    pub fn local() -> Self {
        LinkParams { latency: Dist::LogNormal { median: 0.004, sigma: 0.3 }, bandwidth: 4.0e7 }
    }

    /// A cross-site tunnel (still a direct connection, higher latency).
    pub fn tunnel() -> Self {
        LinkParams { latency: Dist::LogNormal { median: 0.012, sigma: 0.3 }, bandwidth: 2.5e7 }
    }
}

/// Tunables of the interchange.
#[derive(Clone, Debug)]
pub struct HtexParams {
    /// Client→interchange hop (same login node).
    pub submit_hop: Dist,
    /// Interchange-side serialization throughput, bytes/s.
    pub interchange_bw: f64,
}

impl Default for HtexParams {
    fn default() -> Self {
        HtexParams {
            submit_hop: Dist::LogNormal { median: 0.002, sigma: 0.3 },
            interchange_bw: 1.0e8,
        }
    }
}

/// One resource behind the interchange.
pub struct HtexEndpoint {
    /// The pool this manager feeds.
    pub pool: WorkerPoolConfig,
    /// Task topics executed here.
    pub topics: Vec<&'static str>,
    /// The link from the interchange to this manager.
    pub link: LinkParams,
}

struct Inner {
    sim: Sim,
    params: HtexParams,
    /// Pre-interned `"htex/ep{i}"` trace actors, one per endpoint.
    actors: Vec<Symbol>,
    rng: RefCell<SimRng>,
    health: ReliabilityLayer,
    pools: Vec<WorkerPool>,
    links: Vec<LinkParams>,
    retries: Vec<RetryPolicies>,
    /// Per-endpoint link-degradation dials (chaos-engine targets).
    brownout: Vec<Knob>,
    /// Per-endpoint pool-queue bound and overflow policy (0 = unbounded).
    bounds: Vec<(usize, OverflowPolicy)>,
    /// Token-bucket/in-flight admission, consulted before the breaker
    /// layer; only topics with an enabled config appear in the map.
    admission: AdmissionController,
    admission_cfgs: SymbolMap<AdmissionConfig>,
    /// Per-topic depth watermark gate; empty when no topic configures
    /// backpressure.
    gate: BackpressureGate,
    /// Primary endpoint per routed topic (attribution for tasks shed
    /// before an endpoint is picked).
    primary: SymbolMap<usize>,
    results: Sender<TaskResult>,
    tracer: Tracer,
    submitted: Cell<u64>,
    returned: Cell<u64>,
    timed_out: Cell<u64>,
    shed: Cell<u64>,
    link_bytes: Cell<u64>,
}

/// The HTEX executor.
#[derive(Clone)]
pub struct HtexExecutor {
    inner: Rc<Inner>,
}

impl HtexExecutor {
    /// Builds the executor, spawning one pool per endpoint. Reliability
    /// mechanisms are disabled — see [`HtexExecutor::with_reliability`].
    pub fn new(
        sim: &Sim,
        params: HtexParams,
        endpoints: Vec<HtexEndpoint>,
        results: Sender<TaskResult>,
        rng: SimRng,
        tracer: Tracer,
    ) -> HtexExecutor {
        Self::with_reliability(
            sim,
            params,
            endpoints,
            results,
            rng,
            tracer,
            ReliabilityPolicies::default(),
        )
    }

    /// Builds the executor with an active [`ReliabilityLayer`],
    /// mirroring [`crate::faas::FnXExecutor::with_reliability`]: a topic
    /// registered on several endpoints fails over (first registration is
    /// primary), breakers steer dispatches away from unhealthy managers,
    /// and hedged/rerouted copies deliver exactly once.
    pub fn with_reliability(
        sim: &Sim,
        params: HtexParams,
        endpoints: Vec<HtexEndpoint>,
        results: Sender<TaskResult>,
        rng: SimRng,
        tracer: Tracer,
        policies: ReliabilityPolicies,
    ) -> HtexExecutor {
        let mut route: SymbolMap<Vec<usize>> = SymbolMap::new();
        let mut primary: SymbolMap<usize> = SymbolMap::new();
        let mut pools = Vec::new();
        let mut links = Vec::new();
        let mut retries = Vec::new();
        let mut brownout = Vec::new();
        let mut bounds = Vec::new();
        let mut pool_streams = Vec::new();
        for (i, ep) in endpoints.into_iter().enumerate() {
            for topic in &ep.topics {
                let sym = Symbol::intern(topic);
                let targets = route.get_or_insert_with(sym, Vec::new);
                if targets.is_empty() {
                    primary.insert(sym, i);
                }
                targets.push(i);
            }
            let (pool_res_tx, pool_res_rx) = channel::<TaskResult>();
            retries.push(ep.pool.retry.clone());
            bounds.push((ep.pool.queue_capacity, ep.pool.overflow));
            let pool = WorkerPool::spawn(
                sim,
                ep.pool,
                pool_res_tx,
                &rng.substream(i as u64),
                tracer.clone(),
            );
            pools.push(pool);
            links.push(ep.link);
            brownout.push(Knob::new(1.0));
            pool_streams.push(pool_res_rx);
        }
        // Overload protection mirrors the FnX fabric: admission configs
        // and backpressure watermarks come off the policies; all-zero
        // configs register nothing.
        let admission = AdmissionController::new(sim);
        let mut admission_cfgs: SymbolMap<AdmissionConfig> = SymbolMap::new();
        let gate = BackpressureGate::new(sim, tracer.clone(), "htex");
        for topic in primary.keys() {
            let policy = policies.policy_for(topic);
            if policy.admission.enabled() {
                admission_cfgs.insert(topic, policy.admission.clone());
            }
            gate.register(topic, &policy.backpressure);
        }
        // HTEX managers have direct links (no Connectivity), so the
        // layer spawns no heartbeat watchers; breakers are fed by task
        // outcomes and timeouts only.
        let health = ReliabilityLayer::new(sim, tracer.clone(), "htex", policies, route, &[]);
        let actors =
            (0..pools.len()).map(|i| Symbol::intern(&format!("htex/ep{i}"))).collect();
        let inner = Rc::new(Inner {
            sim: sim.clone(),
            params,
            actors,
            rng: RefCell::new(rng.substream(u64::MAX)),
            health,
            pools,
            links,
            retries,
            brownout,
            bounds,
            admission,
            admission_cfgs,
            gate,
            primary,
            results,
            tracer,
            submitted: Cell::new(0),
            returned: Cell::new(0),
            timed_out: Cell::new(0),
            shed: Cell::new(0),
            link_bytes: Cell::new(0),
        });
        for (i, rx) in pool_streams.into_iter().enumerate() {
            let inner2 = Rc::clone(&inner);
            sim.spawn_detached(async move {
                while let Some(result) = rx.recv().await {
                    let inner3 = Rc::clone(&inner2);
                    inner2.sim.spawn_detached(async move {
                        HtexExecutor::return_result(inner3, result, i).await;
                    });
                }
            });
        }
        HtexExecutor { inner }
    }

    /// Endpoint worker pools (for utilization metrics).
    pub fn pools(&self) -> &[WorkerPool] {
        &self.inner.pools
    }

    /// The reliability layer (breaker state, hedge/reroute counters).
    pub fn health(&self) -> ReliabilityLayer {
        self.inner.health.clone()
    }

    /// The chaos-engine handles of this deployment. HTEX has no
    /// endpoint connectivity and no cloud service, so only pool and
    /// link dials are exposed; the storm target is wired by the
    /// deployment layer, which owns the `Rc<dyn Fabric>` handle.
    pub fn chaos_targets(&self) -> ChaosTargets {
        ChaosTargets {
            connectivity: Vec::new(),
            pace: self.inner.pools.iter().map(WorkerPool::pace_knob).collect(),
            crash: self.inner.pools.iter().map(WorkerPool::crash_knob).collect(),
            brownout: self.inner.brownout.clone(),
            cloud: None,
            storm: None,
        }
    }

    /// Tasks submitted so far.
    pub fn submitted(&self) -> u64 {
        self.inner.submitted.get()
    }

    /// Results returned so far.
    pub fn returned(&self) -> u64 {
        self.inner.returned.get()
    }

    /// Payload bytes moved over interchange links (both directions).
    pub fn link_bytes(&self) -> u64 {
        self.inner.link_bytes.get()
    }

    /// Tasks failed by the delivery deadline (`RetryPolicy::timeout`).
    pub fn timed_out(&self) -> u64 {
        self.inner.timed_out.get()
    }

    /// Tasks dropped by overload protection (admission refusals plus
    /// queue-overflow evictions) — each still delivered a terminal
    /// [`TaskOutcome::Shed`] result.
    pub fn shed(&self) -> u64 {
        self.inner.shed.get()
    }

    /// The admission controller (in-flight/rejection counters).
    pub fn admission(&self) -> &AdmissionController {
        &self.inner.admission
    }

    /// Balances the overload accounting when a task reaches its one
    /// terminal outcome: the topic's in-fabric depth drops (possibly
    /// reopening the backpressure gate) and its admission slot frees.
    fn release(inner: &Inner, topic: Symbol) {
        inner.gate.on_exit(topic);
        inner.admission.on_done(topic);
    }

    /// Delivers the terminal [`TaskOutcome::Shed`] result for a task
    /// dropped by overload protection. `load` is the queue depth or
    /// in-flight count observed at the shed decision (the trace value).
    fn shed_result(inner: &Inner, spec: TaskSpec, endpoint: usize, hedges: u32, reroutes: u32, load: f64) {
        let now = inner.sim.now();
        let actor = inner.actors[endpoint];
        inner.tracer.emit(now, actor, kinds::TASK_SHED, spec.id, load);
        let mut timing = spec.timing;
        timing.server_result_received = Some(now);
        inner.shed.set(inner.shed.get() + 1);
        inner.returned.set(inner.returned.get() + 1);
        let result = TaskResult {
            id: spec.id,
            topic: spec.topic,
            output: Arg::empty(),
            input_bytes: spec.args.iter().map(Arg::data_bytes).sum(),
            report: WorkerReport { hedges, reroutes, ..WorkerReport::default() },
            timing,
            site: inner.pools[endpoint].site(),
            worker: actor,
            outcome: TaskOutcome::Shed,
        };
        let _ = inner.results.send_now(result); // hetlint: allow(r15) — teardown-tolerant: the campaign driver may have dropped the results receiver
    }

    fn link_cost(inner: &Inner, endpoint: usize, bytes: u64) -> std::time::Duration {
        let link = &inner.links[endpoint];
        let lat = link.latency.sample(&mut inner.rng.borrow_mut());
        let cost = hetflow_sim::time::secs(lat + bytes as f64 / link.bandwidth);
        // Chaos brownout dial: degraded links move bytes slower.
        let f = inner.brownout[endpoint].get();
        if f != 1.0 {
            cost.mul_f64(f.max(0.0))
        } else {
            cost
        }
    }

    /// Races the link transfer against the topic's
    /// `RetryPolicy::timeout`, mirroring the FnX fabric: an undeliverable
    /// task fails with `TaskError::Timeout` through the result channel.
    async fn deliver(inner: Rc<Inner>, task: TaskSpec, endpoint: usize) {
        let deadline = inner.retries[endpoint].policy_for(task.topic).timeout;
        let Some(deadline) = deadline else {
            Self::deliver_inner(inner, task, endpoint).await;
            return;
        };
        let id = task.id;
        let topic = task.topic;
        let mut timing = task.timing;
        let input_bytes = task.args.iter().map(Arg::data_bytes).sum();
        let attempt = Box::pin(Self::deliver_inner(Rc::clone(&inner), task, endpoint));
        if inner.sim.timeout(deadline, attempt).await.is_err() {
            match inner.health.on_timeout(endpoint, id, topic) {
                TimeoutVerdict::Reroute { spec, to } => {
                    let inner2 = Rc::clone(&inner);
                    // Boxed to break the deliver → deliver type cycle.
                    let redo: Pin<Box<dyn Future<Output = ()>>> =
                        Box::pin(Self::deliver(inner2, *spec, to));
                    inner.sim.spawn_detached(redo);
                }
                TimeoutVerdict::Suppress => {}
                TimeoutVerdict::Fail => {
                    let now = inner.sim.now();
                    let actor = inner.actors[endpoint];
                    inner.tracer.emit(now, actor, kinds::TASK_TIMEOUT, id, deadline.as_secs_f64());
                    Self::release(&inner, topic);
                    timing.server_result_received = Some(now);
                    inner.timed_out.set(inner.timed_out.get() + 1);
                    inner.returned.set(inner.returned.get() + 1);
                    let result = TaskResult {
                        id,
                        topic,
                        output: Arg::empty(),
                        input_bytes,
                        report: WorkerReport::default(),
                        timing,
                        site: inner.pools[endpoint].site(),
                        worker: actor,
                        outcome: TaskOutcome::Failed(TaskError::Timeout { after: deadline }),
                    };
                    let _ = inner.results.send_now(result); // hetlint: allow(r15) — teardown-tolerant: the campaign driver may have dropped the results receiver
                }
            }
        }
    }

    async fn deliver_inner(inner: Rc<Inner>, task: TaskSpec, endpoint: usize) {
        let bytes = task.wire_bytes();
        let cost = Self::link_cost(&inner, endpoint, bytes);
        inner.sim.sleep(cost).await;
        inner.link_bytes.set(inner.link_bytes.get() + bytes);
        let (capacity, overflow) = inner.bounds[endpoint];
        match inner.pools[endpoint].tasks.offer(task, capacity, overflow, |t| u64::from(t.priority))
        {
            Offered::Accepted => {}
            Offered::Closed(_) => {} // experiment torn down
            Offered::Displaced(victim) => {
                // A shed copy is a failure for arbitration purposes: if
                // a hedge/reroute sibling is still live the loss is
                // silent; otherwise the Shed outcome is the task's one
                // terminal result.
                let topic = victim.topic;
                match inner.health.on_result(endpoint, victim.id, topic, true, 0.0) {
                    Verdict::Deliver { hedges, reroutes } => {
                        Self::shed_result(&inner, victim, endpoint, hedges, reroutes, capacity as f64);
                        Self::release(&inner, topic);
                    }
                    Verdict::Suppress => {}
                }
            }
        }
    }

    async fn return_result(inner: Rc<Inner>, mut result: TaskResult, endpoint: usize) {
        let bytes = result.wire_bytes();
        let cost = Self::link_cost(&inner, endpoint, bytes);
        inner.sim.sleep(cost).await;
        let hop = inner.params.submit_hop.sample_secs(&mut inner.rng.borrow_mut());
        inner.sim.sleep(hop).await;
        inner.link_bytes.set(inner.link_bytes.get() + bytes);
        // Exactly-once arbitration, after the full return path: the
        // first surviving copy wins, losers are cancelled as waste.
        let waste = result.report.compute_time.as_secs_f64()
            + result.report.wasted_time.as_secs_f64();
        match inner.health.on_result(
            endpoint,
            result.id,
            result.topic,
            result.is_failed(),
            waste,
        ) {
            Verdict::Deliver { hedges, reroutes } => {
                Self::release(&inner, result.topic);
                result.report.hedges = hedges;
                result.report.reroutes = reroutes;
                result.timing.server_result_received = Some(inner.sim.now());
                inner.returned.set(inner.returned.get() + 1);
                let _ = inner.results.send_now(result); // hetlint: allow(r15) — teardown-tolerant: the campaign driver may have dropped the results receiver
            }
            Verdict::Suppress => {}
        }
    }
}

impl Fabric for HtexExecutor {
    fn submit(&self, mut task: TaskSpec) -> Pin<Box<dyn Future<Output = ()> + '_>> {
        Box::pin(async move {
            let inner = &self.inner;
            task.timing.dispatched = Some(inner.sim.now());
            // Admission control: a refused submission still pays the
            // interchange hop (the refusal happens after the client's
            // call) and resolves to a terminal Shed outcome; it never
            // reaches the breaker layer, so nothing to unwind.
            if let Some(cfg) = inner.admission_cfgs.get(task.topic) {
                if !inner.admission.try_admit(task.topic, cfg) {
                    let hop = inner.params.submit_hop.sample_secs(&mut inner.rng.borrow_mut());
                    inner.sim.sleep(hop).await;
                    inner.submitted.set(inner.submitted.get() + 1);
                    let ep = inner.primary.get(task.topic).copied().unwrap_or(0);
                    let load = inner.admission.in_flight(task.topic) as f64;
                    Self::shed_result(inner, task, ep, 0, 0, load);
                    return;
                }
            }
            inner.gate.on_enter(task.topic);
            // Register the dispatch with the reliability layer, which
            // picks the endpoint (breaker-aware when configured).
            let endpoint = inner
                .health
                .admit(&task)
                // hetlint: allow(r5) — unrouted topic is a deployment wiring bug, not a runtime fault
                .unwrap_or_else(|| panic!("no endpoint registered for topic {}", task.topic));
            // The client pays the hop to the interchange plus the
            // interchange's serialization pass over the payload.
            let bytes = task.wire_bytes();
            let hop = inner.params.submit_hop.sample(&mut inner.rng.borrow_mut());
            let ser = bytes as f64 / inner.params.interchange_bw;
            inner.sim.sleep(hetflow_sim::time::secs(hop + ser)).await;
            inner.submitted.set(inner.submitted.get() + 1);
            let id = task.id;
            let topic = task.topic;
            let input_bytes = task.args.iter().map(Arg::data_bytes).sum();
            let timing = task.timing;
            // Hedge watchdog (see the FnX fabric for the rationale).
            if let Some(delay) = inner.health.hedge_delay(topic) {
                let inner2 = Rc::clone(inner);
                inner.sim.spawn_detached(async move {
                    loop {
                        inner2.sim.sleep(delay).await;
                        let Some((spec, to)) = inner2.health.try_hedge(id, topic) else {
                            break;
                        };
                        let inner3 = Rc::clone(&inner2);
                        inner2.sim.spawn_detached(async move {
                            HtexExecutor::deliver(inner3, spec, to).await;
                        });
                    }
                });
            }
            // Deadline watchdog: hard round-trip backstop.
            if let Some(dl) = inner.health.deadline(topic) {
                let inner2 = Rc::clone(inner);
                inner.sim.spawn_detached(async move {
                    inner2.sim.sleep(dl).await;
                    if inner2.health.expire(id) {
                        let now = inner2.sim.now();
                        let actor = inner2.actors[endpoint];
                        inner2.tracer.emit(now, actor, kinds::TASK_TIMEOUT, id, dl.as_secs_f64());
                        Self::release(&inner2, topic);
                        let mut timing = timing;
                        timing.server_result_received = Some(now);
                        inner2.timed_out.set(inner2.timed_out.get() + 1);
                        inner2.returned.set(inner2.returned.get() + 1);
                        let result = TaskResult {
                            id,
                            topic,
                            output: Arg::empty(),
                            input_bytes,
                            report: WorkerReport::default(),
                            timing,
                            site: inner2.pools[endpoint].site(),
                            worker: actor,
                            outcome: TaskOutcome::Failed(TaskError::Timeout { after: dl }),
                        };
                        let _ = inner2.results.send_now(result);
                    }
                });
            }
            let inner2 = Rc::clone(inner);
            inner.sim.spawn_detached(async move {
                HtexExecutor::deliver(inner2, task, endpoint).await;
            });
        })
    }

    fn label(&self) -> &'static str {
        "htex"
    }

    fn backpressure(&self) -> Option<BackpressureGate> {
        if self.inner.gate.is_empty() {
            None
        } else {
            Some(self.inner.gate.clone())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetflow_store::SiteId;
    use hetflow_sim::Receiver;

    fn fixed_link(bw: f64) -> LinkParams {
        LinkParams { latency: Dist::Constant(0.005), bandwidth: bw }
    }

    fn setup(workers: usize, bw: f64) -> (Sim, HtexExecutor, Receiver<TaskResult>) {
        let sim = Sim::new();
        let (res_tx, res_rx) = channel();
        let exec = HtexExecutor::new(
            &sim,
            HtexParams { submit_hop: Dist::Constant(0.002), interchange_bw: 1.0e8 },
            vec![HtexEndpoint {
                pool: WorkerPoolConfig::bare(SiteId(0), "theta", workers),
                topics: vec!["noop"],
                link: fixed_link(bw),
            }],
            res_tx,
            SimRng::from_seed(5),
            Tracer::disabled(),
        );
        (sim, exec, res_rx)
    }

    #[test]
    fn roundtrip_executes_task() {
        let (sim, exec, res_rx) = setup(1, 4.0e7);
        let e = exec.clone();
        sim.spawn(async move {
            e.submit(TaskSpec::noop(3, 10_000)).await;
        });
        sim.run();
        let results = res_rx.drain_now();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].id, 3);
        assert!(results[0].timing.server_result_received.is_some());
        assert_eq!(exec.submitted(), 1);
        assert_eq!(exec.returned(), 1);
    }

    #[test]
    fn direct_links_are_much_faster_than_cloud_for_payloads() {
        // The same 1 MB no-op through HTEX must beat the FnX cloud path
        // by a wide margin — this is why plain Parsl remains competitive
        // when payloads are small/medium (Fig. 3 discussion).
        let (sim, exec, res_rx) = setup(1, 4.0e7);
        let e = exec.clone();
        sim.spawn(async move {
            e.submit(TaskSpec::noop(0, 1_000_000)).await;
        });
        sim.run();
        let r = &res_rx.drain_now()[0];
        let span = r.timing.server_to_worker().unwrap().as_secs_f64();
        assert!(span < 0.1, "direct 1MB hop should be tens of ms, got {span}");
    }

    #[test]
    fn payload_cost_scales_with_link_bandwidth() {
        let span_with_bw = |bw: f64| {
            let (sim, exec, res_rx) = setup(1, bw);
            let e = exec.clone();
            sim.spawn(async move {
                e.submit(TaskSpec::noop(0, 10_000_000)).await;
            });
            sim.run();
            let r = &res_rx.drain_now()[0];
            r.timing.server_to_worker().unwrap().as_secs_f64()
        };
        let fast = span_with_bw(1.0e8);
        let slow = span_with_bw(1.0e7);
        assert!(slow > 5.0 * fast, "fast {fast}, slow {slow}");
    }

    #[test]
    fn submit_cost_grows_with_payload() {
        // Without pass-by-reference the interchange serializes the whole
        // payload before the client regains control.
        let (sim, exec, _res) = setup(1, 4.0e7);
        let s = sim.clone();
        let e = exec.clone();
        let h = sim.spawn(async move {
            let t0 = s.now();
            e.submit(TaskSpec::noop(0, 1_000)).await;
            let small = (s.now() - t0).as_secs_f64();
            let t1 = s.now();
            e.submit(TaskSpec::noop(1, 50_000_000)).await;
            let large = (s.now() - t1).as_secs_f64();
            (small, large)
        });
        let (small, large) = sim.block_on(h);
        assert!(small < 0.01);
        assert!(large > 0.4, "50MB at 100MB/s ≈ 0.5s, got {large}");
    }

    #[test]
    fn multiple_endpoints_route_by_topic() {
        let sim = Sim::new();
        let (res_tx, res_rx) = channel();
        let exec = HtexExecutor::new(
            &sim,
            HtexParams::default(),
            vec![
                HtexEndpoint {
                    pool: WorkerPoolConfig::bare(SiteId(0), "cpu", 2),
                    topics: vec!["simulate"],
                    link: LinkParams::local(),
                },
                HtexEndpoint {
                    pool: WorkerPoolConfig::bare(SiteId(1), "gpu", 2),
                    topics: vec!["train", "infer"],
                    link: LinkParams::tunnel(),
                },
            ],
            res_tx,
            SimRng::from_seed(5),
            Tracer::disabled(),
        );
        let e = exec.clone();
        sim.spawn(async move {
            let mk = |id, topic: &str| {
                TaskSpec::new(id, topic, vec![], Rc::new(|_| crate::task::TaskWork::noop()))
            };
            e.submit(mk(0, "simulate")).await;
            e.submit(mk(1, "infer")).await;
        });
        sim.run();
        let mut results = res_rx.drain_now();
        results.sort_by_key(|r| r.id);
        assert_eq!(results[0].site, SiteId(0));
        assert_eq!(results[1].site, SiteId(1));
    }
}
