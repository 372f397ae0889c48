//! FnX — the federated FaaS fabric (the paper's FuncX, §IV-B).
//!
//! Task submissions travel through a cloud-hosted service: the client
//! makes an HTTPS call; the cloud stores the payload (a fast KV tier for
//! payloads ≤ 20 kB, an object store above that — FuncX's
//! ElastiCache/S3 split, §V-C1) and forwards the task to the endpoint's
//! outbound connection; the endpoint fetches the payload and hands the
//! task to a worker. Results retrace the path. Payloads above 10 MB are
//! rejected, which is why large data must move via ProxyStore.
//!
//! Effective payload throughput through the cloud tiers is low (API
//! chunking, base64/pickle inflation); values are calibrated so the
//! server→worker communication reductions of Fig. 3 (~2–3× at 10 kB,
//! ~10× at 1 MB when proxied) are reproduced.

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
use std::time::Duration;

/// Scales a sampled delay by a chaos knob, skipping the multiply when
/// the knob is neutral so untouched knobs change nothing.
fn scaled(d: Duration, knob: &Knob) -> Duration {
    let f = knob.get();
    if f != 1.0 {
        d.mul_f64(f.max(0.0))
    } else {
        d
    }
}

/// Tunables of the cloud FaaS model.
#[derive(Clone, Debug)]
pub struct FnXParams {
    /// Client→cloud HTTPS request latency (the dispatch cost the paper
    /// reports as "a median of 100 ms", §V-D3).
    pub https_latency: Dist,
    /// Fast-KV tier (ElastiCache) per-operation latency.
    pub small_store_op: Dist,
    /// Fast-KV tier effective payload throughput, bytes/s.
    pub small_store_bw: f64,
    /// Object-store tier (S3) per-operation latency.
    pub large_store_op: Dist,
    /// Object-store tier effective payload throughput, bytes/s.
    pub large_store_bw: f64,
    /// Payloads at or below this use the fast-KV tier (20 kB in FuncX).
    pub small_threshold: u64,
    /// Hard payload cap (10 MB in FuncX); larger submissions panic.
    pub payload_cap: u64,
    /// Cloud→endpoint forwarding latency (outbound AMQP connection).
    pub forward_latency: Dist,
    /// Cloud→client result delivery latency.
    pub result_latency: Dist,
}

impl Default for FnXParams {
    fn default() -> Self {
        FnXParams {
            https_latency: Dist::LogNormal { median: 0.09, sigma: 0.35 },
            small_store_op: Dist::LogNormal { median: 0.04, sigma: 0.3 },
            small_store_bw: 4.0e4,
            large_store_op: Dist::LogNormal { median: 0.2, sigma: 0.3 },
            large_store_bw: 8.0e5,
            small_threshold: 20_000,
            payload_cap: 10_000_000,
            forward_latency: Dist::LogNormal { median: 0.05, sigma: 0.3 },
            result_latency: Dist::LogNormal { median: 0.06, sigma: 0.3 },
        }
    }
}

impl FnXParams {
    /// Cost of one cloud-store put or get for a payload of `bytes`.
    fn store_op(&self, rng: &mut SimRng, bytes: u64) -> std::time::Duration {
        let (op, bw) = if bytes <= self.small_threshold {
            (&self.small_store_op, self.small_store_bw)
        } else {
            (&self.large_store_op, self.large_store_bw)
        };
        hetflow_sim::time::secs(op.sample(rng) + bytes as f64 / bw)
    }
}

/// One endpoint registration: a worker pool plus the topics routed to it.
pub struct EndpointSpec {
    /// The pool this endpoint manages.
    pub pool: WorkerPoolConfig,
    /// Task topics executed here.
    pub topics: Vec<&'static str>,
    /// The endpoint's outbound connection to the cloud. While offline,
    /// the cloud *holds* tasks and the endpoint holds results —
    /// §IV-A3's robustness property.
    pub connectivity: crate::reliability::Connectivity,
}

impl EndpointSpec {
    /// An endpoint with a permanently-connected link.
    pub fn reliable(pool: WorkerPoolConfig, topics: Vec<&'static str>) -> Self {
        EndpointSpec { pool, topics, connectivity: crate::reliability::Connectivity::always_on() }
    }
}

struct Inner {
    sim: Sim,
    params: FnXParams,
    /// Pre-interned `"fnx/ep{i}"` trace actors, one per endpoint.
    actors: Vec<Symbol>,
    rng: RefCell<SimRng>,
    health: ReliabilityLayer,
    pools: Vec<WorkerPool>,
    connectivity: Vec<crate::reliability::Connectivity>,
    retries: Vec<RetryPolicies>,
    /// Per-endpoint link-degradation dials (chaos-engine targets).
    brownout: Vec<Knob>,
    /// Cloud-service degradation dial (chaos-engine target).
    cloud: Knob,
    /// Per-endpoint pool-queue bound and overflow policy (0 = unbounded).
    bounds: Vec<(usize, OverflowPolicy)>,
    /// Token-bucket/in-flight admission, consulted before the breaker
    /// layer. Only topics with an enabled config appear in
    /// `admission_cfgs`, so unconfigured topics pay nothing.
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
    payload_bytes: Cell<u64>,
}

/// The FnX executor: routes tasks through the cloud to endpoints.
#[derive(Clone)]
pub struct FnXExecutor {
    inner: Rc<Inner>,
}

impl FnXExecutor {
    /// Builds the executor, spawning one worker pool per endpoint.
    /// Completed results are delivered on `results`. Reliability
    /// mechanisms (breakers, hedging, rerouting) are disabled — see
    /// [`FnXExecutor::with_reliability`].
    pub fn new(
        sim: &Sim,
        params: FnXParams,
        endpoints: Vec<EndpointSpec>,
        results: Sender<TaskResult>,
        rng: SimRng,
        tracer: Tracer,
    ) -> FnXExecutor {
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

    /// Builds the executor with an active [`ReliabilityLayer`]: a topic
    /// registered on several endpoints fails over (the first
    /// registration is the primary, later ones are failover
    /// candidates), breakers steer dispatches away from unhealthy
    /// endpoints, and hedged/rerouted copies deliver exactly once.
    pub fn with_reliability(
        sim: &Sim,
        params: FnXParams,
        endpoints: Vec<EndpointSpec>,
        results: Sender<TaskResult>,
        rng: SimRng,
        tracer: Tracer,
        policies: ReliabilityPolicies,
    ) -> FnXExecutor {
        let mut route: SymbolMap<Vec<usize>> = SymbolMap::new();
        let mut primary: SymbolMap<usize> = SymbolMap::new();
        let mut pools = Vec::new();
        let mut connectivity = Vec::new();
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
            let pool =
                WorkerPool::spawn(sim, ep.pool, pool_res_tx, &rng.substream(i as u64), tracer.clone());
            pools.push(pool);
            connectivity.push(ep.connectivity);
            brownout.push(Knob::new(1.0));
            pool_streams.push(pool_res_rx);
        }
        // Overload protection: admission configs and backpressure
        // watermarks are read off the policies before the layer takes
        // them. Topics with all-zero configs register nothing.
        let admission = AdmissionController::new(sim);
        let mut admission_cfgs: SymbolMap<AdmissionConfig> = SymbolMap::new();
        let gate = BackpressureGate::new(sim, tracer.clone(), "fnx");
        for topic in primary.keys() {
            let policy = policies.policy_for(topic);
            if policy.admission.enabled() {
                admission_cfgs.insert(topic, policy.admission.clone());
            }
            gate.register(topic, &policy.backpressure);
        }
        let health =
            ReliabilityLayer::new(sim, tracer.clone(), "fnx", policies, route, &connectivity);
        let actors =
            (0..pools.len()).map(|i| Symbol::intern(&format!("fnx/ep{i}"))).collect();
        let inner = Rc::new(Inner {
            sim: sim.clone(),
            params,
            actors,
            rng: RefCell::new(rng.substream(u64::MAX)),
            health,
            pools,
            connectivity,
            retries,
            brownout,
            cloud: Knob::new(1.0),
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
            payload_bytes: Cell::new(0),
        });
        // One return-path actor per endpoint.
        for (i, rx) in pool_streams.into_iter().enumerate() {
            let inner2 = Rc::clone(&inner);
            sim.spawn_detached(async move {
                while let Some(result) = rx.recv().await {
                    let inner3 = Rc::clone(&inner2);
                    inner2.sim.spawn_detached(async move {
                        FnXExecutor::return_result(inner3, result, i).await;
                    });
                }
            });
        }
        FnXExecutor { inner }
    }

    /// Endpoint worker pools (for utilization metrics).
    pub fn pools(&self) -> &[WorkerPool] {
        &self.inner.pools
    }

    /// The reliability layer (breaker state, hedge/reroute counters).
    pub fn health(&self) -> ReliabilityLayer {
        self.inner.health.clone()
    }

    /// The chaos-engine handles of this deployment: endpoint
    /// connectivity, per-pool pace/crash dials, per-endpoint link
    /// brownout dials, and the cloud-service degradation dial. The
    /// storm target stays `None` here — the deployment layer owns the
    /// `Rc<dyn Fabric>` handle and wires it in itself.
    pub fn chaos_targets(&self) -> ChaosTargets {
        ChaosTargets {
            connectivity: self.inner.connectivity.clone(),
            pace: self.inner.pools.iter().map(WorkerPool::pace_knob).collect(),
            crash: self.inner.pools.iter().map(WorkerPool::crash_knob).collect(),
            brownout: self.inner.brownout.clone(),
            cloud: Some(self.inner.cloud.clone()),
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

    /// Total payload bytes moved through the cloud (both directions).
    pub fn cloud_payload_bytes(&self) -> u64 {
        self.inner.payload_bytes.get()
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

    /// Races the delivery against the topic's `RetryPolicy::timeout`.
    /// A task stuck in the cloud past its deadline (e.g. behind an
    /// endpoint outage) is handed to the reliability layer, which
    /// either reroutes it to another endpoint (within the topic's
    /// `max_reroutes` budget) or fails it with `TaskError::Timeout`;
    /// the failure rides the normal result channel.
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
        // Cloud stores the payload, forwards the invocation, endpoint
        // fetches the payload. While the endpoint is offline the cloud
        // simply holds the task (§IV-A3). The cloud knob degrades the
        // service's own operations; the endpoint's brownout knob
        // degrades its link legs.
        let put = inner.params.store_op(&mut inner.rng.borrow_mut(), bytes);
        inner.sim.sleep(scaled(put, &inner.cloud)).await;
        inner.connectivity[endpoint].wait_online().await;
        let fwd = inner.params.forward_latency.sample_secs(&mut inner.rng.borrow_mut());
        inner.sim.sleep(scaled(scaled(fwd, &inner.cloud), &inner.brownout[endpoint])).await;
        let get = inner.params.store_op(&mut inner.rng.borrow_mut(), bytes);
        inner.sim.sleep(scaled(scaled(get, &inner.cloud), &inner.brownout[endpoint])).await;
        inner.payload_bytes.set(inner.payload_bytes.get() + 2 * bytes);
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
        // The endpoint buffers the result while offline, then uploads;
        // the cloud notifies the client, which fetches it.
        inner.connectivity[endpoint].wait_online().await;
        let put = inner.params.store_op(&mut inner.rng.borrow_mut(), bytes);
        inner.sim.sleep(scaled(scaled(put, &inner.cloud), &inner.brownout[endpoint])).await;
        let lat = inner.params.result_latency.sample_secs(&mut inner.rng.borrow_mut());
        inner.sim.sleep(scaled(lat, &inner.cloud)).await;
        let get = inner.params.store_op(&mut inner.rng.borrow_mut(), bytes);
        inner.sim.sleep(scaled(get, &inner.cloud)).await;
        inner.payload_bytes.set(inner.payload_bytes.get() + 2 * bytes);
        // Exactly-once arbitration happens here, *after* the full
        // return path: a winner stuck behind a dead connection never
        // reaches this point, so a healthy hedge copy takes the race.
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

impl Fabric for FnXExecutor {
    fn submit(&self, mut task: TaskSpec) -> Pin<Box<dyn Future<Output = ()> + '_>> {
        Box::pin(async move {
            let inner = &self.inner;
            let bytes = task.wire_bytes();
            assert!(
                bytes <= inner.params.payload_cap,
                "FnX payload {} bytes exceeds the {} byte cap (topic {}): large data \
                 must be passed by reference",
                bytes,
                inner.params.payload_cap,
                task.topic,
            );
            task.timing.dispatched = Some(inner.sim.now());
            // Admission control: a refused submission still pays the
            // HTTPS round trip (the cloud rejects after the call) and
            // resolves to a terminal Shed outcome; it never reaches the
            // breaker layer, so no in-flight tracking to unwind.
            if let Some(cfg) = inner.admission_cfgs.get(task.topic) {
                if !inner.admission.try_admit(task.topic, cfg) {
                    let https =
                        inner.params.https_latency.sample_secs(&mut inner.rng.borrow_mut());
                    inner.sim.sleep(https).await;
                    inner.submitted.set(inner.submitted.get() + 1);
                    let ep = inner.primary.get(task.topic).copied().unwrap_or(0);
                    let load = inner.admission.in_flight(task.topic) as f64;
                    Self::shed_result(inner, task, ep, 0, 0, load);
                    return;
                }
            }
            inner.gate.on_enter(task.topic);
            // Register the dispatch with the reliability layer, which
            // picks the endpoint (breaker-aware when configured; the
            // primary otherwise).
            let endpoint = inner
                .health
                .admit(&task)
                // hetlint: allow(r5) — unrouted topic is a deployment wiring bug, not a runtime fault
                .unwrap_or_else(|| panic!("no endpoint registered for topic {}", task.topic));
            // The client pays the HTTPS round trip; the rest of the
            // journey proceeds in the cloud.
            let https = inner.params.https_latency.sample_secs(&mut inner.rng.borrow_mut());
            inner.sim.sleep(https).await;
            inner.submitted.set(inner.submitted.get() + 1);
            let id = task.id;
            let topic = task.topic;
            let input_bytes = task.args.iter().map(Arg::data_bytes).sum();
            let timing = task.timing;
            // Hedge watchdog: after the topic's quantile-based delay,
            // re-issue straggling tasks to another endpoint (first
            // result wins; the layer cancels the loser).
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
                            FnXExecutor::deliver(inner3, spec, to).await;
                        });
                    }
                });
            }
            // Deadline watchdog: the hard round-trip backstop — a task
            // with no terminal outcome by the deadline is failed here;
            // copies still in flight are cancelled as they surface.
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
                FnXExecutor::deliver(inner2, task, endpoint).await;
            });
        })
    }

    fn label(&self) -> &'static str {
        "fnx"
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

    fn fixed_params() -> FnXParams {
        FnXParams {
            https_latency: Dist::Constant(0.1),
            small_store_op: Dist::Constant(0.04),
            small_store_bw: 4.0e4,
            large_store_op: Dist::Constant(0.2),
            large_store_bw: 8.0e5,
            small_threshold: 20_000,
            payload_cap: 10_000_000,
            forward_latency: Dist::Constant(0.05),
            result_latency: Dist::Constant(0.06),
        }
    }

    fn setup(workers: usize) -> (Sim, FnXExecutor, Receiver<TaskResult>) {
        let sim = Sim::new();
        let (res_tx, res_rx) = channel();
        let exec = FnXExecutor::new(
            &sim,
            fixed_params(),
            vec![EndpointSpec::reliable(
                WorkerPoolConfig::bare(SiteId(0), "theta", workers),
                vec!["noop", "unit"],
            )],
            res_tx,
            SimRng::from_seed(5),
            Tracer::disabled(),
        );
        (sim, exec, res_rx)
    }

    #[test]
    fn submit_pays_only_https() {
        let (sim, exec, _res) = setup(1);
        let s = sim.clone();
        let e = exec.clone();
        let h = sim.spawn(async move {
            e.submit(TaskSpec::noop(0, 1_000)).await;
            s.now().as_secs_f64()
        });
        let t = sim.block_on(h);
        assert!((t - 0.1).abs() < 1e-9, "dispatch cost = HTTPS RTT, got {t}");
    }

    #[test]
    fn task_executes_and_result_returns() {
        let (sim, exec, res_rx) = setup(1);
        let e = exec.clone();
        sim.spawn(async move {
            e.submit(TaskSpec::noop(7, 1_000)).await;
        });
        sim.run();
        let results = res_rx.drain_now();
        assert_eq!(results.len(), 1);
        let r = &results[0];
        assert_eq!(r.id, 7);
        assert!(r.timing.worker_started.is_some());
        assert!(r.timing.server_result_received.is_some());
        assert_eq!(exec.submitted(), 1);
        assert_eq!(exec.returned(), 1);
    }

    #[test]
    fn larger_payloads_cost_more_cloud_time() {
        // Compare the dispatched→worker_started span for 500 B-ish vs
        // 1 MB payloads: the cloud path dominates, reproducing Fig. 3's
        // shape.
        let span_for = |payload: u64| {
            let (sim, exec, res_rx) = setup(1);
            let e = exec.clone();
            sim.spawn(async move {
                e.submit(TaskSpec::noop(0, payload)).await;
            });
            sim.run();
            let r = &res_rx.drain_now()[0];
            r.timing.server_to_worker().unwrap().as_secs_f64()
        };
        let small = span_for(500); // proxy-sized
        let mid = span_for(10_000);
        let large = span_for(1_000_000);
        assert!(mid / small > 1.8, "10kB/proxy ratio: {}", mid / small);
        assert!(mid / small < 4.0, "10kB/proxy ratio: {}", mid / small);
        assert!(large / small > 7.0, "1MB/proxy ratio: {}", large / small);
        assert!(large / small < 16.0, "1MB/proxy ratio: {}", large / small);
    }

    #[test]
    #[should_panic(expected = "exceeds the")]
    fn oversize_payload_rejected() {
        let (sim, exec, _res) = setup(1);
        let e = exec.clone();
        let h = sim.spawn(async move {
            e.submit(TaskSpec::noop(0, 50_000_000)).await;
        });
        sim.block_on(h);
    }

    #[test]
    #[should_panic(expected = "no endpoint registered")]
    fn unrouted_topic_rejected() {
        let (sim, exec, _res) = setup(1);
        let e = exec.clone();
        let h = sim.spawn(async move {
            let t = TaskSpec::new(0, "mystery", vec![], Rc::new(|_| crate::task::TaskWork::noop()));
            e.submit(t).await;
        });
        sim.block_on(h);
    }

    #[test]
    fn concurrent_submissions_pipeline() {
        // The cloud path must not serialize independent tasks.
        let (sim, exec, res_rx) = setup(4);
        let e = exec.clone();
        sim.spawn(async move {
            for i in 0..4 {
                e.submit(TaskSpec::noop(i, 1_000)).await;
            }
        });
        let r = sim.run();
        assert_eq!(res_rx.drain_now().len(), 4);
        // 4 sequential submissions pay 4×0.1s HTTPS; the rest overlaps.
        // Full serial execution would take > 4×(0.1+0.04+0.05+0.04+…);
        // ensure we finish well under that.
        assert!(r.end.as_secs_f64() < 1.2, "end {}", r.end);
    }

    #[test]
    fn delivery_timeout_fails_tasks_stuck_behind_outage() {
        let sim = Sim::new();
        let (res_tx, res_rx) = channel();
        let mut pool = WorkerPoolConfig::bare(SiteId(0), "theta", 1);
        pool.retry = RetryPolicies::default().with_topic(
            "noop",
            crate::reliability::RetryPolicy {
                timeout: Some(std::time::Duration::from_secs(30)),
                ..Default::default()
            },
        );
        let connectivity = crate::reliability::Connectivity::always_on();
        connectivity.set_online(false); // offline before any delivery
        let tracer = Tracer::enabled();
        let exec = FnXExecutor::new(
            &sim,
            fixed_params(),
            vec![EndpointSpec { pool, topics: vec!["noop"], connectivity }],
            res_tx,
            SimRng::from_seed(5),
            tracer.clone(),
        );
        let e = exec.clone();
        sim.spawn(async move {
            e.submit(TaskSpec::noop(3, 1_000)).await;
        });
        let r = sim.run();
        let results = res_rx.drain_now();
        assert_eq!(results.len(), 1);
        let res = &results[0];
        assert!(res.is_failed());
        assert_eq!(
            res.outcome.error(),
            Some(&TaskError::Timeout { after: std::time::Duration::from_secs(30) })
        );
        assert_eq!(res.id, 3);
        assert!(res.timing.worker_started.is_none(), "task never reached a worker");
        assert_eq!(exec.timed_out(), 1);
        assert_eq!(exec.returned(), 1);
        assert_eq!(tracer.events_of_kind(kinds::TASK_TIMEOUT).len(), 1);
        // The deadline — not the (never-ending) outage — bounds the run:
        // 0.1 s HTTPS + 30 s deadline.
        assert!(r.end.as_secs_f64() < 31.0, "end {}", r.end);
    }

    #[test]
    fn timeout_reroutes_to_failover_endpoint() {
        // Endpoint 0 (primary) is dark; the topic's reroute budget lets
        // the delivery timeout re-dispatch to endpoint 1 instead of
        // failing — the task completes there, stamped reroutes=1.
        let sim = Sim::new();
        let (res_tx, res_rx) = channel();
        let mut pool_a = WorkerPoolConfig::bare(SiteId(0), "a", 1);
        pool_a.retry = RetryPolicies::default().with_topic(
            "noop",
            crate::reliability::RetryPolicy {
                timeout: Some(Duration::from_secs(30)),
                ..Default::default()
            },
        );
        let mut pool_b = WorkerPoolConfig::bare(SiteId(1), "b", 1);
        pool_b.retry = pool_a.retry.clone();
        let dead = crate::reliability::Connectivity::always_on();
        dead.set_online(false);
        let tracer = Tracer::enabled();
        let exec = FnXExecutor::with_reliability(
            &sim,
            fixed_params(),
            vec![
                EndpointSpec { pool: pool_a, topics: vec!["noop"], connectivity: dead },
                EndpointSpec::reliable(pool_b, vec!["noop"]),
            ],
            res_tx,
            SimRng::from_seed(5),
            tracer.clone(),
            ReliabilityPolicies {
                default: crate::health::ReliabilityPolicy {
                    max_reroutes: 1,
                    ..Default::default()
                },
                per_topic: SymbolMap::new(),
            },
        );
        let e = exec.clone();
        sim.spawn(async move {
            e.submit(TaskSpec::noop(4, 1_000)).await;
        });
        sim.run();
        let results = res_rx.drain_now();
        assert_eq!(results.len(), 1, "exactly one terminal outcome");
        let r = &results[0];
        assert!(!r.is_failed(), "the reroute rescued the task");
        assert_eq!(r.site, SiteId(1));
        assert_eq!(r.report.reroutes, 1);
        assert_eq!(tracer.events_of_kind(kinds::TASK_REROUTED).len(), 1);
        assert!(tracer.events_of_kind(kinds::TASK_TIMEOUT).is_empty());
        assert_eq!(exec.timed_out(), 0);
        assert_eq!(exec.health().rerouted(), 1);
    }

    #[test]
    fn breaker_steers_dispatch_after_offline_grace() {
        // Endpoint 0 dies at t=1; the heartbeat watcher trips its
        // breaker after the 5 s grace, so tasks submitted later steer
        // straight to endpoint 1 — no per-task timeout needed.
        let sim = Sim::new();
        let (res_tx, res_rx) = channel();
        let conn_a = crate::reliability::Connectivity::always_on();
        let tracer = Tracer::enabled();
        let exec = FnXExecutor::with_reliability(
            &sim,
            fixed_params(),
            vec![
                EndpointSpec {
                    pool: WorkerPoolConfig::bare(SiteId(0), "a", 1),
                    topics: vec!["noop"],
                    connectivity: conn_a.clone(),
                },
                EndpointSpec::reliable(WorkerPoolConfig::bare(SiteId(1), "b", 1), vec!["noop"]),
            ],
            res_tx,
            SimRng::from_seed(5),
            tracer.clone(),
            ReliabilityPolicies {
                default: crate::health::ReliabilityPolicy {
                    breaker: crate::health::BreakerConfig {
                        failure_threshold: 1,
                        offline_grace: Duration::from_secs(5),
                        open_for: Duration::from_secs(600),
                        ..Default::default()
                    },
                    ..Default::default()
                },
                per_topic: SymbolMap::new(),
            },
        );
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(Duration::from_secs(1)).await;
            conn_a.set_online(false);
        });
        let e = exec.clone();
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(Duration::from_secs(20)).await; // after the trip at t=6
            for i in 0..3 {
                e.submit(TaskSpec::noop(i, 1_000)).await;
            }
        });
        sim.run();
        let results = res_rx.drain_now();
        assert_eq!(results.len(), 3);
        assert!(results.iter().all(|r| r.site == SiteId(1)), "all failed over to endpoint 1");
        let opened = tracer.events_of_kind(kinds::BREAKER_OPENED);
        assert_eq!(opened.len(), 1);
        assert_eq!(opened[0].entity, 0, "endpoint 0's breaker opened");
        assert!(exec.health().breaker_open(0));
    }

    #[test]
    fn hedged_dispatch_rescues_straggler_exactly_once() {
        // Warm the round-trip estimate with fast tasks, then make
        // endpoint 0's pool a straggler: the hedge watchdog re-issues
        // the slow task on endpoint 1, whose copy wins; the straggling
        // copy is cancelled when it finally surfaces.
        let sim = Sim::new();
        let (res_tx, res_rx) = channel();
        let pool_a = WorkerPoolConfig::bare(SiteId(0), "a", 1);
        let pool_b = WorkerPoolConfig::bare(SiteId(1), "b", 1);
        let tracer = Tracer::enabled();
        let exec = FnXExecutor::with_reliability(
            &sim,
            fixed_params(),
            vec![
                EndpointSpec::reliable(pool_a, vec!["unit"]),
                EndpointSpec::reliable(pool_b, vec!["unit"]),
            ],
            res_tx,
            SimRng::from_seed(5),
            tracer.clone(),
            ReliabilityPolicies {
                default: crate::health::ReliabilityPolicy {
                    hedge: crate::health::HedgeConfig {
                        quantile: 0.5,
                        factor: 2.0,
                        min_samples: 3,
                        max_hedges: 1,
                    },
                    ..Default::default()
                },
                per_topic: SymbolMap::new(),
            },
        );
        let e = exec.clone();
        let targets = exec.chaos_targets();
        sim.spawn(async move {
            let mk = |id| {
                TaskSpec::new(
                    id,
                    "unit",
                    vec![],
                    Rc::new(|_| crate::task::TaskWork::new((), 0, Duration::from_secs(10))),
                )
            };
            // Warm-up: three clean round trips on the primary.
            for id in 0..3 {
                e.submit(mk(id)).await;
            }
            e.inner.sim.sleep(Duration::from_secs(60)).await;
            // Straggle the primary 50×, then submit the hedged task.
            targets.pace[0].set(50.0);
            e.submit(mk(3)).await;
        });
        sim.run();
        let results = res_rx.drain_now();
        assert_eq!(results.len(), 4, "exactly one result per submitted id");
        let slow = results.iter().find(|r| r.id == 3).expect("hedged task resolves");
        assert!(!slow.is_failed());
        assert_eq!(slow.site, SiteId(1), "the hedge copy on endpoint 1 won");
        assert_eq!(slow.report.hedges, 1);
        assert_eq!(tracer.events_of_kind(kinds::TASK_HEDGED).len(), 1);
        assert_eq!(tracer.events_of_kind(kinds::TASK_CANCELLED).len(), 1);
        assert_eq!(exec.health().hedged(), 1);
        assert_eq!(exec.health().cancelled(), 1);
        assert!(exec.health().wasted_secs() > 0.0, "the loser's burn is accounted");
    }

    #[test]
    fn topic_routing_to_correct_pool() {
        let sim = Sim::new();
        let (res_tx, res_rx) = channel();
        let exec = FnXExecutor::new(
            &sim,
            fixed_params(),
            vec![
                EndpointSpec::reliable(WorkerPoolConfig::bare(SiteId(0), "cpu", 1), vec!["simulate"]),
                EndpointSpec::reliable(WorkerPoolConfig::bare(SiteId(1), "gpu", 1), vec!["train"]),
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
            e.submit(mk(1, "train")).await;
        });
        sim.run();
        let mut results = res_rx.drain_now();
        results.sort_by_key(|r| r.id);
        assert_eq!(results[0].worker, "cpu/0");
        assert_eq!(results[0].site, SiteId(0));
        assert_eq!(results[1].worker, "gpu/0");
        assert_eq!(results[1].site, SiteId(1));
    }
}
