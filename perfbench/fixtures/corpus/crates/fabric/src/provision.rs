//! Batch-scheduler resource provisioning.
//!
//! HPC endpoints do not own their nodes: a pilot job waits in a batch
//! queue, then nodes boot workers. [`Provisioner`] models that ramp-up
//! by metering permits into a [`Semaphore`] that worker launch loops
//! acquire from. The steady-state experiments in the paper run with
//! resources already provisioned (zero queue delay), but utilization
//! traces (Fig. 1) show the initial ramp.

use hetflow_sim::{Dist, Semaphore, Sim, SimRng, SimTime};
use std::time::Duration;

/// Description of a pilot-job allocation.
#[derive(Clone, Debug)]
pub struct ProvisionSpec {
    /// Batch-queue wait before any node comes online.
    pub queue_delay: Dist,
    /// Number of nodes in the allocation.
    pub nodes: usize,
    /// Workers started per node.
    pub workers_per_node: usize,
    /// Per-node boot/launch time once the job starts.
    pub node_startup: Dist,
    /// Wall-clock limit of the allocation (`None` = unlimited).
    pub walltime: Option<Duration>,
}

impl ProvisionSpec {
    /// An already-provisioned steady-state allocation.
    pub fn immediate(nodes: usize, workers_per_node: usize) -> Self {
        ProvisionSpec {
            queue_delay: Dist::Constant(0.0),
            nodes,
            workers_per_node,
            node_startup: Dist::Constant(0.0),
            walltime: None,
        }
    }

    /// Total worker slots at full ramp.
    pub fn total_workers(&self) -> usize {
        self.nodes * self.workers_per_node
    }

    /// Samples a per-worker start-delay vector suitable for
    /// [`crate::worker::WorkerPoolConfig::start_delays`]: one batch-queue
    /// wait shared by all nodes, plus per-node boot times.
    pub fn worker_delays(&self, rng: &mut SimRng) -> Vec<Duration> {
        let queue = self.queue_delay.sample(rng);
        let mut delays = Vec::with_capacity(self.total_workers());
        for _node in 0..self.nodes {
            let boot = self.node_startup.sample(rng);
            let d = hetflow_sim::time::secs(queue + boot);
            for _ in 0..self.workers_per_node {
                delays.push(d);
            }
        }
        delays
    }
}

/// Outcome of a provisioning run.
#[derive(Clone, Debug, PartialEq)]
pub struct ProvisionReport {
    /// When the batch job started (after queueing).
    pub job_started: SimTime,
    /// When the last node's workers were online.
    pub fully_ramped: SimTime,
    /// Worker slots made available.
    pub workers: usize,
}

/// Drives a [`ProvisionSpec`], releasing permits as nodes come online.
pub struct Provisioner;

impl Provisioner {
    /// Spawns the provisioning process. Worker slots appear as permits
    /// in the returned semaphore; the join handle yields a ramp report.
    pub fn start(
        sim: &Sim,
        spec: ProvisionSpec,
        mut rng: SimRng,
    ) -> (Semaphore, hetflow_sim::JoinHandle<ProvisionReport>) {
        let slots = Semaphore::new(0);
        let slots2 = slots.clone();
        let sim2 = sim.clone();
        let handle = sim.spawn(async move {
            let queue = spec.queue_delay.sample_secs(&mut rng);
            sim2.sleep(queue).await;
            let job_started = sim2.now();
            // Nodes boot concurrently; each releases its workers when
            // its startup completes.
            let mut startups: Vec<f64> =
                (0..spec.nodes).map(|_| spec.node_startup.sample(&mut rng)).collect();
            startups.sort_by(f64::total_cmp);
            let mut elapsed = 0.0;
            for s in &startups {
                let wait = s - elapsed;
                sim2.sleep(hetflow_sim::time::secs(wait)).await;
                elapsed = *s;
                slots2.add_permits(spec.workers_per_node);
            }
            ProvisionReport {
                job_started,
                fully_ramped: sim2.now(),
                workers: spec.total_workers(),
            }
        });
        (slots, handle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn immediate_spec_ramps_at_zero() {
        let sim = Sim::new();
        let (slots, handle) = Provisioner::start(
            &sim,
            ProvisionSpec::immediate(4, 8),
            SimRng::from_seed(1),
        );
        let report = sim.block_on(handle);
        assert_eq!(report.job_started, SimTime::ZERO);
        assert_eq!(report.fully_ramped, SimTime::ZERO);
        assert_eq!(report.workers, 32);
        assert_eq!(slots.available(), 32);
    }

    #[test]
    fn queue_delay_gates_all_nodes() {
        let sim = Sim::new();
        let spec = ProvisionSpec {
            queue_delay: Dist::Constant(100.0),
            nodes: 2,
            workers_per_node: 4,
            node_startup: Dist::Constant(10.0),
            walltime: None,
        };
        let (slots, handle) = Provisioner::start(&sim, spec, SimRng::from_seed(1));
        sim.run_until(SimTime::from_secs(50));
        assert_eq!(slots.available(), 0, "nothing online while queued");
        let report = sim.block_on(handle);
        assert_eq!(report.job_started, SimTime::from_secs(100));
        assert_eq!(report.fully_ramped, SimTime::from_secs(110));
        assert_eq!(slots.available(), 8);
    }

    #[test]
    fn staggered_startup_ramps_incrementally() {
        let sim = Sim::new();
        let spec = ProvisionSpec {
            queue_delay: Dist::Constant(0.0),
            nodes: 3,
            workers_per_node: 2,
            node_startup: Dist::Uniform { lo: 5.0, hi: 30.0 },
            walltime: None,
        };
        let (slots, handle) = Provisioner::start(&sim, spec, SimRng::from_seed(9));
        sim.run_until(SimTime::from_secs(4));
        assert_eq!(slots.available(), 0);
        let report = sim.block_on(handle);
        assert_eq!(slots.available(), 6);
        assert!(report.fully_ramped >= SimTime::from_secs(5));
        assert!(report.fully_ramped <= SimTime::from_secs(30));
    }

    #[test]
    fn worker_delays_shape() {
        let spec = ProvisionSpec {
            queue_delay: Dist::Constant(100.0),
            nodes: 3,
            workers_per_node: 2,
            node_startup: Dist::Uniform { lo: 5.0, hi: 20.0 },
            walltime: None,
        };
        let mut rng = SimRng::from_seed(5);
        let delays = spec.worker_delays(&mut rng);
        assert_eq!(delays.len(), 6);
        // Workers on the same node share a delay.
        assert_eq!(delays[0], delays[1]);
        assert_eq!(delays[2], delays[3]);
        for d in &delays {
            assert!(*d >= Duration::from_secs(105) && *d <= Duration::from_secs(120));
        }
    }

    #[test]
    fn waiting_tasks_start_as_nodes_arrive() {
        let sim = Sim::new();
        let spec = ProvisionSpec {
            queue_delay: Dist::Constant(10.0),
            nodes: 1,
            workers_per_node: 1,
            node_startup: Dist::Constant(0.0),
            walltime: None,
        };
        let (slots, _handle) = Provisioner::start(&sim, spec, SimRng::from_seed(1));
        let s = sim.clone();
        let h = sim.spawn(async move {
            let _p = slots.acquire().await;
            s.now()
        });
        assert_eq!(sim.block_on(h), SimTime::from_secs(10));
    }
}
