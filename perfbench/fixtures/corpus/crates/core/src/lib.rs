//! # hetflow-core — the paper's system, assembled
//!
//! Ties the substrates together into the deployments evaluated in
//! "Cloud Services Enable Efficient AI-Guided Simulation Workflows
//! across Heterogeneous Resources":
//!
//! * [`platform`] — the Theta/Venti/RCC site topology of §V-A.
//! * [`calibration`] — every cost-model constant, cited to the paper
//!   observation it reproduces.
//! * [`config`] — the three workflow configurations of §V-B (Parsl,
//!   Parsl+Redis ProxyStore, FnX+Globus ProxyStore) and
//!   [`config::deploy`], which wires stores, fabric, worker pools, task
//!   server, and thinker queues on a simulation.
//! * [`report`] — utilization/data-movement reporting (Fig. 1 views).
//!
//! ```
//! use hetflow_core::{config::{deploy, DeploymentSpec, WorkflowConfig}};
//! use hetflow_fabric::TaskWork;
//! use hetflow_steer::Payload;
//! use hetflow_sim::{Sim, Tracer};
//! use std::rc::Rc;
//!
//! let sim = Sim::new();
//! let d = deploy(&sim, WorkflowConfig::FnXGlobus, &DeploymentSpec::default(),
//!                Tracer::disabled());
//! let q = d.queues.clone();
//! let h = sim.spawn(async move {
//!     q.submit("simulate", vec![Payload::new(21u32, 1_000_000)], Rc::new(|ctx| {
//!         TaskWork::new(*ctx.input::<u32>(0) * 2, 1000, std::time::Duration::from_secs(60))
//!     })).await;
//!     let done = q.get_result("simulate").await.unwrap().resolve().await;
//!     *done.value::<u32>()
//! });
//! assert_eq!(sim.block_on(h), 42);
//! ```

pub mod calibration;
pub mod config;
pub mod platform;
pub mod report;

pub use calibration::Calibration;
pub use config::{deploy, Deployment, DeploymentSpec, WorkflowConfig};
pub use report::UtilizationReport;
