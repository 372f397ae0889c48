//! # hetflow
//!
//! A full-system Rust reproduction of *"Cloud Services Enable Efficient
//! AI-Guided Simulation Workflows across Heterogeneous Resources"*
//! (Ward et al.): cloud-managed FaaS + pass-by-reference data fabric +
//! agent-based steering, evaluated on a deterministic discrete-event
//! simulation of the paper's heterogeneous testbed.
//!
//! This crate is a façade: it re-exports the workspace's public API.
//!
//! * [`sim`] — virtual-time kernel (executor, channels, RNG, metrics).
//! * [`store`] — ProxyStore model: lazy proxies over Redis-, FS-, and
//!   Globus-model backends.
//! * [`fabric`] — compute fabrics: FnX (federated FaaS) and HTEX
//!   (direct-connection) executors over shared worker pools.
//! * [`steer`] — Colmena-model thinker agents, task server, resource
//!   counter, life-cycle records.
//! * [`chem`] / [`ml`] — synthetic chemistry and learnable-surrogate
//!   substrates (the science that runs inside tasks).
//! * [`core`] — platform topology, calibration table, and the three
//!   §V-B workflow configurations.
//! * [`apps`] — the two applications: molecular design and surrogate
//!   fine-tuning.
//!
//! See `examples/quickstart.rs` for a guided tour and
//! `crates/bench/src/bin/` for the figure regenerators.

pub use hetflow_apps as apps;
pub use hetflow_chem as chem;
pub use hetflow_core as core;
pub use hetflow_fabric as fabric;
pub use hetflow_ml as ml;
pub use hetflow_sim as sim;
pub use hetflow_steer as steer;
pub use hetflow_store as store;

/// Commonly used items for building campaigns.
pub mod prelude {
    pub use hetflow_apps::finetune::FinetuneParams;
    pub use hetflow_apps::moldesign::MolDesignParams;
    pub use hetflow_core::{deploy, Calibration, Deployment, DeploymentSpec, WorkflowConfig};
    pub use hetflow_fabric::{
        BreakerConfig, ChaosAction, ChaosSpec, Connectivity, HedgeConfig, ReliabilityPolicies,
        ReliabilityPolicy, RetryPolicies, RetryPolicy, TaskError, TaskFn, TaskOutcome, TaskWork,
    };
    pub use hetflow_steer::{Breakdown, ClientQueues, Payload, Thinker};
    pub use hetflow_sim::{Sim, SimRng, SimTime, Tracer};
}
