//! Experiment matrices: run a campaign across configurations × seeds
//! and aggregate the outcomes.
//!
//! The paper's headline tables (Figs. 6b, 7a) are exactly this shape —
//! three workflow configurations, three seeds each, mean/min/max of the
//! science metric plus latency medians. This module is the reusable
//! driver behind them.

use crate::finetune::{self, FinetuneParams};
use crate::moldesign::{self, MolDesignParams};
use hetflow_core::{deploy, DeploymentSpec, WorkflowConfig};
use hetflow_steer::Breakdown;
use hetflow_sim::{Samples, Sim, Tracer};

/// One cell of a molecular-design matrix: a configuration's aggregated
/// outcomes over all seeds.
#[derive(Clone, Debug)]
pub struct MolDesignCell {
    /// The configuration.
    pub config: WorkflowConfig,
    /// Molecules found per seed.
    pub found: Samples,
    /// Simulations completed per seed.
    pub simulations: Samples,
    /// ML-pipeline makespans pooled across seeds (seconds).
    pub ml_makespans: Samples,
    /// CPU idle gaps pooled across seeds (seconds).
    pub cpu_idle: Samples,
}

/// Runs the molecular-design campaign for every configuration × seed.
///
/// `spec_for` lets callers vary worker counts or calibration per seed;
/// most callers pass `|seed| DeploymentSpec { seed, ..Default::default() }`.
pub fn moldesign_matrix(
    configs: &[WorkflowConfig],
    seeds: &[u64],
    params: &MolDesignParams,
    spec_for: impl Fn(u64) -> DeploymentSpec,
) -> Vec<MolDesignCell> {
    configs
        .iter()
        .map(|&config| {
            let mut cell = MolDesignCell {
                config,
                found: Samples::new(),
                simulations: Samples::new(),
                ml_makespans: Samples::new(),
                cpu_idle: Samples::new(),
            };
            for &seed in seeds {
                let sim = Sim::new();
                let deployment = deploy(&sim, config, &spec_for(seed), Tracer::disabled());
                let outcome = moldesign::run(
                    &sim,
                    &deployment,
                    MolDesignParams { seed, ..params.clone() },
                );
                cell.found.record(outcome.found as f64);
                cell.simulations.record(outcome.simulations as f64);
                cell.ml_makespans.extend_from(&outcome.ml_makespans);
                cell.cpu_idle.extend_from(&outcome.cpu_idle);
            }
            cell
        })
        .collect()
}

/// One cell of a fine-tuning matrix.
#[derive(Clone, Debug)]
pub struct FinetuneCell {
    /// The configuration.
    pub config: WorkflowConfig,
    /// Final force RMSD per seed.
    pub rmsd: Samples,
    /// Pre-fine-tuning RMSD of the *last* seed's initial ensemble
    /// (the initial ensemble is seed-dependent; use it as an
    /// order-of-magnitude baseline, not a shared constant).
    pub initial_rmsd: f64,
    /// Per-task overheads pooled across seeds (seconds).
    pub overhead: Samples,
}

/// Runs the fine-tuning campaign for every configuration × seed.
pub fn finetune_matrix(
    configs: &[WorkflowConfig],
    seeds: &[u64],
    params: &FinetuneParams,
    spec_for: impl Fn(u64) -> DeploymentSpec,
) -> Vec<FinetuneCell> {
    configs
        .iter()
        .map(|&config| {
            let mut cell = FinetuneCell {
                config,
                rmsd: Samples::new(),
                initial_rmsd: 0.0,
                overhead: Samples::new(),
            };
            for &seed in seeds {
                let sim = Sim::new();
                let deployment = deploy(&sim, config, &spec_for(seed), Tracer::disabled());
                let outcome = finetune::run(
                    &sim,
                    &deployment,
                    FinetuneParams { seed, ..params.clone() },
                );
                cell.rmsd.record(outcome.final_force_rmsd);
                cell.initial_rmsd = outcome.initial_force_rmsd;
                cell.overhead
                    .extend_from(&Breakdown::of(&outcome.records, None).overhead);
            }
            cell
        })
        .collect()
}

/// True when two sample sets' ranges overlap — the paper's criterion
/// for "statistically indistinguishable" campaign outcomes.
pub fn ranges_overlap(a: &Samples, b: &Samples) -> bool {
    a.min() <= b.max() && b.min() <= a.max()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn tiny_moldesign() -> MolDesignParams {
        MolDesignParams {
            library_size: 1_500,
            budget: Duration::from_secs(1800),
            ensemble_size: 2,
            retrain_after: 8,
            ..Default::default()
        }
    }

    #[test]
    fn moldesign_matrix_covers_all_cells() {
        let cells = moldesign_matrix(
            &WorkflowConfig::all(),
            &[7, 8],
            &tiny_moldesign(),
            |seed| DeploymentSpec { cpu_workers: 4, gpu_workers: 4, seed, ..Default::default() },
        );
        assert_eq!(cells.len(), 3);
        for cell in &cells {
            assert_eq!(cell.found.len(), 2, "{}: one sample per seed", cell.config.label());
            assert!(cell.simulations.mean() > 10.0);
        }
    }

    #[test]
    fn finetune_matrix_reports_improvement() {
        let params = FinetuneParams {
            pretrain_structures: 50,
            target_new: 8,
            retrain_every: 4,
            ensemble_size: 2,
            md_steps_end: 100,
            ..Default::default()
        };
        let cells = finetune_matrix(
            &[WorkflowConfig::ParslRedis, WorkflowConfig::FnXGlobus],
            &[11],
            &params,
            |seed| DeploymentSpec { cpu_workers: 4, gpu_workers: 4, seed, ..Default::default() },
        );
        assert_eq!(cells.len(), 2);
        for cell in &cells {
            assert!(cell.rmsd.mean() < cell.initial_rmsd, "{}", cell.config.label());
            assert!(!cell.overhead.is_empty());
        }
        // The parity criterion the paper applies.
        assert!(ranges_overlap(&cells[0].rmsd, &cells[1].rmsd) || {
            // Single seed: ranges are points; allow closeness instead.
            (cells[0].rmsd.mean() - cells[1].rmsd.mean()).abs() < 0.05
        });
    }

    #[test]
    fn ranges_overlap_logic() {
        let mut a = Samples::new();
        a.record(1.0);
        a.record(3.0);
        let mut b = Samples::new();
        b.record(2.5);
        b.record(5.0);
        let mut c = Samples::new();
        c.record(4.0);
        c.record(6.0);
        assert!(ranges_overlap(&a, &b));
        assert!(ranges_overlap(&b, &c));
        assert!(!ranges_overlap(&a, &c));
    }
}
