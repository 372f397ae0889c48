//! End-to-end pipeline benches: how fast the simulator executes a
//! no-op workload through each fabric, and a scaled-down campaign. The
//! measured wall time is simulator throughput; the virtual-time results
//! are asserted by the figure binaries.

use criterion::{criterion_group, criterion_main, Criterion};
use hetflow_apps::moldesign::{self, MolDesignParams};
use hetflow_bench::{FabricKind, NoopPipeline, StoreKind};
use hetflow_core::{deploy, DeploymentSpec, WorkflowConfig};
use hetflow_sim::{Sim, Tracer};
use std::time::Duration;

fn bench_noop_pipelines(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipeline/noop50");
    for fabric in [FabricKind::FnX, FabricKind::Htex] {
        for store in [StoreKind::None, StoreKind::Redis] {
            let label = format!("{fabric:?}/{}", store.label());
            g.bench_function(&label, |b| {
                b.iter(|| {
                    let mut p = NoopPipeline::fig3(store);
                    p.fabric = fabric;
                    p.run(100_000, 50)
                });
            });
        }
    }
    g.finish();
}

fn bench_mini_campaign(c: &mut Criterion) {
    c.bench_function("pipeline/moldesign_mini", |b| {
        b.iter(|| {
            let sim = Sim::new();
            let spec = DeploymentSpec { cpu_workers: 4, gpu_workers: 4, ..Default::default() };
            let d = deploy(&sim, WorkflowConfig::FnXGlobus, &spec, Tracer::disabled());
            let outcome = moldesign::run(
                &sim,
                &d,
                MolDesignParams {
                    library_size: 1_000,
                    budget: Duration::from_secs(1800),
                    ensemble_size: 2,
                    retrain_after: 6,
                    ..Default::default()
                },
            );
            outcome.simulations
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(10));
    targets = bench_noop_pipelines, bench_mini_campaign
}
criterion_main!(benches);
