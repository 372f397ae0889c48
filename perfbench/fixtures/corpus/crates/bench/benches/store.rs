//! ProxyStore backend microbenches: put + resolve per backend and
//! object size (the Fig. 4 cells as criterion measurements of the
//! simulator itself — wall time here is simulator overhead, the virtual
//! costs are asserted in the fig4 binary).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hetflow_core::platform::{THETA, VENTI};
use hetflow_core::Calibration;
use hetflow_store::{Backend, GlobusBackend, GlobusService, Proxy, Store};
use hetflow_sim::{Sim, SimRng};

fn store_for(sim: &Sim, kind: &str, cal: &Calibration) -> (Store, hetflow_store::SiteId) {
    match kind {
        "redis" => (
            Store::new(sim.clone(), "redis", Backend::Redis(cal.redis.clone()), SimRng::from_seed(1)),
            VENTI, // tunnel consumer
        ),
        "fs" => (
            Store::new(sim.clone(), "fs", Backend::Fs(cal.fs_theta.clone()), SimRng::from_seed(1)),
            THETA,
        ),
        _ => {
            let service = GlobusService::new(sim.clone(), cal.globus.clone(), SimRng::from_seed(2));
            (
                Store::new(
                    sim.clone(),
                    "globus",
                    Backend::Globus(Box::new(GlobusBackend {
                        service,
                        src_fs: cal.fs_theta.clone(),
                        dst_fs: cal.fs_venti.clone(),
                        push_to: vec![VENTI],
                    })),
                    SimRng::from_seed(1),
                ),
                VENTI,
            )
        }
    }
}

fn bench_put_resolve(c: &mut Criterion) {
    let cal = Calibration::default();
    let mut g = c.benchmark_group("store/put_resolve");
    for kind in ["redis", "fs", "globus"] {
        for &size in &[10_000u64, 10_000_000] {
            g.bench_with_input(
                BenchmarkId::new(kind, size),
                &(kind, size),
                |b, &(kind, size)| {
                    b.iter(|| {
                        let sim = Sim::new();
                        let (store, consumer) = store_for(&sim, kind, &cal);
                        let h = sim.spawn(async move {
                            for _ in 0..20 {
                                let p = Proxy::create(&store, 0u8, size, THETA).await.unwrap();
                                p.resolve(consumer).await.unwrap();
                            }
                        });
                        sim.block_on(h);
                    });
                },
            );
        }
    }
    g.finish();
}

fn bench_eviction_churn(c: &mut Criterion) {
    let cal = Calibration::default();
    c.bench_function("store/evict_churn_1k", |b| {
        b.iter(|| {
            let sim = Sim::new();
            let (store, _) = store_for(&sim, "fs", &cal);
            let h = sim.spawn(async move {
                for _ in 0..1_000 {
                    let p = Proxy::create(&store, 0u8, 1_000_000, THETA).await.unwrap();
                    p.resolve(THETA).await.unwrap();
                    p.evict();
                }
                store.resident_bytes()
            });
            assert_eq!(sim.block_on(h), 0);
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_put_resolve, bench_eviction_churn
}
criterion_main!(benches);
