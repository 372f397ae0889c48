//! Pinned trace digests: both fabrics × 3 seeds.
//!
//! The kernel fast-path work (interned actor names, streaming digest
//! fold, calendar-queue timers) is only legal if it is invisible to the
//! trace: these constants were captured from the pre-interning tree and
//! every future kernel change must reproduce them bit-for-bit. A
//! mismatch here means the digest byte recipe, the RNG stream
//! derivation, or the timer firing order drifted.

use hetflow::apps::moldesign;
use hetflow::prelude::*;
use std::time::Duration;

/// Small traced moldesign campaign; returns (digest, event count).
fn pinned_digest(config: WorkflowConfig, seed: u64) -> (u64, usize) {
    let sim = Sim::new();
    let tracer = Tracer::enabled();
    let spec = DeploymentSpec { cpu_workers: 4, gpu_workers: 2, seed, ..Default::default() };
    let d = deploy(&sim, config, &spec, tracer.clone());
    let _ = moldesign::run(
        &sim,
        &d,
        MolDesignParams {
            library_size: 400,
            budget: Duration::from_secs(1200),
            ensemble_size: 2,
            retrain_after: 8,
            seed,
            ..Default::default()
        },
    );
    (tracer.digest(), tracer.len())
}

/// Digests captured from the seed tree (binary-heap timers, `String`
/// actors, retained-event digest) immediately before the kernel
/// fast-path change. Bit-for-bit equality here proves the rewrite is
/// unobservable.
const PINNED: [(WorkflowConfig, u64, u64, usize); 6] = [
    (WorkflowConfig::FnXGlobus, 7, 0xe07588701a425785, 112),
    (WorkflowConfig::FnXGlobus, 1234, 0xaea6a75887d02db7, 112),
    (WorkflowConfig::FnXGlobus, 99_991, 0x990669ede1c1a697, 116),
    (WorkflowConfig::ParslRedis, 7, 0xec2b47f567027e47, 112),
    (WorkflowConfig::ParslRedis, 1234, 0xa0606aca2af70e0f, 112),
    (WorkflowConfig::ParslRedis, 99_991, 0xb61947ec28a2a247, 116),
];

#[test]
fn digests_match_seed_tree_pins() {
    for (config, seed, digest, count) in PINNED {
        let (d, n) = pinned_digest(config, seed);
        assert_eq!(
            (d, n),
            (digest, count),
            "({config:?}, seed {seed}) drifted from the pinned seed-tree digest \
             (got 0x{d:016x}/{n} events): the digest recipe, RNG stream \
             derivation, or timer firing order changed"
        );
    }
}
