//! Pinned outputs of the default seed ([`crate::workloads::DEFAULT_SEED`])
//! at full scale, and the trace digests of the traced run's reference
//! storm. A mismatch is a correctness failure: it counts in `failed` and
//! makes the benchmark exit nonzero.
//!
//! Every value is a simulated (virtual-time) output or a count, never a
//! host timing, so it repeats exactly on any machine. Re-pin only when a
//! change is meant to alter simulated behaviour, and say so.

use crate::workloads::{Observation, TraceCounts};

/// A pinned observable: `(key, value)`.
type Pin = (&'static str, u64);

/// `lifecycle_flood`, seed 1.
const FLOOD: &[Pin] = &[
    ("parsl.completed", 100000),
    ("parsl.failed", 0),
    ("parsl.shed", 0),
    ("parsl.end_ns", 25132493719195),
    ("parsl.timed_out", 0),
    ("parsl.hedged", 0),
    ("parsl.rerouted", 0),
    ("parsl.cancelled", 0),
    ("parsl.store_puts", 0),
    ("parsl.store_gets", 0),
    ("parsl_redis.completed", 100000),
    ("parsl_redis.failed", 0),
    ("parsl_redis.shed", 0),
    ("parsl_redis.end_ns", 25132491680679),
    ("parsl_redis.timed_out", 0),
    ("parsl_redis.hedged", 0),
    ("parsl_redis.rerouted", 0),
    ("parsl_redis.cancelled", 0),
    ("parsl_redis.store_puts", 25000),
    ("parsl_redis.store_gets", 25000),
    ("fnx_globus.completed", 100000),
    ("fnx_globus.failed", 0),
    ("fnx_globus.shed", 0),
    ("fnx_globus.end_ns", 25135462342110),
    ("fnx_globus.timed_out", 0),
    ("fnx_globus.hedged", 0),
    ("fnx_globus.rerouted", 0),
    ("fnx_globus.cancelled", 0),
    ("fnx_globus.store_puts", 25000),
    ("fnx_globus.store_gets", 25000),
];

/// `reliability_storm`, seed 1.
const STORM: &[Pin] = &[
    ("fnx_globus.completed", 10922),
    ("fnx_globus.failed", 19),
    ("fnx_globus.shed", 1059),
    ("fnx_globus.end_ns", 2456820777154),
    ("fnx_globus.timed_out", 19),
    ("fnx_globus.hedged", 550),
    ("fnx_globus.rerouted", 0),
    ("fnx_globus.cancelled", 503),
    ("fnx_globus.store_puts", 2500),
    ("fnx_globus.store_gets", 2763),
    ("parsl_redis.completed", 10075),
    ("parsl_redis.failed", 0),
    ("parsl_redis.shed", 1925),
    ("parsl_redis.end_ns", 2454601608002),
    ("parsl_redis.timed_out", 0),
    ("parsl_redis.hedged", 291),
    ("parsl_redis.rerouted", 0),
    ("parsl_redis.cancelled", 291),
    ("parsl_redis.store_puts", 2500),
    ("parsl_redis.store_gets", 2566),
];

/// `paper_campaigns`, seed 1.
const CAMPAIGNS: &[Pin] = &[
    ("moldesign.simulations", 361),
    ("moldesign.found", 43),
    ("moldesign.tasks", 393),
    ("moldesign.end_ns", 2968897371971),
    ("finetune.training_rounds", 7),
    ("finetune.new_structures", 72),
    ("finetune.force_rmsd_bits", 4590075603283025730),
    ("finetune.tasks", 163),
    ("finetune.end_ns", 3610316064647),
    ("moldesign.topic.simulate", 361),
    ("moldesign.topic.sample", 0),
    ("moldesign.topic.train", 16),
    ("moldesign.topic.infer", 16),
    ("finetune.topic.simulate", 72),
    ("finetune.topic.sample", 19),
    ("finetune.topic.train", 56),
    ("finetune.topic.infer", 16),
];

/// `hetlint_cold`, seed 1.
const HETLINT: &[Pin] = &[
    ("hetlint.files_scanned", 123),
    ("hetlint.violations", 0),
    ("hetlint.bad_allows", 0),
    ("hetlint.suppressed", 6),
    ("hetlint.corpus_hash", 13004165196590239482),
    ("hetlint.corpus_bytes", 1361537),
];

/// Digests of the reference storm's two simulations (FnX+Globus, then
/// Parsl+Redis), probe scale, probe seed.
const TRACE_DIGESTS: [u64; 2] = [0xc32e71b1581d5784, 0xcb9aa2d82b4306cf];

/// The pins of `workload`.
fn pins_for(workload: &str) -> &'static [Pin] {
    match workload {
        "lifecycle_flood" => FLOOD,
        "reliability_storm" => STORM,
        "paper_campaigns" => CAMPAIGNS,
        "hetlint_cold" => HETLINT,
        _ => &[],
    }
}

/// Mismatches between `observed` and the pins for `workload`.
pub fn check(workload: &str, observed: &[Observation]) -> Vec<String> {
    diff(workload, pins_for(workload), observed)
}

/// Mismatches between `observed` and `pins`; a pinned key that was not
/// observed is a mismatch too.
fn diff(workload: &str, pins: &[Pin], observed: &[Observation]) -> Vec<String> {
    pins.iter()
        .filter_map(
            |&(key, want)| match observed.iter().find(|(k, _)| k == key) {
                Some((_, got)) if *got == want => None,
                Some((_, got)) => Some(format!("{workload}: {key} = {got}, pinned {want}")),
                None => Some(format!("{workload}: {key} missing, pinned {want}")),
            },
        )
        .collect()
}

/// Mismatches between the reference storm's trace digests and the pins.
pub fn check_trace(traces: &[TraceCounts]) -> Vec<String> {
    let got: Vec<u64> = traces.iter().map(|t| t.digest).collect();
    if got == TRACE_DIGESTS {
        Vec::new()
    } else {
        vec![format!(
            "traced reference storm: digests {got:#x?}, pinned {TRACE_DIGESTS:#x?}"
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn observed(pins: &[Pin]) -> Vec<Observation> {
        pins.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    #[test]
    fn pinned_values_pass_and_a_perturbed_one_trips() {
        for workload in crate::workloads::NAMES {
            let pins = pins_for(workload);
            assert!(!pins.is_empty(), "{workload} has pins");
            let mut obs = observed(pins);
            assert!(
                check(workload, &obs).is_empty(),
                "{workload}: exact outputs pass"
            );
            obs[0].1 += 1;
            let problems = check(workload, &obs);
            assert_eq!(problems.len(), 1, "{workload}: {problems:?}");
            assert!(problems[0].contains(pins[0].0));
            obs.remove(0);
            assert!(
                check(workload, &obs)[0].contains("missing"),
                "{workload}: a lost key trips"
            );
        }
    }

    #[test]
    fn perturbed_trace_digest_trips() {
        let trace = |digest| TraceCounts {
            digest,
            per_kind: Vec::new(),
        };
        assert!(check_trace(&[trace(TRACE_DIGESTS[0]), trace(TRACE_DIGESTS[1])]).is_empty());
        assert_eq!(
            check_trace(&[trace(TRACE_DIGESTS[0]), trace(TRACE_DIGESTS[1] ^ 1)]).len(),
            1
        );
    }
}
