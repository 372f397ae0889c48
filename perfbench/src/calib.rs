//! Host-speed calibration: a fixed reference kernel timed between
//! repetitions, so that host time can be reported at one nominal speed.
//!
//! The benchmark shares a few cores of a host with other tenants. What they
//! run slows this process by 10–40% for tens of seconds at a time, without
//! any steal time showing in the guest, so the median host time of one run
//! moves with the neighbours rather than with the program. The reference
//! kernel below is written in this package and never changes with the
//! program. It mixes the three kinds of work the workloads are sensitive to:
//! integer arithmetic, floating-point multiply-adds over a small matrix, and
//! read-modify-write at random places in a 32 MiB table. Timing it right
//! before and right after every repetition measures how fast the host is
//! running at that moment; dividing the repetition's host time by that
//! speed cancels the neighbours' share while keeping the program's.

use std::hint::black_box;
use std::time::Instant;

/// Seconds the reference kernel takes on an undisturbed host (the lowest
/// time seen on the 2-vCPU, 2.0 GHz Xeon development host). Calibrated
/// times are host times rescaled to this speed: a repetition timed while
/// the kernel took `2 × NOMINAL_S` counts half its host time.
pub const NOMINAL_S: f64 = 0.14;

/// Side of the square matrices in the multiply-add part.
const N: usize = 96;

/// The reference kernel's inputs, allocated once.
pub struct Calibrator {
    table: Vec<u64>,
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
}

impl Calibrator {
    /// Allocates the kernel's tables (32 MiB plus three small matrices).
    pub fn new() -> Calibrator {
        Calibrator {
            table: vec![1; 4 << 20],
            a: vec![0.01; N * N],
            b: vec![0.02; N * N],
            c: vec![0.0; N * N],
        }
    }

    /// Host seconds for one pass of the reference kernel.
    pub fn measure(&mut self) -> f64 {
        let t0 = Instant::now();
        black_box(integer_mix(black_box(20_000_000)));
        multiply_add(&self.a, &self.b, &mut self.c, black_box(300));
        black_box(&self.c);
        black_box(random_update(&mut self.table, black_box(6_000_000)));
        t0.elapsed().as_secs_f64()
    }
}

/// Host seconds `host_s` rescaled to the nominal speed, given the kernel's
/// times just before (`before_s`) and just after (`after_s`).
pub fn calibrated(host_s: f64, before_s: f64, after_s: f64) -> f64 {
    host_s * NOMINAL_S / (0.5 * (before_s + after_s))
}

/// A dependent chain of 64-bit multiplies, adds, shifts and xors.
fn integer_mix(steps: u64) -> u64 {
    let mut x = 1u64;
    for i in 0..steps {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(i ^ (x >> 13));
    }
    x
}

/// `c += a × b` for `N × N` matrices, `rounds` times.
fn multiply_add(a: &[f64], b: &[f64], c: &mut [f64], rounds: usize) {
    for _ in 0..rounds {
        for i in 0..N {
            for k in 0..N {
                let aik = a[i * N + k];
                for j in 0..N {
                    c[i * N + j] += aik * b[k * N + j];
                }
            }
        }
    }
}

/// `updates` read-modify-writes at pseudo-random places in `table`.
fn random_update(table: &mut [u64], updates: usize) -> u64 {
    let n = table.len();
    let (mut j, mut sum) = (1usize, 0u64);
    for _ in 0..updates {
        j = j
            .wrapping_mul(2_862_933_555_777_941_757)
            .wrapping_add(3_037_000_493)
            % n;
        sum = sum.wrapping_add(table[j]);
        table[j] = sum;
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_rescales_by_the_mean_kernel_time() {
        assert_eq!(calibrated(2.0, NOMINAL_S, NOMINAL_S), 2.0);
        // A host running the kernel at half speed counts half the time.
        assert!((calibrated(2.0, 2.0 * NOMINAL_S, 2.0 * NOMINAL_S) - 1.0).abs() < 1e-12);
        assert!((calibrated(3.0, NOMINAL_S, 2.0 * NOMINAL_S) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn the_reference_kernel_takes_measurable_time() {
        let mut c = Calibrator::new();
        let (first, second) = (c.measure(), c.measure());
        assert!(first > 0.0 && second > 0.0);
    }
}
