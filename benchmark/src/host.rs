//! Host-speed reference for the timed metrics.
//!
//! On a shared host the same binary can run 1.5–2× slower for seconds to
//! minutes at a time, presumably while other load shares its core.
//! A small fixed dense LU factor-and-solve — the kind of work the
//! program's own solvers do, small enough to stay in L1 — slows down with
//! it, while a chain of dependent integer multiplies or a cache-missing
//! pointer chase does not. The runner times this kernel right after every
//! unit and every set-up sample and scales the sample to the kernel's
//! reference time: `time × REFERENCE_MS / kernel_ms`, with `kernel_ms` the
//! mean of the kernel's times just before and just after the sample. A
//! change to the program moves the scaled time as it moves the raw time;
//! the host's speed changes largely cancel. Raw medians are kept in the
//! context line.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// Matrix order of the kernel's system.
const N: usize = 24;

/// Systems factored and solved per kernel run.
const SYSTEMS: usize = 20;

/// Kernel runs per measurement; their median is the measurement.
const RUNS: usize = 3;

/// The kernel time (ms) every sample is scaled to.
pub const REFERENCE_MS: f64 = 0.1;

/// One kernel run: factors and solves [`SYSTEMS`] diagonally dominant
/// `N × N` systems. Returns its time in ms.
fn kernel() -> f64 {
    let t = Instant::now();
    let mut checksum = 0.0;
    for r in 0..SYSTEMS {
        let mut m: Vec<f64> = (0..N * N)
            .map(|i| {
                if i % (N + 1) == 0 {
                    30.0 + r as f64
                } else {
                    ((i * 7 + r) % 13) as f64 * 0.1
                }
            })
            .collect();
        let mut b: Vec<f64> = (0..N).map(|i| i as f64).collect();
        for k in 0..N {
            let pivot = m[k * N + k];
            for i in k + 1..N {
                let f = m[i * N + k] / pivot;
                for j in k..N {
                    m[i * N + j] -= f * m[k * N + j];
                }
                b[i] -= f * b[k];
            }
        }
        for i in (0..N).rev() {
            let mut s = b[i];
            for j in i + 1..N {
                s -= m[i * N + j] * b[j];
            }
            b[i] = s / m[i * N + i];
        }
        checksum += black_box(&b)[0];
    }
    black_box(checksum);
    t.elapsed().as_secs_f64() * 1e3
}

/// The kernel's recent times and the scale factors derived from them.
#[derive(Debug)]
pub struct HostSpeed {
    last_ms: f64,
    samples: Vec<f64>,
}

impl HostSpeed {
    /// Starts with one measurement.
    pub fn new() -> Self {
        let mut speed = HostSpeed {
            last_ms: 0.0,
            samples: Vec::new(),
        };
        speed.last_ms = speed.measure();
        speed
    }

    fn measure(&mut self) -> f64 {
        let runs: Vec<f64> = (0..RUNS).map(|_| kernel()).collect();
        let ms = median(&runs);
        self.samples.push(ms);
        ms
    }

    /// Measures the kernel and returns the factor that scales a time
    /// measured since the previous measurement to the reference speed.
    pub fn factor(&mut self) -> f64 {
        let now = self.measure();
        let factor = REFERENCE_MS / (0.5 * (self.last_ms + now));
        self.last_ms = now;
        factor
    }

    /// Median kernel time (ms) over every measurement.
    pub fn median_ms(&self) -> f64 {
        median(&self.samples)
    }
}

impl Default for HostSpeed {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_scales_to_the_reference() {
        let mut speed = HostSpeed::new();
        let f = speed.factor();
        assert!(f.is_finite() && f > 0.0);
        assert_eq!(speed.samples.len(), 2);
        assert!(speed.median_ms() > 0.0);
    }
}
