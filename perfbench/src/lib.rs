//! The Horse repository benchmark.
//!
//! `run.py` drives the `perfbench` binary: each child process builds one
//! workload, runs it to the horizon, checks the simulated outcomes and
//! prints its measurements as one JSON line. `NOTES.md` explains the
//! workloads, the metrics and which layer moves which end-to-end metric.

pub mod calib;
pub mod outcome;
pub mod plain;
pub mod reference;
pub mod traced;
pub mod workload;

/// The median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut xs = xs.to_vec();
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => xs[n / 2],
        _ => (xs[n / 2 - 1] + xs[n / 2]) / 2.0,
    }
}
