//! A fixed probe of host speed, independent of the simulator code.
//!
//! The probe does the kinds of work the simulator's hot loops do (a
//! binary heap of timestamped events, a hash map keyed by ids, sorting)
//! over a working set of a few MiB. Its host time changes only with the
//! host, never with the program under test.

use crate::median;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

fn probe_once() -> u64 {
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut heap = BinaryHeap::with_capacity(1 << 16);
    let mut map: HashMap<u64, u64> = HashMap::with_capacity(1 << 16);
    let mut acc = 0u64;
    for i in 0..(1u64 << 16) {
        let r = next();
        heap.push((r >> 40, i));
        map.insert(r & 0xf_ffff, i);
        if i % 2 == 1 {
            if let Some((t, id)) = heap.pop() {
                acc = acc.wrapping_add(t ^ id);
            }
        }
        if let Some(v) = map.get(&(next() & 0xf_ffff)) {
            acc = acc.wrapping_add(*v);
        }
    }
    let mut v: Vec<u64> = (0..(1 << 17)).map(|_| next()).collect();
    v.sort_unstable();
    acc.wrapping_add(v[v.len() / 2])
}

/// Host seconds of `reps` probes, one each.
pub fn probe_s(reps: usize) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(probe_once());
            t.elapsed().as_secs_f64()
        })
        .collect()
}

/// The probe time that defines the reference host speed, near the
/// probe's time on a quiet host.
pub const REFERENCE_S: f64 = 0.013;

/// Host seconds between probes: a stretch of work is scaled by the probes
/// taken on both sides of it, so stretches stay short next to the time
/// over which the host's speed drifts.
pub const PROBE_EVERY_S: f64 = 1.0;

/// Runs the probe in a process of its own (`perfbench probe`), so it
/// neither shares the caller's heap nor shows in its peak RSS, and
/// returns its samples.
pub fn probe_process() -> Vec<f64> {
    let exe = std::env::current_exe().expect("own executable path");
    let out = Command::new(exe)
        .arg("probe")
        .output()
        .expect("probe process starts");
    assert!(out.status.success(), "probe process failed");
    let report =
        serde_json::parse_value(&String::from_utf8_lossy(&out.stdout)).expect("probe prints JSON");
    report
        .as_map()
        .and_then(|m| m.iter().find(|(k, _)| k == "probe_s"))
        .and_then(|(_, v)| v.as_seq())
        .expect("probe reports probe_s")
        .iter()
        .filter_map(|v| v.as_number().map(|n| n.as_f64()))
        .collect()
}

/// Scales host seconds to the reference host speed. Work is fed in as
/// stretches; about every [`PROBE_EVERY_S`] the accumulated stretch is
/// closed by a fresh probe and scaled by `REFERENCE_S / median(probes
/// before and after it)`.
pub struct SpeedScale {
    probe: fn() -> Vec<f64>,
    last: Vec<f64>,
    pending_s: f64,
    /// Scaled seconds of every closed stretch.
    pub scaled_s: f64,
    /// Every probe sample taken.
    pub samples: Vec<f64>,
}

impl SpeedScale {
    /// Takes the first probe with `probe`.
    pub fn new(probe: fn() -> Vec<f64>) -> SpeedScale {
        let last = probe();
        SpeedScale {
            probe,
            samples: last.clone(),
            last,
            pending_s: 0.0,
            scaled_s: 0.0,
        }
    }

    /// Adds `host_s` of work; closes the stretch once it is long enough.
    pub fn add(&mut self, host_s: f64) {
        self.pending_s += host_s;
        if self.pending_s >= PROBE_EVERY_S {
            self.close();
        }
    }

    /// Closes the open stretch with a fresh probe and returns the scaled
    /// seconds of all stretches so far, resetting them.
    pub fn take(&mut self) -> f64 {
        self.close();
        std::mem::take(&mut self.scaled_s)
    }

    fn close(&mut self) {
        let after = (self.probe)();
        let around: Vec<f64> = self.last.iter().chain(&after).copied().collect();
        self.scaled_s += self.pending_s * REFERENCE_S / median(&around);
        self.pending_s = 0.0;
        self.samples.extend(&after);
        self.last = after;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn steady() -> Vec<f64> {
        vec![REFERENCE_S / 2.0; 3]
    }

    #[test]
    fn stretches_scale_by_the_probes_around_them() {
        // A host twice as fast as the reference: scaled time doubles.
        let mut scale = SpeedScale::new(steady);
        scale.add(0.25);
        scale.add(PROBE_EVERY_S);
        assert_eq!(scale.samples.len(), 6, "one probe closed the stretch");
        scale.add(0.5);
        let scaled = scale.take();
        assert!((scaled - 2.0 * (1.25 + 0.5)).abs() < 1e-12, "{scaled}");
        assert_eq!(scale.take(), 0.0, "take resets");
    }
}
