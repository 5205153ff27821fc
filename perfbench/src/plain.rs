//! One timed run of a workload, shared by the untraced and traced children.

use crate::outcome::{self, Outcome};
use crate::workload::{config, Workload};
use horse::prelude::*;
use std::time::Instant;

/// Host seconds of each step of one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Steps {
    /// Building the `Scenario` (topology, workload parameters).
    pub build_s: f64,
    /// `Simulation::new` (PathDb, switches, event queue).
    pub new_s: f64,
    /// `start()`: the controller's bootstrap flow-mods.
    pub start_s: f64,
    /// `run_until(horizon)`: the event loop.
    pub run_until_s: f64,
    /// `finish()`: end-of-run accounting.
    pub finish_s: f64,
}

impl Steps {
    /// `setup_s`: what a user waits for before the run can start.
    pub fn setup_s(&self) -> f64 {
        self.build_s + self.new_s
    }

    /// `run_s`: what a user waits for once the run is built.
    pub fn run_s(&self) -> f64 {
        self.start_s + self.run_until_s + self.finish_s
    }
}

/// One measured run: its step times, outcome and conservation errors.
pub struct Run {
    /// Host time per step.
    pub steps: Steps,
    /// The simulated outcomes.
    pub outcome: Outcome,
    /// Conservation / premise violations (empty when correct).
    pub errors: Vec<String>,
    /// The results, for counters the traced run reads.
    pub results: SimResults,
    /// The finished simulation, for the planes the traced run reads.
    pub sim: Simulation,
}

/// Times scenario construction plus `Simulation::new`.
pub fn set_up(w: Workload, seed: u64) -> (Simulation, Steps) {
    let t = Instant::now();
    let scenario = w.scenario(seed);
    let build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let sim = Simulation::new(scenario, config()).expect("benchmark scenarios are valid");
    let new_s = t.elapsed().as_secs_f64();
    (
        sim,
        Steps {
            build_s,
            new_s,
            ..Steps::default()
        },
    )
}

/// Sets the workload up `reps` times, dropping each simulation before
/// building the next, and returns the last one with every set-up time.
/// Repeating the cheap set-up steadies its median.
pub fn set_up_repeated(w: Workload, seed: u64, reps: usize) -> (Simulation, Steps, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut built = None;
    for _ in 0..reps.max(1) {
        drop(built.take());
        let (sim, steps) = set_up(w, seed);
        times.push(steps.setup_s());
        built = Some((sim, steps));
    }
    let (sim, steps) = built.expect("set up at least once");
    (sim, steps, times)
}

/// Slices the event loop is run in (equal spans of simulated time).
/// Stopping at an epoch boundary and continuing is bit-identical to never
/// stopping, so slicing changes no outcome; it lets the host speed be
/// probed during a long run.
pub const SLICES: u64 = 20;

/// Runs a built simulation to its horizon, timing each step. `pause`
/// receives the host seconds of `start()`, of each slice of the event
/// loop and of `finish()` right after each one; its own time is not
/// counted.
pub fn run(
    w: Workload,
    mut sim: Simulation,
    mut steps: Steps,
    tracer: Option<SimTracer>,
    pause: &mut dyn FnMut(f64),
) -> Run {
    if let Some(tracer) = tracer {
        sim.set_tracer(tracer);
    }
    let horizon = w.horizon();
    let t = Instant::now();
    sim.start();
    steps.start_s = t.elapsed().as_secs_f64();
    pause(steps.start_s);
    for k in 1..=SLICES {
        let t = Instant::now();
        sim.run_until(SimTime::from_nanos(horizon.as_nanos() * k / SLICES));
        let slice_s = t.elapsed().as_secs_f64();
        steps.run_until_s += slice_s;
        pause(slice_s);
    }
    let t = Instant::now();
    let results = sim.finish();
    steps.finish_s = t.elapsed().as_secs_f64();
    pause(steps.finish_s);
    let outcome = Outcome::of(&sim, &results, horizon);
    let errors = outcome::check(w, &results);
    Run {
        steps,
        outcome,
        errors,
        results,
        sim,
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
