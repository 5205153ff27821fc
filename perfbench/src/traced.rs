//! The traced run: splits a workload's host time by layer.
//!
//! Everything here is measured from outside the simulator: by timing
//! calls into each crate's public functions, by reading the allocator
//! spans `SimTracer::with_spans()` records, and by reading the
//! deterministic counters in `SimResults`, `HybridNet::plane()` and the
//! event journal.

use crate::median;
use crate::outcome::Outcome;
use crate::plain::{self, Run};
use crate::workload::{config, Workload};
use horse::compare::materialize_workload;
use horse::controlplane::{Controller, ControllerCtx, Outbox, PolicyGenerator};
use horse::dataplane::FluidNet;
use horse::prelude::*;
use horse::topology::LinkState;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{self, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Journal event kinds reported as `events.<kind>`: every kind the
/// benchmark workloads produce.
pub const EVENT_KINDS: [&str; 13] = [
    "flow_arrival",
    "admit_retry",
    "completion",
    "to_controller",
    "to_switch",
    "controller_timer",
    "cable_down",
    "cable_up",
    "switch_down",
    "switch_up",
    "stats_epoch",
    "expiry_scan",
    "pkt",
];

/// Every per-layer metric the traced child reports, with its unit, in
/// output order. `run.py` adds `trace.overhead`, which needs the
/// untraced children too.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = [
        ("scenario.build_s", "s"),
        ("core.new_s", "s"),
        ("core.start_s", "s"),
        ("core.run_until_s", "s"),
        ("core.finish_s", "s"),
        ("controlplane.pathdb_s", "s"),
        ("controlplane.compile_s", "s"),
        ("controlplane.flow_mods", "count"),
        ("controlplane.port_event_s", "s"),
        ("controlplane.port_event_flow_mods", "count"),
        ("openflow.apply_s", "s"),
        ("openflow.apply_ns_per_mod", "ns"),
        ("openflow.table_entries_max", "count"),
        ("openflow.classify_ns", "ns"),
        ("events.total", "count"),
        ("events.epochs", "count"),
        ("events.max_batch", "count"),
        ("events.useful_ratio", "ratio"),
        ("events.other_s", "s"),
        ("dataplane.discovery_s", "s"),
        ("dataplane.build_s", "s"),
        ("dataplane.solve_s", "s"),
        ("dataplane.apply_s", "s"),
        ("dataplane.realloc_runs", "count"),
        ("dataplane.realloc_flows_touched", "count"),
        ("dataplane.realloc_saved", "count"),
        ("dataplane.warm_hit_ratio", "ratio"),
        ("packetsim.tx_packets", "count"),
        ("packetsim.bursts", "count"),
        ("packetsim.cache_hit_ratio", "ratio"),
        ("packetsim.drops", "count"),
        ("packetsim.ns_per_packet", "ns"),
        ("hybrid.couple_passes", "count"),
        ("hybrid.couplings", "count"),
        ("hybrid.fct_err", "ratio"),
        ("snapshot.encode_s", "s"),
        ("snapshot.decode_s", "s"),
        ("snapshot.bytes", "bytes"),
        ("snapshot.resume_failures", "count"),
        ("split.bootstrap_share", "ratio"),
        ("split.dataplane_share", "ratio"),
        ("split.other_share", "ratio"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    let at = names
        .iter()
        .position(|(n, _)| n == "events.other_s")
        .expect("listed above");
    for (i, kind) in EVENT_KINDS.iter().enumerate() {
        names.insert(at + 1 + i, (format!("events.{kind}"), "count"));
    }
    names
}

/// A journal sink that keeps only the per-kind event counts.
#[derive(Clone, Default)]
struct KindCounts(Arc<Mutex<KindState>>);

#[derive(Default)]
struct KindState {
    /// The unfinished tail of the last write.
    partial: Vec<u8>,
    counts: BTreeMap<String, u64>,
}

impl Write for KindCounts {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut guard = self.0.lock().expect("kind counter poisoned");
        let KindState { partial, counts } = &mut *guard;
        partial.extend_from_slice(buf);
        let mut start = 0;
        while let Some(nl) = partial[start..].iter().position(|&b| b == b'\n') {
            let line = &partial[start..start + nl];
            if let Some(kind) = journal_kind(line) {
                *counts.entry(kind.to_string()).or_insert(0) += 1;
            }
            start += nl + 1;
        }
        partial.drain(..start);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The `kind` field of one journal line.
fn journal_kind(line: &[u8]) -> Option<&str> {
    const KEY: &[u8] = b"\"kind\":\"";
    let at = line.windows(KEY.len()).position(|w| w == KEY)? + KEY.len();
    let len = line[at..].iter().position(|&b| b == b'"')?;
    std::str::from_utf8(&line[at..at + len]).ok()
}

/// The per-layer measurements of one traced child, in
/// [`per_layer_names`] order, plus what the checks need.
pub struct Traced {
    /// `(name, value, unit)` for every [`per_layer_names`] entry.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// The traced run's outcome (must equal the untraced one).
    pub outcome: Outcome,
    /// Conservation errors of the traced run.
    pub errors: Vec<String>,
    /// The traced run's `run_s`.
    pub run_s: f64,
    /// What went wrong in the snapshot round trip, if anything.
    pub snapshot_errors: Vec<String>,
    /// The largest layer of the run loop, by host time.
    pub dominant: &'static str,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Times `f` `reps` times and returns the median seconds and the last
/// result.
fn timed<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        last = Some(black_box(f()));
        times.push(t.elapsed().as_secs_f64());
    }
    (median(&times), last.expect("ran at least once"))
}

/// Control plane and OpenFlow, measured outside the simulation on the
/// workload's topology.
fn controlplane_and_openflow(w: Workload, seed: u64, m: &mut BTreeMap<String, f64>) {
    const REPS: usize = 5;
    let scenario = w.scenario(seed);
    let topo = &scenario.topology;
    let (pathdb_s, _) = timed(REPS, || {
        PolicyGenerator::new(scenario.policy.clone(), topo).expect("valid policy")
    });
    let mut gen = PolicyGenerator::new(scenario.policy.clone(), topo).expect("valid policy");
    let (compile_s, outbox) = timed(REPS, || gen.compile(topo));
    m.insert("controlplane.pathdb_s".into(), pathdb_s);
    m.insert("controlplane.compile_s".into(), compile_s);
    m.insert("controlplane.flow_mods".into(), outbox.msgs.len() as f64);

    // One cable-down between two switches (the lowest-numbered such link).
    let is_switch = |n| topo.node(n).is_some_and(|n| n.kind.is_switch());
    let (lid, link) = topo
        .links()
        .find(|(_, l)| is_switch(l.src) && is_switch(l.dst))
        .map(|(id, l)| (id, l.clone()))
        .expect("every workload has an inter-switch link");
    let mut down = topo.clone();
    down.set_cable_state(lid, LinkState::Down)
        .expect("link exists");
    let ctx = ControllerCtx {
        topo: &down,
        now: SimTime::ZERO,
    };
    let (port_event_s, out) = timed(REPS, || {
        let mut out = Outbox::new();
        gen.on_port_status(link.src, link.src_port, false, &ctx, &mut out);
        out
    });
    m.insert("controlplane.port_event_s".into(), port_event_s);
    m.insert(
        "controlplane.port_event_flow_mods".into(),
        out.msgs.len() as f64,
    );

    // The write path: the compiled bootstrap outbox into fresh switches.
    let mut applies = Vec::with_capacity(REPS);
    let mut net = None;
    for _ in 0..REPS {
        let mut fresh = FluidNet::new(topo.clone(), config().fluid());
        let t = Instant::now();
        for (sw, msg) in &outbox.msgs {
            black_box(fresh.apply_ctrl(*sw, msg, SimTime::ZERO));
        }
        applies.push(t.elapsed().as_secs_f64());
        net = Some(fresh);
    }
    let net = net.expect("applied at least once");
    let apply_s = median(&applies);
    m.insert("openflow.apply_s".into(), apply_s);
    m.insert(
        "openflow.apply_ns_per_mod".into(),
        ratio(apply_s * 1e9, outbox.msgs.len() as f64),
    );
    let entries_max = net
        .switch_ids()
        .iter()
        .filter_map(|&sw| net.switch(sw))
        .map(|s| {
            (0..s.table_count())
                .filter_map(|t| s.table(horse::types::TableId(t as u8)))
                .map(|t| t.len())
                .sum::<usize>()
        })
        .max()
        .unwrap_or(0);
    m.insert("openflow.table_entries_max".into(), entries_max as f64);

    // The read path: each workload flow key classified at its ingress
    // switch.
    let mut keyed = scenario.clone();
    materialize_workload(&mut keyed, 4096);
    let probes: Vec<_> = keyed
        .explicit_flows
        .iter()
        .filter_map(|(_, spec)| {
            let (_, access) = topo.out_links(spec.src).next()?;
            Some((net.switch(access.dst)?, access.dst_port, spec.key))
        })
        .collect();
    let passes = 20;
    let (pass_s, _) = timed(5, || {
        for _ in 0..passes {
            for (sw, port, key) in &probes {
                black_box(sw.classify(*port, key));
            }
        }
    });
    m.insert(
        "openflow.classify_ns".into(),
        ratio(pass_s * 1e9, (passes * probes.len()) as f64),
    );
}

/// What the snapshot round trip measured.
#[derive(Clone, Debug, Default)]
pub struct SnapshotTrip {
    /// Host seconds of `checkpoint()`.
    pub encode_s: f64,
    /// Host seconds of `Simulation::resume`.
    pub decode_s: f64,
    /// Snapshot size.
    pub bytes: usize,
    /// One message per failure: a resume error or panic, or a resumed
    /// run whose outcome differs from the straight-through one.
    pub failures: Vec<String>,
}

/// Checkpoints a fresh simulation of `scenario` at mid-horizon, resumes
/// it, continues to the horizon and compares the outcome with the
/// straight-through run's. Failures are counted, never propagated.
pub fn snapshot_round_trip(scenario: Scenario, straight: &Outcome) -> SnapshotTrip {
    let h = scenario.horizon;
    let mut sim = Simulation::new(scenario, config()).expect("valid scenario");
    sim.start();
    sim.run_until(SimTime::from_nanos(h.as_nanos() / 2));
    let t = Instant::now();
    let bytes = sim.checkpoint();
    let mut trip = SnapshotTrip {
        encode_s: t.elapsed().as_secs_f64(),
        bytes: bytes.len(),
        ..SnapshotTrip::default()
    };
    drop(sim);
    let t = Instant::now();
    let resumed = catch_unwind(|| Simulation::resume(&bytes));
    trip.decode_s = t.elapsed().as_secs_f64();
    let failure = match resumed {
        Err(_) => Some("resume panicked".to_string()),
        Ok(Err(e)) => Some(format!("resume failed: {e}")),
        Ok(Ok(mut sim)) => {
            let finished = catch_unwind(AssertUnwindSafe(|| {
                sim.run_until(h);
                let r = sim.finish();
                Outcome::of(&sim, &r, h)
            }));
            match finished {
                Err(_) => Some("resumed run panicked".to_string()),
                Ok(o) if o != *straight => Some(format!(
                    "resumed outcome {:016x} != straight-through {:016x}",
                    o.digest, straight.digest
                )),
                Ok(_) => None,
            }
        }
    };
    trip.failures.extend(failure);
    trip
}

/// Mean relative foreground FCT deviation of `run` against the
/// per-packet oracle (`pkt_burst = 1`, decision cache off).
fn fct_err(w: Workload, seed: u64, run: &Run) -> f64 {
    let Some(h) = run.sim.hybrid() else {
        return 0.0;
    };
    let horizon = w.horizon();
    let oracle_cfg = config().with_pkt_burst(1).with_pkt_decision_cache(false);
    let mut oracle = Simulation::new(w.scenario(seed), oracle_cfg).expect("valid scenario");
    oracle.run();
    let Some(oh) = oracle.hybrid() else {
        return 0.0;
    };
    let devs: Vec<f64> = h
        .pkt_records(horizon)
        .iter()
        .zip(oh.pkt_records(horizon))
        .filter(|(b, o)| b.completed && o.completed && o.fct_secs() > 0.0)
        .map(|(b, o)| (b.fct_secs() - o.fct_secs()).abs() / o.fct_secs())
        .collect();
    ratio(devs.iter().sum(), devs.len() as f64)
}

/// Runs the traced child: one traced run of `(w, seed)`, then the
/// out-of-simulation layer timings, the snapshot round trip and (where
/// packet flows run) the fidelity oracle. `pause` is handed to the traced
/// run (see [`plain::run`]).
pub fn run(w: Workload, seed: u64, pause: &mut dyn FnMut(f64)) -> Traced {
    let kinds = KindCounts::default();
    let tracer = SimTracer::new().with_spans().with_journal(kinds.clone());
    let (sim, steps) = plain::set_up(w, seed);
    let mut run = plain::run(w, sim, steps, Some(tracer), pause);
    let mut tracer = run.sim.take_tracer().expect("tracer installed");
    tracer.finish_journal();
    let r = &run.results;
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let s = run.steps;
    m.insert("scenario.build_s".into(), s.build_s);
    m.insert("core.new_s".into(), s.new_s);
    m.insert("core.start_s".into(), s.start_s);
    m.insert("core.run_until_s".into(), s.run_until_s);
    m.insert("core.finish_s".into(), s.finish_s);

    let mut alloc_ns = 0u64;
    if let Some(spans) = tracer.spans() {
        for sp in spans.spans().iter().filter(|sp| sp.tid == 0) {
            let key = match sp.name {
                "realloc.discovery" => "dataplane.discovery_s",
                "realloc.build" => "dataplane.build_s",
                "realloc.solve" => "dataplane.solve_s",
                "realloc.apply" => "dataplane.apply_s",
                _ => continue,
            };
            alloc_ns += sp.dur_ns;
            *m.entry(key.into()).or_insert(0.0) += sp.dur_ns as f64 * 1e-9;
        }
    }
    let alloc_s = alloc_ns as f64 * 1e-9;
    let other_s = (s.run_until_s - alloc_s).max(0.0);

    m.insert("events.total".into(), r.events as f64);
    m.insert("events.epochs".into(), r.epochs as f64);
    m.insert("events.max_batch".into(), r.max_epoch_batch as f64);
    m.insert(
        "events.useful_ratio".into(),
        ratio(
            r.events.saturating_sub(r.stale_completions) as f64,
            r.events as f64,
        ),
    );
    m.insert("events.other_s".into(), other_s);
    {
        let guard = kinds.0.lock().expect("kind counter poisoned");
        for (kind, n) in &guard.counts {
            m.insert(format!("events.{kind}"), *n as f64);
        }
    }
    m.insert("dataplane.realloc_runs".into(), r.realloc_runs as f64);
    m.insert(
        "dataplane.realloc_flows_touched".into(),
        r.realloc_flows_touched as f64,
    );
    m.insert("dataplane.realloc_saved".into(), r.realloc_saved() as f64);
    m.insert(
        "dataplane.warm_hit_ratio".into(),
        ratio(r.warm_hits as f64, (r.warm_hits + r.cold_solves) as f64),
    );
    if let Some(h) = run.sim.hybrid() {
        let p = h.plane();
        m.insert("packetsim.tx_packets".into(), p.tx_packets() as f64);
        m.insert("packetsim.bursts".into(), p.bursts_formed() as f64);
        m.insert(
            "packetsim.cache_hit_ratio".into(),
            ratio(
                p.cache_hits() as f64,
                (p.cache_hits() + p.cache_misses()) as f64,
            ),
        );
        m.insert("packetsim.drops".into(), p.drops() as f64);
        m.insert(
            "packetsim.ns_per_packet".into(),
            ratio(other_s * 1e9, p.tx_packets() as f64),
        );
        m.insert("hybrid.couplings".into(), h.couplings as f64);
    }
    m.insert(
        "hybrid.couple_passes".into(),
        r.metrics.get("hybrid.couple_passes").unwrap_or(0.0),
    );
    let run_s = s.run_s();
    m.insert("split.bootstrap_share".into(), ratio(s.start_s, run_s));
    m.insert("split.dataplane_share".into(), ratio(alloc_s, run_s));
    m.insert("split.other_share".into(), ratio(other_s, run_s));
    let dominant = [
        ("bootstrap", s.start_s),
        ("dataplane", alloc_s),
        ("other event handling", other_s),
    ]
    .into_iter()
    .max_by(|a, b| a.1.total_cmp(&b.1))
    .map(|(name, _)| name)
    .expect("non-empty");

    m.insert("hybrid.fct_err".into(), fct_err(w, seed, &run));
    let outcome = run.outcome.clone();
    let errors = std::mem::take(&mut run.errors);
    drop(run);

    let trip = snapshot_round_trip(w.scenario(seed), &outcome);
    m.insert("snapshot.encode_s".into(), trip.encode_s);
    m.insert("snapshot.decode_s".into(), trip.decode_s);
    m.insert("snapshot.bytes".into(), trip.bytes as f64);
    m.insert(
        "snapshot.resume_failures".into(),
        trip.failures.len() as f64,
    );
    controlplane_and_openflow(w, seed, &mut m);

    let metrics = per_layer_names()
        .into_iter()
        .map(|(name, unit)| {
            let v = m.get(&name).copied().unwrap_or(0.0);
            (name, v, unit)
        })
        .collect();
    Traced {
        metrics,
        outcome,
        errors,
        run_s,
        snapshot_errors: trip.failures,
        dominant,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_counts_survive_split_writes() {
        let mut sink = KindCounts::default();
        let a = b"{\"n\":1,\"t\":0,\"kind\":\"to_switch\",\"d\":\"00\"}\n{\"n\":2,\"t\":0,\"ki";
        let b =
            b"nd\":\"pkt\",\"d\":\"01\"}\n{\"n\":3,\"t\":1,\"kind\":\"to_switch\",\"d\":\"02\"}\n";
        sink.write_all(a).unwrap();
        sink.write_all(b).unwrap();
        let guard = sink.0.lock().unwrap();
        assert_eq!(guard.counts.get("to_switch"), Some(&2));
        assert_eq!(guard.counts.get("pkt"), Some(&1));
        assert!(guard.partial.is_empty(), "no partial line left over");
    }

    #[test]
    fn every_listed_kind_has_a_metric() {
        let names = per_layer_names();
        for kind in EVENT_KINDS {
            let name = format!("events.{kind}");
            assert!(names.iter().any(|(n, _)| *n == name), "{name}");
        }
    }
}
