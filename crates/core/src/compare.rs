//! Flow-level vs packet-level comparison (experiments E1/E3).
//!
//! [`compare_planes`] drives the *same* workload — the same topology, the
//! same proactive policy, the same flow list — through two simulations,
//! one with every flow fluid and one with every flow at packet fidelity
//! (the [`horse_packetsim`] mechanics), then reports:
//!
//! * wall-clock time and event counts of both planes (the paper's
//!   "simulation time" axis — the speedup is Horse's raison d'être);
//! * per-flow FCT relative error and per-link mean-utilization error (the
//!   "accuracy" axis).
//!
//! The packet plane needs proactive rules (reactive misses drop packets),
//! so comparisons run with proactive policy specs (MAC forwarding / LB).
//!
//! ## Hybrid vs. this offline comparison
//!
//! This module runs the two simulations **separately, one after the
//! other**, over identical inputs — use it to *quantify the fluid
//! abstraction's error* (accuracy sweeps, regression benches, the paper's
//! E3 table).
//! When you instead need packet-level answers for a handful of flows
//! *inside* a large fluid scenario — their FCTs and losses under
//! realistic background, at a fraction of the full packet-level cost —
//! reach for the hybrid co-simulation ([`crate::hybrid`]): tag the
//! foreground flows with [`Fidelity::Packet`](horse_dataplane::Fidelity)
//! (or set [`Scenario::packet_foreground`]) and both fidelities run in
//! **one** simulation, coupled at shared links, under one controller.
//! Rule of thumb: offline comparison to *validate* the abstraction,
//! hybrid to *use* packet fidelity surgically in production scenarios.

use crate::config::SimConfig;
use crate::scenario::Scenario;
use crate::sim::Simulation;
use horse_dataplane::{DemandModel, Fidelity};
use horse_monitoring::series::{summarize, Summary};
use horse_types::{Rate, SimDuration, SimTime};
use std::collections::HashMap;

/// Outcome of a two-plane comparison.
#[derive(Debug)]
pub struct AccuracyReport {
    /// Flow-level wall-clock seconds.
    pub fluid_wall: f64,
    /// Packet-level wall-clock seconds.
    pub packet_wall: f64,
    /// Flow-level events processed.
    pub fluid_events: u64,
    /// Packet-level events processed.
    pub packet_events: u64,
    /// Flows compared (completed in both planes).
    pub flows_compared: usize,
    /// Summary of per-flow relative FCT error: `|fluid - packet| / packet`.
    pub fct_rel_error: Summary,
    /// Mean absolute error of per-link mean utilization.
    pub util_mae: f64,
    /// Root-mean-square error of per-link mean utilization.
    pub util_rmse: f64,
    /// Relative error of total delivered bytes.
    pub bytes_rel_error: f64,
}

impl AccuracyReport {
    /// Packet-wall / fluid-wall — how much faster the abstraction is.
    pub fn speedup(&self) -> f64 {
        if self.fluid_wall > 0.0 {
            self.packet_wall / self.fluid_wall
        } else {
            f64::INFINITY
        }
    }

    /// Event-count ratio (packet / fluid).
    pub fn event_ratio(&self) -> f64 {
        if self.fluid_events > 0 {
            self.packet_events as f64 / self.fluid_events as f64
        } else {
            f64::INFINITY
        }
    }

    /// One-line table row used by the experiment harness.
    pub fn row(&self) -> String {
        format!(
            "fluid {:.4}s ({} ev) | packet {:.4}s ({} ev) | speedup {:.1}x | fct-err p50 {:.1}% p95 {:.1}% | util MAE {:.4} | bytes err {:.2}%",
            self.fluid_wall,
            self.fluid_events,
            self.packet_wall,
            self.packet_events,
            self.speedup(),
            self.fct_rel_error.p50 * 100.0,
            self.fct_rel_error.p95 * 100.0,
            self.util_mae,
            self.bytes_rel_error * 100.0,
        )
    }
}

/// Runs `scenario`'s explicit flows through both planes (the scenario's
/// generated workload, if any, should be materialized into
/// `explicit_flows` first — see [`Scenario`] and the bench harness).
///
/// Both sides are a [`Simulation`] under the caller's `config`: the fluid
/// side runs the flows as given, the packet side runs
/// [`packet_baseline`]`(scenario)`.
pub fn compare_planes(scenario: &Scenario, config: SimConfig) -> AccuracyReport {
    // ---- fluid plane ----
    let mut fluid_scenario = scenario.clone();
    fluid_scenario.workload = None; // explicit flows only, identical inputs
    let mut sim = Simulation::new(fluid_scenario, config).expect("valid scenario");
    let fluid = sim.run();
    let fluid_records = sim.fluid().records().to_vec();
    let fluid_links = sim.fluid().link_stats().to_vec();

    // ---- packet plane ----
    let mut psim = Simulation::new(packet_baseline(scenario), config).expect("valid scenario");
    psim.enable_hybrid(); // a flowless packet side still reports zero load
    let packet = psim.run();
    let hybrid = psim.hybrid().expect("hybrid attached above");
    let packet_records = hybrid.pkt_records(scenario.horizon);
    let packet_links = hybrid.plane().link_bytes();

    // ---- accuracy: FCT ----
    let mut fluid_fct: HashMap<u64, f64> = HashMap::new();
    for r in &fluid_records {
        if r.completed {
            fluid_fct.insert(r.key.stable_hash(), r.fct_secs());
        }
    }
    let mut errors = Vec::new();
    for pr in &packet_records {
        if !pr.completed {
            continue;
        }
        if let Some(&ff) = fluid_fct.get(&pr.key.stable_hash()) {
            let pf = pr.fct_secs();
            if pf > 0.0 {
                errors.push((ff - pf).abs() / pf);
            }
        }
    }

    // ---- accuracy: link utilization (run-mean per directed link) ----
    let secs = scenario
        .horizon
        .saturating_since(SimTime::ZERO)
        .as_secs_f64();
    let mean_util = |bytes: f64, capacity: Rate| {
        if secs > 0.0 && !capacity.is_zero() {
            (bytes * 8.0 / secs / capacity.as_bps()).clamp(0.0, 1.0)
        } else {
            0.0
        }
    };
    let mut abs_errs = Vec::new();
    for (lid, link) in scenario.topology.links() {
        let fluid_util = mean_util(fluid_links[lid.index()].bytes, link.capacity);
        let pkt_util = mean_util(packet_links[lid.index()], link.capacity);
        abs_errs.push((fluid_util - pkt_util).abs());
    }
    let util_mae = if abs_errs.is_empty() {
        0.0
    } else {
        abs_errs.iter().sum::<f64>() / abs_errs.len() as f64
    };
    let util_rmse = if abs_errs.is_empty() {
        0.0
    } else {
        (abs_errs.iter().map(|e| e * e).sum::<f64>() / abs_errs.len() as f64).sqrt()
    };

    // ---- accuracy: delivered volume ----
    // `bytes_delivered` covers completed AND still-active flows, matching
    // the packet side which counts every delivered segment.
    let fluid_bytes: f64 = fluid.bytes_delivered;
    let packet_bytes: f64 = packet_records
        .iter()
        .map(|r| r.bytes_delivered as f64)
        .sum();
    let bytes_rel_error = if packet_bytes > 0.0 {
        (fluid_bytes - packet_bytes).abs() / packet_bytes
    } else {
        0.0
    };

    AccuracyReport {
        fluid_wall: fluid.wall_seconds,
        packet_wall: packet.wall_seconds,
        fluid_events: fluid.events,
        packet_events: packet.events,
        flows_compared: errors.len(),
        fct_rel_error: summarize(&errors),
        util_mae,
        util_rmse,
        bytes_rel_error,
    }
}

/// The packet-level baseline of `scenario`: its explicit sized flows, all
/// at [`Fidelity::Packet`], with the generated workload and every
/// open-ended flow (which has no packet-level source) dropped.
pub fn packet_baseline(scenario: &Scenario) -> Scenario {
    let mut s = scenario.clone();
    s.workload = None;
    s.explicit_flows.retain(|(_, f)| f.size.is_some());
    for (_, f) in &mut s.explicit_flows {
        f.fidelity = Fidelity::Packet;
    }
    s
}

/// Materializes `n` workload arrivals into a scenario's explicit flow list
/// (shared input for both planes). Returns the count actually produced.
pub fn materialize_workload(scenario: &mut Scenario, n: usize) -> usize {
    let Some(params) = scenario.workload.take() else {
        return 0;
    };
    let mut generator = horse_workloads::FlowGenerator::new(params);
    let mut produced = 0;
    while produced < n {
        let Some(a) = generator.next_arrival() else {
            break;
        };
        if a.at > scenario.horizon {
            break;
        }
        let (Some(&src), Some(&dst)) = (scenario.members.get(a.src), scenario.members.get(a.dst))
        else {
            continue;
        };
        let demand = match a.demand {
            horse_workloads::DemandKind::Greedy => DemandModel::Greedy,
            horse_workloads::DemandKind::Cbr(bps) => DemandModel::Cbr(Rate::bps(bps)),
        };
        if let Some(spec) = scenario.flow_between(
            src,
            dst,
            a.app,
            a.src_port,
            Some(horse_types::ByteSize::bytes(a.size_bytes)),
            demand,
        ) {
            scenario.explicit_flows.push((a.at, spec));
            produced += 1;
        }
    }
    produced
}

/// A convenience: compares on an IXP scenario with `flows` materialized
/// arrivals (used by benches and the accuracy example).
pub fn compare_on_ixp(members: usize, flows: usize, horizon: SimTime, seed: u64) -> AccuracyReport {
    let mut params = crate::scenario::IxpScenarioParams::default();
    params.fabric.members = members;
    params.fabric.member_port_speeds = vec![Rate::mbps(200.0)];
    params.fabric.uplink_speed = Rate::gbps(1.0);
    params.offered_bps = members as f64 * 40e6;
    params.sizes = horse_workloads::FlowSizeDist::Pareto {
        alpha: 1.3,
        min_bytes: 50_000,
        max_bytes: 10_000_000,
    };
    params.horizon = horizon;
    params.seed = seed;
    let mut scenario = crate::scenario::Scenario::ixp(&params);
    materialize_workload(&mut scenario, flows);
    let config = SimConfig::default().with_stats_epoch(Some(SimDuration::from_millis(500)));
    compare_planes(&scenario, config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fluid_matches_packet_on_small_ixp() {
        let report = compare_on_ixp(8, 30, SimTime::from_secs(5), 42);
        assert!(report.flows_compared >= 10, "{report:?}");
        // the abstraction's promise: far fewer events…
        assert!(
            report.event_ratio() > 10.0,
            "packet plane should cost ≫ events: ratio {}",
            report.event_ratio()
        );
        // …while keeping aggregate utilization close
        assert!(
            report.util_mae < 0.05,
            "util MAE too high: {}",
            report.util_mae
        );
        // and delivered volume within a few percent
        assert!(
            report.bytes_rel_error < 0.15,
            "volume error {}",
            report.bytes_rel_error
        );
    }

    #[test]
    fn materialize_respects_horizon_and_count() {
        let mut s = crate::scenario::Scenario::figure1(SimTime::from_secs(2), 1);
        let n = materialize_workload(&mut s, 50);
        assert!(n > 0 && n <= 50);
        assert!(s.workload.is_none(), "workload consumed");
        assert!(s.explicit_flows.iter().all(|(t, _)| *t <= s.horizon));
    }
}
