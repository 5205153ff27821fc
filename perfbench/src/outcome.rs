//! The correctness check: a digest of what the simulation *did*, and
//! the conservation laws every run must satisfy.
//!
//! The digest covers simulated outcomes only: flows admitted, completed,
//! active and dropped; bytes delivered and dropped; the FCT, goodput and
//! recovery summaries; the chaos outcome counters; and every foreground
//! (packet-fidelity) flow's completion and FCT. It leaves out the counts
//! that describe how the simulator got there (events, epochs, messages
//! to switches, allocator runs), so a cheaper event schedule or a delta
//! control plane with the same outcomes passes the check.

use crate::workload::Workload;
use horse::monitoring::series::Summary;
use horse::prelude::*;
use std::fmt::Write as _;

/// The outcomes of one finished run, as canonical text plus its digest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// Canonical `key=value;` text of every outcome (see module docs).
    pub text: String,
    /// FNV-1a 64 of `text`.
    pub digest: u64,
}

/// Floats enter the digest at nine significant digits: exact for any
/// bit-identical run, and blind to last-place rounding of a reordered sum.
fn num(out: &mut String, key: &str, v: f64) {
    let _ = write!(out, "{key}={v:.8e};");
}

fn count(out: &mut String, key: &str, v: u64) {
    let _ = write!(out, "{key}={v};");
}

fn summary(out: &mut String, key: &str, s: &Summary) {
    count(out, &format!("{key}.n"), s.count as u64);
    for (field, v) in [
        ("mean", s.mean),
        ("min", s.min),
        ("p50", s.p50),
        ("p95", s.p95),
        ("p99", s.p99),
        ("p999", s.p999),
        ("max", s.max),
    ] {
        num(out, &format!("{key}.{field}"), v);
    }
}

/// FNV-1a, 64 bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

impl Outcome {
    /// Reads the outcomes of a finished run.
    pub fn of(sim: &Simulation, r: &SimResults, horizon: SimTime) -> Outcome {
        let mut t = String::new();
        count(&mut t, "admitted", r.flows_admitted);
        count(&mut t, "completed", r.flows_completed);
        count(&mut t, "active", r.flows_active_at_end);
        count(&mut t, "dropped", r.flows_dropped);
        num(&mut t, "bytes_delivered", r.bytes_delivered);
        num(&mut t, "bytes_dropped", r.bytes_dropped);
        summary(&mut t, "fct", &r.fct);
        summary(&mut t, "goodput", &r.goodput);
        summary(&mut t, "recovery", &r.recovery);
        let c = &r.chaos;
        for (key, v) in [
            ("chaos.cable_downs", c.cable_downs),
            ("chaos.cable_ups", c.cable_ups),
            ("chaos.switch_crashes", c.switch_crashes),
            ("chaos.switch_rejoins", c.switch_rejoins),
            ("chaos.gray_events", c.gray_events),
            ("chaos.ctrl_outages", c.ctrl_outages),
            ("chaos.ctrl_latency_spikes", c.ctrl_latency_spikes),
            ("chaos.flows_rerouted", c.flows_rerouted),
            ("chaos.flows_stranded", c.flows_stranded),
        ] {
            count(&mut t, key, v);
        }
        count(&mut t, "pkt_flows", r.pkt_flows);
        if let Some(h) = sim.hybrid() {
            for rec in h.pkt_records(horizon) {
                let _ = write!(
                    t,
                    "fg{}={}:{}:",
                    rec.index, rec.completed, rec.bytes_delivered
                );
                num(&mut t, "fct", rec.fct_secs());
            }
        }
        let digest = fnv1a(t.as_bytes());
        Outcome { text: t, digest }
    }
}

/// The conservation laws and workload premises a correct run satisfies.
/// Returns one message per violation.
///
/// Every admission ends one way by the horizon: completed, still active,
/// or knocked off a failed element. A knocked-off flow is either admitted
/// again under a new id (`chaos.flows_rerouted`, itself an admission) or
/// dropped (`chaos.flows_stranded`). So admitted = completed + active +
/// rerouted + stranded. `flows_dropped` also counts arrivals refused
/// before any admission, so it only bounds the stranded flows.
pub fn check(w: Workload, r: &SimResults) -> Vec<String> {
    let mut errors = Vec::new();
    let c = &r.chaos;
    let accounted = r.flows_completed + r.flows_active_at_end + c.flows_rerouted + c.flows_stranded;
    if r.flows_admitted != accounted {
        errors.push(format!(
            "admitted {} != completed {} + active {} + rerouted {} + stranded {}",
            r.flows_admitted,
            r.flows_completed,
            r.flows_active_at_end,
            c.flows_rerouted,
            c.flows_stranded
        ));
    }
    if r.flows_dropped < c.flows_stranded {
        errors.push(format!(
            "dropped {} < stranded {}",
            r.flows_dropped, c.flows_stranded
        ));
    }
    if r.flows_completed == 0 {
        errors.push("no flow completed".into());
    }
    match w {
        Workload::FattreeFlaps => {
            if r.chaos.cable_downs == 0 || r.chaos.switch_crashes == 0 {
                errors.push("the fault schedule did not fire".into());
            }
            if r.chaos.flows_stranded != 0 {
                errors.push(format!("{} flows stranded", r.chaos.flows_stranded));
            }
        }
        Workload::HybridFg => {
            if r.pkt_flows == 0 {
                errors.push("no packet-fidelity flow ran".into());
            }
        }
        Workload::IxpPaper => {}
    }
    errors
}
