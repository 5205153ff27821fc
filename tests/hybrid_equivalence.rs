//! Degenerate-fidelity equivalence of the hybrid co-simulation
//! (`horse_core::hybrid`):
//!
//! * an **all-fluid** hybrid run (machinery attached, zero packet flows)
//!   is byte-identical to the pure fluid engine;
//! * a **mixed-fidelity** run reports foreground-flow FCTs close to a
//!   full packet-level run (every flow at packet fidelity) of the same
//!   inputs on the paper's figure1 fabric.
//!
//! The packet mechanics themselves are pinned by the per-packet oracle in
//! `pkt_burst_equivalence.rs`.

use horse::compare::{materialize_workload, packet_baseline};
use horse::prelude::*;

/// A deterministic gravity-workload scenario on the paper's Figure-1
/// fabric, with `n` arrivals materialized into explicit flows.
fn figure1_fabric_scenario(seed: u64, n: usize, horizon_s: u64) -> Scenario {
    let f = builders::figure1_fabric();
    let mut s = Scenario::bare(f.topology, SimTime::from_secs(horizon_s));
    s.members = f.members;
    // proactive policy: packet flows drop packets on table misses
    s.policy = PolicySpec::new().with(PolicyRule::LoadBalancing { mode: LbMode::Ecmp });
    let weights = TrafficMatrix::zipf_weights(s.members.len(), 0.8);
    s.workload = Some(WorkloadParams {
        // ~10% of the 4×10G access aggregate: moderate background load
        matrix: TrafficMatrix::gravity(&weights, 4e9),
        sizes: FlowSizeDist::Pareto {
            alpha: 1.3,
            min_bytes: 200_000,
            max_bytes: 5_000_000,
        },
        apps: AppMix::default_ixp(),
        diurnal: None,
        udp_rate: Rate::mbps(4.0),
        seed,
    });
    materialize_workload(&mut s, n);
    s
}

/// The comparison config: no periodic machinery (stats epochs, entry
/// expiry), so only flow, control and packet events run.
fn packet_aligned_config() -> SimConfig {
    SimConfig::default()
        .with_stats_epoch(None)
        .with_expiry_scan(None)
}

fn fingerprint(r: &SimResults) -> (u64, u64, u64, u64, u64, u64, u64) {
    (
        r.events,
        r.flows_admitted,
        r.flows_completed,
        r.flows_dropped,
        r.bytes_delivered.to_bits(),
        r.fct.p50.to_bits(),
        r.goodput.mean.to_bits(),
    )
}

#[test]
fn all_fluid_hybrid_run_is_byte_identical_to_fluid_engine() {
    let run = |enable_hybrid: bool| {
        let s = Scenario::figure1(SimTime::from_secs(3), 11);
        let mut sim = Simulation::new(s, SimConfig::default()).unwrap();
        if enable_hybrid {
            sim.enable_hybrid();
            assert!(sim.hybrid().is_some());
        }
        let r = sim.run();
        let records: Vec<(u64, u64, u64, bool)> = sim
            .fluid()
            .records()
            .iter()
            .map(|rec| {
                (
                    rec.bytes.to_bits(),
                    rec.started.as_nanos(),
                    rec.finished.as_nanos(),
                    rec.completed,
                )
            })
            .collect();
        (fingerprint(&r), records)
    };
    let pure = run(false);
    let hybrid = run(true);
    assert_eq!(pure.0, hybrid.0, "aggregate results must match bit-for-bit");
    assert_eq!(pure.1, hybrid.1, "per-flow records must match bit-for-bit");
}

#[test]
fn hybrid_coupling_runs_at_most_once_per_epoch() {
    // Pre-epoch-batching, `reallocate` re-coupled the planes on *every*
    // trigger — several times per instant during arrival/transition
    // bursts. With epoch batching the coupling pass is guarded: however
    // many allocator runs an epoch's flush points force, the planes
    // exchange load at most once per epoch.
    let foreground = 6usize;
    let mut s = figure1_fabric_scenario(21, 24, 20);
    for (_, spec) in s.explicit_flows.iter_mut().take(foreground) {
        spec.fidelity = Fidelity::Packet;
    }
    let mut sim = Simulation::new(s, packet_aligned_config()).unwrap();
    let r = sim.run();
    let hybrid = sim.hybrid().expect("hybrid attached");
    assert!(
        hybrid.couplings > 0,
        "the planes must actually exchange load"
    );
    assert!(
        hybrid.couple_passes <= r.epochs,
        "coupling ran {} times over {} epochs — more than once per epoch",
        hybrid.couple_passes,
        r.epochs
    );
    assert!(
        r.realloc_runs <= r.realloc_requests,
        "batching collapses same-epoch reallocation requests"
    );
}

#[test]
fn mixed_fidelity_foreground_fct_tracks_full_packet_run() {
    let horizon = SimTime::from_secs(20);
    let foreground = 6usize;
    let mut s = figure1_fabric_scenario(21, 24, 20);
    for (_, spec) in s.explicit_flows.iter_mut().take(foreground) {
        spec.fidelity = Fidelity::Packet;
    }

    // ---- hybrid: packet foreground over fluid background ----
    let mut sim = Simulation::new(s.clone(), packet_aligned_config()).unwrap();
    let results = sim.run();
    let hybrid = sim.hybrid().expect("hybrid attached");
    let hybrid_records = hybrid.pkt_records(horizon);
    assert_eq!(hybrid_records.len(), foreground);
    assert_eq!(results.pkt_flows, foreground as u64);
    assert!(
        hybrid.couplings > 0,
        "the planes must actually exchange load at shared links"
    );

    // ---- full packet-level run of ALL flows ----
    let mut full = Simulation::new(packet_baseline(&s), packet_aligned_config()).unwrap();
    full.run();
    let baseline = full
        .hybrid()
        .expect("packet flows attach the hybrid half")
        .pkt_records(horizon);
    assert_eq!(baseline.len(), s.explicit_flows.len());

    let mut errors = Vec::new();
    for h in &hybrid_records {
        let b = baseline
            .iter()
            .find(|b| b.key == h.key)
            .expect("every foreground flow runs in the full packet run");
        assert!(
            h.completed && b.completed,
            "foreground flows complete in both runs ({:?}: hybrid {}, packet {})",
            h.key,
            h.completed,
            b.completed
        );
        let (hf, bf) = (h.fct_secs(), b.fct_secs());
        assert!(bf > 0.0);
        errors.push((hf - bf).abs() / bf);
    }
    let mean_err = errors.iter().sum::<f64>() / errors.len() as f64;
    assert!(
        mean_err < 0.10,
        "foreground FCTs must track the full packet run within 10%: \
         mean rel err {mean_err:.4} (per-flow {errors:?})"
    );
}
