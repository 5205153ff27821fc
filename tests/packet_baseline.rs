//! Packet-level baseline mechanics: flows at [`Fidelity::Packet`] driven
//! by the simulation loop with no fluid traffic — paced CBR delivery, TCP
//! completion and bottleneck sharing, reactive rule setup after a table
//! miss, meter policing and tail drop — and the fluid-vs-packet
//! comparison running its packet side through that same loop.

use horse::compare::{compare_planes, materialize_workload};
use horse::packetsim::PktFlowRecord;
use horse::prelude::*;

/// What one all-packet run left behind.
struct PacketRun {
    records: Vec<PktFlowRecord>,
    link_bytes: Vec<f64>,
    drops: u64,
}

/// A `size`-byte HTTP flow from `src` to `dst` at packet fidelity.
/// `cbr_bps` selects a paced CBR source; `None` a TCP source.
fn packet_flow(
    s: &Scenario,
    src: NodeId,
    dst: NodeId,
    sport: u16,
    size: ByteSize,
    cbr_bps: Option<f64>,
) -> FlowSpec {
    let demand = match cbr_bps {
        Some(bps) => DemandModel::Cbr(Rate::bps(bps)),
        None => DemandModel::Greedy,
    };
    let mut spec = s
        .flow_between(src, dst, AppClass::Http, sport, Some(size), demand)
        .expect("hosts have addresses");
    spec.fidelity = Fidelity::Packet;
    spec
}

fn run(s: Scenario) -> PacketRun {
    let horizon = s.horizon;
    let mut sim = Simulation::new(s, SimConfig::default()).unwrap();
    sim.run();
    let h = sim.hybrid().expect("packet flows attach the packet plane");
    PacketRun {
        records: h.pkt_records(horizon),
        link_bytes: h.plane().link_bytes().to_vec(),
        drops: h.plane().drops(),
    }
}

/// One flow between the first two members of a 100 Mbps star, starting
/// at 10 ms under proactive MAC forwarding.
fn run_star(size: ByteSize, cbr_bps: Option<f64>, horizon_s: u64) -> (PacketRun, Scenario) {
    let f = builders::star(3, Rate::mbps(100.0));
    let mut s = Scenario::bare(f.topology, SimTime::from_secs(horizon_s));
    s.members = f.members;
    s.policy = PolicySpec::new().with(PolicyRule::MacForwarding);
    let spec = packet_flow(&s, s.members[0], s.members[1], 1000, size, cbr_bps);
    s.explicit_flows.push((SimTime::from_millis(10), spec));
    (run(s.clone()), s)
}

#[test]
fn cbr_flow_delivers_all_bytes() {
    let (res, _) = run_star(
        ByteSize::bytes(150_000), // 100 packets
        Some(10e6),
        60,
    );
    assert!(res.records[0].completed, "delivered {:?}", res.records[0]);
    // 150 kB at 10 Mbps = 120 ms (+ transit)
    let fct = res.records[0].fct_secs();
    assert!(fct > 0.118 && fct < 0.15, "fct {fct}");
    assert_eq!(res.drops, 0);
}

#[test]
fn tcp_flow_completes_and_acks_flow_back() {
    let (res, _) = run_star(
        ByteSize::bytes(1_500_000), // 1000 segments
        None,
        60,
    );
    assert!(res.records[0].completed);
    let fct = res.records[0].fct_secs();
    // ideal: 1.5 MB at ~100 Mbps ≈ 0.12 s; slow start adds RTTs
    assert!(fct > 0.12 && fct < 2.0, "fct {fct}");
}

#[test]
fn tcp_fills_the_pipe_reasonably() {
    let (res, s) = run_star(ByteSize::mib(4), None, 60);
    assert!(res.records[0].completed);
    let fct = res.records[0].fct_secs();
    let ideal = 4.0 * 1048576.0 * 8.0 / 100e6;
    assert!(
        fct < ideal * 1.6,
        "tcp should reach ≥ ~60% of line rate: fct {fct} vs ideal {ideal}"
    );
    // bytes flowed over the source's access link
    let (lid, _) = s.topology.out_links(s.members[0]).next().unwrap();
    assert!(res.link_bytes[lid.index()] as u64 >= 4 * 1024 * 1024);
}

#[test]
fn two_tcp_flows_share_a_bottleneck() {
    let f = builders::star(3, Rate::mbps(100.0));
    let mut s = Scenario::bare(f.topology, SimTime::from_secs(60));
    s.members = f.members;
    s.policy = PolicySpec::new().with(PolicyRule::MacForwarding);
    // both flows into member 2: its access link is the bottleneck
    let m = s.members.clone();
    let s1 = packet_flow(&s, m[0], m[2], 1000, ByteSize::mib(2), None);
    let s2 = packet_flow(&s, m[1], m[2], 2000, ByteSize::mib(2), None);
    s.explicit_flows.push((SimTime::from_millis(10), s1));
    s.explicit_flows.push((SimTime::from_millis(10), s2));
    let res = run(s);
    assert!(res.records[0].completed && res.records[1].completed);
    // each ideally gets ~50 Mbps: 2 MiB each ⇒ ≈ 0.67 s total;
    // allow generous losses/sawtooth margin
    for r in &res.records {
        assert!(r.fct_secs() < 2.5, "fct {}", r.fct_secs());
    }
}

#[test]
fn reactive_controller_installs_rules_after_miss() {
    let f = builders::star(2, Rate::mbps(100.0));
    let mut s = Scenario::bare(f.topology, SimTime::from_secs(60));
    s.members = f.members;
    s.policy = PolicySpec::new().with(PolicyRule::MacLearning);
    let spec = packet_flow(
        &s,
        s.members[0],
        s.members[1],
        1000,
        ByteSize::bytes(150_000),
        None,
    );
    s.explicit_flows.push((SimTime::from_millis(10), spec));
    let res = run(s);
    assert!(res.records[0].completed, "{:?}", res.records[0]);
    assert!(res.drops >= 1, "first packet(s) dropped at the miss");
}

#[test]
fn meter_polices_cbr_at_packet_level() {
    let f = builders::star(2, Rate::mbps(100.0));
    let mut s = Scenario::bare(f.topology, SimTime::from_secs(2));
    s.members = f.members;
    s.policy = PolicySpec::new()
        .with(PolicyRule::MacForwarding)
        .with(PolicyRule::RateLimit {
            src: "h1".into(),
            dst: "h2".into(),
            rate_mbps: 10.0,
        });
    // offer 50 Mbps for 2 simulated seconds against a 10 Mbps policer
    let spec = packet_flow(
        &s,
        s.members[0],
        s.members[1],
        1000,
        ByteSize::bytes(12_500_000), // 100 Mb = 2 s at 50 Mbps
        Some(50e6),
    );
    s.explicit_flows.push((SimTime::ZERO, spec));
    let res = run(s);
    // delivered ≈ 10 Mbps × 2 s = 2.5 MB (+ burst); must be well under
    // the offered 12.5 MB and the drops must account for the excess
    let delivered = res.records[0].bytes_delivered as f64;
    assert!(
        delivered < 5_000_000.0,
        "policer must clamp: delivered {delivered}"
    );
    assert!(res.drops > 1000, "policer drops: {}", res.drops);
}

#[test]
fn buffer_overflow_drops() {
    // 1 Mbps bottleneck, CBR at 100 Mbps: the queue must overflow
    let f = builders::star(2, Rate::mbps(1.0));
    let mut s = Scenario::bare(f.topology, SimTime::from_secs(1));
    s.members = f.members;
    s.policy = PolicySpec::new().with(PolicyRule::MacForwarding);
    let spec = packet_flow(
        &s,
        s.members[0],
        s.members[1],
        1000,
        ByteSize::mib(10),
        Some(100e6),
    );
    s.explicit_flows.push((SimTime::ZERO, spec));
    let res = run(s);
    assert!(res.drops > 0, "tail drop must kick in");
}

#[test]
fn comparison_packet_side_honours_the_burst_cap() {
    // The packet side of `compare_planes` is a simulation under the
    // caller's config, so `pkt_burst = 1` (one event per packet) must cost
    // more packet events than the default burst batching.
    let mut params = IxpScenarioParams::default();
    params.fabric.members = 8;
    params.fabric.member_port_speeds = vec![Rate::mbps(200.0)];
    params.fabric.uplink_speed = Rate::gbps(1.0);
    params.offered_bps = 8.0 * 40e6;
    params.horizon = SimTime::from_secs(2);
    params.seed = 3;
    let mut s = Scenario::ixp(&params);
    materialize_workload(&mut s, 20);
    let batched = compare_planes(&s, SimConfig::default());
    let per_packet = compare_planes(&s, SimConfig::default().with_pkt_burst(1));
    assert!(
        per_packet.packet_events > batched.packet_events,
        "per-packet {} vs batched {} packet events",
        per_packet.packet_events,
        batched.packet_events
    );
}
