//! Criterion bench behind experiment E3/E1b: the two planes on the same
//! workload — the measured gap *is* the paper's headline trade-off.

use criterion::{criterion_group, criterion_main, Criterion};
use horse::compare::{compare_planes, materialize_workload, packet_baseline};
use horse::prelude::*;
use std::hint::black_box;

fn small_scenario() -> Scenario {
    let mut params = IxpScenarioParams::default();
    params.fabric.members = 8;
    params.fabric.member_port_speeds = vec![Rate::mbps(200.0)];
    params.fabric.uplink_speed = Rate::gbps(1.0);
    params.offered_bps = 8.0 * 40e6;
    params.sizes = FlowSizeDist::Pareto {
        alpha: 1.3,
        min_bytes: 100_000,
        max_bytes: 10_000_000,
    };
    params.horizon = SimTime::from_secs(3);
    params.seed = 7;
    let mut s = Scenario::ixp(&params);
    materialize_workload(&mut s, 50);
    s
}

fn bench_planes(c: &mut Criterion) {
    let scenario = small_scenario();
    let mut group = c.benchmark_group("e3_planes");
    group.sample_size(10);

    group.bench_function("fluid", |b| {
        b.iter(|| {
            let mut s = scenario.clone();
            s.workload = None;
            let mut sim = Simulation::new(s, SimConfig::default()).expect("valid");
            black_box(sim.run())
        });
    });

    let packet = packet_baseline(&scenario);
    group.bench_function("packet", |b| {
        b.iter(|| {
            let mut sim = Simulation::new(packet.clone(), SimConfig::default()).expect("valid");
            black_box(sim.run())
        });
    });
    group.finish();

    // one full comparison, printed once so bench logs carry the numbers
    let report = compare_planes(&scenario, SimConfig::default());
    println!("accuracy snapshot: {}", report.row());
}

criterion_group!(benches, bench_planes);
criterion_main!(benches);
