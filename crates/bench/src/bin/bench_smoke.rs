//! Quick-mode bench smoke: runs the sweep + scale benches (plus a hybrid
//! co-simulation point) in a fast configuration and writes a
//! machine-readable `BENCH_pr<N>.json` so the repository's bench
//! trajectory has recorded data points (runner throughput, reallocate
//! ns/op, events/sec, hybrid event cost).
//!
//! Wall-clock numbers vary with the host; the point is the *trajectory*
//! within one machine (CI keeps the artifact per run) plus the
//! deterministic counters alongside them.
//!
//! `--baseline <file>` turns the run into a **regression gate**: the
//! fresh point is compared against the given committed `BENCH_*.json`
//! and the process exits non-zero when `realloc_ns_per_op` or
//! `events_per_sec` (`wall_ms` on the chaos-flaps point) regress by more
//! than 25% (quick-mode noise tolerance) on any matched scale point or
//! on runner throughput.
//!
//! Usage: `bench_smoke [--pr N] [--out PATH] [--baseline BENCH_prM.json]`

use horse::prelude::*;
use horse_bench::{
    fast_config, ixp_scenario, lb_policy, million_flow_point, pkt_burst_scenario, wave_ixp_scenario,
};
use serde::{Number, Value};
use std::time::Instant;

/// Regression tolerance: quick-mode numbers on shared CI runners are
/// noisy; only flag changes beyond this factor.
const TOLERANCE: f64 = 0.25;

/// The epoch-batching acceptance bar: on the 400-member IXP wave
/// fabric, the batched loop (+ 4 engine threads) must beat the per-event
/// serial cadence by at least this factor in useful events/sec. Asserted
/// on every run, so CI fails if the win ever erodes.
const WAVE_SPEEDUP_FLOOR: f64 = 1.5;

/// Full tracing (metrics + spans + journal) must retain at least this
/// fraction of untraced events/sec on the 100-member point (measured
/// ~0.90 on a contended single-core runner; the floor leaves noise
/// headroom). Tracing *disabled* is gated separately: the default path
/// carries no tracer, so the `--baseline` comparison against the
/// committed bench point IS the disabled-overhead regression check.
const TRACE_EPS_FLOOR: f64 = 0.85;

/// Million-flow superlinearity bound: per-flow per-epoch allocator cost
/// at ~10^6 flows may be at most this factor of the cost at ~1.3·10^5
/// flows (an 8× population jump). Flat means the per-epoch cost is
/// linear in flows touched; this is asserted on every run.
const MILLION_FLOW_RATIO_CEIL: f64 = 3.0;

/// Prefix-shared forking acceptance bar: on a 3-variant what-if sweep
/// diverging at 93% of the horizon, forked execution (shared prefix
/// simulated once, checkpointed, forked per variant) must beat naive
/// full re-simulation by at least this wall-clock factor — while
/// producing byte-identical reports. Asserted on every run (measured
/// ~1.9× on a contended single-core runner; the floor leaves noise
/// headroom).
const FORK_SPEEDUP_FLOOR: f64 = 1.5;

/// Packet-burst acceptance bar: on the loss-free WAN point the batched
/// packet plane (GSO-style bursts + decision cache, the defaults) must
/// model at least this many times more packets per wall-second than the
/// per-packet oracle (`pkt_burst = 1`, cache off). Asserted on every run
/// (measured ~20× on a contended single-core runner; the floor leaves
/// generous headroom).
const PKT_BURST_SPEEDUP_FLOOR: f64 = 5.0;

/// Fidelity bar riding along with the speedup: mean foreground FCT
/// deviation of the batched plane against the per-packet oracle on the
/// same loss-free point. Batching skews delivery by at most
/// `(cap − 1)` serialization slots per round — parts-per-thousand of
/// every RTT on 40G access behind 50/250 µs propagation.
const PKT_BURST_FCT_DEV_CEIL: f64 = 0.01;

fn num_f(v: f64) -> Value {
    Value::Number(Number::Float(v))
}

fn num_u(v: u64) -> Value {
    Value::Number(Number::UInt(v))
}

/// Timed single-scenario run: returns (results, wall seconds).
fn timed_run(members: usize, seed: u64, packet_foreground: usize) -> (SimResults, f64) {
    let mut s = ixp_scenario(members, 1.0, lb_policy(), SimTime::from_secs(2), seed);
    s.packet_foreground = packet_foreground;
    let mut sim = Simulation::new(s, fast_config()).expect("valid scenario");
    let t = Instant::now();
    let r = sim.run();
    (r, t.elapsed().as_secs_f64())
}

/// One warmup run, then best-of-3 by wall time (quick-mode noise
/// guard) — the shared timing harness of every point in this file.
fn best_of<R>(mut run: impl FnMut() -> (R, f64)) -> (R, f64) {
    let _ = run(); // warmup
    let (mut best_r, mut best_w) = run();
    for _ in 0..2 {
        let (r, w) = run();
        if w < best_w {
            best_w = w;
            best_r = r;
        }
    }
    (best_r, best_w)
}

/// [`best_of`] over the standard IXP scenario.
fn best_of_3(members: usize, packet_foreground: usize) -> (SimResults, f64) {
    best_of(|| timed_run(members, 1, packet_foreground))
}

fn get<'v>(v: &'v Value, key: &str) -> Option<&'v Value> {
    serde::map_get(v.as_map()?, key)
}

fn get_f(v: &Value, key: &str) -> Option<f64> {
    get(v, key).and_then(|x| x.as_number()).map(|n| n.as_f64())
}

/// One gate check: `fresh` may be at most `tolerance` worse than `base`.
/// `higher_is_better` selects the direction. Returns an error line on
/// regression.
fn check(metric: &str, base: f64, fresh: f64, higher_is_better: bool) -> Option<String> {
    if base <= 0.0 {
        return None; // nothing meaningful to compare against
    }
    let (bad, bound) = if higher_is_better {
        (fresh < base * (1.0 - TOLERANCE), base * (1.0 - TOLERANCE))
    } else {
        (fresh > base * (1.0 + TOLERANCE), base * (1.0 + TOLERANCE))
    };
    bad.then(|| {
        format!(
            "REGRESSION {metric}: fresh {fresh:.1} vs baseline {base:.1} \
             (allowed {} {bound:.1})",
            if higher_is_better { ">=" } else { "<=" },
        )
    })
}

/// Compares the fresh document against a committed baseline; returns
/// every regression found.
fn gate(baseline: &Value, fresh: &Value) -> Vec<String> {
    let mut failures = Vec::new();
    // Runner throughput: events/sec must not collapse.
    if let (Some(b), Some(f)) = (
        get(baseline, "runner_throughput").and_then(|v| get_f(v, "events_per_sec")),
        get(fresh, "runner_throughput").and_then(|v| get_f(v, "events_per_sec")),
    ) {
        failures.extend(check("runner events_per_sec", b, f, true));
    }
    // Scale points, matched by member count.
    let empty: [Value; 0] = [];
    let b_scale = get(baseline, "scale")
        .and_then(|v| v.as_seq())
        .unwrap_or(&empty);
    let f_scale = get(fresh, "scale")
        .and_then(|v| v.as_seq())
        .unwrap_or(&empty);
    for b in b_scale {
        let Some(members) = get(b, "members").and_then(|v| v.as_number()) else {
            continue;
        };
        let members = members.as_f64();
        let Some(f) = f_scale
            .iter()
            .find(|f| get_f(f, "members") == Some(members))
        else {
            continue;
        };
        for (metric, higher_is_better) in [("events_per_sec", true), ("realloc_ns_per_op", false)] {
            if let (Some(bv), Some(fv)) = (get_f(b, metric), get_f(f, metric)) {
                failures.extend(check(
                    &format!("scale[{members}].{metric}"),
                    bv,
                    fv,
                    higher_is_better,
                ));
            }
        }
        // Deterministic counters are host-independent: drift means the
        // engine's behavior changed and the committed point should be
        // refreshed in the same PR. Noted, not gated — the wall metrics
        // above are the gate the CI job fails on.
        for counter in ["events", "realloc_runs"] {
            if let (Some(bv), Some(fv)) = (get_f(b, counter), get_f(f, counter)) {
                if bv != fv {
                    println!(
                        "note: scale[{members}].{counter} changed {bv} -> {fv} \
                         (deterministic counter; refresh the committed baseline if intended)"
                    );
                }
            }
        }
    }
    // Epoch-wave point (present from PR 5 on): the batched side's
    // throughput and the batched-vs-serial speedup must not collapse.
    if let (Some(b), Some(f)) = (get(baseline, "epoch_waves"), get(fresh, "epoch_waves")) {
        if let (Some(bv), Some(fv)) = (
            get(b, "batched_t4").and_then(|v| get_f(v, "useful_events_per_sec")),
            get(f, "batched_t4").and_then(|v| get_f(v, "useful_events_per_sec")),
        ) {
            failures.extend(check(
                "epoch_waves.batched_t4.useful_events_per_sec",
                bv,
                fv,
                true,
            ));
        }
        if let (Some(bv), Some(fv)) = (get_f(b, "flows"), get_f(f, "flows")) {
            if bv != fv {
                println!(
                    "note: epoch_waves.flows changed {bv} -> {fv} \
                     (deterministic counter; refresh the committed baseline if intended)"
                );
            }
        }
    }
    // Fat-tree and chaos-flaps points: wall metrics like the scale
    // points; skipped silently against baselines that predate them.
    // The chaos point gates its wall time instead of events/sec: one
    // channel event per controller reaction removed ~99.9% of its
    // events, so events/sec falls even as the run gets faster.
    for (point, rate_metric) in [
        ("fat_tree", ("events_per_sec", true)),
        ("chaos_flaps", ("wall_ms", false)),
    ] {
        let (Some(b), Some(f)) = (get(baseline, point), get(fresh, point)) else {
            continue;
        };
        for (metric, higher_is_better) in [rate_metric, ("realloc_ns_per_op", false)] {
            if let (Some(bv), Some(fv)) = (get_f(b, metric), get_f(f, metric)) {
                failures.extend(check(
                    &format!("{point}.{metric}"),
                    bv,
                    fv,
                    higher_is_better,
                ));
            }
        }
        for counter in [
            "events",
            "realloc_runs",
            "cable_downs",
            "flows_rerouted",
            "flows_stranded",
        ] {
            if let (Some(bv), Some(fv)) = (get_f(b, counter), get_f(f, counter)) {
                if bv != fv {
                    println!(
                        "note: {point}.{counter} changed {bv} -> {fv} \
                         (deterministic counter; refresh the committed baseline if intended)"
                    );
                }
            }
        }
    }
    // Million-flow point (PR 8 on): per-flow per-epoch churn cost on the
    // large side is the scaling headline; gated like the other wall
    // metrics. Skipped silently against older baselines.
    if let (Some(b), Some(f)) = (get(baseline, "million_flow"), get(fresh, "million_flow")) {
        if let (Some(bv), Some(fv)) = (
            get(b, "large").and_then(|v| get_f(v, "churn_ns_per_flow")),
            get(f, "large").and_then(|v| get_f(v, "churn_ns_per_flow")),
        ) {
            failures.extend(check("million_flow.large.churn_ns_per_flow", bv, fv, false));
        }
        for side in ["small", "large"] {
            for counter in ["flows", "macro_vars", "warm_hits", "cold_solves"] {
                if let (Some(bv), Some(fv)) = (
                    get(b, side).and_then(|v| get_f(v, counter)),
                    get(f, side).and_then(|v| get_f(v, counter)),
                ) {
                    if bv != fv {
                        println!(
                            "note: million_flow.{side}.{counter} changed {bv} -> {fv} \
                             (deterministic counter; refresh the committed baseline if intended)"
                        );
                    }
                }
            }
        }
    }
    // Fork-sweep point (PR 9 on): the prefix-sharing wall speedup must
    // not collapse (the hard 1.5× floor is asserted on every run; this
    // gate additionally catches slow erosion against the committed
    // point). Deterministic prefix counters noted like the others.
    if let (Some(b), Some(f)) = (get(baseline, "fork_sweep"), get(fresh, "fork_sweep")) {
        if let (Some(bv), Some(fv)) = (get_f(b, "speedup_wall"), get_f(f, "speedup_wall")) {
            failures.extend(check("fork_sweep.speedup_wall", bv, fv, true));
        }
        for counter in ["prefix_events", "prefix_events_saved", "variants"] {
            if let (Some(bv), Some(fv)) = (get_f(b, counter), get_f(f, counter)) {
                if bv != fv {
                    println!(
                        "note: fork_sweep.{counter} changed {bv} -> {fv} \
                         (deterministic counter; refresh the committed baseline if intended)"
                    );
                }
            }
        }
    }
    // Packet-burst point (PR 10 on): the batched-vs-oracle packet
    // throughput speedup must not erode (the hard 5× floor is asserted
    // on every run; this gate catches slow decay against the committed
    // point). Deterministic packet/burst/cache counters noted like the
    // others.
    if let (Some(b), Some(f)) = (get(baseline, "pkt_burst"), get(fresh, "pkt_burst")) {
        if let (Some(bv), Some(fv)) = (
            get_f(b, "speedup_pkt_events"),
            get_f(f, "speedup_pkt_events"),
        ) {
            failures.extend(check("pkt_burst.speedup_pkt_events", bv, fv, true));
        }
        if let (Some(bv), Some(fv)) = (
            get(b, "batched").and_then(|v| get_f(v, "pkt_events_per_sec")),
            get(f, "batched").and_then(|v| get_f(v, "pkt_events_per_sec")),
        ) {
            failures.extend(check("pkt_burst.batched.pkt_events_per_sec", bv, fv, true));
        }
        for counter in ["bursts_formed", "cache_hits", "cache_misses"] {
            if let (Some(bv), Some(fv)) = (get_f(b, counter), get_f(f, counter)) {
                if bv != fv {
                    println!(
                        "note: pkt_burst.{counter} changed {bv} -> {fv} \
                         (deterministic counter; refresh the committed baseline if intended)"
                    );
                }
            }
        }
        if let (Some(bv), Some(fv)) = (
            get(b, "batched").and_then(|v| get_f(v, "tx_packets")),
            get(f, "batched").and_then(|v| get_f(v, "tx_packets")),
        ) {
            if bv != fv {
                println!(
                    "note: pkt_burst.batched.tx_packets changed {bv} -> {fv} \
                     (deterministic counter; refresh the committed baseline if intended)"
                );
            }
        }
    }
    failures
}

fn main() {
    let mut out_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut pr: u64 = 0;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = Some(args.next().expect("--out takes a path")),
            "--pr" => {
                pr = args
                    .next()
                    .expect("--pr takes a number")
                    .parse()
                    .expect("--pr takes a number")
            }
            "--baseline" => baseline_path = Some(args.next().expect("--baseline takes a path")),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: bench_smoke [--pr N] [--out PATH] [--baseline BENCH_prM.json]");
                std::process::exit(2);
            }
        }
    }
    let out_path = out_path.unwrap_or_else(|| format!("BENCH_pr{pr}.json"));

    // 1. Runner throughput: the ctrl_latency example sweep in quick mode
    //    (the same spec CI's acceptance step compares across threads).
    let spec = SweepSpec::from_toml(
        r#"
        name = "smoke"
        replicates = 2
        [scenario]
        kind = "ixp"
        members = 25
        horizon_secs = 1.0
        [[scenario.policies]]
        type = "mac_learning"
        [axes]
        ctrl_latency_us = [0, 1000]
        "#,
    )
    .expect("smoke spec parses");
    let report = run_sweep(&spec, 2).expect("smoke sweep runs");
    let sweep_events: u64 = report.runs.iter().map(|r| r.metrics.events).sum();
    let runner = Value::Map(vec![
        ("runs".into(), num_u(report.runs.len() as u64)),
        ("threads".into(), num_u(report.threads as u64)),
        ("wall_seconds".into(), num_f(report.campaign_wall_seconds)),
        (
            "runs_per_sec".into(),
            num_f(report.runs.len() as f64 / report.campaign_wall_seconds.max(1e-9)),
        ),
        (
            "events_per_sec".into(),
            num_f(sweep_events as f64 / report.campaign_wall_seconds.max(1e-9)),
        ),
    ]);

    // 2. Scale points (benches/scale.rs in quick mode): wall per scenario,
    //    events/sec, and reallocate ns/op derived from the engine's own
    //    allocator-run counter.
    let mut scale_points = Vec::new();
    for members in [25usize, 50, 100, 200] {
        let (best_r, best_w) = best_of_3(members, 0);
        scale_points.push(Value::Map(vec![
            ("members".into(), num_u(members as u64)),
            ("wall_ms".into(), num_f(best_w * 1e3)),
            ("events".into(), num_u(best_r.events)),
            (
                "events_per_sec".into(),
                num_f(best_r.events as f64 / best_w.max(1e-9)),
            ),
            ("realloc_runs".into(), num_u(best_r.realloc_runs)),
            (
                "realloc_ns_per_op".into(),
                // Upper bound: whole-run wall over allocator invocations.
                num_f(best_w * 1e9 / best_r.realloc_runs.max(1) as f64),
            ),
            (
                "realloc_flows_touched".into(),
                num_u(best_r.realloc_flows_touched),
            ),
        ]));
    }

    // 3. Fat-tree point: a k=8 fat-tree (80 switches, 128 hosts,
    //    16 equal-cost inter-pod paths) under gravity traffic with ECMP
    //    groups — the generated-topology cost trajectory: PathDb build
    //    over a 3-tier Clos plus allocation over long multipath routes.
    let fat_tree_point = {
        let run = || {
            let mut params = FabricScenarioParams::default();
            params.generator.kind = TopologyKind::FatTree;
            params.generator.fat_tree_k = 8;
            params.horizon = SimTime::from_secs(1);
            params.seed = 1;
            let scenario = Scenario::fabric(&params).expect("fat-tree builds");
            let mut sim = Simulation::new(scenario, fast_config()).expect("valid scenario");
            let t = Instant::now();
            let r = sim.run();
            (r, t.elapsed().as_secs_f64())
        };
        let (best_r, best_w) = best_of(run);
        Value::Map(vec![
            ("kind".into(), Value::Str("fat_tree".into())),
            ("k".into(), num_u(8)),
            ("hosts".into(), num_u(128)),
            ("switches".into(), num_u(80)),
            ("wall_ms".into(), num_f(best_w * 1e3)),
            ("events".into(), num_u(best_r.events)),
            (
                "events_per_sec".into(),
                num_f(best_r.events as f64 / best_w.max(1e-9)),
            ),
            ("realloc_runs".into(), num_u(best_r.realloc_runs)),
            (
                "realloc_ns_per_op".into(),
                num_f(best_w * 1e9 / best_r.realloc_runs.max(1) as f64),
            ),
        ])
    };

    // 4. Chaos point: the same k=8 fat-tree under a violent seeded flap
    //    process plus one switch crash — the fault-injection cost
    //    trajectory: route kills, controller repairs and lenient
    //    re-admissions layered on top of the gravity load. The
    //    deterministic chaos counters ride along so a behavior change in
    //    the failure model is visible next to its wall cost.
    let chaos_point = {
        let run = || {
            let mut params = FabricScenarioParams::default();
            params.generator.kind = TopologyKind::FatTree;
            params.generator.fat_tree_k = 8;
            params.horizon = SimTime::from_secs(1);
            params.seed = 1;
            let mut scenario = Scenario::fabric(&params).expect("fat-tree builds");
            scenario.chaos = Some(ChaosSpec {
                seed: 7,
                start_secs: 0.1,
                link_flaps: 8,
                flap_rate_per_sec: 8.0,
                switch_crashes: 1,
                crash_downtime_secs: 0.2,
                ..Default::default()
            });
            let mut sim = Simulation::new(scenario, fast_config()).expect("valid scenario");
            let t = Instant::now();
            let r = sim.run();
            (r, t.elapsed().as_secs_f64())
        };
        let (best_r, best_w) = best_of(run);
        assert!(
            best_r.chaos.cable_downs > 0,
            "the flap process must actually fire"
        );
        Value::Map(vec![
            ("kind".into(), Value::Str("fat_tree_flaps".into())),
            ("k".into(), num_u(8)),
            ("wall_ms".into(), num_f(best_w * 1e3)),
            ("events".into(), num_u(best_r.events)),
            (
                "events_per_sec".into(),
                num_f(best_r.events as f64 / best_w.max(1e-9)),
            ),
            ("realloc_runs".into(), num_u(best_r.realloc_runs)),
            (
                "realloc_ns_per_op".into(),
                num_f(best_w * 1e9 / best_r.realloc_runs.max(1) as f64),
            ),
            ("cable_downs".into(), num_u(best_r.chaos.cable_downs)),
            ("flows_rerouted".into(), num_u(best_r.chaos.flows_rerouted)),
            ("flows_stranded".into(), num_u(best_r.chaos.flows_stranded)),
            ("recovery_mean_s".into(), num_f(best_r.recovery.mean)),
        ])
    };

    // 5. Epoch-wave point: a 400-member IXP (16 edges, 4 cores,
    //    oversubscribed 40G uplinks) under synchronized waves of
    //    transfers — 400 arrivals per timestamp, trunk-wide rate churn
    //    on every event, completions in waves too. Run twice over
    //    identical inputs: the PR-4 serial cadence (one allocator run
    //    per triggering event, single-threaded) versus the epoch-batched
    //    loop with a 4-worker component-parallel solve. Throughput is
    //    compared in *useful* events/sec (stale completion pops are
    //    scheduling overhead, and the per-event cadence fabricates far
    //    more of them); the batched loop must win by ≥ 1.5× or the
    //    process exits non-zero — the acceptance gate CI enforces.
    let (epoch_waves, wave_speedup) = {
        let scenario = || wave_ixp_scenario(400, 6, 400, ByteSize::mib(25), SimTime::from_secs(1));
        let quiet = SimConfig::default()
            .with_stats_epoch(None)
            .with_expiry_scan(None);
        let serial_cfg = quiet.with_realloc_per_event(true).with_engine_threads(1);
        let batched_cfg = quiet.with_engine_threads(4);
        let timed = |cfg: SimConfig| {
            best_of(|| {
                let mut sim = Simulation::new(scenario(), cfg).expect("valid scenario");
                let t = Instant::now();
                let r = sim.run();
                (r, t.elapsed().as_secs_f64())
            })
        };
        let (ser_r, ser_w) = timed(serial_cfg);
        let (bat_r, bat_w) = timed(batched_cfg);
        let useful = |r: &SimResults, w: f64| {
            r.events.saturating_sub(r.stale_completions) as f64 / w.max(1e-9)
        };
        let (ser_eps, bat_eps) = (useful(&ser_r, ser_w), useful(&bat_r, bat_w));
        let speedup = bat_eps / ser_eps.max(1e-9);
        let side = |r: &SimResults, w: f64, eps: f64| {
            Value::Map(vec![
                ("wall_ms".into(), num_f(w * 1e3)),
                ("events".into(), num_u(r.events)),
                ("stale_completions".into(), num_u(r.stale_completions)),
                ("useful_events_per_sec".into(), num_f(eps)),
                ("epochs".into(), num_u(r.epochs)),
                ("epoch_batch_mean".into(), num_f(r.mean_epoch_batch())),
                ("epoch_batch_max".into(), num_u(r.max_epoch_batch)),
                ("realloc_runs".into(), num_u(r.realloc_runs)),
                ("realloc_saved".into(), num_u(r.realloc_saved())),
                ("flows_completed".into(), num_u(r.flows_completed)),
            ])
        };
        // Same physics, different scheduling: the deterministic outcome
        // must agree before the wall comparison means anything.
        assert_eq!(
            ser_r.flows_completed, bat_r.flows_completed,
            "cadences disagree on completions"
        );
        let point = Value::Map(vec![
            ("kind".into(), Value::Str("ixp_waves".into())),
            ("members".into(), num_u(400)),
            ("flows".into(), num_u(bat_r.flows_admitted)),
            ("serial_per_event".into(), side(&ser_r, ser_w, ser_eps)),
            ("batched_t4".into(), side(&bat_r, bat_w, bat_eps)),
            ("speedup_useful_events_per_sec".into(), num_f(speedup)),
            ("speedup_wall".into(), num_f(ser_w / bat_w.max(1e-9))),
        ]);
        println!(
            "epoch_waves: serial {:.1} ms ({:.0} useful ev/s) vs batched+4t {:.1} ms \
             ({:.0} useful ev/s) -> {speedup:.2}x",
            ser_w * 1e3,
            ser_eps,
            bat_w * 1e3,
            bat_eps
        );
        (point, speedup)
    };

    // 6. Hybrid point: the 25-member scenario with an 8-flow packet
    //    foreground over the fluid background — the co-simulation's cost
    //    trajectory (packet events dominate; couplings measure the
    //    plane-interaction rate).
    let (hyb_r, hyb_w) = best_of_3(25, 8);
    let hybrid = Value::Map(vec![
        ("members".into(), num_u(25)),
        ("packet_foreground".into(), num_u(8)),
        ("wall_ms".into(), num_f(hyb_w * 1e3)),
        ("events".into(), num_u(hyb_r.events)),
        (
            "events_per_sec".into(),
            num_f(hyb_r.events as f64 / hyb_w.max(1e-9)),
        ),
        ("pkt_flows".into(), num_u(hyb_r.pkt_flows)),
        ("fct_foreground_p50".into(), num_f(hyb_r.fct_foreground.p50)),
    ]);

    // 7. Tracing overhead point. Two claims, separately enforced:
    //
    //    * Tracing DISABLED must stay free: a plain `Simulation` carries
    //      no tracer at all, so the default path is the same code the
    //      committed BENCH_pr5 baseline measured — the `--baseline` gate
    //      above is the regression check for "disabled tracing costs
    //      ~nothing" (quick-mode wall noise swamps a 1% bar; the
    //      baseline gate is the honest version of that criterion).
    //    * Tracing ENABLED (metrics + spans + journal to a sink) must
    //      keep the results bit-identical and cost bounded wall-clock:
    //      asserted here at ≥ `TRACE_EPS_FLOOR` of untraced events/sec.
    let trace_overhead = {
        let untraced = best_of(|| timed_run(100, 1, 0));
        let traced = best_of(|| {
            let mut s = ixp_scenario(100, 1.0, lb_policy(), SimTime::from_secs(2), 1);
            s.packet_foreground = 0;
            let mut sim = Simulation::new(s, fast_config()).expect("valid scenario");
            let tracer = SimTracer::new().with_spans().with_journal(std::io::sink());
            sim.set_tracer(tracer);
            let t = Instant::now();
            let r = sim.run();
            (r, t.elapsed().as_secs_f64())
        });
        let ((unt_r, unt_w), (tr_r, tr_w)) = (untraced, traced);
        assert_eq!(
            (unt_r.events, unt_r.flows_completed, unt_r.realloc_runs),
            (tr_r.events, tr_r.flows_completed, tr_r.realloc_runs),
            "tracing changed deterministic results"
        );
        let unt_eps = unt_r.events as f64 / unt_w.max(1e-9);
        let tr_eps = tr_r.events as f64 / tr_w.max(1e-9);
        let ratio = tr_eps / unt_eps.max(1e-9);
        println!(
            "trace_overhead: untraced {:.0} ev/s vs traced {:.0} ev/s -> {ratio:.3}x",
            unt_eps, tr_eps
        );
        if ratio < TRACE_EPS_FLOOR {
            eprintln!(
                "FAIL trace_overhead: full tracing retains only {ratio:.3}x of untraced \
                 events/sec (floor {TRACE_EPS_FLOOR:.2}x)"
            );
            std::process::exit(1);
        }
        Value::Map(vec![
            ("members".into(), num_u(100)),
            ("untraced_events_per_sec".into(), num_f(unt_eps)),
            ("traced_events_per_sec".into(), num_f(tr_eps)),
            ("traced_over_untraced".into(), num_f(ratio)),
        ])
    };

    // 8. Million-flow point: the fluid engine driven directly (no event
    //    loop) at two population sizes on the same 1024-path-class star —
    //    ~1.3·10^5 and ~10^6 concurrent greedy flows. Macro-flow
    //    aggregation solves both as 1024 weighted variables; the scaling
    //    claim is that the remaining per-epoch cost (build + materialize
    //    + apply over the component's flows) is linear in flows touched,
    //    so ns/flow/epoch must stay flat across the 8× jump — asserted
    //    at `MILLION_FLOW_RATIO_CEIL` on every run. Too heavy for
    //    best-of-3; each point runs once (the long epochs average the
    //    noise down instead).
    let (million_flow, million_ratio) = {
        let small = million_flow_point(1024, 128, 8);
        let large = million_flow_point(1024, 1024, 8);
        let ratio = large.churn_ns_per_flow / small.churn_ns_per_flow.max(1e-9);
        println!(
            "million_flow: {} flows as {} vars; churn {:.1} ns/flow vs {:.1} ns/flow \
             at {} flows -> ratio {ratio:.2}",
            large.flows,
            large.macro_vars,
            large.churn_ns_per_flow,
            small.churn_ns_per_flow,
            small.flows
        );
        let side = |s: &horse_bench::MillionFlowStats| {
            Value::Map(vec![
                ("classes".into(), num_u(s.classes as u64)),
                ("flows_per_class".into(), num_u(s.flows_per_class as u64)),
                ("flows".into(), num_u(s.flows)),
                ("macro_vars".into(), num_u(s.macro_vars)),
                ("admit_secs".into(), num_f(s.admit_secs)),
                ("full_solve_ms".into(), num_f(s.full_solve_secs * 1e3)),
                ("churn_epochs".into(), num_u(s.churn_epochs)),
                ("churn_ns_per_epoch".into(), num_f(s.churn_ns_per_epoch)),
                ("churn_ns_per_flow".into(), num_f(s.churn_ns_per_flow)),
                ("warm_hits".into(), num_u(s.warm_hits)),
                ("cold_solves".into(), num_u(s.cold_solves)),
            ])
        };
        let point = Value::Map(vec![
            ("kind".into(), Value::Str("star_macro_flows".into())),
            ("small".into(), side(&small)),
            ("large".into(), side(&large)),
            ("per_flow_cost_ratio".into(), num_f(ratio)),
        ]);
        (point, ratio)
    };

    // 9. Fork-sweep point: a 3-variant what-if sweep ("which member's
    //    access cable failing at t=2.85s hurts most?") whose variants
    //    share the first 93% of the horizon. Naive execution simulates
    //    all three runs from t=0; forked execution simulates the shared
    //    prefix once, checkpoints, and forks per variant — the reports
    //    must be byte-identical and the wall speedup at least
    //    `FORK_SPEEDUP_FLOOR`, both asserted on every run. The reactive
    //    mac-learning controller makes the prefix controller-chatty
    //    (per-arrival flow-ins) while keeping the divergent suffix
    //    local to the failed member — the regime prefix sharing is for.
    let (fork_sweep, fork_speedup) = {
        let spec = SweepSpec::from_toml(
            r#"
            name = "fork_smoke"
            [scenario]
            kind = "ixp"
            members = 200
            horizon_secs = 3.0
            load_factor = 2.0
            whatif_at_secs = 2.8
            whatif_fail_secs = 2.85
            whatif_repair_secs = 2.95
            [[scenario.policies]]
            type = "mac_learning"
            [axes]
            whatif_link_down = [50, 100, 150]
            "#,
        )
        .expect("fork spec parses");
        let plans = expand(&spec).expect("fork spec expands");
        let (naive, naive_w) = best_of(|| {
            let t = Instant::now();
            let report =
                run_plans_with(&spec.name, plans.clone(), 1, |_| {}).expect("naive sweep runs");
            (report, t.elapsed().as_secs_f64())
        });
        let groups = fork_groups(&plans)
            .expect("grouping succeeds")
            .expect("campaign is fork-eligible");
        let ((forked, stats), forked_w) = best_of(|| {
            let t = Instant::now();
            let out = run_forked(&spec.name, &groups, &ForkOptions::default(), |_| {})
                .expect("forked sweep runs");
            (out, t.elapsed().as_secs_f64())
        });
        assert_eq!(
            naive.metrics_csv(),
            forked.metrics_csv(),
            "forked reports must be byte-identical to naive"
        );
        assert_eq!(
            naive.metrics_json(),
            forked.metrics_json(),
            "forked reports must be byte-identical to naive"
        );
        let speedup = naive_w / forked_w.max(1e-9);
        println!(
            "fork_sweep: naive {:.1} ms vs forked {:.1} ms -> {speedup:.2}x \
             ({} prefix events shared across {} variants)",
            naive_w * 1e3,
            forked_w * 1e3,
            stats.prefix_events,
            stats.variant_runs
        );
        let point = Value::Map(vec![
            ("kind".into(), Value::Str("ixp_whatif".into())),
            ("members".into(), num_u(200)),
            ("variants".into(), num_u(stats.variant_runs as u64)),
            ("naive_wall_ms".into(), num_f(naive_w * 1e3)),
            ("forked_wall_ms".into(), num_f(forked_w * 1e3)),
            ("prefix_events".into(), num_u(stats.prefix_events)),
            (
                "prefix_events_saved".into(),
                num_u(stats.prefix_events_saved),
            ),
            ("snapshot_bytes".into(), num_u(stats.snapshot_bytes)),
            ("speedup_wall".into(), num_f(speedup)),
        ]);
        (point, speedup)
    };

    // 10. Packet-burst point: the hybrid WAN scenario (6-member IXP,
    //     40G access / 400G uplink, 50/250 µs delays) with 8 greedy TCP
    //     foreground flows at packet fidelity, pinned to a seed where
    //     both planes run loss-free — the regime where batching is
    //     provably benign. The oracle side walks every packet through
    //     the OpenFlow tables one event at a time; the batched side
    //     rides the PR-10 defaults (burst cap 32 + generation-stamped
    //     decision cache). Both must model the exact same packets
    //     (tx_packets equal — deterministic counter), drop nothing, and
    //     agree on every foreground FCT to within
    //     `PKT_BURST_FCT_DEV_CEIL`; the batched side must model at
    //     least `PKT_BURST_SPEEDUP_FLOOR`× more packets per
    //     wall-second. All asserted on every run.
    let (pkt_burst, pkt_speedup, pkt_fct_dev) = {
        let horizon = SimTime::from_secs(10);
        let measure = |cfg: SimConfig| {
            best_of(move || {
                let s = pkt_burst_scenario(9, 24, 8, horizon);
                let mut sim = Simulation::new(s, cfg).expect("valid scenario");
                let t = Instant::now();
                sim.run();
                let w = t.elapsed().as_secs_f64();
                let h = sim.hybrid().expect("hybrid attached");
                let fcts: Vec<Option<f64>> = h
                    .pkt_records(horizon)
                    .iter()
                    .map(|r| r.completed.then(|| r.fct_secs()))
                    .collect();
                let p = h.plane();
                (
                    (
                        p.tx_packets(),
                        p.drops(),
                        p.bursts_formed(),
                        p.cache_hits(),
                        p.cache_misses(),
                        fcts,
                    ),
                    w,
                )
            })
        };
        let oracle_cfg = SimConfig::default()
            .with_pkt_burst(1)
            .with_pkt_decision_cache(false);
        let ((otx, odrops, _, _, _, ofcts), ow) = measure(oracle_cfg);
        let ((btx, bdrops, bursts, hits, misses, bfcts), bw) = measure(SimConfig::default());
        assert_eq!(odrops, 0, "oracle side must run loss-free");
        assert_eq!(bdrops, 0, "batched side must run loss-free");
        assert_eq!(
            otx, btx,
            "both planes must model the same packets (deterministic counter)"
        );
        assert_eq!(
            ofcts.iter().map(|f| f.is_some()).collect::<Vec<_>>(),
            bfcts.iter().map(|f| f.is_some()).collect::<Vec<_>>(),
            "completion parity between oracle and batched planes"
        );
        let devs: Vec<f64> = ofcts
            .iter()
            .zip(&bfcts)
            .filter_map(|(o, b)| Some((b.as_ref()? - o.as_ref()?).abs() / o.as_ref()?))
            .collect();
        assert!(!devs.is_empty(), "foreground flows must complete");
        let fct_dev = devs.iter().sum::<f64>() / devs.len() as f64;
        let speedup = (btx as f64 / bw.max(1e-9)) / (otx as f64 / ow.max(1e-9));
        println!(
            "pkt_burst: {otx} packets; oracle {:.1} ms vs batched {:.1} ms -> {speedup:.2}x \
             ({bursts} bursts, {hits} cache hits / {misses} misses, mean FCT dev {fct_dev:.4})",
            ow * 1e3,
            bw * 1e3,
        );
        let side = |tx: u64, wall: f64| {
            Value::Map(vec![
                ("tx_packets".into(), num_u(tx)),
                ("wall_ms".into(), num_f(wall * 1e3)),
                (
                    "pkt_events_per_sec".into(),
                    num_f(tx as f64 / wall.max(1e-9)),
                ),
            ])
        };
        let point = Value::Map(vec![
            ("kind".into(), Value::Str("hybrid_wan_loss_free".into())),
            ("foreground_flows".into(), num_u(8)),
            ("burst_cap".into(), num_u(32)),
            ("oracle".into(), side(otx, ow)),
            ("batched".into(), side(btx, bw)),
            ("bursts_formed".into(), num_u(bursts)),
            ("cache_hits".into(), num_u(hits)),
            ("cache_misses".into(), num_u(misses)),
            ("fct_mean_deviation".into(), num_f(fct_dev)),
            ("speedup_pkt_events".into(), num_f(speedup)),
        ]);
        (point, speedup, fct_dev)
    };

    let doc = Value::Map(vec![
        ("bench".into(), Value::Str("bench_smoke".into())),
        ("pr".into(), num_u(pr)),
        ("mode".into(), Value::Str("quick".into())),
        ("runner_throughput".into(), runner),
        ("scale".into(), Value::Seq(scale_points)),
        ("fat_tree".into(), fat_tree_point),
        ("chaos_flaps".into(), chaos_point),
        ("epoch_waves".into(), epoch_waves),
        ("hybrid".into(), hybrid),
        ("trace_overhead".into(), trace_overhead),
        ("million_flow".into(), million_flow),
        ("fork_sweep".into(), fork_sweep),
        ("pkt_burst".into(), pkt_burst),
    ]);
    let json = serde_json::to_string_pretty(&doc).expect("serializes");
    std::fs::write(&out_path, json + "\n").expect("write bench json");
    println!("wrote {out_path}");

    // Epoch-batching acceptance: enforced on every invocation (CI runs
    // this binary), not just when a baseline is supplied.
    if wave_speedup < WAVE_SPEEDUP_FLOOR {
        eprintln!(
            "FAIL epoch_waves: batched+4t useful events/sec is only {wave_speedup:.2}x \
             the per-event serial cadence (floor {WAVE_SPEEDUP_FLOOR:.1}x)"
        );
        std::process::exit(1);
    }

    // Million-flow acceptance: no superlinear growth in per-epoch
    // allocator cost; enforced on every invocation, like the wave gate.
    if million_ratio > MILLION_FLOW_RATIO_CEIL {
        eprintln!(
            "FAIL million_flow: per-flow per-epoch cost grew {million_ratio:.2}x across \
             an 8x population jump (ceiling {MILLION_FLOW_RATIO_CEIL:.1}x)"
        );
        std::process::exit(1);
    }

    // Fork-sweep acceptance: prefix sharing must actually pay; enforced
    // on every invocation, like the wave gate.
    if fork_speedup < FORK_SPEEDUP_FLOOR {
        eprintln!(
            "FAIL fork_sweep: forked what-if execution is only {fork_speedup:.2}x faster \
             than naive re-simulation (floor {FORK_SPEEDUP_FLOOR:.1}x)"
        );
        std::process::exit(1);
    }

    // Packet-burst acceptance: the batched plane must pay its way
    // without bending foreground FCTs; both enforced on every
    // invocation, like the wave gate.
    if pkt_speedup < PKT_BURST_SPEEDUP_FLOOR {
        eprintln!(
            "FAIL pkt_burst: batched plane models only {pkt_speedup:.2}x more packets \
             per wall-second than the per-packet oracle (floor {PKT_BURST_SPEEDUP_FLOOR:.1}x)"
        );
        std::process::exit(1);
    }
    if pkt_fct_dev > PKT_BURST_FCT_DEV_CEIL {
        eprintln!(
            "FAIL pkt_burst: mean foreground FCT deviation {pkt_fct_dev:.4} exceeds \
             the fidelity ceiling {PKT_BURST_FCT_DEV_CEIL:.2}"
        );
        std::process::exit(1);
    }

    // 11. Regression gate against a committed baseline.
    if let Some(path) = baseline_path {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let baseline: Value = serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("baseline {path} is not valid JSON: {e:?}"));
        let failures = gate(&baseline, &doc);
        if failures.is_empty() {
            println!(
                "bench gate vs {path}: OK (tolerance {:.0}%)",
                TOLERANCE * 100.0
            );
        } else {
            for f in &failures {
                eprintln!("{f}");
            }
            eprintln!(
                "bench gate vs {path}: {} regression(s) beyond {:.0}%",
                failures.len(),
                TOLERANCE * 100.0
            );
            std::process::exit(1);
        }
    }
}
