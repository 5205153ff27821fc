//! The reconcile reinstall against the full-reinstall oracle.
//!
//! The policy generator sends its whole rule set as reconcile flow-mods
//! on every reaction, so switches leave the rules they already hold
//! untouched. The oracle is the same generator behind a wrapper that
//! rewrites every reconcile back to a plain `Add`: the historical full
//! reinstall, which replaces every rule and resets its counters.
//!
//! Contract under test, on fat-tree flaps, a switch crash and rejoin, a
//! controller outage and IXP fabrics under every policy rule:
//!
//! * after each controller reaction lands, every switch holds the same
//!   forwarding state under both (match, priority, instructions, cookie,
//!   timeouts, removal flag, and groups);
//! * the run's outcomes are byte-identical. Event, epoch and
//!   decision-cache counters are left out: one channel event per
//!   reaction and fewer generation bumps are the point of the change.
//!   So are the applied/unchanged flow-mod counts, which differ by
//!   construction.

use horse::controlplane::{Controller, ControllerCounters, ControllerCtx, Outbox, PolicyGenerator};
use horse::openflow::{CtrlMsg, FlowModCommand, SwitchMsg};
use horse::prelude::*;
use horse::types::{FlowKey, NodeId, PortNo, TableId};
use std::cell::RefCell;
use std::rc::Rc;

/// The full-reinstall oracle: the policy generator with every reconcile
/// rewritten to `Add`. Also records when each reaction was sent.
struct FullReinstall {
    inner: PolicyGenerator,
    sent: Rc<RefCell<Vec<SimTime>>>,
}

impl FullReinstall {
    fn rewrite(&self, now: SimTime, out: &mut Outbox) {
        if !out.msgs.is_empty() {
            self.sent.borrow_mut().push(now);
        }
        for (_, msg) in &mut out.msgs {
            if let CtrlMsg::FlowMod(fm) = msg {
                if fm.command == FlowModCommand::Reconcile {
                    fm.command = FlowModCommand::Add;
                }
            }
        }
    }
}

impl Controller for FullReinstall {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_start(&mut self, ctx: &ControllerCtx<'_>, out: &mut Outbox) {
        self.inner.on_start(ctx, out);
        self.rewrite(ctx.now, out);
    }

    fn on_flow_in(
        &mut self,
        switch: NodeId,
        in_port: PortNo,
        key: &FlowKey,
        ctx: &ControllerCtx<'_>,
        out: &mut Outbox,
    ) {
        self.inner.on_flow_in(switch, in_port, key, ctx, out);
        self.rewrite(ctx.now, out);
    }

    fn dispatch(&mut self, msg: &SwitchMsg, ctx: &ControllerCtx<'_>, out: &mut Outbox) {
        self.inner.dispatch(msg, ctx, out);
        self.rewrite(ctx.now, out);
    }

    fn on_timer(&mut self, token: u64, ctx: &ControllerCtx<'_>, out: &mut Outbox) {
        self.inner.on_timer(token, ctx, out);
        self.rewrite(ctx.now, out);
    }

    fn on_switch_up(&mut self, switch: NodeId, ctx: &ControllerCtx<'_>, out: &mut Outbox) {
        self.inner.on_switch_up(switch, ctx, out);
        self.rewrite(ctx.now, out);
    }

    fn counters(&self) -> ControllerCounters {
        self.inner.counters()
    }
}

/// Every switch's forwarding state, canonically printed.
fn forwarding_state(sim: &Simulation) -> Vec<String> {
    let net = sim.fluid();
    net.switch_ids()
        .iter()
        .map(|&id| {
            let sw = net.switch(id).expect("listed switch exists");
            let mut s = format!("{id}:");
            for t in 0..sw.table_count() {
                for e in sw.table(TableId(t as u8)).expect("table exists").entries() {
                    s += &format!(
                        "|t{t} {} {:?} {:?} {:x} {:?} {:?} {}",
                        e.priority,
                        e.matcher,
                        e.instructions,
                        e.cookie,
                        e.idle_timeout,
                        e.hard_timeout,
                        e.notify_removal
                    );
                }
            }
            for g in sw.groups() {
                s += &format!("|{g:?}");
            }
            s
        })
        .collect()
}

/// The run's outcomes: everything in the results but the event, epoch
/// and decision-cache counters, the applied/unchanged flow-mod split,
/// wall time and the metrics registry.
fn outcomes(sim: &Simulation, r: &SimResults) -> String {
    let c = &r.control;
    let records: Vec<_> = sim
        .fluid()
        .records()
        .iter()
        .map(|rec| {
            (
                rec.id.0,
                rec.bytes.to_bits(),
                rec.finished.as_nanos(),
                rec.completed,
            )
        })
        .collect();
    format!(
        "admitted={} completed={} active={} dropped={} bytes={:x}/{:x} fct={:?} goodput={:?} \
         ctrl={}/{}/{} realloc={}/{}/{}/{} macro={} warm={}/{} pkt={}/{:?}/{} recovery={:?} \
         chaos={:?} emitted={} pathdb={}/{} groups_skipped={} records={records:?} epochs={:?}",
        r.flows_admitted,
        r.flows_completed,
        r.flows_active_at_end,
        r.flows_dropped,
        r.bytes_delivered.to_bits(),
        r.bytes_dropped.to_bits(),
        r.fct,
        r.goodput,
        r.msgs_to_controller,
        r.msgs_to_switch,
        r.flow_ins,
        r.realloc_requests,
        r.realloc_runs,
        r.realloc_flows_touched,
        r.stale_completions,
        r.macro_flows,
        r.warm_hits,
        r.cold_solves,
        r.pkt_flows,
        r.fct_foreground,
        r.pkt_bursts_formed,
        r.recovery,
        r.chaos,
        c.flow_mods_emitted,
        c.pathdb_rebuilds,
        c.pathdb_rebuilds_skipped,
        c.group_mods_skipped,
        r.collector
            .epochs
            .iter()
            .map(|e| (e.time.as_nanos(), e.aggregate_rate_bps.to_bits()))
            .collect::<Vec<_>>(),
    )
}

fn oracle_sim(scenario: Scenario, config: SimConfig) -> (Simulation, Rc<RefCell<Vec<SimTime>>>) {
    let sent = Rc::new(RefCell::new(Vec::new()));
    let inner =
        PolicyGenerator::new(scenario.policy.clone(), &scenario.topology).expect("valid policy");
    let oracle = FullReinstall {
        inner,
        sent: sent.clone(),
    };
    let sim = Simulation::with_controller(scenario, config, Box::new(oracle)).expect("valid");
    (sim, sent)
}

/// Runs `scenario` under the reconcile reinstall and the oracle in
/// lockstep, comparing forwarding state after every reaction lands and
/// the outcomes at the end. Returns the reconcile run's results.
fn assert_matches_oracle(name: &str, scenario: Scenario) -> SimResults {
    let config = SimConfig::default();
    let latency = config.ctrl_latency;
    let horizon = scenario.horizon;
    let (mut oracle, sent) = oracle_sim(scenario.clone(), config);
    let mut sim = Simulation::new(scenario, config).expect("valid");
    sim.start();
    oracle.start();
    assert_eq!(
        forwarding_state(&sim),
        forwarding_state(&oracle),
        "{name}: bootstrap"
    );
    // Step to the next known landing, or one channel latency ahead when
    // none is pending: a reaction sent after `t` lands more than one
    // latency after `t`, so no landing is ever stepped over.
    let mut t = SimTime::ZERO;
    let mut landings = 0;
    while t < horizon {
        let landing = sent
            .borrow()
            .iter()
            .map(|&at| at + latency)
            .find(|&at| at > t);
        t = match landing {
            Some(at) if at <= t + latency => {
                landings += 1;
                at
            }
            _ => t + latency,
        }
        .min(horizon);
        sim.run_until(t);
        oracle.run_until(t);
        let (got, want) = (forwarding_state(&sim), forwarding_state(&oracle));
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g, w, "{name}: forwarding state at {t}");
        }
    }
    assert!(
        landings > 1,
        "{name}: the scenario must make the controller react"
    );
    let (r, ro) = (sim.finish(), oracle.finish());
    assert_eq!(
        outcomes(&sim, &r),
        outcomes(&oracle, &ro),
        "{name}: outcomes"
    );
    assert_eq!(
        ro.control.flow_mods_unchanged, 0,
        "{name}: the oracle rewrites every rule"
    );
    assert!(
        r.control.flow_mods_unchanged > 0,
        "{name}: a reinstall leaves unchanged rules alone"
    );
    assert_eq!(
        r.control.flow_mods_applied + r.control.flow_mods_unchanged,
        ro.control.flow_mods_applied,
        "{name}: both runs deliver the same flow-mods"
    );
    r
}

fn fat_tree(horizon: SimTime, chaos: ChaosSpec) -> Scenario {
    let mut p = FabricScenarioParams::default();
    p.generator.kind = generators::TopologyKind::FatTree;
    p.generator.fat_tree_k = 4;
    p.horizon = horizon;
    p.seed = 3;
    let mut s = Scenario::fabric(&p).expect("k=4 fat-tree builds");
    s.chaos = Some(chaos);
    s
}

#[test]
fn fat_tree_flaps_match_full_reinstall() {
    let r = assert_matches_oracle(
        "fat-tree flaps",
        fat_tree(
            SimTime::from_secs(1),
            ChaosSpec {
                seed: 7,
                start_secs: 0.1,
                link_flaps: 6,
                flap_rate_per_sec: 8.0,
                ..Default::default()
            },
        ),
    );
    assert!(r.chaos.cable_downs > 0);
    assert!(
        r.control.pathdb_rebuilds_skipped > 0,
        "both ends of a cable report: the second report reuses the paths"
    );
}

#[test]
fn switch_crash_and_rejoin_match_full_reinstall() {
    let r = assert_matches_oracle(
        "switch crash",
        fat_tree(
            SimTime::from_secs(2),
            ChaosSpec {
                seed: 11,
                start_secs: 0.1,
                link_flaps: 2,
                flap_rate_per_sec: 4.0,
                switch_crashes: 1,
                crash_downtime_secs: 0.2,
                ..Default::default()
            },
        ),
    );
    assert_eq!(r.chaos.switch_crashes, 1);
    assert_eq!(r.chaos.switch_rejoins, 1);
}

#[test]
fn controller_outage_matches_full_reinstall() {
    let mut s = Scenario::figure1(SimTime::from_secs(1), 5);
    s.chaos = Some(ChaosSpec {
        seed: 9,
        start_secs: 0.1,
        link_flaps: 3,
        flap_rate_per_sec: 4.0,
        flap_downtime_secs: 0.2,
        ctrl_outages: 1,
        ctrl_outage_secs: 0.3,
        ..Default::default()
    });
    let r = assert_matches_oracle("controller outage", s);
    assert_eq!(r.chaos.ctrl_outages, 1);
}

#[test]
fn every_policy_rule_matches_full_reinstall() {
    let rules = [
        PolicyRule::MacForwarding,
        PolicyRule::MacLearning,
        PolicyRule::LoadBalancing { mode: LbMode::Ecmp },
        PolicyRule::LoadBalancing {
            mode: LbMode::Adaptive,
        },
        PolicyRule::AppPeering {
            src: "m1".into(),
            dst: "m3".into(),
            app: AppClass::Http,
            path_rank: 1,
        },
        PolicyRule::Blackhole {
            victim: "m2".into(),
        },
        PolicyRule::SourceRouting {
            src: "m1".into(),
            dst: "m4".into(),
            via: vec!["c2".into()],
        },
        PolicyRule::RateLimit {
            src: "m2".into(),
            dst: "m4".into(),
            rate_mbps: 500.0,
        },
    ];
    // Forwarding rules alone; the others on top of MAC forwarding (one
    // forwarding owner per spec); then the paper's Figure-1 mix.
    let specs = rules
        .iter()
        .enumerate()
        .map(|(i, rule)| {
            let spec = PolicySpec::new();
            let spec = if i < 4 {
                spec
            } else {
                spec.with(PolicyRule::MacForwarding)
            };
            spec.with(rule.clone())
        })
        .chain([PolicySpec::figure1()]);
    for spec in specs {
        let name = format!("{:?}", spec.policies.last().expect("non-empty spec"));
        let mut s = Scenario::figure1(SimTime::from_millis(600), 2);
        s.policy = spec;
        s.chaos = Some(ChaosSpec {
            seed: 4,
            start_secs: 0.1,
            link_flaps: 4,
            flap_rate_per_sec: 4.0,
            flap_downtime_secs: 0.2,
            ..Default::default()
        });
        assert_matches_oracle(&name, s);
    }
}

#[test]
fn control_counters_ignore_threads_and_tracing() {
    let scenario = || {
        fat_tree(
            SimTime::from_secs(1),
            ChaosSpec {
                seed: 7,
                start_secs: 0.1,
                link_flaps: 4,
                flap_rate_per_sec: 8.0,
                switch_crashes: 1,
                crash_downtime_secs: 0.2,
                ..Default::default()
            },
        )
    };
    let run = |threads: usize, traced: bool| {
        let config = SimConfig::default().with_engine_threads(threads);
        let mut sim = Simulation::new(scenario(), config).expect("valid");
        if traced {
            sim.set_tracer(SimTracer::new().with_spans());
        }
        let r = sim.run();
        if traced {
            let m = &r.metrics;
            let c = &r.control;
            for (name, v) in [
                ("control.flow_mods_emitted", c.flow_mods_emitted),
                ("control.flow_mods_applied", c.flow_mods_applied),
                ("control.flow_mods_unchanged", c.flow_mods_unchanged),
                ("control.group_mods_skipped", c.group_mods_skipped),
                ("control.pathdb_rebuilds", c.pathdb_rebuilds),
                ("control.pathdb_rebuilds_skipped", c.pathdb_rebuilds_skipped),
            ] {
                assert_eq!(m.get(name), Some(v as f64), "{name} in the registry");
            }
        }
        r.control
    };
    let want = run(1, false);
    assert!(want.flow_mods_unchanged > 0 && want.pathdb_rebuilds_skipped > 0);
    for (threads, traced) in [(1, true), (4, false), (4, true)] {
        assert_eq!(
            run(threads, traced),
            want,
            "threads={threads} traced={traced}"
        );
    }
}
