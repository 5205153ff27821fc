//! The benchmark's own tests: deterministic inputs, a stable and
//! seed-sensitive outcome digest, well-formed metric names, and snapshot
//! failures that are counted rather than panicked on.

use horse::prelude::*;
use horse_bench::{ixp_scenario, lb_policy, mac_policy};
use perfbench::outcome::Outcome;
use perfbench::plain;
use perfbench::traced::{per_layer_names, snapshot_round_trip};
use perfbench::workload::{config, sub_seed, Workload, ALL};
use std::collections::HashSet;

const END_TO_END: [&str; 3] = ["setup_s", "run_s", "peak_rss_mb"];

#[test]
fn workloads_build_identically_from_one_seed() {
    // A pre-start checkpoint serializes the whole built simulation:
    // scenario, config and every piece of initial state.
    let built = |w: Workload, seed| {
        Simulation::new(w.scenario(seed), config())
            .expect("valid scenario")
            .checkpoint()
    };
    for w in ALL {
        let seed = sub_seed(3, 1);
        assert!(built(w, seed) == built(w, seed), "{} differs", w.name());
        assert!(built(w, 1) != built(w, 2), "{} ignores its seed", w.name());
    }
}

#[test]
fn sub_seeds_start_at_the_seed_and_stay_distinct() {
    assert_eq!(sub_seed(42, 0), 42);
    let mut seen = HashSet::new();
    for seed in 1..=10 {
        for sub in 0..Workload::HybridFg.subs() {
            assert!(seen.insert(sub_seed(seed, sub)), "seed {seed} sub {sub}");
        }
    }
}

#[test]
fn outcome_digest_is_stable_and_seed_sensitive() {
    let w = Workload::HybridFg;
    let run = |seed| {
        let (sim, steps) = plain::set_up(w, seed);
        plain::run(w, sim, steps, None, &mut |_| {})
    };
    let (a, b, other) = (run(1), run(1), run(2));
    assert!(a.errors.is_empty(), "{:?}", a.errors);
    assert_eq!(a.outcome, b.outcome, "two runs of one seed disagree");
    assert_ne!(a.outcome.digest, other.outcome.digest);
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn names(list: &serde_json::Value) -> Vec<String> {
    list.as_seq()
        .expect("a list")
        .iter()
        .map(|entry| {
            let map = entry.as_map().expect("an object");
            let (_, name) = map.iter().find(|(k, _)| k == "name").expect("a name");
            name.as_str().expect("a string").to_string()
        })
        .collect()
}

#[test]
fn metric_names_are_well_formed_and_match_benchmark_json() {
    let mut per_layer: Vec<String> = per_layer_names().into_iter().map(|(n, _)| n).collect();
    per_layer.push("trace.overhead".into());
    let all: Vec<&str> = END_TO_END
        .iter()
        .copied()
        .chain(per_layer.iter().map(String::as_str))
        .collect();
    for name in &all {
        assert!(well_formed(name), "bad metric name {name:?}");
    }
    assert_eq!(
        all.iter().collect::<HashSet<_>>().len(),
        all.len(),
        "names repeat"
    );

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let spec = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
    let field = |key: &str| {
        let map = spec.as_map().expect("an object");
        map.iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .expect(key)
    };
    assert_eq!(names(field("end_to_end")), END_TO_END);
    assert_eq!(names(field("per_layer")), per_layer);
    assert_eq!(names(field("workloads")), ALL.map(|w| w.name().to_string()));
}

#[test]
fn snapshot_failures_are_counted_not_panicked() {
    for policy in [mac_policy(), lb_policy()] {
        let scenario = ixp_scenario(25, 1.0, policy, SimTime::from_secs(2), 1);
        let h = scenario.horizon;
        let mut straight = Simulation::new(scenario.clone(), config()).expect("valid");
        let r = straight.run();
        let outcome = Outcome::of(&straight, &r, h);

        let trip = snapshot_round_trip(scenario.clone(), &outcome);
        assert!(trip.bytes > 0 && trip.encode_s > 0.0);

        // The trip counts exactly the resume errors Simulation::resume
        // reports for the same checkpoint, whatever the policy.
        let mut sim = Simulation::new(scenario, config()).expect("valid");
        sim.start();
        sim.run_until(SimTime::from_nanos(h.as_nanos() / 2));
        let resume_fails = Simulation::resume(&sim.checkpoint()).is_err();
        assert_eq!(
            trip.failures.len(),
            usize::from(resume_fails),
            "{:?}",
            trip.failures
        );
        if let Some(msg) = trip.failures.first() {
            assert!(msg.starts_with("resume failed"), "{msg}");
        }
    }
}
