//! The three benchmark workloads, each built from a seed alone.

use horse::prelude::*;
use horse_bench::{ixp_scenario, lb_policy, mac_policy};

/// A benchmark workload. See `NOTES.md` for why each one is here.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// k=8 fat-tree, gravity traffic, ECMP, seeded link flaps plus one
    /// switch crash, 1 s horizon: the control-plane / OpenFlow write path.
    FattreeFlaps,
    /// 400-member IXP with the paper's MAC-forwarding policy, 10 s
    /// horizon: the fluid allocator.
    IxpPaper,
    /// 100-member IXP, ECMP, first 64 arrivals at packet fidelity, 10 s
    /// horizon: the packet plane and hybrid coupling.
    HybridFg,
}

/// Every workload, in the order `NOTES.md` describes them.
pub const ALL: [Workload; 3] = [
    Workload::FattreeFlaps,
    Workload::IxpPaper,
    Workload::HybridFg,
];

/// Arrivals of `hybrid_fg` that run at packet fidelity.
pub const HYBRID_FOREGROUND: usize = 64;

/// The seed the correctness references are recorded at.
pub const DEFAULT_SEED: u64 = 1;

/// Seed of the fixed `fattree_flaps` fault drill (bench_smoke's
/// chaos_flaps point uses the same one).
pub const CHAOS_SEED: u64 = 7;

/// The scenario seed of sub-run `sub` of a benchmark seed: sub-run 0 is
/// the seed itself, the others are spread by SplitMix64 so that one
/// benchmark seed draws several independent scenarios of a workload.
pub fn sub_seed(seed: u64, sub: u64) -> u64 {
    if sub == 0 {
        return seed;
    }
    let mut z = seed.wrapping_add(sub.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Workload {
    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FattreeFlaps => "fattree_flaps",
            Workload::IxpPaper => "ixp_paper",
            Workload::HybridFg => "hybrid_fg",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Distinct scenarios one benchmark run cycles through (sub-runs
    /// `0..subs()`): enough that the run's median does not hinge on one
    /// draw of the traffic.
    pub fn subs(self) -> u64 {
        match self {
            Workload::FattreeFlaps => 3,
            Workload::IxpPaper => 16,
            Workload::HybridFg => 64,
        }
    }

    /// The simulated horizon.
    pub fn horizon(self) -> SimTime {
        match self {
            Workload::FattreeFlaps => SimTime::from_secs(1),
            Workload::IxpPaper | Workload::HybridFg => SimTime::from_secs(10),
        }
    }

    /// Builds the workload's scenario. The traffic derives from `seed`;
    /// the `fattree_flaps` fault drill is fixed, so every seed exercises
    /// the same failures under different traffic.
    pub fn scenario(self, seed: u64) -> Scenario {
        match self {
            Workload::FattreeFlaps => {
                let mut params = FabricScenarioParams::default();
                params.generator.kind = TopologyKind::FatTree;
                params.generator.fat_tree_k = 8;
                params.horizon = self.horizon();
                params.seed = seed;
                let mut s = Scenario::fabric(&params).expect("a k=8 fat-tree always builds");
                s.chaos = Some(ChaosSpec {
                    seed: CHAOS_SEED,
                    start_secs: 0.1,
                    link_flaps: 8,
                    flap_rate_per_sec: 8.0,
                    switch_crashes: 1,
                    crash_downtime_secs: 0.2,
                    ..Default::default()
                });
                s
            }
            Workload::IxpPaper => ixp_scenario(400, 1.0, mac_policy(), self.horizon(), seed),
            Workload::HybridFg => {
                let mut s = ixp_scenario(100, 1.0, lb_policy(), self.horizon(), seed);
                s.packet_foreground = HYBRID_FOREGROUND;
                s
            }
        }
    }
}

/// The configuration every workload runs with: what a user gets from
/// `SimConfig::default()`, on one engine thread.
pub fn config() -> SimConfig {
    SimConfig::default().with_engine_threads(1)
}
