//! `perfbench` child process. `run.py` starts one per measured run.
//!
//! ```text
//! perfbench run --workload <name> --seed <n> --sub <i> [--traced]
//! perfbench probe        # host seconds of the fixed host-speed probe
//! perfbench describe     # workloads, sub-run counts, per-layer metrics
//! perfbench reference    # outcome digests at the default seed, as Rust
//! ```
//!
//! `run` prints one JSON line: the run's step times, peak RSS, outcome
//! digest and check errors, plus the per-layer split with `--traced`.

use perfbench::calib::{self, SpeedScale};
use perfbench::workload::{sub_seed, Workload, ALL, DEFAULT_SEED};
use perfbench::{plain, reference, traced};
use serde_json::{json, Value};
use std::process::ExitCode;

/// Set-ups per untraced child; `setup_s` is the median over all of them.
const SETUP_REPS: usize = 5;

/// Host-speed probes per `perfbench probe` process.
const PROBE_REPS: usize = 3;

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench run --workload <{}> --seed <n> --sub <i> [--traced]\n       \
         perfbench probe | describe | reference",
        ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

fn print(v: &Value) {
    println!(
        "{}",
        serde_json::to_string(v).expect("JSON values serialize")
    );
}

fn describe() {
    let workloads = ALL
        .iter()
        .map(|w| (w.name().to_string(), json!({ "subs": w.subs() })))
        .collect();
    print(&json!({
        "default_seed": DEFAULT_SEED,
        "profile": profile(),
        "workloads": Value::Map(workloads),
        "per_layer": traced::per_layer_names(),
    }));
}

fn print_reference() {
    println!("pub const REFERENCE: &[(&str, u64, u64)] = &[");
    for w in ALL {
        for sub in 0..w.subs() {
            let (sim, steps) = plain::set_up(w, sub_seed(DEFAULT_SEED, sub));
            let run = plain::run(w, sim, steps, None, &mut |_| {});
            assert!(run.errors.is_empty(), "{}: {:?}", w.name(), run.errors);
            println!(
                "    (\"{}\", {sub}, 0x{:016x}),",
                w.name(),
                run.outcome.digest
            );
        }
    }
    println!("];");
}

fn run(w: Workload, seed: u64, sub: u64, trace: bool) {
    let scenario_seed = sub_seed(seed, sub);
    let mut out = vec![
        ("workload".to_string(), json!(w.name())),
        ("seed".to_string(), json!(seed)),
        ("sub".to_string(), json!(sub)),
        ("scenario_seed".to_string(), json!(scenario_seed)),
        ("profile".to_string(), json!(profile())),
    ];
    let mut field = |key: &str, v: Value| out.push((key.to_string(), v));
    // Host seconds are also reported scaled to the reference host speed;
    // see `calib` and NOTES.md.
    let mut speed = SpeedScale::new(calib::probe_process);
    let (outcome, mut errors) = if trace {
        let t = traced::run(w, scenario_seed, &mut |s| speed.add(s));
        field("run_s", json!(speed.take()));
        field("run_raw_s", json!(t.run_s));
        let layers = t
            .metrics
            .iter()
            .map(|(name, value, unit)| (name.clone(), json!({ "value": value, "unit": unit })))
            .collect();
        field("dominant", json!(t.dominant));
        field("snapshot_errors", json!(t.snapshot_errors));
        field("layers", Value::Map(layers));
        (t.outcome, t.errors)
    } else {
        let (sim, steps, setups) = plain::set_up_repeated(w, scenario_seed, SETUP_REPS);
        let setup_total: f64 = setups.iter().sum();
        speed.add(setup_total);
        let setup_scale = speed.take() / setup_total;
        let r = plain::run(w, sim, steps, None, &mut |s| speed.add(s));
        field("run_s", json!(speed.take()));
        field("run_raw_s", json!(r.steps.run_s()));
        let scaled: Vec<f64> = setups.iter().map(|s| s * setup_scale).collect();
        field("setup_s", json!(scaled));
        field("setup_raw_s", json!(setups));
        (r.outcome, r.errors)
    };
    field("probe_s", json!(speed.samples));
    if seed == DEFAULT_SEED {
        match reference::digest(w, sub) {
            Some(want) if want != outcome.digest => errors.push(format!(
                "outcome digest {:016x} != reference {want:016x}",
                outcome.digest
            )),
            Some(_) => {}
            None => errors.push(format!("no reference recorded for sub-run {sub}")),
        }
    }
    field("peak_rss_mb", json!(plain::peak_rss_mb().unwrap_or(0.0)));
    field("digest", json!(format!("{:016x}", outcome.digest)));
    field("errors", json!(errors));
    print(&Value::Map(out));
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("describe") => describe(),
        Some("probe") => print(&json!({ "probe_s": calib::probe_s(PROBE_REPS) })),
        Some("reference") => print_reference(),
        Some("run") => {
            let mut w = None;
            let mut seed = DEFAULT_SEED;
            let mut sub = 0u64;
            let mut trace = false;
            let mut it = args[1..].iter();
            while let Some(flag) = it.next() {
                let parsed = match flag.as_str() {
                    "--traced" => {
                        trace = true;
                        Some(())
                    }
                    "--workload" => it
                        .next()
                        .and_then(|v| Workload::parse(v))
                        .map(|v| w = Some(v)),
                    "--seed" => it.next().and_then(|v| v.parse().ok()).map(|v| seed = v),
                    "--sub" => it.next().and_then(|v| v.parse().ok()).map(|v| sub = v),
                    _ => None,
                };
                if parsed.is_none() {
                    return usage();
                }
            }
            let Some(w) = w else {
                return usage();
            };
            if sub >= w.subs() {
                return usage();
            }
            run(w, seed, sub, trace);
        }
        _ => return usage(),
    }
    ExitCode::SUCCESS
}
