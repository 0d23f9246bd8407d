//! Deterministic-replay auditor CLI.
//!
//! Verifies the simulator's bit-identity contract on the configured
//! workload mixes, for both the baseline and the co-design scheme:
//!
//! * `--verify` (default) — run each config twice, expect zero
//!   divergence at every sampled quantum;
//! * `--perturb N` — corrupt the workload RNG at quantum `N` of the
//!   second run and check the auditor blames the `workloads` component
//!   at exactly that quantum (negative control).
//!
//! Exits non-zero on any contract violation, so CI can gate on it.

use refsim_core::experiment::ExpOptions;
use refsim_core::replay::{replay_verify, replay_verify_perturbed, ReplayOptions, ReplayReport};
use refsim_core::report::Table;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Verify,
    Perturb(u64),
}

fn parse_args(args: impl IntoIterator<Item = String>) -> (Mode, ExpOptions, bool) {
    let mut mode = Mode::Verify;
    let mut opts = ExpOptions::full();
    let mut csv = false;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--verify" => mode = Mode::Verify,
            "--perturb" => {
                let v = it.next().expect("--perturb needs a quantum index");
                mode = Mode::Perturb(v.parse().expect("--perturb must be an integer"));
            }
            "--quick" => {
                let threads = opts.threads;
                opts = ExpOptions::quick();
                opts.threads = threads;
            }
            "--scale" => {
                let v = it.next().expect("--scale needs a value");
                opts.time_scale = v.parse().expect("--scale must be an integer");
            }
            "--seed" => {
                let v = it.next().expect("--seed needs a value");
                opts.seed = v.parse().expect("--seed must be an integer");
            }
            "--csv" => csv = true,
            "--help" | "-h" => {
                eprintln!(
                    "flags: [--verify | --perturb N] \
                     [--quick] [--scale N] [--seed N] [--csv]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other}; try --help"),
        }
    }
    (mode, opts, csv)
}

fn main() {
    let (mode, opts, csv) = parse_args(std::env::args().skip(1));
    let mut table = Table::new(
        match mode {
            Mode::Verify => "Replay audit: run-twice bit-identity".to_owned(),
            Mode::Perturb(q) => format!("Replay audit: perturbation control (quantum {q})"),
        },
        ["mix", "scheme", "samples", "verdict"],
    );
    let mut violations = 0u32;
    for mix in &opts.workloads {
        for (scheme, cfg) in [
            ("baseline", opts.base_config()),
            ("co-design", opts.base_config().co_design()),
        ] {
            let ropts = ReplayOptions::for_config(&cfg);
            let report = match mode {
                Mode::Verify => replay_verify(&cfg, mix, &ropts),
                Mode::Perturb(q) => replay_verify_perturbed(&cfg, mix, &ropts, q),
            };
            let (samples, verdict, bad) = match (&mode, report) {
                (_, Err(e)) => (0, format!("run failed: {e}"), true),
                (Mode::Perturb(q), Ok(r)) => summarize_perturbed(*q, &r),
                (_, Ok(r)) => match &r.divergence {
                    None => (r.samples, "clean".to_owned(), false),
                    Some(d) => (r.samples, d.to_string(), true),
                },
            };
            violations += u32::from(bad);
            table.push([
                mix.name.clone(),
                scheme.to_owned(),
                samples.to_string(),
                verdict,
            ]);
        }
    }
    if csv {
        print!("{}", table.to_csv());
    } else {
        println!("{table}");
    }
    if violations > 0 {
        eprintln!("replay audit FAILED: {violations} contract violation(s)");
        std::process::exit(1);
    }
}

/// A perturbed run must diverge, in the `workloads` component, at the
/// quantum where the fault was injected — anything else means the
/// auditor is blind or misattributing.
fn summarize_perturbed(q: u64, r: &ReplayReport) -> (usize, String, bool) {
    match &r.divergence {
        Some(d) if d.quantum == q && d.component == "workloads" => {
            (r.samples, format!("detected: {d}"), false)
        }
        Some(d) => (r.samples, format!("misattributed: {d}"), true),
        None => (r.samples, "UNDETECTED perturbation".to_owned(), true),
    }
}
