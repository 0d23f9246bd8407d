//! Crash-matrix CLI: enumerate kill points across the run cache's I/O
//! and prove the durability contract holds at each one.
//!
//! Runs the cached sweep of `refsim_core::vfs::crashtest` behind a
//! fault-injecting filesystem,
//! crashing (or degrading) it at every I/O operation index, then
//! scanning the aftermath and restarting on a clean filesystem. Any
//! contract violation — a panic, a torn file at a final path, a
//! non-bit-identical restart, a quarantined healthy job — fails the
//! run and prints a reproducer command line.
//!
//! * default — exhaustive enumeration (stride 1) of the `crash`,
//!   `enospc`, `torn-write`, `interrupt`, and `corrupt-write` modes;
//! * `--quick` — the CI configuration: a coarse stride of the same
//!   modes, sized to finish in well under a minute;
//! * `--mode M[,M...]` — restrict to specific modes;
//! * `--stride N` — test every Nth operation index;
//! * `--point K` — test exactly one crash point (reproducer mode);
//! * `--negative-control` — defeat rename atomicity on the cache
//!   entries (`crash-defeat-rename`) at every `.run` publish rename and
//!   *require* the harness to flag every one — proof the scan has teeth;
//! * `--seed S` — scenario + fault-schedule seed;
//! * `--report PATH` — append the full per-point log to a text file
//!   (written atomically);
//! * `--dir PATH` — working directory root (default: a per-process
//!   directory under the system temp dir).
//!
//! Exits non-zero on any violation, or — under `--negative-control` —
//! when any deliberately broken rename goes *undetected*.

use std::fmt::Write as _;
use std::path::PathBuf;

use refsim_core::report::Table;
use refsim_core::vfs::crashtest::{
    enumerate, probe, reference_rows, run_point, CrashMatrix, CrashScenario, FaultMode, Verdict,
};
use refsim_core::vfs::{self, IoOp, StdVfs};

#[derive(Debug)]
struct Args {
    modes: Vec<FaultMode>,
    stride: u64,
    point: Option<u64>,
    seed: u64,
    negative_control: bool,
    report: Option<String>,
    dir: Option<PathBuf>,
    scenario: Option<String>,
}

const DEFAULT_MODES: [FaultMode; 5] = [
    FaultMode::Crash,
    FaultMode::Enospc,
    FaultMode::TornWrite,
    FaultMode::Interrupt,
    FaultMode::CorruptWrite,
];

/// `--quick` tests roughly this many points per mode.
const QUICK_POINTS: u64 = 10;

fn parse_args(args: impl IntoIterator<Item = String>) -> Args {
    let mut out = Args {
        modes: DEFAULT_MODES.to_vec(),
        stride: 1,
        point: None,
        seed: 42,
        negative_control: false,
        report: None,
        dir: None,
        scenario: None,
    };
    let mut quick = false;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--mode" => {
                let v = it.next().expect("--mode needs a value");
                out.modes = v
                    .split(',')
                    .map(|s| {
                        FaultMode::parse(s.trim())
                            .unwrap_or_else(|| panic!("unknown mode `{s}`; try --help"))
                    })
                    .collect();
            }
            "--stride" => {
                let v = it.next().expect("--stride needs a value");
                out.stride = v.parse().expect("--stride must be an integer");
            }
            "--point" => {
                let v = it.next().expect("--point needs a value");
                out.point = Some(v.parse().expect("--point must be an integer"));
            }
            "--seed" => {
                let v = it.next().expect("--seed needs a value");
                out.seed = v.parse().expect("--seed must be an integer");
            }
            "--negative-control" => out.negative_control = true,
            "--report" => out.report = Some(it.next().expect("--report needs a path")),
            "--dir" => out.dir = Some(PathBuf::from(it.next().expect("--dir needs a path"))),
            "--scenario" => {
                out.scenario = Some(it.next().expect("--scenario needs tiny|dense"));
            }
            "--help" | "-h" => {
                eprintln!(
                    "flags: [--quick] [--mode M[,M...]] [--stride N] [--point K] [--seed S] \
                     [--negative-control] [--report PATH] [--dir PATH] [--scenario tiny|dense]\n\
                     modes: crash crash-defeat-rename enospc torn-write interrupt corrupt-write"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other}; try --help"),
        }
    }
    if quick {
        out.stride = 0; // resolved against the probed op count below
    }
    out
}

fn reproducer(scenario: &str, seed: u64, mode: FaultMode, k: u64) -> String {
    format!(
        "cargo run --release --bin crashmat -- --scenario {scenario} --mode {mode} \
         --point {k} --seed {seed}"
    )
}

fn log_matrix(log: &mut String, scenario: &str, seed: u64, matrix: &CrashMatrix) {
    let _ = writeln!(log, "{}", matrix.summary());
    for p in &matrix.points {
        match &p.verdict {
            Verdict::Resumed => {}
            Verdict::Degraded(why) => {
                let _ = writeln!(log, "  op {:>4} degraded: {why}", p.index);
            }
            Verdict::Violation(why) => {
                let _ = writeln!(
                    log,
                    "  op {:>4} VIOLATION: {why}\n    reproduce: {}",
                    p.index,
                    reproducer(scenario, seed, matrix.mode, p.index)
                );
            }
        }
    }
}

fn main() {
    let args = parse_args(std::env::args().skip(1));
    // Exhaustive (stride 1) runs enumerate the dense scenario — a few
    // dozen crash points per mode; everything else uses the tiny one. An
    // explicit --scenario wins, so reproducer lines replay faithfully.
    let scenario = args.scenario.clone().unwrap_or_else(|| {
        if args.stride == 1 && args.point.is_none() && !args.negative_control {
            "dense".to_owned()
        } else {
            "tiny".to_owned()
        }
    });
    let scn = match scenario.as_str() {
        "tiny" => CrashScenario::tiny(args.seed),
        "dense" => CrashScenario::dense(args.seed),
        other => panic!("unknown scenario `{other}`; expected tiny or dense"),
    };
    let root = args.dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("refsim-crashmat-{}", std::process::id()))
    });
    let mut log = String::new();
    let mut failed = false;

    if args.negative_control {
        // Defeat rename atomicity on the cache entries and crash on
        // every entry-publish rename: the scan MUST flag each torn
        // destination, or the whole matrix is security theater.
        let reference = reference_rows(&scn);
        let (_, oplog) = probe(&scn, &root);
        let renames: Vec<u64> = oplog
            .iter()
            .filter(|r| r.op == IoOp::Rename && r.path.to_string_lossy().ends_with(".run"))
            .map(|r| r.index)
            .collect();
        assert!(
            !renames.is_empty(),
            "the scenario never published a cache entry via rename"
        );
        let mut detected = 0usize;
        for &k in &renames {
            let p = run_point(&scn, &root, k, FaultMode::CrashDefeatRename, &reference);
            if let Verdict::Violation(why) = &p.verdict {
                detected += 1;
                let _ = writeln!(log, "op {k} detected the defeated rename: {why}");
            }
        }
        let _ = std::fs::remove_dir_all(&root);
        let _ = writeln!(
            log,
            "negative control: {detected}/{} defeated renames detected",
            renames.len()
        );
        print!("{log}");
        if detected < renames.len() {
            eprintln!("FAIL: a non-atomic rename of a cache entry went undetected");
            std::process::exit(1);
        }
        write_report(&args, &log);
        return;
    }

    if let Some(k) = args.point {
        // Reproducer mode: one point, full detail.
        let reference = reference_rows(&scn);
        for &mode in &args.modes {
            let p = run_point(&scn, &root, k, mode, &reference);
            println!(
                "mode {mode} op {k}: {:?}\n  op there: {:?}",
                p.verdict, p.op
            );
            if matches!(p.verdict, Verdict::Violation(_)) {
                failed = true;
            }
        }
        let _ = std::fs::remove_dir_all(&root);
        if failed {
            std::process::exit(1);
        }
        return;
    }

    let mut table = Table::new(
        format!("Crash matrix (seed {})", args.seed),
        ["mode", "ops", "points", "clean", "degraded", "violations"],
    );
    for &mode in &args.modes {
        let stride = if args.stride == 0 {
            // --quick: size the stride off a probe so every mode tests
            // about QUICK_POINTS indices across the full range.
            let (total, _) = probe(&scn, &root);
            (total / QUICK_POINTS).max(1)
        } else {
            args.stride
        };
        let matrix = enumerate(&scn, &root, stride, mode);
        log_matrix(&mut log, &scenario, args.seed, &matrix);
        let (mut clean, mut degraded) = (0usize, 0usize);
        for p in &matrix.points {
            match p.verdict {
                Verdict::Resumed => clean += 1,
                Verdict::Degraded(_) => degraded += 1,
                Verdict::Violation(_) => {}
            }
        }
        let violations = matrix.violations().len();
        if violations > 0 {
            failed = true;
        }
        table.push([
            mode.to_string(),
            matrix.total_ops.to_string(),
            matrix.points.len().to_string(),
            clean.to_string(),
            degraded.to_string(),
            violations.to_string(),
        ]);
    }
    println!("{table}");
    print!("{log}");
    write_report(&args, &log);
    let _ = std::fs::remove_dir_all(&root);
    if failed {
        eprintln!("crash matrix FAILED: see reproducer lines above");
        std::process::exit(1);
    }
}

fn write_report(args: &Args, log: &str) {
    if let Some(path) = &args.report {
        vfs::write_atomic(&StdVfs, std::path::Path::new(path), log.as_bytes())
            .expect("write crash-matrix report");
        eprintln!("report written to {path}");
    }
}
