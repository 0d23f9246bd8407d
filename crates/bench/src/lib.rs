//! # refsim-bench
//!
//! Binaries that regenerate every results table and figure of the
//! reproduced paper (see DESIGN.md §4 for the index), plus the
//! `simwall` and `refbench` benchmarks.
//!
//! Every figure binary accepts:
//!
//! * `--quick` — 4 representative mixes, coarser time scale (smoke run);
//! * `--scale N` — override the time-scale divisor;
//! * `--seed N` — override the workload seed;
//! * `--csv` — emit CSV instead of aligned text;
//! * `--cache-dir PATH` — persistent run cache (default: the
//!   `REFSIM_CACHE_DIR` environment variable, if set);
//! * `--no-cache` — ignore any cache directory;
//! * `--stats-out PATH` — write dedup/cache telemetry as JSON;
//! * `--min-hit-rate X` — exit non-zero unless the cache hit rate
//!   reaches `X` (CI warm-cache gate).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::path::PathBuf;

use refsim_core::experiment::ExpOptions;
use refsim_core::report::Table;
use refsim_core::runcache::RunCache;

pub mod soak;

/// Parsed command line shared by the figure binaries.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Experiment options assembled from the flags.
    pub opts: ExpOptions,
    /// Emit CSV instead of aligned text.
    pub csv: bool,
    /// Telemetry JSON destination, if requested.
    pub stats_out: Option<PathBuf>,
    /// Minimum acceptable cache hit rate, if gated.
    pub min_hit_rate: Option<f64>,
}

impl Cli {
    /// Parses `std::env::args`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed flags.
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    /// Parses an explicit argument list (testable).
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Self {
        let mut opts = ExpOptions::full();
        let mut csv = false;
        let mut cache = RunCache::from_env();
        let mut no_cache = false;
        let mut stats_out = None;
        let mut min_hit_rate = None;
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
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
                "--threads" => {
                    let v = it.next().expect("--threads needs a value");
                    opts.threads = v.parse().expect("--threads must be an integer");
                }
                "--csv" => csv = true,
                "--cache-dir" => {
                    let v = it.next().expect("--cache-dir needs a path");
                    cache = Some(RunCache::new(v));
                }
                "--no-cache" => no_cache = true,
                "--stats-out" => {
                    let v = it.next().expect("--stats-out needs a path");
                    stats_out = Some(PathBuf::from(v));
                }
                "--min-hit-rate" => {
                    let v = it.next().expect("--min-hit-rate needs a value");
                    min_hit_rate = Some(v.parse().expect("--min-hit-rate must be a number"));
                }
                "--help" | "-h" => {
                    eprintln!(
                        "flags: [--quick] [--scale N] [--seed N] [--threads N] [--csv] \
                         [--cache-dir PATH] [--no-cache] [--stats-out PATH] [--min-hit-rate X]"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown flag {other}; try --help"),
            }
        }
        opts.cache = if no_cache { None } else { cache };
        Cli {
            opts,
            csv,
            stats_out,
            min_hit_rate,
        }
    }

    /// End-of-run bookkeeping every figure binary shares: prints the
    /// dedup/cache and executor telemetry to stderr (when any sweep ran),
    /// writes the `--stats-out` JSON artifact, and enforces
    /// `--min-hit-rate`.
    ///
    /// The artifact keeps the historical cache fields at the top level
    /// and nests the executor counters under an `"executor"` key, so
    /// existing consumers of the flat layout keep working.
    ///
    /// # Panics
    ///
    /// Panics when the stats artifact cannot be written.
    pub fn finish(&self) {
        let stats = self.opts.telemetry.snapshot();
        let exec = self.opts.telemetry.exec_snapshot();
        if stats.requested > 0 {
            eprintln!("runcache: {}", stats.summary());
        }
        if exec.items > 0 {
            eprintln!("executor: {}", exec.summary());
        }
        if let Some(path) = &self.stats_out {
            let combined = combined_stats_json(&stats, &exec);
            refsim_core::vfs::write_atomic(&refsim_core::vfs::StdVfs, path, combined.as_bytes())
                .expect("write stats artifact");
            eprintln!("wrote {}", path.display());
        }
        if let Some(floor) = self.min_hit_rate {
            if stats.hit_rate() < floor {
                eprintln!(
                    "FAIL: cache hit rate {:.3} is below the {floor:.3} floor",
                    stats.hit_rate()
                );
                std::process::exit(1);
            }
        }
    }

    /// Prints a table in the selected format.
    pub fn emit(&self, table: &Table) {
        if self.csv {
            print!("{}", table.to_csv());
        } else {
            println!("{table}");
        }
    }

    /// Prints several tables.
    pub fn emit_all<'a>(&self, tables: impl IntoIterator<Item = &'a Table>) {
        for t in tables {
            self.emit(t);
            println!();
        }
    }
}

/// The `--stats-out` artifact: one JSON object holding the cache
/// telemetry fields at the top level and the executor counters nested
/// under an `"executor"` key.
#[must_use]
pub fn combined_stats_json(
    cache: &refsim_core::runcache::CacheStats,
    exec: &refsim_core::executor::ExecutorStats,
) -> String {
    format!(
        "{{\n{},\n  \"executor\": {}\n}}\n",
        cache.json_members(),
        exec.to_json("  ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flags() {
        let cli =
            Cli::from_args(["--quick", "--scale", "64", "--seed", "7", "--csv"].map(String::from));
        assert!(cli.csv);
        assert_eq!(cli.opts.time_scale, 64);
        assert_eq!(cli.opts.seed, 7);
        assert_eq!(cli.opts.workloads.len(), 4);
    }

    #[test]
    fn parses_cache_flags() {
        let cli = Cli::from_args(
            [
                "--cache-dir",
                "/tmp/rc",
                "--stats-out",
                "stats.json",
                "--min-hit-rate",
                "0.9",
            ]
            .map(String::from),
        );
        assert_eq!(cli.opts.cache, Some(RunCache::new("/tmp/rc")));
        assert_eq!(
            cli.stats_out.as_deref(),
            Some(std::path::Path::new("stats.json"))
        );
        assert_eq!(cli.min_hit_rate, Some(0.9));
    }

    #[test]
    fn no_cache_overrides_cache_dir() {
        let cli = Cli::from_args(["--cache-dir", "/tmp/rc", "--no-cache"].map(String::from));
        assert_eq!(cli.opts.cache, None);
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn rejects_unknown() {
        let _ = Cli::from_args(["--bogus".to_owned()]);
    }

    #[test]
    fn stats_artifact_nests_executor_under_the_cache_fields() {
        let cache = refsim_core::runcache::CacheStats {
            requested: 40,
            deduped: 8,
            executed: 21,
            hits: 11,
            misses: 21,
            misses_absent: 18,
            misses_corrupt: 2,
            misses_io: 1,
            stores: 20,
            store_failures: 1,
            bypassed: 3,
            verified: 1,
            verify_failures: 0,
            bytes_read: 5120,
            bytes_written: 9216,
            saved_nanos: 1_500_000_000,
        };
        let exec = refsim_core::executor::ExecutorStats {
            workers: 2,
            items: 29,
            local_pops: 25,
            steals: 4,
            requeues: 1,
            tail_ms: [3, 5, 8, 6, 4, 2, 1, 0, 0],
        };
        // The bytes consumers of `--stats-out` read: cache fields at the
        // top level, the executor object nested under one key.
        let want = "{
  \"requested\": 40,
  \"deduped\": 8,
  \"executed\": 21,
  \"hits\": 11,
  \"misses\": 21,
  \"misses_absent\": 18,
  \"misses_corrupt\": 2,
  \"misses_io\": 1,
  \"stores\": 20,
  \"store_failures\": 1,
  \"bypassed\": 3,
  \"verified\": 1,
  \"verify_failures\": 0,
  \"bytes_read\": 5120,
  \"bytes_written\": 9216,
  \"saved_nanos\": 1500000000,
  \"dedup_factor\": 1.2500,
  \"hit_rate\": 0.3438,
  \"executor\": {
    \"workers\": 2,
    \"items\": 29,
    \"local_pops\": 25,
    \"steals\": 4,
    \"requeues\": 1,
    \"tail_ms\": [3, 5, 8, 6, 4, 2, 1, 0, 0]
  }
}
";
        assert_eq!(combined_stats_json(&cache, &exec), want);
    }
}
