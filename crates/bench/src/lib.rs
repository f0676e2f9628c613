//! # mp-bench
//!
//! The experiment harness: one binary per table and figure of the
//! paper's evaluation, plus Criterion micro-benchmarks.
//!
//! | binary | regenerates |
//! |---|---|
//! | `table1` | Table I — FINN engine topology and §III-A feature sizes |
//! | `fig3` | Fig. 3 — img/s and BRAM/LUT % vs total PE count (naive allocation) |
//! | `fig4` | Fig. 4 — the same sweep with block array partitioning |
//! | `fig5` | Fig. 5 — Softmax accuracy / F̄S / FS̄ vs DMU threshold |
//! | `table2` | Table II — the 0.84-threshold operating point |
//! | `table3` | Table III — host model layer listings and costs |
//! | `table4` | Table IV — standalone accuracy and img/s of A/B/C/FINN |
//! | `table5` | Table V — the multi-precision systems A/B/C + FINN |
//! | `eq_validation` | eqs. (1)–(2) vs the discrete-event pipeline |
//! | `batch_ablation` | the paper's batch-size claim (§III) |
//! | `autotune` | folding × precision Pareto front vs the shipped Fig. 3/4 sweeps |
//!
//! Trained-system binaries accept `--smoke` for a fast low-fidelity run
//! and honour `--seed N`. Every binary appends its rows to
//! `results/<name>.json` so EXPERIMENTS.md can cite exact numbers.

#![forbid(unsafe_code)]
#![deny(deprecated)]

pub mod figures;

use std::fs;
use std::path::PathBuf;

use serde::Serialize;

use mp_core::experiment::ExperimentConfig;
use mp_serve::Request;

/// Parses the common `--smoke` / `--seed N` flags (and the throughput
/// bench's `--gate-overhead`), rejecting anything else.
///
/// # Example
///
/// ```
/// use mp_bench::CliOptions;
///
/// let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
/// let opts = CliOptions::parse_from(args(&["--smoke", "--seed", "7"])).unwrap();
/// assert!(opts.smoke);
/// assert_eq!(opts.seed, 7);
/// assert!(CliOptions::parse_from(args(&["--smok"])).is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliOptions {
    /// Use the tiny smoke profile instead of the fast profile.
    pub smoke: bool,
    /// Root experiment seed.
    pub seed: u64,
    /// Fail (exit non-zero) if the observability overhead gate trips;
    /// only the throughput bench reads this.
    pub gate_overhead: bool,
}

impl Default for CliOptions {
    fn default() -> Self {
        Self {
            smoke: false,
            seed: 2018,
            gate_overhead: false,
        }
    }
}

/// The flags [`CliOptions`] accepts, printed with a parse error.
const USAGE: &str = "usage: [--smoke] [--seed N] [--gate-overhead]";

impl CliOptions {
    /// Parses options from process arguments. On an unknown flag or a
    /// bad `--seed`, prints the error and the usage line and exits with
    /// code 2, before any work starts.
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1)).unwrap_or_else(|err| {
            eprintln!("error: {err}\n{USAGE}");
            std::process::exit(2)
        })
    }

    /// Parses options from an explicit argument list.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first unknown flag, or a `--seed`
    /// without a `u64` value after it.
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut opts = Self::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--smoke" => opts.smoke = true,
                "--gate-overhead" => opts.gate_overhead = true,
                "--seed" => {
                    let value = iter.next().ok_or("--seed needs a value")?;
                    opts.seed = value
                        .parse()
                        .map_err(|_| format!("--seed {value:?} is not a u64"))?;
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(opts)
    }

    /// The experiment configuration these options select.
    pub fn experiment_config(&self) -> ExperimentConfig {
        if self.smoke {
            ExperimentConfig::smoke(self.seed)
        } else {
            ExperimentConfig::fast_profile(self.seed)
        }
    }
}

/// A plain-text table printer producing the rows the paper reports.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout under a title.
    pub fn print(&self, title: &str) {
        println!("\n== {title} ==");
        print!("{}", self.render());
    }
}

/// Writes an experiment record to `results/<name>.json` (best-effort:
/// failures are reported to stderr, not fatal, so harnesses still print
/// their tables on read-only filesystems).
pub fn write_record<T: Serialize>(name: &str, record: &T) {
    let dir = results_dir();
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(record) {
        Ok(json) => {
            if let Err(e) = fs::write(&path, json) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            } else {
                println!("(record written to {})", path.display());
            }
        }
        Err(e) => eprintln!("warning: cannot serialise record: {e}"),
    }
}

/// The `results/` directory next to the workspace root.
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; results live at the repo root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results")
}

/// Formats a ratio as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Deterministic open-loop request trace for the serving load
/// generators: exponential inter-arrival gaps at `rate_at(t)` requests
/// per second (floored at 1e-9), drawn from a seeded hash, so the same
/// `seed` gives the same trace. Request `i` has id `i` and asks for image
/// `i % store_len`.
pub fn poisson_trace(
    seed: u64,
    n: usize,
    store_len: usize,
    rate_at: impl Fn(f64) -> f64,
) -> Vec<Request> {
    let mut t = 0.0f64;
    (0..n)
        .map(|i| {
            let u = unit_hash(seed, i as u64);
            t += -(1.0 - u).max(1e-12).ln() / rate_at(t).max(1e-9);
            Request::new(i as u64, i % store_len, t)
        })
        .collect()
}

/// SplitMix64-style hash of `(seed, index)` to a unit float — the same
/// construction `StreamFaults` uses for its deterministic draws.
fn unit_hash(seed: u64, index: u64) -> f64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xA24B_AED4_963E_E407));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn cli_defaults() {
        let o = CliOptions::parse_from(Vec::<String>::new()).unwrap();
        assert!(!o.smoke);
        assert_eq!(o.seed, 2018);
    }

    #[test]
    fn cli_parses_flags() {
        let o =
            CliOptions::parse_from(args(&["--seed", "42", "--smoke", "--gate-overhead"])).unwrap();
        assert!(o.smoke);
        assert!(o.gate_overhead);
        assert_eq!(o.seed, 42);
        assert_eq!(o.experiment_config().seed, 42);
    }

    #[test]
    fn cli_rejects_unknown_flags_and_bad_seeds() {
        for (bad, want) in [
            (&["--smok"][..], "unknown flag \"--smok\""),
            (&["--gate-overlap"][..], "unknown flag \"--gate-overlap\""),
            (&["--smoke", "--seed", "zzz"][..], "\"zzz\" is not a u64"),
            (&["--seed", "-1"][..], "is not a u64"),
            (&["--smoke", "--seed"][..], "--seed needs a value"),
        ] {
            let err = CliOptions::parse_from(args(bad)).unwrap_err();
            assert!(err.contains(want), "{bad:?}: {err}");
        }
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(&["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["longer".into(), "22".into()]);
        let s = t.render();
        assert!(s.contains("name"));
        assert!(s.contains("longer"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn table_rejects_ragged_rows() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.825), "82.5%");
    }
}
