//! `BENCH_paperbench.json`, the benchmark's trajectory: one record per
//! perf PR of paired paperbench medians, parent against change. These
//! checks keep it comparable across PRs: every name is one
//! `BENCHMARK.json` declares, every value is a real measurement, the
//! quartiles bracket their median, and records run in PR order.

use serde::Deserialize;

#[derive(Deserialize)]
struct Benchmark {
    workloads: Vec<Named>,
    end_to_end: Vec<Named>,
}

#[derive(Deserialize)]
struct Named {
    name: String,
}

#[derive(Deserialize)]
struct Trajectory {
    records: Vec<Record>,
}

#[derive(Deserialize)]
struct Record {
    pr: u32,
    /// The measured change; the record a commit adds cannot name itself.
    commit: Option<String>,
    parent: String,
    machine: Machine,
    measurements: Vec<Measurement>,
}

#[derive(Deserialize)]
struct Machine {
    nproc: Option<u32>,
    simd: Option<Vec<String>>,
}

#[derive(Deserialize)]
struct Measurement {
    source: String,
    seconds: Option<u32>,
    seeds: Option<String>,
    runs: Vec<Run>,
}

#[derive(Deserialize)]
struct Run {
    workload: String,
    metric: String,
    pairs: Option<u32>,
    won: Option<u32>,
    parent: Stats,
    change: Stats,
}

#[derive(Deserialize)]
struct Stats {
    median: f64,
    q1: Option<f64>,
    q3: Option<f64>,
}

fn read<T: for<'de> Deserialize<'de>>(file: &str) -> T {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(file);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{file}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{file}: {e}"))
}

fn is_commit(s: &str) -> bool {
    s.len() >= 7 && s.chars().all(|c| c.is_ascii_hexdigit())
}

#[test]
fn trajectory_names_declared_metrics_with_real_values_in_pr_order() {
    let bench: Benchmark = read("BENCHMARK.json");
    let workloads: Vec<&str> = bench.workloads.iter().map(|w| w.name.as_str()).collect();
    let metrics: Vec<&str> = bench.end_to_end.iter().map(|m| m.name.as_str()).collect();
    let trajectory: Trajectory = read("BENCH_paperbench.json");
    assert!(!trajectory.records.is_empty());
    let mut last_pr = 0;
    for rec in &trajectory.records {
        let at = format!("PR {}", rec.pr);
        assert!(rec.pr > last_pr, "{at}: PR numbers must increase");
        last_pr = rec.pr;
        assert!(is_commit(&rec.parent), "{at}: parent {:?}", rec.parent);
        if let Some(commit) = &rec.commit {
            assert!(is_commit(commit), "{at}: commit {commit:?}");
        }
        assert_ne!(rec.machine.nproc, Some(0), "{at}: nproc");
        if let Some(simd) = &rec.machine.simd {
            assert!(simd.iter().all(|t| !t.is_empty()), "{at}: simd {simd:?}");
        }
        assert!(!rec.measurements.is_empty(), "{at}: no measurement");
        for m in &rec.measurements {
            assert!(
                matches!(m.source.as_str(), "pr" | "merge_check"),
                "{at}: source {:?}",
                m.source
            );
            assert_ne!(m.seconds, Some(0), "{at}: seconds");
            assert_ne!(m.seeds.as_deref(), Some(""), "{at}: seeds");
            assert!(!m.runs.is_empty(), "{at}: no runs");
            for run in &m.runs {
                let at = format!("{at} {} {}", run.workload, run.metric);
                assert!(workloads.contains(&run.workload.as_str()), "{at}: workload");
                assert!(metrics.contains(&run.metric.as_str()), "{at}: metric");
                if let (Some(pairs), Some(won)) = (run.pairs, run.won) {
                    assert!(won <= pairs, "{at}: won {won} of {pairs} pairs");
                }
                for (side, s) in [("parent", &run.parent), ("change", &run.change)] {
                    for v in [Some(s.median), s.q1, s.q3].into_iter().flatten() {
                        assert!(v.is_finite() && v > 0.0, "{at} {side}: value {v}");
                    }
                    if let (Some(q1), Some(q3)) = (s.q1, s.q3) {
                        assert!(
                            q1 <= s.median && s.median <= q3,
                            "{at} {side}: q1 {q1} ≤ median {} ≤ q3 {q3}",
                            s.median
                        );
                    }
                }
            }
        }
    }
}
