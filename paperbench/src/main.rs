//! Paper-shaped wall-clock benchmark of the multi-precision pipeline.
//!
//! Three workloads run the Table I FINN BNN on 32×32×3 images with a DMU
//! that sends Table II's 25.1 % of images on to a more precise stage:
//!
//! - `paper_a_modeled`: BNN + Model A host, `Concurrency::Modeled`;
//! - `paper_b_overlap`: BNN + Model B host, `Concurrency::Threaded`;
//! - `cascade3_int4`: BNN → uniform int4 `QuantBnn` → Model A.
//!
//! ```text
//! cargo run --release --manifest-path paperbench/Cargo.toml -- \
//!     --workload paper_a_modeled --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` the run times `execute` reps for `--seconds` and
//! reports the end-to-end metrics; with `--trace 1` it instead times the
//! benchmark's own standalone calls into each layer beside `execute`, and
//! reports per-layer metrics. Every `execute` output is checked against
//! the expected outcome, and a sample against the per-image reference
//! paths. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod fixture;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use mp_bnn::FinnTopology;
use mp_core::{MultiPrecisionPipeline, PipelineResult, RunOptions};
use mp_fpga::cycle_model::engine_cycles;
use mp_obs::{SharedRecorder, NULL_RECORDER};
use mp_tensor::Parallelism;

use fixture::{BenchError, Fixture, Tracer, Workload};
use stats::{median, quartiles};
use trace::Trace;

const USAGE: &str = "usage: paperbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

/// Fixture builds per run; `setup_s` is their median.
const SETUP_BUILDS: usize = 3;

/// Fewest timed reps a run makes, however long they take.
const MIN_REPS: usize = 3;

/// Flagged images the int4 what-if times on workloads without an int4
/// stage, so `quant.ms_per_img` is measured on every workload.
const WHAT_IF_IMAGES: usize = 8;

/// Cascade stages reported by `cascade.stage<i>.entered_frac`.
const CASCADE_STAGES: usize = 3;

/// Spans that only group layer calls; their self time is unattributed.
const GLUE_SPANS: [&str; 2] = ["rep", "layers"];

/// End-to-end metrics, reported with `--trace 0`: name and unit.
const END_TO_END: [(&str, &str); 3] = [
    ("img_per_s", "img/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics reported with `--trace 1` ahead of the per-stage
/// ones: name and unit.
const PER_LAYER: [(&str, &str); 12] = [
    ("bnn.ms_per_img", "ms"),
    ("dmu.us_per_img", "us"),
    ("dmu.rerun_frac", "frac"),
    ("host.ms_per_img", "ms"),
    ("quant.ms_per_img", "ms"),
    ("pipeline.self_frac", "frac"),
    ("pipeline.overlap_frac", "frac"),
    ("pipeline.backpressure_events", "count"),
    ("obs.shared_overhead_frac", "frac"),
    ("model.modeled_img_per_s", "img/s"),
    ("trace.residual_frac", "frac"),
    ("error_frac", "frac"),
];

/// Every per-layer metric name, in reporting order.
fn per_layer_names() -> Vec<String> {
    let stages = FinnTopology::paper().engines().len();
    let mut names: Vec<String> = PER_LAYER.iter().map(|m| m.0.to_owned()).collect();
    names.extend((0..stages).map(|i| format!("bnn.stage{i}.share")));
    names.extend((0..stages).map(|i| format!("fpga.stage{i}.model_share")));
    names.extend((0..CASCADE_STAGES).map(|i| format!("cascade.stage{i}.entered_frac")));
    names
}

/// A measured metric: name, value and unit.
type Metric = (String, f64, &'static str);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        let seconds = seconds.ok_or("missing --seconds")?;
        if !(seconds.is_finite() && seconds > 0.0) {
            return Err(format!("--seconds must be positive, not {seconds}"));
        }
        Ok(Self {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds,
            trace: trace.unwrap_or(false),
        })
    }
}

/// Images attempted and images in error, plus the fixture self-checks.
#[derive(Debug, Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
}

impl Tally {
    /// Counts one `execute` call's images, all failed on `Err`.
    fn execute(&mut self, f: &Fixture, result: Result<PipelineResult, mp_core::CoreError>) {
        let n = f.data.len();
        self.attempted += n;
        match result {
            Ok(r) => self.failed += f.mismatches(&r),
            Err(e) => {
                self.failed += n;
                self.problem(format!("execute failed: {e}"));
            }
        }
    }

    fn problem(&mut self, what: String) {
        eprintln!("paperbench: {what}");
        self.problems.push(what);
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("paperbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("paperbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), BenchError> {
    let workload = args.workload;
    let par = Parallelism::available();
    let mut setup = Vec::with_capacity(SETUP_BUILDS);
    let mut built = None;
    for _ in 0..SETUP_BUILDS {
        drop(built.take());
        let t = Instant::now();
        built = Some(Fixture::build(workload, args.seed, par)?);
        setup.push(t.elapsed().as_secs_f64());
    }
    let mut f = built.expect("at least one build");
    let n = f.data.len();
    println!(
        "{}: {n} images/rep, {} thread(s), gates {:?}, setup {:.3} s (median of {SETUP_BUILDS})",
        workload.name(),
        par.threads(),
        f.gates,
        median(&setup)
    );

    let mut tally = Tally::default();
    let configured = workload.configured_entered(n);
    if f.expected.entered != configured {
        tally.problem(format!(
            "fixture lets {:?} images into the stages, configured {configured:?}",
            f.expected.entered
        ));
    }
    let (sampled, bad) = f.reference_mismatches()?;
    tally.attempted += sampled;
    tally.failed += bad;
    if bad > 0 {
        tally.problem(format!("{bad} of {sampled} reference images disagree"));
    }
    let pipeline = f.pipeline();
    let opts = f.run_options()?;
    if workload.threaded() {
        // The overlapped executor must reproduce the modeled one.
        let modeled = pipeline.execute(&f.host, &f.data, &opts.clone().modeled());
        tally.execute(&f, modeled);
    }
    // Warm-up rep: checked, not timed.
    tally.execute(&f, pipeline.execute(&f.host, &f.data, &opts));

    let mut metrics = if args.trace {
        traced(&f, &pipeline, &opts, args, &mut tally)?
    } else {
        timed(
            &f,
            &pipeline,
            &opts,
            args.seconds,
            &mut tally,
            median(&setup),
        )?
    };
    if tally.failed > 0 {
        tally.problem(format!(
            "{} of {} images in error",
            tally.failed, tally.attempted
        ));
    }
    for (name, value, _) in &mut metrics {
        if !value.is_finite() {
            tally.problem(format!("{name} is {value}"));
            *value = 0.0;
        }
    }
    println!("{}", result_line(&tally, &metrics));
    Ok(())
}

/// The end-to-end run: `execute` reps for `seconds`, tracing off.
fn timed(
    f: &Fixture,
    pipeline: &MultiPrecisionPipeline<'_>,
    opts: &RunOptions<'_>,
    seconds: f64,
    tally: &mut Tally,
    setup_s: f64,
) -> Result<Vec<Metric>, BenchError> {
    let n = f.data.len();
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let result = pipeline.execute(&f.host, &f.data, opts);
        reps.push(t.elapsed().as_secs_f64());
        tally.execute(f, result);
    }
    let [q1, q2, q3] = quartiles(&reps);
    println!(
        "rep time over {} reps: q1 {:.4} s, median {:.4} s, q3 {:.4} s",
        reps.len(),
        q1,
        q2,
        q3
    );
    let values = [n as f64 / median(&reps), setup_s, peak_rss_mb()?];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name.to_owned(), v, unit))
        .collect())
}

/// The traced run: per rep, the standalone layer calls, then `execute`
/// with a `NullRecorder` and with a `SharedRecorder` (in alternating
/// order), each inside a span of the benchmark's own.
fn traced(
    f: &Fixture,
    pipeline: &MultiPrecisionPipeline<'_>,
    opts: &RunOptions<'_>,
    args: &Args,
    tally: &mut Tally,
) -> Result<Vec<Metric>, BenchError> {
    let workload = f.workload;
    let n = f.data.len();
    let entered = &f.expected.entered;
    let what_if = if workload.has_int4() {
        None
    } else {
        let flagged: Vec<usize> = (0..n)
            .filter(|&i| f.expected.stage_of[i] > 0)
            .take(WHAT_IF_IMAGES)
            .collect();
        Some(f.data.select(&flagged)?)
    };
    let stages = FinnTopology::paper().engines().len();
    let mut stage_s = vec![0.0; stages];
    let mut backpressure = Vec::new();
    let mut last = None;
    let mut trace = Trace::new(workload.name());
    let start = Instant::now();
    let mut reps = 0;
    while reps < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        let rep = reps;
        let root = trace.open("rep", None, rep);
        let layers = trace.open("layers", Some(root), rep);
        let replay = f.run_layers(Some(&f.gates), Tracer(Some((&mut trace, layers, rep))))?;
        trace.close(layers);
        let (outcome, _) = replay.ok_or("fixed gates always apply")?;
        tally.attempted += n;
        tally.failed += (0..n)
            .filter(|&i| {
                outcome.predictions[i] != f.expected.predictions[i]
                    || outcome.stage_of[i] != f.expected.stage_of[i]
            })
            .count();
        if let Some(subset) = &what_if {
            trace.span("quant.whatif", Some(root), rep, || {
                f.quant
                    .infer_batch_obs(subset.images(), f.par, &NULL_RECORDER)
            })?;
        }
        for shared in [rep % 2 == 1, rep % 2 == 0] {
            let result = if shared {
                let rec = SharedRecorder::new();
                let opts = opts.clone().with_recorder(&rec);
                let result = trace.span("execute.shared", Some(root), rep, || {
                    pipeline.execute(&f.host, &f.data, &opts)
                });
                for s in rec.report().spans {
                    if let Some(i) = bnn_stage_index(&s.name) {
                        stage_s[i] += s.total_s;
                    }
                }
                result
            } else {
                let result = trace.span("execute.null", Some(root), rep, || {
                    pipeline.execute(&f.host, &f.data, opts)
                });
                if let Ok(r) = &result {
                    backpressure.push(r.backpressure_events as f64);
                    last = Some(r.clone());
                }
                result
            };
            trace.span("check", Some(root), rep, || tally.execute(f, result));
        }
        trace.close(root);
        reps += 1;
    }
    let last = last.ok_or("no execute call succeeded")?;
    let per_rep = |name: &str| trace.per_rep_s(name, reps);
    let (bnn, dmu, host, quant) = (
        per_rep("bnn"),
        per_rep("dmu"),
        per_rep("host"),
        per_rep(if workload.has_int4() {
            "quant"
        } else {
            "quant.whatif"
        }),
    );
    let (null, shared) = (per_rep("execute.null"), per_rep("execute.shared"));
    let in_pipeline =
        |r: usize| bnn[r] + dmu[r] + host[r] + if workload.has_int4() { quant[r] } else { 0.0 };
    let self_frac: Vec<f64> = (0..reps)
        .map(|r| (null[r] - in_pipeline(r)) / null[r])
        .collect();
    let overlap_frac: Vec<f64> = (0..reps)
        .map(|r| 1.0 - null[r] / (in_pipeline(r) - dmu[r]))
        .collect();
    let dmu_images = if workload.has_int4() {
        n + entered[1]
    } else {
        n
    };
    let quant_images = what_if.as_ref().map_or(entered[1], |s| s.len());
    let hosted = *entered.last().expect("a host stage");
    let model_cycles: Vec<f64> = FinnTopology::paper()
        .engines()
        .iter()
        .map(|e| engine_cycles(e, 1, 1) as f64)
        .collect();
    let stage_total: f64 = stage_s.iter().sum();
    let model_total: f64 = model_cycles.iter().sum();
    let residual = trace::residual_frac(trace.spans(), &GLUE_SPANS);

    let scalars = [
        median(&bnn) / n as f64 * 1e3,
        median(&dmu) / dmu_images as f64 * 1e6,
        entered[1] as f64 / n as f64,
        median(&host) / hosted as f64 * 1e3,
        median(&quant) / quant_images as f64 * 1e3,
        median(&self_frac),
        median(&overlap_frac),
        median(&backpressure),
        median(&shared) / median(&null) - 1.0,
        last.modeled_images_per_sec,
        residual,
        tally.failed as f64 / tally.attempted as f64,
    ];
    let mut metrics: Vec<Metric> = PER_LAYER
        .iter()
        .zip(scalars)
        .map(|(&(name, unit), v)| (name.to_owned(), v, unit))
        .collect();
    for (i, s) in stage_s.iter().enumerate() {
        metrics.push((format!("bnn.stage{i}.share"), s / stage_total, "frac"));
    }
    for (i, c) in model_cycles.iter().enumerate() {
        metrics.push((
            format!("fpga.stage{i}.model_share"),
            c / model_total,
            "frac",
        ));
    }
    for i in 0..CASCADE_STAGES {
        let frac = last.stage_traffic.get(i).map_or(0.0, |t| t.entered_frac);
        metrics.push((format!("cascade.stage{i}.entered_frac"), frac, "frac"));
    }
    if metrics.iter().map(|m| &m.0).ne(per_layer_names().iter()) {
        return Err("traced metrics out of step with per_layer_names".into());
    }

    println!("\nper-stage BNN time (measured, SharedRecorder spans) vs eq. (3)/(4) at P = S = 1 (modeled)");
    println!(
        "{:<8} {:>14} {:>14}",
        "stage", "measured share", "modeled share"
    );
    for i in 0..stages {
        println!(
            "{:<8} {:>14.4} {:>14.4}",
            i,
            stage_s[i] / stage_total,
            model_cycles[i] / model_total
        );
    }
    let wall = median(&null);
    println!(
        "\nattribution of execute wall {:.4} s (median of {reps} reps)",
        wall
    );
    println!(
        "{:<26} {:>10} {:>10}",
        "layer (standalone call)", "s/rep", "of wall"
    );
    let mut rows = vec![
        ("bnn", median(&bnn)),
        ("dmu", median(&dmu)),
        ("host", median(&host)),
    ];
    if workload.has_int4() {
        rows.push(("quant (int4)", median(&quant)));
    }
    let layer_sum: f64 = rows.iter().map(|r| r.1).sum();
    rows.push(("executor self", wall - layer_sum));
    for (name, s) in rows {
        println!("{:<26} {:>10.4} {:>9.1}%", name, s, 100.0 * s / wall);
    }
    println!(
        "trace.residual_frac {:.5}; modeled throughput {:.2} img/s (paper timing, not wall clock)",
        residual, last.modeled_images_per_sec
    );

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-seed{}.json", workload.name(), args.seed));
    trace.write_json(&path)?;
    println!("spans written to {}", path.display());
    Ok(metrics)
}

/// `i` for a `bnn.stage<i>.<kind>` span name.
fn bnn_stage_index(name: &str) -> Option<usize> {
    name.strip_prefix("bnn.stage")?
        .split('.')
        .next()?
        .parse()
        .ok()
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> Result<f64, BenchError> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .ok_or("no VmHWM in /proc/self/status")?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse::<f64>()?;
    Ok(kb / 1024.0)
}

/// The final stdout line.
fn result_line(tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.problems.is_empty() && tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// The values of every `"name": "…"` entry in `BENCHMARK.json`'s
    /// `section` array.
    fn declared(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let start = text.find(&format!("\"{section}\"")).expect("section");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("array end")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("closing quote")].to_owned())
            .collect()
    }

    #[test]
    fn names_are_valid_and_match_the_benchmark_file() {
        let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
        let end_to_end: Vec<String> = END_TO_END.iter().map(|m| m.0.to_owned()).collect();
        let per_layer = per_layer_names();
        for name in workloads.iter().chain(&end_to_end).chain(&per_layer) {
            assert!(valid_name(name), "{name}");
        }
        assert_eq!(declared("workloads"), workloads);
        assert_eq!(declared("end_to_end"), end_to_end);
        assert_eq!(declared("per_layer"), per_layer);
    }

    #[test]
    fn arguments_parse_and_reject_unknown_input() {
        let args = |s: &str| Args::parse(s.split_whitespace().map(str::to_owned));
        let ok = args("--workload cascade3_int4 --seed 7 --seconds 20 --trace 1").expect("valid");
        assert_eq!(ok.workload, Workload::Cascade3Int4);
        assert_eq!((ok.seed, ok.seconds, ok.trace), (7, 20.0, true));
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload paper_a_modeled --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload paper_a_modeled --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload paper_a_modeled --seed 1 --seconds 1 --fast 1").is_err());
    }

    #[test]
    fn stage_index_reads_bnn_span_names() {
        assert_eq!(bnn_stage_index("bnn.stage0.first_conv"), Some(0));
        assert_eq!(bnn_stage_index("bnn.stage8.output_fc"), Some(8));
        assert_eq!(bnn_stage_index("quant.stage1.conv"), None);
    }
}
