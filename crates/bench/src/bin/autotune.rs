//! `autotune`: runs the mp-autotune folding × precision search over the
//! paper's engine chain and emits the throughput / accuracy / resource
//! Pareto front to `results/autotune_pareto.json`.
//!
//! Two gates are asserted on every run (CI runs `--smoke`):
//!
//! 1. **Domination** — for both memory models (naive = Fig. 3,
//!    partitioned = Fig. 4), every shipped hand-picked configuration of
//!    the figures' folding sweep must be dominated or matched by some
//!    searched point on `(expected img/s ↑, BRAM ↓, LUTs ↓)`. The
//!    search seeds itself with the exact sweep grid, so a failure means
//!    the oracle's cost accounting diverged from `DesignPoint`.
//! 2. **Front sanity** — the emitted Pareto front is non-empty and
//!    mutually non-dominated.
//!
//! A violation exits non-zero.

use std::sync::Arc;

use serde::Serialize;

use mp_autotune::{pareto_front, Autotuner, Oracle, Profile, TunedPoint};
use mp_bench::{pct, write_record, CliOptions, TextTable};
use mp_bnn::FinnTopology;
use mp_core::experiment::TrainedSystem;
use mp_core::{CascadePolicy, CascadeStage, StageClassifier};
use mp_fpga::{design::DesignPoint, device::Device, memory::MemoryModel};
use mp_host::zoo::ModelId;
use mp_int::QuantBnn;
use mp_verify::VerifyTarget;

/// Relative slack of the domination gate: seeds reproduce the shipped
/// points exactly, so only floating-point formatting noise is excused.
const GATE_REL_TOL: f64 = 1e-9;

#[derive(Debug, Serialize)]
struct ParetoEntry {
    profile: String,
    memory: String,
    /// Per-engine `(P, S)`.
    folding: Vec<(usize, usize)>,
    total_pe: usize,
    bottleneck_cycles: u64,
    quant_bottleneck_cycles: f64,
    modeled_fps: f64,
    bram_18k: u64,
    luts: u64,
    fits_device: bool,
    accuracy: f64,
}

#[derive(Debug, Serialize)]
struct GateRecord {
    memory: String,
    shipped_configs: usize,
    dominated_or_matched: usize,
    passed: bool,
    failures: Vec<String>,
}

#[derive(Debug, Serialize)]
struct AutotuneRecord {
    seed: u64,
    smoke: bool,
    beam_width: usize,
    profiles: Vec<String>,
    accuracy_per_profile: Vec<(String, f64)>,
    gates: Vec<GateRecord>,
    front_size: usize,
    points_searched: usize,
    pareto: Vec<ParetoEntry>,
}

fn entry(point: &TunedPoint, memory: &str) -> ParetoEntry {
    ParetoEntry {
        profile: point.profile.clone(),
        memory: memory.to_owned(),
        folding: point.folding.engines().iter().map(|f| (f.p, f.s)).collect(),
        total_pe: point.folding.total_pe(),
        bottleneck_cycles: point.cost.bottleneck_cycles,
        quant_bottleneck_cycles: point.cost.quant_bottleneck_cycles,
        modeled_fps: point.cost.modeled_fps,
        bram_18k: point.cost.bram_18k,
        luts: point.cost.luts,
        fits_device: point.cost.fits,
        accuracy: point.accuracy.unwrap_or(0.0),
    }
}

/// Does any searched point dominate-or-match the shipped design on
/// `(expected fps, BRAM, LUTs)`?
fn gate(
    memory: &str,
    shipped: &[(DesignPoint, mp_bench::figures::FigRecord)],
    front: &[TunedPoint],
) -> GateRecord {
    let mut failures = Vec::new();
    let mut matched = 0usize;
    for (p, _) in shipped {
        let ok = front.iter().any(|t| {
            t.cost.modeled_fps >= p.expected_fps * (1.0 - GATE_REL_TOL)
                && t.cost.bram_18k <= p.bram_18k
                && t.cost.luts <= p.luts
        });
        if ok {
            matched += 1;
        } else {
            failures.push(format!(
                "{memory}: shipped PE={} fps={:.1} bram={} luts={} undominated",
                p.total_pe, p.expected_fps, p.bram_18k, p.luts
            ));
        }
    }
    GateRecord {
        memory: memory.to_owned(),
        shipped_configs: shipped.len(),
        dominated_or_matched: matched,
        passed: failures.is_empty(),
        failures,
    }
}

fn main() {
    let opts = CliOptions::parse();
    let config = opts.experiment_config();
    let beam_width = if opts.smoke { 8 } else { 48 };
    println!(
        "autotune: training system (seed {}, smoke {}, beam {beam_width})",
        opts.seed, opts.smoke
    );
    let sys = TrainedSystem::prepare(&config).expect("system preparation");
    let id = ModelId::ALL[0];
    let run_opts = sys.run_options(id).expect("run options");
    // The trained classifier (accuracy axis) and the paper's engine
    // chain (cost axis) have different depths; each profile is the same
    // width *pattern* instantiated at both layer counts, keyed by its
    // label.
    let bnn_layers = sys.bnn.export_latent().len();
    let topo = FinnTopology::paper();
    let engine_count = topo.engines().len();

    let pick = |all: Vec<Profile>| -> Vec<Profile> {
        if opts.smoke {
            all.into_iter()
                .filter(|p| p.label == "1bit" || p.label == "a4w4")
                .collect()
        } else {
            all
        }
    };
    let profiles = pick(Profile::standard(engine_count));
    let acc_profiles = pick(Profile::standard(bnn_layers));

    // Accuracy per profile: the full pipeline accuracy with the
    // quantized stage swapped in (measured once per profile; it does
    // not depend on the folding).
    let mut accuracy_per_profile: Vec<(String, f64)> = Vec::new();
    for profile in &acc_profiles {
        let result = match &profile.precision {
            None => sys.execute(id, &run_opts).expect("1-bit baseline"),
            Some(precision) => {
                let quant =
                    QuantBnn::from_classifier(&sys.bnn, precision.clone()).expect("quantisation");
                let policy = CascadePolicy::try_new(vec![
                    CascadeStage::gated(
                        StageClassifier::Quantized(Arc::new(quant)),
                        sys.config.threshold,
                    ),
                    CascadeStage::terminal(StageClassifier::HostFloat),
                ])
                .expect("quantized policy");
                sys.execute(id, &run_opts.clone().with_cascade(policy))
                    .expect("quantized execution")
            }
        };
        println!(
            "  profile {:>9}: accuracy {}",
            profile.label,
            pct(result.accuracy)
        );
        accuracy_per_profile.push((profile.label.clone(), result.accuracy));
    }
    let accuracy_of = |label: &str| -> f64 {
        accuracy_per_profile
            .iter()
            .find(|(l, _)| l == label)
            .map_or(0.0, |(_, a)| *a)
    };

    // Search both memory models against their shipped sweeps.
    let device = Device::zc702();
    let mut gates = Vec::new();
    let mut pareto_entries = Vec::new();
    let mut front_size = 0usize;
    let mut points_searched = 0usize;
    for (memory_name, memory, partitioned) in [
        ("naive", MemoryModel::naive(), false),
        ("partitioned", MemoryModel::partitioned(), true),
    ] {
        let target = VerifyTarget::from_topology("autotune", &topo, device.clone())
            .with_memory(memory)
            .exploratory();
        let mut tuner = Autotuner::new(Oracle::new(&target)).with_beam_width(beam_width);
        let mut points = tuner.search(&profiles);
        for p in &mut points {
            p.accuracy = Some(accuracy_of(&p.profile));
        }
        points_searched += points.len();
        let front = pareto_front(&points);
        front_size += front.len();

        let shipped = mp_bench::figures::sweep(partitioned);
        gates.push(gate(memory_name, &shipped, &front));

        let stats = tuner.stats();
        println!(
            "{memory_name}: {} points searched, {} on the front ({} infeasible, {} dominated partials pruned)",
            points.len(),
            front.len(),
            stats.infeasible,
            stats.pruned_dominated
        );
        pareto_entries.extend(front.iter().map(|p| entry(p, memory_name)));
    }

    let mut table = TextTable::new(&[
        "memory",
        "profile",
        "total PE",
        "modeled img/s",
        "BRAM_18K",
        "LUTs",
        "fits",
        "accuracy",
    ]);
    for e in &pareto_entries {
        table.row(&[
            e.memory.clone(),
            e.profile.clone(),
            e.total_pe.to_string(),
            format!("{:.0}", e.modeled_fps),
            e.bram_18k.to_string(),
            e.luts.to_string(),
            if e.fits_device {
                "yes".into()
            } else {
                "NO".into()
            },
            pct(e.accuracy),
        ]);
    }
    table.print("autotuned Pareto front (throughput / accuracy / BRAM / LUT)");

    for g in &gates {
        println!(
            "gate[{}]: {}/{} shipped configs dominated or matched — {}",
            g.memory,
            g.dominated_or_matched,
            g.shipped_configs,
            if g.passed { "pass" } else { "FAIL" }
        );
        for f in &g.failures {
            eprintln!("  {f}");
        }
    }

    let all_passed = gates.iter().all(|g| g.passed) && !pareto_entries.is_empty();
    let record = AutotuneRecord {
        seed: opts.seed,
        smoke: opts.smoke,
        beam_width,
        profiles: profiles.iter().map(|p| p.label.clone()).collect(),
        accuracy_per_profile,
        gates,
        front_size,
        points_searched,
        pareto: pareto_entries,
    };
    write_record("autotune_pareto", &record);

    if !all_passed {
        eprintln!("autotune: domination gate failed");
        std::process::exit(1);
    }
}
