//! The stable metric schema: span/counter/histogram names and bucket
//! edges are part of the repository's external contract (dashboards and
//! the CI golden-schema test key on them). Renaming anything here is a
//! breaking change and must bump [`SCHEMA_VERSION`].

use crate::report::ObsReport;

/// Version stamped into every [`ObsReport`].
pub const SCHEMA_VERSION: u32 = 1;

/// Span: one whole `MultiPrecisionPipeline::execute` call.
pub const SPAN_PIPELINE_EXECUTE: &str = "pipeline.execute";
/// Span: the BNN + DMU classification stage (batched executor).
pub const SPAN_PIPELINE_BNN_STAGE: &str = "pipeline.bnn_stage";
/// Span: one BNN inference block in the overlapped threaded executor
/// (pure compute — host-queue backpressure waits are excluded and land
/// in [`HIST_BACKPRESSURE_WAIT_S`] instead).
pub const SPAN_PIPELINE_BNN_BLOCK: &str = "pipeline.bnn_block";
/// Span: one host re-inference batch (deferred flush of flagged images).
pub const SPAN_PIPELINE_HOST_RERUN: &str = "pipeline.host_rerun";
/// Span-name prefix for per-stage BNN timing: `bnn.stage<i>.<kind>`
/// where `<kind>` is one of `first_conv`, `bin_conv`, `bin_fc`,
/// `output_fc`, one span per image each.
pub const SPAN_BNN_STAGE_PREFIX: &str = "bnn.stage";
/// Span-name prefix for per-layer host timing: `host.layer<i>.<name>`.
pub const SPAN_HOST_LAYER_PREFIX: &str = "host.layer";
/// Span: one image's virtual-time passage through a `StreamSim` stage
/// (`stream.stage<i>`); timestamps are virtual nanoseconds.
pub const SPAN_STREAM_STAGE_PREFIX: &str = "stream.stage";
/// Span: one dispatched serving batch, admission to completion;
/// timestamps are virtual nanoseconds (the serving clock).
pub const SPAN_SERVE_BATCH: &str = "serve.batch";
/// Span: one dispatched fleet batch on some replica, dispatch to
/// completion; timestamps are virtual nanoseconds (the fleet clock).
pub const SPAN_FLEET_BATCH: &str = "fleet.batch";
/// Span-name prefix for per-stage quantized-path timing:
/// `quant.stage<i>.<kind>` where `<kind>` is one of `first_conv`,
/// `conv`, `fc`, `output`.
pub const SPAN_QUANT_STAGE_PREFIX: &str = "quant.stage";
/// Span-name prefix for per-stage cascade timing: `cascade.stage<i>`
/// (see [`cascade_stage_span`]) — the wall time one cascade stage spent
/// scoring its entering subset.
pub const SPAN_CASCADE_STAGE_PREFIX: &str = "cascade.stage";

/// Counter: images classified by the pipeline.
pub const CTR_IMAGES: &str = "pipeline.images";
/// Counter: images the DMU flagged for host re-inference.
pub const CTR_FLAGGED: &str = "pipeline.flagged";
/// Counter: flagged images successfully re-inferred on the host.
pub const CTR_RERUN_OK: &str = "pipeline.rerun_ok";
/// Counter: flagged images degraded to their BNN prediction.
pub const CTR_DEGRADED: &str = "pipeline.degraded";
/// Counter: host retries performed under the degradation policy.
pub const CTR_RETRIES: &str = "pipeline.retries";
/// Counter: circuit-breaker trips into BNN-only mode.
pub const CTR_BREAKER_TRIPS: &str = "pipeline.breaker_trips";
/// Counter: producer sends that found the bounded channel full.
pub const CTR_BACKPRESSURE: &str = "pipeline.backpressure";
/// Counter: host inference attempts (first tries, retries, probes).
pub const CTR_HOST_ATTEMPTS: &str = "pipeline.host_attempts";
/// Counter: images replayed through the stream simulator.
pub const CTR_STREAM_IMAGES: &str = "stream.images";
/// Counter: requests offered to the serving front-end (accepted + shed).
pub const CTR_SERVE_REQUESTS: &str = "serve.requests";
/// Counter: requests shed by admission-queue backpressure.
pub const CTR_SERVE_SHED: &str = "serve.shed";
/// Counter: batches dispatched by the dynamic batcher.
pub const CTR_SERVE_BATCHES: &str = "serve.batches";
/// Counter: requests offered to the fleet router.
pub const CTR_FLEET_REQUESTS: &str = "fleet.requests";
/// Counter: requests served with exactly one prediction.
pub const CTR_FLEET_SERVED: &str = "fleet.served";
/// Counter: requests shed explicitly (admission or replica death with
/// no healthy capacity left).
pub const CTR_FLEET_SHED: &str = "fleet.shed";
/// Counter: requests re-routed off a dead replica onto a healthy one.
pub const CTR_FLEET_REDIRECTED: &str = "fleet.redirected";
/// Counter: hedge copies issued for requests stuck past the deadline.
pub const CTR_FLEET_HEDGES: &str = "fleet.hedges";
/// Counter: hedged requests whose hedge copy completed first.
pub const CTR_FLEET_HEDGE_WINS: &str = "fleet.hedge_wins";
/// Counter: per-replica circuit breakers tripping open.
pub const CTR_FLEET_BREAKER_OPENS: &str = "fleet.breaker_opens";
/// Counter: per-replica circuit breakers closing after a probe.
pub const CTR_FLEET_BREAKER_CLOSES: &str = "fleet.breaker_closes";
/// Counter: replica crash events.
pub const CTR_FLEET_CRASHES: &str = "fleet.crashes";
/// Counter: replica recovery events.
pub const CTR_FLEET_RECOVERIES: &str = "fleet.recoveries";
/// Counter-name prefix for per-replica accounting:
/// `fleet.replica<i>.served` / `fleet.replica<i>.redirected`.
pub const CTR_FLEET_REPLICA_PREFIX: &str = "fleet.replica";
/// Counter-name prefix for per-stage cascade traffic:
/// `cascade.stage<i>.entered` / `cascade.stage<i>.accepted` (see
/// [`cascade_entered_counter`] / [`cascade_accepted_counter`]). Every
/// pipeline run reports these — the legacy threshold path is the
/// 2-stage instance.
pub const CTR_CASCADE_STAGE_PREFIX: &str = "cascade.stage";
/// Counter: images classified by the quantized integer path.
pub const CTR_QUANT_IMAGES: &str = "quant.images";
/// Counter: binary plane-MACs executed by the quantized integer path
/// (each engine's MACs times its shift-add decomposition width).
pub const CTR_QUANT_PLANE_MACS: &str = "quant.plane_macs";

/// Histogram: per-image BNN inference latency (threaded executor). The
/// overlapped executor infers whole blocks, so each image of a block
/// observes the block's amortised per-image latency (block wall time
/// divided by block size) — the histogram count stays one entry per
/// image.
pub const HIST_BNN_IMAGE_S: &str = "pipeline.bnn_image_s";
/// Histogram: host re-inference latency per deferred batch.
pub const HIST_HOST_BATCH_S: &str = "pipeline.host_batch_s";
/// Histogram: virtual backoff charged per recovered/degraded image.
pub const HIST_BACKOFF_S: &str = "pipeline.backoff_s";
/// Histogram: bounded-channel occupancy observed at each producer send.
pub const HIST_QUEUE_DEPTH: &str = "pipeline.queue_depth";
/// Histogram: producer wall time spent blocked on a full host queue
/// (one entry per backpressure stall, matching [`CTR_BACKPRESSURE`]),
/// so host-queue waits are attributed to backpressure rather than
/// silently inflating BNN stage time.
pub const HIST_BACKPRESSURE_WAIT_S: &str = "pipeline.backpressure_wait_s";
/// Histogram: per-image virtual latency through the stream simulator.
pub const HIST_STREAM_LATENCY_S: &str = "stream.latency_s";
/// Histogram: per-request virtual wait in the admission queue.
pub const HIST_SERVE_QUEUE_WAIT_S: &str = "serve.queue_wait_s";
/// Histogram: per-request virtual end-to-end latency (wait + service).
pub const HIST_SERVE_LATENCY_S: &str = "serve.latency_s";
/// Histogram: dispatched batch sizes.
pub const HIST_SERVE_BATCH_SIZE: &str = "serve.batch_size";
/// Histogram: per-request virtual wait in a replica's admission queue.
pub const HIST_FLEET_QUEUE_WAIT_S: &str = "fleet.queue_wait_s";
/// Histogram: per-request virtual end-to-end latency across the fleet
/// (arrival to winning completion).
pub const HIST_FLEET_LATENCY_S: &str = "fleet.latency_s";
/// Histogram: dispatched fleet batch sizes.
pub const HIST_FLEET_BATCH_SIZE: &str = "fleet.batch_size";

/// Bucket edges for latency histograms (names ending in `_s`), in
/// seconds. Buckets are `value <= edge`, plus one overflow bucket.
pub const LATENCY_BUCKET_EDGES_S: [f64; 12] = [
    1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.25, 1.0, 5.0, 30.0,
];

/// Bucket edges for count-valued histograms (queue depths etc.).
pub const COUNT_BUCKET_EDGES: [f64; 9] = [0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];

/// The span name of cascade stage `index`: `cascade.stage<i>`. One
/// helper shared by the executor, benches and tests so the identifiers
/// can never drift apart.
pub fn cascade_stage_span(index: usize) -> String {
    format!("{SPAN_CASCADE_STAGE_PREFIX}{index}")
}

/// The entered-traffic counter of cascade stage `index`:
/// `cascade.stage<i>.entered`.
pub fn cascade_entered_counter(index: usize) -> String {
    format!("{CTR_CASCADE_STAGE_PREFIX}{index}.entered")
}

/// The accepted-traffic counter of cascade stage `index`:
/// `cascade.stage<i>.accepted`.
pub fn cascade_accepted_counter(index: usize) -> String {
    format!("{CTR_CASCADE_STAGE_PREFIX}{index}.accepted")
}

/// The bucket edges a histogram name maps to: the `_s` suffix marks a
/// latency in seconds, everything else is a count.
pub fn bucket_edges(name: &str) -> &'static [f64] {
    if name.ends_with("_s") {
        &LATENCY_BUCKET_EDGES_S
    } else {
        &COUNT_BUCKET_EDGES
    }
}

/// Whether `name` is well-formed for the schema: non-empty ASCII built
/// from alphanumerics, `.`, `_` and `-`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
}

/// Validates a report against the schema: version match, well-formed
/// sorted unique names, and histogram invariants (edges derived from the
/// name, `edges + 1` buckets, bucket counts summing to the total).
///
/// # Errors
///
/// Returns a human-readable description of the first violation.
pub fn validate_report(report: &ObsReport) -> Result<(), String> {
    if report.schema_version != SCHEMA_VERSION {
        return Err(format!(
            "schema_version {} != expected {SCHEMA_VERSION}",
            report.schema_version
        ));
    }
    check_names("span", report.spans.iter().map(|s| s.name.as_str()))?;
    check_names("counter", report.counters.iter().map(|c| c.name.as_str()))?;
    check_names(
        "histogram",
        report.histograms.iter().map(|h| h.name.as_str()),
    )?;
    for h in &report.histograms {
        let edges = bucket_edges(&h.name);
        if h.bucket_edges != edges {
            return Err(format!("histogram {}: bucket edges drifted", h.name));
        }
        if h.bucket_counts.len() != edges.len() + 1 {
            return Err(format!(
                "histogram {}: {} buckets for {} edges",
                h.name,
                h.bucket_counts.len(),
                edges.len()
            ));
        }
        if h.bucket_counts.iter().sum::<u64>() != h.count {
            return Err(format!("histogram {}: bucket counts != count", h.name));
        }
    }
    for s in &report.spans {
        if s.count == 0 || s.min_s > s.max_s || s.total_s < s.max_s - 1e-12 {
            return Err(format!("span {}: inconsistent aggregate", s.name));
        }
    }
    Ok(())
}

fn check_names<'a>(kind: &str, names: impl Iterator<Item = &'a str>) -> Result<(), String> {
    let mut prev: Option<&str> = None;
    for name in names {
        if !valid_name(name) {
            return Err(format!("{kind} name {name:?} is not well-formed"));
        }
        if let Some(p) = prev {
            if p >= name {
                return Err(format!("{kind} names not sorted/unique at {name:?}"));
            }
        }
        prev = Some(name);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Recorder, SharedRecorder};

    #[test]
    fn edges_selected_by_suffix() {
        assert_eq!(
            bucket_edges("pipeline.bnn_image_s"),
            &LATENCY_BUCKET_EDGES_S
        );
        assert_eq!(bucket_edges("pipeline.queue_depth"), &COUNT_BUCKET_EDGES);
    }

    #[test]
    fn names_validate() {
        assert!(valid_name("pipeline.bnn_image_s"));
        assert!(valid_name("bnn.stage0.first_conv"));
        assert!(!valid_name(""));
        assert!(!valid_name("has space"));
    }

    #[test]
    fn cascade_helpers_pin_the_naming_scheme() {
        assert_eq!(cascade_stage_span(0), "cascade.stage0");
        assert_eq!(cascade_entered_counter(2), "cascade.stage2.entered");
        assert_eq!(cascade_accepted_counter(2), "cascade.stage2.accepted");
        for name in [
            cascade_stage_span(3),
            cascade_entered_counter(3),
            cascade_accepted_counter(3),
        ] {
            assert!(valid_name(&name), "{name}");
            assert!(name.starts_with(SPAN_CASCADE_STAGE_PREFIX));
        }
    }

    #[test]
    fn fresh_report_validates() {
        let rec = SharedRecorder::new();
        rec.record_span("a.b", 0, 10);
        rec.add("c.d", 2);
        rec.observe("e.f_s", 0.01);
        rec.observe("e.depth", 3.0);
        validate_report(&rec.report()).unwrap();
    }

    #[test]
    fn version_drift_is_caught() {
        let rec = SharedRecorder::new();
        let mut r = rec.report();
        r.schema_version += 1;
        assert!(validate_report(&r).is_err());
    }

    #[test]
    fn edge_drift_is_caught() {
        let rec = SharedRecorder::new();
        rec.observe("x_s", 0.5);
        let mut r = rec.report();
        r.histograms[0].bucket_edges[0] *= 2.0;
        assert!(validate_report(&r).is_err());
    }
}
