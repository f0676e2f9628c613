//! Per-request and per-batch accounting of one serve run.

use serde::Serialize;

/// One served request's full timeline and outcome.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Completion {
    /// The request's caller-chosen id.
    pub id: u64,
    /// Index of the image in the server's store.
    pub image: usize,
    /// Final class prediction (bit-identical to a dataset-mode run).
    pub prediction: usize,
    /// Virtual arrival time, seconds.
    pub arrival_s: f64,
    /// Virtual time the request's batch was dispatched.
    pub dispatch_s: f64,
    /// Virtual time the request's batch completed.
    pub completion_s: f64,
}

impl Completion {
    /// Time spent waiting in the admission queue.
    pub fn queue_wait_s(&self) -> f64 {
        self.dispatch_s - self.arrival_s
    }

    /// End-to-end latency: queue wait plus batch service.
    pub fn latency_s(&self) -> f64 {
        self.completion_s - self.arrival_s
    }
}

/// One dispatched batch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct BatchRecord {
    /// Virtual dispatch time, seconds.
    pub dispatch_s: f64,
    /// Virtual completion time, seconds.
    pub completion_s: f64,
    /// Requests in the batch (`1..=max_batch`).
    pub size: usize,
    /// Images the DMU flagged and the host re-inferred in this batch.
    pub rerun_count: usize,
    /// Flagged images that degraded to their BNN prediction.
    pub degraded_count: usize,
}

/// Everything one [`serve`](crate::BatchServer::serve) call produced.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServeReport {
    /// Served requests in completion order (batch by batch, FIFO within
    /// a batch).
    pub completions: Vec<Completion>,
    /// Ids of requests shed by admission backpressure, in arrival order.
    pub shed: Vec<u64>,
    /// Dispatched batches in order.
    pub batches: Vec<BatchRecord>,
}

impl ServeReport {
    /// Number of requests served to completion.
    pub fn served(&self) -> usize {
        self.completions.len()
    }

    /// Number of requests offered (served + shed).
    pub fn offered(&self) -> usize {
        self.completions.len() + self.shed.len()
    }

    /// Fraction of offered requests that were shed.
    pub fn shed_rate(&self) -> f64 {
        self.shed.len() as f64 / self.offered().max(1) as f64
    }

    /// Virtual time of the last batch completion (0 when nothing ran).
    pub fn makespan_s(&self) -> f64 {
        self.batches.last().map_or(0.0, |b| b.completion_s)
    }

    /// Served requests per virtual second.
    pub fn throughput_rps(&self) -> f64 {
        self.served() as f64 / self.makespan_s().max(f64::MIN_POSITIVE)
    }

    /// Mean dispatched batch size (0 when nothing ran).
    pub fn mean_batch_size(&self) -> f64 {
        let total: usize = self.batches.iter().map(|b| b.size).sum();
        total as f64 / self.batches.len().max(1) as f64
    }

    /// Nearest-rank latency percentile (`p` in `(0, 100]`), or `None`
    /// when nothing was served or `p` is out of range. Shared
    /// implementation: [`mp_core::stats::nearest_rank_percentile`].
    pub fn percentile_latency_s(&self, p: f64) -> Option<f64> {
        let latencies: Vec<f64> = self.completions.iter().map(|c| c.latency_s()).collect();
        mp_core::stats::nearest_rank_percentile(&latencies, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with_latencies(lat: &[f64]) -> ServeReport {
        ServeReport {
            completions: lat
                .iter()
                .enumerate()
                .map(|(i, &l)| Completion {
                    id: i as u64,
                    image: i,
                    prediction: 0,
                    arrival_s: 0.0,
                    dispatch_s: 0.0,
                    completion_s: l,
                })
                .collect(),
            shed: vec![],
            batches: vec![],
        }
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let r = report_with_latencies(&[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]);
        assert_eq!(r.percentile_latency_s(50.0), Some(0.5));
        assert_eq!(r.percentile_latency_s(95.0), Some(1.0));
        assert_eq!(r.percentile_latency_s(99.0), Some(1.0));
        assert_eq!(r.percentile_latency_s(10.0), Some(0.1));
        assert_eq!(report_with_latencies(&[]).percentile_latency_s(50.0), None);
    }

    #[test]
    fn rates_handle_empty_reports() {
        let empty = ServeReport {
            completions: vec![],
            shed: vec![],
            batches: vec![],
        };
        assert_eq!(empty.shed_rate(), 0.0);
        assert_eq!(empty.makespan_s(), 0.0);
        assert_eq!(empty.throughput_rps(), 0.0);
        assert_eq!(empty.mean_batch_size(), 0.0);
    }
}
