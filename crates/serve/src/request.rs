//! Requests and the trace validator both serving front-ends share.

use std::collections::HashSet;

use serde::Serialize;

use crate::ServeError;

/// One inference request: an image (an index into the server's backing
/// [`Dataset`](mp_dataset::Dataset)) plus its deterministic virtual
/// arrival time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Request {
    /// Caller-chosen identifier, echoed in the report.
    pub id: u64,
    /// Index of the request's image in the server's image store.
    pub image: usize,
    /// Virtual arrival time in seconds (non-negative, finite; traces
    /// must be sorted by this field).
    pub arrival_s: f64,
}

impl Request {
    /// Creates a request.
    pub fn new(id: u64, image: usize, arrival_s: f64) -> Self {
        Self {
            id,
            image,
            arrival_s,
        }
    }
}

/// Checks an open-loop request trace against an image store of
/// `store_len` images: arrivals finite, non-negative and sorted
/// non-decreasing (ties allowed), every image in the store, and every id
/// unique, so that a report can split the offered ids into served and
/// shed.
///
/// # Errors
///
/// Returns [`ServeError::Trace`] naming the first offending request.
pub fn validate_trace(trace: &[Request], store_len: usize) -> Result<(), ServeError> {
    let mut prev = 0.0f64;
    let mut ids = HashSet::with_capacity(trace.len());
    for r in trace {
        if !r.arrival_s.is_finite() || r.arrival_s < 0.0 {
            return Err(ServeError::Trace(format!(
                "request {} arrival {} must be finite and non-negative",
                r.id, r.arrival_s
            )));
        }
        if r.arrival_s < prev {
            return Err(ServeError::Trace(format!(
                "request {} arrives at {} after a request at {} (trace \
                 must be sorted by arrival)",
                r.id, r.arrival_s, prev
            )));
        }
        if r.image >= store_len {
            return Err(ServeError::Trace(format!(
                "request {} image index {} out of bounds for a store of {store_len}",
                r.id, r.image
            )));
        }
        if !ids.insert(r.id) {
            return Err(ServeError::Trace(format!("duplicate request id {}", r.id)));
        }
        prev = r.arrival_s;
    }
    Ok(())
}
