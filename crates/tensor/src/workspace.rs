//! Reusable scratch buffers and thread-count configuration for batched
//! inference.
//!
//! The hot inference path lowers every convolution through
//! [`crate::conv::im2col_batch_into`] and a GEMM `_into` variant
//! (see [`crate::linalg`]). Those kernels write into caller-owned
//! `Vec<f32>` buffers; a [`Workspace`] pools such buffers so a layer can
//! borrow scratch space per image and hand it back, keeping steady-state
//! inference allocation-free. [`Parallelism`] says how many scoped worker
//! threads a batched operation may shard its rows across.

use serde::{Deserialize, Error, Serialize, Value};

/// A pool of reusable `f32` scratch buffers.
///
/// `take` hands out a buffer with at least the requested capacity
/// (contents unspecified — kernels writing into it are responsible for
/// initialisation); `put` returns it for reuse. One workspace serves one
/// thread: shards of a parallel batch each own their own `Workspace`.
///
/// # Example
///
/// ```
/// use mp_tensor::Workspace;
///
/// let mut ws = Workspace::new();
/// let mut buf = ws.take(128);
/// buf.clear();
/// buf.resize(128, 0.0);
/// ws.put(buf);
/// let again = ws.take(64); // reuses the first buffer's allocation
/// assert!(again.capacity() >= 128);
/// ```
#[derive(Debug, Default)]
pub struct Workspace {
    free: Vec<Vec<f32>>,
}

impl Workspace {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Borrows a buffer with capacity for at least `len` elements.
    ///
    /// The buffer's length and contents are unspecified; callers must
    /// `clear`/`resize` (the `_into` kernels in [`crate::linalg`] and
    /// [`crate::conv`] do this themselves). Prefers the pooled buffer
    /// with the largest capacity so allocations converge to the high-water
    /// mark of the workload.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        match self.free.pop() {
            Some(mut buf) => {
                buf.reserve(len.saturating_sub(buf.len()));
                buf
            }
            None => Vec::with_capacity(len),
        }
    }

    /// Returns a buffer to the pool for later reuse.
    pub fn put(&mut self, mut buf: Vec<f32>) {
        buf.clear();
        // Keep the pool sorted by capacity so `take` pops the largest.
        let at = self
            .free
            .partition_point(|b| b.capacity() <= buf.capacity());
        self.free.insert(at, buf);
    }

    /// Number of buffers currently pooled.
    pub fn pooled(&self) -> usize {
        self.free.len()
    }
}

/// How many threads a batched operation may shard its rows across.
///
/// `Parallelism` is plumbed from the pipeline down to
/// `Network::infer_batch_with` and `HardwareBnn::infer_batch_with`; both
/// produce bit-identical results at any thread count because batch rows
/// are computed independently with the same kernels, so the setting is a
/// pure throughput knob that never perturbs predictions or
/// fault-injection accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Parallelism {
    threads: usize,
}

/// Rejects `{"threads": 0}`: [`Parallelism::threads`] is at least 1.
impl<'de> Deserialize<'de> for Parallelism {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match usize::from_value(value.get_field("threads")?)? {
            0 => Err(Error::custom("Parallelism: threads must be at least 1")),
            threads => Ok(Self { threads }),
        }
    }
}

impl Parallelism {
    /// Single-threaded execution (the default).
    pub fn sequential() -> Self {
        Self { threads: 1 }
    }

    /// Exactly `threads` workers; zero is clamped to one.
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// One worker per hardware thread the OS reports.
    pub fn available() -> Self {
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        Self { threads }
    }

    /// Configured worker count (always at least 1).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// `true` when work should stay on the calling thread.
    pub fn is_sequential(&self) -> bool {
        self.threads == 1
    }

    /// Splits `items` work items into at most `threads` contiguous chunks
    /// of near-equal size, returned as `(start, end)` ranges. Never
    /// returns empty chunks; fewer chunks than threads when items run out.
    pub fn chunks(&self, items: usize) -> Vec<(usize, usize)> {
        let workers = self.threads.min(items).max(1);
        let base = items / workers;
        let extra = items % workers;
        let mut ranges = Vec::with_capacity(workers);
        let mut start = 0;
        for w in 0..workers {
            let len = base + usize::from(w < extra);
            if len == 0 {
                break;
            }
            ranges.push((start, start + len));
            start += len;
        }
        ranges
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Self::sequential()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_prefers_largest_pooled_buffer() {
        let mut ws = Workspace::new();
        ws.put(Vec::with_capacity(16));
        ws.put(Vec::with_capacity(256));
        ws.put(Vec::with_capacity(64));
        let buf = ws.take(8);
        assert!(buf.capacity() >= 256);
        assert_eq!(ws.pooled(), 2);
    }

    #[test]
    fn take_grows_when_pool_is_small() {
        let mut ws = Workspace::new();
        ws.put(Vec::with_capacity(4));
        let buf = ws.take(100);
        assert!(buf.capacity() >= 100);
    }

    #[test]
    fn chunks_cover_range_without_gaps() {
        for threads in 1..6 {
            for items in 0..20 {
                let par = Parallelism::new(threads);
                let chunks = par.chunks(items);
                let mut expect = 0;
                for &(s, e) in &chunks {
                    assert_eq!(s, expect);
                    assert!(e > s, "empty chunk");
                    expect = e;
                }
                assert_eq!(expect, items);
                assert!(chunks.len() <= threads);
            }
        }
    }

    #[test]
    fn deserialize_rejects_zero_workers_and_round_trips() {
        let zero = serde_json::from_str::<Parallelism>(r#"{"threads":0}"#);
        assert!(zero.is_err(), "{zero:?}");
        let par = Parallelism::new(3);
        let json = serde_json::to_string(&par).unwrap();
        assert_eq!(json, r#"{"threads":3}"#);
        assert_eq!(serde_json::from_str::<Parallelism>(&json).unwrap(), par);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(Parallelism::new(0).threads(), 1);
        assert!(Parallelism::sequential().is_sequential());
        assert!(Parallelism::available().threads() >= 1);
    }
}
