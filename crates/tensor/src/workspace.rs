//! Reusable scratch buffers and thread-count configuration for batched
//! inference.
//!
//! Host inference walks one image at a time through every layer. A
//! convolution on a channel-lane tier copies the image into a zero-padded
//! buffer and runs [`crate::simd::FloatConv`] straight into the image's
//! slice of the output; elsewhere it lowers the image with
//! [`crate::conv::im2col_slice_into`] into a patch buffer and multiplies
//! it with [`crate::linalg::gemm`]. Every layer's output and every such
//! padded or patch buffer is a `Vec<f32>` drawn from a
//! [`Workspace`], which pools them: a layer borrows a buffer, the next
//! layer hands its input back, and after the first image the pool holds
//! the whole working set, so steady-state inference allocates no
//! activation memory. [`Parallelism`] says how many scoped worker
//! threads a batched operation may shard its images across, and
//! [`Parallelism::map_images`] is the one place that shards them.

use serde::{Deserialize, Error, Serialize, Value};

use crate::ShapeError;

/// A pool of reusable `f32` scratch buffers.
///
/// `take` hands out a buffer with at least the requested capacity;
/// `put` returns it for reuse. A buffer comes back as its last user left
/// it, length and contents included, so whoever takes one clears or
/// overwrites it first (the `_into` kernels in [`crate::linalg`] and
/// [`crate::conv`] clear it themselves). One workspace serves one
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
/// let mut again = ws.take(64); // reuses the first buffer's allocation
/// assert!(again.capacity() >= 128);
/// again.clear(); // it still holds the 128 zeros put back above
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
    /// The buffer's length and contents are whatever its last user left;
    /// callers must `clear`/`resize` it (the `_into` kernels in
    /// [`crate::linalg`] and [`crate::conv`] do this themselves). Hands
    /// out the smallest pooled buffer that holds `len`, so a small
    /// request never ties up the buffer a large one needs. When none
    /// holds `len`, the largest is emptied and grown to exactly `len`:
    /// the pool never holds more buffers than were ever in use at once,
    /// nor one larger than the largest request.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        let fits = self.free.partition_point(|b| b.capacity() < len);
        if fits < self.free.len() {
            return self.free.remove(fits);
        }
        match self.free.pop() {
            Some(mut buf) => {
                buf.clear();
                buf.reserve_exact(len);
                buf
            }
            None => Vec::with_capacity(len),
        }
    }

    /// Returns a buffer to the pool for later reuse, as it is.
    pub fn put(&mut self, buf: Vec<f32>) {
        // Keep the pool sorted by capacity for `take`'s search.
        let at = self
            .free
            .partition_point(|b| b.capacity() <= buf.capacity());
        self.free.insert(at, buf);
    }

    /// Number of buffers currently pooled.
    pub fn pooled(&self) -> usize {
        self.free.len()
    }

    /// Capacities of the pooled buffers, smallest first.
    pub fn capacities(&self) -> impl Iterator<Item = usize> + '_ {
        self.free.iter().map(Vec::capacity)
    }
}

/// How many threads a batched operation may shard its images across.
///
/// `Parallelism` is plumbed from the pipeline down to
/// `Network::infer_batch_with`, `HardwareBnn::infer_batch_with` and
/// `QuantBnn::infer_batch_obs`, which all shard through
/// [`Parallelism::map_images`]. Each produces bit-identical results at
/// any thread count because images are computed independently with the
/// same kernels, so the setting is a pure throughput knob that never
/// perturbs predictions or fault-injection accounting.
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

    /// Runs `image` on each of the `n` images of `batch` (`n` equal runs
    /// of `f32`s) and returns their outputs, `out_len` per image, in
    /// image order: the one scoped-thread shard runner.
    ///
    /// The images are split into [`Self::chunks`]`(n)`. Each chunk gets
    /// one `S::default()` scratch, reused across its images, and each
    /// image writes into its own `out_len` slice of one output
    /// allocated up front. The first chunk runs on the calling thread
    /// and each other chunk on a scoped thread of its own, so a call
    /// spawns one thread fewer than it has chunks (none for one chunk)
    /// and no thread sits idle in `join`. A chunk stops at its first
    /// error; the first error in chunk order is returned once every
    /// chunk has finished. A chunk that panics re-raises its own payload
    /// on the caller. With `n = 0` the output is empty and `image` is
    /// never called.
    ///
    /// # Errors
    ///
    /// Returns the first error `image` returns, in chunk order.
    #[allow(clippy::disallowed_methods)] // the one shard runner: every engine calls it
    pub fn map_images<S: Default>(
        &self,
        batch: &[f32],
        n: usize,
        out_len: usize,
        image: impl Fn(&[f32], &mut S, &mut [f32]) -> Result<(), ShapeError> + Sync,
    ) -> Result<Vec<f32>, ShapeError> {
        let chunks = self.chunks(n);
        let Some((&first, rest)) = chunks.split_first() else {
            return Ok(Vec::new());
        };
        let in_len = batch.len() / n;
        let shard = |(start, end): (usize, usize), out: &mut [f32]| {
            let mut scratch = S::default();
            for (at, i) in (start..end).enumerate() {
                let out = &mut out[at * out_len..][..out_len];
                image(&batch[i * in_len..][..in_len], &mut scratch, out)?;
            }
            Ok(())
        };
        let shard = &shard;
        let mut data = vec![0.0; n * out_len];
        let (out, mut tail) = data.split_at_mut((first.1 - first.0) * out_len);
        std::thread::scope(|scope| {
            let spawned: Vec<_> = rest
                .iter()
                .map(|&(start, end)| {
                    let (out, more) =
                        std::mem::take(&mut tail).split_at_mut((end - start) * out_len);
                    tail = more;
                    scope.spawn(move || shard((start, end), out))
                })
                .collect();
            spawned
                .into_iter()
                .fold(shard(first, out), |result, handle| {
                    let part = handle
                        .join()
                        .unwrap_or_else(|p| std::panic::resume_unwind(p));
                    result.and(part)
                })
        })?;
        Ok(data)
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
    fn take_picks_the_smallest_pooled_buffer_that_fits() {
        let mut ws = Workspace::new();
        ws.put(Vec::with_capacity(16));
        ws.put(Vec::with_capacity(256));
        ws.put(Vec::with_capacity(64));
        assert_eq!(ws.take(8).capacity(), 16);
        assert_eq!(ws.take(17).capacity(), 64);
        assert_eq!(ws.pooled(), 1);
        // None fits: the largest grows to exactly the request.
        assert_eq!(ws.take(300).capacity(), 300);
        assert_eq!(ws.pooled(), 0);
    }

    #[test]
    fn take_grows_when_pool_is_small() {
        let mut ws = Workspace::new();
        ws.put(Vec::with_capacity(4));
        let buf = ws.take(100);
        assert!(buf.capacity() >= 100);
    }

    #[test]
    fn buffers_come_back_as_they_were_put_until_they_must_grow() {
        let mut ws = Workspace::new();
        let mut buf = ws.take(3);
        buf.extend_from_slice(&[1.0, 2.0, 3.0]);
        ws.put(buf);
        assert_eq!(ws.capacities().collect::<Vec<_>>(), vec![3]);
        // Fits: handed back untouched, stale contents included.
        let buf = ws.take(2);
        assert_eq!(buf, [1.0, 2.0, 3.0]);
        ws.put(buf);
        // Too small: emptied and grown to exactly the request.
        let buf = ws.take(1000);
        assert!(buf.is_empty());
        assert_eq!(buf.capacity(), 1000);
        ws.put(buf);
        ws.put(Vec::with_capacity(10));
        assert_eq!(ws.capacities().collect::<Vec<_>>(), vec![10, 1000]);
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

    /// `n` one-float images holding their own index.
    fn indexed(n: usize) -> Vec<f32> {
        (0..n).map(|i| i as f32).collect()
    }

    #[test]
    fn map_images_fills_each_images_slice_in_image_order() {
        for threads in 1..6 {
            let par = Parallelism::new(threads);
            for n in 0..14 {
                // Three floats per image in, two out: `[first, last]`.
                let batch: Vec<f32> = (0..n * 3).map(|i| i as f32).collect();
                let got = par
                    .map_images(&batch, n, 2, |x, _: &mut (), out| {
                        out.copy_from_slice(&[x[0], x[2]]);
                        Ok(())
                    })
                    .unwrap();
                let want: Vec<f32> = (0..n)
                    .flat_map(|i| [3 * i, 3 * i + 2])
                    .map(|v| v as f32)
                    .collect();
                assert_eq!(got, want, "threads {threads} images {n}");
            }
        }
        let empty = Parallelism::new(3).map_images(&[], 0, 4, |_, _: &mut (), _| unreachable!());
        assert_eq!(empty.unwrap(), Vec::<f32>::new());
    }

    #[test]
    fn map_images_makes_one_scratch_per_shard_and_reuses_it() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static MADE: AtomicUsize = AtomicUsize::new(0);
        /// Scratch that numbers itself and counts the images it served.
        struct Counted {
            id: usize,
            served: usize,
        }
        impl Default for Counted {
            fn default() -> Self {
                let id = MADE.fetch_add(1, Ordering::SeqCst);
                Self { id, served: 0 }
            }
        }
        for threads in 1..6 {
            let par = Parallelism::new(threads);
            for n in 0..14 {
                let before = MADE.load(Ordering::SeqCst);
                let got = par
                    .map_images(&indexed(n), n, 2, |_, s: &mut Counted, out| {
                        out.copy_from_slice(&[s.id as f32, s.served as f32]);
                        s.served += 1;
                        Ok(())
                    })
                    .unwrap();
                let chunks = par.chunks(n);
                assert_eq!(MADE.load(Ordering::SeqCst) - before, chunks.len());
                let mut ids: Vec<f32> = Vec::new();
                for (start, end) in chunks {
                    let id = got[2 * start];
                    for (k, i) in (start..end).enumerate() {
                        assert_eq!(got[2 * i..2 * i + 2], [id, k as f32], "image {i}");
                    }
                    assert!(!ids.contains(&id), "a scratch served two shards");
                    ids.push(id);
                }
            }
        }
    }

    #[test]
    fn map_images_runs_exactly_one_chunk_on_the_caller() {
        let caller = std::thread::current().id();
        for threads in 1..6 {
            let par = Parallelism::new(threads);
            let on_caller = par
                .map_images(&indexed(12), 12, 1, |_, _: &mut (), out| {
                    out[0] = f32::from(u8::from(std::thread::current().id() == caller));
                    Ok(())
                })
                .unwrap();
            let first = par.chunks(12)[0].1;
            let want: Vec<f32> = (0..12).map(|i| f32::from(u8::from(i < first))).collect();
            assert_eq!(on_caller, want, "threads {threads}");
        }
    }

    #[test]
    fn map_images_returns_the_first_error_in_chunk_order() {
        // 9 images on 3 threads: chunks 0..3 (the caller's), 3..6, 6..9.
        let first_error = |bad: &[usize]| {
            let err = Parallelism::new(3)
                .map_images(&indexed(9), 9, 1, |x, _: &mut (), _| {
                    let i = x[0] as usize;
                    if bad.contains(&i) {
                        return Err(ShapeError::new("image", format!("{i}")));
                    }
                    Ok(())
                })
                .unwrap_err();
            err.to_string()
        };
        assert!(first_error(&[7, 4]).ends_with('4'), "spawned chunks");
        assert!(first_error(&[8, 1]).ends_with('1'), "the caller's chunk");
        assert!(first_error(&[5, 3]).ends_with('3'), "the first in a chunk");
    }

    #[test]
    fn map_images_re_raises_a_shards_own_panic() {
        /// The payload of `map_images` over 9 images on 3 threads when
        /// image `bad` panics.
        fn payload_when_image_panics(bad: usize) -> String {
            let caught = std::panic::catch_unwind(|| {
                Parallelism::new(3).map_images(&indexed(9), 9, 1, |x, _: &mut (), _| {
                    if x[0] as usize == bad {
                        std::panic::panic_any(format!("image {bad}"));
                    }
                    Ok(())
                })
            });
            let payload = caught.expect_err("the panic reaches the caller");
            *payload.downcast::<String>().expect("the original payload")
        }
        assert_eq!(payload_when_image_panics(1), "image 1", "caller's shard");
        assert_eq!(payload_when_image_panics(7), "image 7", "spawned shard");
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
        assert_eq!(Parallelism::sequential().threads(), 1);
        assert!(Parallelism::available().threads() >= 1);
    }
}
