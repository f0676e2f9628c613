use std::error::Error;
use std::fmt;

use mp_dataset::DatasetError;
use mp_tensor::ShapeError;

/// A boxed error source that can cross thread boundaries (the pipeline
/// joins errors produced on the host worker thread).
pub type ErrorSource = Box<dyn Error + Send + Sync + 'static>;

/// Errors raised by the multi-precision experiments.
#[derive(Debug)]
pub enum CoreError {
    /// A tensor shape inconsistency bubbled up from a substrate crate.
    Shape(ShapeError),
    /// The dataset could not be generated or loaded.
    Dataset(DatasetError),
    /// Experiment configuration was invalid.
    InvalidConfig(String),
    /// The host (high-precision) side failed; the source is preserved.
    Host(ErrorSource),
    /// The FPGA (low-precision) side failed; the source is preserved.
    Fpga(ErrorSource),
    /// A per-image host deadline expired.
    Timeout {
        /// Index of the image whose re-inference timed out.
        image: usize,
        /// The deadline that was exceeded, in seconds.
        deadline_s: f64,
    },
    /// The host stage died: a planned death, or a panic of the threaded
    /// executor's worker thread. Recoverable faults never surface this
    /// to `execute` callers — every image the stage did not deliver
    /// falls back instead — but it is the typed form recorded in the
    /// fault log and returned by lower-level helpers.
    HostWorker(String),
}

impl CoreError {
    /// Wraps a host-side failure, preserving the source.
    pub fn host(source: impl Error + Send + Sync + 'static) -> Self {
        CoreError::Host(Box::new(source))
    }

    /// Wraps an FPGA-side failure, preserving the source.
    pub fn fpga(source: impl Error + Send + Sync + 'static) -> Self {
        CoreError::Fpga(Box::new(source))
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Shape(e) => write!(f, "{e}"),
            CoreError::Dataset(e) => write!(f, "{e}"),
            CoreError::InvalidConfig(msg) => write!(f, "invalid experiment config: {msg}"),
            CoreError::Host(e) => write!(f, "host inference failed: {e}"),
            CoreError::Fpga(e) => write!(f, "fpga inference failed: {e}"),
            CoreError::Timeout { image, deadline_s } => {
                write!(
                    f,
                    "host re-inference of image {image} exceeded {deadline_s}s deadline"
                )
            }
            CoreError::HostWorker(detail) => write!(f, "host worker died: {detail}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Shape(e) => Some(e),
            CoreError::Dataset(e) => Some(e),
            CoreError::Host(e) | CoreError::Fpga(e) => Some(e.as_ref()),
            CoreError::InvalidConfig(_) | CoreError::Timeout { .. } | CoreError::HostWorker(_) => {
                None
            }
        }
    }
}

impl From<ShapeError> for CoreError {
    fn from(e: ShapeError) -> Self {
        CoreError::Shape(e)
    }
}

impl From<DatasetError> for CoreError {
    fn from(e: DatasetError) -> Self {
        CoreError::Dataset(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let s: CoreError = ShapeError::new("op", "detail").into();
        assert!(s.to_string().contains("op"));
        assert!(s.source().is_some());
        let c = CoreError::InvalidConfig("bad".into());
        assert!(c.to_string().contains("bad"));
        assert!(c.source().is_none());
    }

    #[test]
    fn fault_variants_display_and_preserve_sources() {
        let h = CoreError::host(ShapeError::new("forward", "bad shape"));
        assert!(h.to_string().contains("host inference failed"));
        assert!(h.source().expect("source").to_string().contains("forward"));
        let g = CoreError::fpga(ShapeError::new("infer_image", "bad shape"));
        assert!(g.to_string().contains("fpga inference failed"));
        assert!(g.source().is_some());
        let t = CoreError::Timeout {
            image: 17,
            deadline_s: 0.25,
        };
        assert!(t.to_string().contains("image 17"));
        assert!(t.source().is_none());
        let w = CoreError::HostWorker("panicked".into());
        assert!(w.to_string().contains("host worker died"));
        assert!(w.source().is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
