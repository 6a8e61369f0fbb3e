use std::error::Error;
use std::fmt;

/// Errors produced when constructing GPU configurations or kernels.
///
/// # Examples
///
/// ```
/// use pka_gpu::{GpuError, KernelDescriptor};
///
/// let err = KernelDescriptor::builder("k").block_threads(0).build().unwrap_err();
/// assert!(matches!(err, GpuError::InvalidKernel { .. }));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GpuError {
    /// An architecture parameter was out of range.
    InvalidConfig {
        /// The offending field.
        field: &'static str,
        /// Why the value was rejected.
        message: String,
    },
    /// A kernel descriptor was malformed.
    InvalidKernel {
        /// The offending field.
        field: &'static str,
        /// Why the value was rejected.
        message: String,
    },
    /// No preset configuration has this command-line name.
    UnknownGpu {
        /// The name asked for.
        name: String,
    },
}

impl fmt::Display for GpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpuError::InvalidConfig { field, message } => {
                write!(f, "invalid gpu config field `{field}`: {message}")
            }
            GpuError::InvalidKernel { field, message } => {
                write!(f, "invalid kernel field `{field}`: {message}")
            }
            GpuError::UnknownGpu { name } => write!(f, "unknown gpu `{name}`"),
        }
    }
}

impl Error for GpuError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_field() {
        let e = GpuError::InvalidConfig {
            field: "num_sms",
            message: "must be positive".into(),
        };
        assert!(e.to_string().contains("num_sms"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GpuError>();
    }
}
