use std::fmt;

/// Errors produced by streaming ingestion and the online pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamError {
    /// The source could not produce a record (I/O failure, unlaunchable
    /// kernel, ...).
    Source {
        /// What went wrong.
        message: String,
    },
    /// A JSONL line could not be parsed into a kernel record.
    Parse {
        /// 1-based line number in the input.
        line: u64,
        /// What was wrong with it.
        message: String,
    },
    /// The source cannot be re-read from the start (stdin), so resume and
    /// batch verification are unavailable for it.
    NotRestartable,
    /// The online pipeline itself failed (clustering, classification).
    Pipeline {
        /// What went wrong.
        message: String,
    },
    /// A checkpoint is malformed or inconsistent with the stream it is
    /// being resumed against.
    Checkpoint {
        /// What was inconsistent.
        message: String,
    },
    /// A checkpoint file could not be read, or its text is not JSON.
    CheckpointFile {
        /// What failed: `read` or `parse`.
        action: &'static str,
        /// The file, as given.
        path: String,
        /// The underlying error.
        message: String,
    },
    /// The run was stopped through a [`CancelToken`](crate::CancelToken).
    /// The pipeline delivered a teardown checkpoint through `on_checkpoint`
    /// before returning this, so the stream is resumable from where it
    /// stopped.
    Cancelled,
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Source { message } => write!(f, "stream source: {message}"),
            StreamError::Parse { line, message } => {
                write!(f, "jsonl line {line}: {message}")
            }
            StreamError::NotRestartable => {
                write!(f, "source cannot restart (stdin streams are single-pass)")
            }
            StreamError::Pipeline { message } => write!(f, "stream pipeline: {message}"),
            StreamError::Checkpoint { message } => write!(f, "stream checkpoint: {message}"),
            StreamError::CheckpointFile {
                action,
                path,
                message,
            } => write!(f, "{action} {path}: {message}"),
            StreamError::Cancelled => write!(f, "stream cancelled at a batch boundary"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<pka_gpu::GpuError> for StreamError {
    fn from(e: pka_gpu::GpuError) -> Self {
        StreamError::Source {
            message: e.to_string(),
        }
    }
}

impl From<pka_core::PkaError> for StreamError {
    fn from(e: pka_core::PkaError) -> Self {
        StreamError::Pipeline {
            message: e.to_string(),
        }
    }
}

impl From<pka_ml::MlError> for StreamError {
    fn from(e: pka_ml::MlError) -> Self {
        StreamError::Pipeline {
            message: e.to_string(),
        }
    }
}

impl From<std::io::Error> for StreamError {
    fn from(e: std::io::Error) -> Self {
        StreamError::Source {
            message: e.to_string(),
        }
    }
}
