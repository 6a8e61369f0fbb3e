//! One stream job as both front ends run it — `pka stream` and the
//! `pka serve` stream sessions: the resume checkpoint and its config echo,
//! the explicit config overrides on top, and the file every checkpoint is
//! written to.

use std::path::PathBuf;

use pka_stats::Executor;

use crate::{
    CancelToken, Checkpoint, KernelSource, StreamConfig, StreamError, StreamOutcome, StreamPks,
};

/// Stream-config fields a front end sets explicitly (CLI flags, session
/// keys). An absent field keeps the default config or, on resume, the
/// checkpoint's config echo.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ConfigOverrides {
    /// Detailed-prefix length *j*.
    pub prefix: Option<u64>,
    /// Records between checkpoints.
    pub checkpoint_every: Option<u64>,
    /// Reservoir-sample capacity.
    pub reservoir: Option<u64>,
    /// Tail mini-batch size.
    pub batch: Option<u64>,
}

/// A [`StreamPks`] run with its checkpoint file.
///
/// Every checkpoint — periodic, teardown and final — is rendered at most
/// once: when the job has a checkpoint path it renders the text, writes it
/// atomically, and hands that text on; without a path it renders nothing.
///
/// # Examples
///
/// ```
/// use pka_gpu::GpuConfig;
/// use pka_stream::{CancelToken, ConfigOverrides, StreamJob, WorkloadSource};
///
/// let mut source = WorkloadSource::by_spec("synthetic:3000", &GpuConfig::v100())
///     .unwrap()
///     .expect("a synthetic source");
/// let overrides = ConfigOverrides { prefix: Some(300), ..Default::default() };
/// let job = StreamJob::load(None, false)?.with_overrides(overrides);
/// assert_eq!(job.config().prefix(), 300);
/// let (outcome, text) = job.run(&mut source, &CancelToken::new(), |_, _| Ok(()))?;
/// assert_eq!(outcome.report.records, 3000);
/// assert!(text.is_none(), "no checkpoint path, nothing rendered");
/// # Ok::<(), pka_stream::StreamError>(())
/// ```
#[derive(Debug)]
pub struct StreamJob {
    config: StreamConfig,
    exec: Executor,
    resume: Option<Checkpoint>,
    checkpoint_path: Option<PathBuf>,
}

impl StreamJob {
    /// A job writing its checkpoints to `checkpoint_path`, if given. With
    /// `resume` it continues from the checkpoint already at that path and
    /// starts from that checkpoint's config echo; otherwise from the
    /// default config. The executor is sequential.
    ///
    /// # Errors
    ///
    /// A [`StreamError::Checkpoint`] for `resume` without a path; what
    /// [`Checkpoint::read_from`] and [`StreamConfig::from_value`] refuse.
    pub fn load(checkpoint_path: Option<PathBuf>, resume: bool) -> Result<Self, StreamError> {
        let resume = match (resume, &checkpoint_path) {
            (false, _) => None,
            (true, Some(path)) => Some(Checkpoint::read_from(path)?),
            (true, None) => {
                return Err(StreamError::Checkpoint {
                    message: "resume needs a checkpoint path".into(),
                })
            }
        };
        let config = match &resume {
            Some(cp) => StreamConfig::from_value(&cp.config)?,
            None => StreamConfig::default(),
        };
        Ok(Self {
            config,
            exec: Executor::sequential(),
            resume,
            checkpoint_path,
        })
    }

    /// Applies the explicit `overrides` on top of the config.
    pub fn with_overrides(mut self, overrides: ConfigOverrides) -> Self {
        if let Some(j) = overrides.prefix {
            self.config = self.config.with_prefix(j);
        }
        if let Some(n) = overrides.checkpoint_every {
            self.config = self.config.with_checkpoint_every(n);
        }
        if let Some(n) = overrides.reservoir {
            self.config = self.config.with_reservoir(n as usize);
        }
        if let Some(n) = overrides.batch {
            self.config = self.config.with_batch(n as usize);
        }
        self
    }

    /// Fans the detailed prefix's clustering out over `exec`.
    pub fn with_executor(mut self, exec: Executor) -> Self {
        self.exec = exec;
        self
    }

    /// The resolved configuration the run uses.
    pub fn config(&self) -> StreamConfig {
        self.config
    }

    /// Runs the stream to its end, or to `cancel` (see
    /// [`StreamPks::run_from`]). Each periodic and teardown checkpoint is
    /// written to the checkpoint path, then handed to `on_checkpoint` with
    /// the text written (`None` without a path). The final checkpoint is
    /// written likewise and its text returned next to the outcome.
    ///
    /// # Errors
    ///
    /// What [`StreamPks::run_from`] fails with, and write failures.
    pub fn run<S, F>(
        &self,
        source: &mut S,
        cancel: &CancelToken,
        mut on_checkpoint: F,
    ) -> Result<(StreamOutcome, Option<String>), StreamError>
    where
        S: KernelSource + ?Sized,
        F: FnMut(&Checkpoint, Option<String>) -> Result<(), StreamError>,
    {
        let outcome = StreamPks::new(self.config)
            .with_executor(self.exec)
            .run_from(
                source,
                self.resume.as_ref(),
                |cp| on_checkpoint(cp, self.write(cp)?),
                cancel,
            )?;
        let text = self.write(&outcome.final_checkpoint)?;
        Ok((outcome, text))
    }

    /// Writes `checkpoint` to the checkpoint path, if any; the text written.
    fn write(&self, checkpoint: &Checkpoint) -> Result<Option<String>, StreamError> {
        self.checkpoint_path
            .as_deref()
            .map(|path| checkpoint.write_to(path))
            .transpose()
    }
}
