//! Session objects: one long-lived analysis per `POST /v1/sessions`.
//!
//! A session owns a worker thread driving a `pka-stream` pipeline (or a
//! batch `pka-core` evaluation), a [`CancelToken`] polled at every tail
//! batch boundary, an optional [`FeedHandle`] for body-by-body HTTP
//! record ingestion, and a bounded in-memory progress ring of `pka.snapshot/v1`
//! lines. The registry enforces the service's memory budget: at most
//! `max_active` concurrently running sessions (each `O(K·d + reservoir +
//! batch)` by the streaming contract), and completed sessions are retained
//! for inspection up to `retain_completed`, then LRU-evicted by completion
//! order.
//!
//! Teardown (`DELETE`) is cancellation-safe by construction: the cancel
//! flag fires, the feed (if any) is abandoned so a blocked refill drains
//! and observes end-of-stream, the pipeline emits one teardown checkpoint
//! at the exact batch boundary it reached, and only then is the worker
//! joined — no state is dropped while a pipeline thread can still touch
//! it, and the checkpoint on disk stays resumable.

use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use pka_core::{Executor, Pka, PkaConfig, PkpConfig, PksConfig, Selection};
use pka_gpu::GpuConfig;
use pka_obs::SnapshotRecord;
use pka_profile::Profiler;
use pka_stream::{
    synthetic_workload, CancelToken, Checkpoint, FeedHandle, FeedSource, KernelSource,
    StreamConfig, StreamError, StreamPks, WorkloadSource,
};
use pka_workloads::{all_workloads, Workload};
use serde_json::{json, Map, Value};

/// Progress lines retained per session; older lines are dropped (counted
/// in the ring's `dropped` field) so a million-kernel session cannot grow
/// its progress memory without bound.
pub const PROGRESS_CAP: usize = 512;

/// Histogram edges for the session worker spawn cost (ns). Spawning an OS
/// thread is the per-session cost the shared [`Executor`] design avoids
/// paying more than once per session: the executor itself is a `Copy`
/// value shared by every session.
const SPAWN_EDGES: &[u64] = &[
    10_000, 50_000, 100_000, 500_000, 1_000_000, 5_000_000, 10_000_000,
];

/// Session lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Created; worker not yet past bootstrap.
    Pending,
    /// Worker is consuming records.
    Running,
    /// Finished cleanly; result and final artifacts are available.
    Done,
    /// Pipeline error; `error` holds the message.
    Failed,
    /// Torn down through the cancel token; the last checkpoint is the
    /// resumable teardown snapshot.
    Cancelled,
}

impl Status {
    /// Terminal states never transition again.
    pub fn is_terminal(self) -> bool {
        matches!(self, Status::Done | Status::Failed | Status::Cancelled)
    }

    /// Wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Status::Pending => "pending",
            Status::Running => "running",
            Status::Done => "done",
            Status::Failed => "failed",
            Status::Cancelled => "cancelled",
        }
    }
}

/// Everything a session accumulates, behind one mutex.
#[derive(Debug, Default)]
pub struct SessionState {
    status_tag: u8,
    /// Failure message when status is `Failed`.
    pub error: Option<String>,
    /// Records consumed at the last observed checkpoint (exact at end).
    pub records: u64,
    /// Selected K once the prefix bootstrap completes.
    pub selected_k: Option<usize>,
    /// Result document (Table-3/4-shaped for batch, report + parity fields
    /// for streams), present once `Done`.
    pub result: Option<Value>,
    /// Exact bytes of the final checkpoint (matches `write_to` output).
    pub final_checkpoint: Option<String>,
    /// Exact bytes of the latest periodic/teardown checkpoint.
    pub last_checkpoint: Option<String>,
    /// Exact bytes of the `pka.attribution/v1` artifact (pretty + `\n`,
    /// matching the CLI's `--attribution-out` file).
    pub attribution: Option<String>,
    /// Stamped `pka.snapshot/v1` lines (bounded ring).
    pub progress: VecDeque<String>,
    /// Progress lines evicted from the ring.
    pub progress_dropped: u64,
    /// Monotonic completion stamp (LRU eviction order).
    pub done_stamp: u64,
}

impl SessionState {
    /// Current status.
    pub fn status(&self) -> Status {
        match self.status_tag {
            0 => Status::Pending,
            1 => Status::Running,
            2 => Status::Done,
            3 => Status::Failed,
            _ => Status::Cancelled,
        }
    }

    fn set_status(&mut self, s: Status) {
        self.status_tag = match s {
            Status::Pending => 0,
            Status::Running => 1,
            Status::Done => 2,
            Status::Failed => 3,
            Status::Cancelled => 4,
        };
    }
}

/// The part of a session shared with its worker thread. Workers hold
/// `Arc<SessionCell>` (never the [`Session`] itself), so a session's own
/// join handle can never keep the session alive through a reference cycle.
pub struct SessionCell {
    /// Session id (`s1`, `s2`, ... in creation order).
    pub id: String,
    /// Cooperative cancel flag, polled at tail batch boundaries.
    pub cancel: CancelToken,
    /// Mutable session state.
    pub state: Mutex<SessionState>,
    /// Paired with `state`: notified whenever a new progress line lands in
    /// the ring or the session reaches a terminal status, so SSE
    /// subscribers (`GET .../events`) wake without polling.
    pub progress_wake: Condvar,
}

/// One registered session.
pub struct Session {
    /// Shared state cell.
    pub cell: Arc<SessionCell>,
    /// Spec echo: mode wire name.
    pub mode: &'static str,
    /// Spec echo: source label.
    pub source: String,
    /// Producer handle for feed-backed sessions.
    pub feed: Option<FeedHandle>,
    worker: Mutex<Option<JoinHandle<()>>>,
}

impl Session {
    /// Joins the worker thread (idempotent). Callers must cancel/abandon
    /// first if the worker may still be consuming.
    pub fn join(&self) {
        let handle = self.worker.lock().expect("worker lock").take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }

    /// Status summary document.
    pub fn describe(&self) -> Value {
        let st = self.cell.state.lock().expect("session state");
        let mut m = Map::new();
        m.insert("id".into(), Value::from(self.cell.id.clone()));
        m.insert("mode".into(), Value::from(self.mode));
        m.insert("source".into(), Value::from(self.source.clone()));
        m.insert("status".into(), Value::from(st.status().as_str()));
        m.insert("records".into(), Value::from(st.records));
        if let Some(k) = st.selected_k {
            m.insert("selected_k".into(), Value::from(k as u64));
        }
        if let Some(e) = &st.error {
            m.insert("error".into(), Value::from(e.clone()));
        }
        m.insert(
            "progress_lines".into(),
            Value::from(st.progress.len() as u64),
        );
        Value::Object(m)
    }
}

// ---------------------------------------------------------------------------
// Spec parsing
// ---------------------------------------------------------------------------

/// Streaming-source choice, resolved at session creation so a bad spec
/// fails the `POST` synchronously instead of inside the worker.
enum StreamSource {
    Synthetic(u64),
    Workload(Workload),
    Feed(FeedSource),
}

/// Explicit config overrides from the spec (absent fields keep the
/// default — or, on resume, the checkpoint's embedded config echo).
#[derive(Default, Clone, Copy)]
struct ConfigOverrides {
    prefix: Option<u64>,
    checkpoint_every: Option<u64>,
    reservoir: Option<u64>,
    batch: Option<u64>,
}

impl ConfigOverrides {
    fn apply(self, mut config: StreamConfig) -> StreamConfig {
        if let Some(j) = self.prefix {
            config = config.with_prefix(j);
        }
        if let Some(n) = self.checkpoint_every {
            config = config.with_checkpoint_every(n);
        }
        if let Some(n) = self.reservoir {
            config = config.with_reservoir(n as usize);
        }
        if let Some(n) = self.batch {
            config = config.with_batch(n as usize);
        }
        config
    }
}

/// A fully validated session plan.
enum Plan {
    Stream {
        source: StreamSource,
        gpu: GpuConfig,
        overrides: ConfigOverrides,
        checkpoint_path: Option<PathBuf>,
        resume: bool,
    },
    Select {
        workload: Workload,
        target_error: f64,
    },
    Simulate {
        workload: Workload,
        gpu: GpuConfig,
        threshold: f64,
        full: bool,
    },
}

fn spec_str<'a>(spec: &'a Value, key: &str) -> Result<Option<&'a str>, String> {
    match spec.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::String(s)) => Ok(Some(s)),
        Some(_) => Err(format!("`{key}` must be a string")),
    }
}

fn spec_u64(spec: &Value, key: &str) -> Result<Option<u64>, String> {
    match spec.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("`{key}` must be a non-negative integer")),
    }
}

fn spec_f64(spec: &Value, key: &str) -> Result<Option<f64>, String> {
    match spec.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| format!("`{key}` must be a number")),
    }
}

fn spec_bool(spec: &Value, key: &str) -> Result<bool, String> {
    match spec.get(key) {
        None | Some(Value::Null) => Ok(false),
        Some(Value::Bool(b)) => Ok(*b),
        Some(_) => Err(format!("`{key}` must be a boolean")),
    }
}

/// Refuses any spec key outside `known`, naming it, so a misspelt or
/// retired option fails the request instead of being silently ignored.
fn reject_unknown_keys(spec: &Value, known: &[&str]) -> Result<(), String> {
    if let Value::Object(map) = spec {
        if let Some(key) = map.keys().find(|k| !known.contains(&k.as_str())) {
            return Err(format!(
                "unknown session key `{key}` (accepted: {})",
                known.join(", ")
            ));
        }
    }
    Ok(())
}

fn gpu_by_name(name: &str) -> Result<GpuConfig, String> {
    match name {
        "v100" => Ok(GpuConfig::v100()),
        "rtx2060" => Ok(GpuConfig::rtx2060()),
        "rtx3070" => Ok(GpuConfig::rtx3070()),
        "v100-half" => Ok(GpuConfig::v100_half_sms()),
        other => Err(format!("unknown gpu `{other}`")),
    }
}

fn workload_by_name(name: &str) -> Result<Workload, String> {
    all_workloads()
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or_else(|| format!("unknown workload `{name}`"))
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Shared counters the registry and every worker update. Workers hold
/// `Arc<RegistryStats>`, not the registry, so shutdown order is trivial.
struct RegistryStats {
    active: AtomicI64,
    done_stamp: AtomicU64,
}

impl RegistryStats {
    fn set_gauge(&self) {
        pka_obs::gauge("server.sessions.active").set(self.active.load(Ordering::Relaxed));
    }

    fn session_started(&self) {
        self.active.fetch_add(1, Ordering::Relaxed);
        self.set_gauge();
    }

    fn session_finished(&self) -> u64 {
        self.active.fetch_sub(1, Ordering::Relaxed);
        self.set_gauge();
        self.done_stamp.fetch_add(1, Ordering::Relaxed) + 1
    }
}

/// The session registry: id allocation, capacity caps, LRU retention of
/// completed sessions, and whole-service teardown.
pub struct Registry {
    inner: Mutex<RegistryInner>,
    stats: Arc<RegistryStats>,
    max_active: usize,
    retain_completed: usize,
    feed_capacity: usize,
    exec: Executor,
}

struct RegistryInner {
    sessions: BTreeMap<String, Arc<Session>>,
    next_id: u64,
}

impl Registry {
    /// Creates the registry. `exec` is the process-wide executor every
    /// session's pipeline fans out over — [`Executor`] is a tiny `Copy`
    /// value (thread pools are spawned per pipeline run, inside the run),
    /// so sharing it costs nothing and keeps worker-count policy in one
    /// place.
    pub fn new(
        max_active: usize,
        retain_completed: usize,
        feed_capacity: usize,
        exec: Executor,
    ) -> Self {
        Self {
            inner: Mutex::new(RegistryInner {
                sessions: BTreeMap::new(),
                next_id: 0,
            }),
            stats: Arc::new(RegistryStats {
                active: AtomicI64::new(0),
                done_stamp: AtomicU64::new(0),
            }),
            max_active: max_active.max(1),
            retain_completed,
            feed_capacity: feed_capacity.max(1),
            exec,
        }
    }

    /// Looks a session up by id.
    pub fn get(&self, id: &str) -> Option<Arc<Session>> {
        self.inner
            .lock()
            .expect("registry lock")
            .sessions
            .get(id)
            .cloned()
    }

    /// Status summaries of every registered session, in id order.
    pub fn list(&self) -> Vec<Value> {
        self.inner
            .lock()
            .expect("registry lock")
            .sessions
            .values()
            .map(|s| s.describe())
            .collect()
    }

    /// Creates a session from a JSON spec and starts its worker.
    ///
    /// # Errors
    ///
    /// `(400, message)` for an invalid spec, `(429, message)` when
    /// `max_active` sessions are already running.
    pub fn create(&self, spec: &Value) -> Result<Arc<Session>, (u16, String)> {
        let bad = |m: String| (400u16, m);

        let mode = spec_str(spec, "mode").map_err(bad)?.unwrap_or("stream");
        let (plan, mode_name, source_label, feed_handle) = match mode {
            "stream" => self.parse_stream_spec(spec).map_err(bad)?,
            "select" => {
                reject_unknown_keys(spec, &["mode", "workload", "target_error"]).map_err(bad)?;
                let workload = workload_by_name(
                    spec_str(spec, "workload")
                        .map_err(bad)?
                        .ok_or_else(|| bad("`workload` is required for mode `select`".into()))?,
                )
                .map_err(bad)?;
                let target_error = spec_f64(spec, "target_error").map_err(bad)?.unwrap_or(5.0);
                let label = workload.name().to_string();
                (
                    Plan::Select {
                        workload,
                        target_error,
                    },
                    "select",
                    label,
                    None,
                )
            }
            "simulate" => {
                reject_unknown_keys(spec, &["mode", "workload", "gpu", "threshold", "full"])
                    .map_err(bad)?;
                let workload = workload_by_name(
                    spec_str(spec, "workload")
                        .map_err(bad)?
                        .ok_or_else(|| bad("`workload` is required for mode `simulate`".into()))?,
                )
                .map_err(bad)?;
                let gpu =
                    gpu_by_name(spec_str(spec, "gpu").map_err(bad)?.unwrap_or("v100")).map_err(bad)?;
                let threshold = spec_f64(spec, "threshold").map_err(bad)?.unwrap_or(0.25);
                let full = spec_bool(spec, "full").map_err(bad)?;
                let label = workload.name().to_string();
                (
                    Plan::Simulate {
                        workload,
                        gpu,
                        threshold,
                        full,
                    },
                    "simulate",
                    label,
                    None,
                )
            }
            other => return Err(bad(format!("unknown mode `{other}`"))),
        };

        let mut inner = self.inner.lock().expect("registry lock");
        let running = inner
            .sessions
            .values()
            .filter(|s| !s.cell.state.lock().expect("session state").status().is_terminal())
            .count();
        if running >= self.max_active {
            return Err((
                429,
                format!(
                    "{running} sessions already active (cap {}); delete one or wait",
                    self.max_active
                ),
            ));
        }
        inner.next_id += 1;
        let id = format!("s{}", inner.next_id);

        let cell = Arc::new(SessionCell {
            id: id.clone(),
            cancel: CancelToken::new(),
            state: Mutex::new(SessionState::default()),
            progress_wake: Condvar::new(),
        });
        self.stats.session_started();
        if pka_obs::enabled() {
            pka_obs::counter("server.sessions.created").incr();
        }

        let worker_cell = Arc::clone(&cell);
        let worker_stats = Arc::clone(&self.stats);
        let exec = self.exec;
        let spawn_t0 = Instant::now();
        let handle = std::thread::Builder::new()
            .name(format!("pka-session-{id}"))
            .spawn(move || {
                pka_obs::histogram("server.session_spawn_ns", SPAWN_EDGES)
                    .record(u64::try_from(spawn_t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
                run_session(worker_cell, worker_stats, plan, exec);
            })
            .map_err(|e| (500, format!("spawn session worker: {e}")))?;

        let session = Arc::new(Session {
            cell,
            mode: mode_name,
            source: source_label,
            feed: feed_handle,
            worker: Mutex::new(Some(handle)),
        });
        inner.sessions.insert(id, Arc::clone(&session));
        self.evict_locked(&mut inner);
        Ok(session)
    }

    fn parse_stream_spec(
        &self,
        spec: &Value,
    ) -> Result<(Plan, &'static str, String, Option<FeedHandle>), String> {
        reject_unknown_keys(
            spec,
            &[
                "mode",
                "source",
                "source_name",
                "gpu",
                "prefix",
                "checkpoint_every",
                "reservoir",
                "batch",
                "checkpoint_path",
                "resume",
            ],
        )?;
        let source_spec = spec_str(spec, "source")?.ok_or_else(|| {
            "`source` is required for mode `stream` (synthetic:N, a workload name, or `feed`)"
                .to_string()
        })?;
        let gpu = gpu_by_name(spec_str(spec, "gpu")?.unwrap_or("v100"))?;
        let overrides = ConfigOverrides {
            prefix: spec_u64(spec, "prefix")?,
            checkpoint_every: spec_u64(spec, "checkpoint_every")?,
            reservoir: spec_u64(spec, "reservoir")?,
            batch: spec_u64(spec, "batch")?,
        };
        let checkpoint_path = spec_str(spec, "checkpoint_path")?.map(PathBuf::from);
        let resume = spec_bool(spec, "resume")?;
        if resume && checkpoint_path.is_none() {
            return Err("`resume` requires `checkpoint_path`".to_string());
        }

        let mut feed_handle = None;
        let (source, label) = if let Some(n) = source_spec.strip_prefix("synthetic:") {
            let n: u64 = n
                .parse()
                .ok()
                .filter(|&n| n > 0)
                .ok_or("synthetic:N needs a positive integer N")?;
            (
                StreamSource::Synthetic(n),
                format!("workload:synthetic{n}"),
            )
        } else if source_spec == "feed" {
            let label = spec_str(spec, "source_name")?
                .map(str::to_string)
                .unwrap_or_else(|| "feed:http".to_string());
            let (feed, handle) = FeedSource::new(label.clone(), self.feed_capacity);
            feed_handle = Some(handle);
            (StreamSource::Feed(feed), label)
        } else {
            let w = workload_by_name(source_spec)?;
            let label = format!("workload:{}", w.name());
            (StreamSource::Workload(w), label)
        };

        Ok((
            Plan::Stream {
                source,
                gpu,
                overrides,
                checkpoint_path,
                resume,
            },
            "stream",
            label,
            feed_handle,
        ))
    }

    /// Tears one session down: cancel, abandon its feed, join its worker.
    /// The session stays registered (terminal) so its teardown checkpoint
    /// and status remain fetchable until retention evicts it.
    ///
    /// Returns the session's status summary, or `None` for an unknown id.
    pub fn teardown(&self, id: &str) -> Option<Value> {
        let session = self.get(id)?;
        session.cell.cancel.cancel();
        if let Some(feed) = &session.feed {
            feed.abandon();
        }
        session.join();
        if pka_obs::enabled() {
            pka_obs::counter("server.sessions.torn_down").incr();
        }
        let mut inner = self.inner.lock().expect("registry lock");
        self.evict_locked(&mut inner);
        drop(inner);
        Some(session.describe())
    }

    /// Cancels every session and joins every worker (service shutdown).
    pub fn shutdown(&self) {
        let sessions: Vec<Arc<Session>> = self
            .inner
            .lock()
            .expect("registry lock")
            .sessions
            .values()
            .cloned()
            .collect();
        for s in &sessions {
            s.cell.cancel.cancel();
            if let Some(feed) = &s.feed {
                feed.abandon();
            }
        }
        for s in &sessions {
            s.join();
        }
    }

    /// Evicts the oldest-completed sessions beyond `retain_completed`.
    fn evict_locked(&self, inner: &mut RegistryInner) {
        let mut terminal: Vec<(u64, String)> = inner
            .sessions
            .iter()
            .filter_map(|(id, s)| {
                let st = s.cell.state.lock().expect("session state");
                st.status().is_terminal().then(|| (st.done_stamp, id.clone()))
            })
            .collect();
        if terminal.len() <= self.retain_completed {
            return;
        }
        terminal.sort();
        let excess = terminal.len() - self.retain_completed;
        for (_, id) in terminal.into_iter().take(excess) {
            if let Some(s) = inner.sessions.remove(&id) {
                s.join(); // terminal => already exited; reap the handle
                if pka_obs::enabled() {
                    pka_obs::counter("server.sessions.evicted").incr();
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

fn run_session(cell: Arc<SessionCell>, stats: Arc<RegistryStats>, plan: Plan, exec: Executor) {
    {
        let mut st = cell.state.lock().expect("session state");
        st.set_status(Status::Running);
    }
    let outcome: Result<Value, (Status, Option<String>)> = match plan {
        Plan::Stream {
            source,
            gpu,
            overrides,
            checkpoint_path,
            resume,
        } => run_stream(&cell, source, gpu, overrides, checkpoint_path, resume, exec),
        Plan::Select {
            workload,
            target_error,
        } => run_select(&cell, workload, target_error, exec),
        Plan::Simulate {
            workload,
            gpu,
            threshold,
            full,
        } => run_simulate(&cell, workload, gpu, threshold, full, exec),
    };
    let stamp = stats.session_finished();
    let mut st = cell.state.lock().expect("session state");
    st.done_stamp = stamp;
    match outcome {
        Ok(result) => {
            st.result = Some(result);
            st.set_status(Status::Done);
        }
        Err((status, error)) => {
            st.error = error;
            st.set_status(status);
        }
    }
    drop(st);
    // Terminal transition: wake every events subscriber so streams end
    // promptly after DELETE/finish instead of waiting out a poll tick.
    cell.progress_wake.notify_all();
}

/// Maps a pipeline error to the session's terminal state: cancellation is
/// a first-class outcome, everything else is a failure.
fn terminal_of(e: StreamError) -> (Status, Option<String>) {
    match e {
        StreamError::Cancelled => (Status::Cancelled, None),
        other => (Status::Failed, Some(other.to_string())),
    }
}

fn push_progress(st: &mut SessionState, line: String) {
    if st.progress.len() == PROGRESS_CAP {
        st.progress.pop_front();
        st.progress_dropped += 1;
    }
    st.progress.push_back(line);
}

fn group_counts_of(selection: &Value) -> Vec<u64> {
    serde_json::from_value::<Selection>(selection.clone())
        .map(|s| s.groups().iter().map(|g| g.count()).collect())
        .unwrap_or_default()
}

fn progress_record(cp: &Checkpoint) -> SnapshotRecord {
    SnapshotRecord {
        phase: "tail".to_string(),
        records: cp.records,
        selected_k: cp.selected_k as i64,
        group_counts: group_counts_of(&cp.selection),
        reservoir_len: cp.reservoir.items.len() as u64,
        reservoir_cap: cp.reservoir.cap as u64,
        drifts: cp.drifts,
        reclusters: cp.reclusters,
        checkpoints: cp.seq,
        max_buffered: cp.max_buffered,
    }
}

/// Renders the attribution artifact exactly like the CLI's
/// `--attribution-out` file (pretty JSON + trailing newline), so `cmp`
/// against a CLI run passes bytewise.
fn attribution_bytes(
    attribution: &pka_core::ErrorAttribution,
) -> Result<String, (Status, Option<String>)> {
    let mut text = serde_json::to_string_pretty(attribution)
        .map_err(|e| (Status::Failed, Some(format!("serialise attribution: {e}"))))?;
    text.push('\n');
    Ok(text)
}

fn run_stream(
    cell: &Arc<SessionCell>,
    source: StreamSource,
    gpu: GpuConfig,
    overrides: ConfigOverrides,
    checkpoint_path: Option<PathBuf>,
    resume: bool,
    exec: Executor,
) -> Result<Value, (Status, Option<String>)> {
    let mut boxed: Box<dyn KernelSource> = match source {
        StreamSource::Workload(w) => Box::new(WorkloadSource::new(w, Profiler::new(gpu))),
        StreamSource::Feed(feed) => Box::new(feed),
        StreamSource::Synthetic(n) => Box::new(WorkloadSource::new(
            synthetic_workload(n),
            Profiler::new(gpu),
        )),
    };

    // A resume adopts the checkpoint's embedded config echo (explicit spec
    // fields still apply on top), exactly like `pka stream --resume`.
    let fail = |e: StreamError| (Status::Failed, Some(e.to_string()));
    let resume_cp = if resume {
        let path = checkpoint_path.as_ref().expect("resume requires a path");
        let text = std::fs::read_to_string(path)
            .map_err(|e| (Status::Failed, Some(format!("read {}: {e}", path.display()))))?;
        let value: Value = serde_json::from_str(&text)
            .map_err(|e| (Status::Failed, Some(format!("parse {}: {e}", path.display()))))?;
        Some(Checkpoint::from_value(&value).map_err(fail)?)
    } else {
        None
    };
    let base_config = match &resume_cp {
        Some(cp) => StreamConfig::from_value(&cp.config).map_err(fail)?,
        None => StreamConfig::default(),
    };
    let config = overrides.apply(base_config);

    let engine = StreamPks::new(config).with_executor(exec);
    let on_cell = Arc::clone(cell);
    let ckpt = checkpoint_path.clone();
    let on_checkpoint = move |cp: &Checkpoint| -> Result<(), StreamError> {
        if let Some(p) = &ckpt {
            cp.write_to(p)?;
        }
        // `timing` stays empty: progress served over HTTP is built purely
        // from checkpoint state, so interleaved sessions produce
        // byte-identical progress to serial runs.
        let line = progress_record(cp).stamped_line(cp.seq, Map::new());
        let mut st = on_cell.state.lock().expect("session state");
        st.records = cp.records;
        st.selected_k = Some(cp.selected_k);
        let mut bytes = cp.to_json();
        bytes.push('\n');
        st.last_checkpoint = Some(bytes);
        push_progress(&mut st, line);
        drop(st);
        on_cell.progress_wake.notify_all();
        Ok(())
    };
    let outcome = match &resume_cp {
        Some(cp) => engine.resume_with_cancel(&mut *boxed, cp, on_checkpoint, &cell.cancel),
        None => engine.run_with_cancel(&mut *boxed, on_checkpoint, &cell.cancel),
    }
    .map_err(terminal_of)?;
    if let Some(p) = &checkpoint_path {
        outcome.final_checkpoint.write_to(p).map_err(terminal_of)?;
    }
    let attribution = attribution_bytes(&outcome.attribution)?;
    let mut final_bytes = outcome.final_checkpoint.to_json();
    final_bytes.push('\n');
    let mut st = cell.state.lock().expect("session state");
    st.records = outcome.report.records;
    st.selected_k = Some(outcome.report.selected_k);
    st.final_checkpoint = Some(final_bytes);
    st.attribution = Some(attribution);
    drop(st);
    Ok(json!({
        "mode": "stream",
        "selected_k": outcome.report.selected_k as u64,
        "projected_cycles": outcome.report.projected_cycles,
        "report": outcome.report.to_value(),
    }))
}

fn run_select(
    cell: &Arc<SessionCell>,
    workload: Workload,
    target_error: f64,
    exec: Executor,
) -> Result<Value, (Status, Option<String>)> {
    if cell.cancel.is_cancelled() {
        return Err((Status::Cancelled, None));
    }
    let config = PkaConfig::default()
        .with_pks(PksConfig::default().with_target_error_pct(target_error))
        .with_executor(exec);
    let pka = Pka::new(GpuConfig::v100(), config);
    let (selection, attribution) = pka
        .select_kernels_with_attribution(&workload)
        .map_err(|e| (Status::Failed, Some(e.to_string())))?;
    let attribution = attribution_bytes(&attribution)?;
    let mut st = cell.state.lock().expect("session state");
    st.records = workload.kernel_count();
    st.selected_k = Some(selection.k());
    st.attribution = Some(attribution);
    drop(st);
    let groups: Vec<Value> = selection
        .groups()
        .iter()
        .map(|g| {
            json!({
                "representative": format!("{}", g.representative()),
                "count": g.count(),
            })
        })
        .collect();
    Ok(json!({
        "mode": "select",
        "workload": workload.name(),
        "kernels_total": workload.kernel_count(),
        "selected_k": selection.k() as u64,
        "error_pct": selection.error_pct(),
        "group_deviation_pct": selection.group_deviation_pct(),
        "groups": groups,
        "selection": selection,
    }))
}

fn run_simulate(
    cell: &Arc<SessionCell>,
    workload: Workload,
    gpu: GpuConfig,
    threshold: f64,
    full: bool,
    exec: Executor,
) -> Result<Value, (Status, Option<String>)> {
    if cell.cancel.is_cancelled() {
        return Err((Status::Cancelled, None));
    }
    let config = PkaConfig::default()
        .with_pkp(PkpConfig::default().with_threshold(threshold))
        .with_executor(exec);
    let pka = Pka::new(gpu, config);
    let (report, attribution) = pka
        .evaluate_with_attribution(&workload, full)
        .map_err(|e| (Status::Failed, Some(e.to_string())))?;
    let attribution = attribution_bytes(&attribution)?;
    let mut st = cell.state.lock().expect("session state");
    st.records = workload.kernel_count();
    st.selected_k = Some(report.per_representative.len());
    st.attribution = Some(attribution);
    drop(st);
    let per_rep: Vec<Value> = report
        .per_representative
        .iter()
        .map(|rp| {
            json!({
                "kernel_id": format!("{}", rp.kernel_id),
                "simulated_cycles": rp.simulated_cycles,
                "projected_cycles": rp.projected_cycles,
                "skip_ratio": rp.skip_ratio(),
            })
        })
        .collect();
    Ok(json!({
        "mode": "simulate",
        "workload": report.workload,
        "silicon_cycles": report.silicon_cycles,
        "fullsim_cycles": report.fullsim_cycles,
        "sim_error_pct": report.sim_error_pct,
        "pks": {
            "projected_cycles": report.pks_projected_cycles,
            "error_pct": report.pks_error_pct,
            "hours": report.pks_hours,
            "speedup": report.pks_speedup(),
        },
        "pka": {
            "projected_cycles": report.pka_projected_cycles,
            "error_pct": report.pka_error_pct,
            "hours": report.pka_hours,
            "speedup": report.pka_speedup(),
        },
        "per_representative": per_rep,
    }))
}
