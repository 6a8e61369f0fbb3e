use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use pka_gpu::{GpuConfig, KernelDescriptor, KernelId, KernelMetrics};
use pka_profile::{DetailedRecord, LightweightRecord, Profiler};
use pka_workloads::{KernelTemplate, Suite, Workload};
use serde_json::Value;

use crate::json_text::JsonText;
use crate::StreamError;

/// One record pulled from a [`KernelSource`]: the lightweight view always,
/// the detailed (hardware-counter) view only when the consumer asked for it
/// and the source can supply it.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceRecord {
    /// The Nsight-Systems-style launch record.
    pub lightweight: LightweightRecord,
    /// The Nsight-Compute-style record, present when requested and
    /// available (the detailed prefix).
    pub detailed: Option<DetailedRecord>,
}

impl SourceRecord {
    /// Serialises the record as one `pka.kernel_record/v1` JSONL line (no
    /// trailing newline), the wire format [`JsonlSource`] reads back.
    /// Detailed fields are emitted only when the detailed view is present.
    ///
    /// The line is written straight into one pre-sized buffer, with no
    /// intermediate `Value` tree, and is byte-identical to the compact
    /// rendering of the equivalent tree: keys in sorted byte order
    /// (`block_threads`, `cycles`, `dram_util_pct`, `grid_blocks`, `id`,
    /// `l2_miss_rate_pct`, `metrics`, `name`, `seconds`,
    /// `shared_mem_bytes`, `tensor_elements`), floats in their shortest
    /// round-trip form and `null` when not finite.
    pub fn to_jsonl(&self) -> String {
        let lw = &self.lightweight;
        let mut w = JsonText::with_capacity(self.jsonl_len_bound());
        w.raw("{\"block_threads\":");
        w.u64(u64::from(lw.block_threads));
        if let Some(d) = &self.detailed {
            w.raw(",\"cycles\":");
            w.u64(d.cycles);
            w.raw(",\"dram_util_pct\":");
            w.f64(d.dram_util_pct);
        }
        w.raw(",\"grid_blocks\":");
        w.u64(lw.grid_blocks);
        w.raw(",\"id\":");
        w.u64(lw.kernel_id.index());
        if let Some(d) = &self.detailed {
            let m = &d.metrics;
            w.raw(",\"l2_miss_rate_pct\":");
            w.f64(d.l2_miss_rate_pct);
            w.raw(",\"metrics\":{\"coalesced_global_loads\":");
            w.f64(m.coalesced_global_loads);
            w.raw(",\"coalesced_global_stores\":");
            w.f64(m.coalesced_global_stores);
            w.raw(",\"coalesced_local_loads\":");
            w.f64(m.coalesced_local_loads);
            w.raw(",\"divergence_efficiency\":");
            w.f64(m.divergence_efficiency);
            w.raw(",\"instructions\":");
            w.f64(m.instructions);
            w.raw(",\"thread_blocks\":");
            w.u64(m.thread_blocks);
            w.raw(",\"thread_global_atomics\":");
            w.f64(m.thread_global_atomics);
            w.raw(",\"thread_global_loads\":");
            w.f64(m.thread_global_loads);
            w.raw(",\"thread_global_stores\":");
            w.f64(m.thread_global_stores);
            w.raw(",\"thread_local_loads\":");
            w.f64(m.thread_local_loads);
            w.raw(",\"thread_shared_loads\":");
            w.f64(m.thread_shared_loads);
            w.raw(",\"thread_shared_stores\":");
            w.f64(m.thread_shared_stores);
            w.raw("}");
        }
        w.raw(",\"name\":");
        w.string(&lw.name);
        if let Some(d) = &self.detailed {
            w.raw(",\"seconds\":");
            w.f64(d.seconds);
        }
        w.raw(",\"shared_mem_bytes\":");
        w.u64(u64::from(lw.shared_mem_bytes));
        w.raw(",\"tensor_elements\":");
        w.u64(lw.tensor_elements);
        w.raw("}");
        w.finish()
    }

    /// The capacity [`to_jsonl`](Self::to_jsonl) reserves: the key text,
    /// 20 characters per integer and 24 per float
    /// (`-2.2250738585072014e-308`), and the name's bytes plus its quotes.
    /// It bounds every line whose name needs no escape; an escaped name
    /// may grow the buffer once.
    fn jsonl_len_bound(&self) -> usize {
        const LIGHTWEIGHT: usize = 86 + 5 * 20;
        const DETAILED: usize = 347 + 2 * 20 + 14 * 24;
        let detailed = if self.detailed.is_some() { DETAILED } else { 0 };
        LIGHTWEIGHT + detailed + self.lightweight.name.len() + 2
    }
}

/// A pull-based kernel-record stream.
///
/// Sources yield records in launch order, once each. The consumer signals
/// through `want_detailed` whether the hardware-counter view is needed —
/// the online pipeline asks for it only during the detailed prefix, so
/// sources never pay detailed-profiling cost for the (million-kernel) tail.
pub trait KernelSource {
    /// Human-readable source identifier (stamped into checkpoints).
    fn name(&self) -> String;

    /// Total records this source will yield, when known up front.
    fn len_hint(&self) -> Option<u64>;

    /// Pulls the next record, or `None` at end of stream.
    ///
    /// # Errors
    ///
    /// Fails when the underlying medium fails, or when `want_detailed` is
    /// set but the source cannot supply the detailed view for this record.
    fn next_record(&mut self, want_detailed: bool) -> Result<Option<SourceRecord>, StreamError>;

    /// Pulls the next record's classifier feature vector
    /// ([`LightweightRecord::FEATURE_COUNT`] values appended to `out`),
    /// returning `false` at end of stream.
    ///
    /// This is the tail's feature-only fast path: the floats are
    /// bit-identical to `next_record(false)` followed by
    /// `to_feature_vector`, but sources that know their launch geometry up
    /// front override it to skip materialising the record (and its name
    /// `String`) entirely.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::next_record`] failures.
    fn next_features_into(&mut self, out: &mut Vec<f64>) -> Result<bool, StreamError> {
        match self.next_record(false)? {
            None => Ok(false),
            Some(rec) => {
                let lw = &rec.lightweight;
                LightweightRecord::write_features(
                    &lw.name,
                    lw.grid_blocks,
                    lw.block_threads,
                    lw.shared_mem_bytes,
                    lw.tensor_elements,
                    out,
                );
                Ok(true)
            }
        }
    }

    /// Skips up to `n` records and returns how many were actually skipped
    /// (fewer at end of stream). Sources with random access override this
    /// with an O(1) seek; the default pulls and discards lightweight
    /// records.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::next_record`] failures.
    fn skip(&mut self, n: u64) -> Result<u64, StreamError> {
        let mut skipped = 0;
        while skipped < n {
            if self.next_record(false)?.is_none() {
                break;
            }
            skipped += 1;
        }
        Ok(skipped)
    }

    /// Rewinds the source to its first record, for checkpoint resume (which
    /// re-derives the prefix deterministically) and batch verification.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::NotRestartable`] for single-pass media
    /// (stdin).
    fn restart(&mut self) -> Result<(), StreamError>;
}

// ---------------------------------------------------------------------------
// Workload-backed source (and the synthetic million-kernel generator)
// ---------------------------------------------------------------------------

/// Streams a [`Workload`]'s launch stream through a [`Profiler`].
///
/// Workloads materialise kernels lazily, so this source is O(1) memory no
/// matter how many launches the stream contains — the substrate for the
/// `synthetic:N` million-kernel streams. Detailed records are produced by
/// per-kernel silicon profiling (prefix only); tail records cost one
/// descriptor materialisation each.
#[derive(Debug, Clone)]
pub struct WorkloadSource {
    workload: Workload,
    profiler: Profiler,
    pos: u64,
}

impl WorkloadSource {
    /// Creates a source over `workload`, profiling with `profiler`.
    pub fn new(workload: Workload, profiler: Profiler) -> Self {
        Self {
            workload,
            profiler,
            pos: 0,
        }
    }

    /// Resolves a source spec naming a workload: `synthetic:N` (the
    /// [`synthetic_workload`] of `N` kernels) or a built-in workload's name,
    /// profiled on `gpu`. `Ok(None)` when `spec` is neither, so each front
    /// end words that refusal itself.
    ///
    /// # Errors
    ///
    /// A `synthetic:` spec whose `N` is not a positive integer.
    pub fn by_spec(spec: &str, gpu: &GpuConfig) -> Result<Option<Self>, &'static str> {
        let workload = if let Some(n) = spec.strip_prefix("synthetic:") {
            let n: u64 = n
                .parse()
                .ok()
                .filter(|&n| n > 0)
                .ok_or("synthetic:N needs a positive integer N")?;
            synthetic_workload(n)
        } else {
            match pka_workloads::workload_by_name(spec) {
                Some(w) => w,
                None => return Ok(None),
            }
        };
        Ok(Some(Self::new(workload, Profiler::new(gpu.clone()))))
    }

    /// The workload backing this source.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The profiler detailed records are measured with.
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }
}

impl KernelSource for WorkloadSource {
    fn name(&self) -> String {
        format!("workload:{}", self.workload.name())
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.workload.kernel_count())
    }

    fn next_record(&mut self, want_detailed: bool) -> Result<Option<SourceRecord>, StreamError> {
        if self.pos >= self.workload.kernel_count() {
            return Ok(None);
        }
        let id = KernelId::new(self.pos);
        let kernel = self.workload.kernel(id);
        let lightweight = LightweightRecord::new(id, &kernel);
        let detailed = if want_detailed {
            let mut records = self
                .profiler
                .detailed(&self.workload, self.pos..self.pos + 1)?;
            Some(records.remove(0))
        } else {
            None
        };
        self.pos += 1;
        Ok(Some(SourceRecord {
            lightweight,
            detailed,
        }))
    }

    fn next_features_into(&mut self, out: &mut Vec<f64>) -> Result<bool, StreamError> {
        if self.pos >= self.workload.kernel_count() {
            return Ok(false);
        }
        // The launch view skips the descriptor rebuild (and its name
        // clones); `write_features` guarantees the floats match the
        // record-materialising default bit-for-bit.
        let view = self.workload.launch_view(KernelId::new(self.pos));
        self.pos += 1;
        LightweightRecord::write_features(
            view.name,
            view.total_blocks,
            view.threads_per_block,
            view.shared_mem_per_block,
            view.total_threads(),
            out,
        );
        Ok(true)
    }

    fn skip(&mut self, n: u64) -> Result<u64, StreamError> {
        let remaining = self.workload.kernel_count() - self.pos;
        let skipped = n.min(remaining);
        self.pos += skipped;
        Ok(skipped)
    }

    fn restart(&mut self) -> Result<(), StreamError> {
        self.pos = 0;
        Ok(())
    }
}

/// Kernel-behaviour templates for the synthetic stream: a compute-bound
/// GEMM-style kernel, a tensor-pipe kernel, a memory-bound scatter, a cheap
/// elementwise op, and a reduction — cycled per "layer" the way an MLPerf
/// training step cycles its operator sequence, with rotating grid sizes so
/// launches of the same kernel land in different PKS groups.
fn synthetic_templates() -> Vec<KernelTemplate> {
    let gemm = KernelDescriptor::builder("syn_gemm")
        .grid_blocks(1024)
        .block_threads(256)
        .fp32_per_thread(420)
        .global_loads_per_thread(24)
        .global_stores_per_thread(8)
        .shared_loads_per_thread(64)
        .shared_stores_per_thread(16)
        .shared_mem_per_block(24 * 1024)
        .build()
        .expect("valid synthetic gemm");
    let tensor = KernelDescriptor::builder("syn_attention")
        .grid_blocks(512)
        .block_threads(128)
        .tensor_per_thread(96)
        .fp32_per_thread(48)
        .global_loads_per_thread(16)
        .global_stores_per_thread(4)
        .build()
        .expect("valid synthetic attention");
    let scatter = KernelDescriptor::builder("syn_scatter")
        .grid_blocks(2048)
        .block_threads(128)
        .int_per_thread(32)
        .global_loads_per_thread(40)
        .global_stores_per_thread(40)
        .build()
        .expect("valid synthetic scatter");
    let relu = KernelDescriptor::builder("syn_relu")
        .grid_blocks(4096)
        .block_threads(256)
        .fp32_per_thread(4)
        .global_loads_per_thread(2)
        .global_stores_per_thread(2)
        .build()
        .expect("valid synthetic relu");
    let reduce = KernelDescriptor::builder("syn_reduce")
        .grid_blocks(256)
        .block_threads(512)
        .fp32_per_thread(24)
        .global_loads_per_thread(16)
        .shared_loads_per_thread(18)
        .shared_stores_per_thread(18)
        .syncs_per_thread(9)
        .shared_mem_per_block(8 * 1024)
        .build()
        .expect("valid synthetic reduce");
    vec![
        KernelTemplate::new(gemm).with_grid_cycle(vec![1024, 2048, 512]),
        KernelTemplate::new(tensor).with_grid_cycle(vec![512, 768]),
        KernelTemplate::new(scatter),
        KernelTemplate::new(relu).with_grid_cycle(vec![4096, 8192]),
        KernelTemplate::new(reduce),
    ]
}

/// Builds the `synthetic:N` workload: `n` kernel launches cycling through
/// five MLPerf-shaped operator templates with rotating grid geometry. The
/// stream is lazily materialised (O(1) memory regardless of `n`) and fully
/// deterministic, so batch and streaming runs over the same `n` see
/// identical records.
///
/// # Panics
///
/// Panics if `n` is zero (a workload must launch something).
pub fn synthetic_workload(n: u64) -> Workload {
    assert!(n > 0, "synthetic stream needs at least one kernel");
    let templates = synthetic_templates();
    let per_cycle = templates.len() as u64;
    let repeats = n / per_cycle;
    let remainder = (n % per_cycle) as usize;
    let mut builder = Workload::builder(format!("synthetic{n}"), Suite::MlPerf);
    if repeats > 0 {
        builder = builder.cycle(templates.clone(), repeats);
    }
    for template in templates.into_iter().take(remainder) {
        builder = builder.run(template, 1);
    }
    builder.build()
}

// ---------------------------------------------------------------------------
// In-memory records source
// ---------------------------------------------------------------------------

/// Streams already-profiled [`pka_profile`] records from memory — the
/// adapter for experiments that hold a detailed record set and want to feed
/// it through the online pipeline (parity tests, replays).
#[derive(Debug, Clone)]
pub struct RecordsSource {
    label: String,
    records: Vec<(DetailedRecord, LightweightRecord)>,
    pos: usize,
}

impl RecordsSource {
    /// Wraps detailed records paired with their lightweight views.
    pub fn new(
        label: impl Into<String>,
        records: Vec<(DetailedRecord, LightweightRecord)>,
    ) -> Self {
        Self {
            label: label.into(),
            records,
            pos: 0,
        }
    }

    /// Profiles `workload` up front (both views, full stream) and wraps the
    /// result. Only sensible for workloads that fit in memory.
    ///
    /// # Errors
    ///
    /// Propagates profiling failures.
    pub fn profile(workload: &Workload, profiler: &Profiler) -> Result<Self, StreamError> {
        let detailed = profiler.detailed(workload, 0..workload.kernel_count())?;
        let lightweight = profiler.lightweight(workload, 0..workload.kernel_count());
        Ok(Self::new(
            format!("records:{}", workload.name()),
            detailed.into_iter().zip(lightweight).collect(),
        ))
    }
}

impl KernelSource for RecordsSource {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.records.len() as u64)
    }

    fn next_record(&mut self, want_detailed: bool) -> Result<Option<SourceRecord>, StreamError> {
        let Some((detailed, lightweight)) = self.records.get(self.pos) else {
            return Ok(None);
        };
        self.pos += 1;
        Ok(Some(SourceRecord {
            lightweight: lightweight.clone(),
            detailed: want_detailed.then(|| detailed.clone()),
        }))
    }

    fn skip(&mut self, n: u64) -> Result<u64, StreamError> {
        let remaining = (self.records.len() - self.pos) as u64;
        let skipped = n.min(remaining);
        self.pos += skipped as usize;
        Ok(skipped)
    }

    fn restart(&mut self) -> Result<(), StreamError> {
        self.pos = 0;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// JSONL file / stdin source
// ---------------------------------------------------------------------------

/// Reads `pka.kernel_record/v1` JSONL from a file or stdin.
///
/// Each line is one object with the lightweight fields required and the
/// detailed fields optional:
///
/// ```json
/// {"id": 0, "name": "sgemm", "grid_blocks": 1024, "block_threads": 256,
///  "shared_mem_bytes": 0, "tensor_elements": 262144,
///  "cycles": 48210, "seconds": 3.2e-5, "dram_util_pct": 41.0,
///  "l2_miss_rate_pct": 12.5, "metrics": {"instructions": 1.9e6, ...}}
/// ```
///
/// Detailed fields (`cycles`, `seconds`, `dram_util_pct`,
/// `l2_miss_rate_pct`, `metrics`) must be present on the first *j* lines
/// when the online pipeline's prefix asks for them; tail lines need only
/// the lightweight fields. [`SourceRecord::to_jsonl`] produces this format.
pub struct JsonlSource {
    label: String,
    path: Option<PathBuf>,
    reader: Box<dyn BufRead + Send>,
    line: u64,
    /// The last line read, reused for every line.
    buf: String,
}

impl std::fmt::Debug for JsonlSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSource")
            .field("label", &self.label)
            .field("line", &self.line)
            .finish()
    }
}

impl JsonlSource {
    /// Opens a JSONL file.
    ///
    /// # Errors
    ///
    /// Fails when the file cannot be opened.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self, StreamError> {
        let path = path.into();
        let file = File::open(&path)?;
        Ok(Self {
            label: format!("jsonl:{}", path.display()),
            path: Some(path),
            reader: Box::new(BufReader::new(file)),
            line: 0,
            buf: String::new(),
        })
    }

    /// Reads JSONL from standard input (single-pass: no resume, no batch
    /// verification).
    pub fn stdin() -> Self {
        Self {
            label: "jsonl:-".to_string(),
            path: None,
            reader: Box::new(BufReader::new(std::io::stdin())),
            line: 0,
            buf: String::new(),
        }
    }

    /// Wraps any buffered reader (tests, pipes).
    pub fn from_reader(label: impl Into<String>, reader: impl BufRead + Send + 'static) -> Self {
        Self {
            label: label.into(),
            path: None,
            reader: Box::new(reader),
            line: 0,
            buf: String::new(),
        }
    }

    /// Reads up to the next non-blank line into `self.buf`; `false` means
    /// end of input.
    fn next_line(&mut self) -> Result<bool, StreamError> {
        loop {
            self.buf.clear();
            if self.reader.read_line(&mut self.buf)? == 0 {
                return Ok(false);
            }
            self.line += 1;
            if !self.buf.trim().is_empty() {
                return Ok(true);
            }
        }
    }
}

/// The last value of each `pka.kernel_record/v1` member the decoder reads,
/// as a JSON object would keep it (a repeated key's last occurrence wins).
#[derive(Default)]
struct RecordMembers {
    id: Option<Value>,
    name: Option<Value>,
    grid_blocks: Option<Value>,
    block_threads: Option<Value>,
    shared_mem_bytes: Option<Value>,
    tensor_elements: Option<Value>,
    cycles: Option<Value>,
    seconds: Option<Value>,
    dram_util_pct: Option<Value>,
    l2_miss_rate_pct: Option<Value>,
    metrics: Option<Value>,
}

impl RecordMembers {
    /// Keeps `value` when `key` is one of the record's members; any other
    /// member was parsed (and so validated) and is dropped.
    fn set(&mut self, key: &str, value: Value) {
        let slot = match key {
            "id" => &mut self.id,
            "name" => &mut self.name,
            "grid_blocks" => &mut self.grid_blocks,
            "block_threads" => &mut self.block_threads,
            "shared_mem_bytes" => &mut self.shared_mem_bytes,
            "tensor_elements" => &mut self.tensor_elements,
            "cycles" => &mut self.cycles,
            "seconds" => &mut self.seconds,
            "dram_util_pct" => &mut self.dram_util_pct,
            "l2_miss_rate_pct" => &mut self.l2_miss_rate_pct,
            "metrics" => &mut self.metrics,
            _ => return,
        };
        *slot = Some(value);
    }
}

/// Parses one `pka.kernel_record/v1` JSONL line (the format
/// [`SourceRecord::to_jsonl`] emits) into a [`SourceRecord`]. `line` is the
/// 1-based position used in parse errors. The detailed view is only
/// extracted when `want_detailed` is set — exactly [`JsonlSource`]'s
/// behaviour, which also backs [`FeedSource`] so records fed over the wire
/// parse byte-for-byte like records read from a file.
///
/// The line is fully validated as JSON, but no object is built: the
/// record's members land in fixed slots as they are parsed, and a tail
/// record allocates only its name.
fn parse_record_line(
    text: &str,
    line: u64,
    want_detailed: bool,
) -> Result<SourceRecord, StreamError> {
    let bad = |message: String| StreamError::Parse { line, message };
    let mut members = RecordMembers::default();
    let is_object = serde_json::walk_object(text.trim(), |key, value| members.set(&key, value))
        .map_err(|e| bad(format!("invalid json: {e}")))?;
    if !is_object {
        return Err(bad("record is not a json object".into()));
    }
    let req_u64 = |value: &Option<Value>, key: &str| -> Result<u64, StreamError> {
        value
            .as_ref()
            .and_then(Value::as_u64)
            .ok_or_else(|| bad(format!("missing or non-integer `{key}`")))
    };
    let Some(Value::String(name)) = members.name else {
        return Err(bad("missing `name`".into()));
    };
    let kernel_id = KernelId::new(req_u64(&members.id, "id")?);
    let grid_blocks = req_u64(&members.grid_blocks, "grid_blocks")?;
    let block_threads = u32::try_from(req_u64(&members.block_threads, "block_threads")?)
        .map_err(|_| bad("`block_threads` exceeds u32".into()))?;
    let shared_mem_bytes = u32::try_from(req_u64(&members.shared_mem_bytes, "shared_mem_bytes")?)
        .map_err(|_| bad("`shared_mem_bytes` exceeds u32".into()))?;
    let tensor_elements = req_u64(&members.tensor_elements, "tensor_elements")?;
    let lightweight = |name| LightweightRecord {
        kernel_id,
        name,
        grid_blocks,
        block_threads,
        shared_mem_bytes,
        tensor_elements,
    };
    if !want_detailed {
        return Ok(SourceRecord {
            lightweight: lightweight(name),
            detailed: None,
        });
    }
    let req_f64 = |value: &Option<Value>, key: &str| -> Result<f64, StreamError> {
        value
            .as_ref()
            .and_then(Value::as_f64)
            .ok_or_else(|| bad(format!("detailed prefix record missing `{key}`")))
    };
    let Some(Value::Object(metrics)) = &members.metrics else {
        return Err(bad("detailed prefix record missing `metrics` object".into()));
    };
    let metric = |key: &str| -> Result<f64, StreamError> {
        metrics
            .get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| bad(format!("metrics missing `{key}`")))
    };
    let metrics = KernelMetrics {
        coalesced_global_loads: metric("coalesced_global_loads")?,
        coalesced_global_stores: metric("coalesced_global_stores")?,
        coalesced_local_loads: metric("coalesced_local_loads")?,
        thread_global_loads: metric("thread_global_loads")?,
        thread_global_stores: metric("thread_global_stores")?,
        thread_local_loads: metric("thread_local_loads")?,
        thread_shared_loads: metric("thread_shared_loads")?,
        thread_shared_stores: metric("thread_shared_stores")?,
        thread_global_atomics: metric("thread_global_atomics")?,
        instructions: metric("instructions")?,
        divergence_efficiency: metric("divergence_efficiency")?,
        thread_blocks: metrics
            .get("thread_blocks")
            .and_then(Value::as_u64)
            .ok_or_else(|| bad("metrics missing `thread_blocks`".into()))?,
    };
    let detailed = DetailedRecord {
        kernel_id,
        name: name.clone(),
        metrics,
        cycles: req_u64(&members.cycles, "cycles")?,
        seconds: req_f64(&members.seconds, "seconds")?,
        dram_util_pct: req_f64(&members.dram_util_pct, "dram_util_pct")?,
        l2_miss_rate_pct: req_f64(&members.l2_miss_rate_pct, "l2_miss_rate_pct")?,
    };
    Ok(SourceRecord {
        lightweight: lightweight(name),
        detailed: Some(detailed),
    })
}

impl KernelSource for JsonlSource {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn len_hint(&self) -> Option<u64> {
        None
    }

    fn next_record(&mut self, want_detailed: bool) -> Result<Option<SourceRecord>, StreamError> {
        if !self.next_line()? {
            return Ok(None);
        }
        parse_record_line(&self.buf, self.line, want_detailed).map(Some)
    }

    fn skip(&mut self, n: u64) -> Result<u64, StreamError> {
        // Lines are skipped without parsing — resume fast-forwards through
        // the already-processed region at I/O speed.
        let mut skipped = 0;
        while skipped < n && self.next_line()? {
            skipped += 1;
        }
        Ok(skipped)
    }

    fn restart(&mut self) -> Result<(), StreamError> {
        let Some(path) = &self.path else {
            return Err(StreamError::NotRestartable);
        };
        let file = File::open(path)?;
        self.reader = Box::new(BufReader::new(file));
        self.line = 0;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Incremental feed
// ---------------------------------------------------------------------------

/// Shared state between a [`FeedSource`] and its [`FeedHandle`]s: a bounded
/// queue of raw `pka.kernel_record/v1` POST bodies plus the end-of-feed /
/// abandoned flags. Raw text (not parsed records) is queued so the consumer
/// side parses with the `want_detailed` flag the pipeline actually asked
/// for — byte-for-byte the same records a [`JsonlSource`] over the
/// concatenated bodies would produce.
struct FeedShared {
    queue: Mutex<FeedQueue>,
    /// Signalled when a body arrives, the feed finishes, or it is abandoned.
    ready: Condvar,
    /// Signalled when queue space frees up (producer back-pressure).
    space: Condvar,
}

impl FeedShared {
    /// Every update leaves the queue valid, so a holder's panic poisons
    /// nothing the other side cannot keep using.
    fn lock(&self) -> MutexGuard<'_, FeedQueue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn abandon(&self) {
        let mut queue = self.lock();
        queue.abandoned = true;
        queue.finished = true;
        drop(queue);
        self.ready.notify_all();
        self.space.notify_all();
    }
}

/// One pushed body and its record (non-blank line) count.
struct FeedBatch {
    text: String,
    records: usize,
}

struct FeedQueue {
    batches: VecDeque<FeedBatch>,
    /// Records across `batches`: the quantity `capacity` bounds.
    queued: usize,
    /// Producer promised no more records.
    finished: bool,
    /// Consumer side told producers to stop (teardown): pushes fail fast
    /// instead of blocking on a queue nobody will drain.
    abandoned: bool,
    capacity: usize,
}

/// Producer half of an in-process record feed: push JSONL bodies in, their
/// records come out of the paired [`FeedSource`] in order. Cloneable; all
/// clones share the queue.
#[derive(Clone)]
pub struct FeedHandle {
    shared: Arc<FeedShared>,
}

impl FeedHandle {
    /// Queues one body of `pka.kernel_record/v1` JSONL lines and returns
    /// how many records (non-blank lines) it carries. The body is one unit:
    /// it is copied once and queued whole, or not at all.
    ///
    /// Blocks while the body does not fit in the queue's capacity (bounded
    /// memory back-pressure). A body larger than the whole capacity is
    /// admitted once the queue is empty, so the queue holds at most
    /// `max(capacity, largest body)` records.
    ///
    /// The body's last line ends at the end of the body even without a
    /// trailing newline; it never joins the next body's first line.
    ///
    /// # Errors
    ///
    /// [`StreamError::Source`] when the feed was already finished, or when
    /// the consumer abandoned it (session teardown, or the [`FeedSource`]
    /// was dropped). Nothing of a failed body is queued.
    pub fn push_lines(&self, text: &str) -> Result<u64, StreamError> {
        let records = text.lines().filter(|l| !l.trim().is_empty()).count();
        let batch = FeedBatch {
            text: text.to_owned(),
            records,
        };
        let mut queue = self.shared.lock();
        loop {
            if queue.abandoned {
                return Err(StreamError::Source {
                    message: "feed abandoned: the consuming session was torn down".into(),
                });
            }
            if queue.finished {
                return Err(StreamError::Source {
                    message: "feed already finished: no more records accepted".into(),
                });
            }
            if queue.queued == 0 || queue.queued + records <= queue.capacity {
                break;
            }
            queue = self
                .shared
                .space
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
        }
        queue.queued += records;
        queue.batches.push_back(batch);
        drop(queue);
        self.shared.ready.notify_all();
        Ok(records as u64)
    }

    /// Marks the feed complete: the paired [`FeedSource`] reports end of
    /// stream once the queue drains. Idempotent.
    pub fn finish(&self) {
        self.shared.lock().finished = true;
        self.shared.ready.notify_all();
        self.shared.space.notify_all();
    }

    /// Marks the feed abandoned: blocked and future pushes fail, and the
    /// paired [`FeedSource`] reports end of stream once the queue drains —
    /// the consumer folds what it already has and stops cleanly. Used by
    /// session teardown together with a
    /// [`CancelToken`](crate::CancelToken). Idempotent.
    pub fn abandon(&self) {
        self.shared.abandon();
    }

    /// Records queued and not yet taken by the consumer: at most
    /// `max(capacity, largest body)`.
    pub fn buffered(&self) -> usize {
        self.shared.lock().queued
    }
}

/// A [`KernelSource`] fed incrementally by a [`FeedHandle`] — the
/// `pka-server` streaming-session transport. Records arrive as raw
/// `pka.kernel_record/v1` JSONL bodies and are parsed on consumption with
/// the pipeline's own `want_detailed` flag, so a feed carrying a file's
/// lines is indistinguishable from a [`JsonlSource`] over that file: the
/// same records, and the same parse errors at the same line numbers (blank
/// lines count, as in the file). Bodies are independent: each one's last
/// line ends with the body, with or without a trailing newline.
///
/// The queue is bounded in records: producers block at `capacity`, except
/// that one body larger than the capacity is admitted into an empty queue.
/// Per-session memory is O(max(capacity, largest body)) on top of the
/// pipeline's own budget. The consumer takes the queue lock once per body,
/// not once per record, and walks the body's lines in place.
///
/// Not restartable (records are consumed as they stream through), so
/// `--verify-batch`-style re-reads and in-place resume are unavailable;
/// resume a checkpoint against a restartable source carrying the same
/// records (the label names it). Dropping the source abandons the feed.
pub struct FeedSource {
    shared: Arc<FeedShared>,
    label: String,
    /// The body being consumed, and the byte offset of its next line.
    batch: String,
    pos: usize,
    /// Physical lines consumed so far, blank ones included.
    line: u64,
}

impl FeedSource {
    /// Creates a feed with the given source label (use the name of the
    /// restartable source the records come from, e.g. `jsonl:records.jsonl`
    /// — checkpoints embed it, and resume matches on it) and queue
    /// capacity in records.
    pub fn new(label: impl Into<String>, capacity: usize) -> (Self, FeedHandle) {
        let shared = Arc::new(FeedShared {
            queue: Mutex::new(FeedQueue {
                batches: VecDeque::new(),
                queued: 0,
                finished: false,
                abandoned: false,
                capacity: capacity.max(1),
            }),
            ready: Condvar::new(),
            space: Condvar::new(),
        });
        let source = Self {
            shared: Arc::clone(&shared),
            label: label.into(),
            batch: String::new(),
            pos: 0,
            line: 0,
        };
        (source, FeedHandle { shared })
    }

    /// Advances past the next non-blank line and returns its byte range in
    /// `self.batch`, blocking for the next body when this one is spent;
    /// `None` means end of feed.
    fn next_line(&mut self) -> Option<Range<usize>> {
        loop {
            while self.pos < self.batch.len() {
                let start = self.pos;
                let rest = &self.batch[start..];
                self.pos += rest.find('\n').map_or(rest.len(), |i| i + 1);
                self.line += 1;
                if !self.batch[start..self.pos].trim().is_empty() {
                    return Some(start..self.pos);
                }
            }
            self.batch = self.pop_batch()?;
            self.pos = 0;
        }
    }

    /// Blocks until a body is queued or the feed is finished, and takes it.
    fn pop_batch(&self) -> Option<String> {
        let mut queue = self.shared.lock();
        loop {
            if let Some(batch) = queue.batches.pop_front() {
                queue.queued -= batch.records;
                drop(queue);
                self.shared.space.notify_all();
                return Some(batch.text);
            }
            if queue.finished {
                return None;
            }
            queue = self
                .shared
                .ready
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl Drop for FeedSource {
    // Nobody drains the queue any more: fail producers instead of leaving
    // one blocked on a full queue.
    fn drop(&mut self) {
        self.shared.abandon();
    }
}

impl KernelSource for FeedSource {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn len_hint(&self) -> Option<u64> {
        None
    }

    fn next_record(&mut self, want_detailed: bool) -> Result<Option<SourceRecord>, StreamError> {
        match self.next_line() {
            None => Ok(None),
            Some(range) => Ok(Some(parse_record_line(
                &self.batch[range],
                self.line,
                want_detailed,
            )?)),
        }
    }

    fn skip(&mut self, n: u64) -> Result<u64, StreamError> {
        let mut skipped = 0;
        while skipped < n && self.next_line().is_some() {
            skipped += 1;
        }
        Ok(skipped)
    }

    fn restart(&mut self) -> Result<(), StreamError> {
        Err(StreamError::NotRestartable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pka_gpu::GpuConfig;
    use proptest::TestRng;
    use serde_json::Map;

    #[test]
    fn synthetic_workload_has_exact_count_and_varied_kernels() {
        for n in [1u64, 4, 5, 7, 1000] {
            let w = synthetic_workload(n);
            assert_eq!(w.kernel_count(), n, "n={n}");
        }
        let w = synthetic_workload(100);
        let names: std::collections::BTreeSet<String> = (0..10)
            .map(|i| w.kernel(KernelId::new(i)).name().to_string())
            .collect();
        assert!(names.len() >= 5, "expected 5 distinct operators: {names:?}");
    }

    #[test]
    fn workload_source_streams_in_order_and_restarts() {
        let mut src = WorkloadSource::new(synthetic_workload(12), Profiler::new(GpuConfig::v100()));
        assert_eq!(src.len_hint(), Some(12));
        let first = src.next_record(true).unwrap().unwrap();
        assert_eq!(first.lightweight.kernel_id, KernelId::new(0));
        assert!(first.detailed.is_some());
        let second = src.next_record(false).unwrap().unwrap();
        assert_eq!(second.lightweight.kernel_id, KernelId::new(1));
        assert!(second.detailed.is_none());
        assert_eq!(src.skip(100).unwrap(), 10);
        assert!(src.next_record(false).unwrap().is_none());
        src.restart().unwrap();
        let again = src.next_record(true).unwrap().unwrap();
        assert_eq!(again.detailed, first.detailed);
    }

    #[test]
    fn feature_fast_path_is_bit_identical_to_records() {
        // The launch-view override must produce exactly the floats the
        // record-materialising path produces, for every launch across the
        // synthetic operator and grid cycles.
        let n = 2_500u64;
        let profiler = Profiler::new(GpuConfig::v100());
        let mut fast = WorkloadSource::new(synthetic_workload(n), profiler.clone());
        let mut slow = WorkloadSource::new(synthetic_workload(n), profiler);
        let mut features = Vec::new();
        for i in 0..n {
            features.clear();
            assert!(fast.next_features_into(&mut features).unwrap());
            let rec = slow.next_record(false).unwrap().unwrap();
            let reference = rec.lightweight.to_feature_vector();
            assert_eq!(features, reference, "launch {i}");
        }
        assert!(!fast.next_features_into(&mut features).unwrap());
    }

    #[test]
    fn default_feature_path_appends_and_signals_end() {
        let w = synthetic_workload(3);
        let profiler = Profiler::new(GpuConfig::v100());
        let mut via_jsonl = {
            let mut src = WorkloadSource::new(w, profiler);
            let mut lines = String::new();
            while let Some(rec) = src.next_record(false).unwrap() {
                lines.push_str(&rec.to_jsonl());
                lines.push('\n');
            }
            JsonlSource::from_reader("jsonl:test", std::io::Cursor::new(lines))
        };
        let mut out = Vec::new();
        for pulled in 0..3 {
            assert!(via_jsonl.next_features_into(&mut out).unwrap());
            assert_eq!(out.len(), (pulled + 1) * LightweightRecord::FEATURE_COUNT);
        }
        assert!(!via_jsonl.next_features_into(&mut out).unwrap());
        assert_eq!(out.len(), 3 * LightweightRecord::FEATURE_COUNT);
    }

    #[test]
    fn records_source_matches_workload_source() {
        let w = synthetic_workload(8);
        let profiler = Profiler::new(GpuConfig::v100());
        let mut a = WorkloadSource::new(w.clone(), profiler.clone());
        let mut b = RecordsSource::profile(&w, &profiler).unwrap();
        for _ in 0..8 {
            let ra = a.next_record(true).unwrap().unwrap();
            let rb = b.next_record(true).unwrap().unwrap();
            assert_eq!(ra, rb);
        }
        assert!(b.next_record(true).unwrap().is_none());
    }

    #[test]
    fn jsonl_roundtrip_preserves_both_views() {
        let w = synthetic_workload(6);
        let profiler = Profiler::new(GpuConfig::v100());
        let mut src = WorkloadSource::new(w, profiler);
        let mut lines = String::new();
        let mut originals = Vec::new();
        while let Some(rec) = src.next_record(true).unwrap() {
            lines.push_str(&rec.to_jsonl());
            lines.push('\n');
            originals.push(rec);
        }
        let mut parsed = JsonlSource::from_reader("jsonl:test", std::io::Cursor::new(lines));
        for original in &originals {
            let got = parsed.next_record(true).unwrap().unwrap();
            assert_eq!(got.lightweight, original.lightweight);
            let (g, o) = (got.detailed.unwrap(), original.detailed.clone().unwrap());
            assert_eq!(g.kernel_id, o.kernel_id);
            assert_eq!(g.cycles, o.cycles);
            assert_eq!(g.metrics.thread_blocks, o.metrics.thread_blocks);
            assert_eq!(g.metrics.to_feature_vector(), o.metrics.to_feature_vector());
        }
        assert!(parsed.next_record(false).unwrap().is_none());
    }

    #[test]
    fn jsonl_prefix_without_detailed_fields_errors() {
        let line = r#"{"id":0,"name":"k","grid_blocks":8,"block_threads":64,"shared_mem_bytes":0,"tensor_elements":512}"#;
        let mut src =
            JsonlSource::from_reader("jsonl:test", std::io::Cursor::new(line.to_string()));
        // Lightweight pull succeeds ...
        let mut src2 =
            JsonlSource::from_reader("jsonl:test", std::io::Cursor::new(line.to_string()));
        assert!(src2.next_record(false).unwrap().is_some());
        // ... but a detailed pull over the same line reports the gap.
        match src.next_record(true) {
            Err(StreamError::Parse { line: 1, .. }) => {}
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn stdin_like_sources_refuse_restart() {
        let mut src = JsonlSource::from_reader("jsonl:-", std::io::Cursor::new(String::new()));
        assert_eq!(src.restart(), Err(StreamError::NotRestartable));
    }

    /// Records pulled from a feed carrying a file's lines are identical to
    /// records read from the file itself — both views, in order.
    #[test]
    fn feed_source_matches_jsonl_source() {
        let workload = synthetic_workload(40);
        let profiler = Profiler::new(GpuConfig::v100());
        let records = RecordsSource::profile(&workload, &profiler).unwrap();
        let mut lines = String::new();
        let mut reference = Vec::new();
        let mut src = records;
        while let Some(r) = src.next_record(true).unwrap() {
            lines.push_str(&r.to_jsonl());
            lines.push('\n');
            reference.push(r);
        }

        let (mut feed, handle) = FeedSource::new("jsonl:feed-test", 8);
        let mut jsonl =
            JsonlSource::from_reader("jsonl:feed-test", std::io::Cursor::new(lines.clone()));
        let producer = std::thread::spawn(move || {
            let pushed = handle.push_lines(&lines).unwrap();
            handle.finish();
            pushed
        });
        assert_eq!(feed.name(), "jsonl:feed-test");
        for (i, original) in reference.iter().enumerate() {
            let want_detailed = i < 10;
            let from_feed = feed.next_record(want_detailed).unwrap().unwrap();
            let from_file = jsonl.next_record(want_detailed).unwrap().unwrap();
            assert_eq!(from_feed.lightweight, from_file.lightweight);
            assert_eq!(
                from_feed.detailed.is_some(),
                from_file.detailed.is_some(),
                "record {i}"
            );
            assert_eq!(
                from_feed.lightweight.kernel_id,
                original.lightweight.kernel_id
            );
        }
        assert!(feed.next_record(false).unwrap().is_none());
        assert!(jsonl.next_record(false).unwrap().is_none());
        assert_eq!(producer.join().unwrap(), reference.len() as u64);
        assert_eq!(feed.restart(), Err(StreamError::NotRestartable));
    }

    fn lightweight_line(id: u64) -> String {
        format!(
            r#"{{"id":{id},"name":"k","grid_blocks":8,"block_threads":64,"shared_mem_bytes":0,"tensor_elements":512}}"#
        )
    }

    /// The queue is bounded in records: a producer pushing past capacity
    /// blocks until the consumer drains, one body larger than the capacity
    /// is admitted into an empty queue, and no record is lost or reordered.
    #[test]
    fn feed_backpressure_blocks_and_preserves_order() {
        const CAPACITY: usize = 4;
        // A small body, then the largest: it may enter only once the small
        // one is taken.
        let sizes = [2usize, 12, 1, 3, 4, 7, 2, 9, 1, 4, 5, 3];
        let bound = CAPACITY.max(12);
        let mut bodies = Vec::new();
        let mut id = 0u64;
        for (i, &n) in sizes.iter().enumerate() {
            let mut body = String::new();
            for _ in 0..n {
                body.push_str(&lightweight_line(id));
                body.push('\n');
                if id.is_multiple_of(3) {
                    body.push('\n');
                }
                id += 1;
            }
            if i % 2 == 1 {
                body.pop();
            }
            bodies.push(body);
        }
        let total = id;

        let (mut feed, handle) = FeedSource::new("jsonl:bp", CAPACITY);
        let producer = {
            let handle = handle.clone();
            std::thread::spawn(move || {
                let pushed: Vec<_> = bodies.iter().map(|b| handle.push_lines(b)).collect();
                handle.finish();
                pushed
            })
        };
        let mut seen = Vec::new();
        loop {
            // The bound holds in every interleaving; a slow consumer lets
            // the producer run into it, so an over-eager admission shows.
            std::thread::sleep(std::time::Duration::from_millis(1));
            let buffered = handle.buffered();
            assert!(buffered <= bound, "{buffered} > {bound}");
            let Some(r) = feed.next_record(false).unwrap() else {
                break;
            };
            seen.push(r.lightweight.kernel_id.index());
        }
        assert_eq!(seen, (0..total).collect::<Vec<_>>());
        let pushed = producer.join().unwrap();
        let want: Vec<_> = sizes.iter().map(|&n| Ok(n as u64)).collect();
        assert_eq!(pushed, want);
        assert_eq!(handle.buffered(), 0);
    }

    /// Abandoning the feed fails a blocked producer fast without queueing
    /// any of its body, and ends the stream for the consumer once the
    /// queued records drain.
    #[test]
    fn feed_abandon_unblocks_producer_and_ends_stream() {
        let body = |ids: std::ops::Range<u64>| -> String {
            ids.map(|id| lightweight_line(id) + "\n").collect()
        };
        let (mut feed, handle) = FeedSource::new("jsonl:abandon", 2);
        // Three records exceed the capacity but enter the empty queue.
        assert_eq!(handle.push_lines(&body(0..3)).unwrap(), 3);
        let blocked = {
            let handle = handle.clone();
            let next = body(3..4);
            std::thread::spawn(move || handle.push_lines(&next))
        };
        // The sleep makes it likely that the producer is waiting on the
        // full queue when `abandon` lands; if it has not reached the queue
        // yet, it meets the abandoned flag instead and must fail the same.
        std::thread::sleep(std::time::Duration::from_millis(20));
        handle.abandon();
        assert!(matches!(
            blocked.join().unwrap(),
            Err(StreamError::Source { .. })
        ));
        assert_eq!(handle.buffered(), 3, "the failed body queued nothing");
        for id in 0..3 {
            let r = feed.next_record(false).unwrap().unwrap();
            assert_eq!(r.lightweight.kernel_id.index(), id);
        }
        assert!(feed.next_record(false).unwrap().is_none());
        assert!(matches!(
            handle.push_lines(&body(4..5)),
            Err(StreamError::Source { .. })
        ));
    }

    /// A producer blocked on a feed whose consumer is gone fails instead of
    /// waiting forever.
    #[test]
    fn dropping_the_feed_source_fails_blocked_producers() {
        let (feed, handle) = FeedSource::new("jsonl:dropped", 1);
        handle.push_lines(&(lightweight_line(0) + "\n")).unwrap();
        let blocked = {
            let handle = handle.clone();
            std::thread::spawn(move || handle.push_lines(&(lightweight_line(1) + "\n")))
        };
        drop(feed);
        assert!(matches!(
            blocked.join().unwrap(),
            Err(StreamError::Source { .. })
        ));
    }

    /// Feeds `bodies` (pushed from another thread into a queue of
    /// `capacity` records) and reads the same text through a
    /// [`JsonlSource`] over the bodies' concatenation, a newline closing any
    /// body that lacks one. Pull `i` asks for the detailed view when
    /// `i < want_detailed`; every `skip_every`-th pull skips two records
    /// instead. Returns the first mismatch, if any.
    fn feed_vs_jsonl(
        bodies: &[String],
        capacity: usize,
        want_detailed: usize,
        skip_every: usize,
    ) -> Result<(), String> {
        let mut text = String::new();
        for body in bodies {
            text.push_str(body);
            if !body.is_empty() && !body.ends_with('\n') {
                text.push('\n');
            }
        }
        let mut jsonl = JsonlSource::from_reader("jsonl:eq", std::io::Cursor::new(text));
        let (mut feed, handle) = FeedSource::new("jsonl:eq", capacity);
        std::thread::scope(|scope| {
            let producer = scope.spawn(|| {
                for body in bodies {
                    // Fails only once the consumer below stops early.
                    if handle.push_lines(body).is_err() {
                        return;
                    }
                }
                handle.finish();
            });
            let outcome = pull_both(&mut feed, &mut jsonl, want_detailed, skip_every);
            handle.abandon();
            producer.join().unwrap();
            outcome
        })
    }

    /// Pulls `a` and `b` in lockstep until either ends or fails, and
    /// returns the first pull on which they disagree.
    fn pull_both(
        a: &mut impl KernelSource,
        b: &mut impl KernelSource,
        want_detailed: usize,
        skip_every: usize,
    ) -> Result<(), String> {
        let mut i = 0;
        loop {
            if skip_every > 0 && i % skip_every == skip_every - 1 {
                let (x, y) = (a.skip(2), b.skip(2));
                if x != y {
                    return Err(format!("pull {i}: skip {x:?} != {y:?}"));
                }
                if x != Ok(2) {
                    return Ok(());
                }
            } else {
                let want = i < want_detailed;
                let (x, y) = (a.next_record(want), b.next_record(want));
                if x != y {
                    return Err(format!("pull {i}: {x:?} != {y:?}"));
                }
                if !matches!(x, Ok(Some(_))) {
                    return Ok(());
                }
            }
            i += 1;
        }
    }

    #[test]
    fn feed_parse_errors_count_blank_lines_like_the_file() {
        let bodies = [
            format!("\n{}\n", lightweight_line(0)),
            format!("\r\n  \n{}", lightweight_line(1)),
            "\n{\"id\": 2,\n".to_string(),
        ];
        feed_vs_jsonl(&bodies, 8, 0, 0).unwrap();
        let (mut feed, handle) = FeedSource::new("jsonl:blank", 8);
        for body in &bodies {
            handle.push_lines(body).unwrap();
        }
        handle.finish();
        assert!(feed.next_record(false).unwrap().is_some());
        assert!(feed.next_record(false).unwrap().is_some());
        match feed.next_record(false) {
            Err(StreamError::Parse { line: 7, .. }) => {}
            other => panic!("expected a parse error on line 7, got {other:?}"),
        }
    }

    /// Ten JSONL lines with the detailed fields, so any pull may ask for
    /// the detailed view.
    fn detailed_lines() -> &'static [String] {
        static LINES: std::sync::OnceLock<Vec<String>> = std::sync::OnceLock::new();
        LINES.get_or_init(|| {
            let w = synthetic_workload(10);
            let mut src = RecordsSource::profile(&w, &Profiler::new(GpuConfig::v100())).unwrap();
            let mut lines = Vec::new();
            while let Some(r) = src.next_record(true).unwrap() {
                lines.push(r.to_jsonl());
            }
            lines
        })
    }

    /// Random JSONL text split into random bodies: valid records with and
    /// without the detailed fields, blank and whitespace-only lines, `\r\n`
    /// endings, bodies without a trailing newline, empty bodies and,
    /// sometimes, one malformed line. Returns the bodies and a capacity
    /// below the largest body's record count whenever one holds two.
    fn random_bodies(rng: &mut TestRng, detailed: &[String]) -> (Vec<String>, usize) {
        const MALFORMED: [&str; 4] = [
            "{\"id\": 3, \"name\": \"k\"",
            "[1, 2, 3]",
            "{\"id\": 1, \"name\": \"k\"}",
            "not json",
        ];
        let n_lines = 1 + rng.next_below(60) as usize;
        let malformed_at =
            (rng.next_below(3) == 0).then(|| rng.next_below(n_lines as u64) as usize);
        let mut lines = Vec::with_capacity(n_lines);
        for i in 0..n_lines {
            let content = if Some(i) == malformed_at {
                MALFORMED[rng.next_below(MALFORMED.len() as u64) as usize].to_string()
            } else {
                match rng.next_below(10) {
                    0 | 1 => String::new(),
                    2 => " \t ".to_string(),
                    3 => lightweight_line(i as u64),
                    _ => detailed[rng.next_below(detailed.len() as u64) as usize].clone(),
                }
            };
            let end = if rng.next_below(3) == 0 { "\r\n" } else { "\n" };
            lines.push(content + end);
        }
        let mut bodies = Vec::new();
        let mut rest = &lines[..];
        while !rest.is_empty() || rng.next_below(8) == 0 {
            let take = rng.next_below(rest.len() as u64 + 1) as usize;
            let mut body: String = rest[..take].concat();
            rest = &rest[take..];
            if rng.next_below(3) == 0 {
                let trimmed = body.trim_end_matches(['\r', '\n']).len();
                body.truncate(trimmed);
            }
            bodies.push(body);
        }
        let largest = bodies
            .iter()
            .map(|b| b.lines().filter(|l| !l.trim().is_empty()).count())
            .max()
            .unwrap_or(0);
        let capacity = if largest >= 2 {
            1 + rng.next_below(largest as u64 - 1) as usize
        } else {
            1
        };
        (bodies, capacity)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// A feed is a [`JsonlSource`] over its bodies: the same records in
        /// both views, the same skips, and the same parse error at the same
        /// line number, however the text is split into bodies.
        #[test]
        fn feed_equals_jsonl_over_its_bodies(seed in proptest::any::<u64>()) {
            let mut rng = TestRng::from_seed(seed);
            let (bodies, capacity) = random_bodies(&mut rng, detailed_lines());
            let want_detailed = rng.next_below(12) as usize;
            let skip_every = rng.next_below(6) as usize;
            if let Err(e) = feed_vs_jsonl(&bodies, capacity, want_detailed, skip_every) {
                proptest::prop_assert!(false, "{e}\nbodies: {bodies:?} capacity {capacity}");
            }
        }
    }

    /// The decoder this module had before records were walked without a
    /// tree: `from_str::<Value>`, then field lookups in the map. Kept as
    /// the differential oracle for [`parse_record_line`].
    fn parse_record_line_tree(
        text: &str,
        line: u64,
        want_detailed: bool,
    ) -> Result<SourceRecord, StreamError> {
        {
            let bad = |message: String| StreamError::Parse { line, message };
            let value: Value =
                serde_json::from_str(text.trim()).map_err(|e| bad(format!("invalid json: {e}")))?;
            let Value::Object(obj) = &value else {
                return Err(bad("record is not a json object".into()));
            };
            let req_u64 = |key: &str| -> Result<u64, StreamError> {
                obj.get(key)
                    .and_then(Value::as_u64)
                    .ok_or_else(|| bad(format!("missing or non-integer `{key}`")))
            };
            let name = obj
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| bad("missing `name`".into()))?
                .to_string();
            let kernel_id = KernelId::new(req_u64("id")?);
            let lightweight = LightweightRecord {
                kernel_id,
                name: name.clone(),
                grid_blocks: req_u64("grid_blocks")?,
                block_threads: u32::try_from(req_u64("block_threads")?)
                    .map_err(|_| bad("`block_threads` exceeds u32".into()))?,
                shared_mem_bytes: u32::try_from(req_u64("shared_mem_bytes")?)
                    .map_err(|_| bad("`shared_mem_bytes` exceeds u32".into()))?,
                tensor_elements: req_u64("tensor_elements")?,
            };
            if !want_detailed {
                return Ok(SourceRecord {
                    lightweight,
                    detailed: None,
                });
            }
            let req_f64 = |key: &str| -> Result<f64, StreamError> {
                obj.get(key)
                    .and_then(Value::as_f64)
                    .ok_or_else(|| bad(format!("detailed prefix record missing `{key}`")))
            };
            let Some(Value::Object(metrics)) = obj.get("metrics") else {
                return Err(bad("detailed prefix record missing `metrics` object".into()));
            };
            let metric = |key: &str| -> Result<f64, StreamError> {
                metrics
                    .get(key)
                    .and_then(Value::as_f64)
                    .ok_or_else(|| bad(format!("metrics missing `{key}`")))
            };
            let detailed = DetailedRecord {
                kernel_id,
                name,
                metrics: KernelMetrics {
                    coalesced_global_loads: metric("coalesced_global_loads")?,
                    coalesced_global_stores: metric("coalesced_global_stores")?,
                    coalesced_local_loads: metric("coalesced_local_loads")?,
                    thread_global_loads: metric("thread_global_loads")?,
                    thread_global_stores: metric("thread_global_stores")?,
                    thread_local_loads: metric("thread_local_loads")?,
                    thread_shared_loads: metric("thread_shared_loads")?,
                    thread_shared_stores: metric("thread_shared_stores")?,
                    thread_global_atomics: metric("thread_global_atomics")?,
                    instructions: metric("instructions")?,
                    divergence_efficiency: metric("divergence_efficiency")?,
                    thread_blocks: metrics
                        .get("thread_blocks")
                        .and_then(Value::as_u64)
                        .ok_or_else(|| bad("metrics missing `thread_blocks`".into()))?,
                },
                cycles: req_u64("cycles")?,
                seconds: req_f64("seconds")?,
                dram_util_pct: req_f64("dram_util_pct")?,
                l2_miss_rate_pct: req_f64("l2_miss_rate_pct")?,
            };
            Ok(SourceRecord {
                lightweight,
                detailed: Some(detailed),
            })
        }
    }

    /// A record line as an ordered list of `(key, value)` JSON texts, so a
    /// mutation can repeat, reorder or re-spell keys as raw text can.
    fn members_of(line: &str) -> Vec<(String, String)> {
        let Value::Object(map) = serde_json::from_str(line).unwrap() else {
            unreachable!("record lines are objects")
        };
        map.into_iter()
            .map(|(k, v)| (Value::String(k).to_string(), v.to_string()))
            .collect()
    }

    fn render(members: &[(String, String)], rng: &mut TestRng) -> String {
        let ws = |rng: &mut TestRng| [" ", "", "\t", ""][rng.next_below(4) as usize];
        let body: Vec<String> = members
            .iter()
            .map(|(k, v)| format!("{}{k}{}:{}{v}", ws(rng), ws(rng), ws(rng)))
            .collect();
        format!("{{{}}}", body.join(","))
    }

    /// One random record line, valid or damaged: duplicate keys, escaped
    /// keys, unknown and nested members, a wrong type or a missing field
    /// (top level or in `metrics`), a non-object document, trailing
    /// characters, truncation or one overwritten byte.
    fn mutated_line(rng: &mut TestRng, detailed: &[String]) -> String {
        const WRONG: [&str; 12] = [
            "\"7\"",
            "-3",
            "2.5",
            "1e400",
            "18446744073709551616",
            "4294967296",
            "true",
            "null",
            "[]",
            "{}",
            "{\"instructions\":1}",
            "\"\"",
        ];
        let source = if rng.next_below(3) == 0 {
            lightweight_line(rng.next_below(1 << 20))
        } else {
            detailed[rng.next_below(detailed.len() as u64) as usize].clone()
        };
        let mut members = members_of(&source);
        let pick = |rng: &mut TestRng, n: usize| rng.next_below(n as u64) as usize;
        for _ in 0..rng.next_below(3) {
            let i = pick(rng, members.len());
            match rng.next_below(9) {
                0 => {
                    // Repeat a member, before (the original wins) or after
                    // (the copy wins) with a random value.
                    let dup = (
                        members[i].0.clone(),
                        WRONG[pick(rng, WRONG.len())].to_string(),
                    );
                    let at = if rng.next_below(2) == 0 {
                        0
                    } else {
                        members.len()
                    };
                    members.insert(at, dup);
                }
                1 => {
                    // The same key spelled with a \\u escape.
                    let key = members[i].0.clone();
                    let first = u32::from(key.as_bytes()[1]);
                    members[i].0 = format!("\"\\u{first:04x}{}", &key[2..]);
                }
                2 => {
                    let (open, close) = (pick(rng, 130), pick(rng, 130));
                    let nested = format!("{}1{}", "[".repeat(open), "]".repeat(close));
                    members.insert(i, ("\"extra\"".into(), nested));
                }
                3 => {
                    let nested = "{\"a\":[1,{\"b\":null}],\"name\":2}";
                    members.insert(i, ("\"x\"".into(), nested.into()));
                }
                4 => members[i].1 = WRONG[pick(rng, WRONG.len())].to_string(),
                5 => {
                    members.remove(i);
                }
                6 if members[i].0 == "\"metrics\"" => {
                    let mut inner = members_of(&members[i].1);
                    let j = pick(rng, inner.len());
                    if rng.next_below(2) == 0 {
                        inner.remove(j);
                    } else {
                        inner[j].1 = WRONG[pick(rng, WRONG.len())].to_string();
                    }
                    members[i].1 = render(&inner, rng);
                }
                _ => {}
            }
            if members.is_empty() {
                break;
            }
        }
        let mut line = render(&members, rng);
        match rng.next_below(10) {
            0 => line = format!("[{line}]"),
            1 => line.push_str([" x", "}", ",", " {}", "\t "][pick(rng, 5)]),
            2 => line.truncate(pick(rng, line.len() + 1)),
            3 => {
                let at = pick(rng, line.len());
                let byte = b" \"\\{}[]:,0-eE.tnfx\x7f\xff"[pick(rng, 20)];
                let mut bytes = line.into_bytes();
                bytes[at] = byte;
                line = String::from_utf8_lossy(&bytes).into_owned();
            }
            4 => line = ["\"k\"", "42", "null", "", "  "][pick(rng, 5)].to_string(),
            _ => {}
        }
        line
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The tree-free decoder returns exactly what the `Value`-tree
        /// oracle returns, record or error (message and line number
        /// included), in both views, on valid and damaged lines alike.
        #[test]
        fn decoder_equals_the_value_tree_oracle(seed in proptest::any::<u64>()) {
            let mut rng = TestRng::from_seed(seed);
            for _ in 0..16 {
                let line = mutated_line(&mut rng, detailed_lines());
                let number = 1 + rng.next_below(1000);
                for want_detailed in [false, true] {
                    let got = parse_record_line(&line, number, want_detailed);
                    let want = parse_record_line_tree(&line, number, want_detailed);
                    proptest::prop_assert!(
                        got == want,
                        "line {line:?} detailed {want_detailed}\n  got: {got:?}\n want: {want:?}"
                    );
                }
            }
        }
    }

    /// The `Map` builder [`SourceRecord::to_jsonl`] used before it wrote
    /// text directly. Kept as the differential oracle for its bytes.
    fn to_jsonl_tree(record: &SourceRecord) -> Value {
        let lw = &record.lightweight;
        let mut obj = Map::new();
        obj.insert("id".into(), Value::from(lw.kernel_id.index()));
        obj.insert("name".into(), Value::from(lw.name.clone()));
        obj.insert("grid_blocks".into(), Value::from(lw.grid_blocks));
        obj.insert(
            "block_threads".into(),
            Value::from(u64::from(lw.block_threads)),
        );
        obj.insert(
            "shared_mem_bytes".into(),
            Value::from(u64::from(lw.shared_mem_bytes)),
        );
        obj.insert("tensor_elements".into(), Value::from(lw.tensor_elements));
        if let Some(d) = &record.detailed {
            obj.insert("cycles".into(), Value::from(d.cycles));
            obj.insert("seconds".into(), Value::from(d.seconds));
            obj.insert("dram_util_pct".into(), Value::from(d.dram_util_pct));
            obj.insert("l2_miss_rate_pct".into(), Value::from(d.l2_miss_rate_pct));
            let m = &d.metrics;
            let mut metrics = Map::new();
            metrics.insert(
                "coalesced_global_loads".into(),
                Value::from(m.coalesced_global_loads),
            );
            metrics.insert(
                "coalesced_global_stores".into(),
                Value::from(m.coalesced_global_stores),
            );
            metrics.insert(
                "coalesced_local_loads".into(),
                Value::from(m.coalesced_local_loads),
            );
            metrics.insert(
                "thread_global_loads".into(),
                Value::from(m.thread_global_loads),
            );
            metrics.insert(
                "thread_global_stores".into(),
                Value::from(m.thread_global_stores),
            );
            metrics.insert(
                "thread_local_loads".into(),
                Value::from(m.thread_local_loads),
            );
            metrics.insert(
                "thread_shared_loads".into(),
                Value::from(m.thread_shared_loads),
            );
            metrics.insert(
                "thread_shared_stores".into(),
                Value::from(m.thread_shared_stores),
            );
            metrics.insert(
                "thread_global_atomics".into(),
                Value::from(m.thread_global_atomics),
            );
            metrics.insert("instructions".into(), Value::from(m.instructions));
            metrics.insert(
                "divergence_efficiency".into(),
                Value::from(m.divergence_efficiency),
            );
            metrics.insert("thread_blocks".into(), Value::from(m.thread_blocks));
            obj.insert("metrics".into(), Value::Object(metrics));
        }
        Value::Object(obj)
    }

    /// A name mixing quotes, backslashes, control characters and non-ASCII
    /// text, or empty.
    fn arb_name(rng: &mut TestRng) -> String {
        const PIECES: [&str; 14] = [
            "gemm_",
            "k",
            "\"",
            "\\",
            "\n",
            "\r",
            "\t",
            "\u{0}",
            "\u{8}",
            "\u{c}",
            "\u{1f}",
            "\u{7f}",
            "é日本",
            "😀\u{2028}",
        ];
        (0..rng.next_below(6))
            .map(|_| PIECES[rng.next_below(PIECES.len() as u64) as usize])
            .collect()
    }

    /// A `u64` at a digit-count boundary, at the `u32`/`u64` limits, or
    /// random.
    fn arb_u64(rng: &mut TestRng) -> u64 {
        const EDGES: [u64; 12] = [
            0,
            9,
            10,
            99,
            100,
            999,
            1_000,
            u32::MAX as u64,
            1 << 32,
            9_999_999_999_999_999_999,
            10_000_000_000_000_000_000,
            u64::MAX,
        ];
        match rng.next_below(3) {
            0 => EDGES[rng.next_below(EDGES.len() as u64) as usize],
            1 => rng.next_below(10_000),
            _ => rng.next_u64(),
        }
    }

    fn arb_u32(rng: &mut TestRng) -> u32 {
        match rng.next_below(4) {
            0 => u32::MAX,
            _ => arb_u64(rng) as u32,
        }
    }

    /// An `f64` that is non-finite, −0.0, subnormal, whole, at the edge of
    /// the `{:?}` form's switch to exponents, extreme, or random.
    fn arb_f64(rng: &mut TestRng) -> f64 {
        const EDGES: [f64; 16] = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            1.0,
            -1.0,
            100.0,
            1e15,
            1e16,
            1e-4,
            1e-5,
            0.1,
            f64::MAX,
            f64::MIN,
        ];
        match rng.next_below(4) {
            0 => EDGES[rng.next_below(EDGES.len() as u64) as usize],
            // Subnormals, from the smallest to the largest.
            1 => f64::from_bits(1 + rng.next_below(0x000F_FFFF_FFFF_FFFF)),
            2 => rng.next_f64() * 100.0,
            _ => f64::from_bits(rng.next_u64()),
        }
    }

    /// A random record, lightweight or detailed, whose detailed view
    /// repeats the launch's id and name as every source produces it.
    fn arb_record(rng: &mut TestRng) -> SourceRecord {
        let lightweight = LightweightRecord {
            kernel_id: KernelId::new(arb_u64(rng)),
            name: arb_name(rng),
            grid_blocks: arb_u64(rng),
            block_threads: arb_u32(rng),
            shared_mem_bytes: arb_u32(rng),
            tensor_elements: arb_u64(rng),
        };
        let detailed = (rng.next_below(2) == 0).then(|| DetailedRecord {
            kernel_id: lightweight.kernel_id,
            name: lightweight.name.clone(),
            metrics: KernelMetrics {
                coalesced_global_loads: arb_f64(rng),
                coalesced_global_stores: arb_f64(rng),
                coalesced_local_loads: arb_f64(rng),
                thread_global_loads: arb_f64(rng),
                thread_global_stores: arb_f64(rng),
                thread_local_loads: arb_f64(rng),
                thread_shared_loads: arb_f64(rng),
                thread_shared_stores: arb_f64(rng),
                thread_global_atomics: arb_f64(rng),
                instructions: arb_f64(rng),
                divergence_efficiency: arb_f64(rng),
                thread_blocks: arb_u64(rng),
            },
            cycles: arb_u64(rng),
            seconds: arb_f64(rng),
            dram_util_pct: arb_f64(rng),
            l2_miss_rate_pct: arb_f64(rng),
        });
        SourceRecord {
            lightweight,
            detailed,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The direct writer emits exactly the compact rendering of the
        /// tree-built record, within its reserved capacity whenever the
        /// name needs no escape, and a line whose floats are all finite
        /// reads back to the same record.
        #[test]
        fn to_jsonl_equals_the_value_tree_rendering(seed in proptest::any::<u64>()) {
            let mut rng = TestRng::from_seed(seed);
            let record = arb_record(&mut rng);
            let text = record.to_jsonl();
            proptest::prop_assert_eq!(&text, &to_jsonl_tree(&record).to_string());
            let name = &record.lightweight.name;
            if !name.chars().any(|c| c == '"' || c == '\\' || c < ' ') {
                proptest::prop_assert!(text.len() <= record.jsonl_len_bound());
            }
            let finite = record.detailed.as_ref().is_none_or(|d| {
                let m = &d.metrics;
                [
                    d.seconds,
                    d.dram_util_pct,
                    d.l2_miss_rate_pct,
                    m.coalesced_global_loads,
                    m.coalesced_global_stores,
                    m.coalesced_local_loads,
                    m.thread_global_loads,
                    m.thread_global_stores,
                    m.thread_local_loads,
                    m.thread_shared_loads,
                    m.thread_shared_stores,
                    m.thread_global_atomics,
                    m.instructions,
                    m.divergence_efficiency,
                ]
                .iter()
                .all(|x| x.is_finite())
            });
            if finite {
                let back = parse_record_line(&text, 1, record.detailed.is_some());
                proptest::prop_assert_eq!(back, Ok(record));
            }
        }
    }
}
