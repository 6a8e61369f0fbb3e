//! The million-kernel perf trajectory: median/stddev measurements of the
//! three pipeline hot paths, emitted to `BENCH_pka.json`.
//!
//! * `kmeans_sweep` — the PKS K-sweep clustering cost on a 50k-kernel
//!   metric cloud, comparing the bounded (Hamerly-style) assignment
//!   against the naive Lloyd's reference it must match bitwise.
//! * `pca_fit` — scale → fit → truncate → project, the PKS projection
//!   stage, on the same cloud at full Table 2 dimensionality.
//! * `pkp_engine` — a monitored simulation of a large kernel, the PKP
//!   per-kernel cost.
//! * `stream_ingest` — end-to-end online PKS over a synthetic workload
//!   stream (detailed prefix + classified tail), the `pka-stream`
//!   bounded-memory ingestion cost per kernel (`online_pks`).
//! * `server_session_roundtrip` — the full `pka-server` service path:
//!   `POST /v1/sessions` over a real socket, a 100k-record synthetic
//!   streaming session, and `GET .../result`. The delta against
//!   `stream_ingest/online_pks` is the whole service overhead (HTTP
//!   parse, session registry, worker spawn, progress ring). Its `feed`
//!   row drives a `source: "feed"` session instead: the same 100k records
//!   pre-rendered as NDJSON and posted in 500-line bodies, so the feed
//!   queue and per-record JSON parsing are on the measured path.
//! * `checkpoint_render` — one canonical JSON rendering of the final
//!   `pka.stream_checkpoint/v1` of a 100k-record synthetic stream (prefix
//!   2,000, a full 4,096-item reservoir), the text a `pka serve` session
//!   and `pka stream --checkpoint` produce at every checkpoint.
//! * `record_render` — 100k synthetic records (the first 2,000 with the
//!   detailed view) rendered as `pka.kernel_record/v1` lines, the text a
//!   live producer feeds a `pka serve` session.
//! * `record_decode` — the 100k synthetic records' tail lines (no
//!   detailed view) read back through `JsonlSource`, the per-record parse
//!   a `pka serve` feed session and `pka stream --source <file>` pay.
//! * `mlp_fit` — one `MlpClassifier` fit on the detailed prefix the
//!   stream engine trains on: the first 2,000 synthetic records'
//!   lightweight features labelled by batch PKS, the engine's MLP seed.
//!
//! Run with `cargo bench -p pka-bench --bench hot_paths`; CI runs a
//! reduced-iteration smoke via `PKA_BENCH_SAMPLES` / `PKA_BENCH_WARMUP`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pka_core::{PkpConfig, PkpMonitor, Pks, PksConfig};
use pka_gpu::{GpuConfig, KernelDescriptor};
use pka_ml::classify::MlpClassifier;
use pka_ml::{KMeans, Matrix, Pca, StandardScaler};
use pka_profile::Profiler;
use pka_server::{PkaServer, ServerConfig};
use pka_sim::{SimOptions, Simulator};
use pka_stats::hash::UnitStream;
use pka_stats::Executor;
use pka_stream::{
    synthetic_workload, JsonlSource, KernelSource, StreamConfig, StreamPks, WorkloadSource,
};
use std::hint::black_box;
use std::io::Cursor;
use std::sync::Arc;

/// Synthetic kernel-metric cloud: `n` points around 24 behavioural centres
/// in `d`-dimensional space (Table 2 uses 12 metrics; the clustering sweep
/// runs post-PCA at roughly half that). The centre count brackets the
/// swept K range, matching the PKS regime where the knee search explores
/// cluster counts comparable to the real mode count of the data.
fn metric_cloud(n: usize, d: usize) -> Matrix {
    let mut rng = UnitStream::new(42);
    let centres: Vec<Vec<f64>> = (0..24)
        .map(|c| (0..d).map(|j| ((c * 5 + j * 3) % 13) as f64 * 2.0).collect())
        .collect();
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let c = &centres[i % 24];
            c.iter().map(|&x| x + rng.next_range(-0.3, 0.3)).collect()
        })
        .collect();
    Matrix::from_rows(&rows).expect("valid cloud")
}

/// Full PKS-style K sweep: fit K = 1..=k_max on the same data, the shape
/// of work `Pks::select` performs when searching for the knee.
fn kmeans_sweep(data: &Matrix, k_max: usize, exec: Executor) -> f64 {
    let mut total_inertia = 0.0;
    for k in 1..=k_max {
        let fit = KMeans::new(k)
            .with_seed(0)
            .with_executor(exec)
            .fit(data)
            .expect("sweep fit");
        total_inertia += fit.inertia();
    }
    total_inertia
}

/// The same sweep through the naive Lloyd's reference path.
fn kmeans_sweep_reference(data: &Matrix, k_max: usize) -> f64 {
    let mut total_inertia = 0.0;
    for k in 1..=k_max {
        let fit = KMeans::new(k)
            .with_seed(0)
            .fit_reference(data)
            .expect("sweep fit");
        total_inertia += fit.inertia();
    }
    total_inertia
}

fn bench_kmeans_sweep(c: &mut Criterion) {
    const N: usize = 50_000;
    const D: usize = 6;
    const K_MAX: usize = 20;
    let data = metric_cloud(N, D);
    let mut group = c.benchmark_group("kmeans_sweep");
    group.sample_size(5);
    group.throughput(Throughput::Elements(N as u64));
    group.bench_with_input(
        BenchmarkId::new("bounded", N),
        &data,
        |b, data| b.iter(|| kmeans_sweep(black_box(data), K_MAX, Executor::sequential())),
    );
    group.bench_with_input(
        BenchmarkId::new("bounded_w4", N),
        &data,
        |b, data| b.iter(|| kmeans_sweep(black_box(data), K_MAX, Executor::new(4))),
    );
    group.bench_with_input(
        BenchmarkId::new("reference", N),
        &data,
        |b, data| b.iter(|| kmeans_sweep_reference(black_box(data), K_MAX)),
    );
    group.finish();
}

fn bench_pca_fit(c: &mut Criterion) {
    const N: usize = 50_000;
    const D: usize = 12;
    let data = metric_cloud(N, D);
    let mut group = c.benchmark_group("pca_fit");
    group.sample_size(10);
    group.throughput(Throughput::Elements(N as u64));
    group.bench_with_input(
        BenchmarkId::new("scale_fit_project", N),
        &data,
        |b, data| {
            b.iter(|| {
                let (_, scaled) =
                    StandardScaler::fit_transform(black_box(data)).expect("scale");
                let fit = Pca::full().fit(&scaled).expect("pca fit");
                let truncated = fit.truncated_to_variance(0.95);
                truncated.transform(&scaled).expect("project")
            })
        },
    );
    group.finish();
}

fn bench_pkp_engine(c: &mut Criterion) {
    let sim = Simulator::new(GpuConfig::v100(), SimOptions::default());
    let kernel = KernelDescriptor::builder("pkp_bench")
        .grid_blocks(4000)
        .block_threads(256)
        .fp32_per_thread(300)
        .global_loads_per_thread(8)
        .build()
        .expect("valid kernel");
    let mut group = c.benchmark_group("pkp_engine");
    group.sample_size(10);
    group.throughput(Throughput::Elements(kernel.total_warp_instructions()));
    group.bench_function("monitored_run", |b| {
        b.iter(|| {
            let mut monitor =
                PkpMonitor::new(PkpConfig::default(), sim.options().sample_interval());
            sim.run_kernel_monitored(black_box(&kernel), &mut monitor)
                .expect("simulate")
        })
    });
    group.finish();
}

fn bench_stream_ingest(c: &mut Criterion) {
    const N: u64 = 500_000;
    const PREFIX: u64 = 2_000;
    let workload = synthetic_workload(N);
    let config = StreamConfig::default()
        .with_prefix(PREFIX)
        .with_checkpoint_every(100_000)
        .with_reservoir(2_048)
        .with_batch(1_024);
    let mut group = c.benchmark_group("stream_ingest");
    group.sample_size(10);
    group.throughput(Throughput::Elements(N));

    let mut source = WorkloadSource::new(workload, Profiler::new(GpuConfig::v100()));
    group.bench_function(BenchmarkId::new("online_pks", N), |b| {
        b.iter(|| {
            source.restart().expect("restart");
            StreamPks::new(config)
                .with_executor(Executor::sequential())
                .run(black_box(&mut source), |_| Ok(()))
                .expect("stream runs")
                .report
                .records
        })
    });

    group.finish();
}

fn bench_checkpoint_render(c: &mut Criterion) {
    const N: u64 = 100_000;
    let mut source = WorkloadSource::new(synthetic_workload(N), Profiler::new(GpuConfig::v100()));
    let config = StreamConfig::default()
        .with_prefix(2_000)
        .with_reservoir(4_096);
    let checkpoint = StreamPks::new(config)
        .run(&mut source, |_| Ok(()))
        .expect("stream runs")
        .final_checkpoint;
    assert_eq!(checkpoint.reservoir.items.len(), 4_096, "full reservoir");
    let mut group = c.benchmark_group("checkpoint_render");
    group.sample_size(50);
    group.bench_function(format!("synthetic_{N}"), |b| {
        b.iter(|| black_box(&checkpoint).to_json().len())
    });
    group.finish();
}

fn bench_record_render(c: &mut Criterion) {
    const N: u64 = 100_000;
    const PREFIX: usize = 2_000;
    let mut source = WorkloadSource::new(synthetic_workload(N), Profiler::new(GpuConfig::v100()));
    let mut records = Vec::new();
    while let Some(rec) = source
        .next_record(records.len() < PREFIX)
        .expect("pull record")
    {
        records.push(rec);
    }
    let mut group = c.benchmark_group("record_render");
    group.sample_size(20);
    group.bench_function(format!("synthetic_{N}"), |b| {
        b.iter(|| {
            black_box(&records)
                .iter()
                .map(|r| r.to_jsonl().len())
                .sum::<usize>()
        })
    });
    group.finish();
}

fn bench_record_decode(c: &mut Criterion) {
    const N: u64 = 100_000;
    let mut source = WorkloadSource::new(synthetic_workload(N), Profiler::new(GpuConfig::v100()));
    let mut text = String::new();
    while let Some(rec) = source.next_record(false).expect("pull record") {
        text.push_str(&rec.to_jsonl());
        text.push('\n');
    }
    let text: Arc<[u8]> = text.into_bytes().into();
    let mut group = c.benchmark_group("record_decode");
    group.sample_size(20);
    group.throughput(Throughput::Elements(N));
    group.bench_function(format!("synthetic_{N}"), |b| {
        b.iter(|| {
            let mut lines = JsonlSource::from_reader("bench", Cursor::new(Arc::clone(&text)));
            let mut records = 0u64;
            while let Some(rec) = lines.next_record(false).expect("tail line decodes") {
                records += rec.lightweight.grid_blocks & 1;
            }
            records
        })
    });
    group.finish();
}

fn bench_mlp_fit(c: &mut Criterion) {
    const PREFIX: usize = 2_000;
    let mut source = WorkloadSource::new(
        synthetic_workload(100_000),
        Profiler::new(GpuConfig::v100()),
    );
    let mut rows = Vec::with_capacity(PREFIX);
    let mut detailed = Vec::with_capacity(PREFIX);
    for _ in 0..PREFIX {
        let rec = source
            .next_record(true)
            .expect("pull record")
            .expect("workload is longer than the prefix");
        rows.push(rec.lightweight.to_feature_vector());
        detailed.push(rec.detailed.expect("detailed view"));
    }
    let labels = Pks::new(PksConfig::default())
        .select(&detailed)
        .expect("PKS selects on the prefix")
        .labels()
        .to_vec();
    let x = Matrix::from_rows(&rows).expect("feature matrix");
    let mut group = c.benchmark_group("mlp_fit");
    group.sample_size(10);
    group.bench_function(format!("synthetic_prefix_{PREFIX}"), |b| {
        b.iter(|| MlpClassifier::fit(black_box(&x), &labels, 0xff).expect("mlp fits"))
    });
    group.finish();
}

/// One raw-socket HTTP exchange against the in-process service.
fn http_roundtrip(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> (u16, String) {
    use std::io::{BufRead, BufReader, Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    let raw = format!(
        "{method} {path} HTTP/1.1\r\nHost: b\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(raw.as_bytes()).expect("send");
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let mut content_length = 0usize;
    loop {
        let mut h = String::new();
        reader.read_line(&mut h).expect("header");
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some(v) = h.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = v.trim().parse().expect("length");
        }
    }
    let mut out = vec![0u8; content_length];
    reader.read_exact(&mut out).expect("body");
    (status, String::from_utf8(out).expect("utf8"))
}

/// Renders `n` synthetic records as `pka.kernel_record/v1` NDJSON bodies
/// of `per_body` lines, detailed for the first `prefix` records.
fn ndjson_bodies(n: u64, prefix: u64, per_body: u64) -> Vec<String> {
    let mut source = WorkloadSource::new(synthetic_workload(n), Profiler::new(GpuConfig::v100()));
    let mut bodies = Vec::new();
    let mut body = String::new();
    let mut i = 0u64;
    while let Some(rec) = source.next_record(i < prefix).expect("render record") {
        body.push_str(&rec.to_jsonl());
        body.push('\n');
        i += 1;
        if i.is_multiple_of(per_body) {
            bodies.push(std::mem::take(&mut body));
        }
    }
    if !body.is_empty() {
        bodies.push(body);
    }
    bodies
}

/// Creates a session from `spec` over the socket and returns its id.
fn create_session(addr: std::net::SocketAddr, spec: &str) -> String {
    let (status, body) = http_roundtrip(addr, "POST", "/v1/sessions", spec);
    assert_eq!(status, 200, "{body}");
    let created: serde_json::Value = serde_json::from_str(&body).expect("create response");
    created
        .get("id")
        .and_then(|v| v.as_str())
        .expect("id")
        .to_string()
}

fn bench_server_roundtrip(c: &mut Criterion) {
    const N: u64 = 100_000;
    let bodies = ndjson_bodies(N, 2_000, 500);
    let feed_spec = serde_json::json!({
        "mode": "stream",
        "source": "feed",
        "prefix": 2_000,
        "checkpoint_every": 100_000,
        "reservoir": 2_048,
        "batch": 1_024,
    })
    .to_string();
    let server =
        PkaServer::bind(ServerConfig::default()).expect("bind analysis service");
    let addr = server.addr().expect("addr");
    let spec = serde_json::json!({
        "mode": "stream",
        "source": format!("synthetic:{N}"),
        "prefix": 2_000,
        "checkpoint_every": 100_000,
        "reservoir": 2_048,
        "batch": 1_024,
    })
    .to_string();

    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run().expect("serve"));
        let mut group = c.benchmark_group("server_session_roundtrip");
        group.sample_size(10);
        group.throughput(Throughput::Elements(N));
        group.bench_function(BenchmarkId::new("http_session", N), |b| {
            b.iter(|| {
                let id = create_session(addr, &spec);
                // Join in-process (the worker finishes the whole stream),
                // then fetch the result over the socket like a client would.
                server.registry().get(&id).expect("registered").join();
                let (status, body) = http_roundtrip(
                    addr,
                    "GET",
                    &format!("/v1/sessions/{id}/result"),
                    "",
                );
                assert_eq!(status, 200, "{body}");
                black_box(body.len())
            })
        });
        group.bench_function(BenchmarkId::new("feed", N), |b| {
            b.iter(|| {
                let id = create_session(addr, &feed_spec);
                let records = format!("/v1/sessions/{id}/records");
                for body in &bodies {
                    let (status, reply) = http_roundtrip(addr, "POST", &records, body);
                    assert_eq!(status, 200, "{reply}");
                }
                let (status, reply) =
                    http_roundtrip(addr, "POST", &format!("/v1/sessions/{id}/finish"), "");
                assert_eq!(status, 200, "{reply}");
                server.registry().get(&id).expect("registered").join();
                let (status, body) =
                    http_roundtrip(addr, "GET", &format!("/v1/sessions/{id}/result"), "");
                assert_eq!(status, 200, "{body}");
                black_box(body.len())
            })
        });
        group.finish();
        let (status, _) = http_roundtrip(addr, "POST", "/v1/shutdown", "");
        assert_eq!(status, 200);
        handle.join().expect("server thread");
    });
}

criterion_group!(
    hot_paths,
    bench_kmeans_sweep,
    bench_pca_fit,
    bench_pkp_engine,
    bench_stream_ingest,
    bench_server_roundtrip,
    bench_checkpoint_render,
    bench_record_render,
    bench_record_decode,
    bench_mlp_fit
);
criterion_main!(hot_paths);
