//! `simulate`: `Pka::evaluate_in_simulation(w, true)` on V100 over a mix of
//! paper workloads, one per simulator regime.

use std::time::Instant;

use pka_core::{
    Pka, PkaConfig, PkpMonitor, Pks, ProjectedKernel, RepProjection, Selection, SimulationReport,
    TwoLevel,
};
use pka_gpu::{GpuConfig, KernelId};
use pka_profile::DetailedRecord;
use pka_sim::{cost, Simulator};
use pka_stats::error::abs_pct_error;
use pka_workloads::Workload;

use crate::gen::{digest_kernels, simulate_mix, Regime};
use crate::report::{
    cpu_seconds, geomean, median, minimum, peak_rss_mb, percentile, tail_percentile, timed, Digest,
    Report,
};
use crate::trace::Trace;

/// Exact outputs of one pool member on V100 with the default configuration.
struct Pin {
    name: &'static str,
    fullsim_cycles: u64,
    pks_simulated_cycles: u64,
    pka_simulated_cycles: u64,
    pks_error_pct: f64,
    pka_error_pct: f64,
}

#[rustfmt::skip]
const PINS: &[Pin] = &[
    Pin { name: "backprop", fullsim_cycles: 10435, pks_simulated_cycles: 10435, pka_simulated_cycles: 10435, pks_error_pct: 18.894761386600344, pka_error_pct: 18.894761386600344 },
    Pin { name: "mri", fullsim_cycles: 21867, pks_simulated_cycles: 7289, pka_simulated_cycles: 5300, pks_error_pct: 59.823125274082734, pka_error_pct: 54.31954392632656 },
    Pin { name: "sad", fullsim_cycles: 15597, pks_simulated_cycles: 11377, pka_simulated_cycles: 9867, pks_error_pct: 6.493506493506493, pka_error_pct: 9.902597402597403 },
    Pin { name: "gauss_208", fullsim_cycles: 1147504, pks_simulated_cycles: 2861, pka_simulated_cycles: 2861, pks_error_pct: 0.9591738612371177, pka_error_pct: 0.9591738612371177 },
];

/// Rounds one untraced run makes; each evaluates every member once. A
/// run of ~50 s spans more of the host's slow and quiet phases than a
/// shorter one, so its cheapest evaluations more often fall in a quiet one.
const ROUNDS: usize = 70;

/// One mix member: its regime and workload.
struct Member {
    regime: Regime,
    workload: Workload,
}

struct Inputs {
    pka: Pka,
    mix: Vec<Member>,
    digest: u64,
}

fn setup(seed: u64, trace: &mut Trace) -> Inputs {
    let mix = trace.span("workloads.build", || {
        let all = pka_workloads::all_workloads();
        simulate_mix(seed)
            .into_iter()
            .map(|(regime, name)| Member {
                regime,
                workload: all
                    .iter()
                    .find(|w| w.name() == name)
                    .expect("pool member exists")
                    .clone(),
            })
            .collect::<Vec<_>>()
    });
    let mut digest = Digest::default();
    for m in &mix {
        digest_kernels(&mut digest, &m.workload);
    }
    Inputs {
        pka: Pka::new(GpuConfig::v100(), PkaConfig::default()),
        mix,
        digest: digest.finish(),
    }
}

fn simulated_cycles(r: &SimulationReport) -> u64 {
    r.fullsim_cycles.unwrap_or(0) + r.pks_simulated_cycles + r.pka_simulated_cycles
}

fn check_pin(report: &mut Report, r: &SimulationReport) {
    let pin = PINS.iter().find(|p| p.name == r.workload);
    let ok = pin.is_some_and(|p| {
        r.fullsim_cycles == Some(p.fullsim_cycles)
            && r.pks_simulated_cycles == p.pks_simulated_cycles
            && r.pka_simulated_cycles == p.pka_simulated_cycles
            && r.pks_error_pct == p.pks_error_pct
            && r.pka_error_pct == p.pka_error_pct
    });
    report.check(ok, || {
        format!(
            "{} does not match its pin: fullsim_cycles={:?} pks_simulated_cycles={} \
             pka_simulated_cycles={} pks_error_pct={:?} pka_error_pct={:?}",
            r.workload,
            r.fullsim_cycles,
            r.pks_simulated_cycles,
            r.pka_simulated_cycles,
            r.pks_error_pct,
            r.pka_error_pct
        )
    });
}

/// One member's timed evaluations.
struct Timing {
    regime: Regime,
    name: String,
    kernels: u64,
    /// CPU seconds of each evaluation.
    seconds: Vec<f64>,
    cycles: u64,
    pka_error_pct: f64,
}

/// Evaluates `m` once, checking the report against its pin; returns the
/// CPU seconds and the report.
fn evaluate(pka: &Pka, m: &Member, report: &mut Report) -> (f64, Option<SimulationReport>) {
    let t0 = cpu_seconds();
    let result = pka.evaluate_in_simulation(&m.workload, true);
    let seconds = cpu_seconds() - t0;
    match result {
        Ok(r) => {
            check_pin(report, &r);
            (seconds, Some(r))
        }
        Err(e) => {
            report.check(false, || format!("{}: {e}", m.workload.name()));
            (seconds, None)
        }
    }
}

/// The untraced run, in [`ROUNDS`] rounds. Each round sets the inputs up
/// afresh from the seed, then evaluates every member once. Each regime's
/// rate comes from its cheapest evaluation in CPU time, and `setup_s` from
/// the cheapest set-up: contention for shared caches and memory only ever
/// slows work down, and the cheapest repetition is the one it touched
/// least. The first evaluation of each member runs cold, several times
/// slower, so it does not set the rate. Returns the input digest.
pub fn run(seed: u64, report: &mut Report) -> u64 {
    let mut setups = Vec::with_capacity(ROUNDS);
    let mut timings: Vec<Timing> = Vec::new();
    let mut digest = 0;
    for _ in 0..ROUNDS {
        let inputs = timed(&mut setups, || setup(seed, &mut Trace::default()));
        digest = inputs.digest;
        if timings.is_empty() {
            timings = inputs
                .mix
                .iter()
                .map(|m| Timing {
                    regime: m.regime,
                    name: m.workload.name().to_string(),
                    kernels: m.workload.kernel_count(),
                    seconds: Vec::new(),
                    cycles: 0,
                    pka_error_pct: f64::NAN,
                })
                .collect();
        }
        for (m, t) in inputs.mix.iter().zip(&mut timings) {
            let (seconds, r) = evaluate(&inputs.pka, m, report);
            t.seconds.push(seconds);
            if let Some(r) = r {
                t.cycles = simulated_cycles(&r);
                t.pka_error_pct = r.pka_error_pct;
            }
        }
    }
    report.push("setup_s", "s", minimum(&setups));
    report.push("peak_rss_mb", "MB", peak_rss_mb());
    let (mut kernel_rates, mut cycle_rates) = (Vec::new(), Vec::new());
    for t in &timings {
        let s = minimum(&t.seconds);
        kernel_rates.push(t.kernels as f64 / s);
        cycle_rates.push(t.cycles as f64 / s);
        report.line(format!(
            "  {:<10} {:<10} kernels={:<4} evaluations={:<2} cheapest_cpu_s={:.4} \
             median_cpu_s={:.4} sim_cycles_per_cpu_s={:.0} pka_error_pct={}",
            t.regime.label(),
            t.name,
            t.kernels,
            t.seconds.len(),
            s,
            median(&t.seconds),
            t.cycles as f64 / s,
            t.pka_error_pct,
        ));
    }
    report.push("kernels_per_cpu_s", "1/s", geomean(&kernel_rates));
    report.line(format!(
        "sim_cycles_per_cpu_s = {} 1/s (geomean over regimes)",
        geomean(&cycle_rates)
    ));
    report.line(format!(
        "pka_error_pct = {} % (mean over the mix; exact, so speed-only changes keep it)",
        timings.iter().map(|t| t.pka_error_pct).sum::<f64>() / timings.len() as f64
    ));
    digest
}

/// `Pka::evaluate_in_simulation(w, true)` rebuilt from the layers' public
/// calls, each wrapped in a span. Also returns the detailed records and
/// selection of a one-level selection, for side timings.
fn compose(
    pka: &Pka,
    w: &Workload,
    trace: &mut Trace,
    stats: &mut SimStats,
) -> (SimulationReport, Option<(Vec<DetailedRecord>, Selection)>) {
    let config = *pka.config();
    let profiler = pka.profiler();
    let mut one_level = None;
    let selection = if profiler.profiling_cost(w).detailed_is_intractable() {
        trace.span("pks.select", || {
            TwoLevel::new(config.two_level())
                .with_executor(config.executor())
                .analyze(w, profiler)
        })
    } else {
        let records = trace
            .span("profile.detailed", || {
                profiler.detailed(w, 0..w.kernel_count())
            })
            .expect("detailed profile");
        let selection = trace.span("pks.select", || {
            Pks::new(config.pks())
                .with_executor(config.executor())
                .select(&records)
        });
        if let Ok(s) = &selection {
            one_level = Some((records, s.clone()));
        }
        selection
    }
    .expect("selection");
    let silicon = trace
        .span("gpu.silicon", || profiler.silicon_run(w))
        .expect("silicon run");
    let simulator = Simulator::new(pka.gpu().clone(), config.sim_options());

    let mut total = 0u64;
    let mut dram_weighted = 0.0f64;
    for id in 0..w.kernel_count() {
        let kernel = w.kernel(KernelId::new(id));
        let r = trace
            .span("sim.full", || simulator.run_kernel(&kernel))
            .expect("full simulation");
        stats.add(&r);
        total += r.cycles;
        dram_weighted += r.dram_util_pct * r.cycles as f64;
    }

    let reps = selection.representative_ids();
    let (mut pks_rep_cycles, mut pka_rep_cycles) = (Vec::new(), Vec::new());
    let (mut pks_spent, mut pka_spent) = (0u64, 0u64);
    let (mut pka_dram_weighted, mut pka_weight) = (0.0f64, 0.0f64);
    let mut per_representative = Vec::new();
    for &id in &reps {
        let kernel = w.kernel(id);
        let full = trace
            .span("sim.rep", || simulator.run_kernel(&kernel))
            .expect("rep simulation");
        stats.add(&full);
        let mut monitor = PkpMonitor::new(config.pkp(), config.sim_options().sample_interval());
        let stopped = trace
            .span("sim.monitored", || {
                simulator.run_kernel_monitored(&kernel, &mut monitor)
            })
            .expect("monitored simulation");
        stats.add(&stopped);
        stats.early_stops += u64::from(stopped.early_stop);
        let projected = trace.span("pkp.project", || {
            ProjectedKernel::from_monitored(&stopped, &monitor)
        });
        stats.rep_simulated += projected.simulated_cycles;
        stats.rep_projected += projected.cycles;
        pks_rep_cycles.push(full.cycles);
        pks_spent += full.cycles;
        pka_rep_cycles.push(projected.cycles);
        pka_spent += projected.simulated_cycles;
        pka_dram_weighted += projected.dram_util_pct * projected.cycles as f64;
        pka_weight += projected.cycles as f64;
        per_representative.push(RepProjection {
            kernel_id: id,
            simulated_cycles: projected.simulated_cycles,
            projected_cycles: projected.cycles,
        });
    }
    let (pks_projected, pka_projected) = trace.span("pks.project", || {
        (
            selection.project_with(&pks_rep_cycles),
            selection.project_with(&pka_rep_cycles),
        )
    });
    let reference = silicon.total_cycles as f64;
    let report = SimulationReport {
        workload: w.name().to_string(),
        silicon_cycles: silicon.total_cycles,
        fullsim_cycles: Some(total),
        fullsim_dram_util_pct: Some(dram_weighted / total.max(1) as f64),
        sim_error_pct: Some(abs_pct_error(total as f64, reference)),
        fullsim_hours: cost::projected_sim_hours(total),
        pks_projected_cycles: pks_projected,
        pks_error_pct: abs_pct_error(pks_projected as f64, reference),
        pks_simulated_cycles: pks_spent,
        pks_hours: cost::projected_sim_hours(pks_spent),
        pka_projected_cycles: pka_projected,
        pka_error_pct: abs_pct_error(pka_projected as f64, reference),
        pka_simulated_cycles: pka_spent,
        pka_hours: cost::projected_sim_hours(pka_spent),
        pka_dram_util_pct: pka_dram_weighted / pka_weight.max(1e-12),
        per_representative,
    };
    (report, one_level)
}

/// Exact simulator counts gathered by the composition.
#[derive(Default)]
struct SimStats {
    kernels: u64,
    cycles: u64,
    instructions: u64,
    early_stops: u64,
    rep_simulated: u64,
    rep_projected: u64,
}

impl SimStats {
    fn add(&mut self, r: &pka_sim::KernelSimResult) {
        self.kernels += 1;
        self.cycles += r.cycles;
        self.instructions += r.instructions;
    }
}

const SIM_SPANS: [&str; 3] = ["sim.full", "sim.rep", "sim.monitored"];

/// The traced run: the composed pipeline beside the untraced call, checked
/// bit-identical, and the per-layer figures from its spans. Returns the
/// input digest.
pub fn run_traced(seed: u64, trace: &mut Trace, report: &mut Report) -> u64 {
    let inputs = &setup(seed, trace);
    let mut stats = SimStats::default();
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let mut per_regime = Vec::new();
    let mut errors = Vec::new();
    let mut cycle_rates = Vec::new();
    for m in &inputs.mix {
        evaluate(&inputs.pka, m, report);
    }
    for Member {
        regime,
        workload: w,
        ..
    } in &inputs.mix
    {
        let t0 = Instant::now();
        let reference = inputs.pka.evaluate_in_simulation(w, true);
        let seconds = t0.elapsed().as_secs_f64();
        untraced_s += seconds;
        if let Ok(r) = &reference {
            cycle_rates.push(simulated_cycles(r) as f64 / seconds);
        }

        let before_ms = trace.sum_ms(&SIM_SPANS);
        let cycles_before = stats.cycles;
        let t0 = Instant::now();
        let (composed, one_level) = compose(&inputs.pka, w, trace, &mut stats);
        traced_s += t0.elapsed().as_secs_f64();
        // Side timing: provenance is not on evaluate_in_simulation's path.
        if let Some((records, selection)) = one_level {
            let pks = Pks::new(inputs.pka.config().pks());
            trace
                .span("pks.provenance", || pks.provenance(&records, &selection))
                .expect("provenance");
        }
        let sim_ns = (trace.sum_ms(&SIM_SPANS) - before_ms) * 1e6;
        per_regime.push((*regime, sim_ns / (stats.cycles - cycles_before) as f64));

        let identical = reference
            .as_ref()
            .is_ok_and(|r| format!("{r:?}") == format!("{composed:?}") && *r == composed);
        report.check(identical, || {
            format!(
                "{}: composed pipeline differs from evaluate_in_simulation",
                w.name()
            )
        });
        check_pin(report, &composed);
        errors.push(composed.pka_error_pct);
    }

    report.push("sim_cycles_per_s", "1/s", geomean(&cycle_rates));
    let wall_ms = traced_s * 1e3;
    let layer_ms = trace.sum_ms(&[
        "profile.detailed",
        "pks.select",
        "gpu.silicon",
        "sim.full",
        "sim.rep",
        "sim.monitored",
        "pkp.project",
        "pks.project",
    ]);
    // Every mix has over 400 full-simulation kernels, so the percentile
    // rule always admits p90; a NaN here would mark the run incorrect.
    let mut kernel_ms = trace.samples_ms("sim.full");
    kernel_ms.sort_by(f64::total_cmp);
    let p90_admitted = tail_percentile(kernel_ms.len()).is_some_and(|p| p >= 90.0);
    report.push("sim.full_ms", "ms", trace.total_ms("sim.full"));
    report.push("sim.rep_ms", "ms", trace.total_ms("sim.rep"));
    report.push("sim.monitored_ms", "ms", trace.total_ms("sim.monitored"));
    report.push("sim.kernel_p50_ms", "ms", percentile(&kernel_ms, 50.0));
    report.push(
        "sim.kernel_p90_ms",
        "ms",
        if p90_admitted {
            percentile(&kernel_ms, 90.0)
        } else {
            f64::NAN
        },
    );
    report.push("sim.kernel_samples", "count", kernel_ms.len() as f64);
    for (regime, ns) in per_regime {
        report.push(format!("sim.ns_per_cycle.{}", regime.label()), "ns", ns);
    }
    report.push("sim.kernels", "count", stats.kernels as f64);
    report.push("sim.cycles", "count", stats.cycles as f64);
    report.push("sim.instructions", "count", stats.instructions as f64);
    report.push(
        "pkp.simulated_ratio",
        "ratio",
        stats.rep_simulated as f64 / stats.rep_projected as f64,
    );
    report.push("pkp.early_stops", "count", stats.early_stops as f64);
    report.push(
        "pka_error_pct",
        "%",
        errors.iter().sum::<f64>() / errors.len() as f64,
    );
    report.push(
        "profile.detailed_ms",
        "ms",
        trace.total_ms("profile.detailed"),
    );
    report.push("gpu.silicon_ms", "ms", trace.total_ms("gpu.silicon"));
    report.push(
        "workloads.build_ms",
        "ms",
        trace.total_ms("workloads.build"),
    );
    report.push("pks.select_ms", "ms", trace.total_ms("pks.select"));
    report.push("pks.provenance_ms", "ms", trace.total_ms("pks.provenance"));
    report.push("trace.coverage_pct", "%", layer_ms / wall_ms * 100.0);
    report.push(
        "trace.overhead_pct",
        "%",
        (traced_s - untraced_s) / untraced_s * 100.0,
    );
    inputs.digest
}
