use pka_gpu::KernelId;
use pka_ml::{KMeans, KMeansFit, Matrix, Pca, StandardScaler};
use pka_profile::DetailedRecord;
use pka_stats::error::abs_pct_error;
use pka_stats::hash::UnitStream;
use pka_stats::Executor;
use serde::{Deserialize, Serialize};

use crate::{feature_matrix, PkaError};

/// How the principal (representative) kernel of each group is chosen.
///
/// Section 3.1 of the paper compares the three policies: random selection
/// has an inconsistent error rate, centre and first-chronological are
/// statistically indistinguishable, and first-chronological wins on
/// practical grounds (it minimises how far tracing has to run) — so it is
/// the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RepresentativePolicy {
    /// The earliest-launched member of the group (the paper's choice).
    #[default]
    FirstChronological,
    /// The member closest to the cluster centroid.
    ClusterCentre,
    /// A uniformly random member (seeded; the paper's negative result).
    Random(u64),
}

/// Configuration for Principal Kernel Selection.
///
/// # Examples
///
/// ```
/// use pka_core::PksConfig;
///
/// let config = PksConfig::default();
/// assert_eq!(config.target_error_pct(), 5.0);
/// assert_eq!(config.max_k(), 20);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PksConfig {
    target_error_pct: f64,
    max_k: usize,
    pca_variance: f64,
    seed: u64,
    representative: RepresentativePolicy,
}

impl Default for PksConfig {
    fn default() -> Self {
        Self {
            target_error_pct: 5.0,
            max_k: 20,
            pca_variance: 0.95,
            seed: 0,
            representative: RepresentativePolicy::FirstChronological,
        }
    }
}

impl PksConfig {
    /// Sets the projected-cycle error (percent) under which the K sweep
    /// stops; the paper uses 5% for every result.
    pub fn with_target_error_pct(mut self, pct: f64) -> Self {
        self.target_error_pct = pct;
        self
    }

    /// Sets the largest K swept (paper: 20).
    pub fn with_max_k(mut self, max_k: usize) -> Self {
        self.max_k = max_k;
        self
    }

    /// Sets the fraction of variance PCA must retain.
    pub fn with_pca_variance(mut self, fraction: f64) -> Self {
        self.pca_variance = fraction;
        self
    }

    /// Sets the clustering seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the representative-selection policy.
    pub fn with_representative(mut self, policy: RepresentativePolicy) -> Self {
        self.representative = policy;
        self
    }

    /// The target projected-cycle error, percent.
    pub fn target_error_pct(&self) -> f64 {
        self.target_error_pct
    }

    /// The largest K swept.
    pub fn max_k(&self) -> usize {
        self.max_k
    }

    /// The PCA variance retention fraction.
    pub fn pca_variance(&self) -> f64 {
        self.pca_variance
    }

    /// The clustering seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The representative policy.
    pub fn representative(&self) -> RepresentativePolicy {
        self.representative
    }
}

/// One group of similar kernels with its principal (representative) member.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelGroup {
    representative: KernelId,
    representative_cycles: u64,
    count: u64,
    /// Members that were actually profiled in detail (`count` additionally
    /// includes kernels mapped in by two-level classification).
    profiled_count: u64,
    member_cycles: u64,
}

impl KernelGroup {
    /// The principal kernel that stands in for this group.
    pub fn representative(&self) -> KernelId {
        self.representative
    }

    /// The representative's measured silicon cycles.
    pub fn representative_cycles(&self) -> u64 {
        self.representative_cycles
    }

    /// How many kernels this group represents (the projection weight,
    /// including two-level-classified members).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// How many of this group's members were profiled in detail.
    pub fn profiled_count(&self) -> u64 {
        self.profiled_count
    }

    /// Total measured cycles of the (profiled) members.
    pub fn member_cycles(&self) -> u64 {
        self.member_cycles
    }
}

/// The output of Principal Kernel Selection: groups, their representatives,
/// and the projection bookkeeping of Table 3.
///
/// Serialisable: the reference tooling's artifact ships per-workload files
/// recording the group count, principal kernels and weights, and
/// `Selection` round-trips through serde the same way (the `pka select
/// --out` CLI path).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Selection {
    groups: Vec<KernelGroup>,
    labels: Vec<usize>,
    reference_cycles: u64,
    member_deviation_pct: f64,
}

impl Selection {
    /// Number of groups (the selected K).
    pub fn k(&self) -> usize {
        self.groups.len()
    }

    /// The groups, in cluster order.
    pub fn groups(&self) -> &[KernelGroup] {
        &self.groups
    }

    /// Group label of each input record, in input order.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Representative kernel ids (the set that must be traced/simulated).
    pub fn representative_ids(&self) -> Vec<KernelId> {
        self.groups.iter().map(|g| g.representative).collect()
    }

    /// Total kernels represented across all groups.
    pub fn kernels_represented(&self) -> u64 {
        self.groups.iter().map(|g| g.count).sum()
    }

    /// The projection: each representative's cycles scaled by its group
    /// population, summed.
    pub fn projected_cycles(&self) -> u64 {
        self.groups
            .iter()
            .map(|g| g.representative_cycles * g.count)
            .sum()
    }

    /// Total measured cycles of the profiled population (the sweep's
    /// reference).
    pub fn reference_cycles(&self) -> u64 {
        self.reference_cycles
    }

    /// Projection error against the profiled population, percent: the
    /// representatives scaled by their *profiled* member counts, compared
    /// with those members' measured cycles. (For one-level selections this
    /// covers the whole stream; for two-level selections it covers the
    /// detailed prefix — the only population with a measured reference.)
    pub fn error_pct(&self) -> f64 {
        let projected: u64 = self
            .groups
            .iter()
            .map(|g| g.representative_cycles * g.profiled_count)
            .sum();
        abs_pct_error(projected as f64, self.reference_cycles as f64)
    }

    /// Cycle-weighted member dispersion, percent: the summed absolute
    /// difference between every profiled kernel's cycles and its group
    /// representative's cycles, relative to the total. The K sweep selects
    /// on this quantity rather than on [`error_pct`](Self::error_pct)
    /// alone — a total-cycle criterion can be satisfied by a K whose
    /// members' over- and under-estimates happen to cancel (or whose lone
    /// representative happens to sit at the population mean), and such a
    /// selection falls apart the moment the representatives are
    /// re-measured on another platform or in a simulator.
    pub fn group_deviation_pct(&self) -> f64 {
        self.member_deviation_pct
    }

    /// Projects application cycles from per-representative measurements
    /// taken elsewhere (another GPU generation, the simulator, PKP):
    /// `measured[i]` replaces group `i`'s representative cycles.
    ///
    /// # Panics
    ///
    /// Panics if `measured.len() != self.k()`.
    pub fn project_with(&self, measured: &[u64]) -> u64 {
        assert_eq!(measured.len(), self.k(), "one measurement per group");
        self.groups
            .iter()
            .zip(measured)
            .map(|(g, &c)| c * g.count)
            .sum()
    }

    /// Adds one unprofiled member to group `group` (the two-level mapping
    /// path: lightweight kernels classified into detailed groups).
    ///
    /// # Panics
    ///
    /// Panics if `group` is out of range.
    pub fn add_classified_member(&mut self, group: usize) {
        self.groups[group].count += 1;
    }

    /// Adds `n` unprofiled members to group `group` at once — the chunked
    /// (parallel) classification path folds per-chunk counts through this.
    ///
    /// # Panics
    ///
    /// Panics if `group` is out of range.
    pub fn add_classified_members(&mut self, group: usize, n: u64) {
        self.groups[group].count += n;
    }
}

/// Principal Kernel Selection: scaler → PCA → K-Means sweep → smallest K
/// under the error target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pks {
    config: PksConfig,
    exec: Executor,
}

/// Row count above which a parallel sweep clusters each K with a
/// chunk-parallel assignment step instead of fanning the independent K runs
/// out. At million-kernel scale one K's assignment dominates the sweep, and
/// walking K in ascending order with early exit at the winner beats
/// speculatively fitting all `max_k` candidates; below the threshold the
/// K-level fan-out amortises thread overhead better. Either strategy
/// returns bitwise-identical selections — each K's fit is worker-count
/// invariant — so this is purely a scheduling choice.
const INNER_PARALLEL_ROWS: usize = 8192;

impl Pks {
    /// Creates a selector running its K sweep sequentially.
    pub fn new(config: PksConfig) -> Self {
        Self {
            config,
            exec: Executor::sequential(),
        }
    }

    /// Fans the independent K=1..max_k clustering runs out over `exec`.
    ///
    /// Every K already derives its own RNG stream (`seed ^ k`), so the
    /// sweep's winner — chosen by scanning the candidates in ascending K —
    /// is bitwise identical for any worker count.
    pub fn with_executor(mut self, exec: Executor) -> Self {
        self.exec = exec;
        self
    }

    /// Runs selection over detailed profiling records.
    ///
    /// Sweeps K from 1 to `max_k` and keeps the smallest K whose projected
    /// total-cycle error is below the target; if no K satisfies it, the
    /// best-scoring K wins. The sweep reuses one PCA fit (the clustering
    /// input does not change with K).
    ///
    /// With a parallel [`Executor`] the candidate clusterings are fitted
    /// concurrently and the winner is picked by the same ascending-K scan;
    /// the sequential path instead stops fitting at the first K under the
    /// target. Both return the identical `Selection`.
    ///
    /// # Errors
    ///
    /// Returns [`PkaError::InvalidInput`] for an empty record set and
    /// propagates ML errors.
    pub fn select(&self, records: &[DetailedRecord]) -> Result<Selection, PkaError> {
        let _span = pka_obs::span("pks.select");
        let selection = self.select_inner(records)?;
        if pka_obs::enabled() {
            pka_obs::counter("pks.selections").incr();
            pka_obs::counter("pks.records").add(records.len() as u64);
            pka_obs::gauge("pks.selected_k").set(selection.k() as i64);
        }
        Ok(selection)
    }

    /// Computes each group representative's provenance for the error
    /// attribution artifact: its launch rank within the group, its distance
    /// to the group mean in the PCA-projected feature space the clustering
    /// ran in, and a seeded bootstrap confidence interval on the mean
    /// member cycles (the within-group variance witness).
    ///
    /// `records` must be the same detailed records `selection` was made
    /// from, in the same order — the preprocessing (scaler fit, PCA fit,
    /// projection) is re-derived from them exactly as
    /// [`select`](Self::select) derived it, so the distances are measured
    /// in the very space the groups were formed in.
    ///
    /// # Errors
    ///
    /// Returns [`PkaError::InvalidInput`] when `records` does not match the
    /// selection's label count, and propagates ML errors.
    pub fn provenance(
        &self,
        records: &[DetailedRecord],
        selection: &Selection,
    ) -> Result<Vec<crate::GroupProvenance>, PkaError> {
        if records.len() != selection.labels().len() {
            return Err(PkaError::InvalidInput {
                message: format!(
                    "provenance needs the selection's input records: got {} records for {} labels",
                    records.len(),
                    selection.labels().len()
                ),
            });
        }
        let features = feature_matrix(records)?;
        let (_, scaled) = StandardScaler::fit_transform(&features)?;
        let pca = Pca::full()
            .fit(&scaled)?
            .truncated_to_variance(self.config.pca_variance);
        let projected = pca.transform(&scaled)?;

        let k = selection.k();
        let dims = projected.cols();
        let mut sums = vec![0.0f64; k * dims];
        let mut counts = vec![0u64; k];
        for (i, &label) in selection.labels().iter().enumerate() {
            for (c, v) in projected.row(i).iter().enumerate() {
                sums[label * dims + c] += v;
            }
            counts[label] += 1;
        }

        selection
            .groups()
            .iter()
            .enumerate()
            .map(|(g, group)| {
                let mut rank = 0u64;
                let mut rep_row = None;
                let mut member_cycles = Vec::with_capacity(counts[g] as usize);
                for (i, &label) in selection.labels().iter().enumerate() {
                    if label != g {
                        continue;
                    }
                    if records[i].kernel_id == group.representative() {
                        rep_row = Some(i);
                        rank = member_cycles.len() as u64;
                    }
                    member_cycles.push(records[i].cycles as f64);
                }
                let rep_row = rep_row.ok_or_else(|| PkaError::InvalidInput {
                    message: format!(
                        "representative {:?} of group {g} is not among the records",
                        group.representative()
                    ),
                })?;
                let n = counts[g].max(1) as f64;
                let distance = projected
                    .row(rep_row)
                    .iter()
                    .enumerate()
                    .map(|(c, v)| {
                        let mean = sums[g * dims + c] / n;
                        (v - mean) * (v - mean)
                    })
                    .sum::<f64>()
                    .sqrt();
                let ci = pka_stats::bootstrap::bootstrap_ci(
                    &member_cycles,
                    pka_stats::summary::mean,
                    0.95,
                    self.config.seed ^ g as u64,
                );
                Ok(crate::GroupProvenance {
                    chrono_rank: rank,
                    distance_to_centroid: distance,
                    member_mean_ci_low: ci.low,
                    member_mean_ci_high: ci.high,
                })
            })
            .collect()
    }

    fn select_inner(&self, records: &[DetailedRecord]) -> Result<Selection, PkaError> {
        let features = feature_matrix(records)?;
        let projected;
        {
            let _span = pka_obs::span("pks.preprocess");
            let (_, scaled) = StandardScaler::fit_transform(&features)?;
            let pca = Pca::full()
                .fit(&scaled)?
                .truncated_to_variance(self.config.pca_variance);
            projected = pca.transform(&scaled)?;
        }
        let _sweep_span = pka_obs::span("pks.sweep");

        let reference: u64 = records.iter().map(|r| r.cycles).sum();
        let max_k = self.config.max_k.clamp(1, records.len());

        let mut best: Option<(f64, Selection)> = None;
        let mut consider = |selection: Selection| -> Option<Selection> {
            let err = selection.group_deviation_pct();
            if err <= self.config.target_error_pct {
                return Some(selection);
            }
            if best.as_ref().is_none_or(|(b, _)| err < *b) {
                best = Some((err, selection));
            }
            None
        };

        // The speculative all-K fit only pays when the fits genuinely run
        // concurrently; with the spawn clamp resolving to one thread (e.g.
        // a single-core host) it would just discard the early exit, making
        // `--workers` slower than sequential for free.
        let speculate = !self.exec.is_sequential() && self.exec.spawn_count(max_k) > 1;
        if !speculate || projected.rows() >= INNER_PARALLEL_ROWS {
            // Ascending-K walk with early exit at the winning K. A parallel
            // executor is spent *inside* each fit (chunked assignment) —
            // the million-kernel regime, where a single K dominates.
            for k in 1..=max_k {
                let selection = self.cluster_once(records, &projected, k, reference)?;
                if let Some(winner) = consider(selection) {
                    return Ok(winner);
                }
            }
        } else {
            let configs: Vec<KMeans> = (1..=max_k).map(|k| self.kmeans_for(k)).collect();
            let fits = KMeans::fit_batch(&configs, &projected, &self.exec)?;
            // Scan in ascending K, exactly like the sequential loop; the
            // surplus fits beyond the winning K are discarded unread.
            for fit in &fits {
                let selection = self.selection_from_fit(records, fit, &projected, reference);
                if let Some(winner) = consider(selection) {
                    return Ok(winner);
                }
            }
        }
        Ok(best.expect("max_k >= 1 so at least one clustering ran").1)
    }

    /// The K-Means configuration the sweep uses for one K.
    ///
    /// The executor stays sequential here: [`KMeans::fit_batch`] fans these
    /// configurations out at the K level, and the inner-parallel path wires
    /// the executor in explicitly via [`Pks::cluster_once`].
    fn kmeans_for(&self, k: usize) -> KMeans {
        KMeans::new(k).with_seed(self.config.seed ^ k as u64)
    }

    fn cluster_once(
        &self,
        records: &[DetailedRecord],
        projected: &Matrix,
        k: usize,
        reference: u64,
    ) -> Result<Selection, PkaError> {
        let fit = self.kmeans_for(k).with_executor(self.exec).fit(projected)?;
        Ok(self.selection_from_fit(records, &fit, projected, reference))
    }

    /// Builds the selection bookkeeping for one fitted clustering.
    fn selection_from_fit(
        &self,
        records: &[DetailedRecord],
        fit: &KMeansFit,
        projected: &Matrix,
        reference: u64,
    ) -> Selection {
        let labels = fit.labels().to_vec();
        let medoids = fit.medoids(projected);

        let mut groups: Vec<Option<KernelGroup>> = vec![None; fit.k()];
        let mut rng = UnitStream::new(match self.config.representative {
            RepresentativePolicy::Random(seed) => seed,
            _ => 0,
        });
        // First pass: counts and member cycles.
        for (i, &label) in labels.iter().enumerate() {
            let slot = &mut groups[label];
            match slot {
                Some(g) => {
                    g.count += 1;
                    g.profiled_count += 1;
                    g.member_cycles += records[i].cycles;
                }
                None => {
                    *slot = Some(KernelGroup {
                        representative: records[i].kernel_id,
                        representative_cycles: records[i].cycles,
                        count: 1,
                        profiled_count: 1,
                        member_cycles: records[i].cycles,
                    });
                }
            }
        }
        // Second pass: representative policy (first-chronological fell out
        // of the first pass because records are in launch order).
        match self.config.representative {
            RepresentativePolicy::FirstChronological => {}
            RepresentativePolicy::ClusterCentre => {
                for (g, medoid) in groups.iter_mut().zip(medoids) {
                    if let (Some(g), Some(m)) = (g.as_mut(), medoid) {
                        g.representative = records[m].kernel_id;
                        g.representative_cycles = records[m].cycles;
                    }
                }
            }
            RepresentativePolicy::Random(_) => {
                // Reservoir-sample one member per group.
                let mut seen = vec![0u64; groups.len()];
                for (i, &label) in labels.iter().enumerate() {
                    seen[label] += 1;
                    if rng.next_f64() < 1.0 / seen[label] as f64 {
                        if let Some(g) = groups[label].as_mut() {
                            g.representative = records[i].kernel_id;
                            g.representative_cycles = records[i].cycles;
                        }
                    }
                }
            }
        }

        // Compact labels to match the flattened group order (flattening
        // drops empty clusters but keeps ascending label order).
        let mut remap = vec![usize::MAX; fit.k()];
        {
            let mut next = 0usize;
            for (l, slot) in groups.iter().enumerate() {
                if slot.is_some() {
                    remap[l] = next;
                    next += 1;
                }
            }
        }
        let groups: Vec<KernelGroup> = groups.into_iter().flatten().collect();
        let labels: Vec<usize> = labels.into_iter().map(|l| remap[l]).collect();
        let member_deviation: f64 = labels
            .iter()
            .zip(records)
            .map(|(&l, r)| (r.cycles as f64 - groups[l].representative_cycles as f64).abs())
            .sum();
        let member_deviation_pct = if reference == 0 {
            0.0
        } else {
            member_deviation / reference as f64 * 100.0
        };

        Selection {
            groups,
            labels,
            reference_cycles: reference,
            member_deviation_pct,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pka_gpu::GpuConfig;
    use pka_profile::Profiler;
    use pka_workloads::{polybench, rodinia, Workload};

    fn find(suite: Vec<Workload>, name: &str) -> Workload {
        suite.into_iter().find(|w| w.name() == name).unwrap()
    }

    fn profile_all(w: &Workload) -> Vec<pka_profile::DetailedRecord> {
        Profiler::new(GpuConfig::v100())
            .detailed(w, 0..w.kernel_count())
            .unwrap()
    }

    #[test]
    fn gaussian_folds_to_very_few_groups() {
        let w = find(rodinia::workloads(), "gauss_208");
        let records = profile_all(&w);
        let sel = Pks::new(PksConfig::default()).select(&records).unwrap();
        assert!(sel.k() <= 3, "k = {}", sel.k());
        assert!(sel.error_pct() <= 5.0, "error = {}", sel.error_pct());
        assert_eq!(sel.kernels_represented(), 414);
    }

    #[test]
    fn single_kernel_app_selects_itself() {
        let w = find(polybench::workloads(), "gemm");
        let records = profile_all(&w);
        let sel = Pks::new(PksConfig::default()).select(&records).unwrap();
        assert_eq!(sel.k(), 1);
        assert_eq!(sel.error_pct(), 0.0);
        assert_eq!(sel.representative_ids(), vec![KernelId::new(0)]);
    }

    #[test]
    fn first_chronological_picks_earliest_member() {
        let w = find(rodinia::workloads(), "bfs65536");
        let records = profile_all(&w);
        let sel = Pks::new(PksConfig::default()).select(&records).unwrap();
        // One homogeneous group: its representative must be kernel 0
        // (Table 3's selected id for this workload).
        assert_eq!(sel.k(), 1);
        assert_eq!(sel.groups()[0].representative(), KernelId::new(0));
    }

    #[test]
    fn heterogeneous_app_needs_multiple_groups() {
        let w = find(polybench::workloads(), "fdtd2d");
        let records = profile_all(&w);
        let sel = Pks::new(PksConfig::default()).select(&records).unwrap();
        assert!(sel.k() >= 2, "k = {}", sel.k());
        assert!(sel.error_pct() <= 5.0);
        // Group populations reflect the 1000/500 split.
        let mut counts: Vec<u64> = sel.groups().iter().map(|g| g.count()).collect();
        counts.sort_unstable();
        assert_eq!(counts.iter().sum::<u64>(), 1500);
    }

    #[test]
    fn projection_scales_reps_by_count() {
        let w = find(rodinia::workloads(), "bfs65536");
        let records = profile_all(&w);
        let sel = Pks::new(PksConfig::default()).select(&records).unwrap();
        let expected: u64 = sel
            .groups()
            .iter()
            .map(|g| g.representative_cycles() * g.count())
            .sum();
        assert_eq!(sel.projected_cycles(), expected);
        // project_with substitutes new measurements.
        let doubled: Vec<u64> = sel
            .groups()
            .iter()
            .map(|g| g.representative_cycles() * 2)
            .collect();
        assert_eq!(sel.project_with(&doubled), 2 * sel.projected_cycles());
    }

    #[test]
    fn policies_agree_on_homogeneous_groups() {
        let w = find(rodinia::workloads(), "bfs65536");
        let records = profile_all(&w);
        for policy in [
            RepresentativePolicy::FirstChronological,
            RepresentativePolicy::ClusterCentre,
            RepresentativePolicy::Random(7),
        ] {
            let sel = Pks::new(PksConfig::default().with_representative(policy))
                .select(&records)
                .unwrap();
            // Any member of a near-identical group projects well.
            assert!(sel.error_pct() < 10.0, "{policy:?}: {}", sel.error_pct());
        }
    }

    #[test]
    fn tighter_target_cannot_increase_error() {
        let w = find(polybench::workloads(), "gramschmidt");
        let records = profile_all(&w);
        let loose = Pks::new(PksConfig::default().with_target_error_pct(20.0))
            .select(&records)
            .unwrap();
        let tight = Pks::new(PksConfig::default().with_target_error_pct(1.0))
            .select(&records)
            .unwrap();
        assert!(tight.group_deviation_pct() <= loose.group_deviation_pct() + 1e-9);
        assert!(tight.k() >= loose.k());
    }

    #[test]
    fn add_classified_member_grows_count() {
        let w = find(rodinia::workloads(), "bfs65536");
        let records = profile_all(&w);
        let mut sel = Pks::new(PksConfig::default()).select(&records).unwrap();
        let before = sel.groups()[0].count();
        sel.add_classified_member(0);
        assert_eq!(sel.groups()[0].count(), before + 1);
    }

    #[test]
    fn empty_records_rejected() {
        assert!(matches!(
            Pks::new(PksConfig::default()).select(&[]),
            Err(PkaError::InvalidInput { .. })
        ));
    }
}
