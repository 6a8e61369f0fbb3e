use pka_stats::hash::UnitStream;
use pka_stats::Executor;

use crate::{Matrix, MlError};

/// Rows per assignment chunk. Fixed — never derived from the worker count —
/// so the chunk grid, and therefore every fold over per-chunk results, is
/// identical for any [`Executor`].
const ASSIGN_CHUNK: usize = 2048;

/// Relative safety margin applied every time a Hamerly bound is updated.
///
/// Every floating-point operation on the bounds errs by ≲ 2⁻⁵³ relative;
/// inflating upper bounds (and deflating lower bounds) by `1e-9` per update
/// keeps them conservative for millions of Lloyd iterations — far beyond
/// any budget — while costing essentially no pruning power, because real
/// cluster margins dwarf one part in a billion. Conservative bounds are
/// what make the pruned path *provably* bitwise identical to the exhaustive
/// reference: a point is only skipped when its assigned centroid is
/// strictly closest.
const BOUND_PAD: f64 = 1e-9;

#[inline]
fn pad_up(x: f64) -> f64 {
    x * (1.0 + BOUND_PAD)
}

#[inline]
fn pad_down(x: f64) -> f64 {
    x * (1.0 - BOUND_PAD)
}

/// Conservative lower bound on `‖x − c‖²` from the two Euclidean norms:
/// the reverse triangle inequality gives `(‖x‖ − ‖c‖)² ≤ ‖x − c‖²`.
/// Padded downward so accumulated rounding can never push the computed
/// bound above the true squared distance — pruning with it stays exact.
#[inline]
fn norm_lower_bound(nx: f64, nc: f64) -> f64 {
    let m = (nx - nc).abs() - (nx + nc) * 1e-12;
    if m > 0.0 {
        (m * m) * (1.0 - 1e-12)
    } else {
        0.0
    }
}

/// K-Means clustering (Lloyd's algorithm with k-means++ seeding).
///
/// *Principal Kernel Selection* sweeps `K` from 1 to 20 over the
/// PCA-projected kernel metrics; the paper picks K-Means over hierarchical
/// clustering explicitly because it scales to the millions of kernels in
/// MLPerf workloads (Section 3.1) — Lloyd's algorithm is `O(n · k · d)` per
/// iteration and needs only `O(k · d)` extra memory, versus the `O(n²)`
/// distance matrix agglomerative methods require.
///
/// The assignment step is *bounded* (Hamerly-style): each point carries an
/// upper bound on the distance to its assigned centroid and a lower bound
/// on the distance to every other centroid, maintained across iterations
/// from cached centroid drifts. Points whose bounds prove the assignment
/// cannot change skip all distance work — on clustered data that is the
/// vast majority after the first few iterations. Bounds are padded
/// conservatively (see [`BOUND_PAD`]), so the fitted labels, centroids and
/// inertia are **bitwise identical** to the exhaustive reference
/// implementation ([`fit_reference`](KMeans::fit_reference) — the parity
/// suite asserts whole-struct equality), and identical for every worker
/// count of the configured [`Executor`].
///
/// Deterministic: seeding uses an internal splitmix64 stream derived from
/// [`with_seed`](KMeans::with_seed) (default 0).
///
/// # Examples
///
/// ```
/// use pka_ml::{KMeans, Matrix};
///
/// let data = Matrix::from_rows(&[
///     vec![0.0], vec![0.2], vec![10.0], vec![10.2], vec![20.0],
/// ])?;
/// let fit = KMeans::new(3).fit(&data)?;
/// assert_eq!(fit.centroids().len(), 3);
/// assert!(fit.inertia() < 0.1);
/// # Ok::<(), pka_ml::MlError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KMeans {
    k: usize,
    max_iterations: usize,
    seed: u64,
    exec: Executor,
}

impl KMeans {
    /// Configures K-Means with `k` clusters.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            max_iterations: 100,
            seed: 0,
            exec: Executor::sequential(),
        }
    }

    /// Sets the RNG seed used by k-means++ initialisation.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the Lloyd-iteration budget (default 100).
    pub fn with_max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = max_iterations;
        self
    }

    /// Fans the assignment step out over `exec` in fixed-size row chunks.
    ///
    /// Per-point assignment work is independent given the centroids, and
    /// the chunk grid never depends on the worker count, so the fit is
    /// bitwise identical for any `exec` — including the sequential default.
    /// The update step (centroid means) always folds sequentially in row
    /// order to preserve the reference summation order exactly.
    pub fn with_executor(mut self, exec: Executor) -> Self {
        self.exec = exec;
        self
    }

    /// Fits every configuration in `configs` against the same data — the
    /// PKS K-sweep's shape — fanning the independent runs out over `exec`.
    ///
    /// Each configuration carries its own seed, so the runs share no RNG
    /// state and the result vector (in `configs` order) is identical for
    /// any worker count. Configurations normally keep their own executor
    /// sequential here: nesting a parallel inner executor under this outer
    /// fan-out multiplies thread counts without changing any result.
    ///
    /// # Errors
    ///
    /// Returns the first (by `configs` index) error produced by
    /// [`KMeans::fit`].
    pub fn fit_batch(
        configs: &[KMeans],
        data: &Matrix,
        exec: &Executor,
    ) -> Result<Vec<KMeansFit>, MlError> {
        exec.try_map(configs, |_, config| config.fit(data))
    }

    /// Clusters the rows of `data`.
    ///
    /// If `k` exceeds the number of distinct points, surplus clusters end up
    /// empty and are re-seeded onto the points currently farthest from their
    /// centroid; if there are genuinely fewer distinct points than `k`, some
    /// centroids will coincide, which is harmless for PKS (the duplicate
    /// groups are simply empty or tiny).
    ///
    /// # Errors
    ///
    /// * [`MlError::InvalidParameter`] if `k` is zero, or if `k` is at
    ///   least 2 and `data` holds a non-finite value (named by row and
    ///   column).
    /// * [`MlError::EmptyInput`] if `data` has no rows.
    pub fn fit(&self, data: &Matrix) -> Result<KMeansFit, MlError> {
        let _span = pka_obs::span("kmeans.fit");
        self.validate(data)?;
        let n = data.rows();
        let d = data.cols();
        let k = self.k.min(n);
        let mut rng = UnitStream::new(self.seed ^ 0x9e3779b97f4a7c15);

        let point_norms: Vec<f64> = data
            .iter_rows()
            .map(|row| Matrix::sq_norm(row).sqrt())
            .collect();
        let init = plus_plus_init(data, k, &mut rng, &point_norms);
        // Everything the assignment workers read lives behind one RwLock:
        // workers hold read locks only while a round is in flight, the
        // driver below write-locks only between rounds, so the lock is
        // never contended — it exists to let the fixed worker closure of
        // [`Executor::rounds`] observe the driver's between-round mutations.
        let state = std::sync::RwLock::new(AssignState {
            centroids: init,
            labels: vec![0usize; n],
            // Hamerly bounds: `upper[i]` ≥ dist(point i, its centroid),
            // `lower[i]` ≤ dist(point i, every *other* centroid). The
            // initial values force a full scan on the first pass.
            upper: vec![f64::INFINITY; n],
            lower: vec![f64::NEG_INFINITY; n],
            snap_upper: vec![0.0f64; n],
            snap_lower: vec![0.0f64; n],
            cum_drift: vec![0.0f64; k],
            cum_excl: vec![0.0f64; k],
            cum_max: 0.0,
            s_half: vec![0.0f64; k],
        });

        let mut old = vec![0.0f64; k * d];
        // Per-cluster running sums and member counts persist across
        // iterations: a cluster whose membership did not change keeps — by
        // construction, bitwise — the row-order fold the reference would
        // recompute, so only "dirty" clusters are re-summed.
        let mut sums = vec![0.0f64; k * d];
        let mut counts = vec![0usize; k];
        let mut dirty = vec![true; k];
        // Row-ordered membership lists let the update step fold only the
        // points of dirty clusters instead of re-scanning every row. The
        // lists are maintained from the same splice that marks clusters
        // dirty: arrivals queue in `incoming`, departures are dropped at
        // the next fold by a label check, so the merge below visits
        // exactly the rows the full scan would have summed, in the same
        // ascending order — the fold stays bitwise identical.
        let track_members = u32::try_from(n).is_ok();
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); k];
        let mut incoming: Vec<Vec<u32>> = vec![Vec::new(); k];
        let mut merged: Vec<u32> = Vec::new();
        let mut members_built = false;

        let fit = self.exec.rounds(
            n,
            ASSIGN_CHUNK,
            |_, range| {
                let st = state.read().expect("assignment state lock");
                assign_chunk(data, &st, range)
            },
            |run| {
                let mut obs_iterations = 0u64;
                let mut obs_reseeds = 0u64;
                for _ in 0..self.max_iterations {
                    obs_iterations += 1;
                    // Assignment round: chunk-parallel, order-preserving.
                    // Chunks return sparse per-point updates (pruned points
                    // stay put).
                    let chunk_results = run();
                    let mut guard = state.write().expect("assignment state lock");
                    let st = &mut *guard;
                    let mut changed = false;
                    for updates in chunk_results {
                        for u in updates {
                            let i = u.index;
                            if st.labels[i] != u.label {
                                dirty[st.labels[i]] = true;
                                dirty[u.label] = true;
                                st.labels[i] = u.label;
                                changed = true;
                                if track_members {
                                    incoming[u.label].push(i as u32);
                                }
                            }
                            st.upper[i] = u.upper;
                            st.lower[i] = u.lower;
                            st.snap_upper[i] = st.cum_drift[u.label];
                            st.snap_lower[i] = st.cum_excl[u.label];
                        }
                    }

                    // Update step: sequential row-order folds over dirty
                    // clusters, so centroid sums carry the exact rounding of
                    // the reference implementation.
                    old.copy_from_slice(&st.centroids.data);
                    if track_members && members_built {
                        // Merge each dirty cluster's standing members with
                        // this round's arrivals, dropping rows whose label
                        // moved on; both lists are ascending, so the fold
                        // order equals the full scan's.
                        for c in 0..k {
                            if !dirty[c] {
                                continue;
                            }
                            incoming[c].sort_unstable();
                            merged.clear();
                            let sum = &mut sums[c * d..(c + 1) * d];
                            sum.fill(0.0);
                            let (old_list, inc) = (&members[c], &incoming[c]);
                            let (mut a, mut b) = (0usize, 0usize);
                            loop {
                                let next = match (old_list.get(a), inc.get(b)) {
                                    (Some(&x), Some(&y)) if x < y => {
                                        a += 1;
                                        x
                                    }
                                    (Some(_), Some(&y)) => {
                                        b += 1;
                                        y
                                    }
                                    (Some(&x), None) => {
                                        a += 1;
                                        x
                                    }
                                    (None, Some(&y)) => {
                                        b += 1;
                                        y
                                    }
                                    (None, None) => break,
                                };
                                let i = next as usize;
                                if st.labels[i] != c {
                                    continue;
                                }
                                merged.push(next);
                                for (s, &x) in sum.iter_mut().zip(data.row(i)) {
                                    *s += x;
                                }
                            }
                            counts[c] = merged.len();
                            std::mem::swap(&mut members[c], &mut merged);
                            incoming[c].clear();
                        }
                    } else if dirty.iter().any(|&f| f) {
                        for c in 0..k {
                            if dirty[c] {
                                sums[c * d..(c + 1) * d].fill(0.0);
                                counts[c] = 0;
                            }
                            if track_members {
                                members[c].clear();
                                incoming[c].clear();
                            }
                        }
                        for (i, row) in data.iter_rows().enumerate() {
                            let c = st.labels[i];
                            if track_members {
                                members[c].push(i as u32);
                            }
                            if dirty[c] {
                                counts[c] += 1;
                                for (s, &x) in sums[c * d..(c + 1) * d].iter_mut().zip(row) {
                                    *s += x;
                                }
                            }
                        }
                        members_built = track_members;
                    }
                    let mut reseeds: Vec<(usize, usize)> = Vec::new();
                    for c in 0..k {
                        if counts[c] == 0 {
                            // Re-seed the empty cluster on the point
                            // farthest from its current centroid. Distances
                            // are computed once per reseed (not twice per
                            // comparison) against the same mixed old/new
                            // centroid state the sequential update loop
                            // exposes at this index.
                            let dist: Vec<f64> = data
                                .iter_rows()
                                .enumerate()
                                .map(|(i, row)| {
                                    Matrix::sq_dist_hot(row, st.centroids.row(st.labels[i]))
                                })
                                .collect();
                            let far = (0..n)
                                .max_by(|&a, &b| {
                                    dist[a].partial_cmp(&dist[b]).expect("distances are finite")
                                })
                                .expect("data is non-empty");
                            st.centroids.overwrite(c, data.row(far));
                            reseeds.push((st.labels[far], c));
                            st.labels[far] = c;
                            if track_members {
                                // Queue the adoptee for the next round's
                                // fold; its old list drops it by label check.
                                incoming[c].push(far as u32);
                            }
                            // The reseeded point *is* its centroid:
                            // distance 0, and nothing below zero bounds the
                            // second-closest.
                            st.upper[far] = 0.0;
                            st.lower[far] = 0.0;
                            st.snap_upper[far] = st.cum_drift[c];
                            st.snap_lower[far] = st.cum_excl[c];
                            changed = true;
                        } else if dirty[c] {
                            let row = st.centroids.row_mut(c);
                            for (j, &s) in sums[c * d..(c + 1) * d].iter().enumerate() {
                                row[j] = s / counts[c] as f64;
                            }
                            st.centroids.refresh_norm(c);
                        }
                    }
                    // Only reseed-induced membership changes carry into the
                    // next iteration's dirty set; assignment changes are
                    // folded in at splice time.
                    dirty.fill(false);
                    obs_reseeds += reseeds.len() as u64;
                    for (a, b) in reseeds {
                        dirty[a] = true;
                        dirty[b] = true;
                    }

                    if !changed {
                        break;
                    }

                    // Accumulate how far each centroid travelled (applied
                    // lazily to the bounds at the next assignment) and
                    // refresh the half-distance to each centroid's nearest
                    // neighbour for the `s_half` test.
                    let mut max_drift = 0.0f64;
                    let mut second_drift = 0.0f64;
                    let mut argmax = 0usize;
                    for c in 0..k {
                        let drift = pad_up(
                            Matrix::sq_dist_hot(st.centroids.row(c), &old[c * d..(c + 1) * d])
                                .sqrt(),
                        );
                        st.cum_drift[c] += drift;
                        if drift > max_drift {
                            second_drift = max_drift;
                            max_drift = drift;
                            argmax = c;
                        } else if drift > second_drift {
                            second_drift = drift;
                        }
                    }
                    st.cum_max += max_drift;
                    // The fastest-moving centroid's own points exclude it
                    // from their lower-bound decay (it cannot be their
                    // second-closest *and* assigned), so they take the
                    // runner-up drift instead.
                    for (c, ce) in st.cum_excl.iter_mut().enumerate() {
                        *ce += if c == argmax { second_drift } else { max_drift };
                    }
                    for c in 0..k {
                        let mut min_sq = f64::INFINITY;
                        for c2 in 0..k {
                            if c2 != c {
                                let sq = Matrix::sq_dist_hot(
                                    st.centroids.row(c),
                                    st.centroids.row(c2),
                                );
                                if sq < min_sq {
                                    min_sq = sq;
                                }
                            }
                        }
                        st.s_half[c] = if min_sq.is_finite() {
                            pad_down(0.5 * min_sq.sqrt())
                        } else {
                            // k = 1: no other centroid exists, every point
                            // prunes.
                            f64::INFINITY
                        };
                    }
                }

                if pka_obs::enabled() {
                    let obs = obs_counters();
                    obs.fits.incr();
                    obs.reseeds.add(obs_reseeds);
                    obs.iterations.record(obs_iterations);
                }

                let st = state.read().expect("assignment state lock");
                let inertia = data
                    .iter_rows()
                    .enumerate()
                    .map(|(i, row)| Matrix::sq_dist_hot(row, st.centroids.row(st.labels[i])))
                    .sum();

                KMeansFit {
                    centroids: (0..k).map(|c| st.centroids.row(c).to_vec()).collect(),
                    labels: st.labels.clone(),
                    inertia,
                }
            },
        );
        Ok(fit)
    }

    /// The exhaustive reference implementation: plain Lloyd's, every point
    /// scanning every centroid every iteration.
    ///
    /// This is the parity oracle for [`fit`](KMeans::fit) — the bounded
    /// path must return a bitwise-identical [`KMeansFit`] (the root
    /// `kmeans_parity` suite asserts it across seeds × shapes × worker
    /// counts) — and the baseline the `kmeans_sweep` benchmark measures
    /// speedups against. It always runs sequentially and ignores the
    /// configured executor. Not part of the supported API.
    ///
    /// # Errors
    ///
    /// Same as [`fit`](KMeans::fit).
    #[doc(hidden)]
    pub fn fit_reference(&self, data: &Matrix) -> Result<KMeansFit, MlError> {
        self.validate(data)?;
        let n = data.rows();
        let k = self.k.min(n);
        let mut rng = UnitStream::new(self.seed ^ 0x9e3779b97f4a7c15);

        let mut centroids = plus_plus_init_reference(data, k, &mut rng);
        let mut labels = vec![0usize; n];

        for _ in 0..self.max_iterations {
            // Assignment step.
            let mut changed = false;
            for (i, row) in data.iter_rows().enumerate() {
                let best = nearest(row, &centroids).0;
                if labels[i] != best {
                    labels[i] = best;
                    changed = true;
                }
            }

            // Update step.
            let mut sums = vec![vec![0.0; data.cols()]; k];
            let mut counts = vec![0usize; k];
            for (i, row) in data.iter_rows().enumerate() {
                counts[labels[i]] += 1;
                for (s, &x) in sums[labels[i]].iter_mut().zip(row) {
                    *s += x;
                }
            }
            for c in 0..k {
                if counts[c] == 0 {
                    // Re-seed an empty cluster on the point farthest from its
                    // current centroid; distances are computed once, not per
                    // comparison.
                    let dist: Vec<f64> = data
                        .iter_rows()
                        .enumerate()
                        .map(|(i, row)| Matrix::sq_dist(row, &centroids[labels[i]]))
                        .collect();
                    let far = (0..n)
                        .max_by(|&a, &b| {
                            dist[a].partial_cmp(&dist[b]).expect("distances are finite")
                        })
                        .expect("data is non-empty");
                    centroids[c] = data.row(far).to_vec();
                    labels[far] = c;
                    changed = true;
                } else {
                    for (j, s) in sums[c].iter().enumerate() {
                        centroids[c][j] = s / counts[c] as f64;
                    }
                }
            }

            if !changed {
                break;
            }
        }

        let inertia = data
            .iter_rows()
            .enumerate()
            .map(|(i, row)| Matrix::sq_dist(row, &centroids[labels[i]]))
            .sum();

        Ok(KMeansFit {
            centroids,
            labels,
            inertia,
        })
    }

    fn validate(&self, data: &Matrix) -> Result<(), MlError> {
        if self.k == 0 {
            return Err(MlError::InvalidParameter {
                name: "k",
                message: "must be at least 1".into(),
            });
        }
        if data.rows() == 0 || data.cols() == 0 {
            return Err(MlError::EmptyInput);
        }
        // One cluster is a plain mean; more clusters order distances, and a
        // non-finite coordinate leaves them without an order.
        if self.k >= 2 {
            if let Some(i) = data.as_slice().iter().position(|x| !x.is_finite()) {
                let (row, col) = (i / data.cols(), i % data.cols());
                return Err(MlError::InvalidParameter {
                    name: "data",
                    message: format!(
                        "row {row} column {col} is {}; k >= 2 needs finite values",
                        data.get(row, col)
                    ),
                });
            }
        }
        Ok(())
    }
}

/// Flat row-major centroid block with cached Euclidean norms.
///
/// `Vec<Vec<f64>>` centroids cost a pointer chase per distance call; at
/// millions of points × K centroids per Lloyd iteration that indirection
/// dominates. This block keeps all centroids contiguous (`k × d`,
/// row-major, like [`Matrix`]) and caches each centroid's norm, which
/// prices the norm-difference pruning bound.
#[derive(Debug, Clone)]
struct Centroids {
    d: usize,
    data: Vec<f64>,
    /// Euclidean (not squared) norm per centroid.
    norms: Vec<f64>,
}

impl Centroids {
    fn with_capacity(k: usize, d: usize) -> Self {
        Self {
            d,
            data: Vec::with_capacity(k * d),
            norms: Vec::with_capacity(k),
        }
    }

    fn k(&self) -> usize {
        self.norms.len()
    }

    fn row(&self, c: usize) -> &[f64] {
        &self.data[c * self.d..(c + 1) * self.d]
    }

    fn row_mut(&mut self, c: usize) -> &mut [f64] {
        &mut self.data[c * self.d..(c + 1) * self.d]
    }

    fn push(&mut self, row: &[f64]) {
        self.data.extend_from_slice(row);
        self.norms.push(Matrix::sq_norm(row).sqrt());
    }

    fn overwrite(&mut self, c: usize, row: &[f64]) {
        self.row_mut(c).copy_from_slice(row);
        self.norms[c] = Matrix::sq_norm(row).sqrt();
    }

    fn refresh_norm(&mut self, c: usize) {
        self.norms[c] = Matrix::sq_norm(self.row(c)).sqrt();
    }
}

/// A single point whose bounds (and possibly label) were refreshed by the
/// assignment step. Pruned points emit nothing.
struct PointUpdate {
    index: usize,
    label: usize,
    upper: f64,
    lower: f64,
}

/// Everything the assignment workers read, mutated by the driver strictly
/// between rounds (see [`KMeans::fit`]).
struct AssignState {
    centroids: Centroids,
    labels: Vec<usize>,
    upper: Vec<f64>,
    lower: Vec<f64>,
    snap_upper: Vec<f64>,
    snap_lower: Vec<f64>,
    /// Per-centroid accumulated padded drift, applied lazily to upper
    /// bounds at assignment time.
    cum_drift: Vec<f64>,
    /// Accumulated per-iteration maximum drift *over the other centroids*,
    /// indexed by a point's label and applied lazily to its lower bound —
    /// Hamerly's bound: the second-closest centroid is some `c ≠ label`, so
    /// the assigned centroid's own travel never loosens the lower bound.
    cum_excl: Vec<f64>,
    /// Accumulated per-iteration maximum drifts over *all* centroids; an
    /// upper envelope of every `cum_excl` entry, used to scale the
    /// reconstruction error padding.
    cum_max: f64,
    /// Half the distance from each centroid to its nearest other centroid,
    /// padded down (Hamerly's second pruning test).
    s_half: Vec<f64>,
}

/// Extra absolute padding, relative to the drift accumulators, covering the
/// floating-point error of reconstructing a bound from an accumulator
/// delta. Summation error over any realistic iteration budget is below
/// `1e-14` relative; `1e-12` leaves two orders of magnitude to spare.
const CUM_PAD: f64 = 1e-12;

/// The bounded assignment step over one row range.
///
/// Bounds are reconstructed lazily from the per-centroid drift
/// accumulators (see [`KMeans::fit`]); a point whose reconstructed bounds —
/// or Hamerly's `s_half` centroid-separation test — prove its assigned
/// centroid is still strictly closest is skipped without storing anything.
/// Otherwise its upper bound is tightened with one exact distance, and only
/// if that still fails does the point pay the full scan — whose comparison
/// sequence is identical to the reference [`nearest`], so any label it
/// produces matches the reference bit for bit.
fn assign_chunk(data: &Matrix, st: &AssignState, range: std::ops::Range<usize>) -> Vec<PointUpdate> {
    let range_len = range.len();
    // Full-scan fallbacks are tallied locally; together with `out.len()`
    // they classify every point in the chunk (prune / tighten / scan), so
    // the per-point loop itself carries no instrumentation at all.
    let mut scans = 0u64;
    let mut out = Vec::new();
    for i in range {
        let label = st.labels[i];
        let (mut u, mut l) = reconstruct_bounds(
            st.upper[i],
            st.snap_upper[i],
            st.lower[i],
            st.snap_lower[i],
            st.cum_drift[label],
            st.cum_excl[label],
            st.cum_max,
        );
        // Strict `<`: a NaN bound never prunes.
        if u < l || u < st.s_half[label] {
            continue;
        }
        let row = data.row(i);
        let mut best = label;
        // Tighten the upper bound with one exact distance before paying
        // for the full scan — unless the point has never been scanned
        // (`l` still at its −∞ sentinel), where the scan is inevitable
        // and the tightening distance would be wasted.
        if l.is_finite() {
            u = pad_up(Matrix::sq_dist_hot(row, st.centroids.row(label)).sqrt());
        }
        if !(u < l || u < st.s_half[label]) {
            scans += 1;
            let (winner, best_d, second_d) = scan(row, &st.centroids);
            best = winner;
            u = pad_up(best_d.sqrt());
            l = pad_down(second_d.sqrt());
        }
        out.push(PointUpdate {
            index: i,
            label: best,
            upper: u,
            lower: l,
        });
    }
    if pka_obs::enabled() {
        obs_counters().bound_prunes.add((range_len - out.len()) as u64);
        obs_counters().tighten_hits.add(out.len() as u64 - scans);
        obs_counters().full_scans.add(scans);
    }
    out
}

/// Reconstructs one point's Hamerly bounds from its stored bounds and the
/// drift accumulators. `cd` is the assigned centroid's accumulated drift,
/// `ce` the accumulated maximum drift over the *other* centroids (the
/// assigned centroid cannot be the second-closest, so its own travel never
/// decays the lower bound), and `cum_max` the accumulated global maximum
/// drift, used only to scale the error padding. Returns the padded
/// `(upper, lower)` pair; `±∞` sentinels pass through the lower bound
/// unpadded (padding arithmetic on infinities would produce NaN).
#[inline]
fn reconstruct_bounds(
    upper: f64,
    snap_upper: f64,
    lower: f64,
    snap_lower: f64,
    cd: f64,
    ce: f64,
    cum_max: f64,
) -> (f64, f64) {
    let u = (upper + (cd - snap_upper)) * (1.0 + BOUND_PAD) + cd * CUM_PAD;
    let base = lower - (ce - snap_lower);
    let l = if base.is_finite() {
        base - BOUND_PAD * base.abs() - cum_max * CUM_PAD
    } else {
        base
    };
    (u, l)
}

/// Cached hot-path counter handles, interned once per process.
struct KmeansObs {
    bound_prunes: &'static pka_obs::Counter,
    tighten_hits: &'static pka_obs::Counter,
    full_scans: &'static pka_obs::Counter,
    reseeds: &'static pka_obs::Counter,
    fits: &'static pka_obs::Counter,
    iterations: &'static pka_obs::Histogram,
}

fn obs_counters() -> &'static KmeansObs {
    static OBS: std::sync::OnceLock<KmeansObs> = std::sync::OnceLock::new();
    OBS.get_or_init(|| KmeansObs {
        bound_prunes: pka_obs::counter("kmeans.bound_prunes"),
        tighten_hits: pka_obs::counter("kmeans.tighten_hits"),
        full_scans: pka_obs::counter("kmeans.full_scans"),
        reseeds: pka_obs::counter("kmeans.reseeds"),
        fits: pka_obs::counter("kmeans.fits"),
        iterations: pka_obs::histogram("kmeans.iterations", &[1, 2, 4, 8, 16, 32, 64, 100]),
    })
}

/// Exhaustive scan over flat centroids: `(closest, its squared distance,
/// second-closest squared distance)`.
///
/// The comparison sequence — strict `<` against the running best, in
/// ascending centroid order — matches [`nearest`] exactly, so the winner is
/// always the reference winner: the first of equal distances wins and a
/// NaN distance never places.
fn scan(point: &[f64], centroids: &Centroids) -> (usize, f64, f64) {
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    let mut second_d = f64::INFINITY;
    // `Matrix` rejects zero-column inputs, so `d >= 1` here.
    for (c, row) in centroids.data.chunks_exact(centroids.d).enumerate() {
        let d = Matrix::sq_dist_hot(point, row);
        if d < best_d {
            second_d = best_d;
            best_d = d;
            best = c;
        } else if d < second_d {
            second_d = d;
        }
    }
    (best, best_d, second_d)
}

/// Chooses `k` initial centroids with the k-means++ D² weighting, into flat
/// storage.
///
/// Draw-for-draw and value-for-value identical to
/// [`plus_plus_init_reference`]: the cached-norm lower bound only skips
/// `sq_dist` calls that provably cannot lower `d2[i]`, so the D² weights —
/// and therefore every RNG draw and chosen index — are unchanged.
fn plus_plus_init(data: &Matrix, k: usize, rng: &mut UnitStream, point_norms: &[f64]) -> Centroids {
    let n = data.rows();
    let d = data.cols();
    let mut centroids = Centroids::with_capacity(k, d);
    let first = rng.next_index(n);
    centroids.push(data.row(first));
    let c0 = centroids.row(0);
    let mut d2: Vec<f64> = data
        .iter_rows()
        .map(|row| Matrix::sq_dist_hot(row, c0))
        .collect();

    while centroids.k() < k {
        let total: f64 = d2.iter().sum();
        let chosen = if total <= 0.0 {
            // All points coincide with an existing centroid; pick uniformly.
            rng.next_index(n)
        } else {
            let mut target = rng.next_f64() * total;
            let mut idx = n - 1;
            for (i, &d) in d2.iter().enumerate() {
                if target < d {
                    idx = i;
                    break;
                }
                target -= d;
            }
            idx
        };
        centroids.push(data.row(chosen));
        let c = centroids.row(centroids.k() - 1);
        let c_norm = point_norms[chosen];
        for (i, row) in data.iter_rows().enumerate() {
            if norm_lower_bound(point_norms[i], c_norm) > d2[i] {
                continue;
            }
            let d = Matrix::sq_dist_hot(row, c);
            if d < d2[i] {
                d2[i] = d;
            }
        }
    }
    centroids
}

/// The reference k-means++ seeding (nested storage, no pruning), kept
/// verbatim so [`KMeans::fit_reference`] is a genuinely independent oracle.
fn plus_plus_init_reference(data: &Matrix, k: usize, rng: &mut UnitStream) -> Vec<Vec<f64>> {
    let n = data.rows();
    let first = (rng.next_f64() * n as f64) as usize % n;
    let mut centroids: Vec<Vec<f64>> = vec![data.row(first).to_vec()];
    let mut d2: Vec<f64> = data
        .iter_rows()
        .map(|row| Matrix::sq_dist(row, &centroids[0]))
        .collect();

    while centroids.len() < k {
        let total: f64 = d2.iter().sum();
        let chosen = if total <= 0.0 {
            // All points coincide with an existing centroid; pick uniformly.
            (rng.next_f64() * n as f64) as usize % n
        } else {
            let mut target = rng.next_f64() * total;
            let mut idx = n - 1;
            for (i, &d) in d2.iter().enumerate() {
                if target < d {
                    idx = i;
                    break;
                }
                target -= d;
            }
            idx
        };
        let c = data.row(chosen).to_vec();
        for (i, row) in data.iter_rows().enumerate() {
            d2[i] = d2[i].min(Matrix::sq_dist(row, &c));
        }
        centroids.push(c);
    }
    centroids
}

fn nearest(point: &[f64], centroids: &[Vec<f64>]) -> (usize, f64) {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (c, centroid) in centroids.iter().enumerate() {
        let d = Matrix::sq_dist_hot(point, centroid);
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    (best, best_d)
}

/// A fitted K-Means clustering.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansFit {
    centroids: Vec<Vec<f64>>,
    labels: Vec<usize>,
    inertia: f64,
}

impl KMeansFit {
    /// Cluster centroids.
    pub fn centroids(&self) -> &[Vec<f64>] {
        &self.centroids
    }

    /// Cluster label of each input row, in input order.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Sum of squared distances of every point to its centroid.
    pub fn inertia(&self) -> f64 {
        self.inertia
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// Assigns a new sample to the nearest centroid.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] on feature-count mismatch.
    pub fn predict(&self, point: &[f64]) -> Result<usize, MlError> {
        let d = self.centroids[0].len();
        if point.len() != d {
            return Err(MlError::DimensionMismatch {
                expected: d,
                actual: point.len(),
            });
        }
        Ok(nearest(point, &self.centroids).0)
    }

    /// Indices of cluster members, per cluster.
    pub fn members(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.centroids.len()];
        for (i, &l) in self.labels.iter().enumerate() {
            out[l].push(i);
        }
        out
    }

    /// For each cluster, the index of the member closest to the centroid
    /// (`None` for empty clusters).
    pub fn medoids(&self, data: &Matrix) -> Vec<Option<usize>> {
        let mut best: Vec<Option<(usize, f64)>> = vec![None; self.centroids.len()];
        for (i, row) in data.iter_rows().enumerate() {
            let l = self.labels[i];
            let d = Matrix::sq_dist(row, &self.centroids[l]);
            if best[l].is_none_or(|(_, bd)| d < bd) {
                best[l] = Some((i, d));
            }
        }
        best.into_iter().map(|b| b.map(|(i, _)| i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> Matrix {
        let mut rows = Vec::new();
        for i in 0..20 {
            let j = i as f64 * 0.01;
            rows.push(vec![0.0 + j, 0.0 - j]);
            rows.push(vec![10.0 + j, 10.0 - j]);
            rows.push(vec![-10.0 + j, 10.0 - j]);
        }
        Matrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn zero_k_rejected() {
        let data = Matrix::from_rows(&[vec![1.0]]).unwrap();
        assert!(matches!(
            KMeans::new(0).fit(&data),
            Err(MlError::InvalidParameter { .. })
        ));
        assert!(matches!(
            KMeans::new(0).fit_reference(&data),
            Err(MlError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn empty_data_rejected() {
        assert_eq!(
            KMeans::new(2).fit(&Matrix::zeros(0, 2)),
            Err(MlError::EmptyInput)
        );
        assert_eq!(
            KMeans::new(2).fit_reference(&Matrix::zeros(0, 2)),
            Err(MlError::EmptyInput)
        );
    }

    #[test]
    fn recovers_three_blobs() {
        let data = blobs();
        let fit = KMeans::new(3).with_seed(1).fit(&data).unwrap();
        // Every blob is internally consistent.
        for b in 0..3 {
            let first = fit.labels()[b];
            for i in 0..20 {
                assert_eq!(fit.labels()[i * 3 + b], first, "blob {b} split");
            }
        }
        // And the three blobs use three distinct labels.
        let mut ls = vec![fit.labels()[0], fit.labels()[1], fit.labels()[2]];
        ls.sort_unstable();
        ls.dedup();
        assert_eq!(ls.len(), 3);
        assert!(fit.inertia() < 1.0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let data = blobs();
        let a = KMeans::new(3).with_seed(42).fit(&data).unwrap();
        let b = KMeans::new(3).with_seed(42).fit(&data).unwrap();
        assert_eq!(a.labels(), b.labels());
        assert_eq!(a.centroids(), b.centroids());
    }

    #[test]
    fn bounded_fit_matches_reference_on_blobs() {
        let data = blobs();
        for k in [1, 2, 3, 5, 8] {
            for seed in [0u64, 7, 42] {
                let config = KMeans::new(k).with_seed(seed);
                let bounded = config.fit(&data).unwrap();
                let reference = config.fit_reference(&data).unwrap();
                assert_eq!(bounded, reference, "k={k} seed={seed}");
                assert_eq!(bounded.inertia().to_bits(), reference.inertia().to_bits());
            }
        }
    }

    #[test]
    fn k_one_centroid_is_mean() {
        let data = Matrix::from_rows(&[vec![0.0, 0.0], vec![2.0, 4.0]]).unwrap();
        let fit = KMeans::new(1).fit(&data).unwrap();
        assert_eq!(fit.centroids()[0], vec![1.0, 2.0]);
        assert_eq!(fit.labels(), &[0, 0]);
    }

    #[test]
    fn k_greater_than_n_is_capped() {
        let data = Matrix::from_rows(&[vec![0.0], vec![1.0]]).unwrap();
        let fit = KMeans::new(5).fit(&data).unwrap();
        assert_eq!(fit.k(), 2);
        assert!(fit.inertia() < 1e-12);
    }

    #[test]
    fn duplicate_points_do_not_hang() {
        let data = Matrix::from_rows(&vec![vec![3.0, 3.0]; 10]).unwrap();
        let fit = KMeans::new(3).fit(&data).unwrap();
        assert_eq!(fit.labels().len(), 10);
        assert!(fit.inertia() < 1e-12);
    }

    #[test]
    fn predict_assigns_to_nearest() {
        let data = blobs();
        let fit = KMeans::new(3).with_seed(1).fit(&data).unwrap();
        let l0 = fit.predict(&[0.1, 0.0]).unwrap();
        assert_eq!(l0, fit.labels()[0]);
        assert!(matches!(
            fit.predict(&[1.0]),
            Err(MlError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn members_partition_input() {
        let data = blobs();
        let fit = KMeans::new(3).with_seed(1).fit(&data).unwrap();
        let members = fit.members();
        let total: usize = members.iter().map(|m| m.len()).sum();
        assert_eq!(total, data.rows());
    }

    #[test]
    fn medoid_is_in_its_cluster() {
        let data = blobs();
        let fit = KMeans::new(3).with_seed(1).fit(&data).unwrap();
        for (c, m) in fit.medoids(&data).into_iter().enumerate() {
            let m = m.expect("no empty clusters here");
            assert_eq!(fit.labels()[m], c);
        }
    }

    #[test]
    fn inertia_non_increasing_in_k() {
        let data = blobs();
        let mut prev = f64::INFINITY;
        for k in 1..=5 {
            let fit = KMeans::new(k).with_seed(3).fit(&data).unwrap();
            assert!(
                fit.inertia() <= prev + 1e-9,
                "k={k}: {} > {prev}",
                fit.inertia()
            );
            prev = fit.inertia();
        }
    }

    #[test]
    fn scan_ties_keep_the_first_centroid_and_nan_never_places() {
        // Centroids 1 and 3 are identical: strict `<` keeps index 1.
        // Centroid 2 is all-NaN: its distance is NaN, every comparison is
        // false, and it never places — not even second.
        let d = 3;
        let tied = vec![0.25; d];
        let rows = [vec![9.0; d], tied.clone(), vec![f64::NAN; d], tied];
        let mut centroids = Centroids::with_capacity(rows.len(), d);
        for row in &rows {
            centroids.push(row);
        }
        for i in 0..8 {
            let point: Vec<f64> = (0..d).map(|j| ((i * d + j) % 5) as f64 * 0.5).collect();
            let (best, best_d, second_d) = scan(&point, &centroids);
            assert_eq!(best, 1, "point {i}: a tie keeps the first index");
            assert!(best_d.is_finite());
            assert_eq!(second_d.to_bits(), best_d.to_bits(), "point {i}");
            assert_eq!(nearest(&point, &rows), (1, best_d), "point {i}");
        }
    }

    #[test]
    fn norm_lower_bound_never_exceeds_true_distance() {
        let mut rng = UnitStream::new(5);
        for _ in 0..2000 {
            let d = 1 + (rng.next_u64() % 8) as usize;
            let a: Vec<f64> = (0..d).map(|_| rng.next_range(-1e3, 1e3)).collect();
            let b: Vec<f64> = (0..d).map(|_| rng.next_range(-1e3, 1e3)).collect();
            let lb = norm_lower_bound(
                Matrix::sq_norm(&a).sqrt(),
                Matrix::sq_norm(&b).sqrt(),
            );
            assert!(
                lb <= Matrix::sq_dist(&a, &b),
                "bound {lb} above distance for {a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn fit_batch_matches_sequential_fits_for_any_worker_count() {
        let data = blobs();
        let configs: Vec<KMeans> = (1..=6)
            .map(|k| KMeans::new(k).with_seed(11 ^ k as u64))
            .collect();
        let sequential: Vec<KMeansFit> = configs.iter().map(|c| c.fit(&data).unwrap()).collect();
        for workers in [1, 2, 5] {
            let batch =
                KMeans::fit_batch(&configs, &data, &Executor::new(workers)).unwrap();
            assert_eq!(batch.len(), sequential.len());
            for (b, s) in batch.iter().zip(&sequential) {
                assert_eq!(b.labels(), s.labels());
                assert_eq!(b.centroids(), s.centroids());
                assert_eq!(b.inertia().to_bits(), s.inertia().to_bits());
            }
        }
    }

    #[test]
    fn chunked_fit_is_worker_count_invariant() {
        // More rows than one assignment chunk, so parallel runs really
        // splice multiple chunk results.
        let mut rng = UnitStream::new(77);
        let rows: Vec<Vec<f64>> = (0..(ASSIGN_CHUNK * 2 + 100))
            .map(|i| {
                let c = (i % 4) as f64 * 25.0;
                vec![c + rng.next_range(-1.0, 1.0), c - rng.next_range(-1.0, 1.0)]
            })
            .collect();
        let data = Matrix::from_rows(&rows).unwrap();
        let config = KMeans::new(4).with_seed(9);
        let sequential = config.fit(&data).unwrap();
        for workers in [2, 4, 8] {
            let parallel = config.with_executor(Executor::new(workers)).fit(&data).unwrap();
            assert_eq!(parallel, sequential, "{workers} workers diverged");
            assert_eq!(
                parallel.inertia().to_bits(),
                sequential.inertia().to_bits()
            );
        }
    }
}
