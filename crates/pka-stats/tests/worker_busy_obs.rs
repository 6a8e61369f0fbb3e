//! Per-worker busy observability for [`pka_stats::Executor`] fan-outs.
//!
//! Lives in its own integration-test binary (= its own process) because it
//! enables the process-global `pka-obs` registry; sharing a process with
//! the unit tests would let unrelated fan-outs race the gauge assertions.

use pka_stats::Executor;

/// One combined test: the global registry is process-wide, so sequential
/// phases inside a single `#[test]` keep snapshots race-free.
///
/// The executor caps spawned threads at the hardware thread count
/// ([`Executor::spawn_count`]), so the expected stage shape depends on the
/// host: on a multi-core machine the configured workers each publish a
/// busy stage; on a single-core one the fan-out runs inline and publishes
/// none. Both contracts are asserted by branching on `spawn_count`.
#[test]
fn fan_outs_publish_per_worker_busy_and_spread_gauges() {
    pka_obs::reset();
    pka_obs::enable();

    // Phase 1: a plain map over enough items to keep all workers busy.
    let items: Vec<u64> = (0..4096).collect();
    let exec = Executor::new(4);
    let spawned = exec.spawn_count(items.len());
    let out = exec.map(&items, |_, &x| {
        // Enough work per item that every worker claims at least one.
        (0..64).fold(x, |acc, i| acc.wrapping_mul(31).wrapping_add(i))
    });
    assert_eq!(out.len(), items.len());

    let snap = pka_obs::snapshot();
    if spawned > 1 {
        let aggregate = snap
            .stages
            .get("executor.worker_busy")
            .expect("aggregate worker stage recorded");
        assert_eq!(
            aggregate.calls, spawned as u64,
            "one busy record per spawned worker"
        );
        let per_worker_total: u64 = (0..spawned)
            .map(|w| {
                snap.stages
                    .get(&format!("executor.worker_busy.w{w}"))
                    .map(|s| {
                        assert_eq!(s.calls, 1, "worker {w} records once per fan-out");
                        s.total_ns
                    })
                    .unwrap_or_else(|| panic!("per-worker stage w{w} recorded"))
            })
            .sum();
        assert_eq!(
            per_worker_total, aggregate.total_ns,
            "per-worker stages partition the aggregate"
        );

        let max = snap.gauges["executor.busy_max_ns"];
        let min = snap.gauges["executor.busy_min_ns"];
        let ratio = snap.gauges["executor.busy_ratio_pct"];
        assert!(max >= min, "max busy {max} >= min busy {min}");
        assert!(min >= 0);
        assert!((0..=100).contains(&ratio), "ratio {ratio} is a percentage");
        if max > 0 {
            assert_eq!(ratio, min * 100 / max);
        }
    } else {
        // Inline path (single hardware thread): no worker threads, no
        // per-worker stages — the fan-out must be indistinguishable from
        // the sequential executor's.
        assert!(
            !snap.stages.contains_key("executor.worker_busy"),
            "inline fan-out publishes no worker stages"
        );
    }

    // Phase 2: a round pool flushes per-worker busy at shutdown too.
    pka_obs::reset();
    let sums: Vec<Vec<u64>> = exec.rounds(
        items.len(),
        64,
        |_, r| items[r].iter().sum::<u64>(),
        |run| (0..3).map(|_| run()).collect(),
    );
    assert_eq!(sums.len(), 3);
    let snap = pka_obs::snapshot();
    if spawned > 1 {
        assert!(
            snap.stages.contains_key("executor.worker_busy"),
            "round pool records the aggregate stage"
        );
        assert!(
            (0..spawned).any(|w| snap
                .stages
                .contains_key(&format!("executor.worker_busy.w{w}"))),
            "round pool records at least one per-worker stage"
        );
        let max = snap.gauges["executor.busy_max_ns"];
        let min = snap.gauges["executor.busy_min_ns"];
        assert!(max >= min);
        assert!((0..=100).contains(&snap.gauges["executor.busy_ratio_pct"]));
    } else {
        assert!(
            !snap.stages.contains_key("executor.worker_busy"),
            "inline round pool publishes no worker stages"
        );
    }

    // Phase 3: observability must not perturb results — same bits as the
    // sequential run even with the registry enabled.
    let observed = exec.map(&items, |_, &x| (x as f64) * 1.000000001 + 0.125);
    pka_obs::disable();
    let plain = Executor::sequential().map(&items, |_, &x| (x as f64) * 1.000000001 + 0.125);
    assert_eq!(
        observed.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        plain.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
    );
}
