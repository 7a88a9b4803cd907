//! Deterministic parallel sweep execution.
//!
//! Every experiment in this crate is a grid of independent simulator
//! invocations: one workload on one engine configuration, with nothing
//! shared between invocations except read-only input data. [`run_points`]
//! fans those invocations out across worker threads and reassembles the
//! results **in point order**, so a parallel run produces byte-identical
//! reports to a serial one (`RAYON_NUM_THREADS=1`).
//!
//! Determinism rests on two properties:
//!
//! 1. Each point builds its own [`Ssd`](assasin_ssd::Ssd) (or provider)
//!    from a fixed seed — simulated time is per-instance, so concurrency
//!    cannot reorder simulated events.
//! 2. Results come back indexed by input position, never by completion
//!    order.
//!
//! Derived quantities that couple points — speedups over the Baseline
//! entry, geomeans, utilization normalization — are computed *after*
//! reassembly, on the ordered result vector.

/// Runs `run` over every point concurrently and returns the results in
/// point order. The worker count honors `RAYON_NUM_THREADS`; with one
/// thread the points run serially on the caller's thread, in order.
pub fn run_points<P, R, F>(points: &[P], run: F) -> Vec<R>
where
    P: Sync,
    R: Send,
    F: Fn(&P) -> R + Sync,
{
    assasin_parallel::par_map(points, run)
}

/// Runs a sweep whose points share expensive setup within groups:
/// `build` materializes one prefix (typically a preconditioned
/// [`SsdImage`](assasin_ssd::SsdImage) plus whatever the runner needs to
/// rebuild requests) per *group* of points, and `run` executes each point
/// against its group's shared prefix — forking a copy-on-write device
/// instead of re-generating and re-loading the same dataset per point.
///
/// `group_of` maps each point to a small group id; `build` runs once per
/// distinct id, on the first point carrying it. Prefix builds fan out
/// across worker threads first, then all points fan out, each borrowing
/// its group's prefix — so with one thread the order is "all builds in
/// group order, then all points in point order", and results are
/// byte-identical to a serial run. Group ids need not be dense: ids that
/// never occur simply build nothing.
pub fn run_forked<P, I, R>(
    points: &[P],
    group_of: impl Fn(&P) -> usize + Sync,
    build: impl Fn(&P) -> I + Sync,
    run: impl Fn(&P, &I) -> R + Sync,
) -> Vec<R>
where
    P: Sync,
    I: Send + Sync,
    R: Send,
{
    let gids: Vec<usize> = points.iter().map(&group_of).collect();
    let n_groups = gids.iter().copied().max().map_or(0, |m| m + 1);
    let mut reps: Vec<Option<usize>> = vec![None; n_groups];
    for (i, &g) in gids.iter().enumerate() {
        if reps[g].is_none() {
            reps[g] = Some(i);
        }
    }
    let prefixes: Vec<Option<I>> = run_points(&reps, |rep| rep.map(|i| build(&points[i])));
    let indices: Vec<usize> = (0..points.len()).collect();
    run_points(&indices, |&i| {
        let prefix = prefixes[gids[i]]
            .as_ref()
            .expect("every occurring group id built a prefix");
        run(&points[i], prefix)
    })
}

/// Row-major cartesian product: `(rows[0], cols[0]), (rows[0], cols[1]),
/// ...` — the canonical point order for two-axis sweeps.
pub fn grid<A: Clone, B: Clone>(rows: &[A], cols: &[B]) -> Vec<(A, B)> {
    let mut out = Vec::with_capacity(rows.len() * cols.len());
    for r in rows {
        for c in cols {
            out.push((r.clone(), c.clone()));
        }
    }
    out
}

/// Splits a flat row-major result vector back into rows of `cols`
/// elements (the inverse of [`grid`] along the row axis).
///
/// # Panics
///
/// Panics if the length is not a multiple of `cols`.
pub fn rows_of<T>(flat: Vec<T>, cols: usize) -> Vec<Vec<T>> {
    assert!(cols > 0, "rows_of needs at least one column");
    assert_eq!(
        flat.len() % cols,
        0,
        "flat sweep result ({}) not a whole number of rows of {cols}",
        flat.len()
    );
    let mut rows = Vec::with_capacity(flat.len() / cols);
    let mut it = flat.into_iter();
    while let Some(first) = it.next() {
        let mut row = Vec::with_capacity(cols);
        row.push(first);
        for _ in 1..cols {
            row.push(it.next().expect("length checked above"));
        }
        rows.push(row);
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_follow_point_order_not_completion_order() {
        let points: Vec<u64> = (0..40).collect();
        let got = run_points(&points, |&p| p * 3);
        assert_eq!(got, points.iter().map(|p| p * 3).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let points: Vec<usize> = (0..23).collect();
        let f = |&p: &usize| p.wrapping_mul(0x9E37_79B9) >> 7;
        let parallel = run_points(&points, f);
        let serial = assasin_parallel::with_max_threads(1, || run_points(&points, f));
        assert_eq!(parallel, serial);
    }

    #[test]
    fn grid_is_row_major_and_rows_of_inverts_it() {
        let g = grid(&["a", "b"], &[1, 2, 3]);
        assert_eq!(
            g,
            vec![("a", 1), ("a", 2), ("a", 3), ("b", 1), ("b", 2), ("b", 3)]
        );
        let rows = rows_of(g, 3);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], vec![("a", 1), ("a", 2), ("a", 3)]);
        assert_eq!(rows[1], vec![("b", 1), ("b", 2), ("b", 3)]);
    }

    #[test]
    #[should_panic(expected = "whole number of rows")]
    fn ragged_rows_rejected() {
        let _ = rows_of(vec![1, 2, 3], 2);
    }
}
