//! Multi-way merge of sorted, coded inputs.
//!
//! Thin wrappers over the one tree-of-losers merge, [`FlatMerge`]:
//! merging consumes offset-value codes from its inputs and produces exact
//! codes in its output — the property every downstream operator in this
//! reproduction relies on.  Runs merge in place (rows stay in their
//! contiguous buffers, winners copy slice-to-slice), and so do live batch
//! streams — the order-preserving "merging" exchange of Section 4.10 is
//! the external sort's final merge over inputs that refill.  LSM-forest
//! compaction and scans (Section 4.11) merge their runs the same way.

use std::sync::Arc;

use ovc_core::{BatchStream, ExecError, SortSpec, Stats};

use crate::runs::Run;
use crate::tree::FlatMerge;

/// Merge in-memory flat runs ordered under `spec` into one coded output
/// stream (allocation-free until the stream materializes rows; use
/// [`FlatMerge::into_run`] to stay flat end-to-end).
pub fn merge_runs_spec(runs: Vec<Run>, spec: &SortSpec, stats: &Arc<Stats>) -> FlatMerge {
    FlatMerge::new(runs, spec.clone(), Arc::clone(stats))
}

/// Merge live coded batch streams ordered under `spec` — the gathering
/// exchange.  Same tournament, comparisons and codes as
/// [`merge_runs_spec`] over the same rows: a spent input pulls its
/// stream's next batch where a run would end.  Each input's first batch
/// is pulled here; an input's error is returned, here or by the merge's
/// batch outlet ([`crate::SortOutput::batches`]).
pub fn merge_batch_streams(
    inputs: Vec<Box<dyn BatchStream + Send>>,
    spec: &SortSpec,
    stats: &Arc<Stats>,
) -> Result<FlatMerge, ExecError> {
    FlatMerge::over_streams(inputs, spec.clone(), Arc::clone(stats))
}

/// Merge runs and materialize the result as a single flat run (LSM
/// compaction uses it) — winner rows copy straight between contiguous
/// buffers, no boxed row anywhere.
pub fn merge_runs_to_run_spec(runs: Vec<Run>, spec: &SortSpec, stats: &Arc<Stats>) -> Run {
    merge_runs_spec(runs, spec, stats).into_run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovc_core::derive::assert_codes_exact;
    use ovc_core::{Ovc, Row};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn merge_runs_round_trip() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut runs = Vec::new();
        let mut all: Vec<Row> = Vec::new();
        for _ in 0..5 {
            let mut rows: Vec<Row> = (0..50)
                .map(|_| Row::new(vec![rng.gen_range(0..10u64), rng.gen_range(0..10u64)]))
                .collect();
            rows.sort();
            all.extend(rows.iter().cloned());
            runs.push(Run::from_sorted_rows(rows, 2));
        }
        let stats = Stats::new_shared();
        let merged = merge_runs_to_run_spec(runs, &SortSpec::asc(2), &stats);
        assert_eq!(merged.len(), 250);
        let pairs: Vec<(Row, Ovc)> = merged
            .iter()
            .map(|(r, c)| (Row::from_slice(r), c))
            .collect();
        assert_codes_exact(&pairs, 2);
        all.sort();
        let got: Vec<Row> = pairs.into_iter().map(|(r, _)| r).collect();
        assert_eq!(got, all);
    }

    #[test]
    fn flat_merge_stream_equals_cursor_merge() {
        // The merge's row edge (its `Iterator`, flushing its tally per
        // row) and its flat drain must agree row for row, code for code
        // and comparison for comparison (same tournament, two outlets).
        let mut rng = StdRng::seed_from_u64(9);
        let mut runs = Vec::new();
        for _ in 0..4 {
            let mut rows: Vec<Row> = (0..40)
                .map(|_| Row::new(vec![rng.gen_range(0..6u64), rng.gen()]))
                .collect();
            rows.sort();
            runs.push(Run::from_sorted_rows(rows, 1));
        }
        let spec = SortSpec::asc(1);
        let row_stats = Stats::new_shared();
        let via_rows: Vec<_> = merge_runs_spec(runs.clone(), &spec, &row_stats).collect();
        let flat_stats = Stats::new_shared();
        let via_flat = merge_runs_to_run_spec(runs, &spec, &flat_stats);
        assert_eq!(via_rows, via_flat.to_ovc_rows());
        assert_eq!(row_stats.snapshot(), flat_stats.snapshot());
        assert!(row_stats.ovc_cmps() > 0);
    }

    /// The gathering exchange's merge: the same tournament over live batch
    /// streams.  Inputs of unequal batch counts — thirteen 7-row batches,
    /// one 40-row batch, an empty stream, and five 1-row batches that run
    /// out while the others are still competing — must reproduce the run
    /// merge of the same data row for row, code for code and comparison
    /// for comparison, whatever size the output is cut at.
    #[test]
    fn gather_over_batch_streams_equals_the_run_merge_comparisons_included() {
        use crate::SortOutput;
        use ovc_core::{Direction, FlatRows};
        let mut rng = StdRng::seed_from_u64(19);
        for spec in [
            SortSpec::asc(2),
            SortSpec::with_dirs(&[Direction::Desc, Direction::Asc]),
        ] {
            let mut run = |n: usize, domain: u64| {
                let mut rows: Vec<Row> = (0..n)
                    .map(|_| {
                        Row::new(vec![
                            rng.gen_range(0..domain),
                            rng.gen_range(0..4u64),
                            rng.gen(),
                        ])
                    })
                    .collect();
                rows.sort_by(|a, b| spec.cmp_keys(a.key(2), b.key(2)));
                Run::from_sorted_rows_spec(rows, spec.clone())
            };
            let all = [
                (run(90, 10), 7),
                (run(40, 10), 40),
                (run(0, 10), 3),
                (run(5, 3), 1),
            ];
            // All four inputs, then three of them: a tournament with a
            // padding leaf.
            for inputs in [&all[..], &all[1..]] {
                let total: usize = inputs.iter().map(|(r, _)| r.len()).sum();
                let run_stats = Stats::new_shared();
                let expect = merge_runs_to_run_spec(
                    inputs.iter().map(|(r, _)| r.clone()).collect(),
                    &spec,
                    &run_stats,
                );
                assert_eq!(expect.len(), total);
                for out_batch in [1usize, 7, total, 1000] {
                    let stats = Stats::new_shared();
                    let streams = inputs
                        .iter()
                        .map(|(r, cut)| {
                            Box::new(r.clone().batches(*cut)) as Box<dyn BatchStream + Send>
                        })
                        .collect();
                    let mut out =
                        SortOutput::Merge(merge_batch_streams(streams, &spec, &stats).unwrap())
                            .batches(out_batch);
                    assert_eq!(out.sort_spec(), spec);
                    let mut got = FlatRows::new(3);
                    while let Some(b) = out.next_batch().unwrap() {
                        assert!(!b.is_empty() && b.len() <= out_batch);
                        got.extend_from(&b);
                    }
                    assert_eq!(&got, expect.flat(), "{spec} out_batch={out_batch}");
                    assert_eq!(stats.snapshot(), run_stats.snapshot(), "{spec}");
                }
            }
        }
    }

    /// A stream-fed merge whose input fails on its second batch: the
    /// output batch whose fill reaches that refill is the error, and
    /// every row emitted before it is a prefix of the merge that stops
    /// short of the failing input's last good row.  Failing on the
    /// first batch fails the build.
    #[test]
    fn a_failing_input_ends_the_merge_with_its_error() {
        use crate::{FailAfter, SortOutput};
        use ovc_core::ExecError;
        let spec = SortSpec::asc(1);
        let run = |vals: Vec<u64>| {
            Run::from_sorted_rows(vals.into_iter().map(|v| Row::new(vec![v])).collect(), 1)
        };
        let evens = run((0..40).step_by(2).collect());
        let odds = run((1..40).step_by(2).collect());
        // The odd input's first batch ends at 9: its refill comes right
        // after 9, the merge's tenth row, is popped.
        let merged = merge_runs_to_run_spec(
            vec![evens.clone(), odds.clone()],
            &spec,
            &Stats::new_shared(),
        );
        for out_batch in [1usize, 3, 4, 9, 10, 100] {
            let stats = Stats::new_shared();
            let failing = FailAfter {
                inner: odds.clone().batches(5),
                left: 1,
            };
            let streams: Vec<Box<dyn BatchStream + Send>> =
                vec![Box::new(evens.clone().batches(5)), Box::new(failing)];
            let mut out = SortOutput::Merge(merge_batch_streams(streams, &spec, &stats).unwrap())
                .batches(out_batch);
            let mut emitted = Vec::new();
            let got = loop {
                match out.next_batch() {
                    Ok(Some(b)) => emitted.extend(b.iter().map(|(r, c)| (r.to_vec(), c))),
                    other => break other.map(|_| ()),
                }
            };
            assert_eq!(got, Err(ExecError::Cancelled), "out_batch={out_batch}");
            // Full batches only: the one the refill fell into is dropped.
            assert_eq!(
                emitted.len(),
                9 / out_batch * out_batch,
                "out_batch={out_batch}"
            );
            let prefix: Vec<_> = merged
                .iter()
                .take(emitted.len())
                .map(|(r, c)| (r.to_vec(), c))
                .collect();
            assert_eq!(emitted, prefix, "out_batch={out_batch}");
        }
        // An input failing on its first batch fails the merge's build.
        let failing = FailAfter {
            inner: odds.batches(5),
            left: 0,
        };
        let streams: Vec<Box<dyn BatchStream + Send>> =
            vec![Box::new(evens.batches(5)), Box::new(failing)];
        let built = merge_batch_streams(streams, &spec, &Stats::new_shared());
        assert_eq!(built.map(|_| ()), Err(ExecError::Cancelled));
    }

    /// A merge's size hint never promises fewer rows than it yields.  A
    /// merge over streams sees only its inputs' current batches, so it
    /// gives no upper bound; a run merge's hint stays exact.
    #[test]
    fn size_hint_upper_bound_covers_the_rows_yielded() {
        let spec = SortSpec::asc(1);
        let run = Run::from_sorted_rows((0..10u64).map(|v| Row::new(vec![v])).collect(), 1);
        let stats = Stats::new_shared();
        let over_stream = || {
            let stream = Box::new(run.clone().batches(3)) as Box<dyn BatchStream + Send>;
            merge_batch_streams(vec![stream], &spec, &stats).unwrap()
        };
        let check = |mut rows: Box<dyn Iterator<Item = _>>, exact: bool| {
            for left in (0..=run.len()).rev() {
                let (lo, hi) = rows.size_hint();
                assert!(lo <= left, "lower bound {lo} > {left} left");
                assert!(
                    hi.is_none_or(|hi| hi >= left),
                    "upper bound {hi:?} < {left} left"
                );
                if exact {
                    assert_eq!((lo, hi), (left, Some(left)));
                }
                assert_eq!(rows.next().is_some(), left > 0);
            }
        };
        check(Box::new(over_stream()), false);
        check(
            Box::new(merge_runs_spec(vec![run.clone()], &spec, &stats)),
            true,
        );
    }

    #[test]
    fn merge_no_runs_is_empty() {
        let stats = Stats::new_shared();
        assert!(merge_runs_to_run_spec(vec![], &SortSpec::asc(1), &stats).is_empty());
    }
}
