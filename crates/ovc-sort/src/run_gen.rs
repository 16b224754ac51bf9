//! Run generation.
//!
//! The OVC-native strategy follows Section 3: "run generation merges
//! 'sorted' runs of a single row each" — a tree-of-losers priority queue
//! over single-row inputs whose build-up and tear-down produce a sorted,
//! exactly-coded run.  Offset-value codes decide most comparisons; total
//! column-value comparisons stay within `N × K`.
//!
//! The quicksort strategy is the conventional baseline: sort with full key
//! comparisons, then prime codes in one linear pass (the "comparing …
//! row-by-row, column-by-column" method).  Both feed the external sorter;
//! the comparison-bound tests compare them.
//!
//! All strategies run over **flat** buffers (DESIGN.md §10).  The input
//! is a [`BatchStream`]: the executor's flat batches, or boxed rows cut
//! into batches at the library's edge ([`RowBatches`]).  Each row is
//! copied once into a workspace of at most `memory_rows` rows, the sort
//! permutes indices or tournament entries over that buffer, and the
//! winner sequence is gathered straight into the output run's flat
//! storage.  No boxed row is moved, allocated, or dropped anywhere in the
//! hot loop.

use std::ops::Range;
use std::sync::Arc;

use ovc_core::compare::{compare_keys_counted, derive_code, derive_code_spec};
use ovc_core::{BatchStream, FlatRows, Ovc, Row, RowBatches, SortSpec, Stats, Tally};

use crate::replacement::generate_runs_replacement;
use crate::runs::Run;
use crate::tree::{loser_tree, play_entries, Entry, FENCE_ENTRY};

/// Run generation's workspace: rows copied flat out of the input's
/// batches, fixing the width from the first batch.
#[derive(Default)]
struct Workspace {
    width: Option<usize>,
    values: Vec<u64>,
    rows: usize,
}

impl Workspace {
    /// Take in `batch`, handing the workspace to `full` each time it holds
    /// `cap` rows and emptying it after (its buffer is kept).  Every row
    /// is copied once: a batch that fits an empty workspace whose buffer
    /// is no larger than the batch's becomes the workspace, uncopied.
    fn absorb(&mut self, batch: FlatRows, cap: usize, full: &mut impl FnMut(&Workspace)) {
        let n = batch.len();
        let (width, mut values, _) = batch.into_parts();
        let fixed = *self.width.get_or_insert(width);
        assert_eq!(width, fixed, "run generation requires uniform rows");
        let mut at = 0;
        if self.rows == 0 && n <= cap && self.values.capacity() <= values.len() {
            self.values = std::mem::take(&mut values);
            (self.rows, at) = (n, n);
        }
        loop {
            if self.rows == cap {
                full(self);
                self.values.clear();
                self.rows = 0;
            }
            if at == n {
                return;
            }
            let take = (cap - self.rows).min(n - at);
            self.values
                .extend_from_slice(&values[at * width..(at + take) * width]);
            self.rows += take;
            at += take;
        }
    }
}

/// Copy a whole stream into one resident flat buffer, returning `(row
/// count, width, values)` — the input the parallel sorters slice.
pub(crate) fn resident(mut input: impl BatchStream) -> (usize, usize, Vec<u64>) {
    let mut ws = Workspace::default();
    while let Some(batch) = input.next_batch() {
        ws.absorb(batch, usize::MAX, &mut |_| {});
    }
    (ws.rows, ws.width.unwrap_or(0), ws.values)
}

/// Sort one flat buffer into a run under the requested strategy.
fn sort_flat(
    n: usize,
    width: usize,
    values: &[u64],
    spec: &SortSpec,
    strategy: RunGenStrategy,
    stats: &Arc<Stats>,
) -> Run {
    if n == 0 {
        return Run::empty_spec(spec.clone());
    }
    if spec.normalized() {
        return sort_flat_normalized(n, width, values, spec, stats);
    }
    match strategy {
        RunGenStrategy::OvcPriorityQueue => flat_tournament_sort(n, width, values, spec, stats),
        RunGenStrategy::Quicksort => sort_flat_quicksort(n, width, values, spec, stats),
        RunGenStrategy::ReplacementSelection => unreachable!("handled by caller"),
    }
}

/// Sort rows `range` of a resident flat buffer into OVC runs of at most
/// `memory_rows` rows each, in place: a parallel worker's share.
pub(crate) fn sort_windows(
    values: &[u64],
    width: usize,
    range: Range<usize>,
    memory_rows: usize,
    spec: &SortSpec,
    stats: &Arc<Stats>,
) -> Vec<Run> {
    assert!(memory_rows > 0, "memory budget must hold at least one row");
    range
        .clone()
        .step_by(memory_rows)
        .map(|start| {
            let end = (start + memory_rows).min(range.end);
            let window = &values[start * width..end * width];
            let strategy = RunGenStrategy::OvcPriorityQueue;
            sort_flat(end - start, width, window, spec, strategy, stats)
        })
        .collect()
}

/// Sort rows into one run using a tree-of-losers priority queue over
/// single-row inputs.  Codes are a by-product of the tournament.
pub fn sort_rows_ovc(rows: Vec<Row>, key_len: usize, stats: &Arc<Stats>) -> Run {
    sort_rows_ovc_spec(rows, &SortSpec::asc(key_len), stats)
}

/// Direction-aware [`sort_rows_ovc`]: a tree-of-losers over single-row
/// inputs under an arbitrary leading-prefix [`SortSpec`].  When the spec
/// requests normalized-key encoding the rows are instead ordered by
/// comparing order-preserving byte strings (the IBM CFC regime — one
/// normalization pass charged as `N × K` column accesses, then pure byte
/// comparisons) and codes are derived in a linear pass.
pub fn sort_rows_ovc_spec(rows: Vec<Row>, spec: &SortSpec, stats: &Arc<Stats>) -> Run {
    sort_rows(rows, spec, RunGenStrategy::OvcPriorityQueue, stats)
}

/// All of `rows` as one run: a single unbounded workspace.
fn sort_rows(rows: Vec<Row>, spec: &SortSpec, strategy: RunGenStrategy, stats: &Arc<Stats>) -> Run {
    let input = RowBatches::new(rows, usize::MAX);
    generate_runs_from(input, spec, usize::MAX, strategy, stats)
        .pop()
        .unwrap_or_else(|| Run::empty_spec(spec.clone()))
}

/// The single-row tournament of Section 3 over a flat buffer: leaf `i` is
/// row `i` in place; the build-up plays initial codes (each relative to
/// "−∞"), every pop replays one leaf-to-root path of same-base code
/// comparisons, and the winner's columns are copied slice-to-slice into
/// the output run.  Bit-identical comparisons, codes, and counters to the
/// boxed-row formulation it replaces; the comparisons are tallied locally
/// and reach `stats` once, when the run is complete.
fn flat_tournament_sort(
    n: usize,
    width: usize,
    values: &[u64],
    spec: &SortSpec,
    stats: &Arc<Stats>,
) -> Run {
    let k = spec.len();
    let asc = spec.is_asc_prefix();
    let key_of = |e: Entry| -> &[u64] {
        let i = e.run as usize;
        if i < n {
            &values[i * width..i * width + k]
        } else {
            &[]
        }
    };

    let cap = n.next_power_of_two().max(1);
    let mut nodes = vec![FENCE_ENTRY; cap];
    let tally = Tally::default();
    let mut play = |a: Entry, b: Entry| play_entries(a, b, key_of, spec, asc, &tally);
    let mut winner = loser_tree::build(
        &mut nodes,
        cap,
        &mut |r| {
            if r < n {
                spec.initial_code(&values[r * width..r * width + k])
            } else {
                Ovc::LATE_FENCE
            }
        },
        &tally,
        &mut play,
    );

    let mut out = FlatRows::with_capacity(width, n);
    while !winner.code.is_late_fence() {
        let w = winner.run as usize;
        out.push(&values[w * width..(w + 1) * width], winner.code);
        // A single-row input is exhausted after its win: its successor is
        // a permanent late fence.
        let cand = Entry {
            code: Ovc::LATE_FENCE,
            run: w as u32,
        };
        winner = loser_tree::replay(&mut nodes, cap, w, cand, &tally, &mut play);
    }
    debug_assert_eq!(out.len(), n);
    tally.flush(stats);
    Run::from_flat(out, spec.clone())
}

fn sort_flat_quicksort(
    n: usize,
    width: usize,
    values: &[u64],
    spec: &SortSpec,
    stats: &Arc<Stats>,
) -> Run {
    let k = spec.len();
    let key = |i: u32| -> &[u64] {
        let i = i as usize * width;
        &values[i..i + k]
    };
    let mut idx: Vec<u32> = (0..n as u32).collect();
    if spec.is_asc_prefix() {
        idx.sort_by(|&a, &b| compare_keys_counted(key(a), key(b), stats));
    } else {
        idx.sort_by(|&a, &b| {
            stats.count_row_cmp();
            let (ak, bk) = (key(a), key(b));
            for i in 0..k {
                stats.count_col_cmp();
                match spec.cmp_values(i, ak[i], bk[i]) {
                    std::cmp::Ordering::Equal => continue,
                    other => return other,
                }
            }
            std::cmp::Ordering::Equal
        });
    }
    gather_with_codes(&idx, width, values, spec, stats)
}

/// Sort by normalized keys: one byte-string encode per row (charged as
/// `key_len` column accesses, the CFC encode cost), a bytewise sort over
/// the index permutation, and a linear code-priming pass during the
/// gather.  Output rows and codes are identical to the column-comparison
/// strategies under the same spec.
fn sort_flat_normalized(
    n: usize,
    width: usize,
    values: &[u64],
    spec: &SortSpec,
    stats: &Arc<Stats>,
) -> Run {
    let k = spec.len();
    stats.count_col_cmps((n * k) as u64);
    let mut idx: Vec<u32> = (0..n as u32).collect();
    idx.sort_by_cached_key(|&i| {
        spec.normalize_key(&values[i as usize * width..i as usize * width + k])
    });
    gather_with_codes(&idx, width, values, spec, stats)
}

/// Sort rows with stable full-key comparisons under the spec over an
/// index permutation, then derive codes in a linear pass while gathering
/// the sorted flat output.  The conventional method the paper improves on.
pub fn sort_rows_quicksort_spec(rows: Vec<Row>, spec: &SortSpec, stats: &Arc<Stats>) -> Run {
    sort_rows(rows, spec, RunGenStrategy::Quicksort, stats)
}

/// Gather rows of a flat buffer in `idx` order into a new run, deriving
/// each code against the previous gathered row (first row relative to
/// "−∞").
fn gather_with_codes(
    idx: &[u32],
    width: usize,
    values: &[u64],
    spec: &SortSpec,
    stats: &Arc<Stats>,
) -> Run {
    let k = spec.len();
    let asc = spec.is_asc_prefix();
    let mut out = FlatRows::with_capacity(width, idx.len());
    let mut prev: Option<&[u64]> = None;
    for &i in idx {
        let row = &values[i as usize * width..(i as usize + 1) * width];
        let code = match prev {
            None => spec.initial_code(&row[..k]),
            Some(p) if asc => derive_code(p, &row[..k], stats),
            Some(p) => derive_code_spec(p, &row[..k], spec, stats),
        };
        out.push(row, code);
        prev = Some(&row[..k]);
    }
    Run::from_flat(out, spec.clone())
}

/// How initial runs are produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunGenStrategy {
    /// Tree-of-losers over single-row runs (OVC-native, Section 3).
    OvcPriorityQueue,
    /// Quicksort plus a linear code-priming pass (baseline).
    Quicksort,
    /// Replacement selection: runs of ~2× memory expected length
    /// (Section 3, "one additional comparison per input row doubles the
    /// expected run size").
    ReplacementSelection,
}

/// Generate initial runs from an arbitrary input, each holding at most
/// `memory_rows` rows (replacement selection produces longer runs from the
/// same memory budget).
pub fn generate_runs<I>(
    input: I,
    key_len: usize,
    memory_rows: usize,
    strategy: RunGenStrategy,
    stats: &Arc<Stats>,
) -> Vec<Run>
where
    I: IntoIterator<Item = Row>,
{
    generate_runs_spec(input, &SortSpec::asc(key_len), memory_rows, strategy, stats)
}

/// Direction-aware [`generate_runs`]: initial runs ordered under `spec`.
///
/// Replacement selection is an ascending-prefix-only strategy (its heap
/// logic has not been spec-plumbed); requesting it with any other spec
/// panics rather than silently mis-sorting.
pub fn generate_runs_spec<I>(
    input: I,
    spec: &SortSpec,
    memory_rows: usize,
    strategy: RunGenStrategy,
    stats: &Arc<Stats>,
) -> Vec<Run>
where
    I: IntoIterator<Item = Row>,
{
    let input = RowBatches::new(input, memory_rows);
    generate_runs_from(input, spec, memory_rows, strategy, stats)
}

/// Run generation's one core: copy `input` into a flat workspace of at
/// most `memory_rows` rows and sort each full workspace into a run.
pub(crate) fn generate_runs_from(
    mut input: impl BatchStream,
    spec: &SortSpec,
    memory_rows: usize,
    strategy: RunGenStrategy,
    stats: &Arc<Stats>,
) -> Vec<Run> {
    assert!(memory_rows > 0, "memory budget must hold at least one row");
    assert!(
        spec.is_prefix(),
        "run generation requires a leading-prefix sort spec, got {spec}"
    );
    if strategy == RunGenStrategy::ReplacementSelection {
        assert!(
            spec.is_asc_prefix() && !spec.normalized(),
            "replacement selection supports ascending-prefix specs only"
        );
        // Replacement selection still works on boxed rows.
        let rows = std::iter::from_fn(move || input.next_batch()).flat_map(|batch| {
            let rows: Vec<Row> = batch
                .iter()
                .map(|(cols, _)| Row::from_slice(cols))
                .collect();
            rows
        });
        return generate_runs_replacement(rows, spec.len(), memory_rows, stats);
    }
    let mut runs = Vec::new();
    let mut sort = |ws: &Workspace| {
        let width = ws.width.unwrap_or(0);
        runs.push(sort_flat(ws.rows, width, &ws.values, spec, strategy, stats));
    };
    let mut ws = Workspace::default();
    while let Some(batch) = input.next_batch() {
        ws.absorb(batch, memory_rows, &mut sort);
    }
    if ws.rows > 0 {
        sort(&ws);
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovc_core::derive::assert_codes_exact;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_rows(n: usize, k: usize, domain: u64, seed: u64) -> Vec<Row> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Row::new((0..k).map(|_| rng.gen_range(0..domain)).collect()))
            .collect()
    }

    fn check_run(run: &Run, rows: &[Row], key_len: usize) {
        let pairs: Vec<(Row, Ovc)> = run.iter().map(|(r, c)| (Row::from_slice(r), c)).collect();
        assert_codes_exact(&pairs, key_len);
        let mut expect: Vec<Row> = rows.to_vec();
        expect.sort();
        let mut got: Vec<Row> = pairs.into_iter().map(|(r, _)| r).collect();
        got.sort();
        assert_eq!(got, expect, "sorted output must be a permutation of input");
    }

    #[test]
    fn ovc_sort_produces_sorted_exact_run() {
        let rows = random_rows(200, 3, 5, 1);
        let stats = Stats::new_shared();
        let run = sort_rows_ovc(rows.clone(), 3, &stats);
        assert_eq!(run.len(), 200);
        check_run(&run, &rows, 3);
        assert!(
            stats.col_value_cmps() <= 200 * 3,
            "N*K bound violated: {}",
            stats.col_value_cmps()
        );
    }

    #[test]
    fn quicksort_matches_ovc_sort_order() {
        let rows = random_rows(150, 2, 8, 2);
        let stats = Stats::new_shared();
        let a = sort_rows_ovc(rows.clone(), 2, &stats);
        let b = sort_rows_quicksort_spec(rows, &SortSpec::asc(2), &stats);
        // Byte-identical rows and codes, since both are determined by the
        // data alone.
        assert_eq!(a.flat(), b.flat());
    }

    #[test]
    fn generate_runs_respects_memory() {
        let rows = random_rows(105, 2, 4, 3);
        let stats = Stats::new_shared();
        let runs = generate_runs(rows, 2, 25, RunGenStrategy::OvcPriorityQueue, &stats);
        assert_eq!(runs.len(), 5); // 4 full + 1 partial
        assert_eq!(runs.iter().map(Run::len).sum::<usize>(), 105);
        assert!(runs[..4].iter().all(|r| r.len() == 25));
        assert_eq!(runs[4].len(), 5);
    }

    /// Input batches smaller than, equal to, straddling and larger than
    /// the workspace cut exactly the runs, codes and counters of the row
    /// entry point.
    #[test]
    fn workspace_cuts_the_same_runs_at_every_input_batch_size() {
        let rows = random_rows(105, 2, 4, 3);
        let expect_stats = Stats::new_shared();
        let expect: Vec<FlatRows> = generate_runs(
            rows.clone(),
            2,
            25,
            RunGenStrategy::Quicksort,
            &expect_stats,
        )
        .iter()
        .map(|run| run.flat().clone())
        .collect();
        for batch in [1, 7, 25, 30, 200] {
            let stats = Stats::new_shared();
            let input = RowBatches::new(rows.clone(), batch);
            let runs = generate_runs_from(
                input,
                &SortSpec::asc(2),
                25,
                RunGenStrategy::Quicksort,
                &stats,
            );
            let got: Vec<FlatRows> = runs.iter().map(|run| run.flat().clone()).collect();
            assert_eq!(got, expect, "batch={batch}");
            assert_eq!(stats.snapshot(), expect_stats.snapshot(), "batch={batch}");
        }
    }

    #[test]
    fn empty_input_yields_no_runs() {
        let stats = Stats::new_shared();
        let runs = generate_runs(Vec::<Row>::new(), 2, 10, RunGenStrategy::Quicksort, &stats);
        assert!(runs.is_empty());
        assert!(sort_rows_ovc(vec![], 2, &stats).is_empty());
    }

    #[test]
    fn sort_all_duplicates() {
        let rows = vec![Row::new(vec![3, 3]); 40];
        let stats = Stats::new_shared();
        let run = sort_rows_ovc(rows.clone(), 2, &stats);
        check_run(&run, &rows, 2);
        assert!(run.iter().skip(1).all(|(_, c)| c.is_duplicate()));
    }

    #[test]
    fn sort_single_row() {
        let stats = Stats::new_shared();
        let run = sort_rows_ovc(vec![Row::new(vec![9])], 1, &stats);
        assert_eq!(run.len(), 1);
        assert_eq!(run.code(0), Ovc::new(0, 9, 1));
    }

    #[test]
    fn ovc_sort_uses_fewer_column_comparisons_than_quicksort() {
        // The headline effect: with many rows and few distinct values,
        // OVC-based sorting does far fewer column-value comparisons.
        let rows = random_rows(2000, 4, 3, 7);
        let s_ovc = Stats::new_shared();
        let s_qs = Stats::new_shared();
        let _ = sort_rows_ovc(rows.clone(), 4, &s_ovc);
        let _ = sort_rows_quicksort_spec(rows, &SortSpec::asc(4), &s_qs);
        assert!(
            s_ovc.col_value_cmps() < s_qs.col_value_cmps() / 2,
            "ovc {} vs quicksort {}",
            s_ovc.col_value_cmps(),
            s_qs.col_value_cmps()
        );
    }

    #[test]
    #[should_panic(expected = "uniform rows")]
    fn mixed_width_rows_are_rejected() {
        let stats = Stats::new_shared();
        let _ = sort_rows_ovc(vec![Row::new(vec![1, 2]), Row::new(vec![1])], 1, &stats);
    }
}
