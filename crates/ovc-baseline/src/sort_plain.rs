//! External merge sort *without* offset-value coding — the baseline for
//! the paper's first hypothesis ("offset-value coding can speed up
//! external merge sort and also its consumers").
//!
//! Run generation uses quicksort with full key comparisons; merging uses a
//! conventional binary heap whose every comparison walks the key columns
//! from the start.  Same spill pattern as the OVC sorter, so time and
//! comparison-count differences isolate the coding technique itself.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

use ovc_core::compare::compare_keys_counted;
use ovc_core::{Row, Stats};

fn spill_bytes(rows: &[Row]) -> u64 {
    rows.iter().map(|r| (r.width() as u64) * 8).sum()
}

/// Sort rows with instrumented full-key comparisons.
pub fn sort_rows_plain(mut rows: Vec<Row>, key_len: usize, stats: &Arc<Stats>) -> Vec<Row> {
    rows.sort_by(|a, b| compare_keys_counted(a.key(key_len), b.key(key_len), stats));
    rows
}

/// Direction-aware [`sort_rows_plain`]: the same instrumented
/// column-by-column full comparisons under an arbitrary leading-prefix
/// [`ovc_core::SortSpec`] — the reference the planner's direction-aware
/// sort plans are property-tested against, row for row.
pub fn sort_rows_plain_spec(
    mut rows: Vec<Row>,
    spec: &ovc_core::SortSpec,
    stats: &Arc<Stats>,
) -> Vec<Row> {
    let k = spec.len();
    rows.sort_by(|a, b| {
        stats.count_row_cmp();
        let (ak, bk) = (a.key(k), b.key(k));
        for i in 0..k {
            stats.count_col_cmp();
            match spec.cmp_values(i, ak[i], bk[i]) {
                Ordering::Equal => continue,
                other => return other,
            }
        }
        Ordering::Equal
    });
    rows
}

/// A heap entry: (row, run index, position) ordered by key, inverted for
/// the max-heap, with full comparisons counted.
struct HeapEntry<'a> {
    key: &'a [u64],
    run: usize,
    pos: usize,
    stats: &'a Stats,
}

impl PartialEq for HeapEntry<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapEntry<'_> {}
impl PartialOrd for HeapEntry<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-merge on a max-heap; tie-break on run for
        // stability.
        compare_keys_counted(other.key, self.key, self.stats).then_with(|| other.run.cmp(&self.run))
    }
}

/// Merge sorted runs with a binary heap and full key comparisons.
pub fn merge_runs_plain(runs: Vec<Vec<Row>>, key_len: usize, stats: &Arc<Stats>) -> Vec<Row> {
    let total: usize = runs.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    let mut heap: BinaryHeap<HeapEntry<'_>> = BinaryHeap::with_capacity(runs.len());
    for (run, rows) in runs.iter().enumerate() {
        if let Some(first) = rows.first() {
            heap.push(HeapEntry {
                key: first.key(key_len),
                run,
                pos: 0,
                stats,
            });
        }
    }
    while let Some(HeapEntry { run, pos, .. }) = heap.pop() {
        out.push(runs[run][pos].clone());
        if pos + 1 < runs[run].len() {
            heap.push(HeapEntry {
                key: runs[run][pos + 1].key(key_len),
                run,
                pos: pos + 1,
                stats,
            });
        }
    }
    out
}

/// External merge sort without OVC: quicksorted runs, heap-based merging,
/// spill accounting identical to the OVC sorter's.
pub fn external_sort_plain(
    input: Vec<Row>,
    key_len: usize,
    memory_rows: usize,
    fan_in: usize,
    stats: &Arc<Stats>,
) -> Vec<Row> {
    assert!(memory_rows > 0 && fan_in >= 2);
    if input.len() <= memory_rows {
        return sort_rows_plain(input, key_len, stats);
    }
    let mut runs: Vec<Vec<Row>> = Vec::new();
    let mut buffer = Vec::with_capacity(memory_rows);
    for row in input {
        buffer.push(row);
        if buffer.len() == memory_rows {
            let run = sort_rows_plain(std::mem::take(&mut buffer), key_len, stats);
            stats.count_spill(run.len() as u64, spill_bytes(&run));
            runs.push(run);
        }
    }
    if !buffer.is_empty() {
        let run = sort_rows_plain(buffer, key_len, stats);
        stats.count_spill(run.len() as u64, spill_bytes(&run));
        runs.push(run);
    }
    // Multi-level merging with the given fan-in.
    while runs.len() > fan_in {
        let mut next = Vec::new();
        for chunk in runs.chunks(fan_in) {
            for r in chunk {
                stats.count_read_back(r.len() as u64, spill_bytes(r));
            }
            let merged = merge_runs_plain(chunk.to_vec(), key_len, stats);
            stats.count_spill(merged.len() as u64, spill_bytes(&merged));
            next.push(merged);
        }
        runs = next;
    }
    for r in &runs {
        stats.count_read_back(r.len() as u64, spill_bytes(r));
    }
    merge_runs_plain(runs, key_len, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovc_core::SortSpec;
    use ovc_sort::{external_sort_spec_to_run, MemoryRunStorage, SortConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_rows(n: usize, k: usize, domain: u64, seed: u64) -> Vec<Row> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Row::new((0..k).map(|_| rng.gen_range(0..domain)).collect()))
            .collect()
    }

    /// The OVC sorter over `rows` (ascending on `k` columns, spills
    /// in memory).
    fn ovc_sort(rows: Vec<Row>, k: usize, memory_rows: usize, stats: &Arc<Stats>) -> Vec<Row> {
        let mut storage = MemoryRunStorage::new(Arc::clone(stats));
        let cfg = SortConfig::new(k, memory_rows);
        let run = external_sort_spec_to_run(rows, cfg, &SortSpec::asc(k), &mut storage, stats);
        run.iter().map(|(cols, _)| Row::from_slice(cols)).collect()
    }

    #[test]
    fn sorts_correctly() {
        let rows = random_rows(700, 3, 10, 1);
        let stats = Stats::new_shared();
        let got = external_sort_plain(rows.clone(), 3, 64, 8, &stats);
        let mut expect = rows;
        expect.sort();
        assert_eq!(got, expect);
        assert!(stats.rows_spilled() >= 700);
    }

    #[test]
    fn agrees_with_ovc_sorter() {
        let rows = random_rows(500, 2, 6, 2);
        let s1 = Stats::new_shared();
        let s2 = Stats::new_shared();
        let plain = external_sort_plain(rows.clone(), 2, 50, 128, &s1);
        let ovc = ovc_sort(rows, 2, 50, &s2);
        // Key order must agree (payload ties may differ in order).
        let keys = |v: &[Row]| -> Vec<Vec<u64>> { v.iter().map(|r| r.key(2).to_vec()).collect() };
        assert_eq!(keys(&plain), keys(&ovc));
    }

    #[test]
    fn ovc_sorter_needs_fewer_column_comparisons() {
        // The headline claim of hypothesis 1, in counter form.
        let rows = random_rows(4000, 4, 4, 3);
        let s_plain = Stats::new_shared();
        let s_ovc = Stats::new_shared();
        let _ = external_sort_plain(rows.clone(), 4, 256, 64, &s_plain);
        let _ = ovc_sort(rows, 4, 256, &s_ovc);
        assert!(
            s_ovc.col_value_cmps() * 2 < s_plain.col_value_cmps(),
            "ovc {} vs plain {}",
            s_ovc.col_value_cmps(),
            s_plain.col_value_cmps()
        );
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let stats = Stats::new_shared();
        assert!(external_sort_plain(vec![], 1, 10, 2, &stats).is_empty());
        let one = vec![Row::new(vec![5])];
        assert_eq!(external_sort_plain(one.clone(), 1, 10, 2, &stats), one);
    }
}
