//! Property tests of the sorting substrate: every configuration of the
//! external sorter produces the same sorted keys as the standard library
//! sort, with exact offset-value codes, within the paper's comparison
//! bound.

use std::sync::Arc;

use ovc_core::batch::collect_batch_pairs;
use ovc_core::derive::find_code_violation;
use ovc_core::{Ovc, Row, RowBatches, SortSpec, Stats};
use ovc_sort::replacement::generate_runs_replacement;
use ovc_sort::segmented::SegmentedSort;
use ovc_sort::{
    external_sort_spec_to_run, try_sort_batches, MemoryRunStorage, RunGenStrategy, SortConfig,
};
use proptest::prelude::*;

fn rows_strategy() -> impl Strategy<Value = Vec<Row>> {
    prop::collection::vec(prop::collection::vec(0u64..6, 3), 0..300)
        .prop_map(|v| v.into_iter().map(Row::new).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn external_sort_matches_std_sort(
        rows in rows_strategy(),
        memory in 1usize..64,
        fan_in in 2usize..8,
        strat in prop_oneof![
            Just(RunGenStrategy::OvcPriorityQueue),
            Just(RunGenStrategy::Quicksort),
            Just(RunGenStrategy::ReplacementSelection),
        ],
    ) {
        let stats = Stats::new_shared();
        let cfg = SortConfig::new(3, memory).with_fan_in(fan_in).with_strategy(strat);
        let mut storage = MemoryRunStorage::new(Arc::clone(&stats));
        let input = RowBatches::new(rows.clone(), memory);
        let out = try_sort_batches(input, cfg, &SortSpec::asc(3), false, &mut storage, &stats);
        let pairs = collect_batch_pairs(out.unwrap().batches(64));
        // Same keys as std sort.
        let mut expect = rows.clone();
        expect.sort();
        let got_keys: Vec<&[u64]> = pairs.iter().map(|(r, _)| r.key(3)).collect();
        let expect_keys: Vec<&[u64]> = expect.iter().map(|r| r.key(3)).collect();
        prop_assert_eq!(got_keys, expect_keys);
        // Exact codes.
        prop_assert_eq!(find_code_violation(&pairs, 3), None);
    }

    /// The N×K bound on column comparisons for OVC run generation plus a
    /// single merge level.
    #[test]
    fn merge_comparisons_within_bound(rows in rows_strategy(), memory in 8usize..64) {
        prop_assume!(!rows.is_empty());
        let n = rows.len() as u64;
        let stats = Stats::new_shared();
        let cfg = SortConfig::new(3, memory).with_fan_in(1024);
        let mut storage = MemoryRunStorage::new(Arc::clone(&stats));
        let _ = external_sort_spec_to_run(rows, cfg, &SortSpec::asc(3), &mut storage, &stats);
        // Run generation <= N*K, one merge level <= N*K.
        prop_assert!(stats.col_value_cmps() <= 2 * n * 3,
            "col cmps {} exceed 2*N*K {}", stats.col_value_cmps(), 2 * n * 3);
    }

    #[test]
    fn replacement_selection_runs_are_valid(rows in rows_strategy(), cap in 1usize..32) {
        let stats = Stats::new_shared();
        let runs = generate_runs_replacement(rows.clone(), 3, cap, &stats);
        let mut all: Vec<Row> = Vec::new();
        for run in &runs {
            let pairs: Vec<(Row, Ovc)> =
                run.iter().map(|(r, c)| (Row::from_slice(r), c)).collect();
            prop_assert_eq!(find_code_violation(&pairs, 3), None);
            all.extend(pairs.into_iter().map(|(r, _)| r));
        }
        let mut expect = rows;
        expect.sort();
        all.sort();
        prop_assert_eq!(all, expect);
    }

    /// Segmented sort equals a full sort on the target key.
    #[test]
    fn segmented_sort_equals_full_sort(keys in prop::collection::vec((0u64..4, 0u64..16, 0u64..16), 0..200)) {
        // Columns (A, C, B): input sorted on (A, B), target (A, C).
        let mut input: Vec<Row> = keys
            .into_iter()
            .map(|(a, c, b)| Row::new(vec![a, c, b]))
            .collect();
        input.sort_by(|x, y| (x.cols()[0], x.cols()[2]).cmp(&(y.cols()[0], y.cols()[2])));
        let stats = Stats::new_shared();
        let stream = ovc_core::VecStream::from_sorted_rows(input.clone(), 1);
        let seg = SegmentedSort::new(stream, 1, 2, Arc::clone(&stats));
        let out: Vec<(Row, Ovc)> = seg.map(|r| (r.row, r.code)).collect();
        prop_assert_eq!(find_code_violation(&out, 2), None);
        let mut expect = input;
        expect.sort_by(|x, y| x.key(2).cmp(y.key(2)));
        let got_keys: Vec<&[u64]> = out.iter().map(|(r, _)| r.key(2)).collect();
        let expect_keys: Vec<&[u64]> = expect.iter().map(|r| r.key(2)).collect();
        prop_assert_eq!(got_keys, expect_keys);
    }
}
