//! Property tests of the flat columnar run layout (DESIGN.md §10).
//!
//! The refactor's contract is byte-identity: sorting and merging over
//! flat, struct-of-arrays runs must produce exactly the rows **and
//! codes** of the boxed-row reference — under ascending, mixed-direction,
//! and normalized-key `SortSpec`s — and spilled flat runs must round-trip
//! bit-exactly, spec included, through the spill format.

use std::sync::Arc;

use ovc_core::derive::{assert_codes_exact_spec, derive_codes_spec};
use ovc_core::{Direction, Ovc, OvcRow, Row, SortSpec, Stats};
use ovc_sort::{
    external_sort_spec_collect, external_sort_spec_to_run, merge_runs_to_run_spec,
    sort_rows_ovc_spec, sort_rows_quicksort_spec, MemoryRunStorage, SortConfig,
};
use ovc_storage::{decode_run, encode_run, EncodedRunStorage};
use proptest::prelude::*;

/// Every spec family the refactor must preserve byte-for-byte.
fn specs() -> Vec<(&'static str, SortSpec)> {
    let mixed = SortSpec::with_dirs(&[Direction::Desc, Direction::Asc, Direction::Desc]);
    vec![
        ("asc", SortSpec::asc(3)),
        ("mixed", mixed.clone()),
        ("asc norm", SortSpec::asc(3).with_normalized(true)),
        ("mixed norm", mixed.with_normalized(true)),
    ]
}

/// Boxed-row reference: `sort_by` under the spec (stable, like every run
/// strategy), then the reference code derivation.
fn reference_sorted(rows: &[Row], spec: &SortSpec) -> Vec<(Row, Ovc)> {
    let k = spec.len();
    let mut sorted = rows.to_vec();
    sorted.sort_by(|a, b| spec.cmp_keys(a.key(k), b.key(k)));
    let codes = derive_codes_spec(&sorted, spec);
    sorted.into_iter().zip(codes).collect()
}

fn rows_strategy() -> impl Strategy<Value = Vec<Row>> {
    // 3 key columns over a small domain (plenty of duplicates and shared
    // prefixes) plus one payload column.
    prop::collection::vec((prop::collection::vec(0u64..5, 3), 0u64..1000), 0..250).prop_map(|v| {
        v.into_iter()
            .map(|(mut key, payload)| {
                key.push(payload);
                Row::new(key)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The external sort over flat runs is byte-identical (rows + codes)
    /// to the boxed-row reference under every spec family, both as a
    /// materialized stream and as a flat run.
    #[test]
    fn flat_sort_is_byte_identical_to_boxed_reference(
        rows in rows_strategy(),
        memory in 1usize..48,
        fan_in in 2usize..6,
    ) {
        for (label, spec) in specs() {
            let expect = reference_sorted(&rows, &spec);

            let stats = Stats::new_shared();
            let cfg = SortConfig::new(3, memory).with_fan_in(fan_in);
            let out = external_sort_spec_collect(rows.clone(), cfg, &spec, &stats);
            let got: Vec<(Row, Ovc)> = out.into_iter().map(|r| (r.row, r.code)).collect();
            prop_assert_eq!(&got, &expect, "stream path under {}", label);

            let mut storage = MemoryRunStorage::new(Arc::clone(&stats));
            let run = external_sort_spec_to_run(rows.clone(), cfg, &spec, &mut storage, &stats);
            let flat_pairs: Vec<(Row, Ovc)> =
                run.iter().map(|(r, c)| (Row::from_slice(r), c)).collect();
            prop_assert_eq!(&flat_pairs, &expect, "flat-run path under {}", label);
            assert_codes_exact_spec(&flat_pairs, &spec);
        }
    }

    /// Both run-generation strategies produce the same flat run, and
    /// merging flat runs equals sorting the concatenation — the merge
    /// tournament introduces no layout-dependent behavior.
    #[test]
    fn strategies_and_merges_agree_on_flat_runs(
        a in rows_strategy(),
        b in rows_strategy(),
    ) {
        for (label, spec) in specs() {
            let stats = Stats::new_shared();
            let pq = sort_rows_ovc_spec(a.clone(), &spec, &stats);
            let qs = sort_rows_quicksort_spec(a.clone(), &spec, &stats);
            prop_assert_eq!(pq.flat(), qs.flat(), "strategies under {}", label);

            let run_b = sort_rows_ovc_spec(b.clone(), &spec, &stats);
            let merged = merge_runs_to_run_spec(vec![pq, run_b], &spec, &stats);
            let mut both = a.clone();
            both.extend(b.iter().cloned());
            let whole = reference_sorted(&both, &spec);
            let got: Vec<(Row, Ovc)> =
                merged.iter().map(|(r, c)| (Row::from_slice(r), c)).collect();
            prop_assert_eq!(got, whole, "merge under {}", label);
        }
    }

    /// Flat runs round-trip bit-exactly, under every spec family, through
    /// the spill format and through the encoded spill device.
    #[test]
    fn flat_spill_round_trips(rows in rows_strategy()) {
        use ovc_sort::RunStorage;
        for (label, spec) in specs() {
            let stats = Stats::new_shared();
            let run = sort_rows_ovc_spec(rows.clone(), &spec, &stats);

            let back = decode_run(&encode_run(&run)).expect("clean frame decodes");
            prop_assert_eq!(back.flat(), run.flat(), "codec under {}", label);
            prop_assert_eq!(back.sort_spec(), run.sort_spec());

            let mut device = EncodedRunStorage::new(Arc::clone(&stats));
            let handle = device.write_run(run.clone()).expect("write");
            let back = device.read_run(handle).expect("read");
            prop_assert_eq!(back.flat(), run.flat(), "device under {}", label);
            prop_assert_eq!(back.sort_spec(), run.sort_spec());
            prop_assert_eq!(stats.bytes_spilled(), stats.bytes_read_back());
        }
    }
}

/// Boxed materialization points (cursor, `into_rows`, a reopened
/// `CodedBatch`) agree with the flat storage they read from.
#[test]
fn materialization_boundaries_agree() {
    let rows: Vec<Row> = (0..200).map(|i| Row::new(vec![i % 7, i % 3, i])).collect();
    let stats = Stats::new_shared();
    let run = sort_rows_ovc_spec(rows, &SortSpec::asc(2), &stats);

    let via_cursor: Vec<OvcRow> = run.clone().cursor().collect();
    let via_rows = run.clone().into_rows();
    assert_eq!(via_cursor, via_rows);

    let batch = ovc_core::CodedBatch::from_flat(run.flat().clone(), run.sort_spec().clone());
    assert_eq!(batch.clone().into_flat(), *run.flat());
    let via_batch: Vec<OvcRow> = batch.into_stream().collect();
    assert_eq!(via_batch, via_rows);
}
