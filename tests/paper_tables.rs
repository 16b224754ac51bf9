//! Verbatim reproduction of the paper's Tables 1, 2, and 3 — the fixtures
//! every reviewer will check first.

use ovc_core::batch::collect_batch_pairs;
use ovc_core::compare::compare_same_base;
use ovc_core::derive::derive_codes;
use ovc_core::desc::{derive_desc_code, DescOvc};
use ovc_core::{table1, Ovc, Stats, Value};
use ovc_exec::BatchFilter;
use ovc_sort::Run;
use std::cmp::Ordering;

/// Table 1: both code columns for the seven-row running example.
#[test]
fn table1_full_reproduction() {
    let rows = table1::rows();
    // Ascending: 405, 112, 308, 309, 0, 203, 107.
    let asc = derive_codes(&rows, table1::ARITY);
    let asc_decimals: Vec<u64> = asc.iter().map(|c| c.paper_decimal()).collect();
    assert_eq!(asc_decimals, table1::asc_paper_decimals());

    // Descending: 95, 388, 192, 191, 400, 297, 393.
    let stats = Stats::default();
    let mut desc_decimals = Vec::new();
    let mut prev: Option<&ovc_core::Row> = None;
    for row in &rows {
        let code = match prev {
            None => DescOvc::initial(row.key(4)),
            Some(p) => derive_desc_code(p.key(4), row.key(4), &stats),
        };
        desc_decimals.push(code.paper_decimal(4, table1::DOMAIN));
        prev = Some(row);
    }
    assert_eq!(desc_decimals, table1::desc_paper_decimals());

    // Offsets column: 0, 3, 1, 1, 4, 2, 3.
    let offsets: Vec<usize> = asc.iter().map(|c| c.offset(4)).collect();
    assert_eq!(offsets, vec![0, 3, 1, 1, 4, 2, 3]);
}

/// Table 2: the three decision cases against base (3,4,2,5).
#[test]
fn table2_full_reproduction() {
    let stats = Stats::default();
    type Table2Case = ([u64; 4], [u64; 4], u64, u64, u64);
    let cases: [Table2Case; 3] = [
        // keys B, C; codes to base; expected loser-to-winner code.
        ([3, 5, 8, 2], [3, 4, 6, 1], 305, 206, 305),
        ([3, 4, 3, 8], [3, 4, 9, 1], 203, 209, 209),
        ([3, 7, 4, 7], [3, 7, 4, 9], 307, 307, 109),
    ];
    let base = [3u64, 4, 2, 5];
    for (b_key, c_key, b_dec, c_dec, loser_dec) in cases {
        // Derive the codes to the base exactly as the table states them.
        let mut b_code = ovc_core::compare::derive_code(&base, &b_key, &stats);
        let mut c_code = ovc_core::compare::derive_code(&base, &c_key, &stats);
        assert_eq!(b_code.paper_decimal(), b_dec);
        assert_eq!(c_code.paper_decimal(), c_dec);
        let ord = compare_same_base(&b_key, &c_key, &mut b_code, &mut c_code, &stats);
        let loser_code = match ord {
            Ordering::Less => c_code,
            Ordering::Greater => b_code,
            Ordering::Equal => panic!("table 2 has no equal keys"),
        };
        assert_eq!(loser_code.paper_decimal(), loser_dec);
    }
}

/// Table 3: codes after a filter keeping only the first and last rows.
#[test]
fn table3_full_reproduction() {
    let rows = table1::rows();
    let keep = [rows[0].clone(), rows[6].clone()];
    let table3 = vec![(vec![5, 7, 3, 9], 405), (vec![5, 9, 3, 7], 309)];
    // The filter kernel, with the input cut every four rows so that a
    // seam falls between the two survivors.
    let filter = BatchFilter::new(
        Run::from_sorted_rows(rows, 4).batches(4),
        |r: &[Value]| keep.iter().any(|k| k.cols() == r),
        ovc_core::Stats::new_shared(),
    );
    let out: Vec<(Vec<u64>, u64)> = collect_batch_pairs(filter)
        .into_iter()
        .map(|(row, code)| (row.cols().to_vec(), code.paper_decimal()))
        .collect();
    assert_eq!(out, table3);

    // "Just like the derivation of Table 3 from Table 1" (§4.7): a semi
    // join selecting the same two rows, through the batch kernel, cut
    // the same way.
    use ovc_core::BatchStream;
    let mut semi = ovc_exec::MergeJoin::new(
        Run::from_sorted_rows(table1::rows(), 4).batches(4),
        Run::from_sorted_rows(keep.to_vec(), 4).batches(1),
        4,
        ovc_exec::JoinType::LeftSemi,
        4,
        4,
        8,
        ovc_core::Stats::new_shared(),
    );
    let out: Vec<(Vec<u64>, u64)> = std::iter::from_fn(|| semi.next_batch().unwrap())
        .flat_map(|b| b.to_ovc_rows())
        .map(|r| (r.row.cols().to_vec(), r.code.paper_decimal()))
        .collect();
    assert_eq!(out, table3);
}

/// The worked example of Section 3 / Figure 2: after "061" leaves the
/// root, its successor "092" loses to "087" with codes deciding all three
/// comparisons — no string (column) comparison required.
#[test]
fn figure2_leaf_to_root_comparisons_decided_by_codes() {
    let stats = Stats::default();
    // Keys as one column per character.
    let winner_061 = [0u64, 6, 1];
    let k092 = [0u64, 9, 2];
    let k503 = [5u64, 0, 3];
    let k087 = [0u64, 8, 7];
    let k154 = [1u64, 5, 4];
    // All coded relative to prior winner "061".
    let mut c092 = ovc_core::compare::derive_code(&winner_061, &k092, &stats);
    let mut c503 = ovc_core::compare::derive_code(&winner_061, &k503, &stats);
    let mut c087 = ovc_core::compare::derive_code(&winner_061, &k087, &stats);
    let mut c154 = ovc_core::compare::derive_code(&winner_061, &k154, &stats);
    assert_eq!(c092.offset(3), 1);
    assert_eq!(c503.offset(3), 0);

    let before = stats.snapshot();
    // "092" vs "503": offsets decide (1 vs 0) — "092" wins.
    assert_eq!(
        compare_same_base(&k092, &k503, &mut c092, &mut c503, &stats),
        Ordering::Less
    );
    // "092" vs "087": equal offsets, values 9 vs 8 decide — "087" wins.
    assert_eq!(
        compare_same_base(&k092, &k087, &mut c092, &mut c087, &stats),
        Ordering::Greater
    );
    // "087" vs "154": offsets decide (1 vs 0) — "087" reaches the root.
    assert_eq!(
        compare_same_base(&k087, &k154, &mut c087, &mut c154, &stats),
        Ordering::Less
    );
    let delta = stats.snapshot().since(&before);
    assert_eq!(
        delta.col_value_cmps, 0,
        "not a single string comparison is required (Section 3)"
    );
    assert_eq!(delta.ovc_cmps, 3);
}

/// The duplicate-detection claim of Section 3: "the sort can detect
/// duplicate rows by offsets equal to the column count and, after the
/// sort, in-stream aggregation can detect group boundaries by offsets
/// smaller than the grouping key."
#[test]
fn duplicate_and_boundary_detection_by_offset() {
    let rows = table1::rows();
    let codes = derive_codes(&rows, 4);
    let dup_count = codes.iter().filter(|c| c.is_duplicate()).count();
    assert_eq!(dup_count, 1);
    // Grouping on the first two columns: boundaries where offset < 2.
    let boundaries = codes
        .iter()
        .filter(|c| c.is_valid() && c.offset(4) < 2)
        .count();
    assert_eq!(boundaries, 3, "groups (5,7), (5,8), (5,9)");
    // The grouping kernel finds the same three boundaries, and its
    // output keeps each group's first code.
    use ovc_core::BatchStream;
    let mut groups = ovc_exec::GroupAggregate::new(
        ovc_sort::Run::from_sorted_rows(rows, 4).batches(3),
        2,
        vec![ovc_exec::Aggregate::Count],
        8,
        ovc_core::Stats::new_shared(),
    );
    let out = groups.next_batch().unwrap().expect("three groups");
    let counts: Vec<u64> = out.iter().map(|(row, _)| row[2]).collect();
    assert_eq!(counts, vec![2, 1, 4]);
    assert_eq!(out.code(0), Ovc::new(0, 5, 2));
}
