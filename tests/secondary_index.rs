//! Index intersection and index join (Section 4.11's closing paragraph):
//! "Sorted lists of row identifiers are similarly useful for index
//! intersection and index join, i.e., 'covering' a query in 'index-only
//! retrieval' with multiple secondary indexes of the same table."
//!
//! These compose the storage crate's RID streams with the execution
//! crate's set operations and merge join — exactly the layering the paper
//! envisions, with offset-value codes crossing the crate boundary.

use std::sync::Arc;

use ovc_core::batch::collect_batch_pairs;
use ovc_core::derive::assert_codes_exact;
use ovc_core::{BatchStream, FlatBatches, OvcStream, Row, Stats};
use ovc_exec::{JoinType, MergeJoin, SetOp, SetOperation};
use ovc_sort::Run;
use ovc_storage::SecondaryIndex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn base_table(n: usize, seed: u64) -> Vec<Row> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Row::new(vec![rng.gen_range(0..12u64), rng.gen_range(0..12u64)]))
        .collect()
}

/// Rows per batch into and out of the batch kernels.
const BATCH: usize = 16;

/// Hand an index's RID stream to the batch kernels: its coded rows
/// gathered flat, cut every [`BATCH`] rows.
fn batches(stream: impl OvcStream) -> FlatBatches {
    let spec = stream.sort_spec();
    Run::from_coded_spec(stream.collect(), spec).batches(BATCH)
}

/// `WHERE a = x AND b = y` via two secondary indexes: intersect the RID
/// streams with the sort-based set operation — codes flow from index
/// storage through the intersection.
#[test]
fn index_intersection_for_and_predicates() {
    let t = base_table(1000, 1);
    let ia = SecondaryIndex::build(&t, 0);
    let ib = SecondaryIndex::build(&t, 1);
    let stats = Stats::new_shared();

    for (x, y) in [(3u64, 7u64), (0, 0), (11, 5)] {
        let rids_a = ia.scan_eq(x);
        let rids_b = ib.scan_eq(y);
        let inter = SetOperation::new(
            batches(rids_a),
            batches(rids_b),
            SetOp::Intersect,
            BATCH,
            Arc::clone(&stats),
        );
        let pairs = collect_batch_pairs(inter);
        assert_codes_exact(&pairs, 1);
        let expect: Vec<u64> = t
            .iter()
            .enumerate()
            .filter(|(_, r)| r.cols()[0] == x && r.cols()[1] == y)
            .map(|(i, _)| i as u64)
            .collect();
        let got: Vec<u64> = pairs.iter().map(|(r, _)| r.cols()[0]).collect();
        assert_eq!(got, expect, "AND predicate ({x},{y})");
    }
}

/// Index intersection with range predicates: both sides are tree-of-losers
/// merges of RID lists before the intersection even starts.
#[test]
fn range_index_intersection() {
    let t = base_table(2000, 2);
    let ia = SecondaryIndex::build(&t, 0);
    let ib = SecondaryIndex::build(&t, 1);
    let stats = Stats::new_shared();

    let ra = batches(ia.scan_range(2, 8, &stats));
    let rb = batches(ib.scan_range(5, 11, &stats));
    let inter = SetOperation::new(ra, rb, SetOp::Intersect, BATCH, Arc::clone(&stats));
    let pairs = collect_batch_pairs(inter);
    assert_codes_exact(&pairs, 1);
    let expect = t
        .iter()
        .filter(|r| (2..8).contains(&r.cols()[0]) && (5..11).contains(&r.cols()[1]))
        .count();
    assert_eq!(pairs.len(), expect);
}

/// Index join / covering: answer `SELECT a, b` without touching the base
/// table by merge-joining two indexes' RID-order scans on the RID.
#[test]
fn index_join_covers_query_without_base_table() {
    let t = base_table(1500, 3);
    let ia = SecondaryIndex::build(&t, 0);
    let ib = SecondaryIndex::build(&t, 1);
    let stats = Stats::new_shared();

    // Each scan: (rid, value) sorted by rid, codes arity 1.
    let sa = ia.scan_by_rid();
    let sb = ib.scan_by_rid();
    let join = MergeJoin::new(
        batches(sa),
        batches(sb),
        1,
        JoinType::Inner,
        2,
        2,
        BATCH,
        Arc::clone(&stats),
    );
    let pairs = collect_batch_pairs(join);
    assert_codes_exact(&pairs, 1);
    assert_eq!(pairs.len(), t.len(), "every RID matches exactly once");
    for (row, _) in &pairs {
        let (rid, a, b) = (row.cols()[0], row.cols()[1], row.cols()[2]);
        assert_eq!(t[rid as usize].cols()[0], a);
        assert_eq!(t[rid as usize].cols()[1], b);
    }
    // RIDs are unique, so the join's merge logic decides every comparison
    // by code after priming: the N*K bound collapses to ~0 counted
    // comparisons (Section 7's unique-column extreme case).
    assert!(
        stats.col_value_cmps() <= t.len() as u64,
        "covering index join comparisons: {}",
        stats.col_value_cmps()
    );
}

/// OR predicates: union of RID streams (distinct), codes intact.
#[test]
fn index_union_for_or_predicates() {
    let t = base_table(800, 4);
    let ia = SecondaryIndex::build(&t, 0);
    let stats = Stats::new_shared();
    let r1 = ia.scan_eq(1);
    let r2 = ia.scan_eq(9);
    let union = SetOperation::new(
        batches(r1),
        batches(r2),
        SetOp::Union,
        BATCH,
        Arc::clone(&stats),
    );
    let pairs = collect_batch_pairs(union);
    assert_codes_exact(&pairs, 1);
    let expect = t
        .iter()
        .filter(|r| r.cols()[0] == 1 || r.cols()[0] == 9)
        .count();
    assert_eq!(pairs.len(), expect);
}

/// The fetch path: RID stream -> base rows, order = table order.
#[test]
fn fetch_after_intersection() {
    let t = base_table(400, 5);
    let ia = SecondaryIndex::build(&t, 0);
    let ib = SecondaryIndex::build(&t, 1);
    let stats = Stats::new_shared();
    let mut inter = SetOperation::new(
        batches(ia.scan_eq(6)),
        batches(ib.scan_eq(6)),
        SetOp::Intersect,
        BATCH,
        Arc::clone(&stats),
    );
    let rids = std::iter::from_fn(|| inter.next_batch().unwrap()).flat_map(|b| b.to_ovc_rows());
    let rows: Vec<&Row> = SecondaryIndex::fetch(&t, rids).collect();
    assert!(rows.iter().all(|r| r.cols()[0] == 6 && r.cols()[1] == 6));
}
