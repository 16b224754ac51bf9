//! End-to-end pipelines: offset-value codes must flow from ordered scans
//! through stacks of operators with the exactness contract intact at every
//! stage — the paper's whole point ("order-preserving query execution
//! algorithms must not only consume but also produce offset-value codes,
//! to be consumed and exploited by the next operator in the pipeline").

use std::sync::Arc;

use ovc_core::batch::{collect_batch_pairs, VecBatchStream};
use ovc_core::derive::assert_codes_exact;
use ovc_core::stream::collect_pairs;
use ovc_core::{
    BatchStream, FlatBatches, FlatRows, OvcRow, OvcStream, Row, RowBatches, SortSpec, Stats, Value,
    VecStream,
};
use ovc_exec::exchange::by_cols_hash;
use ovc_exec::nlj::BTreeInner;
use ovc_exec::{
    route_batches, Aggregate, BatchDedup, BatchFilter, BatchProject, GroupAggregate, HashJoinOp,
    HashTable, JoinType, LookupJoin, MergeJoin, SetOp, SetOperation,
};
use ovc_sort::{merge_batch_streams, try_sort_batches, MemoryRunStorage, Run, SortConfig};
use ovc_storage::{BTree, LsmConfig, LsmForest, RleColumnStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_rows(n: usize, key_cols: usize, domain: u64, seed: u64) -> Vec<Row> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut cols: Vec<u64> = (0..key_cols).map(|_| rng.gen_range(0..domain)).collect();
            cols.push(rng.gen::<u32>() as u64);
            Row::new(cols)
        })
        .collect()
}

/// Rows per batch between the batch kernels: small, so every pipeline
/// below crosses many seams.
const BATCH: usize = 64;

/// Hand a row-at-a-time source (a storage scan, a row operator) to the
/// batch kernels: its coded rows gathered flat, cut every [`BATCH`] rows.
fn batches(stream: impl OvcStream) -> FlatBatches {
    let spec = stream.sort_spec();
    Run::from_coded_spec(stream.collect(), spec).batches(BATCH)
}

/// Hand a batch kernel's output to a row-at-a-time operator.
fn rows(stream: impl BatchStream) -> VecStream {
    let spec = stream.sort_spec();
    let pairs = collect_batch_pairs(stream);
    let rows = pairs.into_iter().map(|(row, code)| OvcRow::new(row, code));
    VecStream::from_coded_spec(rows.collect(), spec)
}

/// Scan an RLE column store, filter, group, and verify codes at each hop.
#[test]
fn rle_scan_filter_group_pipeline() {
    let mut rows = random_rows(2000, 3, 5, 1);
    rows.sort();
    let store = RleColumnStore::build(&rows, 3);
    let stats = Stats::new_shared();

    let scan = batches(store.scan());
    let filtered = BatchFilter::new(scan, |r: &[Value]| r[2] != 0, Arc::clone(&stats));
    let grouped = GroupAggregate::new(
        filtered,
        2,
        vec![Aggregate::Count, Aggregate::Sum(3)],
        BATCH,
        Arc::clone(&stats),
    );
    let pairs = collect_batch_pairs(grouped);
    assert_codes_exact(&pairs, 2);
    assert_eq!(
        stats.col_value_cmps(),
        0,
        "scan + filter + group run entirely on codes"
    );

    // Cross-check totals against a reference.
    let survivors = rows.iter().filter(|r| r.cols()[2] != 0).count() as u64;
    let total: u64 = pairs.iter().map(|(r, _)| r.cols()[2]).sum();
    assert_eq!(total, survivors);
}

/// Sort two unsorted tables externally, merge-join them, group the join
/// result — codes valid end to end.
#[test]
fn sort_join_group_pipeline() {
    let t1 = random_rows(1500, 2, 12, 2);
    let t2 = random_rows(1500, 2, 12, 3);
    let stats = Stats::new_shared();
    let mut st1 = MemoryRunStorage::new(Arc::clone(&stats));
    let mut st2 = MemoryRunStorage::new(Arc::clone(&stats));
    let (cfg, spec) = (SortConfig::new(2, 200), SortSpec::asc(2));
    let sort = |rows: Vec<Row>, storage: &mut MemoryRunStorage| {
        let input = RowBatches::new(rows, cfg.memory_rows);
        let sorted = try_sort_batches(input, cfg, &spec, false, storage, &stats);
        sorted.unwrap().batches(BATCH)
    };
    let s1 = sort(t1, &mut st1);
    let s2 = sort(t2, &mut st2);
    let join = MergeJoin::new(s1, s2, 2, JoinType::Inner, 3, 3, BATCH, Arc::clone(&stats));
    let grouped = GroupAggregate::new(join, 1, vec![Aggregate::Count], BATCH, Arc::clone(&stats));
    let pairs = collect_batch_pairs(grouped);
    assert_codes_exact(&pairs, 1);
    assert!(!pairs.is_empty());
}

/// LSM ingest → scan → dedup → semi join against a b-tree; Napa-flavoured.
#[test]
fn lsm_scan_join_pipeline() {
    let stats = Stats::new_shared();
    let mut forest = LsmForest::new(2, LsmConfig { fanout: 3 }, Arc::clone(&stats));
    let mut rng = StdRng::seed_from_u64(4);
    for _ in 0..8 {
        forest.ingest(
            (0..250)
                .map(|_| Row::new(vec![rng.gen_range(0..30u64), rng.gen_range(0..30u64)]))
                .collect(),
        );
    }
    let mut dim_rows: Vec<Row> = (0..15u64).map(|k| Row::new(vec![k * 2, k])).collect();
    dim_rows.sort();
    let dim = BTree::bulk_load(dim_rows, 2, 8, 4);

    let scan = forest.scan().into_run().batches(BATCH);
    let dedup = rows(BatchDedup::new(scan, Arc::clone(&stats)));
    let inner = BTreeInner::new(&dim, 1, 2, Arc::clone(&stats));
    let join = LookupJoin::new(dedup, inner, JoinType::LeftSemi);
    let pairs = collect_pairs(join);
    assert_codes_exact(&pairs, 2);
    assert!(pairs
        .iter()
        .all(|(r, _)| r.cols()[0] % 2 == 0 && r.cols()[0] < 30));
}

/// Split a sorted stream across an exchange, process partitions
/// independently, merge back — codes valid throughout.
#[test]
fn exchange_round_trip_with_partitionwise_grouping() {
    let mut rows = random_rows(1200, 2, 8, 5);
    rows.sort();
    let stats = Stats::new_shared();
    let spec = SortSpec::asc(2);
    let input = Run::from_sorted_rows(rows.clone(), 2).batches(BATCH);
    let mut parts: Vec<Vec<FlatRows>> = vec![Vec::new(); 4];
    route_batches(input, 4, by_cols_hash(vec![0], 4), BATCH, |p, batch| {
        parts[p].push(batch);
        true
    })
    .unwrap();

    // Hash partitioning on the leading key column keeps whole groups in
    // one partition, so partition-wise grouping is correct.
    let mut grouped_parts: Vec<Box<dyn BatchStream + Send>> = Vec::new();
    for p in parts {
        let mut grouped = GroupAggregate::new(
            VecBatchStream::new(p, spec.clone()),
            2,
            vec![Aggregate::Count],
            BATCH,
            Arc::clone(&stats),
        );
        let batches: Vec<FlatRows> = std::iter::from_fn(|| grouped.next_batch().unwrap()).collect();
        let pairs = collect_batch_pairs(VecBatchStream::new(batches.clone(), spec.clone()));
        assert_codes_exact(&pairs, 2);
        grouped_parts.push(Box::new(VecBatchStream::new(batches, spec.clone())));
    }
    let merged = merge_batch_streams(grouped_parts, &spec, &stats).unwrap();
    let pairs = collect_pairs(merged);
    assert_codes_exact(&pairs, 2);
    let total: u64 = pairs.iter().map(|(r, _)| r.cols()[2]).sum();
    assert_eq!(total, rows.len() as u64);
}

/// Order-preserving hash join inside a sorted pipeline, then projection
/// and set operation against another stream.
#[test]
fn hash_join_project_setop_pipeline() {
    let probe_rows = random_rows(800, 2, 10, 6);
    let build_rows: Vec<Row> = (0..10u64).map(|k| Row::new(vec![k, k * 7])).collect();
    let stats = Stats::new_shared();

    let probe = VecStream::from_unsorted_rows(probe_rows, 2);
    let table = HashTable::build(build_rows, 1);
    let join = HashJoinOp::new(probe, table, JoinType::Inner);
    // Project down to the first key column only.
    let projected = BatchProject::new(batches(join), 1, vec![0]);
    let left = BatchDedup::new(projected, Arc::clone(&stats));

    let right = VecStream::from_unsorted_rows((0..6u64).map(|k| Row::new(vec![k])).collect(), 1);
    let setop = SetOperation::new(
        left,
        batches(right),
        SetOp::Intersect,
        BATCH,
        Arc::clone(&stats),
    );
    let pairs = collect_batch_pairs(setop);
    assert_codes_exact(&pairs, 1);
    assert!(pairs.iter().all(|(r, _)| r.cols()[0] < 6));
}

/// A deep pipeline: b-tree scan → filter → merge join → dedup → group —
/// eight hops of code-carrying operators, zero column comparisons outside
/// the join's merge logic.
#[test]
fn deep_pipeline_comparison_budget() {
    let mut fact = random_rows(3000, 2, 20, 7);
    fact.sort();
    let mut dim = random_rows(300, 2, 20, 8);
    dim.sort();
    let fact_tree = BTree::bulk_load(fact, 2, 32, 8);
    let dim_tree = BTree::bulk_load(dim, 2, 32, 8);
    let stats = Stats::new_shared();

    let f = ovc_storage::btree::scan_to_stream(&fact_tree);
    let d = ovc_storage::btree::scan_to_stream(&dim_tree);
    let filtered = BatchFilter::new(
        batches(f),
        |r: &[Value]| !r[1].is_multiple_of(3),
        Arc::clone(&stats),
    );
    let join = MergeJoin::new(
        filtered,
        batches(d),
        1,
        JoinType::Inner,
        3,
        3,
        BATCH,
        Arc::clone(&stats),
    );
    let dedup = BatchDedup::new(join, Arc::clone(&stats));
    let grouped = GroupAggregate::new(dedup, 1, vec![Aggregate::Count], BATCH, Arc::clone(&stats));
    let pairs = collect_batch_pairs(grouped);
    assert_codes_exact(&pairs, 1);
    // Only the merge join may compare columns, bounded by N*K of its
    // combined input sizes.
    assert!(
        stats.col_value_cmps() <= (3000 + 300),
        "pipeline comparisons {} exceed the join's N*K budget",
        stats.col_value_cmps()
    );
}
