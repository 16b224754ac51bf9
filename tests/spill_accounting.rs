//! Spill accounting across the Figure 6 plans and the storage substrates:
//! conservation laws (bytes written == bytes read back), the paper's
//! "sort spills once, hash spills twice" shape at several scales, and the
//! prefix-truncation byte savings.  Both Figure 6 plans are the planner's
//! (`ovc_plan::figure5::run_intersect` with one side forced).

use std::sync::Arc;

use ovc_core::{Row, SortSpec, Stats};
use ovc_plan::figure5::{catalog_unsorted, run_intersect};
use ovc_plan::{Catalog, PlannerConfig, Preference};
use ovc_sort::{external_sort_spec_to_run, RunStorage, SortConfig};
use ovc_storage::EncodedRunStorage;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn table(n: usize, domain: u64, seed: u64) -> Vec<Row> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Row::new(vec![rng.gen_range(0..domain)]))
        .collect()
}

/// Run the planned Figure 5 query with one side forced; returns its
/// result row count and counters.
fn figure5(
    catalog: &Catalog,
    memory_rows: usize,
    fan_in: usize,
    preference: Preference,
) -> (usize, Arc<Stats>) {
    let cfg = PlannerConfig::default()
        .with_memory_rows(memory_rows)
        .with_fan_in(fan_in)
        .with_preference(preference);
    let stats = Stats::new_shared();
    let (_, out) = run_intersect(catalog, cfg, &stats).expect("plans");
    (out.into_rows().len(), stats)
}

#[test]
fn sort_spill_conservation() {
    let rows = table(3000, 500, 1);
    let stats = Stats::new_shared();
    let mut storage = EncodedRunStorage::new(Arc::clone(&stats));
    let cfg = SortConfig::new(1, 200);
    let out = external_sort_spec_to_run(rows, cfg, &SortSpec::asc(1), &mut storage, &stats).len();
    assert_eq!(out, 3000);
    assert_eq!(stats.rows_spilled(), stats.rows_read_back());
    assert_eq!(stats.bytes_spilled(), stats.bytes_read_back());
    assert_eq!(storage.stored_runs(), 0, "every spilled run consumed");
}

#[test]
fn prefix_truncation_shrinks_spill_bytes() {
    // Same data, wide keys with few distinct values: encoded spill must be
    // much smaller than the flat 8-bytes-per-column image.
    let mut rng = StdRng::seed_from_u64(2);
    let rows: Vec<Row> = (0..4000)
        .map(|_| {
            Row::new(vec![
                rng.gen_range(0..3u64),
                rng.gen_range(0..3u64),
                rng.gen_range(0..3u64),
                rng.gen_range(0..3u64),
            ])
        })
        .collect();
    let stats = Stats::new_shared();
    let mut storage = EncodedRunStorage::new(Arc::clone(&stats));
    let cfg = SortConfig::new(4, 500);
    let _ = external_sort_spec_to_run(rows, cfg, &SortSpec::asc(4), &mut storage, &stats);
    let flat = stats.rows_spilled() * 5 * 8; // 4 cols + code per row
    assert!(
        stats.bytes_spilled() * 2 < flat,
        "truncation saved too little: {} vs flat {}",
        stats.bytes_spilled(),
        flat
    );
}

#[test]
fn figure6_shape_across_scales() {
    // The who-wins shape must hold across input sizes (with the paper's
    // 10:1 input-to-memory ratio).
    for n in [2000usize, 8000] {
        let t1 = table(n, (n as u64) * 3 / 4, 3);
        let t2 = table(n, (n as u64) * 3 / 4, 4);
        let cat = catalog_unsorted(t1, t2);
        let mem = n / 10;
        let (_, hs) = figure5(&cat, mem, 64, Preference::ForceHashBased);
        let (_, ss) = figure5(&cat, mem, 64, Preference::ForceSortBased);

        assert!(
            ss.rows_spilled() <= 2 * n as u64,
            "n={n}: sort spills each row at most once ({})",
            ss.rows_spilled()
        );
        assert!(
            hs.rows_spilled() > ss.rows_spilled(),
            "n={n}: hash plan must spill more (hash {} vs sort {})",
            hs.rows_spilled(),
            ss.rows_spilled()
        );
    }
}

#[test]
fn in_memory_plans_spill_nothing() {
    let cat = catalog_unsorted(table(500, 100, 5), table(500, 100, 6));
    let (_, hs) = figure5(&cat, 10_000, 64, Preference::ForceHashBased);
    assert_eq!(hs.rows_spilled(), 0);
    let (_, ss) = figure5(&cat, 10_000, 64, Preference::ForceSortBased);
    assert_eq!(ss.rows_spilled(), 0);
}

#[test]
fn lsm_compaction_write_amplification_bounded() {
    // Stepped-merge forests re-write each row once per level: total
    // spilled rows <= (depth + 1) * ingested rows.
    let stats = Stats::new_shared();
    let mut forest =
        ovc_storage::LsmForest::new(1, ovc_storage::LsmConfig { fanout: 4 }, Arc::clone(&stats));
    let mut rng = StdRng::seed_from_u64(7);
    let mut n = 0u64;
    for _ in 0..32 {
        let batch: Vec<Row> = (0..100)
            .map(|_| Row::new(vec![rng.gen_range(0..1000u64)]))
            .collect();
        n += batch.len() as u64;
        forest.ingest(batch);
    }
    let bound = (forest.depth() as u64 + 1) * n;
    assert!(
        stats.rows_spilled() <= bound,
        "write amplification {} exceeds (depth+1)*N = {}",
        stats.rows_spilled(),
        bound
    );
}

/// Figure 6 at the `figures --quick` size (20 000 rows per table, memory
/// N/10, fan-in 128, planned at dop 1), its counted columns pinned: the figure's ground
/// truth is these counts, so a change that moves any of them shows here
/// rather than only in a regenerated snapshot.
#[test]
fn figure6_quick_counts_are_pinned() {
    let (t1, t2) = ovc_bench::workload::intersect_tables(20_000, 42);
    let cat = catalog_unsorted(t1, t2);
    let h = figure5(&cat, 2_000, 128, Preference::ForceHashBased);
    let s = figure5(&cat, 2_000, 128, Preference::ForceSortBased);

    // (result rows, rows spilled, bytes spilled, column cmps, code cmps)
    let counted = |(rows, st): (usize, Arc<Stats>)| {
        (
            rows,
            st.rows_spilled(),
            st.bytes_spilled(),
            st.col_value_cmps(),
            st.ovc_cmps(),
        )
    };
    assert_eq!(counted(h), (8082, 57663, 922_608, 97663, 0), "hash plan");
    assert_eq!(counted(s), (8082, 38161, 610_576, 0, 659_034), "sort plan");
}
