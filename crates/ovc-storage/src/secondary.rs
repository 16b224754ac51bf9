//! Non-unique secondary indexes with sorted row-identifier lists
//! (Section 4.11).
//!
//! "In non-unique secondary indexes, lists of row identifiers are usually
//! sorted and compressed … and thus can deliver such lists with
//! offset-value codes.  Range queries need to merge lists of row
//! identifiers; again, the merge logic consumes, benefits from, and
//! produces offset-value codes.  Multi-dimensional b-tree access, e.g.,
//! MDAM, similarly merges sorted lists of row identifiers.  Sorted lists
//! of row identifiers are similarly useful for index intersection and
//! index join, i.e., 'covering' a query in 'index-only retrieval' with
//! multiple secondary indexes of the same table."
//!
//! This index maps one column's values to sorted RID lists whose codes are
//! computed once at build time; equality, IN-list, and range scans deliver
//! coded RID streams (range/IN scans through the sort's one tree-of-losers
//! merge, `ovc_sort::FlatMerge`).
//! Index intersection and RID-order index joins compose downstream with
//! the set operations and merge join of `ovc-exec` — see the
//! `secondary_index` integration tests.

use std::sync::Arc;

use ovc_core::{FlatRows, Ovc, OvcRow, Row, SortSpec, Stats, Value, VecStream};
use ovc_sort::{merge_runs_spec, FlatMerge, Run};

/// A row identifier: the row's position in the base table.
pub type Rid = u64;

/// A secondary index over one column of a base table.
pub struct SecondaryIndex {
    /// Distinct values in ascending order, each with its coded RID list:
    /// a one-column run whose RIDs ascend and whose codes are
    /// next-neighbor differences, free at scan.
    entries: Vec<(Value, Run)>,
    column: usize,
    table_rows: usize,
}

impl SecondaryIndex {
    /// Build the index over `table`, indexing `column`.
    pub fn build(table: &[Row], column: usize) -> Self {
        let mut pairs: Vec<(Value, Rid)> = table
            .iter()
            .enumerate()
            .map(|(rid, row)| (row.cols()[column], rid as Rid))
            .collect();
        pairs.sort_unstable();
        let mut lists: Vec<(Value, FlatRows)> = Vec::new();
        for (value, rid) in pairs {
            match lists.last_mut() {
                Some((v, list)) if *v == value => {
                    // RIDs within one value's list are strictly ascending;
                    // the next-neighbor code is stored, as in a compressed
                    // index leaf.
                    list.push(&[rid], Ovc::new(0, rid, 1));
                }
                _ => {
                    let mut list = FlatRows::new(1);
                    list.push(&[rid], Ovc::initial(&[rid]));
                    lists.push((value, list));
                }
            }
        }
        let entries = lists
            .into_iter()
            .map(|(value, list)| (value, Run::from_flat(list, SortSpec::asc(1))))
            .collect();
        SecondaryIndex {
            entries,
            column,
            table_rows: table.len(),
        }
    }

    /// Indexed column.
    pub fn column(&self) -> usize {
        self.column
    }

    /// Number of distinct indexed values.
    pub fn distinct_values(&self) -> usize {
        self.entries.len()
    }

    /// Number of rows in the indexed table.
    pub fn table_rows(&self) -> usize {
        self.table_rows
    }

    fn list_for(&self, value: Value) -> Option<&Run> {
        self.entries
            .binary_search_by_key(&value, |(v, _)| *v)
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// Coded RID stream for an equality predicate.  The stored codes come
    /// out unchanged — "practically for free".
    pub fn scan_eq(&self, value: Value) -> VecStream {
        let rows = self
            .list_for(value)
            .map(Run::to_ovc_rows)
            .unwrap_or_default();
        VecStream::from_coded(rows, 1)
    }

    /// Coded RID stream for a range predicate `lo <= v < hi`: a
    /// tree-of-losers merge of the per-value lists, producing exact codes
    /// for the merged list (Section 4.11's "range queries need to merge
    /// lists of row identifiers").  An empty range (`lo >= hi`) merges
    /// nothing.
    pub fn scan_range(&self, lo: Value, hi: Value, stats: &Arc<Stats>) -> FlatMerge {
        let from = self.entries.partition_point(|(v, _)| *v < lo);
        let to = self.entries.partition_point(|(v, _)| *v < hi).max(from);
        let lists = self.entries[from..to].iter().map(|(_, list)| list.clone());
        merge_runs_spec(lists.collect(), &SortSpec::asc(1), stats)
    }

    /// Coded RID stream for an IN-list predicate — MDAM-style merging of
    /// several disjoint lists.  A value listed twice is merged once.
    pub fn scan_in(&self, values: &[Value], stats: &Arc<Stats>) -> FlatMerge {
        let mut values = values.to_vec();
        values.sort_unstable();
        values.dedup();
        let lists = values.into_iter().filter_map(|v| self.list_for(v).cloned());
        merge_runs_spec(lists.collect(), &SortSpec::asc(1), stats)
    }

    /// Index-only scan in RID order: `(rid, value)` rows sorted by RID with
    /// exact codes (arity 1, the RID) — the building block for "index
    /// join", i.e. covering a query with multiple secondary indexes.
    pub fn scan_by_rid(&self) -> VecStream {
        let mut rows: Vec<(Rid, Value)> = self
            .entries
            .iter()
            .flat_map(|(v, list)| list.iter().map(move |(rid, _)| (rid[0], *v)))
            .collect();
        rows.sort_unstable();
        let coded: Vec<OvcRow> = rows
            .into_iter()
            .enumerate()
            .map(|(i, (rid, v))| {
                // RIDs are unique and ascending: codes are immediate.
                let code = if i == 0 {
                    Ovc::initial(&[rid])
                } else {
                    Ovc::new(0, rid, 1)
                };
                OvcRow::new(Row::new(vec![rid, v]), code)
            })
            .collect();
        VecStream::from_coded(coded, 1)
    }

    /// Fetch base-table rows for a RID stream (the non-covering path).
    pub fn fetch<'a>(
        table: &'a [Row],
        rids: impl Iterator<Item = OvcRow> + 'a,
    ) -> impl Iterator<Item = &'a Row> + 'a {
        rids.map(move |r| &table[r.row.cols()[0] as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovc_core::derive::assert_codes_exact;
    use ovc_core::stream::collect_pairs;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn table(n: usize, domain: u64, seed: u64) -> Vec<Row> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Row::new(vec![rng.gen_range(0..domain), rng.gen_range(0..domain)]))
            .collect()
    }

    #[test]
    fn equality_scan_returns_all_rids_coded() {
        let t = table(500, 10, 1);
        let idx = SecondaryIndex::build(&t, 0);
        for v in 0..10u64 {
            let pairs = collect_pairs(idx.scan_eq(v));
            assert_codes_exact(&pairs, 1);
            let expect: Vec<u64> = t
                .iter()
                .enumerate()
                .filter(|(_, r)| r.cols()[0] == v)
                .map(|(i, _)| i as u64)
                .collect();
            let got: Vec<u64> = pairs.iter().map(|(r, _)| r.cols()[0]).collect();
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn range_scan_merges_lists_with_exact_codes() {
        let t = table(800, 50, 2);
        let idx = SecondaryIndex::build(&t, 1);
        let stats = Stats::new_shared();
        let pairs = collect_pairs(idx.scan_range(10, 30, &stats));
        assert_codes_exact(&pairs, 1);
        let expect: Vec<u64> = t
            .iter()
            .enumerate()
            .filter(|(_, r)| (10..30).contains(&r.cols()[1]))
            .map(|(i, _)| i as u64)
            .collect();
        let got: Vec<u64> = pairs.iter().map(|(r, _)| r.cols()[0]).collect();
        assert_eq!(got, expect, "merged RID order = base-table order");
    }

    #[test]
    fn in_list_scan() {
        let t = table(300, 20, 3);
        let idx = SecondaryIndex::build(&t, 0);
        let stats = Stats::new_shared();
        let pairs = collect_pairs(idx.scan_in(&[3, 17, 99], &stats));
        assert_codes_exact(&pairs, 1);
        let expect = t
            .iter()
            .filter(|r| [3u64, 17].contains(&r.cols()[0]))
            .count();
        assert_eq!(pairs.len(), expect);
    }

    #[test]
    fn inverted_range_is_empty() {
        let t = table(300, 20, 6);
        let idx = SecondaryIndex::build(&t, 0);
        let stats = Stats::new_shared();
        assert_eq!(idx.scan_range(17, 3, &stats).count(), 0);
        assert_eq!(idx.scan_range(5, 5, &stats).count(), 0);
    }

    #[test]
    fn in_list_with_a_repeated_value_returns_each_rid_once() {
        let t = table(300, 20, 7);
        let idx = SecondaryIndex::build(&t, 0);
        let stats = Stats::new_shared();
        let pairs = collect_pairs(idx.scan_in(&[3, 17, 3], &stats));
        assert_codes_exact(&pairs, 1);
        let expect: Vec<u64> = t
            .iter()
            .enumerate()
            .filter(|(_, r)| [3u64, 17].contains(&r.cols()[0]))
            .map(|(i, _)| i as u64)
            .collect();
        let got: Vec<u64> = pairs.iter().map(|(r, _)| r.cols()[0]).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn scan_by_rid_covers_the_table() {
        let t = table(200, 8, 4);
        let idx = SecondaryIndex::build(&t, 1);
        let pairs = collect_pairs(idx.scan_by_rid());
        assert_codes_exact(&pairs, 1);
        assert_eq!(pairs.len(), 200);
        for (row, _) in &pairs {
            let (rid, v) = (row.cols()[0], row.cols()[1]);
            assert_eq!(t[rid as usize].cols()[1], v);
        }
    }

    #[test]
    fn fetch_resolves_rids() {
        let t = table(100, 5, 5);
        let idx = SecondaryIndex::build(&t, 0);
        let fetched: Vec<&Row> = SecondaryIndex::fetch(&t, idx.scan_eq(2)).collect();
        assert!(fetched.iter().all(|r| r.cols()[0] == 2));
    }

    #[test]
    fn empty_and_missing_values() {
        let idx = SecondaryIndex::build(&[], 0);
        assert_eq!(idx.distinct_values(), 0);
        assert_eq!(idx.scan_eq(5).count(), 0);
        let stats = Stats::new_shared();
        assert_eq!(idx.scan_range(0, 100, &stats).count(), 0);
    }
}
