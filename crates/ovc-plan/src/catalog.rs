//! Named base tables and the statistics the planner reads off them.
//!
//! Section 4.11 of the paper: "Data access is a source of offset-value
//! codes as important as sorting."  Every [`Table`] stores its rows and
//! their codes together in one flat buffer shared with every scan, which
//! slice-copies batches out of it, codes included, for free.  A table
//! registered as *sorted* derives its codes **once** (the storage-layer
//! effort the paper says scans should preserve).  A heap table is a table
//! under the empty spec ([`SortSpec::none`]): all its codes are duplicate
//! codes, and any interesting ordering above it must be earned with a
//! sort.

use std::collections::BTreeMap;
use std::collections::HashSet;
use std::sync::Arc;

use ovc_core::derive::{derive_codes_spec, is_sorted_spec};
use ovc_core::{FlatBatches, FlatRows, Ovc, Row, SortSpec};

/// A base table plus the cheap exact statistics the cost model feeds on.
#[derive(Clone, Debug)]
pub struct Table {
    /// Rows and codes, flat; shared with every scan.
    flat: Arc<FlatRows>,
    /// Ordering contract the stored rows follow (empty = heap table).
    spec: SortSpec,
    /// Exact count of distinct full rows (one hash pass at registration).
    distinct_rows: usize,
}

impl Table {
    /// Register an unsorted heap table.  Panics on rows of unequal width.
    /// The width is read off the rows, so an empty table gets width 1;
    /// [`Table::with_width`] states it instead.
    pub fn unsorted(rows: Vec<Row>) -> Table {
        let width = rows.first().map_or(1, Row::width);
        Table::with_width(width, rows, SortSpec::none())
    }

    /// Register a table stored sorted ascending on its first
    /// `sorted_key` columns (shorthand for [`Table::sorted_by`]).
    pub fn sorted(rows: Vec<Row>, sorted_key: usize) -> Table {
        Table::sorted_by(rows, SortSpec::asc(sorted_key))
    }

    /// Register a table stored ordered under an explicit [`SortSpec`]
    /// (mixed ascending/descending directions supported).  The width is
    /// read off the rows (an empty table gets the key's length, at
    /// least 1); [`Table::with_width`] states it instead.
    ///
    /// Codes are derived here, once — scans replay them without any
    /// column comparison (Section 4.11: data access is a source of codes
    /// as important as sorting).  Panics if the rows violate the spec.
    pub fn sorted_by(rows: Vec<Row>, spec: SortSpec) -> Table {
        let width = rows.first().map_or(spec.len().max(1), Row::width);
        Table::with_width(width, rows, spec)
    }

    /// Register a table of `width` columns stored ordered under `spec`
    /// — [`SortSpec::none`] for a heap table.  Every other constructor
    /// reads the width off the first row; this one is how an empty table
    /// keeps the width its queries expect.  Panics if a row has another
    /// width, if the key is longer than the rows, or if the rows violate
    /// the spec.
    pub fn with_width(width: usize, rows: Vec<Row>, spec: SortSpec) -> Table {
        assert!(
            spec.is_prefix(),
            "stored orderings must be leading-column prefixes, got {spec}"
        );
        assert!(spec.len() <= width, "sort key cannot exceed the row width");
        assert!(
            rows.iter().all(|r| r.width() == width),
            "every row of a table must have its {width} columns"
        );
        assert!(
            is_sorted_spec(&rows, &spec),
            "Table::sorted_by requires rows ordered under {spec}"
        );
        let distinct_rows = count_distinct(&rows);
        let mut flat = FlatRows::with_capacity(width, rows.len());
        if spec.is_empty() {
            // A heap table's codes are all the duplicate code.
            for row in &rows {
                flat.push(row.cols(), Ovc::duplicate());
            }
        } else {
            for (row, code) in rows.iter().zip(derive_codes_spec(&rows, &spec)) {
                flat.push(row.cols(), code);
            }
        }
        Table::new(flat, spec, distinct_rows)
    }

    fn new(flat: FlatRows, spec: SortSpec, distinct_rows: usize) -> Table {
        Table {
            flat: Arc::new(flat),
            spec,
            distinct_rows,
        }
    }

    /// Sort the rows on the full row and register the result (test and
    /// example convenience).
    pub fn sorted_from_unsorted(mut rows: Vec<Row>) -> Table {
        rows.sort();
        let width = rows.first().map(Row::width).unwrap_or(1);
        Table::sorted(rows, width)
    }

    /// The stored rows, materialized (one boxed row each).
    pub fn to_rows(&self) -> Vec<Row> {
        self.flat
            .iter()
            .map(|(cols, _)| Row::from_slice(cols))
            .collect()
    }

    /// Rows and pre-derived codes in flat layout, when the table is
    /// stored sorted.
    pub fn coded(&self) -> Option<&FlatRows> {
        (!self.spec.is_empty()).then_some(&*self.flat)
    }

    /// The one scan: stream the stored rows and codes in batches of at
    /// most `batch` rows under the table's spec, each a slice copy of the
    /// flat buffer (no per-row allocation, no comparison).  A stored
    /// table is one coded stream, so cutting it into batches needs no
    /// code repair (the seam rule, DESIGN.md §12).  Panics if `batch` is
    /// zero.
    pub(crate) fn scan(&self, batch: usize) -> FlatBatches<Arc<FlatRows>> {
        FlatBatches::new(Arc::clone(&self.flat), self.spec.clone(), batch)
    }

    /// Number of columns per row.
    pub fn width(&self) -> usize {
        self.flat.width()
    }

    /// Leading columns the stored rows are sorted on (0 = unsorted).
    pub fn sorted_key(&self) -> usize {
        self.spec.len()
    }

    /// The ordering contract the stored rows follow (empty = heap).
    pub fn sort_spec(&self) -> &SortSpec {
        &self.spec
    }

    /// Row count.
    pub fn len(&self) -> usize {
        self.flat.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exact number of distinct full rows.
    pub fn distinct_rows(&self) -> usize {
        self.distinct_rows
    }
}

fn count_distinct(rows: &[Row]) -> usize {
    rows.iter().collect::<HashSet<_>>().len()
}

/// The planner's name → table mapping.
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    tables: BTreeMap<String, Table>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Register `table` under `name`, replacing any previous entry.
    pub fn register(&mut self, name: impl Into<String>, table: Table) -> &mut Self {
        self.tables.insert(name.into(), table);
        self
    }

    /// Look a table up by name.
    pub fn get(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovc_core::derive::assert_codes_exact;
    use ovc_core::{BatchStream, Ovc};

    #[test]
    fn sorted_table_precomputes_exact_codes() {
        let t = Table::sorted(ovc_core::table1::rows(), 4);
        assert_eq!(t.sorted_key(), 4);
        assert_eq!(t.width(), 4);
        assert_eq!(t.len(), 7);
        assert_eq!(t.distinct_rows(), 6); // Table 1 holds one duplicate
        let pairs: Vec<(Row, Ovc)> = t
            .coded()
            .expect("sorted table is coded")
            .iter()
            .map(|(cols, code)| (Row::from_slice(cols), code))
            .collect();
        assert_codes_exact(&pairs, 4);
    }

    #[test]
    #[should_panic(expected = "requires rows ordered under")]
    fn sorted_rejects_unsorted_rows() {
        let mut rows = ovc_core::table1::rows();
        rows.reverse();
        let _ = Table::sorted(rows, 4);
    }

    #[test]
    fn unsorted_table_has_no_codes() {
        let t = Table::unsorted(vec![Row::new(vec![3, 1]), Row::new(vec![1, 2])]);
        assert!(t.coded().is_none());
        assert_eq!(t.sorted_key(), 0);
        assert_eq!(t.width(), 2);
    }

    #[test]
    fn descending_table_precomputes_spec_codes() {
        use ovc_core::derive::assert_codes_exact_spec;
        let spec = SortSpec::desc(1);
        let rows: Vec<Row> = [[9u64, 0], [5, 1], [5, 2], [1, 3]]
            .iter()
            .map(|c| Row::new(c.to_vec()))
            .collect();
        let t = Table::sorted_by(rows, spec.clone());
        assert_eq!(t.sort_spec(), &spec);
        assert_eq!(t.sorted_key(), 1);
        let pairs: Vec<(Row, Ovc)> = t
            .coded()
            .expect("spec-sorted table is coded")
            .iter()
            .map(|(cols, code)| (Row::from_slice(cols), code))
            .collect();
        assert_codes_exact_spec(&pairs, &spec);
    }

    /// The flat coded scan at every seam shape — one row per batch, an
    /// odd size, exactly the table, larger than the table — over
    /// ascending, descending and empty tables: the concatenated batches
    /// are the table's rows and codes exactly, seams included.
    #[test]
    fn coded_scan_replays_rows_and_codes_at_every_batch_size() {
        use ovc_core::batch::assert_batches_exact_spec;
        let asc: Vec<Row> = (0..23u64).map(|k| Row::new(vec![k / 4, k % 3])).collect();
        let mut desc = asc.clone();
        desc.reverse();
        for (rows, spec) in [
            (asc, SortSpec::asc(1)),
            (desc, SortSpec::desc(1)),
            (Vec::new(), SortSpec::asc(2)),
        ] {
            let t = Table::sorted_by(rows.clone(), spec.clone());
            assert_eq!(t.to_rows(), rows);
            let stored = t.coded().expect("sorted table is coded");
            for batch in [1, 7, rows.len().max(1), rows.len() + 5] {
                let mut scan = t.scan(batch);
                assert_eq!(scan.sort_spec(), spec);
                let mut batches = Vec::new();
                while let Some(b) = scan.next_batch().unwrap() {
                    assert!(!b.is_empty() && b.len() <= batch);
                    batches.push(b);
                }
                assert_eq!(batches.len(), rows.len().div_ceil(batch), "batch={batch}");
                assert_batches_exact_spec(&batches, &spec);
                let values: Vec<u64> = batches.iter().flat_map(|b| b.values().to_vec()).collect();
                let codes: Vec<Ovc> = batches.iter().flat_map(|b| b.codes().to_vec()).collect();
                assert_eq!(values, stored.values(), "batch={batch} under {spec}");
                assert_eq!(codes, stored.codes(), "batch={batch} under {spec}");
            }
        }
        assert!(Table::unsorted(vec![Row::new(vec![1])]).coded().is_none());
    }

    #[test]
    #[should_panic(expected = "ordered under")]
    fn sorted_by_rejects_spec_violations() {
        let rows = vec![Row::new(vec![1]), Row::new(vec![2])];
        let _ = Table::sorted_by(rows, SortSpec::desc(1));
    }

    #[test]
    fn catalog_registration_and_lookup() {
        let mut cat = Catalog::new();
        cat.register("t", Table::unsorted(vec![Row::new(vec![1])]));
        assert!(cat.get("t").is_some());
        assert!(cat.get("missing").is_none());
    }

    #[test]
    fn empty_table_defaults() {
        let t = Table::unsorted(vec![]);
        assert_eq!(t.width(), 1);
        assert!(t.is_empty());
        assert_eq!(t.distinct_rows(), 0);
    }
}
