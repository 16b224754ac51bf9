//! Sorted, run-length-encoded column storage whose scans produce
//! offset-value codes for free (Section 4.11).
//!
//! "Column storage is often sorted with the leading key columns compressed
//! by run-length encoding.  Fortunately … such scans can produce row-by-row
//! offset-value codes without sorting and even without any column value
//! accesses or column value comparisons."
//!
//! The runs are *hierarchical*: a run in column `j` never crosses a run
//! boundary of any column `< j` (standard for sorted data — a new value in
//! an earlier column resets the later columns' runs).  At scan time, the
//! offset of row `i` is simply the first column whose run begins at `i`,
//! and the value is that run's stored value: an offset-value code computed
//! from run bookkeeping alone, no data comparisons.

use ovc_core::{Ovc, OvcRow, OvcStream, Row, Value};

/// One RLE run: a value repeated `len` times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Rle {
    value: Value,
    len: u32,
}

/// Sorted RLE column store: key columns run-length encoded hierarchically,
/// payload columns stored row-wise.
pub struct RleColumnStore {
    key_len: usize,
    n_rows: usize,
    /// Per key column, its runs (hierarchically split).
    key_runs: Vec<Vec<Rle>>,
    /// Payload columns of each row (row-major).
    payload: Vec<Box<[Value]>>,
    payload_width: usize,
}

impl RleColumnStore {
    /// Build from sorted rows.  Index-creation comparisons happen here,
    /// once; every later scan reuses them (Section 4.12).
    pub fn build(rows: &[Row], key_len: usize) -> Self {
        assert!(
            ovc_core::derive::is_sorted(rows, key_len),
            "RLE store requires sorted input"
        );
        let payload_width = rows.first().map(|r| r.width() - key_len).unwrap_or(0);
        let mut key_runs: Vec<Vec<Rle>> = vec![Vec::new(); key_len];
        let mut payload = Vec::with_capacity(rows.len());
        let mut prev: Option<&Row> = None;
        for row in rows {
            // First column where this row differs from its predecessor;
            // all runs from that column on break (hierarchical split).
            let break_col = match prev {
                None => 0,
                Some(p) => {
                    let mut b = key_len;
                    for j in 0..key_len {
                        if p.cols()[j] != row.cols()[j] {
                            b = j;
                            break;
                        }
                    }
                    b
                }
            };
            for (j, runs) in key_runs.iter_mut().enumerate() {
                if j >= break_col || runs.is_empty() {
                    runs.push(Rle {
                        value: row.cols()[j],
                        len: 1,
                    });
                } else {
                    runs.last_mut().expect("non-empty").len += 1;
                }
            }
            payload.push(row.payload(key_len).to_vec().into_boxed_slice());
            prev = Some(row);
        }
        RleColumnStore {
            key_len,
            n_rows: rows.len(),
            key_runs,
            payload,
            payload_width,
        }
    }

    /// Number of stored rows.
    pub fn len(&self) -> usize {
        self.n_rows
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Sort-key arity.
    pub fn key_len(&self) -> usize {
        self.key_len
    }

    /// Compression ratio achieved on the key columns: stored runs vs.
    /// `rows × columns` plain cells.
    pub fn key_compression_ratio(&self) -> f64 {
        let runs: usize = self.key_runs.iter().map(Vec::len).sum();
        let cells = self.n_rows * self.key_len.max(1);
        if cells == 0 {
            1.0
        } else {
            runs as f64 / cells as f64
        }
    }

    /// Ordered scan producing rows and codes from run bookkeeping alone.
    pub fn scan(&self) -> RleScan<'_> {
        RleScan {
            store: self,
            row: 0,
            cursors: vec![
                KeyRunPos {
                    run: 0,
                    remaining: 0
                };
                self.key_len
            ],
        }
    }
}

#[derive(Clone, Copy)]
struct KeyRunPos {
    run: usize,
    /// Rows left in the current run (0 = a new run starts at this row).
    remaining: u32,
}

/// Comparison-free coded scan over an [`RleColumnStore`].
pub struct RleScan<'a> {
    store: &'a RleColumnStore,
    row: usize,
    cursors: Vec<KeyRunPos>,
}

impl Iterator for RleScan<'_> {
    type Item = OvcRow;
    fn next(&mut self) -> Option<OvcRow> {
        if self.row >= self.store.n_rows {
            return None;
        }
        let key_len = self.store.key_len;
        // Offset = first column whose run begins at this row; the code's
        // value is that run's stored value.  No column comparisons.
        let mut offset = key_len;
        for j in 0..key_len {
            let c = &mut self.cursors[j];
            if c.remaining == 0 {
                if offset == key_len {
                    offset = j;
                }
                if self.row > 0 {
                    c.run += 1;
                }
                c.remaining = self.store.key_runs[j][c.run].len;
            }
            c.remaining -= 1;
        }
        let mut cols = Vec::with_capacity(key_len + self.store.payload_width);
        for j in 0..key_len {
            cols.push(self.store.key_runs[j][self.cursors[j].run].value);
        }
        cols.extend_from_slice(&self.store.payload[self.row]);
        let code = if self.row == 0 {
            Ovc::initial(&cols[..key_len])
        } else if offset == key_len {
            Ovc::duplicate()
        } else {
            Ovc::new(offset, cols[offset], key_len)
        };
        self.row += 1;
        Some(OvcRow::new(Row::new(cols), code))
    }
}

impl OvcStream for RleScan<'_> {
    fn key_len(&self) -> usize {
        self.store.key_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovc_core::derive::assert_codes_exact;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sorted_rows(n: usize, domain: u64, seed: u64) -> Vec<Row> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows: Vec<Row> = (0..n)
            .map(|i| {
                Row::new(vec![
                    rng.gen_range(0..domain),
                    rng.gen_range(0..domain),
                    rng.gen_range(0..domain),
                    i as u64, // payload
                ])
            })
            .collect();
        rows.sort();
        rows
    }

    #[test]
    fn scan_reproduces_rows_and_exact_codes() {
        let rows = sorted_rows(500, 4, 1);
        let store = RleColumnStore::build(&rows, 3);
        assert_eq!(store.len(), 500);
        let pairs: Vec<(Row, Ovc)> = store.scan().map(|r| (r.row, r.code)).collect();
        assert_eq!(pairs.len(), 500);
        assert_codes_exact(&pairs, 3);
        let got: Vec<Row> = pairs.into_iter().map(|(r, _)| r).collect();
        assert_eq!(got, rows);
    }

    #[test]
    fn table1_codes_from_rle() {
        let rows = ovc_core::table1::rows();
        let store = RleColumnStore::build(&rows, 4);
        let codes: Vec<Ovc> = store.scan().map(|r| r.code).collect();
        assert_eq!(codes, ovc_core::table1::asc_codes());
    }

    #[test]
    fn few_distinct_values_compress_well() {
        let rows = sorted_rows(1000, 3, 2);
        let store = RleColumnStore::build(&rows, 3);
        assert!(
            store.key_compression_ratio() < 0.5,
            "ratio {}",
            store.key_compression_ratio()
        );
    }

    #[test]
    fn empty_store() {
        let store = RleColumnStore::build(&[], 2);
        assert!(store.is_empty());
        assert_eq!(store.scan().count(), 0);
        assert_eq!(store.key_compression_ratio(), 1.0);
    }

    #[test]
    fn all_duplicates() {
        let rows = vec![Row::new(vec![5, 5]); 20];
        let store = RleColumnStore::build(&rows, 2);
        assert_eq!(
            store.key_runs.iter().map(Vec::len).sum::<usize>(),
            2,
            "one run per column"
        );
        let pairs: Vec<(Row, Ovc)> = store.scan().map(|r| (r.row, r.code)).collect();
        assert_codes_exact(&pairs, 2);
        assert!(pairs[1..].iter().all(|(_, c)| c.is_duplicate()));
    }

    #[test]
    fn keys_only_store() {
        // No payload columns at all.
        let mut rows: Vec<Row> = (0..50).map(|i| Row::new(vec![i / 10, i % 10])).collect();
        rows.sort();
        let store = RleColumnStore::build(&rows, 2);
        let pairs: Vec<(Row, Ovc)> = store.scan().map(|r| (r.row, r.code)).collect();
        assert_codes_exact(&pairs, 2);
    }
}
