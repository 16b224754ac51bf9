//! Exact code derivation and validation for sorted data.
//!
//! `derive_codes` is the row-by-row, column-by-column method the paper
//! calls too expensive for per-operator use — we keep it as (a) the
//! reference implementation that operators are property-tested against,
//! (b) the one-linear-pass code priming step after an in-memory quicksort,
//! and (c) the tool ordered scans use at load time (Section 4.12: storage
//! structures "preserve the effort for comparisons spent during index
//! creation").

use crate::compare::{derive_code, derive_code_spec};
use crate::ovc::Ovc;
use crate::row::Row;
use crate::spec::SortSpec;
use crate::stats::Stats;

/// Derive the exact ascending code of every row in an already-sorted slice
/// (first row coded relative to "−∞").  Uninstrumented convenience.
pub fn derive_codes(rows: &[Row], key_len: usize) -> Vec<Ovc> {
    let stats = Stats::default();
    derive_codes_counted(rows, key_len, &stats)
}

/// As [`derive_codes`], counting every column-value comparison in `stats`.
pub fn derive_codes_counted(rows: &[Row], key_len: usize, stats: &Stats) -> Vec<Ovc> {
    let mut codes = Vec::with_capacity(rows.len());
    let mut prev: Option<&Row> = None;
    for row in rows {
        let code = match prev {
            None => Ovc::initial(row.key(key_len)),
            Some(p) => derive_code(p.key(key_len), row.key(key_len), stats),
        };
        codes.push(code);
        prev = Some(row);
    }
    codes
}

/// Is the slice sorted ascending on the first `key_len` columns?
pub fn is_sorted(rows: &[Row], key_len: usize) -> bool {
    rows.windows(2)
        .all(|w| w[0].key(key_len) <= w[1].key(key_len))
}

/// Direction-aware [`derive_codes`]: exact codes of an already
/// spec-ordered slice, first row relative to "−∞".  Requires a
/// leading-prefix spec (the coded-stream contract).
pub fn derive_codes_spec(rows: &[Row], spec: &SortSpec) -> Vec<Ovc> {
    let stats = Stats::default();
    assert!(
        spec.is_prefix(),
        "coded streams require leading-prefix sort specs, got {spec}"
    );
    let k = spec.len();
    let mut codes = Vec::with_capacity(rows.len());
    let mut prev: Option<&Row> = None;
    for row in rows {
        let code = match prev {
            None => spec.initial_code(row.key(k)),
            Some(p) => derive_code_spec(p.key(k), row.key(k), spec, &stats),
        };
        codes.push(code);
        prev = Some(row);
    }
    codes
}

/// Is the slice sorted under `spec` (leading-prefix specs only)?
pub fn is_sorted_spec(rows: &[Row], spec: &SortSpec) -> bool {
    let k = spec.len();
    rows.windows(2)
        .all(|w| spec.cmp_keys(w[0].key(k), w[1].key(k)) != std::cmp::Ordering::Greater)
}

/// Check that a coded sequence is sorted **and** every code is exact
/// (maximal shared prefix with the predecessor) — the stream contract from
/// DESIGN.md §3.3.  Returns the index of the first violation.
pub fn find_code_violation(pairs: &[(Row, Ovc)], key_len: usize) -> Option<usize> {
    let stats = Stats::default();
    let mut prev: Option<&Row> = None;
    for (i, (row, code)) in pairs.iter().enumerate() {
        let expect = match prev {
            None => Ovc::initial(row.key(key_len)),
            Some(p) => {
                if p.key(key_len) > row.key(key_len) {
                    return Some(i); // not sorted
                }
                derive_code(p.key(key_len), row.key(key_len), &stats)
            }
        };
        if *code != expect {
            return Some(i);
        }
        prev = Some(row);
    }
    None
}

/// Panic with a precise message if the coded sequence violates the stream
/// contract.  Test helper used across all crates.
pub fn assert_codes_exact(pairs: &[(Row, Ovc)], key_len: usize) {
    if let Some(i) = find_code_violation(pairs, key_len) {
        let stats = Stats::default();
        let expect = if i == 0 {
            Ovc::initial(pairs[0].0.key(key_len))
        } else {
            derive_code(pairs[i - 1].0.key(key_len), pairs[i].0.key(key_len), &stats)
        };
        panic!(
            "code violation at row {i}: row={:?} code={:?} expected={:?} (prev={:?})",
            pairs[i].0,
            pairs[i].1,
            expect,
            i.checked_sub(1).map(|j| &pairs[j].0),
        );
    }
}

/// Spec-aware [`find_code_violation`]: first index where the sequence
/// breaks spec order or carries an inexact code.
pub fn find_code_violation_spec(pairs: &[(Row, Ovc)], spec: &SortSpec) -> Option<usize> {
    let k = spec.len();
    find_code_violation_slices(pairs.iter().map(|(row, code)| (row.key(k), *code)), spec)
}

/// Borrow-based [`find_code_violation_spec`] over `(key columns, code)`
/// pairs: validates a stored representation (a flat run, a column slice)
/// in place, without cloning a single row.  `key` slices must carry at
/// least `spec.len()` leading key columns.
pub fn find_code_violation_slices<'a, I>(pairs: I, spec: &SortSpec) -> Option<usize>
where
    I: IntoIterator<Item = (&'a [u64], Ovc)>,
{
    let stats = Stats::default();
    let k = spec.len();
    let mut prev: Option<&[u64]> = None;
    for (i, (key, code)) in pairs.into_iter().enumerate() {
        let key = &key[..k];
        let expect = match prev {
            None => spec.initial_code(key),
            Some(p) => {
                if spec.cmp_keys(p, key) == std::cmp::Ordering::Greater {
                    return Some(i); // not sorted under the spec
                }
                derive_code_spec(p, key, spec, &stats)
            }
        };
        if code != expect {
            return Some(i);
        }
        prev = Some(key);
    }
    None
}

/// Spec-aware [`assert_codes_exact`]: panics with a precise message if
/// the coded sequence violates its spec's stream contract.
pub fn assert_codes_exact_spec(pairs: &[(Row, Ovc)], spec: &SortSpec) {
    if let Some(i) = find_code_violation_spec(pairs, spec) {
        let stats = Stats::default();
        let k = spec.len();
        let expect = if i == 0 {
            spec.initial_code(pairs[0].0.key(k))
        } else {
            derive_code_spec(pairs[i - 1].0.key(k), pairs[i].0.key(k), spec, &stats)
        };
        panic!(
            "code violation at row {i} under {spec}: row={:?} code={:?} expected={:?} (prev={:?})",
            pairs[i].0,
            pairs[i].1,
            expect,
            i.checked_sub(1).map(|j| &pairs[j].0),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_matches_table1() {
        let rows = crate::table1::rows();
        let codes = derive_codes(&rows, crate::table1::ARITY);
        assert_eq!(codes, crate::table1::asc_codes());
    }

    #[test]
    fn derive_counts_at_most_n_times_k_comparisons() {
        let rows = crate::table1::rows();
        let stats = Stats::default();
        let _ = derive_codes_counted(&rows, 4, &stats);
        // First row is free; each subsequent row costs at most K.
        assert!(stats.col_value_cmps() <= (rows.len() as u64 - 1) * 4);
    }

    #[test]
    fn is_sorted_detects_order() {
        let rows = crate::table1::rows();
        assert!(is_sorted(&rows, 4));
        let mut bad = rows;
        bad.swap(0, 6);
        assert!(!is_sorted(&bad, 4));
    }

    #[test]
    fn violation_checker_accepts_exact_codes() {
        let rows = crate::table1::rows();
        let codes = derive_codes(&rows, 4);
        let pairs: Vec<_> = rows.into_iter().zip(codes).collect();
        assert_eq!(find_code_violation(&pairs, 4), None);
        assert_codes_exact(&pairs, 4);
    }

    #[test]
    fn violation_checker_rejects_inexact_codes() {
        let rows = crate::table1::rows();
        let mut codes = derive_codes(&rows, 4);
        codes[2] = Ovc::new(0, 5, 4); // over-approximated offset
        let pairs: Vec<_> = rows.into_iter().zip(codes).collect();
        assert_eq!(find_code_violation(&pairs, 4), Some(2));
    }

    #[test]
    fn violation_checker_rejects_unsorted_input() {
        let rows = crate::table1::rows();
        let codes = derive_codes(&rows, 4);
        let mut pairs: Vec<_> = rows.into_iter().zip(codes).collect();
        pairs.swap(1, 5);
        assert!(find_code_violation(&pairs, 4).is_some());
    }

    #[test]
    fn empty_and_single_row_inputs() {
        assert!(derive_codes(&[], 3).is_empty());
        let one = vec![Row::new(vec![9, 9, 9])];
        let codes = derive_codes(&one, 3);
        assert_eq!(codes, vec![Ovc::initial(&[9, 9, 9])]);
    }

    #[test]
    fn spec_derivation_matches_plain_on_ascending_specs() {
        let rows = crate::table1::rows();
        let spec = SortSpec::asc(4);
        assert_eq!(derive_codes_spec(&rows, &spec), derive_codes(&rows, 4));
        assert!(is_sorted_spec(&rows, &spec));
        let pairs: Vec<_> = rows
            .iter()
            .cloned()
            .zip(derive_codes_spec(&rows, &spec))
            .collect();
        assert_eq!(find_code_violation_spec(&pairs, &spec), None);
        assert_codes_exact_spec(&pairs, &spec);
    }

    #[test]
    fn spec_derivation_validates_descending_streams() {
        let spec = SortSpec::desc(2);
        let rows: Vec<Row> = [[9u64, 4], [9, 1], [3, 7], [3, 7], [1, 0]]
            .iter()
            .map(|c| Row::new(c.to_vec()))
            .collect();
        assert!(is_sorted_spec(&rows, &spec));
        assert!(!is_sorted(&rows, 2), "not ascending-sorted");
        let codes = derive_codes_spec(&rows, &spec);
        assert!(codes[3].is_duplicate(), "repeated row codes as duplicate");
        let pairs: Vec<_> = rows.iter().cloned().zip(codes).collect();
        assert_codes_exact_spec(&pairs, &spec);
        // Codes must ascend with the stream position where they differ
        // from their base — spot-check the violation finder catches a
        // mis-ordered swap.
        let mut bad = pairs;
        bad.swap(0, 4);
        assert!(find_code_violation_spec(&bad, &spec).is_some());
    }

    #[test]
    fn all_duplicate_rows() {
        let rows = vec![Row::new(vec![1, 2]); 5];
        let codes = derive_codes(&rows, 2);
        assert_eq!(codes[0], Ovc::initial(&[1, 2]));
        for c in &codes[1..] {
            assert!(c.is_duplicate());
        }
    }
}
