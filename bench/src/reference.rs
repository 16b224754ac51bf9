//! Naive reference answers, written against the generated tables only:
//! what each planned query must return, computed with hash maps and
//! `sort`, sharing no code with the engine.

use std::collections::HashMap;

use crate::gen::RawTable;

/// Rows of a result, for comparison with the engine's row values.
pub type RefRows = Vec<Vec<u64>>;

/// `fact` filtered on `c2 < below`, inner-joined with `dim` on
/// `(c0, c1)`, grouped on `(c0, c1)`: `[c0, c1, count, sum(dim.c2)]`.
pub fn pipeline(fact: &RawTable, dim: &RawTable, below: u64) -> RefRows {
    let payload: HashMap<(u64, u64), Vec<u64>> = dim.iter().fold(HashMap::new(), |mut m, r| {
        m.entry((r[0], r[1])).or_default().push(r[2]);
        m
    });
    let mut groups: HashMap<(u64, u64), (u64, u64)> = HashMap::new();
    for r in fact.iter().filter(|r| r[2] < below) {
        for &p in payload.get(&(r[0], r[1])).into_iter().flatten() {
            let g = groups.entry((r[0], r[1])).or_default();
            g.0 += 1;
            g.1 = g.1.wrapping_add(p);
        }
    }
    let mut out: RefRows = groups
        .into_iter()
        .map(|((a, b), (n, s))| vec![a, b, n, s])
        .collect();
    out.sort_unstable();
    out
}

/// `UNION ALL` of two tables, in sorted order.
pub fn union_all(left: &RawTable, right: &RawTable) -> RefRows {
    let mut out: RefRows = left
        .iter()
        .chain(right.iter())
        .map(<[u64]>::to_vec)
        .collect();
    out.sort_unstable();
    out
}

/// Rows with `c0 < below`, in sorted order.
pub fn filter_lt(table: &RawTable, below: u64) -> RefRows {
    let mut out: RefRows = table
        .iter()
        .filter(|r| r[0] < below)
        .map(<[u64]>::to_vec)
        .collect();
    out.sort_unstable();
    out
}

/// Group on `c0`: `[c0, count, sum(c1)]`, plus `max(c2)` when asked.
pub fn group_c0(table: &RawTable, with_max_c2: bool) -> RefRows {
    let mut groups: HashMap<u64, (u64, u64, u64)> = HashMap::new();
    for r in table.iter() {
        let g = groups.entry(r[0]).or_default();
        g.0 += 1;
        g.1 = g.1.wrapping_add(r[1]);
        g.2 = g.2.max(r[2]);
    }
    let mut out: RefRows = groups
        .into_iter()
        .map(|(k, (n, s, m))| {
            let mut row = vec![k, n, s];
            if with_max_c2 {
                row.push(m);
            }
            row
        })
        .collect();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(width: usize, rows: &[&[u64]]) -> RawTable {
        RawTable {
            width,
            values: rows.iter().flat_map(|r| r.iter().copied()).collect(),
        }
    }

    #[test]
    fn pipeline_reference_on_a_hand_example() {
        let fact = table(
            4,
            &[&[1, 1, 5, 0], &[1, 1, 50, 0], &[2, 1, 5, 0], &[1, 1, 7, 0]],
        );
        let dim = table(3, &[&[1, 1, 10], &[2, 1, 20], &[3, 3, 30]]);
        assert_eq!(
            pipeline(&fact, &dim, 30),
            vec![vec![1, 1, 2, 20], vec![2, 1, 1, 20]]
        );
    }

    #[test]
    fn group_and_filter_references() {
        let t = table(3, &[&[2, 1, 9], &[1, 5, 3], &[2, 2, 4]]);
        assert_eq!(group_c0(&t, true), vec![vec![1, 1, 5, 3], vec![2, 2, 3, 9]]);
        assert_eq!(group_c0(&t, false), vec![vec![1, 1, 5], vec![2, 2, 3]]);
        assert_eq!(filter_lt(&t, 2), vec![vec![1, 5, 3]]);
        assert_eq!(
            union_all(&table(1, &[&[3], &[1]]), &table(1, &[&[2]])),
            vec![vec![1], vec![2], vec![3]]
        );
    }
}
