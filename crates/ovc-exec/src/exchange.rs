//! Order-preserving exchange / shuffle (Section 4.10), over flat batches.
//!
//! There is one exchange, and the executor (`ovc-plan`) runs it:
//!
//! * One-to-many "splitting" shuffle: each output partition is a selection
//!   from the input stream, so it "resembles a filter with respect to each
//!   output partition" — one filter-theorem accumulator per partition.
//!   That is [`crate::route_batches`] on a producer thread, routing with
//!   [`by_cols_hash`] and sending each filled batch down its partition's
//!   channel.
//! * Many-to-one "merging" shuffle: "the standard merge logic, very
//!   similar to a merge step in an external merge sort" — literally the
//!   external sort's flat tree-of-losers, `ovc_sort::merge_batch_streams`,
//!   over the live partition streams: a spent input pulls its stream's
//!   next batch where a run would end.
//! * Many-to-many: "similar to a sequence of many-to-one and one-to-many
//!   shuffle operations" — and so it is composed: the planner gathers a
//!   partitioned input to one stream and splits it again on the new
//!   columns.  The split edge is unbounded (DESIGN.md §12), so a splitter
//!   never waits on a slow partition and the producer/consumer wait cycle
//!   the paper warns about cannot form.
//!
//! Codes stay exact across both hand-offs because they are a function of
//! the row sequence within a stream, and every partition is consumed in
//! the order it was produced.

use ovc_core::Value;

/// Hash-partition on a set of columns together: rows agreeing on those
/// columns land in the same partition, whichever input they come from —
/// the co-location guarantee partitioned joins, groupings and set
/// operations build on.
///
/// The partition is an FNV hash of the columns, spread by a Fibonacci
/// finisher and reduced `% n`.  When `n` is a power of two the reduction
/// is a mask instead of a division; the two agree on every hash, so no
/// row changes partition.
pub fn by_cols_hash(cols: Vec<usize>, n: usize) -> impl FnMut(&[Value]) -> usize + Clone + Send {
    let mask = n.is_power_of_two().then(|| n - 1);
    move |r: &[Value]| {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV offset basis
        for &c in &cols {
            h ^= r[c];
            h = h.wrapping_mul(0x100_0000_01b3); // FNV prime
        }
        // Fibonacci finisher spreads the low bits.
        let x = ((h.wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 32) as usize;
        match mask {
            Some(mask) => x & mask,
            None => x % n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route_batches;
    use ovc_core::batch::collect_batch_pairs;
    use ovc_core::derive::assert_codes_exact_spec;
    use ovc_core::{BatchStream, FlatRows, Ovc, Row, SortSpec, Stats, VecBatchStream};
    use ovc_sort::{merge_batch_streams, Run};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn input(n: usize, seed: u64) -> Run {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows: Vec<Row> = (0..n)
            .map(|_| Row::new(vec![rng.gen_range(0..20u64), rng.gen_range(0..20u64)]))
            .collect();
        rows.sort();
        Run::from_sorted_rows(rows, 2)
    }

    /// Split `input` into `parts` partitions with `route`, collecting each
    /// partition's batches (7 rows per batch each way).
    fn split(input: Run, parts: usize, route: impl FnMut(&[Value]) -> usize) -> Vec<Vec<FlatRows>> {
        let mut out = vec![Vec::new(); parts];
        route_batches(input.batches(7), parts, route, 7, |p, batch| {
            out[p].push(batch);
            true
        })
        .unwrap();
        out
    }

    /// One partition's rows and codes, audited exact under `spec`.
    fn exact_pairs(batches: &[FlatRows], spec: &SortSpec) -> Vec<(Row, Ovc)> {
        let pairs = collect_batch_pairs(VecBatchStream::new(batches.to_vec(), spec.clone()));
        assert_codes_exact_spec(&pairs, spec);
        pairs
    }

    /// The merging shuffle over the partitions' batch streams.
    fn gather(parts: Vec<Vec<FlatRows>>, spec: &SortSpec) -> Run {
        let streams = parts
            .into_iter()
            .map(|b| Box::new(VecBatchStream::new(b, spec.clone())) as Box<dyn BatchStream + Send>)
            .collect();
        merge_batch_streams(streams, spec, &Stats::new_shared())
            .unwrap()
            .into_run()
    }

    #[test]
    fn split_partitions_are_sorted_and_exact() {
        let input = input(300, 1);
        let (n, spec) = (input.len(), input.sort_spec().clone());
        let parts = split(input, 4, by_cols_hash(vec![1], 4));
        assert_eq!(parts.len(), 4);
        let total: usize = parts.iter().map(|p| exact_pairs(p, &spec).len()).sum();
        assert_eq!(total, n);
    }

    #[test]
    fn split_then_merge_round_trips() {
        let input = input(500, 2);
        let spec = input.sort_spec().clone();
        let parts = split(input.clone(), 8, by_cols_hash(vec![0], 8));
        let merged = gather(parts, &spec);
        assert_eq!(
            merged.flat(),
            input.flat(),
            "shuffle round trip preserves the sorted stream, codes included"
        );
    }

    #[test]
    fn range_partition_keeps_global_order_concatenated() {
        let input = input(200, 3);
        let spec = input.sort_spec().clone();
        let expect = collect_batch_pairs(input.clone().batches(7));
        let bounds = [7, 14];
        let parts = split(input, 3, |r: &[Value]| {
            bounds
                .iter()
                .position(|&b| r[0] < b)
                .unwrap_or(bounds.len())
        });
        let mut got: Vec<Row> = Vec::new();
        for p in &parts {
            got.extend(exact_pairs(p, &spec).into_iter().map(|(r, _)| r));
        }
        // Range partitions concatenate back to the global order.
        let rows: Vec<Row> = expect.into_iter().map(|(r, _)| r).collect();
        assert_eq!(got, rows);
    }

    #[test]
    fn round_robin_split() {
        let input = input(100, 4);
        let n = input.len();
        let mut next = 0usize;
        let parts = split(input, 3, |_: &[Value]| {
            next += 1;
            next % 3
        });
        let sizes: Vec<usize> = parts
            .iter()
            .map(|p| p.iter().map(FlatRows::len).sum())
            .collect();
        assert_eq!(sizes.iter().sum::<usize>(), n);
        assert!(sizes.iter().all(|&s| s >= n / 3));
    }

    /// Many-to-many as the paper defines it: many-to-one, then
    /// one-to-many.  Two sorted inputs gather into one stream, which
    /// splits four ways; each partition holds exactly the gathered rows
    /// that hash to it, in order, exactly coded.
    #[test]
    fn many_to_many_shuffle() {
        let (a, b) = (input(150, 5), input(150, 6));
        let spec = a.sort_spec().clone();
        let n = a.len() + b.len();
        let gathered = gather(vec![vec![a.into_flat()], vec![b.into_flat()]], &spec);
        assert_eq!(gathered.len(), n);
        let all = collect_batch_pairs(gathered.clone().batches(7));
        let parts = split(gathered, 4, by_cols_hash(vec![0], 4));
        let mut route = by_cols_hash(vec![0], 4);
        for (p, batches) in parts.iter().enumerate() {
            let rows: Vec<Row> = exact_pairs(batches, &spec)
                .into_iter()
                .map(|(r, _)| r)
                .collect();
            let expect: Vec<Row> = all
                .iter()
                .filter(|(r, _)| route(r.cols()) == p)
                .map(|(r, _)| r.clone())
                .collect();
            assert_eq!(rows, expect, "partition {p}");
        }
    }

    /// The mask is only a cheaper reduction: for every part count up to
    /// 16, over random rows, the partition equals the `% n` formula.
    #[test]
    fn by_cols_hash_keeps_every_partition() {
        let formula = |cols: &[usize], r: &[Value], n: usize| {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for &c in cols {
                h ^= r[c];
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            ((h.wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 32) as usize % n
        };
        let mut rng = StdRng::seed_from_u64(40);
        for n in 1..=16 {
            for cols in [vec![0], vec![1, 0], vec![0, 1, 2]] {
                let mut route = by_cols_hash(cols.clone(), n);
                for _ in 0..2000 {
                    let r: Vec<Value> = (0..3).map(|_| rng.gen()).collect();
                    assert_eq!(route(&r), formula(&cols, &r, n), "n={n} cols={cols:?}");
                }
            }
        }
    }

    #[test]
    fn empty_input_split() {
        let input = Run::from_sorted_rows(vec![], 1);
        let parts = split(input, 2, |_: &[Value]| 0);
        assert!(parts.iter().all(Vec::is_empty), "nothing is sent");
    }
}
