//! Grace-style spilling hash join — the join operator of Figure 5's
//! hash-based plan.
//!
//! If the build input exceeds memory, both inputs partition by join-key
//! hash to temporary storage and the join proceeds partition by partition
//! (recursively if needed).  Combined with the spilling hash aggregation
//! upstream, "many rows are spilled twice" in the hash-based plan —
//! the Figure 6 contrast with the sort-based plan's single spill.

use std::collections::HashMap;
use std::sync::Arc;

use ovc_core::{Row, Stats, Value};

/// Multiplicative hash of a join key with a per-recursion-level seed,
/// finished with MurmurHash3's `fmix64`: without it the low bits of the
/// hash are the low bits of the key, so a partition cut by an even
/// `parts` would never split again at the next level.
fn key_hash(key: &[Value], level: u64) -> u64 {
    let mut h = 0x84222325_cbf29ce4u64 ^ level.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for &c in key {
        h ^= c;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

use crate::hash_agg::{decode_rows, encode_rows};

/// Re-partitioning levels before a partition whose build side still
/// overflows memory is joined by block nested loops instead: it holds
/// more rows of one join key than `memory_rows`, which no hash splits.
const MAX_LEVEL: u64 = 8;

/// Inner hash join on the first `join_len` columns with a `memory_rows`
/// build-side budget.  Output rows are `left ++ right past the join key`,
/// in arbitrary (hash) order.
pub fn grace_hash_join(
    left: Vec<Row>,
    right: Vec<Row>,
    join_len: usize,
    memory_rows: usize,
    stats: &Arc<Stats>,
) -> Vec<Row> {
    assert!(memory_rows > 0);
    join_recursive(left, right, join_len, memory_rows, 0, stats)
}

fn join_recursive(
    left: Vec<Row>,
    right: Vec<Row>,
    join_len: usize,
    memory_rows: usize,
    level: u64,
    stats: &Arc<Stats>,
) -> Vec<Row> {
    // Build on the smaller input, probe with the larger.
    let (build, probe, build_is_left) = if left.len() <= right.len() {
        (left, right, true)
    } else {
        (right, left, false)
    };
    if build.len() <= memory_rows {
        return join_in_memory(&build, &probe, build_is_left, join_len, stats);
    }
    if level >= MAX_LEVEL {
        return join_blocks(&build, &probe, build_is_left, join_len, memory_rows, stats);
    }
    // Overflow: partition both inputs to temporary storage.
    let parts = build.len().div_ceil(memory_rows).max(2);
    let mut bp: Vec<Vec<Row>> = vec![Vec::new(); parts];
    let mut pp: Vec<Vec<Row>> = vec![Vec::new(); parts];
    for row in build {
        let h = (key_hash(&row.cols()[..join_len], level) % parts as u64) as usize;
        bp[h].push(row);
    }
    for row in probe {
        let h = (key_hash(&row.cols()[..join_len], level) % parts as u64) as usize;
        pp[h].push(row);
    }
    let mut out = Vec::new();
    for (b, p) in bp.into_iter().zip(pp) {
        // Byte-image spill, symmetric with the sort plan's run encoding.
        let rows = (b.len() + p.len()) as u64;
        let (bb, pb) = (encode_rows(&b), encode_rows(&p));
        let bytes = (bb.len() + pb.len()) as u64;
        stats.count_spill(rows, bytes);
        drop((b, p));
        let (b, p) = (decode_rows(&bb), decode_rows(&pb));
        stats.count_read_back(rows, bytes);
        let (l, r) = if build_is_left { (b, p) } else { (p, b) };
        out.extend(join_recursive(
            l,
            r,
            join_len,
            memory_rows,
            level + 1,
            stats,
        ));
    }
    out
}

/// Join a build side that fits in memory: hash it, then probe.
fn join_in_memory(
    build: &[Row],
    probe: &[Row],
    build_is_left: bool,
    join_len: usize,
    stats: &Stats,
) -> Vec<Row> {
    let mut table: HashMap<&[Value], Vec<&Row>> = HashMap::with_capacity(build.len());
    for row in build {
        stats.count_col_cmps(join_len as u64); // hash-function accesses
        table.entry(&row.cols()[..join_len]).or_default().push(row);
    }
    let mut out = Vec::new();
    for p in probe {
        stats.count_col_cmps(join_len as u64); // hash-function accesses
        if let Some(matches) = table.get(&p.cols()[..join_len]) {
            for &b in matches {
                let (l, r) = if build_is_left { (b, p) } else { (p, b) };
                let mut cols = l.cols().to_vec();
                cols.extend_from_slice(&r.cols()[join_len..]);
                out.push(Row::new(cols));
            }
        }
    }
    out
}

/// Block nested loops over a partition whose build side no re-partitioning
/// brings under `memory_rows`: join `memory_rows` build rows at a time
/// against the whole probe side.  Each block after the first reads the
/// probe partition back once more, and is charged for it.
fn join_blocks(
    build: &[Row],
    probe: &[Row],
    build_is_left: bool,
    join_len: usize,
    memory_rows: usize,
    stats: &Stats,
) -> Vec<Row> {
    let probe_bytes = encode_rows(probe).len() as u64;
    let mut out = Vec::new();
    for (i, block) in build.chunks(memory_rows).enumerate() {
        if i > 0 {
            stats.count_read_back(probe.len() as u64, probe_bytes);
        }
        out.extend(join_in_memory(block, probe, build_is_left, join_len, stats));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    fn reference_inner(l: &[Row], r: &[Row], j: usize) -> Vec<Vec<u64>> {
        let mut rmap: BTreeMap<Vec<u64>, Vec<&Row>> = BTreeMap::new();
        for row in r {
            rmap.entry(row.cols()[..j].to_vec()).or_default().push(row);
        }
        let mut out = Vec::new();
        for lrow in l {
            if let Some(ms) = rmap.get(&lrow.cols()[..j]) {
                for m in ms {
                    let mut c = lrow.cols().to_vec();
                    c.extend_from_slice(&m.cols()[j..]);
                    out.push(c);
                }
            }
        }
        out.sort();
        out
    }

    #[test]
    fn matches_reference_in_memory() {
        let mut rng = StdRng::seed_from_u64(4);
        let l: Vec<Row> = (0..80)
            .map(|_| Row::new(vec![rng.gen_range(0..10u64), rng.gen()]))
            .collect();
        let r: Vec<Row> = (0..80)
            .map(|_| Row::new(vec![rng.gen_range(0..10u64), rng.gen()]))
            .collect();
        let stats = Stats::new_shared();
        let mut got: Vec<Vec<u64>> = grace_hash_join(l.clone(), r.clone(), 1, 1000, &stats)
            .into_iter()
            .map(|x| x.cols().to_vec())
            .collect();
        got.sort();
        assert_eq!(got, reference_inner(&l, &r, 1));
        assert_eq!(stats.rows_spilled(), 0);
    }

    #[test]
    fn matches_reference_with_spilling() {
        let mut rng = StdRng::seed_from_u64(5);
        let l: Vec<Row> = (0..1500)
            .map(|_| Row::new(vec![rng.gen_range(0..200u64), rng.gen_range(0..4u64)]))
            .collect();
        let r: Vec<Row> = (0..1500)
            .map(|_| Row::new(vec![rng.gen_range(0..200u64), rng.gen_range(0..4u64)]))
            .collect();
        let stats = Stats::new_shared();
        let mut got: Vec<Vec<u64>> = grace_hash_join(l.clone(), r.clone(), 1, 100, &stats)
            .into_iter()
            .map(|x| x.cols().to_vec())
            .collect();
        got.sort();
        assert_eq!(got, reference_inner(&l, &r, 1));
        assert!(
            stats.rows_spilled() >= 3000,
            "both inputs spill when the build side overflows"
        );
    }

    #[test]
    fn keys_sharing_their_low_bits_still_split() {
        // Even keys, two partitions per level: an unmixed multiplicative
        // hash sends every key to one partition at every level.
        let l: Vec<Row> = (0..100u64).map(|k| Row::new(vec![2 * k])).collect();
        let r: Vec<Row> = (0..300u64).map(|k| Row::new(vec![k])).collect();
        let stats = Stats::new_shared();
        let mut got: Vec<Vec<u64>> = grace_hash_join(l.clone(), r.clone(), 1, 60, &stats)
            .into_iter()
            .map(|x| x.cols().to_vec())
            .collect();
        got.sort();
        assert_eq!(got, reference_inner(&l, &r, 1));
    }

    /// Regression: a build side holding more rows of one join key than
    /// `memory_rows` used to exhaust the re-partitioning levels and panic
    /// ("hash recursion too deep").  It now finishes by block nested
    /// loops, charging each extra pass over the probe partition as a
    /// read-back, and returns the reference multiset.
    #[test]
    fn one_hot_key_beyond_memory_joins_by_blocks() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut side = |n: usize| -> Vec<Row> {
            (0..n)
                .map(|i| {
                    let key = if i % 3 == 0 {
                        rng.gen_range(0..50u64)
                    } else {
                        7
                    };
                    Row::new(vec![key, rng.gen_range(0..1000u64)])
                })
                .collect()
        };
        let (l, r) = (side(300), side(360));
        let stats = Stats::new_shared();
        let mut got: Vec<Vec<u64>> = grace_hash_join(l.clone(), r.clone(), 1, 40, &stats)
            .into_iter()
            .map(|x| x.cols().to_vec())
            .collect();
        got.sort();
        assert_eq!(got, reference_inner(&l, &r, 1));
        assert!(
            stats.rows_read_back() > stats.rows_spilled(),
            "the blocks re-read the probe partition"
        );
    }

    #[test]
    fn empty_sides() {
        let stats = Stats::new_shared();
        assert!(grace_hash_join(vec![], vec![Row::new(vec![1])], 1, 10, &stats).is_empty());
        assert!(grace_hash_join(vec![Row::new(vec![1])], vec![], 1, 10, &stats).is_empty());
    }
}
