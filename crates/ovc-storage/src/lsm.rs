//! Log-structured merge-forest (Sections 1, 2, 4.11).
//!
//! The paper's motivating deployment: "offset-value coding … already saves
//! thousands of CPUs in Google's Napa and F1 Query systems, e.g., in
//! grouping algorithms and in log-structured merge-forests", where
//! "ingestion (run generation), compaction (merging), and query processing
//! … rely heavily on sorting and merging" (Section 7).
//!
//! This forest follows the stepped-merge design [Jagadish et al. 1997]:
//! each level holds up to `fanout` sorted runs; when a level fills, all its
//! runs merge into a single run of the next level.  Every piece of sorted
//! data carries offset-value codes:
//!
//! * **ingest** sorts a batch with the OVC priority queue — codes are a
//!   by-product;
//! * **compaction** merges runs with the sort's one tree-of-losers,
//!   [`FlatMerge`] — codes in, codes out, column comparisons bounded by
//!   `N × K`;
//! * **scan** is the same merge over every run, delivering one coded
//!   stream to query processing ("merge of such scans benefits from
//!   offset-value codes", Section 4.11).

use std::sync::Arc;

use ovc_core::{Row, SortSpec, Stats};
use ovc_sort::{merge_runs_spec, merge_runs_to_run_spec, sort_rows_ovc, FlatMerge, Run};

/// Forest shape parameters.
#[derive(Clone, Copy, Debug)]
pub struct LsmConfig {
    /// Maximum runs per level before compaction into the next level.
    pub fanout: usize,
}

impl Default for LsmConfig {
    fn default() -> Self {
        LsmConfig { fanout: 4 }
    }
}

/// A log-structured merge-forest of coded sorted runs.
pub struct LsmForest {
    key_len: usize,
    config: LsmConfig,
    /// `levels[0]` holds the newest (smallest) runs.
    levels: Vec<Vec<Run>>,
    stats: Arc<Stats>,
    total_rows: usize,
}

impl LsmForest {
    /// An empty forest.
    pub fn new(key_len: usize, config: LsmConfig, stats: Arc<Stats>) -> Self {
        assert!(config.fanout >= 2);
        LsmForest {
            key_len,
            config,
            levels: vec![Vec::new()],
            stats,
            total_rows: 0,
        }
    }

    /// Sort-key arity.
    pub fn key_len(&self) -> usize {
        self.key_len
    }

    /// Total ingested rows currently in the forest.
    pub fn len(&self) -> usize {
        self.total_rows
    }

    /// Is the forest empty?
    pub fn is_empty(&self) -> bool {
        self.total_rows == 0
    }

    /// Number of levels currently materialized.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Total number of sorted runs across all levels.
    pub fn run_count(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    /// Ingest one unsorted batch: run generation via the OVC priority
    /// queue, then cascading compaction.
    pub fn ingest(&mut self, batch: Vec<Row>) {
        if batch.is_empty() {
            return;
        }
        self.total_rows += batch.len();
        let run = sort_rows_ovc(batch, self.key_len, &self.stats);
        // Ingestion writes the run (spill accounting mirrors Napa's
        // "ingestion (run generation)" I/O).
        self.stats.count_spill(run.len() as u64, run.spill_bytes());
        self.levels[0].push(run);
        self.compact_from(0);
    }

    /// Cascade compaction: when a level exceeds the fanout, merge all its
    /// runs into one run of the next level.
    fn compact_from(&mut self, mut level: usize) {
        while self.levels[level].len() > self.config.fanout {
            let runs = std::mem::take(&mut self.levels[level]);
            let merged = self.merge(runs);
            if level + 1 == self.levels.len() {
                self.levels.push(Vec::new());
            }
            self.levels[level + 1].push(merged);
            level += 1;
        }
    }

    /// Merge `runs` into one, charging the compaction's I/O: every input
    /// row is read back and every output row written.
    fn merge(&self, runs: Vec<Run>) -> Run {
        let read_rows: u64 = runs.iter().map(|r| r.len() as u64).sum();
        let read_bytes: u64 = runs.iter().map(Run::spill_bytes).sum();
        self.stats.count_read_back(read_rows, read_bytes);
        let merged = merge_runs_to_run_spec(runs, &SortSpec::asc(self.key_len), &self.stats);
        self.stats
            .count_spill(merged.len() as u64, merged.spill_bytes());
        merged
    }

    /// Force-merge the whole forest into a single run (major compaction),
    /// charged like any other compaction.
    pub fn major_compact(&mut self) {
        let runs: Vec<Run> = self.levels.iter_mut().flat_map(std::mem::take).collect();
        if runs.is_empty() {
            return;
        }
        let merged = self.merge(runs);
        self.levels = vec![Vec::new(), vec![merged]];
    }

    /// Ordered scan over the whole forest: one tree-of-losers merge of
    /// every run, producing one coded stream.
    pub fn scan(&self) -> FlatMerge {
        let runs: Vec<Run> = self.levels.iter().flatten().cloned().collect();
        merge_runs_spec(runs, &SortSpec::asc(self.key_len), &self.stats)
    }

    /// Point lookup: all rows matching the full key, newest level first
    /// within result order (sorted overall).
    pub fn lookup(&self, key: &[u64]) -> Vec<Row> {
        assert_eq!(key.len(), self.key_len);
        let mut out: Vec<Row> = Vec::new();
        for run in self.levels.iter().flatten() {
            // Binary search directly over the run's flat storage.
            let (mut lo, mut hi) = (0usize, run.len());
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                self.stats.count_row_cmp();
                if &run.row(mid)[..self.key_len] < key {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            for i in lo..run.len() {
                if &run.row(i)[..self.key_len] != key {
                    break;
                }
                out.push(Row::from_slice(run.row(i)));
            }
        }
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovc_core::derive::assert_codes_exact;
    use ovc_core::Ovc;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn batch(n: usize, rng: &mut StdRng) -> Vec<Row> {
        (0..n)
            .map(|_| {
                Row::new(vec![
                    rng.gen_range(0..50u64),
                    rng.gen_range(0..50u64),
                    rng.gen::<u64>() % 1000, // payload
                ])
            })
            .collect()
    }

    #[test]
    fn ingest_scan_round_trip() {
        let mut rng = StdRng::seed_from_u64(1);
        let stats = Stats::new_shared();
        let mut forest = LsmForest::new(2, LsmConfig::default(), Arc::clone(&stats));
        let mut all: Vec<Row> = Vec::new();
        for _ in 0..10 {
            let b = batch(100, &mut rng);
            all.extend(b.iter().cloned());
            forest.ingest(b);
        }
        assert_eq!(forest.len(), 1000);
        let pairs: Vec<(Row, Ovc)> = forest.scan().map(|r| (r.row, r.code)).collect();
        assert_eq!(pairs.len(), 1000);
        assert_codes_exact(&pairs, 2);
        let mut got: Vec<Row> = pairs.into_iter().map(|(r, _)| r).collect();
        let mut expect = all;
        got.sort();
        expect.sort();
        assert_eq!(got, expect);
    }

    #[test]
    fn compaction_bounds_run_count() {
        let mut rng = StdRng::seed_from_u64(2);
        let stats = Stats::new_shared();
        let cfg = LsmConfig { fanout: 3 };
        let mut forest = LsmForest::new(2, cfg, Arc::clone(&stats));
        for _ in 0..40 {
            forest.ingest(batch(20, &mut rng));
        }
        // Every level holds at most `fanout` runs after ingest returns.
        for level in &forest.levels {
            assert!(level.len() <= 3);
        }
        assert!(forest.depth() >= 2, "compaction created deeper levels");
    }

    #[test]
    fn major_compact_leaves_single_run() {
        let mut rng = StdRng::seed_from_u64(3);
        let stats = Stats::new_shared();
        let mut forest = LsmForest::new(2, LsmConfig::default(), Arc::clone(&stats));
        for _ in 0..7 {
            forest.ingest(batch(30, &mut rng));
        }
        forest.major_compact();
        assert_eq!(forest.run_count(), 1);
        let pairs: Vec<(Row, Ovc)> = forest.scan().map(|r| (r.row, r.code)).collect();
        assert_eq!(pairs.len(), 210);
        assert_codes_exact(&pairs, 2);
    }

    /// Major compaction reads every row back and writes it once, exactly
    /// as a cascading compaction of the same runs is charged.
    #[test]
    fn major_compact_charges_one_read_back_and_one_spill_per_row() {
        let mut rng = StdRng::seed_from_u64(5);
        let stats = Stats::new_shared();
        let mut forest = LsmForest::new(2, LsmConfig { fanout: 3 }, Arc::clone(&stats));
        for _ in 0..9 {
            forest.ingest(batch(40, &mut rng));
        }
        assert!(forest.run_count() > 1);
        let before = stats.snapshot();
        forest.major_compact();
        let delta = stats.snapshot().since(&before);
        assert_eq!(delta.rows_read_back, forest.len() as u64);
        assert_eq!(delta.rows_spilled, forest.len() as u64);
        assert_eq!(forest.run_count(), 1);
    }

    #[test]
    fn lookup_finds_all_versions() {
        let stats = Stats::new_shared();
        let mut forest = LsmForest::new(1, LsmConfig { fanout: 2 }, Arc::clone(&stats));
        forest.ingest(vec![Row::new(vec![5, 100]), Row::new(vec![6, 101])]);
        forest.ingest(vec![Row::new(vec![5, 200])]);
        forest.ingest(vec![Row::new(vec![7, 300]), Row::new(vec![5, 300])]);
        let got = forest.lookup(&[5]);
        assert_eq!(got.len(), 3);
        assert!(forest.lookup(&[99]).is_empty());
    }

    #[test]
    fn empty_forest() {
        let stats = Stats::new_shared();
        let forest = LsmForest::new(2, LsmConfig::default(), stats);
        assert!(forest.is_empty());
        assert_eq!(forest.scan().count(), 0);
    }

    #[test]
    fn empty_batch_is_noop() {
        let stats = Stats::new_shared();
        let mut forest = LsmForest::new(2, LsmConfig::default(), stats);
        forest.ingest(vec![]);
        assert!(forest.is_empty());
    }

    #[test]
    fn compaction_comparisons_bounded() {
        // Compaction effort: merging N rows with K columns costs at most
        // N*K column comparisons per merge level.
        let mut rng = StdRng::seed_from_u64(4);
        let stats = Stats::new_shared();
        let mut forest = LsmForest::new(2, LsmConfig { fanout: 4 }, Arc::clone(&stats));
        let mut n = 0u64;
        for _ in 0..16 {
            let b = batch(50, &mut rng);
            n += b.len() as u64;
            forest.ingest(b);
        }
        // Levels created: rows pass through at most depth() merge levels
        // plus run generation.  Generous bound: (depth + 1) * N * K.
        let bound = (forest.depth() as u64 + 1) * n * 2;
        assert!(
            stats.col_value_cmps() <= bound,
            "col cmps {} exceed bound {}",
            stats.col_value_cmps(),
            bound
        );
    }
}
