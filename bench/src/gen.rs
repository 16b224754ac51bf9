//! Seeded input generation: a splitmix64 stream and the tables each
//! workload runs on.  Self-contained on purpose — the benchmark must
//! not drift when `vendor/rand` or `ovc_bench::workload` change, and a
//! unit test pins a checksum of every table for seed 1.

/// The splitmix64 generator (Steele, Lea & Flood): one 64-bit state
/// word, full period, good enough for workload data.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-40 for
    /// the domains used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// FNV-1a over 64-bit words: the harness's one hash, used for table
/// checksums and result digests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Fnv {
    pub const fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    #[inline]
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// A generated table: `width` columns per row, values row-major.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RawTable {
    pub width: usize,
    pub values: Vec<u64>,
}

impl RawTable {
    pub fn rows(&self) -> usize {
        self.values.len() / self.width
    }

    pub fn iter(&self) -> impl Iterator<Item = &[u64]> {
        self.values.chunks_exact(self.width)
    }

    #[cfg(test)]
    pub fn checksum(&self) -> u64 {
        let mut h = Fnv::new();
        h.word(self.width as u64);
        for &v in &self.values {
            h.word(v);
        }
        h.0
    }
}

/// `rows` rows whose column `i` is uniform in `0..domains[i]`; a domain
/// of 0 stores the row index instead (a unique payload).
fn uniform_table(rng: &mut SplitMix64, rows: usize, domains: &[u64]) -> RawTable {
    let mut values = Vec::with_capacity(rows * domains.len());
    for i in 0..rows {
        for &d in domains {
            values.push(if d == 0 { i as u64 } else { rng.below(d) });
        }
    }
    RawTable {
        width: domains.len(),
        values,
    }
}

/// Table sizes: the real ones, or the `--smoke` ones (same shapes, a
/// hundredth of the rows).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    fn rows(self, full: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Smoke => full / 100,
        }
    }
}

/// `sort_spill`: 4 key columns of 8 distinct values each (the paper's
/// section 6 shape) and one unique payload column.
pub const SORT_SPILL_ROWS: usize = 400_000;
pub const SORT_SPILL_KEY_COLS: usize = 4;
/// Rows per initial run: a sixteenth of the input, so 16 runs spill.
pub const SORT_SPILL_RUNS: usize = 16;

pub fn sort_spill_input(seed: u64, scale: Scale) -> RawTable {
    let mut rng = SplitMix64::new(seed ^ 0x5051);
    uniform_table(&mut rng, scale.rows(SORT_SPILL_ROWS), &[8, 8, 8, 8, 0])
}

/// `pipeline_sorted`: a fact table and a dimension table that holds
/// every `(c0, c1)` combination exactly once, so the inner join keeps
/// each surviving fact row.
pub const PIPELINE_FACT_ROWS: usize = 300_000;
pub const PIPELINE_KEY_DOMAIN: u64 = 40;
/// `c2 < PIPELINE_FILTER_BELOW` keeps about 30% of the fact rows.
pub const PIPELINE_FILTER_BELOW: u64 = 30;

pub fn pipeline_tables(seed: u64, scale: Scale) -> (RawTable, RawTable) {
    let mut rng = SplitMix64::new(seed ^ 0x9192);
    let d = PIPELINE_KEY_DOMAIN;
    let fact = uniform_table(&mut rng, scale.rows(PIPELINE_FACT_ROWS), &[d, d, 100, 1000]);
    let mut dim = Vec::with_capacity((d * d * 3) as usize);
    for a in 0..d {
        for b in 0..d {
            dim.extend([a, b, rng.below(1000)]);
        }
    }
    (
        fact,
        RawTable {
            width: 3,
            values: dim,
        },
    )
}

/// `exchange_dop2`: two single-column tables.
pub const EXCHANGE_ROWS_PER_TABLE: usize = 100_000;

pub fn exchange_tables(seed: u64, scale: Scale) -> (RawTable, RawTable) {
    let mut rng = SplitMix64::new(seed ^ 0xE0E1);
    let rows = scale.rows(EXCHANGE_ROWS_PER_TABLE);
    let left = uniform_table(&mut rng, rows, &[1_000_000]);
    let right = uniform_table(&mut rng, rows, &[1_000_000]);
    (left, right)
}

/// `served_small`: 16 groups over 5 000 rows.
pub const SERVED_SMALL_ROWS: usize = 5_000;

pub fn served_small_table(seed: u64, scale: Scale) -> RawTable {
    let mut rng = SplitMix64::new(seed ^ 0x5A11);
    uniform_table(&mut rng, scale.rows(SERVED_SMALL_ROWS), &[16, 1000, 1000])
}

/// `served_stream`: `c0 < SERVED_STREAM_FILTER_BELOW` keeps half.
pub const SERVED_STREAM_ROWS: usize = 100_000;
pub const SERVED_STREAM_FILTER_BELOW: u64 = 20;

pub fn served_stream_table(seed: u64, scale: Scale) -> RawTable {
    let mut rng = SplitMix64::new(seed ^ 0x57E4);
    uniform_table(
        &mut rng,
        scale.rows(SERVED_STREAM_ROWS),
        &[40, 1000, 1000, 1000],
    )
}

/// `served_sort_group`: 64 groups over 200 000 unsorted rows.
pub const SERVED_SORT_GROUP_ROWS: usize = 200_000;

pub fn served_sort_group_table(seed: u64, scale: Scale) -> RawTable {
    let mut rng = SplitMix64::new(seed ^ 0x5064);
    uniform_table(
        &mut rng,
        scale.rows(SERVED_SORT_GROUP_ROWS),
        &[64, 1000, 1_000_000],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_the_reference_stream() {
        // First outputs of the published splitmix64 for seed 0.
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(rng.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = SplitMix64::new(7);
        for n in [1u64, 2, 8, 1000] {
            for _ in 0..1000 {
                assert!(rng.below(n) < n);
            }
        }
    }

    /// The workloads cannot drift: seed 1 always generates these tables.
    #[test]
    fn seed_1_tables_are_pinned() {
        let s = Scale::Full;
        let (fact, dim) = pipeline_tables(1, s);
        let (left, right) = exchange_tables(1, s);
        let got = [
            ("sort_spill", sort_spill_input(1, s).checksum()),
            ("pipeline_fact", fact.checksum()),
            ("pipeline_dim", dim.checksum()),
            ("exchange_left", left.checksum()),
            ("exchange_right", right.checksum()),
            ("served_small", served_small_table(1, s).checksum()),
            ("served_stream", served_stream_table(1, s).checksum()),
            (
                "served_sort_group",
                served_sort_group_table(1, s).checksum(),
            ),
        ];
        assert_eq!(got, PINNED);
    }

    const PINNED: [(&str, u64); 8] = [
        ("sort_spill", 0xF0AABFB769C40978),
        ("pipeline_fact", 0x3F8B191C7CCF98B2),
        ("pipeline_dim", 0x9D3C76F69419D707),
        ("exchange_left", 0xA0B82AA205E0F3F8),
        ("exchange_right", 0xD6A69B42D95C85FC),
        ("served_small", 0xA38D4AB67B6D6354),
        ("served_stream", 0x01FF966B17B0FCD6),
        ("served_sort_group", 0xB8F2ADE8E603841E),
    ];

    #[test]
    fn smoke_tables_are_a_hundredth() {
        assert_eq!(sort_spill_input(1, Scale::Smoke).rows(), 4_000);
        assert_eq!(served_small_table(1, Scale::Smoke).rows(), 50);
        assert_eq!(sort_spill_input(1, Scale::Full).width, 5);
    }

    #[test]
    fn dimension_table_covers_every_key_pair_once() {
        let (_, dim) = pipeline_tables(3, Scale::Smoke);
        assert_eq!(dim.rows() as u64, PIPELINE_KEY_DOMAIN * PIPELINE_KEY_DOMAIN);
        let mut keys: Vec<(u64, u64)> = dim.iter().map(|r| (r[0], r[1])).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), dim.rows());
    }
}
