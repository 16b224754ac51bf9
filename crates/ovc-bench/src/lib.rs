//! # ovc-bench — workloads and harness support for the paper's evaluation
//!
//! Section 6 of the paper: "Test data are synthetic yet similar to the
//! actual data in our daily production web analysis with many rows and
//! many key columns.  Each key column is an 8-byte integer with only a
//! few distinct values."  The [`workload`] module generates exactly that
//! data shape, parameterized the way the figures sweep it; [`snapshot`]
//! gives the `figures` binary a machine-readable output channel
//! (`BENCH_figures.json`, schema-validated in CI).
//!
//! Gated wall-clock measurement is the harness's in `bench/`.  What this
//! crate adds is the paper's tables and figures (`cargo run --release
//! -p ovc-bench --bin figures`) and the counted ablation, pinned byte
//! for byte by `tests/ablation_counters.rs` against
//! `testdata/ablation_counters.txt`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod snapshot;
pub mod workload;

use ovc_core::BatchStream;

/// Drain a batch stream, counting its rows.  Panics with the error's
/// message if the stream fails.
pub fn count_rows(mut stream: impl BatchStream) -> usize {
    std::iter::from_fn(|| stream.next_batch().unwrap_or_else(|err| panic!("{err}")))
        .map(|b| b.len())
        .sum()
}
