//! Spill devices: encoding-faithful [`RunStorage`] implementations.
//!
//! Both devices store the one spill format of [`crate::encode`]: a
//! prefix-truncated run image in a length + CRC32 frame.
//! [`EncodedRunStorage`] keeps the images in memory and accounts *actual
//! encoded bytes*, frame included — the honest substitute for the paper's
//! temporary files (DESIGN.md §3.6): spill behaviour depends on row counts
//! and byte volumes, not on the device.  [`FileRunStorage`] writes the
//! same images through `std::fs` for runs that should genuinely leave
//! memory.  A damaged image reads back as a typed
//! [`ExecError::SpillCorruption`] from either device.

use std::path::PathBuf;
use std::sync::Arc;

use ovc_core::fault::{self, FaultPoint};
use ovc_core::{ExecError, Stats};
use ovc_sort::{Run, RunStorage};

use crate::encode::{decode_run, encode_run};

/// In-memory spill device storing encoded run images.
pub struct EncodedRunStorage {
    blobs: Vec<Option<(Vec<u8>, u64)>>, // (bytes, row count)
    stats: Arc<Stats>,
}

impl EncodedRunStorage {
    /// New device accounting into `stats`.
    pub fn new(stats: Arc<Stats>) -> Self {
        EncodedRunStorage {
            blobs: Vec::new(),
            stats,
        }
    }

    /// Total encoded bytes currently held.
    pub fn resident_bytes(&self) -> usize {
        self.blobs.iter().flatten().map(|(b, _)| b.len()).sum()
    }
}

impl RunStorage for EncodedRunStorage {
    fn write_run(&mut self, run: Run) -> Result<usize, ExecError> {
        fault::maybe_spill_io(FaultPoint::SpillWrite)?;
        let rows = run.len() as u64;
        let bytes = encode_run(&run);
        self.stats.count_spill(rows, bytes.len() as u64);
        self.blobs.push(Some((bytes, rows)));
        Ok(self.blobs.len() - 1)
    }

    fn read_run(&mut self, handle: usize) -> Result<Run, ExecError> {
        fault::maybe_spill_io(FaultPoint::SpillRead)?;
        let (bytes, rows) = self.blobs[handle].take().expect("run already consumed");
        self.stats.count_read_back(rows, bytes.len() as u64);
        decode_run(&bytes)
    }

    fn stored_runs(&self) -> usize {
        self.blobs.iter().filter(|b| b.is_some()).count()
    }
}

/// File-backed spill device: each run is one file in a scratch directory,
/// deleted when the device drops.
pub struct FileRunStorage {
    dir: PathBuf,
    files: Vec<Option<(PathBuf, u64, u64)>>, // (path, rows, bytes)
    stats: Arc<Stats>,
    next_id: u64,
}

impl FileRunStorage {
    /// The same device as [`FileRunStorage::new`]: there is one spill
    /// format.  The name is kept because the `bench/` harness calls it.
    pub fn new_raw(stats: Arc<Stats>) -> std::io::Result<Self> {
        Self::new(stats)
    }

    /// Create a scratch directory under the system temp dir.
    pub fn new(stats: Arc<Stats>) -> std::io::Result<Self> {
        let dir = std::env::temp_dir().join(format!(
            "ovc-spill-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos())
                .unwrap_or(0)
        ));
        std::fs::create_dir_all(&dir)?;
        Ok(FileRunStorage {
            dir,
            files: Vec::new(),
            stats,
            next_id: 0,
        })
    }

    /// The scratch directory path.
    pub fn dir(&self) -> &PathBuf {
        &self.dir
    }
}

impl RunStorage for FileRunStorage {
    fn write_run(&mut self, run: Run) -> Result<usize, ExecError> {
        fault::maybe_spill_io(FaultPoint::SpillWrite)?;
        let rows = run.len() as u64;
        let mut bytes = encode_run(&run);
        // An injected flip must surface as a typed decode error on
        // read-back; the frame's checksum guarantees it does.
        fault::maybe_corrupt(&mut bytes);
        let path = self.dir.join(format!("run-{}.ovc", self.next_id));
        self.next_id += 1;
        std::fs::write(&path, &bytes).map_err(|e| ExecError::SpillIo {
            detail: format!("writing {}: {e}", path.display()),
        })?;
        self.stats.count_spill(rows, bytes.len() as u64);
        self.files.push(Some((path, rows, bytes.len() as u64)));
        Ok(self.files.len() - 1)
    }

    fn read_run(&mut self, handle: usize) -> Result<Run, ExecError> {
        fault::maybe_spill_io(FaultPoint::SpillRead)?;
        let (path, rows, bytes) = self.files[handle].take().expect("run already consumed");
        let data = std::fs::read(&path).map_err(|e| ExecError::SpillIo {
            detail: format!("reading {}: {e}", path.display()),
        })?;
        let _ = std::fs::remove_file(&path);
        self.stats.count_read_back(rows, bytes);
        decode_run(&data)
    }

    fn stored_runs(&self) -> usize {
        self.files.iter().filter(|f| f.is_some()).count()
    }
}

impl Drop for FileRunStorage {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovc_core::{Direction, Row, SortSpec};
    use ovc_sort::{external_sort, try_external_sort_spec, MemoryRunStorage, SortConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_rows(n: usize, seed: u64) -> Vec<Row> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Row::new(vec![rng.gen_range(0..8u64), rng.gen_range(0..8u64)]))
            .collect()
    }

    /// The single file a device holding one run has written.
    fn only_spill_file(storage: &FileRunStorage) -> PathBuf {
        std::fs::read_dir(storage.dir())
            .expect("scratch dir")
            .next()
            .expect("one spill file")
            .expect("dir entry")
            .path()
    }

    #[test]
    fn encoded_storage_round_trip() {
        let stats = Stats::new_shared();
        let mut storage = EncodedRunStorage::new(Arc::clone(&stats));
        let run = Run::from_sorted_rows(ovc_core::table1::rows(), 4);
        let h = storage.write_run(run.clone()).expect("write");
        assert_eq!(storage.stored_runs(), 1);
        assert!(storage.resident_bytes() > 0);
        let back = storage.read_run(h).expect("read");
        assert_eq!(back.flat(), run.flat());
        assert_eq!(storage.stored_runs(), 0);
        assert_eq!(stats.rows_spilled(), 7);
        assert_eq!(stats.rows_read_back(), 7);
        assert_eq!(stats.bytes_spilled(), stats.bytes_read_back());
    }

    #[test]
    fn external_sort_through_encoded_storage() {
        let rows = random_rows(600, 9);
        let stats = Stats::new_shared();
        let mut storage = EncodedRunStorage::new(Arc::clone(&stats));
        let out: Vec<_> =
            external_sort(rows, SortConfig::new(2, 64), &mut storage, &stats).collect();
        assert_eq!(out.len(), 600);
        let pairs: Vec<_> = out.into_iter().map(|r| (r.row, r.code)).collect();
        ovc_core::derive::assert_codes_exact(&pairs, 2);
        assert_eq!(stats.rows_spilled(), 600, "one spill pass");
    }

    #[test]
    fn file_storage_round_trip() {
        let stats = Stats::new_shared();
        let mut storage = FileRunStorage::new(Arc::clone(&stats)).expect("tempdir");
        let dir = storage.dir().clone();
        assert!(dir.exists());
        let mut rows = random_rows(100, 3);
        rows.sort();
        let run = Run::from_sorted_rows(rows, 2);
        let h = storage.write_run(run.clone()).expect("write");
        let back = storage.read_run(h).expect("read");
        assert_eq!(back.flat(), run.flat());
        drop(storage);
        assert!(!dir.exists(), "scratch dir removed on drop");
    }

    #[test]
    fn new_raw_is_the_one_framed_format() {
        let mut rows = random_rows(200, 21);
        rows.sort();
        let run = Run::from_sorted_rows(rows, 2);

        let s_new = Stats::new_shared();
        let mut new = FileRunStorage::new(Arc::clone(&s_new)).expect("tempdir");
        let h = new.write_run(run.clone()).expect("write");
        let new_bytes = std::fs::read(only_spill_file(&new)).expect("spill file");
        assert_eq!(new.read_run(h).expect("read").flat(), run.flat());

        let s_raw = Stats::new_shared();
        let mut raw = FileRunStorage::new_raw(Arc::clone(&s_raw)).expect("tempdir");
        let h = raw.write_run(run.clone()).expect("write");
        let raw_bytes = std::fs::read(only_spill_file(&raw)).expect("spill file");
        assert_eq!(raw.read_run(h).expect("read").flat(), run.flat());

        // Byte for byte the same file, accounted as the encoded image.
        assert_eq!(raw_bytes, new_bytes);
        assert_eq!(raw_bytes, encode_run(&run));
        assert_eq!(s_raw.bytes_spilled(), s_new.bytes_spilled());
        assert_eq!(s_new.bytes_spilled(), new_bytes.len() as u64);
        assert!(
            s_new.bytes_spilled() < run.spill_bytes(),
            "prefix truncation"
        );
    }

    #[test]
    fn tampered_raw_spill_file_reads_back_as_typed_corruption() {
        let stats = Stats::new_shared();
        let mut storage = FileRunStorage::new_raw(Arc::clone(&stats)).expect("tempdir");
        let mut rows = random_rows(150, 33);
        rows.sort();
        let run = Run::from_sorted_rows(rows, 2);
        let h = storage.write_run(run).expect("write");

        // Flip one byte of the spilled file behind the device's back —
        // the bit-rot scenario the CRC32 framing exists for.
        let file = only_spill_file(&storage);
        let mut bytes = std::fs::read(&file).expect("read spill file");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x08;
        std::fs::write(&file, &bytes).expect("rewrite spill file");

        let err = storage
            .read_run(h)
            .expect_err("corruption must be detected");
        assert_eq!(err.reason(), "spill_corruption");
    }

    /// A payload byte is the flip no row check could catch — any value is
    /// a valid payload — so only the frame's checksum stands between it
    /// and a wrong row.
    #[test]
    fn flipped_payload_byte_reads_back_as_typed_corruption() {
        let stats = Stats::new_shared();
        let mut storage = FileRunStorage::new(Arc::clone(&stats)).expect("tempdir");
        let rows: Vec<Row> = (0..40u64).map(|i| Row::new(vec![i / 4, i])).collect();
        let h = storage
            .write_run(Run::from_sorted_rows(rows, 1))
            .expect("write");

        // The last row's payload word, 39.
        let file = only_spill_file(&storage);
        let mut bytes = std::fs::read(&file).expect("read spill file");
        let payload = 8 * bytes
            .chunks_exact(8)
            .rposition(|w| w == 39u64.to_le_bytes())
            .expect("payload word 39 is in the file");
        bytes[payload] ^= 0x01;
        std::fs::write(&file, &bytes).expect("rewrite spill file");

        let err = storage
            .read_run(h)
            .expect_err("a flipped payload must not decode");
        assert_eq!(err.reason(), "spill_corruption");
    }

    #[test]
    fn truncated_raw_spill_file_reads_back_as_typed_corruption() {
        let stats = Stats::new_shared();
        let mut storage = FileRunStorage::new_raw(Arc::clone(&stats)).expect("tempdir");
        let mut rows = random_rows(150, 34);
        rows.sort();
        let run = Run::from_sorted_rows(rows, 2);
        let h = storage.write_run(run).expect("write");

        // Simulate a torn write: the file loses its tail.
        let file = only_spill_file(&storage);
        let bytes = std::fs::read(&file).expect("read spill file");
        std::fs::write(&file, &bytes[..bytes.len() / 2]).expect("truncate spill file");

        let err = storage
            .read_run(h)
            .expect_err("torn write must be detected");
        assert_eq!(err.reason(), "spill_corruption");
    }

    #[test]
    fn file_storage_external_sort() {
        let rows = random_rows(400, 11);
        let stats = Stats::new_shared();
        let mut storage = FileRunStorage::new(Arc::clone(&stats)).expect("tempdir");
        let out: Vec<_> =
            external_sort(rows, SortConfig::new(2, 50), &mut storage, &stats).collect();
        assert_eq!(out.len(), 400);
        let pairs: Vec<_> = out.into_iter().map(|r| (r.row, r.code)).collect();
        ovc_core::derive::assert_codes_exact(&pairs, 2);
    }

    /// `try_external_sort_spec` in 50-row runs through `storage`: the
    /// output's rows and codes, after checking it is labelled `spec`.
    fn sort_through<S: RunStorage>(
        rows: &[Row],
        spec: &SortSpec,
        storage: &mut S,
        stats: &Arc<Stats>,
    ) -> Vec<(Row, ovc_core::Ovc)> {
        let cfg = SortConfig::new(2, 50);
        let out = try_external_sort_spec(rows.to_vec(), cfg, spec, storage, stats).expect("sort");
        assert_eq!(ovc_core::OvcStream::sort_spec(&out), *spec);
        out.map(|r| (r.row, r.code)).collect()
    }

    /// A run reads back under the spec it was sorted by: descending,
    /// mixed and normalized sorts through both encoding devices equal the
    /// in-memory sort — rows, codes and `sort_spec()`.
    #[test]
    fn spilled_runs_keep_their_sort_spec() {
        let mut rng = StdRng::seed_from_u64(29);
        let rows: Vec<Row> = (0..300)
            .map(|_| Row::new((0..3).map(|_| rng.gen_range(0..6u64)).collect()))
            .collect();
        let mixed = SortSpec::with_dirs(&[Direction::Asc, Direction::Desc]);
        for spec in [
            SortSpec::desc(2),
            mixed.clone(),
            mixed.with_normalized(true),
            SortSpec::desc(2).with_normalized(true),
        ] {
            let stats = Stats::new_shared();
            let mut memory = MemoryRunStorage::new(Arc::clone(&stats));
            let expect = sort_through(&rows, &spec, &mut memory, &stats);
            assert_eq!(expect.len(), 300);

            let stats = Stats::new_shared();
            let mut encoded = EncodedRunStorage::new(Arc::clone(&stats));
            let got = sort_through(&rows, &spec, &mut encoded, &stats);
            assert_eq!(got, expect, "encoded device under {spec}");

            let stats = Stats::new_shared();
            let mut file = FileRunStorage::new(Arc::clone(&stats)).expect("tempdir");
            let got = sort_through(&rows, &spec, &mut file, &stats);
            assert_eq!(got, expect, "file device under {spec}");
            assert!(stats.rows_spilled() >= 300, "the sort spilled");
        }
    }
}
