//! # ovc-storage — ordered storage substrates that produce OVCs
//!
//! Section 4.11 of the paper: "Data access is a source of offset-value
//! codes as important as sorting.  All sorted scans can produce
//! offset-value codes."  This crate builds every storage structure the
//! paper names, each delivering coded streams:
//!
//! * [`encode`] — the one spill format: runs "encoded with prefixes
//!   truncated" (Section 3) inside a length + CRC32 frame that also
//!   records the run's sort spec, decoded with every field checked;
//! * [`checksum`] — dependency-free slice-by-8 CRC32 behind that frame
//!   (DESIGN.md §14);
//! * [`spill`] — spill devices with honest byte accounting (in-memory and
//!   file-backed) for the Figure 6 spill claims;
//! * [`btree`] — bulk-loaded b-tree with next-neighbor-difference leaf
//!   compression: scans and range scans produce codes for free;
//! * [`rle`] — sorted run-length-encoded column storage: codes from run
//!   bookkeeping without any column value comparisons;
//! * [`lsm`] — log-structured merge-forest (the Napa motivation): ingest,
//!   stepped-merge compaction, and merged scans all carry codes;
//! * [`secondary`] — non-unique secondary indexes with sorted RID lists,
//!   range/IN scans via tree-of-losers merges, and RID-order scans for
//!   index intersection and index join.
//!
//! Every merge here — compaction, forest scans, RID-list scans — is the
//! sort's one tournament, `ovc_sort::FlatMerge`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod btree;
pub mod checksum;
pub mod encode;
pub mod lsm;
pub mod rle;
pub mod secondary;
pub mod spill;

pub use btree::{BTree, BTreeScan};
pub use checksum::crc32;
pub use encode::{decode_run, encode_run};
pub use lsm::{LsmConfig, LsmForest};
pub use rle::{RleColumnStore, RleScan};
pub use secondary::{Rid, SecondaryIndex};
pub use spill::{EncodedRunStorage, FileRunStorage};
