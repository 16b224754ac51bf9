//! Run spill encodings: prefix-truncated and raw flat words.
//!
//! "Recall that input runs are encoded with prefixes truncated"
//! (Section 3) — each row stores only its offset-value code, the key
//! columns past the shared prefix with its predecessor, and its payload.
//! The decoder reconstructs each key from the previous one, which is
//! precisely why a merge input's successor rows arrive coded relative to
//! the prior row *for free* ("offset-value codes for rows in sorted runs
//! are a byproduct of run generation", Section 5).
//!
//! Prefix-truncated layout (all little-endian `u64`):
//!
//! ```text
//! [magic][key_len][width][row count]
//! per row: [code][key columns from offset .. key_len][payload columns]
//! ```
//!
//! Since runs live in flat columnar storage (DESIGN.md §10) there is also
//! a **raw** layout that writes the run's two vectors verbatim — codes,
//! then the value buffer — trading bytes for serialization CPU.  Because
//! every raw bit pattern decodes to *some* row, the raw frame is
//! crash-safe: it carries its own length and a CRC32 so torn writes and
//! bit rot surface as a typed [`ExecError::SpillCorruption`] instead of
//! plausible garbage rows (DESIGN.md §14):
//!
//! ```text
//! [magic3][frame bytes][key_len][width][row count]
//! [codes × count][values × count·width]
//! [crc32 of all preceding bytes, zero-extended to u64]
//! ```
//!
//! Both round-trip bit-exactly; spill devices pick per fidelity goal
//! (encoded-byte accounting vs raw throughput / integrity framing).

use ovc_core::{ExecError, FlatRows, Ovc, SortSpec};
use ovc_sort::Run;

use crate::checksum::crc32;

const MAGIC: u64 = 0x4F56_4352_554E_0001; // "OVCRUN" v1 (prefix-truncated)
const MAGIC_RAW: u64 = 0x4F56_4352_554E_0003; // "OVCRUN" v3 (framed raw flat words)

/// Fixed overhead of a raw frame: five header words plus the checksum
/// word.
pub const RAW_FRAME_OVERHEAD: usize = 48;

/// Encode a run into bytes with prefix truncation, straight off its flat
/// storage.
pub fn encode_run(run: &Run) -> Vec<u8> {
    let key_len = run.key_len();
    let width = run.width();
    let mut out = Vec::with_capacity(32 + run.len() * (width + 1) * 8);
    push_u64(&mut out, MAGIC);
    push_u64(&mut out, key_len as u64);
    push_u64(&mut out, width as u64);
    push_u64(&mut out, run.len() as u64);
    for (row, code) in run.iter() {
        push_u64(&mut out, code.raw());
        let offset = if code.is_valid() {
            code.offset(key_len)
        } else {
            0
        };
        for &col in &row[offset..key_len] {
            push_u64(&mut out, col);
        }
        for &col in &row[key_len..] {
            push_u64(&mut out, col);
        }
    }
    out
}

/// Decode a prefix-truncated run into flat storage.  Shared key prefixes
/// are reconstructed by copying from the previous row **within the output
/// buffer itself** — the decode loop performs no per-row allocation.
/// Panics on malformed input (this is an internal format, not an
/// adversarial one).
pub fn decode_run(bytes: &[u8]) -> Run {
    let mut pos = 0usize;
    assert_eq!(read_u64(bytes, &mut pos), MAGIC, "bad run magic");
    let key_len = read_u64(bytes, &mut pos) as usize;
    let width = read_u64(bytes, &mut pos) as usize;
    let count = read_u64(bytes, &mut pos) as usize;
    let mut values: Vec<u64> = Vec::with_capacity(count * width);
    let mut codes: Vec<Ovc> = Vec::with_capacity(count);
    for i in 0..count {
        let code = Ovc::from_raw(read_u64(bytes, &mut pos));
        assert!(code.is_valid(), "row {i}: fence stored in run");
        let offset = code.offset(key_len);
        let prev_start = values.len().saturating_sub(width);
        // Shared prefix from the previous decoded row, in place.
        values.extend_from_within(prev_start..prev_start + offset);
        for _ in offset..width {
            values.push(read_u64(bytes, &mut pos));
        }
        codes.push(code);
    }
    assert_eq!(pos, bytes.len(), "trailing bytes after run");
    Run::from_flat(
        FlatRows::from_parts(width, values, codes),
        SortSpec::asc(key_len),
    )
}

/// Encode a run as framed raw flat words: header (with total frame
/// length), the code vector, the contiguous value buffer, then a CRC32
/// of everything preceding it.  No per-row branching — the cheap spill
/// format for devices that do not need prefix-truncated byte accounting.
pub fn encode_run_raw(run: &Run) -> Vec<u8> {
    let flat = run.flat();
    let total = RAW_FRAME_OVERHEAD + (flat.codes().len() + flat.values().len()) * 8;
    let mut out = Vec::with_capacity(total);
    push_u64(&mut out, MAGIC_RAW);
    push_u64(&mut out, total as u64);
    push_u64(&mut out, run.key_len() as u64);
    push_u64(&mut out, flat.width() as u64);
    push_u64(&mut out, flat.len() as u64);
    for &code in flat.codes() {
        push_u64(&mut out, code.raw());
    }
    for &v in flat.values() {
        push_u64(&mut out, v);
    }
    let crc = crc32(&out);
    push_u64(&mut out, u64::from(crc));
    out
}

fn corrupt(detail: impl Into<String>) -> ExecError {
    ExecError::SpillCorruption {
        detail: detail.into(),
    }
}

/// Decode a framed raw flat-words run, validating the frame before
/// trusting a single word of it: magic, declared length against actual
/// length (torn-write detection), and CRC32 (bit-rot detection).  Every
/// malformation returns a typed [`ExecError::SpillCorruption`]; this
/// function never panics on bad bytes and never returns garbage rows.
pub fn decode_run_raw(bytes: &[u8]) -> Result<Run, ExecError> {
    if bytes.len() < RAW_FRAME_OVERHEAD || !bytes.len().is_multiple_of(8) {
        return Err(corrupt(format!(
            "raw run frame truncated: {} bytes, need at least {RAW_FRAME_OVERHEAD}",
            bytes.len()
        )));
    }
    let mut pos = 0usize;
    let magic = read_u64(bytes, &mut pos);
    if magic != MAGIC_RAW {
        return Err(corrupt(format!(
            "bad raw run magic {magic:#018x} (expected {MAGIC_RAW:#018x})"
        )));
    }
    let declared = read_u64(bytes, &mut pos);
    if declared != bytes.len() as u64 {
        return Err(corrupt(format!(
            "torn raw run frame: header declares {declared} bytes, got {}",
            bytes.len()
        )));
    }
    let body = &bytes[..bytes.len() - 8];
    let mut crc_pos = bytes.len() - 8;
    let stored_crc = read_u64(bytes, &mut crc_pos);
    let actual_crc = u64::from(crc32(body));
    if stored_crc != actual_crc {
        return Err(corrupt(format!(
            "raw run checksum mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}"
        )));
    }
    let key_len = read_u64(bytes, &mut pos) as usize;
    let width = read_u64(bytes, &mut pos) as usize;
    let count = read_u64(bytes, &mut pos) as usize;
    let expected = count
        .checked_mul(width + 1)
        .and_then(|words| words.checked_mul(8))
        .and_then(|data| data.checked_add(RAW_FRAME_OVERHEAD));
    if expected != Some(bytes.len()) {
        return Err(corrupt(format!(
            "raw run header inconsistent: count {count} width {width} in a {}-byte frame",
            bytes.len()
        )));
    }
    if key_len > width {
        return Err(corrupt(format!(
            "raw run header inconsistent: key_len {key_len} exceeds width {width}"
        )));
    }
    let codes: Vec<Ovc> = (0..count)
        .map(|_| Ovc::from_raw(read_u64(bytes, &mut pos)))
        .collect();
    let values: Vec<u64> = (0..count * width)
        .map(|_| read_u64(bytes, &mut pos))
        .collect();
    Ok(Run::from_flat(
        FlatRows::from_parts(width, values, codes),
        SortSpec::asc(key_len),
    ))
}

#[inline]
fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[inline]
fn read_u64(bytes: &[u8], pos: &mut usize) -> u64 {
    let v = u64::from_le_bytes(
        bytes[*pos..*pos + 8]
            .try_into()
            .expect("an 8-byte slice always converts to [u8; 8]"),
    );
    *pos += 8;
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovc_core::{Row, Stats};
    use ovc_sort::sort_rows_ovc;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn round_trip(run: &Run) {
        let bytes = encode_run(run);
        let back = decode_run(&bytes);
        assert_eq!(back.key_len(), run.key_len());
        assert_eq!(back.flat(), run.flat());
        let raw = encode_run_raw(run);
        let back_raw = decode_run_raw(&raw).expect("clean frame decodes");
        assert_eq!(back_raw.key_len(), run.key_len());
        assert_eq!(back_raw.flat(), run.flat());
    }

    #[test]
    fn round_trips_table1() {
        let run = Run::from_sorted_rows(ovc_core::table1::rows(), 4);
        round_trip(&run);
    }

    #[test]
    fn round_trips_random_runs_with_payload() {
        let mut rng = StdRng::seed_from_u64(5);
        let rows: Vec<Row> = (0..500)
            .map(|i| {
                Row::new(vec![
                    rng.gen_range(0..4u64),
                    rng.gen_range(0..4u64),
                    rng.gen_range(0..100u64),
                    i, // payload
                ])
            })
            .collect();
        let stats = Stats::new_shared();
        let run = sort_rows_ovc(rows, 3, &stats);
        round_trip(&run);
    }

    #[test]
    fn empty_run() {
        round_trip(&Run::empty_spec(SortSpec::asc(2)));
    }

    #[test]
    fn prefix_truncation_saves_bytes() {
        // Heavily duplicated keys compress well: duplicates store no key
        // columns at all.
        let rows: Vec<Row> = (0..100).map(|_| Row::new(vec![1, 2, 3, 4])).collect();
        let run = Run::from_sorted_rows(rows, 4);
        let bytes = encode_run(&run);
        let plain = 32 + 100 * 5 * 8; // header + (code + 4 cols) per row
        assert!(
            bytes.len() < plain / 3,
            "truncated {} vs plain {}",
            bytes.len(),
            plain
        );
        // The raw format is exactly the flat words plus frame overhead
        // (header with length, trailing CRC32).
        assert_eq!(encode_run_raw(&run).len(), RAW_FRAME_OVERHEAD + 100 * 5 * 8);
    }

    #[test]
    fn raw_frame_detects_bit_rot() {
        let run = Run::from_sorted_rows(ovc_core::table1::rows(), 4);
        let clean = encode_run_raw(&run);
        // Flip a single bit at every byte position: each one must decode
        // to a typed corruption error, never to rows.
        for pos in 0..clean.len() {
            let mut bad = clean.clone();
            bad[pos] ^= 0x10;
            let err = decode_run_raw(&bad).expect_err("flip must be detected");
            assert_eq!(err.reason(), "spill_corruption", "flip at byte {pos}");
        }
    }

    #[test]
    fn raw_frame_detects_torn_writes() {
        let run = Run::from_sorted_rows(ovc_core::table1::rows(), 4);
        let clean = encode_run_raw(&run);
        // A torn write drops the tail of the frame.
        for keep in [0usize, 8, RAW_FRAME_OVERHEAD, clean.len() - 8] {
            let err = decode_run_raw(&clean[..keep]).expect_err("tear must be detected");
            assert_eq!(err.reason(), "spill_corruption", "torn at {keep} bytes");
        }
        // Trailing garbage is equally fatal.
        let mut padded = clean;
        padded.extend_from_slice(&[0u8; 8]);
        assert!(decode_run_raw(&padded).is_err());
    }

    #[test]
    fn raw_frame_rejects_foreign_magic() {
        let run = Run::from_sorted_rows(ovc_core::table1::rows(), 4);
        // A prefix-truncated image is not a raw frame.
        let err = decode_run_raw(&encode_run(&run)).expect_err("wrong format");
        assert_eq!(err.reason(), "spill_corruption");
    }

    #[test]
    fn single_row_run() {
        let run = Run::from_sorted_rows(vec![Row::new(vec![9, 8, 7])], 3);
        round_trip(&run);
    }
}
