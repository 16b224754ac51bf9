//! The spill format: a CRC-framed prefix-truncated run image.
//!
//! "Recall that input runs are encoded with prefixes truncated"
//! (Section 3) — each row stores only its offset-value code, the key
//! columns past the shared prefix with its predecessor, and its payload.
//! The decoder reconstructs each key from the previous one, which is
//! precisely why a merge input's successor rows arrive coded relative to
//! the prior row *for free* ("offset-value codes for rows in sorted runs
//! are a byproduct of run generation", Section 5).
//!
//! The image travels in a frame carrying its own length and a CRC32, so
//! torn writes and bit rot surface as a typed
//! [`ExecError::SpillCorruption`] instead of plausible garbage rows
//! (DESIGN.md §14).  The header records the run's whole [`SortSpec`], so
//! a run reads back under the order it was written in.  Layout, all
//! little-endian `u64` words:
//!
//! ```text
//! [magic v4][frame bytes][width][row count][key_len][flags: 1 = normalized]
//! per key: [column << 1 | 1 if descending]
//! per row: [code][key columns from offset .. key_len][payload columns]
//! [crc32 of all preceding bytes, zero-extended to u64]
//! ```

use std::cmp::Ordering;

use ovc_core::ovc::MAX_ARITY;
use ovc_core::{Direction, ExecError, FlatRows, Ovc, SortSpec};
use ovc_sort::Run;

use crate::checksum::crc32;

const MAGIC: u64 = 0x4F56_4352_554E_0004; // "OVCRUN" v4 (framed prefix-truncated)

/// Header words before the spec: magic, frame bytes, width, row count,
/// key_len, flags.
const HEADER_WORDS: usize = 6;

/// Frame bytes besides the spec and the rows: the header and the trailing
/// checksum word.
const FIXED_OVERHEAD: usize = (HEADER_WORDS + 1) * 8;

/// The one flag bit: the spec requests normalized-key encoding.
const NORMALIZED: u64 = 1;

/// Encode a run into a framed prefix-truncated image, straight off its
/// flat storage.
pub fn encode_run(run: &Run) -> Vec<u8> {
    let spec = run.sort_spec();
    let key_len = spec.len();
    let mut out = Vec::with_capacity(FIXED_OVERHEAD + key_len * 8 + run.spill_bytes() as usize);
    push_u64(&mut out, MAGIC);
    push_u64(&mut out, 0); // frame bytes, known once the rows are in
    push_u64(&mut out, run.width() as u64);
    push_u64(&mut out, run.len() as u64);
    push_u64(&mut out, key_len as u64);
    push_u64(&mut out, if spec.normalized() { NORMALIZED } else { 0 });
    for &(col, dir) in spec.keys() {
        push_u64(
            &mut out,
            ((col as u64) << 1) | u64::from(dir == Direction::Desc),
        );
    }
    for (row, code) in run.iter() {
        push_u64(&mut out, code.raw());
        for &col in &row[code.offset(key_len)..] {
            push_u64(&mut out, col);
        }
    }
    let total = (out.len() + 8) as u64;
    out[8..16].copy_from_slice(&total.to_le_bytes());
    let crc = crc32(&out);
    push_u64(&mut out, u64::from(crc));
    out
}

/// `Ok` when `ok`, else [`ExecError::SpillCorruption`] saying `detail()`.
fn ensure(ok: bool, detail: impl FnOnce() -> String) -> Result<(), ExecError> {
    if ok {
        Ok(())
    } else {
        Err(ExecError::SpillCorruption { detail: detail() })
    }
}

/// Decode a framed run into flat storage.
///
/// The frame is checked before a single row is read: magic, declared
/// length against actual length (torn writes), CRC32 (bit rot).  Then
/// every header field and row is checked before it is used: the spec,
/// fence codes, offsets past `key_len`, a first row that claims a shared
/// prefix, a frame that ends mid-row or carries trailing words, and each
/// code against the columns it describes.  Every malformation is a typed
/// [`ExecError::SpillCorruption`]; nothing is allocated from a header
/// field the frame has not been shown to back.
///
/// Shared key prefixes are reconstructed by copying from the previous
/// row **within the output buffer itself** — no per-row allocation.
pub fn decode_run(bytes: &[u8]) -> Result<Run, ExecError> {
    let len = bytes.len();
    ensure(len >= FIXED_OVERHEAD && len.is_multiple_of(8), || {
        format!("run frame truncated: {len} bytes, need whole words and at least {FIXED_OVERHEAD}")
    })?;
    let (body, crc) = bytes.split_at(len - 8);
    let word = |i: usize| le_u64(&body[i * 8..i * 8 + 8]);
    let (magic, declared) = (word(0), word(1));
    ensure(magic == MAGIC, || {
        format!("bad run magic {magic:#018x} (expected {MAGIC:#018x})")
    })?;
    ensure(declared == len as u64, || {
        format!("torn run frame: header declares {declared} bytes, got {len}")
    })?;
    let (stored, actual) = (le_u64(crc), u64::from(crc32(body)));
    ensure(stored == actual, || {
        format!("run checksum mismatch: stored {stored:#010x}, computed {actual:#010x}")
    })?;

    let header = |i: usize| usize::try_from(word(i)).unwrap_or(usize::MAX);
    let (width, count, key_len, flags) = (header(2), header(3), header(4), word(5));
    let spec_words = body.len() / 8 - HEADER_WORDS;
    ensure(key_len <= MAX_ARITY.min(width).min(spec_words), || {
        format!("run header inconsistent: key_len {key_len}, width {width}")
    })?;
    ensure(flags & !NORMALIZED == 0, || {
        format!("unknown run flags {flags:#x}")
    })?;
    let keys = (0..key_len)
        .map(|i| {
            let w = word(HEADER_WORDS + i);
            let col = usize::try_from(w >> 1).unwrap_or(usize::MAX);
            ensure(col < width, || {
                format!("sort key {i} names column {col} of a {width}-column run")
            })?;
            Ok((
                col,
                if w & 1 == 0 {
                    Direction::Asc
                } else {
                    Direction::Desc
                },
            ))
        })
        .collect::<Result<_, ExecError>>()?;
    let spec = SortSpec::new(keys).with_normalized(flags == NORMALIZED);
    let flat = decode_rows(&body[(HEADER_WORDS + key_len) * 8..], count, width, &spec)?;
    Ok(Run::from_flat(flat, spec))
}

/// Rebuild `count` rows of `width` columns from a frame's row section.
/// Each row must fit the words that are left, and each code must be a
/// valid code whose offset lies within the key (the first row's at 0),
/// whose value is the row's column at that offset, and past which the row
/// sorts strictly after its predecessor: with the prefix copied from that
/// predecessor, this makes every code exact.
fn decode_rows(
    mut rest: &[u8],
    count: usize,
    width: usize,
    spec: &SortSpec,
) -> Result<FlatRows, ExecError> {
    let key_len = spec.len();
    let words = rest.len() / 8;
    // The header's row count, bounded by the words present: a row of `s`
    // stored words holds at most `s + key_len - 1` values.
    let bound = words.saturating_mul(key_len + 1);
    let mut values = Vec::with_capacity(count.saturating_mul(width).min(bound));
    let mut codes = Vec::with_capacity(count.min(words));
    for i in 0..count {
        ensure(!rest.is_empty(), || {
            format!("run frame ends before row {i}")
        })?;
        let code = Ovc::from_raw(le_u64(&rest[..8]));
        ensure(code.is_valid(), || format!("row {i}: fence stored in run"))?;
        ensure(code.arity_minus_offset() <= key_len, || {
            format!("row {i}: code offset past key_len {key_len}")
        })?;
        let offset = key_len - code.arity_minus_offset();
        ensure(i > 0 || offset == 0, || {
            format!("row 0 claims a {offset}-column prefix shared with no row")
        })?;
        let stored = width - offset;
        ensure(stored < rest.len() / 8, || {
            format!("run frame ends inside row {i}")
        })?;
        let cols;
        (cols, rest) = rest[8..].split_at(stored * 8);

        let prev = values.len().saturating_sub(width);
        values.extend_from_within(prev..prev + offset);
        values.extend(cols.chunks_exact(8).map(le_u64));
        if offset < key_len {
            let v = values[values.len() - width + offset];
            let exact = code == Ovc::new(offset, spec.code_value(offset, v), key_len);
            let after =
                i == 0 || spec.cmp_values(offset, values[prev + offset], v) == Ordering::Less;
            ensure(exact && after, || {
                format!(
                    "row {i}: code {:#018x} does not describe the row",
                    code.raw()
                )
            })?;
        }
        codes.push(code);
    }
    ensure(rest.is_empty(), || {
        format!("{} trailing words after the last row", rest.len() / 8)
    })?;
    Ok(FlatRows::from_parts(width, values, codes))
}

#[inline]
fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[inline]
fn le_u64(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(bytes);
    u64::from_le_bytes(word)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovc_core::{Row, Stats};
    use ovc_sort::sort_rows_ovc;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn round_trip(run: &Run) {
        let back = decode_run(&encode_run(run)).expect("clean frame decodes");
        assert_eq!(back.sort_spec(), run.sort_spec());
        assert_eq!(back.flat(), run.flat());
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
        round_trip(&Run::empty_spec(SortSpec::none()));
    }

    #[test]
    fn prefix_truncation_saves_bytes() {
        // Heavily duplicated keys compress well: duplicates store no key
        // columns at all.
        let rows: Vec<Row> = (0..100).map(|_| Row::new(vec![1, 2, 3, 4])).collect();
        let run = Run::from_sorted_rows(rows, 4);
        let bytes = encode_run(&run);
        let plain = 100 * 5 * 8; // (code + 4 cols) per row
        assert!(
            bytes.len() < plain / 3,
            "truncated {} vs plain {}",
            bytes.len(),
            plain
        );
        // One full row, 99 bare codes, and the frame: header, one spec
        // word per key, checksum.
        assert_eq!(bytes.len(), FIXED_OVERHEAD + 4 * 8 + (5 + 99) * 8);
    }

    #[test]
    fn raw_frame_detects_bit_rot() {
        let run = Run::from_sorted_rows(ovc_core::table1::rows(), 4);
        let clean = encode_run(&run);
        // Flip a single bit at every byte position: each one must decode
        // to a typed corruption error, never to rows.
        for pos in 0..clean.len() {
            let mut bad = clean.clone();
            bad[pos] ^= 0x10;
            let err = decode_run(&bad).expect_err("flip must be detected");
            assert_eq!(err.reason(), "spill_corruption", "flip at byte {pos}");
        }
    }

    #[test]
    fn raw_frame_detects_torn_writes() {
        let run = Run::from_sorted_rows(ovc_core::table1::rows(), 4);
        let clean = encode_run(&run);
        // A torn write drops the tail of the frame.
        for keep in [0usize, 8, FIXED_OVERHEAD, clean.len() - 8] {
            let err = decode_run(&clean[..keep]).expect_err("tear must be detected");
            assert_eq!(err.reason(), "spill_corruption", "torn at {keep} bytes");
        }
        // Trailing garbage is equally fatal.
        let mut padded = clean;
        padded.extend_from_slice(&[0u8; 8]);
        assert!(decode_run(&padded).is_err());
    }

    #[test]
    fn raw_frame_rejects_foreign_magic() {
        let run = Run::from_sorted_rows(ovc_core::table1::rows(), 4);
        // The retired formats' magics (v1 unframed prefix image, v3 raw
        // words), even under a valid checksum.
        for old in [0x4F56_4352_554E_0001u64, 0x4F56_4352_554E_0003] {
            let err = decode_run(&with_word(&encode_run(&run), 0, old)).expect_err("wrong format");
            assert_eq!(err.reason(), "spill_corruption");
            assert!(err.to_string().contains("magic"), "{err}");
        }
    }

    #[test]
    fn single_row_run() {
        let run = Run::from_sorted_rows(vec![Row::new(vec![9, 8, 7])], 3);
        round_trip(&run);
    }

    /// Word `i` of a frame rewritten to `v` under a recomputed checksum,
    /// so a rejection has to come from the checks behind the checksum.
    fn with_word(frame: &[u8], i: usize, v: u64) -> Vec<u8> {
        let mut bad = frame.to_vec();
        bad[i * 8..i * 8 + 8].copy_from_slice(&v.to_le_bytes());
        let end = bad.len() - 8;
        let crc = u64::from(crc32(&bad[..end]));
        bad[end..].copy_from_slice(&crc.to_le_bytes());
        bad
    }

    /// Whether `bytes` decoded.  Every input is `Ok` or a
    /// `spill_corruption`, never a panic; an `Ok` run satisfies its own
    /// codes (checked by `Run::from_flat` in debug builds).
    fn decoded(bytes: &[u8]) -> bool {
        match decode_run(bytes) {
            Ok(run) => {
                assert_eq!(run.flat().len(), run.len());
                true
            }
            Err(e) => {
                assert_eq!(e.reason(), "spill_corruption", "{e}");
                false
            }
        }
    }

    /// Hostile frames: random bytes, every truncation of a real frame, a
    /// bit flip at every byte, and frames whose header fields and row
    /// codes are rewritten under a recomputed checksum.  `RANDOM_SEED`
    /// reseeds the loop.
    #[test]
    fn hostile_frames_are_typed_errors() {
        let seed = std::env::var("RANDOM_SEED")
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(0x5B11_F4A3);
        eprintln!("spill-frame fuzz seed = {seed}");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut frames = Vec::new();
        for spec in [
            SortSpec::asc(2),
            SortSpec::with_dirs(&[Direction::Desc, Direction::Asc, Direction::Desc]),
            SortSpec::none(),
        ] {
            let rows: Vec<Row> = (0..rng.gen_range(1..24usize))
                .map(|_| Row::new((0..4).map(|_| rng.gen_range(0..3u64)).collect()))
                .collect();
            let mut sorted = rows;
            sorted.sort_by(|a, b| spec.cmp_rows(a, b));
            frames.push(encode_run(&Run::from_sorted_rows_spec(sorted, spec)));
        }
        let (mut ok, mut err) = (0, 0);
        let mut record = |decoded: bool| if decoded { ok += 1 } else { err += 1 };

        for _ in 0..2000 {
            let len = rng.gen_range(0..40usize) * 8;
            let mut bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u8)).collect();
            if len >= 16 && rng.gen_bool(0.5) {
                // Past the magic and length checks, into the checksum.
                bytes[..8].copy_from_slice(&MAGIC.to_le_bytes());
                bytes[8..16].copy_from_slice(&(len as u64).to_le_bytes());
            }
            record(decoded(&bytes));
        }
        for frame in &frames {
            for keep in 0..frame.len() {
                record(decoded(&frame[..keep]));
            }
            for pos in 0..frame.len() {
                let mut bad = frame.clone();
                bad[pos] ^= 1 << rng.gen_range(0..8u32);
                assert!(!decoded(&bad), "flip at byte {pos} decoded");
            }
            // Header fields (width, count, key_len, flags, spec words)
            // rewritten to edge values and random ones.
            let key_len = le_u64(&frame[32..40]) as usize;
            for i in 2..HEADER_WORDS + key_len {
                let old = le_u64(&frame[i * 8..i * 8 + 8]);
                for v in [
                    0,
                    1,
                    old.wrapping_add(1),
                    old.wrapping_sub(1),
                    u64::MAX,
                    1 << 40,
                    MAX_ARITY as u64 + 1,
                    rng.gen::<u64>(),
                ] {
                    record(decoded(&with_word(frame, i, v)));
                }
            }
            // Row codes rewritten: fences, offsets past the key, first
            // rows claiming a prefix, values that do not match.
            let rows_at = HEADER_WORDS + key_len;
            for at in rows_at..frame.len() / 8 - 1 {
                for raw in [
                    0,
                    u64::MAX,
                    Ovc::duplicate().raw(),
                    Ovc::new(0, rng.gen_range(0..3u64), 3).raw(),
                    Ovc::new(1, rng.gen_range(0..3u64), 3).raw(),
                    (1 << 62) | (rng.gen_range(0..1u64 << 14) << 48),
                    rng.gen::<u64>(),
                ] {
                    record(decoded(&with_word(frame, at, raw)));
                }
            }
        }
        assert!(
            ok > 0 && err > 0,
            "the loop explored both outcomes: {ok} ok, {err} err"
        );
    }
}
