//! Instrumented key comparisons with offset-value-code maintenance.
//!
//! The rules implemented here are Section 3's (illustrated by Table 2):
//!
//! * Two keys coded relative to the **same base** compare by their codes
//!   first.  If the codes differ, the comparison is decided and — by Iyer's
//!   *unequal code theorem* (a corollary of the paper's new theorem) — the
//!   loser's code relative to the winner equals its existing code, so no
//!   adjustment is needed (Table 2, cases 1 and 2).
//! * If the codes are equal, column-value comparisons resume past the
//!   shared prefix and value (Iyer's *equal code theorem*); the loser's
//!   offset grows by the number of equal columns found and its value is the
//!   column at the new offset (Table 2, case 3).
//!
//! Every column-value comparison is counted in [`Stats`], which is how the
//! `N × K` bound of Section 3 is verified experimentally.  The two
//! same-base comparators count through [`CmpCounter`], so a tournament
//! loop may count into a plain [`crate::Tally`] and flush it into `Stats`.
//! Each is split in two: [`compare_same_base`] counts the code comparison
//! and decides unequal codes, and [`resume_same_base`] handles equal ones.

use std::cmp::Ordering;

use crate::ovc::Ovc;
use crate::row::Value;
use crate::spec::SortSpec;
use crate::stats::{CmpCounter, Stats};

/// Compare two keys whose codes are relative to the same base key.
///
/// On return:
/// * `Ordering::Less` / `Ordering::Greater` — decided; if column
///   comparisons were required, the loser's code has been updated to be
///   relative to the winner; otherwise the loser's existing code is already
///   correct relative to the winner (unequal code theorem).
/// * `Ordering::Equal` — the keys are equal.  Codes are left untouched; the
///   caller decides the winner (e.g. by run index, for stability) and must
///   set the loser's code to [`Ovc::duplicate`].
///
/// Fences never have their codes adjusted: a fence comparison is decided
/// entirely by the 64-bit code compare (early < valid < late), which is the
/// "free" comparison the paper describes in Section 5.
///
/// Counts one code comparison, decides unequal codes, and hands equal ones
/// to [`resume_same_base`].
#[inline]
pub fn compare_same_base(
    a_key: &[Value],
    b_key: &[Value],
    a_code: &mut Ovc,
    b_code: &mut Ovc,
    stats: &impl CmpCounter,
) -> Ordering {
    stats.count_ovc_cmp();
    if a_code != b_code {
        // Unequal code theorem: the loser's code relative to the winner is
        // its code relative to the old base.  Nothing to recompute.
        return (*a_code).cmp(b_code);
    }
    resume_same_base(a_key, b_key, a_code, b_code, stats)
}

/// The equal-code half of [`compare_same_base`]: `a_code == b_code`, both
/// relative to the same base, and the code comparison that found them
/// equal has already been counted by the caller.  Two fences or two
/// duplicates are `Ordering::Equal` at no cost; otherwise column
/// comparisons resume past the shared prefix and value (equal code
/// theorem), each counted, and the loser is re-coded as
/// [`compare_same_base`] describes.
///
/// A tournament that decides unequal codes itself and counts its code
/// comparisons per tree pass calls this directly for the ties.
#[inline]
pub fn resume_same_base(
    a_key: &[Value],
    b_key: &[Value],
    a_code: &mut Ovc,
    b_code: &mut Ovc,
    stats: &impl CmpCounter,
) -> Ordering {
    debug_assert_eq!(a_code, b_code, "resume_same_base needs equal codes");
    if !a_code.is_valid() {
        // Two early fences or two late fences; order is irrelevant.
        return Ordering::Equal;
    }
    let arity = a_key.len();
    debug_assert_eq!(arity, b_key.len());
    if a_code.is_duplicate() {
        // Both keys equal the base, hence each other.
        return Ordering::Equal;
    }
    // Equal code theorem: the difference lies past the shared prefix and
    // value; resume column comparisons there.
    let start = a_code.resume_column(arity);
    for i in start..arity {
        stats.count_col_cmp();
        match a_key[i].cmp(&b_key[i]) {
            Ordering::Equal => continue,
            Ordering::Less => {
                *b_code = Ovc::new(i, b_key[i], arity);
                return Ordering::Less;
            }
            Ordering::Greater => {
                *a_code = Ovc::new(i, a_key[i], arity);
                return Ordering::Greater;
            }
        }
    }
    Ordering::Equal
}

/// Direction-aware [`compare_same_base`]: the same two theorems, with
/// column comparisons and loser re-coding driven by a [`SortSpec`].
///
/// Key slices are laid out in spec order (element `i` is the `i`-th key
/// of each row); codes carry direction-encoded values
/// ([`SortSpec::code_value`]), which keeps the single-integer code
/// comparison decisive for mixed ascending/descending keys.  The resume
/// point after equal codes is [`SortSpec::resume_key`], whose lossy-end
/// check is direction-dependent.
#[inline]
pub fn compare_same_base_spec(
    a_key: &[Value],
    b_key: &[Value],
    a_code: &mut Ovc,
    b_code: &mut Ovc,
    spec: &SortSpec,
    stats: &impl CmpCounter,
) -> Ordering {
    stats.count_ovc_cmp();
    if a_code != b_code {
        // Unequal code theorem, direction-independent: the loser's code
        // relative to the winner is its existing code.
        return (*a_code).cmp(b_code);
    }
    resume_same_base_spec(a_key, b_key, a_code, b_code, spec, stats)
}

/// Direction-aware [`resume_same_base`]: the equal-code half of
/// [`compare_same_base_spec`], counting only the column comparisons.
#[inline]
pub fn resume_same_base_spec(
    a_key: &[Value],
    b_key: &[Value],
    a_code: &mut Ovc,
    b_code: &mut Ovc,
    spec: &SortSpec,
    stats: &impl CmpCounter,
) -> Ordering {
    debug_assert_eq!(a_code, b_code, "resume_same_base_spec needs equal codes");
    if !a_code.is_valid() {
        return Ordering::Equal;
    }
    let arity = spec.len();
    debug_assert_eq!(arity, a_key.len());
    debug_assert_eq!(arity, b_key.len());
    if a_code.is_duplicate() {
        return Ordering::Equal;
    }
    let start = spec.resume_key(*a_code);
    for i in start..arity {
        stats.count_col_cmp();
        match spec.cmp_values(i, a_key[i], b_key[i]) {
            Ordering::Equal => continue,
            Ordering::Less => {
                *b_code = Ovc::new(i, spec.code_value(i, b_key[i]), arity);
                return Ordering::Less;
            }
            Ordering::Greater => {
                *a_code = Ovc::new(i, spec.code_value(i, a_key[i]), arity);
                return Ordering::Greater;
            }
        }
    }
    Ordering::Equal
}

/// Compare two keys column by column from the start, setting the loser's
/// code relative to the winner.
///
/// Used where no shared base exists (priority-queue build-up, run
/// boundaries).  Returns `Ordering::Equal` without touching codes when the
/// keys are equal; the caller picks the winner and assigns
/// [`Ovc::duplicate`] to the loser.
#[inline]
pub fn full_compare_set_loser(
    a_key: &[Value],
    b_key: &[Value],
    a_code: &mut Ovc,
    b_code: &mut Ovc,
    stats: &Stats,
) -> Ordering {
    let arity = a_key.len();
    debug_assert_eq!(arity, b_key.len());
    for i in 0..arity {
        stats.count_col_cmp();
        match a_key[i].cmp(&b_key[i]) {
            Ordering::Equal => continue,
            Ordering::Less => {
                *b_code = Ovc::new(i, b_key[i], arity);
                return Ordering::Less;
            }
            Ordering::Greater => {
                *a_code = Ovc::new(i, a_key[i], arity);
                return Ordering::Greater;
            }
        }
    }
    Ordering::Equal
}

/// Exact offset-value code of `succ` relative to `pred`, where
/// `pred <= succ` in the sort order.
///
/// This is the textbook definition (`pre`/`val` of Section 4): offset is
/// the maximal shared prefix, value is `succ`'s column at that offset;
/// a fully shared key yields the duplicate code.
#[inline]
pub fn derive_code(pred_key: &[Value], succ_key: &[Value], stats: &Stats) -> Ovc {
    let arity = succ_key.len();
    debug_assert_eq!(arity, pred_key.len());
    for i in 0..arity {
        stats.count_col_cmp();
        if pred_key[i] != succ_key[i] {
            debug_assert!(
                pred_key[i] < succ_key[i],
                "derive_code requires pred <= succ (violated at column {i})"
            );
            return Ovc::new(i, succ_key[i], arity);
        }
    }
    Ovc::duplicate()
}

/// Direction-aware [`derive_code`]: exact code of `succ` relative to
/// `pred` under `spec` (`pred` at or before `succ` in spec order).  The
/// offset is the shared-prefix length exactly as in the ascending case;
/// the value is direction-encoded via [`SortSpec::code_value`].
#[inline]
pub fn derive_code_spec(
    pred_key: &[Value],
    succ_key: &[Value],
    spec: &SortSpec,
    stats: &Stats,
) -> Ovc {
    let arity = spec.len();
    debug_assert_eq!(arity, pred_key.len());
    debug_assert_eq!(arity, succ_key.len());
    for i in 0..arity {
        stats.count_col_cmp();
        if pred_key[i] != succ_key[i] {
            debug_assert!(
                spec.cmp_values(i, pred_key[i], succ_key[i]) == Ordering::Less,
                "derive_code_spec requires pred <= succ in spec order (violated at key {i})"
            );
            return Ovc::new(i, spec.code_value(i, succ_key[i]), arity);
        }
    }
    Ovc::duplicate()
}

/// Baseline full-key comparison: counts one row comparison plus one
/// column-value comparison per column visited, no codes involved.
///
/// This is the "comparing an operator's output row-by-row,
/// column-by-column" method the paper calls too expensive.
#[inline]
pub fn compare_keys_counted(a_key: &[Value], b_key: &[Value], stats: &Stats) -> Ordering {
    stats.count_row_cmp();
    let arity = a_key.len().min(b_key.len());
    for i in 0..arity {
        stats.count_col_cmp();
        match a_key[i].cmp(&b_key[i]) {
            Ordering::Equal => continue,
            other => return other,
        }
    }
    a_key.len().cmp(&b_key.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 2 of the paper: pairs of keys encoded relative to the shared
    /// base (3,4,2,5); decisions by offsets (case 1), by values (case 2),
    /// and by additional column comparisons (case 3).
    #[test]
    fn table2_case1_offsets_decide() {
        let stats = Stats::default();
        let b_key = [3u64, 5, 8, 2]; // ovc rel base: offset 1, value 5 -> "305"
        let c_key = [3u64, 4, 6, 1]; // ovc rel base: offset 2, value 6 -> "206"
        let mut b_code = Ovc::new(1, 5, 4);
        let mut c_code = Ovc::new(2, 6, 4);
        assert_eq!(b_code.paper_decimal(), 305);
        assert_eq!(c_code.paper_decimal(), 206);
        // C has the higher offset, so C is earlier; B is the loser and its
        // code relative to the winner stays 305.
        let ord = compare_same_base(&b_key, &c_key, &mut b_code, &mut c_code, &stats);
        assert_eq!(ord, Ordering::Greater);
        assert_eq!(b_code.paper_decimal(), 305);
        assert_eq!(stats.col_value_cmps(), 0, "offsets alone decide case 1");
    }

    #[test]
    fn table2_case2_values_decide() {
        let stats = Stats::default();
        let b_key = [3u64, 4, 3, 8]; // offset 2, value 3 -> "203"
        let c_key = [3u64, 4, 9, 1]; // offset 2, value 9 -> "209"
        let mut b_code = Ovc::new(2, 3, 4);
        let mut c_code = Ovc::new(2, 9, 4);
        let ord = compare_same_base(&b_key, &c_key, &mut b_code, &mut c_code, &stats);
        assert_eq!(ord, Ordering::Less);
        assert_eq!(c_code.paper_decimal(), 209, "loser keeps its code");
        assert_eq!(stats.col_value_cmps(), 0, "values in codes decide case 2");
    }

    #[test]
    fn table2_case3_column_comparisons_decide() {
        let stats = Stats::default();
        let b_key = [3u64, 7, 4, 7]; // offset 1, value 7 -> "307"
        let c_key = [3u64, 7, 4, 9]; // offset 1, value 7 -> "307"
        let mut b_code = Ovc::new(1, 7, 4);
        let mut c_code = Ovc::new(1, 7, 4);
        let ord = compare_same_base(&b_key, &c_key, &mut b_code, &mut c_code, &stats);
        assert_eq!(ord, Ordering::Less);
        // Loser C re-coded relative to winner B: offset 3, value 9 -> "109".
        assert_eq!(c_code.paper_decimal(), 109);
        assert_eq!(b_code.paper_decimal(), 307, "winner's code unchanged");
        // Columns 2 and 3 were compared (resume starts past offset+value).
        assert_eq!(stats.col_value_cmps(), 2);
    }

    #[test]
    fn equal_keys_report_equal_without_touching_codes() {
        let stats = Stats::default();
        let a = [1u64, 2, 3];
        let b = [1u64, 2, 3];
        let mut ac = Ovc::new(0, 1, 3);
        let mut bc = Ovc::new(0, 1, 3);
        let ord = compare_same_base(&a, &b, &mut ac, &mut bc, &stats);
        assert_eq!(ord, Ordering::Equal);
        assert_eq!(ac, Ovc::new(0, 1, 3));
        assert_eq!(bc, Ovc::new(0, 1, 3));
    }

    #[test]
    fn duplicate_codes_short_circuit() {
        let stats = Stats::default();
        let a = [1u64, 2];
        let b = [1u64, 2];
        let mut ac = Ovc::duplicate();
        let mut bc = Ovc::duplicate();
        let ord = compare_same_base(&a, &b, &mut ac, &mut bc, &stats);
        assert_eq!(ord, Ordering::Equal);
        assert_eq!(stats.col_value_cmps(), 0);
    }

    #[test]
    fn fence_comparisons_are_free() {
        let stats = Stats::default();
        let key = [5u64];
        let mut valid = Ovc::new(0, 5, 1);
        let mut late = Ovc::LATE_FENCE;
        let ord = compare_same_base(&key, &key, &mut valid, &mut late, &stats);
        assert_eq!(ord, Ordering::Less);
        assert_eq!(stats.col_value_cmps(), 0);
        assert!(late.is_late_fence(), "fences are never re-coded");

        let mut early = Ovc::EARLY_FENCE;
        let mut late2 = Ovc::LATE_FENCE;
        assert_eq!(
            compare_same_base(&key, &key, &mut early, &mut late2, &stats),
            Ordering::Less
        );
    }

    #[test]
    fn two_late_fences_compare_equal() {
        let stats = Stats::default();
        let key = [5u64];
        let mut a = Ovc::LATE_FENCE;
        let mut b = Ovc::LATE_FENCE;
        assert_eq!(
            compare_same_base(&key, &key, &mut a, &mut b, &stats),
            Ordering::Equal
        );
    }

    #[test]
    fn full_compare_sets_loser_code() {
        let stats = Stats::default();
        let a = [4u64, 4, 9];
        let b = [4u64, 5, 0];
        let mut ac = Ovc::EARLY_FENCE;
        let mut bc = Ovc::EARLY_FENCE;
        let ord = full_compare_set_loser(&a, &b, &mut ac, &mut bc, &stats);
        assert_eq!(ord, Ordering::Less);
        assert_eq!(bc, Ovc::new(1, 5, 3));
        assert!(ac.is_early_fence(), "winner untouched");
        assert_eq!(stats.col_value_cmps(), 2);
    }

    #[test]
    fn full_compare_equal_keys() {
        let stats = Stats::default();
        let a = [4u64, 4];
        let mut ac = Ovc::EARLY_FENCE;
        let mut bc = Ovc::EARLY_FENCE;
        assert_eq!(
            full_compare_set_loser(&a, &a.clone(), &mut ac, &mut bc, &stats),
            Ordering::Equal
        );
    }

    #[test]
    fn derive_code_matches_definition() {
        let stats = Stats::default();
        assert_eq!(
            derive_code(&[5, 7, 3, 9], &[5, 7, 3, 12], &stats),
            Ovc::new(3, 12, 4)
        );
        assert_eq!(
            derive_code(&[5, 9, 2, 7], &[5, 9, 2, 7], &stats),
            Ovc::duplicate()
        );
        assert_eq!(derive_code(&[1], &[2], &stats), Ovc::new(0, 2, 1));
    }

    #[test]
    fn saturated_codes_recheck_offset_column() {
        // Two distinct huge values clamp to the same code; the comparator
        // must re-compare the offset column itself and still order them.
        let stats = Stats::default();
        let big_a = crate::ovc::VALUE_MASK + 5; // clamps
        let big_b = crate::ovc::VALUE_MASK + 9; // clamps to the same field
        let a = [big_a, 0];
        let b = [big_b, 0];
        let mut ac = Ovc::new(0, big_a, 2);
        let mut bc = Ovc::new(0, big_b, 2);
        assert_eq!(ac, bc, "clamped codes collide");
        let ord = compare_same_base(&a, &b, &mut ac, &mut bc, &stats);
        assert_eq!(ord, Ordering::Less);
        assert_eq!(bc, Ovc::new(0, big_b, 2), "loser re-coded at offset 0");
        assert!(stats.col_value_cmps() >= 1);
    }

    #[test]
    fn spec_compare_agrees_with_plain_on_ascending_specs() {
        use crate::spec::SortSpec;
        let spec = SortSpec::asc(4);
        let stats = Stats::default();
        let b_key = [3u64, 7, 4, 7];
        let c_key = [3u64, 7, 4, 9];
        let mut b1 = Ovc::new(1, 7, 4);
        let mut c1 = Ovc::new(1, 7, 4);
        let mut b2 = b1;
        let mut c2 = c1;
        let plain = compare_same_base(&b_key, &c_key, &mut b1, &mut c1, &stats);
        let spec_ord = compare_same_base_spec(&b_key, &c_key, &mut b2, &mut c2, &spec, &stats);
        assert_eq!(plain, spec_ord);
        assert_eq!((b1, c1), (b2, c2), "identical recoding");
        assert_eq!(
            derive_code(&[5, 7, 3, 9], &[5, 7, 3, 12], &stats),
            derive_code_spec(&[5, 7, 3, 9], &[5, 7, 3, 12], &spec, &stats)
        );
    }

    #[test]
    fn spec_compare_orders_descending_keys() {
        use crate::spec::{Direction, SortSpec};
        let spec = SortSpec::with_dirs(&[Direction::Asc, Direction::Desc]);
        let stats = Stats::default();
        // Base (3, 9); B = (3, 7), C = (3, 2): desc on c1 puts B before C.
        let base = [3u64, 9];
        let b_key = [3u64, 7];
        let c_key = [3u64, 2];
        let mut b_code = derive_code_spec(&base, &b_key, &spec, &stats);
        let mut c_code = derive_code_spec(&base, &c_key, &spec, &stats);
        assert!(b_code < c_code, "desc-earlier key has the smaller code");
        let ord = compare_same_base_spec(&b_key, &c_key, &mut b_code, &mut c_code, &spec, &stats);
        assert_eq!(ord, Ordering::Less);
        // Equal codes force column comparisons that respect direction and
        // re-code the loser with the direction-encoded value.
        let d_key = [4u64, 8];
        let e_key = [4u64, 3];
        let mut d_code = derive_code_spec(&b_key, &d_key, &spec, &stats);
        let e_dup = derive_code_spec(&b_key, &d_key, &spec, &stats);
        let mut e_code = e_dup;
        let ord = compare_same_base_spec(&d_key, &e_key, &mut d_code, &mut e_code, &spec, &stats);
        assert_eq!(ord, Ordering::Less, "8 before 3 under desc");
        assert_eq!(e_code, Ovc::new(1, spec.code_value(1, 3), 2));
    }

    #[test]
    fn spec_compare_descending_lossy_end_recompares_offset_column() {
        use crate::spec::SortSpec;
        // Two huge descending values complement to the same (0) field; the
        // comparator must re-compare the offset column itself.
        let spec = SortSpec::desc(1);
        let stats = Stats::default();
        let a = [u64::MAX - 1];
        let b = [u64::MAX - 9];
        let mut ac = Ovc::new(0, spec.code_value(0, a[0]), 1);
        let mut bc = Ovc::new(0, spec.code_value(0, b[0]), 1);
        assert_eq!(ac, bc, "complemented clamped codes collide");
        let ord = compare_same_base_spec(&a, &b, &mut ac, &mut bc, &spec, &stats);
        assert_eq!(ord, Ordering::Less, "larger value is desc-earlier");
        assert!(stats.col_value_cmps() >= 1);
    }

    #[test]
    fn baseline_comparison_counts_columns() {
        let stats = Stats::default();
        assert_eq!(
            compare_keys_counted(&[1, 2, 3], &[1, 2, 4], &stats),
            Ordering::Less
        );
        assert_eq!(stats.col_value_cmps(), 3);
        assert_eq!(stats.row_cmps(), 1);
    }
}
