//! The paper's new theorem, its corollaries, and the filter-theorem
//! accumulator every order-preserving operator uses to produce output codes.
//!
//! **Theorem** (Section 4): for keys `A < B < C`, in ascending offset-value
//! coding `ovc(A,C) = max(ovc(A,B), ovc(B,C))`.
//!
//! **Filter corollary**: for a sorted chain `X0 < X1 < … < Xn`,
//! `ovc(X0,Xn) = max_{i=1..n} ovc(X(i-1),Xi)`.
//!
//! The corollary is what makes output-code computation O(1) integer work
//! per row: when an operator drops rows from a sorted stream (filter, semi
//! join, dedup, …), the code of each surviving row is the running `max` of
//! the codes of all rows consumed since the previous surviving row —
//! no column values are touched.

use crate::ovc::Ovc;

/// Combine two adjacent ascending codes per the theorem:
/// `ovc(A,C) = max(ovc(A,B), ovc(B,C))`.
///
/// [`Ovc::EARLY_FENCE`] is the identity element, which is why the
/// accumulator below can start "empty".
#[inline]
pub fn combine(ab: Ovc, bc: Ovc) -> Ovc {
    ab.max(bc)
}

/// Running filter-theorem accumulator.
///
/// Feed it the input code of **every** consumed row (dropped or kept); ask
/// it for the output code whenever a row is emitted.  Internally it is one
/// `max` per row — the "simple and efficient integer calculations" of
/// Section 4.1.
///
/// ```
/// use ovc_core::{Ovc, theorem::OvcAccumulator};
/// let mut acc = OvcAccumulator::new();
/// acc.absorb(Ovc::new(0, 5, 4));      // row dropped by the predicate
/// acc.absorb(Ovc::new(3, 12, 4));     // row dropped by the predicate
/// let out = acc.emit(Ovc::new(1, 8, 4)); // row kept
/// assert_eq!(out, Ovc::new(0, 5, 4)); // max of the three codes
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct OvcAccumulator {
    pending: Ovc,
}

impl OvcAccumulator {
    /// A fresh accumulator with no pending codes.
    #[inline]
    pub fn new() -> Self {
        OvcAccumulator {
            pending: Ovc::EARLY_FENCE,
        }
    }

    /// Absorb the input code of a row that does **not** produce output
    /// (failed predicate, duplicate, non-matching join row, …).
    #[inline]
    pub fn absorb(&mut self, code: Ovc) {
        debug_assert!(!code.is_late_fence());
        self.pending = self.pending.max(code);
    }

    /// Emit the output code for a surviving row whose input code is
    /// `kept`: the max of `kept` and everything absorbed since the last
    /// emit.  Resets the pending state.
    #[inline]
    pub fn emit(&mut self, kept: Ovc) -> Ovc {
        let out = self.pending.max(kept);
        self.pending = Ovc::EARLY_FENCE;
        out
    }
}

/// Clamp a code's offset to a shorter key prefix of `new_arity` columns
/// (out of `arity`), re-expressing it for the truncated sort key.
///
/// Used by projection (Section 4.2: "the offset must be limited to the
/// prefix that survives"), segmented sorting (Section 4.3: "all other
/// offsets must be cut to the size of the segmentation key"), grouping
/// (output arity = grouping-key length), and merge join (output codes are
/// over the join key).
///
/// A code whose offset is within the surviving prefix is unchanged except
/// for the arity re-basing; a code whose offset is at or past the prefix
/// becomes the duplicate code for the shorter key (the rows agree on the
/// entire surviving prefix).
#[inline]
pub fn clamp_to_prefix(code: Ovc, arity: usize, new_arity: usize) -> Ovc {
    debug_assert!(new_arity <= arity);
    if !code.is_valid() {
        return code;
    }
    let offset = code.offset(arity);
    if offset >= new_arity {
        Ovc::duplicate()
    } else {
        Ovc::new(offset, code.value(), new_arity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::derive_code;
    use crate::stats::Stats;

    /// The theorem, checked on the three cases of its proof using the
    /// paper's Table 1 examples (Section 4, "Examples" paragraph).
    #[test]
    fn theorem_case_i_first_rows_of_table1() {
        // Rows 1..3 of Table 1; removing row 2 leaves row 3's code intact.
        let stats = Stats::default();
        let r1 = [5u64, 7, 3, 9];
        let r2 = [5u64, 7, 3, 12];
        let r3 = [5u64, 8, 4, 6];
        let ab = derive_code(&r1, &r2, &stats); // (3,12)
        let bc = derive_code(&r2, &r3, &stats); // (1,8)
        let ac = derive_code(&r1, &r3, &stats); // (1,8)
        assert_eq!(combine(ab, bc), ac);
        assert_eq!(ac, bc, "case (i): pre(A,B) > pre(B,C)");
    }

    #[test]
    fn theorem_case_ii_removed_second_to_last_row() {
        // "if the second-to-last row were removed in Table 1, the codes of
        // the last row would be those of the removed row."
        let stats = Stats::default();
        let a = [5u64, 9, 2, 7];
        let b = [5u64, 9, 3, 4];
        let c = [5u64, 9, 3, 7];
        let ab = derive_code(&a, &b, &stats); // (2,3)
        let bc = derive_code(&b, &c, &stats); // (3,7)
        let ac = derive_code(&a, &c, &stats); // (2,3)
        assert_eq!(combine(ab, bc), ac);
        assert_eq!(ac, ab, "case (ii): pre(A,B) < pre(B,C)");
    }

    #[test]
    fn theorem_case_iii_removed_third_row() {
        // "if the third row were removed in Table 1, the codes of the
        // fourth row would remain unchanged."
        let stats = Stats::default();
        let a = [5u64, 7, 3, 12];
        let b = [5u64, 8, 4, 6];
        let c = [5u64, 9, 2, 7];
        let ab = derive_code(&a, &b, &stats); // (1,8)
        let bc = derive_code(&b, &c, &stats); // (1,9)
        let ac = derive_code(&a, &c, &stats); // (1,9)
        assert_eq!(combine(ab, bc), ac);
        assert_eq!(ac, bc, "case (iii): equal prefixes, values decide");
    }

    /// Proposition: successive codes in a sorted stream are never equal.
    #[test]
    fn proposition_no_equal_successive_codes() {
        let stats = Stats::default();
        let rows = crate::table1::rows();
        let mut prev_code: Option<Ovc> = None;
        for w in rows.windows(2) {
            let code = derive_code(w[0].key(4), w[1].key(4), &stats);
            if let Some(p) = prev_code {
                // The proposition applies to strictly increasing keys
                // (A != B or B != C); Table 1 contains one duplicate pair,
                // whose neighbour codes still differ.
                assert_ne!(p, code, "ovc(A,B) == ovc(B,C) violates the proposition");
            }
            prev_code = Some(code);
        }
    }

    #[test]
    fn filter_corollary_over_whole_table1() {
        // max over the chain equals ovc(first, last) directly.
        let stats = Stats::default();
        let rows = crate::table1::rows();
        let mut acc = OvcAccumulator::new();
        for w in rows.windows(2) {
            acc.absorb(derive_code(w[0].key(4), w[1].key(4), &stats));
        }
        let combined = acc.emit(Ovc::EARLY_FENCE);
        let direct = derive_code(rows[0].key(4), rows[6].key(4), &stats);
        assert_eq!(combined, direct);
    }

    #[test]
    fn accumulator_identity_and_reset() {
        let mut acc = OvcAccumulator::new();
        let c = Ovc::new(1, 9, 4);
        assert_eq!(acc.emit(c), c, "empty accumulator is the identity");
        acc.absorb(Ovc::new(0, 3, 4));
        assert_eq!(acc.emit(c), Ovc::new(0, 3, 4), "the absorbed code wins");
        assert_eq!(acc.emit(c), c, "emit resets the pending code");
    }

    #[test]
    fn clamp_to_prefix_behaviour() {
        // Offset inside the surviving prefix: value kept, arity re-based.
        let code = Ovc::new(1, 8, 4);
        let clamped = clamp_to_prefix(code, 4, 2);
        assert_eq!(clamped.offset(2), 1);
        assert_eq!(clamped.value(), 8);
        // Offset at/past the prefix: duplicate under the shorter key.
        assert!(clamp_to_prefix(Ovc::new(2, 3, 4), 4, 2).is_duplicate());
        assert!(clamp_to_prefix(Ovc::new(3, 7, 4), 4, 2).is_duplicate());
        assert!(clamp_to_prefix(Ovc::duplicate(), 4, 2).is_duplicate());
        // Fences pass through.
        assert!(clamp_to_prefix(Ovc::LATE_FENCE, 4, 2).is_late_fence());
    }

    #[test]
    fn clamp_preserves_relative_order_within_prefix() {
        let a = Ovc::new(0, 5, 4);
        let b = Ovc::new(1, 8, 4);
        let (ca, cb) = (clamp_to_prefix(a, 4, 2), clamp_to_prefix(b, 4, 2));
        assert!(ca > cb, "order among surviving offsets is preserved");
    }
}
