//! Ascending offset-value codes packed into a single `u64`.
//!
//! An offset-value code (OVC) captures one row's key relative to another key
//! earlier in the sort sequence (Section 3 of the paper).  The *offset* is
//! the length of the maximal shared prefix; the *value* is the loser's data
//! at that offset.  For ascending sort order the code stores
//! `arity - offset` in the high bits and the value in the low bits, so a
//! single unsigned integer comparison orders two codes: a longer shared
//! prefix (higher offset) yields a smaller code and therefore sorts earlier.
//!
//! Following the F1 implementation described in Section 5, fences ("invalid"
//! key values marking not-yet-filled or exhausted merge inputs) are folded
//! into the same 64-bit integer so that one comparison instruction handles
//! fences and codes alike:
//!
//! ```text
//! bit 63..62 : 01 = valid code   (early fence = all zeros, late = all ones)
//! bit 61..48 : arity - offset    (14 bits: up to 16383 key columns)
//! bit 47..0  : column value, clamped monotonically to 48 bits
//! ```
//!
//! The paper's test data uses small domains where values fit the field
//! exactly.  For arbitrary `u64` column values we clamp the stored value
//! with the monotone map `min(v, 2^48 - 1)`.  Clamping preserves soundness:
//! * if two codes differ, the underlying keys differ in the same direction
//!   (monotonicity), so code comparisons never mis-order rows;
//! * if two codes are equal but the value field is saturated, the comparator
//!   falls back to column comparisons *starting at the offset* (instead of
//!   offset + 1), so a hidden difference at the offset column is found.

use crate::row::Value;

/// Number of bits for the clamped column value.
pub const VALUE_BITS: u32 = 48;
/// Mask for the value field.
pub const VALUE_MASK: u64 = (1u64 << VALUE_BITS) - 1;
/// Number of bits for the `arity - offset` field.
pub const OFFSET_BITS: u32 = 14;
/// Mask for the `arity - offset` field (after shifting).
pub const OFFSET_FIELD_MASK: u64 = (1u64 << OFFSET_BITS) - 1;
/// Maximum supported sort-key arity.
pub const MAX_ARITY: usize = OFFSET_FIELD_MASK as usize;
/// The "valid code" tag bit pattern (bits 63..62 = 01).
const VALID_TAG: u64 = 1u64 << 62;

/// Monotone clamp of a column value into the 48-bit value field.
#[inline]
pub fn clamp_value(v: Value) -> u64 {
    v.min(VALUE_MASK)
}

/// An ascending offset-value code.
///
/// Total order: **smaller code = earlier in ascending sort order** (for two
/// keys coded relative to the same base).  The early fence is smaller than
/// every valid code and the late fence larger, so fence handling is free.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ovc(u64);

impl Ovc {
    /// Early fence: sorts before every valid code.  Used for queue slots
    /// that have not been filled yet.
    pub const EARLY_FENCE: Ovc = Ovc(0);

    /// Late fence: sorts after every valid code.  Used for exhausted merge
    /// inputs.
    pub const LATE_FENCE: Ovc = Ovc(u64::MAX);

    /// Construct a valid code from an offset, the value at that offset, and
    /// the sort-key arity.
    ///
    /// `offset == arity` encodes a duplicate key (the entire key is shared);
    /// the value field is empty in that case, matching Table 1's "-" rows.
    ///
    /// Panics (debug) if `offset > arity` or `arity > MAX_ARITY`.
    #[inline]
    pub fn new(offset: usize, value: Value, arity: usize) -> Ovc {
        debug_assert!(
            arity <= MAX_ARITY,
            "sort-key arity {arity} exceeds {MAX_ARITY}"
        );
        debug_assert!(offset <= arity, "offset {offset} exceeds arity {arity}");
        if offset == arity {
            return Ovc::duplicate();
        }
        let field = (arity - offset) as u64;
        Ovc(VALID_TAG | (field << VALUE_BITS) | clamp_value(value))
    }

    /// The code of a duplicate key: offset equals the arity, no value.
    ///
    /// This is the smallest valid code, so duplicates sort directly behind
    /// their base — Table 1's fifth row (`400` descending / `0` ascending).
    #[inline]
    pub const fn duplicate() -> Ovc {
        Ovc(VALID_TAG)
    }

    /// The code of the first row of a stream: relative to an imaginary "−∞"
    /// predecessor that shares no prefix, i.e. offset 0 and the row's first
    /// key column as value (Table 1, first row).
    ///
    /// An empty key (arity 0) yields the duplicate code: all rows compare
    /// equal under an empty key.
    #[inline]
    pub fn initial(key: &[Value]) -> Ovc {
        if key.is_empty() {
            Ovc::duplicate()
        } else {
            Ovc::new(0, key[0], key.len())
        }
    }

    /// Raw 64-bit representation (for spill formats and display).
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Rebuild a code from its raw representation.
    #[inline]
    pub const fn from_raw(raw: u64) -> Ovc {
        Ovc(raw)
    }

    /// Is this a valid code (not a fence)?
    #[inline]
    pub const fn is_valid(self) -> bool {
        (self.0 >> 62) == 0b01
    }

    /// Is this the early fence?
    #[inline]
    pub const fn is_early_fence(self) -> bool {
        self.0 == 0
    }

    /// Is this the late fence?
    #[inline]
    pub const fn is_late_fence(self) -> bool {
        self.0 == u64::MAX
    }

    /// The `arity - offset` field.  Zero means a duplicate key.
    #[inline]
    pub const fn arity_minus_offset(self) -> usize {
        ((self.0 >> VALUE_BITS) & OFFSET_FIELD_MASK) as usize
    }

    /// The offset (shared-prefix length) encoded in this code, given the
    /// sort-key arity.
    #[inline]
    pub fn offset(self, arity: usize) -> usize {
        debug_assert!(self.is_valid());
        debug_assert!(self.arity_minus_offset() <= arity);
        arity - self.arity_minus_offset()
    }

    /// The (clamped) value field.
    #[inline]
    pub const fn value(self) -> u64 {
        self.0 & VALUE_MASK
    }

    /// True if the value field was saturated by clamping, in which case a
    /// code-equality tie must re-compare the offset column itself.
    #[inline]
    pub const fn value_saturated(self) -> bool {
        (self.0 & VALUE_MASK) == VALUE_MASK
    }

    /// Does this code mark a duplicate key (offset == arity)?
    #[inline]
    pub fn is_duplicate(self) -> bool {
        self.is_valid() && self.arity_minus_offset() == 0
    }

    /// Is this a valid code other than the duplicate code: the only kind
    /// whose equality with another same-base code leaves the keys'
    /// order open?  Equal to `is_valid() && !is_duplicate()`, as one
    /// range check, so a tournament tests it without a second branch.
    #[inline]
    pub const fn is_valid_non_duplicate(self) -> bool {
        const LO: u64 = VALID_TAG | (1 << VALUE_BITS);
        self.0.wrapping_sub(LO) < (1 << 63) - LO
    }

    /// Render the code the way the paper's Table 1 does for a decimal
    /// domain: `(arity - offset) * 100 + value`, with duplicates shown as 0.
    ///
    /// Only meaningful for values below 100; used by examples and tests that
    /// reproduce the paper's tables verbatim.
    pub fn paper_decimal(self) -> u64 {
        debug_assert!(self.is_valid());
        (self.arity_minus_offset() as u64) * 100 + self.value()
    }

    /// First column index at which a comparator must resume column
    /// comparisons after two *equal* codes, given the sort-key arity.
    ///
    /// Equal unsaturated codes prove equality at the offset column, so the
    /// comparison resumes at `offset + 1`; saturated codes may hide a
    /// difference at the offset column itself.
    #[inline]
    pub fn resume_column(self, arity: usize) -> usize {
        let off = self.offset(arity);
        if self.value_saturated() {
            off
        } else {
            off + 1
        }
    }
}

impl Default for Ovc {
    /// The early fence: identity element for the ascending `max` theorem.
    fn default() -> Self {
        Ovc::EARLY_FENCE
    }
}

impl std::fmt::Debug for Ovc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_early_fence() {
            write!(f, "Ovc(EARLY)")
        } else if self.is_late_fence() {
            write!(f, "Ovc(LATE)")
        } else if !self.is_valid() {
            write!(f, "Ovc(raw={:#x})", self.0)
        } else if self.arity_minus_offset() == 0 {
            write!(f, "Ovc(dup)")
        } else {
            write!(
                f,
                "Ovc(arity-offset={}, value={})",
                self.arity_minus_offset(),
                self.value()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fences_bracket_valid_codes() {
        let lo = Ovc::new(3, 0, 4); // deep offset, tiny value
        let hi = Ovc::new(0, VALUE_MASK, 4); // no shared prefix, huge value
        assert!(Ovc::EARLY_FENCE < Ovc::duplicate());
        assert!(Ovc::EARLY_FENCE < lo);
        assert!(lo < hi);
        assert!(hi < Ovc::LATE_FENCE);
        assert!(Ovc::duplicate() < lo);
    }

    #[test]
    fn higher_offset_sorts_earlier() {
        // Same base: a key sharing 3 columns sorts before one sharing 1.
        let deep = Ovc::new(3, 99, 4);
        let shallow = Ovc::new(1, 1, 4);
        assert!(deep < shallow);
    }

    #[test]
    fn same_offset_orders_by_value() {
        let small = Ovc::new(2, 10, 4);
        let big = Ovc::new(2, 11, 4);
        assert!(small < big);
    }

    #[test]
    fn round_trip_offset_and_value() {
        for arity in 1..=6usize {
            for offset in 0..arity {
                let c = Ovc::new(offset, 42, arity);
                assert!(c.is_valid());
                assert_eq!(c.offset(arity), offset);
                assert_eq!(c.value(), 42);
                assert!(!c.is_duplicate());
            }
            let dup = Ovc::new(arity, 0, arity);
            assert!(dup.is_duplicate());
            assert_eq!(dup.offset(arity), arity);
        }
    }

    #[test]
    fn valid_non_duplicate_is_one_range() {
        let edges = [
            0,
            1,
            VALID_TAG - 1,
            VALID_TAG,
            VALID_TAG + 1,
            VALID_TAG | VALUE_MASK,
            VALID_TAG | (1 << VALUE_BITS),
            (1 << 63) - 1,
            1 << 63,
            u64::MAX,
        ];
        let codes = edges
            .into_iter()
            .map(Ovc::from_raw)
            .chain([Ovc::new(0, 0, 1), Ovc::new(2, VALUE_MASK, 3)]);
        for c in codes {
            assert_eq!(
                c.is_valid_non_duplicate(),
                c.is_valid() && !c.is_duplicate(),
                "{c:?}"
            );
        }
    }

    #[test]
    fn duplicate_is_smallest_valid_code() {
        let dup = Ovc::duplicate();
        for offset in 0..4 {
            assert!(dup < Ovc::new(offset, 0, 4));
        }
        assert!(Ovc::EARLY_FENCE < dup);
    }

    #[test]
    fn clamping_is_monotone_and_detected() {
        let a = Ovc::new(0, VALUE_MASK - 1, 1);
        let b = Ovc::new(0, VALUE_MASK, 1);
        let c = Ovc::new(0, u64::MAX, 1);
        assert!(a < b);
        assert_eq!(b, c); // both saturate
        assert!(!a.value_saturated());
        assert!(b.value_saturated());
        assert_eq!(b.resume_column(1), 0);
        assert_eq!(a.resume_column(1), 1);
    }

    #[test]
    fn initial_code_matches_table1_first_row() {
        // Table 1, first row: key (5,7,3,9), arity 4 => ascending code 405.
        let code = Ovc::initial(&[5, 7, 3, 9]);
        assert_eq!(code.offset(4), 0);
        assert_eq!(code.value(), 5);
        assert_eq!(code.paper_decimal(), 405);
    }

    #[test]
    fn initial_code_empty_key_is_duplicate() {
        assert!(Ovc::initial(&[]).is_duplicate());
    }

    #[test]
    fn raw_round_trip() {
        let c = Ovc::new(2, 77, 5);
        assert_eq!(Ovc::from_raw(c.raw()), c);
    }

    #[test]
    fn debug_formatting() {
        assert_eq!(format!("{:?}", Ovc::EARLY_FENCE), "Ovc(EARLY)");
        assert_eq!(format!("{:?}", Ovc::LATE_FENCE), "Ovc(LATE)");
        assert_eq!(format!("{:?}", Ovc::duplicate()), "Ovc(dup)");
        assert_eq!(
            format!("{:?}", Ovc::new(1, 9, 4)),
            "Ovc(arity-offset=3, value=9)"
        );
    }
}
