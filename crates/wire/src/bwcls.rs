//! The 10-bit bandwidth field codec (Appendix A.4).
//!
//! The flyover hop field carries the reserved bandwidth in 10 bits encoded
//! like a tiny unsigned float: 5 bits of exponent `e` and 5 bits of
//! significand `s`, decoding to
//!
//! ```text
//! value = s                       if e == 0
//! value = (32 + s) << (e - 1)     otherwise
//! ```
//!
//! which covers `0 ..= (32+31) << 30` (almost 2^36) with even spacing inside
//! each octave. The paper expresses bandwidth in kbps at this layer; with
//! kbps units the top of the range is ~67 Tbps.

/// Maximum raw encoded value (10 bits).
pub(crate) const ENC_MAX: u16 = (1 << 10) - 1;
/// Maximum decodable bandwidth value.
pub const VALUE_MAX: u64 = 63u64 << 30;

/// Decodes a 10-bit bandwidth class to its value.
///
/// Values above 10 bits are masked (the wire field cannot carry them).
pub fn decode(enc: u16) -> u64 {
    let enc = enc & ENC_MAX;
    let exponent = (enc >> 5) as u64;
    let significand = (enc & 0x1f) as u64;
    if exponent == 0 {
        significand
    } else {
        (32 + significand) << (exponent - 1)
    }
}

/// Encodes `value`, rounding **down** to the nearest representable value.
///
/// Used when granting reservations: an AS must never authorize more
/// bandwidth on the wire than was purchased. Returns `None` if `value`
/// exceeds [`VALUE_MAX`].
pub fn encode_floor(value: u64) -> Option<u16> {
    if value > VALUE_MAX {
        return None;
    }
    if value < 32 {
        return Some(value as u16);
    }
    // Find the octave: largest e >= 1 with (32 << (e-1)) <= value.
    let msb = 63 - value.leading_zeros() as u64; // value >= 32 so msb >= 5
    let exponent = msb - 4; // (32+s) << (e-1) spans [32<<(e-1), 63<<(e-1)]
    let significand = (value >> (exponent - 1)) - 32;
    debug_assert!(significand < 32);
    Some(((exponent as u16) << 5) | significand as u16)
}

/// Encodes `value`, rounding **up** to the nearest representable value.
///
/// Used when requesting reservations: a buyer rounding up never receives
/// less than requested. Returns `None` if the rounded value would exceed
/// [`VALUE_MAX`].
pub fn encode_ceil(value: u64) -> Option<u16> {
    let enc = encode_floor(value)?;
    if decode(enc) == value {
        return Some(enc);
    }
    if enc >= ENC_MAX {
        return None;
    }
    Some(enc + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_spec_examples() {
        // e == 0: value == significand.
        assert_eq!(decode(0), 0);
        assert_eq!(decode(31), 31);
        // e == 1: (32 + s) << 0.
        assert_eq!(decode(1 << 5), 32);
        assert_eq!(decode((1 << 5) | 31), 63);
        // e == 2: (32 + s) << 1.
        assert_eq!(decode(2 << 5), 64);
        // max encoding.
        assert_eq!(decode(ENC_MAX), VALUE_MAX);
    }

    #[test]
    fn decode_is_monotonic() {
        let mut prev = 0;
        for enc in 0..=ENC_MAX {
            let v = decode(enc);
            assert!(v >= prev, "decode must be non-decreasing at {enc}");
            prev = v;
        }
    }

    #[test]
    fn exact_values_roundtrip() {
        for enc in 0..=ENC_MAX {
            let v = decode(enc);
            assert_eq!(encode_floor(v), Some(enc), "floor roundtrip at {enc}");
            assert_eq!(encode_ceil(v), Some(enc), "ceil roundtrip at {enc}");
        }
    }

    #[test]
    fn floor_never_exceeds_value() {
        for value in [0u64, 1, 31, 32, 33, 63, 64, 65, 100, 1000, 123_456, 999_999_999] {
            let enc = encode_floor(value).unwrap();
            assert!(decode(enc) <= value, "floor({value}) overshot");
        }
    }

    #[test]
    fn ceil_never_undershoots_value() {
        for value in [0u64, 1, 31, 32, 33, 63, 64, 65, 100, 1000, 123_456, 999_999_999] {
            let enc = encode_ceil(value).unwrap();
            assert!(decode(enc) >= value, "ceil({value}) undershot");
        }
    }

    #[test]
    fn out_of_range_rejected() {
        assert_eq!(encode_floor(VALUE_MAX + 1), None);
        assert_eq!(encode_ceil(VALUE_MAX + 1), None);
        assert_eq!(encode_floor(VALUE_MAX), Some(ENC_MAX));
    }

    #[test]
    fn relative_error_is_bounded() {
        // Spacing within an octave is 1/32 ⇒ floor error < 1/32 of value.
        for value in (32u64..100_000).step_by(977) {
            let enc = encode_floor(value).unwrap();
            let decoded = decode(enc);
            assert!(value - decoded <= value / 32, "error too large at {value}");
        }
    }
}
