//! Bit-level packing helpers shared by the deparser interpreter, the NIC
//! simulator's completion writeback, and the generated host accessors.
//!
//! Layout convention is network bit order, matching P4 header semantics:
//! the first declared field occupies the most significant bits of byte 0,
//! and multi-byte fields are big-endian. A field at `offset_bits = 12`,
//! `width_bits = 8` spans the low nibble of byte 1 and the high nibble of
//! byte 2.

/// All-ones mask of a field's width: the value domain a `width_bits`
/// hardware slot can carry.
#[inline]
pub fn width_mask(width: u16) -> u128 {
    if width >= 128 {
        u128::MAX
    } else {
        (1u128 << width) - 1
    }
}

/// Write `width` bits of `value` into `buf` starting at absolute bit
/// offset `offset`. Bits beyond `width` in `value` are ignored.
///
/// Byte-aligned fields of byte-multiple width are one big-endian copy;
/// everything else moves up to a byte per step (the head byte's low
/// bits, whole middle bytes, the tail byte's high bits), touching no
/// bit outside the field.
///
/// # Panics
/// Panics if the range `[offset, offset + width)` does not fit in `buf`,
/// or if `width > 128`.
pub fn write_bits(buf: &mut [u8], offset: u32, width: u16, value: u128) {
    assert!(width <= 128, "field width {width} exceeds 128 bits");
    let end = offset as usize + width as usize;
    assert!(
        end <= buf.len() * 8,
        "bit range {offset}..{end} out of buffer of {} bits",
        buf.len() * 8
    );
    // Mask the value to its width so stray high bits cannot leak.
    let value = value & width_mask(width);
    if (offset | u32::from(width)) & 7 == 0 {
        write_bytes_be(buf, offset as usize / 8, width as usize / 8, value);
        return;
    }
    let mut pos = offset as usize;
    let mut left = width as usize;
    while left > 0 {
        // `n` field bits land in this byte, `shift` above its LSB; bit 0
        // of a byte is the MSB (0x80).
        let used = pos % 8;
        let n = (8 - used).min(left);
        let shift = 8 - used - n;
        let ones = (0xFFu16 >> (8 - n)) as u8;
        let chunk = (value >> (left - n)) as u8 & ones;
        buf[pos / 8] = (buf[pos / 8] & !(ones << shift)) | (chunk << shift);
        pos += n;
        left -= n;
    }
}

/// Read `width` bits starting at absolute bit offset `offset` from `buf`.
/// Same stepping as [`write_bits`].
///
/// # Panics
/// Panics if the range does not fit in `buf` or `width > 128`.
#[inline]
pub fn read_bits(buf: &[u8], offset: u32, width: u16) -> u128 {
    assert!(width <= 128, "field width {width} exceeds 128 bits");
    let end = offset as usize + width as usize;
    assert!(
        end <= buf.len() * 8,
        "bit range {offset}..{end} out of buffer of {} bits",
        buf.len() * 8
    );
    if (offset | u32::from(width)) & 7 == 0 {
        return read_bytes_be(buf, offset as usize / 8, width as usize / 8);
    }
    let mut pos = offset as usize;
    let mut left = width as usize;
    let mut out: u128 = 0;
    while left > 0 {
        let used = pos % 8;
        let n = (8 - used).min(left);
        let shift = 8 - used - n;
        let ones = (0xFFu16 >> (8 - n)) as u8;
        out = (out << n) | ((buf[pos / 8] >> shift) & ones) as u128;
        pos += n;
        left -= n;
    }
    out
}

/// Fast path for byte-aligned fields of byte-multiple width: plain
/// big-endian store. Generated accessors rely on this equivalence.
fn write_bytes_be(buf: &mut [u8], offset_bytes: usize, width_bytes: usize, value: u128) {
    assert!(width_bytes <= 16);
    let be = value.to_be_bytes();
    buf[offset_bytes..offset_bytes + width_bytes].copy_from_slice(&be[16 - width_bytes..]);
}

/// Fast path for byte-aligned fields of byte-multiple width: plain
/// big-endian load.
#[inline]
pub fn read_bytes_be(buf: &[u8], offset_bytes: usize, width_bytes: usize) -> u128 {
    assert!(width_bytes <= 16);
    let mut be = [0u8; 16];
    be[16 - width_bytes..].copy_from_slice(&buf[offset_bytes..offset_bytes + width_bytes]);
    u128::from_be_bytes(be)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bit-serial reference `write_bits` is checked against: bit `i`
    /// of the field (0 = most significant) lands at absolute bit
    /// `offset + i`, and bit 0 of a byte is its MSB (0x80).
    fn write_bits_serial(buf: &mut [u8], offset: u32, width: u16, value: u128) {
        for i in 0..width as usize {
            let abs = offset as usize + i;
            let shift = 7 - (abs % 8);
            if (value >> (width as usize - 1 - i)) & 1 == 1 {
                buf[abs / 8] |= 1 << shift;
            } else {
                buf[abs / 8] &= !(1 << shift);
            }
        }
    }

    /// Bit-serial reference for `read_bits`.
    fn read_bits_serial(buf: &[u8], offset: u32, width: u16) -> u128 {
        (0..width as usize).fold(0, |out, i| {
            let abs = offset as usize + i;
            (out << 1) | ((buf[abs / 8] >> (7 - (abs % 8))) & 1) as u128
        })
    }

    #[test]
    fn aligned_big_endian_layout() {
        let mut buf = [0u8; 8];
        write_bits(&mut buf, 0, 32, 0xDEADBEEF);
        assert_eq!(&buf[..4], &[0xDE, 0xAD, 0xBE, 0xEF]);
        assert_eq!(read_bits(&buf, 0, 32), 0xDEADBEEF);
    }

    #[test]
    fn unaligned_field_straddles_bytes() {
        let mut buf = [0u8; 2];
        // 4-bit offset, 8-bit field: low nibble of byte 0 + high nibble of 1.
        write_bits(&mut buf, 4, 8, 0xAB);
        assert_eq!(buf, [0x0A, 0xB0]);
        assert_eq!(read_bits(&buf, 4, 8), 0xAB);
    }

    #[test]
    fn adjacent_fields_do_not_clobber() {
        let mut buf = [0u8; 2];
        write_bits(&mut buf, 0, 3, 0b101);
        write_bits(&mut buf, 3, 5, 0b11111);
        write_bits(&mut buf, 8, 8, 0x5A);
        assert_eq!(read_bits(&buf, 0, 3), 0b101);
        assert_eq!(read_bits(&buf, 3, 5), 0b11111);
        assert_eq!(read_bits(&buf, 8, 8), 0x5A);
    }

    #[test]
    fn overwrite_clears_old_bits() {
        let mut buf = [0xFFu8; 2];
        write_bits(&mut buf, 4, 8, 0x00);
        assert_eq!(buf, [0xF0, 0x0F]);
    }

    #[test]
    fn value_masked_to_width() {
        let mut buf = [0u8; 1];
        write_bits(&mut buf, 0, 4, 0xFF);
        assert_eq!(read_bits(&buf, 0, 4), 0xF);
        assert_eq!(buf[0], 0xF0);
    }

    #[test]
    fn full_128_bit_field() {
        let mut buf = [0u8; 16];
        let v = u128::MAX - 12345;
        write_bits(&mut buf, 0, 128, v);
        assert_eq!(read_bits(&buf, 0, 128), v);
    }

    #[test]
    fn byte_helpers_match_bit_helpers() {
        let mut a = [0u8; 8];
        let mut b = [0u8; 8];
        write_bits(&mut a, 16, 32, 0xCAFEBABE);
        write_bytes_be(&mut b, 2, 4, 0xCAFEBABE);
        assert_eq!(a, b);
        assert_eq!(read_bytes_be(&a, 2, 4), read_bits(&a, 16, 32));
    }

    #[test]
    #[should_panic(expected = "out of buffer")]
    fn out_of_range_write_panics() {
        let mut buf = [0u8; 1];
        write_bits(&mut buf, 4, 8, 0);
    }

    #[test]
    #[should_panic(expected = "out of buffer")]
    fn out_of_range_read_panics() {
        read_bits(&[0u8; 2], 9, 8);
    }

    #[test]
    #[should_panic(expected = "out of buffer")]
    fn out_of_range_aligned_write_panics() {
        write_bits(&mut [0u8; 1], 0, 16, 0);
    }

    #[test]
    #[should_panic(expected = "exceeds 128 bits")]
    fn over_wide_write_panics() {
        write_bits(&mut [0u8; 32], 0, 129, 0);
    }

    proptest! {
        /// Any offset, any width up to 128, any value, any prior buffer
        /// contents: the byte-stepping kernels equal the bit-serial
        /// oracle, which also pins that neighbouring bits are untouched.
        #[test]
        fn kernels_match_bit_serial_oracle(
            offset in 0u32..=130,
            width in 1u16..=128,
            value in any::<u128>(),
            fill in proptest::collection::vec(any::<u8>(), 33..=33),
        ) {
            let mut fast = fill.clone();
            let mut slow = fill.clone();
            write_bits(&mut fast, offset, width, value);
            write_bits_serial(&mut slow, offset, width, value);
            prop_assert_eq!(&fast, &slow);
            prop_assert_eq!(read_bits(&fill, offset, width), read_bits_serial(&fill, offset, width));
            prop_assert_eq!(read_bits(&fast, offset, width), value & width_mask(width));
        }

        #[test]
        fn roundtrip_any_field(
            offset in 0u32..64,
            width in 1u16..=64,
            value in any::<u128>(),
        ) {
            let mut buf = [0u8; 16];
            write_bits(&mut buf, offset, width, value);
            let masked = if width == 128 { value } else { value & ((1u128 << width) - 1) };
            prop_assert_eq!(read_bits(&buf, offset, width), masked);
        }

        #[test]
        fn disjoint_fields_independent(
            w1 in 1u16..=32,
            w2 in 1u16..=32,
            v1 in any::<u128>(),
            v2 in any::<u128>(),
        ) {
            let mut buf = [0u8; 16];
            write_bits(&mut buf, 0, w1, v1);
            write_bits(&mut buf, w1 as u32, w2, v2);
            let m1 = v1 & ((1u128 << w1) - 1);
            let m2 = v2 & ((1u128 << w2) - 1);
            prop_assert_eq!(read_bits(&buf, 0, w1), m1);
            prop_assert_eq!(read_bits(&buf, w1 as u32, w2), m2);
        }

        #[test]
        fn aligned_equivalence(off_bytes in 0usize..8, wb in 1usize..=8, v in any::<u128>()) {
            let mut a = [0u8; 16];
            let mut b = [0u8; 16];
            let width = (wb * 8) as u16;
            let masked = v & ((1u128 << width) - 1);
            write_bits(&mut a, (off_bytes * 8) as u32, width, v);
            write_bytes_be(&mut b, off_bytes, wb, masked);
            prop_assert_eq!(a, b);
        }
    }
}
