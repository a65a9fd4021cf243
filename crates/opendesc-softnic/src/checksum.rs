//! Internet checksum (RFC 1071) and the IPv4/L4 helpers built on it.
//!
//! These are the reference software implementations behind the
//! `ip_checksum` and `l4_checksum` semantics: when the selected completion
//! layout does not carry checksum validity, the SoftNIC shim recomputes it
//! here (at the cost the selection objective charged for it).

use crate::wire::{ipproto, ParsedFrame};

/// RFC 1071 one's-complement sum over `data`, returned folded and
/// complemented (i.e. the value to *store* in a checksum field computed
/// over data whose checksum field is zero; a verify over data including a
/// correct checksum yields 0).
pub fn internet_checksum(data: &[u8]) -> u16 {
    !fold(sum_words(data, 0))
}

/// One's-complement sum of `data` as big-endian 16-bit words (an odd
/// tail byte is padded with a zero), added to `acc`.
///
/// RFC 1071 §2: the sum depends neither on the width it is taken in nor
/// on the byte order, as long as the result is swapped back. So the
/// body is read 8 bytes per step in native order and added as two
/// 32-bit lanes to 64-bit accumulators — no lane can carry out (that
/// would take 32 GiB of input), which leaves the loop free of carry
/// chains and byte swaps — and only the last seven bytes at most go 16
/// bits at a time. The end-around carries are brought back once, at the
/// end, down to 16 bits; that value is swapped into network order and
/// added to `acc`. The result is congruent to the halfword-serial sum
/// modulo `0xFFFF` and zero only when that sum is, which is all
/// [`fold`] looks at.
fn sum_words(data: &[u8], acc: u32) -> u32 {
    let mut words = data.chunks_exact(8);
    let (mut even, mut odd) = (0u64, 0u64);
    for w in &mut words {
        let w = u64::from_ne_bytes(w.try_into().expect("chunks_exact(8) yields 8 bytes"));
        even += w & 0xFFFF_FFFF;
        odd += w >> 32;
    }
    let mut sum = even + odd;
    let mut halves = words.remainder().chunks_exact(2);
    for h in &mut halves {
        sum += u64::from(u16::from_ne_bytes([h[0], h[1]]));
    }
    if let [last] = halves.remainder() {
        sum += u64::from(u16::from_ne_bytes([*last, 0]));
    }
    // 2^32 ≡ 2^16 ≡ 1 (mod 0xFFFF): 64 → 33 → 18 → 17 → 16 bits.
    let sum = (sum >> 32) + (sum & 0xFFFF_FFFF);
    let sum = (sum >> 16) + (sum & 0xFFFF);
    let sum = (sum >> 16) + (sum & 0xFFFF);
    let sum = (sum >> 16) + (sum & 0xFFFF);
    let sum = u64::from(u16::from_be(sum as u16)) + u64::from(acc);
    // A carry out of bit 31 leaves the low half at most 0xFFFE.
    ((sum >> 32) + (sum & 0xFFFF_FFFF)) as u32
}

fn fold(mut acc: u32) -> u16 {
    while acc > 0xFFFF {
        acc = (acc & 0xFFFF) + (acc >> 16);
    }
    acc as u16
}

/// Checksum of an IPv4 header whose checksum field is zeroed (or whose
/// current value should be replaced).
pub fn ipv4_header_checksum(header: &[u8]) -> u16 {
    debug_assert!(header.len() >= 20);
    let mut acc = sum_words(&header[..10], 0);
    // Skip the checksum field at bytes 10..12.
    acc = sum_words(&header[12..], acc);
    !fold(acc)
}

/// Verify an IPv4 header in place (including its checksum field): valid
/// iff the one's-complement sum is 0xFFFF (folded ~0).
#[inline]
pub fn verify_ipv4_checksum(header: &[u8]) -> bool {
    internet_checksum(header) == 0
}

/// TCP/UDP checksum over the IPv4 pseudo-header plus the L4 segment, with
/// the segment's checksum field assumed zeroed.
pub fn l4_checksum(src_ip: [u8; 4], dst_ip: [u8; 4], proto: u8, segment: &[u8]) -> u16 {
    let mut acc = 0u32;
    acc = sum_words(&src_ip, acc);
    acc = sum_words(&dst_ip, acc);
    acc += proto as u32;
    acc += segment.len() as u32;
    acc = sum_words(segment, acc);
    let c = !fold(acc);
    // UDP transmits an all-zero checksum as 0xFFFF.
    if proto == ipproto::UDP && c == 0 {
        0xFFFF
    } else {
        c
    }
}

/// Verify the L4 checksum of a parsed frame (checksum field included in
/// the sum; valid iff the folded sum complements to zero).
pub fn verify_l4_checksum(p: &ParsedFrame<'_>) -> bool {
    let Some(ip) = &p.ipv4 else { return false };
    let seg = ip.payload();
    if seg.is_empty() {
        return false;
    }
    let mut acc = 0u32;
    acc = sum_words(&ip.src().to_be_bytes(), acc);
    acc = sum_words(&ip.dst().to_be_bytes(), acc);
    acc += ip.protocol() as u32;
    acc += seg.len() as u32;
    acc = sum_words(seg, acc);
    fold(acc) == 0xFFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testpkt;
    use crate::wire::ParsedFrame;
    use proptest::prelude::*;

    /// The halfword-serial sum `sum_words` replaced, kept as its oracle.
    fn sum_words_serial(data: &[u8], mut acc: u32) -> u32 {
        let mut chunks = data.chunks_exact(2);
        for c in &mut chunks {
            acc += u16::from_be_bytes([c[0], c[1]]) as u32;
        }
        if let [last] = chunks.remainder() {
            acc += u16::from_be_bytes([*last, 0]) as u32;
        }
        acc
    }

    /// What the serial sum would fold to from seed `acc`, for seeds so
    /// large its `u32` accumulator would overflow: one's-complement
    /// addition is associative, so fold the two parts and add them.
    fn folded_serial(data: &[u8], acc: u32) -> u16 {
        fold(fold(sum_words_serial(data, 0)) as u32 + fold(acc) as u32)
    }

    #[test]
    fn word_sum_matches_serial_sum_at_every_length_and_alignment() {
        // Backing buffers whose sums carry differently: a byte ramp,
        // all-ones (every add carries) and zeros with one high bit.
        let n = 1600 + 8;
        let ramp: Vec<u8> = (0..n).map(|i| (i * 31 + 7) as u8).collect();
        let ones = vec![0xFFu8; n];
        let mut sparse = vec![0u8; n];
        sparse[n / 2] = 0x80;
        // The largest seed a pseudo-header produces (addresses, protocol
        // and length all-ones) is still far from overflowing the oracle.
        let pseudo_max = 4 * 0xFFFF + 0xFF + 0xFFFF;
        for buf in [&ramp, &ones, &sparse] {
            for start in 0..8 {
                for len in 0..=1600 {
                    let data = &buf[start..start + len];
                    for acc in [0, 1, 0xFFFF, pseudo_max] {
                        assert_eq!(
                            fold(sum_words(data, acc)),
                            fold(sum_words_serial(data, acc)),
                            "start {start} len {len} acc {acc:#x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn word_sum_takes_seeds_up_to_u32_max() {
        // `sum_words` hands back any `u32`, and `ipv4_header_checksum`
        // feeds one call's result to the next as its seed.
        let ones = [0xFFu8; 41];
        let ramp: Vec<u8> = (0..41).map(|i| (i * 29 + 3) as u8).collect();
        for buf in [&ones[..], &ramp[..]] {
            for len in 0..=buf.len() {
                for acc in [
                    u32::MAX,
                    u32::MAX - 1,
                    0xFFFF_0000,
                    0xFFFE_FFFF,
                    0x8000_0000,
                ] {
                    assert_eq!(
                        fold(sum_words(&buf[..len], acc)),
                        folded_serial(&buf[..len], acc),
                        "len {len} acc {acc:#x}"
                    );
                }
            }
        }
        // Zero stays zero and nothing else becomes it: `fold` tells a
        // sum of 0 from a sum of 0xFFFF.
        assert_eq!(sum_words(&[0u8; 64], 0), 0);
        assert_ne!(sum_words(&[0xFFu8; 64], 0), 0);
        assert_eq!(fold(sum_words(&[0xFFu8; 64], 0)), 0xFFFF);
    }

    #[test]
    fn rfc1071_worked_example() {
        // Classic example: 0x0001 0xF203 0xF4F5 0xF6F7 → sum 0xDDF2,
        // checksum 0x220D.
        let data = [0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7];
        assert_eq!(internet_checksum(&data), 0x220D);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        assert_eq!(internet_checksum(&[0xFF]), !0xFF00u16);
    }

    #[test]
    fn ipv4_header_checksum_known_vector() {
        // Wikipedia's IPv4 checksum example header.
        let hdr = [
            0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11, 0x00, 0x00, 0xc0, 0xa8,
            0x00, 0x01, 0xc0, 0xa8, 0x00, 0xc7,
        ];
        assert_eq!(ipv4_header_checksum(&hdr), 0xB861);
        let mut with = hdr;
        with[10..12].copy_from_slice(&0xB861u16.to_be_bytes());
        assert!(verify_ipv4_checksum(&with));
    }

    #[test]
    fn corrupted_frame_fails_l4_verify() {
        let mut f = testpkt::udp4([10, 0, 0, 1], [10, 0, 0, 2], 1, 2, b"payload", None);
        let p = ParsedFrame::parse(&f).unwrap();
        assert!(verify_l4_checksum(&p));
        let last = f.len() - 1;
        f[last] ^= 0xFF;
        let p = ParsedFrame::parse(&f).unwrap();
        assert!(!verify_l4_checksum(&p));
    }

    proptest! {
        #[test]
        fn checksum_detects_single_byte_flips(
            payload in proptest::collection::vec(any::<u8>(), 1..256),
            flip_pos_seed in any::<usize>(),
            flip_bits in 1u8..=255,
        ) {
            let f = testpkt::udp4([1,2,3,4],[5,6,7,8], 10, 20, &payload, None);
            let p = ParsedFrame::parse(&f).unwrap();
            prop_assert!(verify_l4_checksum(&p));
            // Flip one payload byte; verification must fail (one's
            // complement sums detect any single-byte change).
            let mut g = f.clone();
            let start = g.len() - payload.len();
            let pos = start + flip_pos_seed % payload.len();
            g[pos] ^= flip_bits;
            let q = ParsedFrame::parse(&g).unwrap();
            prop_assert!(!verify_l4_checksum(&q));
        }

        #[test]
        fn built_frames_always_verify(
            payload in proptest::collection::vec(any::<u8>(), 0..512),
            sp in any::<u16>(),
            dp in any::<u16>(),
            tcp in any::<bool>(),
        ) {
            let f = if tcp {
                testpkt::tcp4([9,9,9,9],[8,8,8,8], sp, dp, &payload, None)
            } else {
                testpkt::udp4([9,9,9,9],[8,8,8,8], sp, dp, &payload, None)
            };
            let p = ParsedFrame::parse(&f).unwrap();
            prop_assert!(verify_ipv4_checksum(p.ipv4.unwrap().header()));
            prop_assert!(verify_l4_checksum(&p));
        }
    }
}
