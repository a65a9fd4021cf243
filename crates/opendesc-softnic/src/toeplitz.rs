//! Toeplitz hash — the reference implementation of the `rss_hash`
//! semantic, verified against the Microsoft RSS test vectors.
//!
//! Every producer of an RSS hash (the device's steering stage, its
//! offload engine and the host shim) hashes under the one key
//! [`MSFT_RSS_KEY`] through [`rss_frame`], whose [`rss_ipv4`] /
//! [`rss_ipv4_l4`] are table-driven. The bit-serial `toeplitz_hash`
//! takes any key, is the oracle the table is tested against, and is
//! compiled only for those tests.

use crate::wire::ParsedFrame;

/// The standard 40-byte Microsoft RSS key used by default in most NICs
/// and drivers — and the only key this system hashes under, so a hash
/// computed at steering time is the hash a host shim would compute.
pub const MSFT_RSS_KEY: [u8; 40] = [
    0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2, 0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0,
    0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4, 0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30, 0xf2, 0x0c,
    0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
];

/// Toeplitz hash of `input` under `key`. `key` must be at least
/// `input.len() + 4` bytes (the sliding 32-bit window must stay in range).
#[cfg(test)]
fn toeplitz_hash(key: &[u8], input: &[u8]) -> u32 {
    assert!(
        key.len() >= input.len() + 4,
        "toeplitz key too short: {} bytes for {} input bytes",
        key.len(),
        input.len()
    );
    let mut result: u32 = 0;
    // The initial 32-bit window is the first four key bytes; it shifts
    // left one bit per input bit consumed.
    let mut window: u32 = u32::from_be_bytes([key[0], key[1], key[2], key[3]]);
    for (i, byte) in input.iter().enumerate() {
        for bit in 0..8 {
            if byte & (0x80 >> bit) != 0 {
                result ^= window;
            }
            // Shift in the next key bit.
            let next_bit_idx = (i + 4) * 8 + bit;
            let next_bit = (key[next_bit_idx / 8] >> (7 - (next_bit_idx % 8))) & 1;
            window = (window << 1) | next_bit as u32;
        }
    }
    result
}

/// Bytes of flow tuple the table kernel covers: the IPv4 4-tuple.
const TUPLE_BYTES: usize = 12;

/// [`MSFT_RSS_KEY`] specialised per input byte: `KEY_TABLE[i][b]` is the
/// Toeplitz contribution of byte value `b` at tuple position `i` — the
/// XOR of the 32-bit key windows at bit offsets `8 * i + j` for every
/// set bit `j` of `b` (bit 0 = MSB). Toeplitz is linear over GF(2), so
/// the hash of a tuple is the XOR of its bytes' entries. Built at
/// compile time: 12 KiB of read-only data, nothing per engine.
static KEY_TABLE: [[u32; 256]; TUPLE_BYTES] = key_table(&MSFT_RSS_KEY);

const fn key_table(key: &[u8; 40]) -> [[u32; 256]; TUPLE_BYTES] {
    let mut table = [[0u32; 256]; TUPLE_BYTES];
    let mut i = 0;
    while i < TUPLE_BYTES {
        // Key bits 8i .. 8i+40: every window a bit of byte `i` can select.
        let span = (key[i] as u64) << 32
            | (key[i + 1] as u64) << 24
            | (key[i + 2] as u64) << 16
            | (key[i + 3] as u64) << 8
            | key[i + 4] as u64;
        let mut b = 0;
        while b < 256 {
            let mut acc = 0u32;
            let mut j = 0;
            while j < 8 {
                if b & (0x80 >> j) != 0 {
                    acc ^= (span >> (8 - j)) as u32;
                }
                j += 1;
            }
            table[i][b] = acc;
            b += 1;
        }
        i += 1;
    }
    table
}

/// Toeplitz hash under [`MSFT_RSS_KEY`] of a tuple of at most
/// [`TUPLE_BYTES`] bytes: one table load and one XOR per byte.
#[inline]
fn table_hash(input: &[u8]) -> u32 {
    KEY_TABLE
        .iter()
        .zip(input)
        .fold(0, |h, (row, &b)| h ^ row[b as usize])
}

/// RSS hash over an IPv4 2-tuple (source address, destination address)
/// under [`MSFT_RSS_KEY`].
pub fn rss_ipv4(src: u32, dst: u32) -> u32 {
    let mut input = [0u8; 8];
    input[..4].copy_from_slice(&src.to_be_bytes());
    input[4..].copy_from_slice(&dst.to_be_bytes());
    table_hash(&input)
}

/// RSS hash over an IPv4 4-tuple (addresses + TCP/UDP ports) under
/// [`MSFT_RSS_KEY`].
pub fn rss_ipv4_l4(src: u32, dst: u32, src_port: u16, dst_port: u16) -> u32 {
    let mut input = [0u8; TUPLE_BYTES];
    input[..4].copy_from_slice(&src.to_be_bytes());
    input[4..8].copy_from_slice(&dst.to_be_bytes());
    input[8..10].copy_from_slice(&src_port.to_be_bytes());
    input[10..12].copy_from_slice(&dst_port.to_be_bytes());
    table_hash(&input)
}

/// The `rss_hash` of a parsed frame: the 4-tuple hash for TCP/UDP over
/// IPv4, the 2-tuple hash for other IPv4 traffic, `None` for non-IP.
/// The one statement of the tuple rules — steering stage, offload engine
/// and host shim all hash a frame through here.
pub fn rss_frame(p: &ParsedFrame<'_>) -> Option<u32> {
    let ip = p.ipv4.as_ref()?;
    Some(match p.ports() {
        Some((sp, dp)) => rss_ipv4_l4(ip.src(), ip.dst(), sp, dp),
        None => rss_ipv4(ip.src(), ip.dst()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SoftNic;
    use crate::testpkt::{self, MSFT_RSS_VECTORS};
    use proptest::prelude::*;

    fn ip(a: u8, b: u8, c: u8, d: u8) -> u32 {
        u32::from_be_bytes([a, b, c, d])
    }

    #[test]
    fn microsoft_ipv4_vectors() {
        for &(dst, src, _dp, _sp, want, _) in MSFT_RSS_VECTORS {
            assert_eq!(
                rss_ipv4(src, dst),
                want,
                "ipv4-only vector src={src:#x} dst={dst:#x}"
            );
            // The engine's entry point, on an IPv4 frame with no ports.
            let f = testpkt::ipv4_no_l4(src.to_be_bytes(), dst.to_be_bytes());
            let p = ParsedFrame::parse(&f).unwrap();
            assert_eq!(SoftNic::new().rss(&p), Some(want));
        }
    }

    #[test]
    fn microsoft_ipv4_tcp_vectors() {
        for &(dst, src, dst_port, src_port, _, want) in MSFT_RSS_VECTORS {
            assert_eq!(
                rss_ipv4_l4(src, dst, src_port, dst_port),
                want,
                "ipv4+tcp vector src={src:#x} dst={dst:#x}"
            );
            let f = testpkt::tcp4(
                src.to_be_bytes(),
                dst.to_be_bytes(),
                src_port,
                dst_port,
                b"",
                None,
            );
            let p = ParsedFrame::parse(&f).unwrap();
            assert_eq!(SoftNic::new().rss(&p), Some(want));
        }
    }

    #[test]
    fn sanity_first_vector_explicit() {
        // 66.9.149.187:2794 → 161.142.100.80:1766 ⇒ 0x51ccc178.
        let h = rss_ipv4_l4(ip(66, 9, 149, 187), ip(161, 142, 100, 80), 2794, 1766);
        assert_eq!(h, 0x51ccc178);
    }

    #[test]
    fn zero_input_hashes_to_zero() {
        assert_eq!(toeplitz_hash(&MSFT_RSS_KEY, &[0u8; 12]), 0);
        assert_eq!(rss_ipv4_l4(0, 0, 0, 0), 0);
    }

    #[test]
    #[should_panic(expected = "key too short")]
    fn key_too_short_panics() {
        toeplitz_hash(&MSFT_RSS_KEY[..10], &[0u8; 12]);
    }

    #[test]
    fn every_table_entry_matches_the_serial_oracle() {
        // One non-zero byte at a time: the whole table, exhaustively.
        for i in 0..TUPLE_BYTES {
            for b in 0..=255u8 {
                let mut input = [0u8; TUPLE_BYTES];
                input[i] = b;
                assert_eq!(
                    KEY_TABLE[i][b as usize],
                    toeplitz_hash(&MSFT_RSS_KEY, &input),
                    "position {i} byte {b:#04x}"
                );
            }
        }
    }

    proptest! {
        /// Toeplitz is linear over GF(2): H(a ^ b) == H(a) ^ H(b).
        #[test]
        fn gf2_linearity(a in any::<[u8; 12]>(), b in any::<[u8; 12]>()) {
            let xored: Vec<u8> = a.iter().zip(b.iter()).map(|(x, y)| x ^ y).collect();
            prop_assert_eq!(
                toeplitz_hash(&MSFT_RSS_KEY, &xored),
                toeplitz_hash(&MSFT_RSS_KEY, &a) ^ toeplitz_hash(&MSFT_RSS_KEY, &b)
            );
        }

        /// Per-connection consistency: equal tuples hash equal (trivially
        /// true but guards against accidental statefulness).
        #[test]
        fn deterministic(src in any::<u32>(), dst in any::<u32>(), sp in any::<u16>(), dp in any::<u16>()) {
            let h1 = rss_ipv4_l4(src, dst, sp, dp);
            let h2 = rss_ipv4_l4(src, dst, sp, dp);
            prop_assert_eq!(h1, h2);
        }

        /// The table kernel is the bit-serial hash under the default key,
        /// on 8-byte (2-tuple) and 12-byte (4-tuple) inputs.
        #[test]
        fn table_matches_serial_oracle(src in any::<u32>(), dst in any::<u32>(), sp in any::<u16>(), dp in any::<u16>()) {
            let mut input = [0u8; 12];
            input[..4].copy_from_slice(&src.to_be_bytes());
            input[4..8].copy_from_slice(&dst.to_be_bytes());
            input[8..10].copy_from_slice(&sp.to_be_bytes());
            input[10..].copy_from_slice(&dp.to_be_bytes());
            prop_assert_eq!(rss_ipv4(src, dst), toeplitz_hash(&MSFT_RSS_KEY, &input[..8]));
            prop_assert_eq!(rss_ipv4_l4(src, dst, sp, dp), toeplitz_hash(&MSFT_RSS_KEY, &input));
        }
    }
}
