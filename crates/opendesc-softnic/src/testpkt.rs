//! Frame builders: construct valid Ethernet/IPv4/{TCP,UDP} frames with
//! correct lengths and checksums. Used by unit tests here and by the
//! workload generator in `opendesc-nicsim`.

use crate::checksum::{ipv4_header_checksum, l4_checksum};
use crate::wire::{ethertype, ipproto};

/// Build an Ethernet(+optional 802.1Q)/IPv4/UDP frame.
pub fn udp4(
    src_ip: [u8; 4],
    dst_ip: [u8; 4],
    src_port: u16,
    dst_port: u16,
    payload: &[u8],
    vlan_tci: Option<u16>,
) -> Vec<u8> {
    build4(
        src_ip,
        dst_ip,
        ipproto::UDP,
        src_port,
        dst_port,
        payload,
        vlan_tci,
    )
}

/// Build an Ethernet(+optional 802.1Q)/IPv4/TCP frame (fixed 20-byte TCP
/// header, no options).
pub fn tcp4(
    src_ip: [u8; 4],
    dst_ip: [u8; 4],
    src_port: u16,
    dst_port: u16,
    payload: &[u8],
    vlan_tci: Option<u16>,
) -> Vec<u8> {
    build4(
        src_ip,
        dst_ip,
        ipproto::TCP,
        src_port,
        dst_port,
        payload,
        vlan_tci,
    )
}

fn build4(
    src_ip: [u8; 4],
    dst_ip: [u8; 4],
    proto: u8,
    src_port: u16,
    dst_port: u16,
    payload: &[u8],
    vlan_tci: Option<u16>,
) -> Vec<u8> {
    let l4_hdr = if proto == ipproto::TCP { 20 } else { 8 };
    let ip_total = 20 + l4_hdr + payload.len();
    let mut f = Vec::with_capacity(18 + ip_total);

    // Ethernet.
    f.extend_from_slice(&[0x02, 0, 0, 0, 0, 0x01]); // dst
    f.extend_from_slice(&[0x02, 0, 0, 0, 0, 0x02]); // src
    if let Some(tci) = vlan_tci {
        f.extend_from_slice(&ethertype::VLAN.to_be_bytes());
        f.extend_from_slice(&tci.to_be_bytes());
    }
    f.extend_from_slice(&ethertype::IPV4.to_be_bytes());

    // IPv4 header.
    let ip_start = f.len();
    f.push(0x45); // version 4, IHL 5
    f.push(0);
    f.extend_from_slice(&(ip_total as u16).to_be_bytes());
    f.extend_from_slice(&0x1234u16.to_be_bytes()); // ident
    f.extend_from_slice(&[0x40, 0]); // DF, no fragment offset
    f.push(64); // TTL
    f.push(proto);
    f.extend_from_slice(&[0, 0]); // checksum placeholder
    f.extend_from_slice(&src_ip);
    f.extend_from_slice(&dst_ip);
    let csum = ipv4_header_checksum(&f[ip_start..ip_start + 20]);
    f[ip_start + 10..ip_start + 12].copy_from_slice(&csum.to_be_bytes());

    // L4 header.
    let l4_start = f.len();
    if proto == ipproto::TCP {
        f.extend_from_slice(&src_port.to_be_bytes());
        f.extend_from_slice(&dst_port.to_be_bytes());
        f.extend_from_slice(&1000u32.to_be_bytes()); // seq
        f.extend_from_slice(&2000u32.to_be_bytes()); // ack
        f.push(5 << 4); // data offset 5
        f.push(0x18); // PSH|ACK
        f.extend_from_slice(&0xFFFFu16.to_be_bytes()); // window
        f.extend_from_slice(&[0, 0]); // checksum placeholder
        f.extend_from_slice(&[0, 0]); // urgent
    } else {
        f.extend_from_slice(&src_port.to_be_bytes());
        f.extend_from_slice(&dst_port.to_be_bytes());
        f.extend_from_slice(&((8 + payload.len()) as u16).to_be_bytes());
        f.extend_from_slice(&[0, 0]); // checksum placeholder
    }
    f.extend_from_slice(payload);

    // L4 checksum over pseudo-header + segment.
    let seg = &f[l4_start..];
    let csum = l4_checksum(src_ip, dst_ip, proto, seg);
    let csum_off = l4_start + if proto == ipproto::TCP { 16 } else { 6 };
    f[csum_off..csum_off + 2].copy_from_slice(&csum.to_be_bytes());
    f
}

/// An Ethernet/IPv4 frame whose protocol is neither TCP nor UDP (ICMP
/// echo, eight zero bytes): parses with addresses and no ports, the
/// shape RSS hashes as a 2-tuple.
pub fn ipv4_no_l4(src_ip: [u8; 4], dst_ip: [u8; 4]) -> Vec<u8> {
    let mut f = udp4(src_ip, dst_ip, 0, 0, b"", None);
    f[14 + 9] = ipproto::ICMP;
    let csum = ipv4_header_checksum(&f[14..34]);
    f[24..26].copy_from_slice(&csum.to_be_bytes());
    f
}

/// The five IPv4 verification vectors from the Microsoft RSS
/// specification ("Verifying the RSS Hash Calculation"). Each row:
/// (dst, src, dst_port, src_port, ipv4_hash, ipv4_tcp_hash).
pub const MSFT_RSS_VECTORS: &[(u32, u32, u16, u16, u32, u32)] = &[
    (0xA18E6450, 0x420995BB, 1766, 2794, 0x323e8fc2, 0x51ccc178),
    (0x41458C53, 0xC75C6F02, 4739, 14230, 0xd718262a, 0xc626b0ea),
    (0x0C16CFB8, 0x1813C65F, 38024, 12898, 0xd2d0a5de, 0x5c2b394a),
    (0xD18EA306, 0x261BCD1E, 2217, 48228, 0x82989176, 0xafc7327f),
    (0xCABC7F02, 0x9927A3BF, 1303, 44251, 0x5d1809c5, 0x10e828a2),
];

/// A memcached-style KVS GET request payload: `get <key>\r\n`.
pub fn kvs_get_payload(key: &str) -> Vec<u8> {
    format!("get {key}\r\n").into_bytes()
}

/// A seed-deterministic valid frame: cycles through UDP, TCP, VLAN and
/// KVS-GET shapes with seed-derived addresses, ports and payloads. The
/// conformance fuzzer uses this so every differential run is
/// reproducible from its seed alone.
pub fn seeded_frame(seed: u64) -> Vec<u8> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let r = next();
    let src = [10, (r >> 8) as u8, (r >> 16) as u8, (r >> 24) as u8];
    let d = next();
    let dst = [10, (d >> 8) as u8, (d >> 16) as u8, (d >> 24) as u8];
    let p = next();
    let sport = 1024 + (p as u16 % 50000);
    let dport = 1 + ((p >> 16) as u16 % 60000);
    let vlan = if p & 0x10_0000 != 0 {
        Some((p >> 32) as u16 & 0x0FFF)
    } else {
        None
    };
    let n = next();
    let payload: Vec<u8> = (0..(n % 64) as usize + 4)
        .map(|i| (n >> (i % 8)) as u8 ^ i as u8)
        .collect();
    match next() % 3 {
        0 => udp4(src, dst, sport, dport, &payload, vlan),
        1 => tcp4(src, dst, sport, dport, &payload, vlan),
        _ => {
            let key = format!("k{:08x}", n as u32);
            udp4(src, dst, sport, 11211, &kvs_get_payload(&key), vlan)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checksum::{internet_checksum, verify_l4_checksum};
    use crate::wire::ParsedFrame;

    #[test]
    fn built_udp_frame_has_valid_checksums() {
        let f = udp4([10, 0, 0, 1], [10, 0, 0, 2], 53, 9999, b"dns?", None);
        let p = ParsedFrame::parse(&f).unwrap();
        let ip = p.ipv4.unwrap();
        assert_eq!(internet_checksum(ip.header()), 0, "IP header must sum to 0");
        assert!(verify_l4_checksum(&p), "UDP checksum must verify");
    }

    #[test]
    fn built_tcp_frame_has_valid_checksums() {
        let f = tcp4([1, 2, 3, 4], [5, 6, 7, 8], 80, 1024, b"GET /", Some(0x0042));
        let p = ParsedFrame::parse(&f).unwrap();
        assert!(verify_l4_checksum(&p), "TCP checksum must verify");
        assert_eq!(p.vlan_tci, Some(0x0042));
    }

    #[test]
    fn kvs_payload_shape() {
        assert_eq!(kvs_get_payload("user:42"), b"get user:42\r\n");
    }
}
