//! Transmit-side frame fix-ups: the software fallbacks for TX offload
//! hints a descriptor layout cannot carry (checksum insertion, VLAN tag
//! insertion). The NIC simulator's TX engine uses the same functions, so
//! hardware offload and software fallback produce identical wire frames.

use crate::checksum::{ipv4_header_checksum, l4_checksum};
use crate::wire::{ethertype, EthFrame, Ipv4View};

/// Compute and store the IPv4 header checksum in place. Returns `false`
/// when the frame has no IPv4 header to fix.
pub fn fill_ipv4_checksum(frame: &mut [u8]) -> bool {
    let Some(eth) = EthFrame::new(frame) else {
        return false;
    };
    if eth.ethertype() != Some(ethertype::IPV4) {
        return false;
    }
    let l3 = eth.l3_offset();
    let Some(ip) = Ipv4View::new(&frame[l3..]) else {
        return false;
    };
    let hlen = ip.header_len();
    frame[l3 + 10] = 0;
    frame[l3 + 11] = 0;
    let csum = ipv4_header_checksum(&frame[l3..l3 + hlen]);
    frame[l3 + 10..l3 + 12].copy_from_slice(&csum.to_be_bytes());
    true
}

/// Compute and store the TCP/UDP checksum in place. Returns `false` when
/// the frame has no recognizable L4 segment.
pub fn fill_l4_checksum(frame: &mut [u8]) -> bool {
    let Some(eth) = EthFrame::new(frame) else {
        return false;
    };
    if eth.ethertype() != Some(ethertype::IPV4) {
        return false;
    }
    let l3 = eth.l3_offset();
    let Some(ip) = Ipv4View::new(&frame[l3..]) else {
        return false;
    };
    let proto = ip.protocol();
    let csum_rel = match proto {
        crate::wire::ipproto::TCP => 16,
        crate::wire::ipproto::UDP => 6,
        _ => return false,
    };
    let (src, dst) = (ip.src().to_be_bytes(), ip.dst().to_be_bytes());
    let l4 = l3 + ip.header_len();
    let seg_end = (l3 + ip.total_len() as usize).min(frame.len());
    if l4 + csum_rel + 2 > seg_end {
        return false;
    }
    frame[l4 + csum_rel] = 0;
    frame[l4 + csum_rel + 1] = 0;
    let csum = l4_checksum(src, dst, proto, &frame[l4..seg_end]);
    frame[l4 + csum_rel..l4 + csum_rel + 2].copy_from_slice(&csum.to_be_bytes());
    true
}

/// Insert an 802.1Q tag with the given TCI after the MAC addresses.
/// Returns the new frame (4 bytes longer); `None` if the frame is
/// already tagged or too short.
pub fn insert_vlan(frame: &[u8], tci: u16) -> Option<Vec<u8>> {
    let eth = EthFrame::new(frame)?;
    if eth.has_vlan() {
        return None;
    }
    let mut out = Vec::with_capacity(frame.len() + 4);
    out.extend_from_slice(&frame[..12]);
    out.extend_from_slice(&ethertype::VLAN.to_be_bytes());
    out.extend_from_slice(&tci.to_be_bytes());
    out.extend_from_slice(&frame[12..]);
    Some(out)
}

/// Allocation-free [`insert_vlan`]: grow the caller's buffer by 4 bytes
/// and shift the post-MAC payload in place (no fresh `Vec` once the
/// buffer's capacity has warmed up). Returns `false` — frame unchanged —
/// exactly when `insert_vlan` would return `None`.
pub fn insert_vlan_in_place(frame: &mut Vec<u8>, tci: u16) -> bool {
    let Some(eth) = EthFrame::new(frame) else {
        return false;
    };
    if eth.has_vlan() {
        return false;
    }
    frame.extend_from_slice(&[0u8; 4]);
    let end = frame.len();
    frame.copy_within(12..end - 4, 16);
    frame[12..14].copy_from_slice(&ethertype::VLAN.to_be_bytes());
    frame[14..16].copy_from_slice(&tci.to_be_bytes());
    true
}

/// [`insert_vlan_in_place`] over a fixed-capacity slice holding a
/// `len`-byte frame (the batched TX case: every batch buffer reserves
/// the 4-byte headroom up front). Returns the new frame length, or `None`
/// with the slice unchanged when the frame is already tagged, too
/// short, or the slot lacks headroom.
pub fn insert_vlan_in_slice(buf: &mut [u8], len: usize, tci: u16) -> Option<usize> {
    if len + 4 > buf.len() {
        return None;
    }
    let eth = EthFrame::new(&buf[..len])?;
    if eth.has_vlan() {
        return None;
    }
    buf.copy_within(12..len, 16);
    buf[12..14].copy_from_slice(&ethertype::VLAN.to_be_bytes());
    buf[14..16].copy_from_slice(&tci.to_be_bytes());
    Some(len + 4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checksum::{verify_ipv4_checksum, verify_l4_checksum};
    use crate::testpkt;
    use crate::wire::ParsedFrame;

    fn zeroed_csums() -> Vec<u8> {
        let mut f = testpkt::udp4([10, 0, 0, 1], [10, 0, 0, 2], 5, 7, b"fixme", None);
        // Zero both checksums to simulate an offload-requesting sender.
        f[24] = 0;
        f[25] = 0; // IP csum at eth(14)+10
        f[40] = 0;
        f[41] = 0; // UDP csum at eth(14)+ip(20)+6
        f
    }

    #[test]
    fn fill_ipv4_checksum_restores_validity() {
        let mut f = zeroed_csums();
        assert!(!verify_ipv4_checksum(&f[14..34]));
        assert!(fill_ipv4_checksum(&mut f));
        assert!(verify_ipv4_checksum(&f[14..34]));
    }

    #[test]
    fn fill_l4_checksum_restores_validity() {
        let mut f = zeroed_csums();
        fill_ipv4_checksum(&mut f);
        assert!(fill_l4_checksum(&mut f));
        let p = ParsedFrame::parse(&f).unwrap();
        assert!(verify_l4_checksum(&p));
    }

    #[test]
    fn fixups_match_builder_output() {
        // Fixing a zeroed frame must reproduce testpkt's own checksums.
        let golden = testpkt::udp4([10, 0, 0, 1], [10, 0, 0, 2], 5, 7, b"fixme", None);
        let mut f = zeroed_csums();
        fill_ipv4_checksum(&mut f);
        fill_l4_checksum(&mut f);
        assert_eq!(f, golden);
    }

    #[test]
    fn tcp_checksum_offset_handled() {
        let mut f = testpkt::tcp4([1, 1, 1, 1], [2, 2, 2, 2], 80, 81, b"abc", None);
        let off = 14 + 20 + 16;
        f[off] = 0;
        f[off + 1] = 0;
        assert!(fill_l4_checksum(&mut f));
        let p = ParsedFrame::parse(&f).unwrap();
        assert!(verify_l4_checksum(&p));
    }

    #[test]
    fn insert_vlan_produces_parsable_tag() {
        let f = testpkt::udp4([1, 1, 1, 1], [2, 2, 2, 2], 1, 2, b"x", None);
        let tagged = insert_vlan(&f, 0x2064).unwrap();
        assert_eq!(tagged.len(), f.len() + 4);
        let p = ParsedFrame::parse(&tagged).unwrap();
        assert_eq!(p.vlan_tci, Some(0x2064));
        // L4 payload unchanged.
        assert_eq!(p.l4_payload(), Some(&b"x"[..]));
    }

    #[test]
    fn insert_vlan_rejects_already_tagged() {
        let f = testpkt::udp4([1, 1, 1, 1], [2, 2, 2, 2], 1, 2, b"x", Some(7));
        assert!(insert_vlan(&f, 9).is_none());
    }

    #[test]
    fn in_place_vlan_variants_match_allocating_insert() {
        let f = testpkt::udp4([1, 1, 1, 1], [2, 2, 2, 2], 1, 2, b"inplace", None);
        let golden = insert_vlan(&f, 0x3011).unwrap();

        let mut vec_frame = f.clone();
        assert!(insert_vlan_in_place(&mut vec_frame, 0x3011));
        assert_eq!(vec_frame, golden);

        let mut slot = vec![0u8; f.len() + 64];
        slot[..f.len()].copy_from_slice(&f);
        let new_len = insert_vlan_in_slice(&mut slot, f.len(), 0x3011).unwrap();
        assert_eq!(&slot[..new_len], &golden[..]);

        // Already-tagged and too-short frames are refused unchanged,
        // exactly like `insert_vlan`.
        let tagged = testpkt::udp4([1, 1, 1, 1], [2, 2, 2, 2], 1, 2, b"x", Some(7));
        let mut t = tagged.clone();
        assert!(!insert_vlan_in_place(&mut t, 9));
        assert_eq!(t, tagged);
        let mut short = vec![0u8; 8];
        assert!(!insert_vlan_in_place(&mut short, 9));
        let mut slot = vec![0u8; 64];
        assert_eq!(insert_vlan_in_slice(&mut slot, 8, 9), None);
    }

    #[test]
    fn non_ip_frames_refused() {
        let mut arp = vec![0u8; 42];
        arp[12] = 0x08;
        arp[13] = 0x06;
        assert!(!fill_ipv4_checksum(&mut arp));
        assert!(!fill_l4_checksum(&mut arp));
    }
}
