//! `EthFrame`'s accessors, `ParsedFrame::parse` and
//! `SoftNic::packet_type` against an independent byte-level decoder,
//! over arbitrary bytes: untagged, 802.1Q- and 802.1ad-tagged frames,
//! IPv4 headers that are valid or not, and tagged runts of 14–17 bytes
//! whose tag or inner ethertype is cut off.

use opendesc_softnic::engine::ptype;
use opendesc_softnic::wire::{EthFrame, ParsedFrame};
use opendesc_softnic::SoftNic;
use proptest::prelude::*;

fn be16(b: &[u8], at: usize) -> Option<u16> {
    Some(u16::from_be_bytes([*b.get(at)?, *b.get(at + 1)?]))
}

/// What a frame's bytes say, decoded without the views.
#[derive(Debug, PartialEq)]
struct Decoded<'a> {
    has_vlan: bool,
    vlan_tci: Option<u16>,
    ethertype: Option<u16>,
    l3_offset: usize,
    l3: &'a [u8],
    /// `(ihl, protocol)` of a valid IPv4 header behind ethertype 0x0800.
    ipv4: Option<(usize, u8)>,
    ports: Option<(u16, u16)>,
    payload_offset: Option<u16>,
    packet_type: u16,
}

fn decode(b: &[u8]) -> Option<Decoded<'_>> {
    if b.len() < 14 {
        return None;
    }
    let outer = u16::from_be_bytes([b[12], b[13]]);
    let tagged = outer == 0x8100 || outer == 0x88A8;
    let l3_offset = if tagged { 18 } else { 14 };
    let vlan_tci = if tagged { be16(b, 14) } else { None };
    let ethertype = if tagged { be16(b, 16) } else { Some(outer) };
    let l3 = &b[l3_offset.min(b.len())..];
    let mut packet_type = ptype::ETH;
    if vlan_tci.is_some() {
        packet_type |= ptype::VLAN;
    }
    if ethertype == Some(0x86DD) {
        packet_type |= ptype::IPV6;
    }
    let ihl = l3.first().map_or(0, |v| (v & 0xF) as usize * 4);
    let ipv4 = (ethertype == Some(0x0800)
        && l3.len() >= 20
        && l3[0] >> 4 == 4
        && ihl >= 20
        && l3.len() >= ihl)
        .then(|| (ihl, l3[9]));
    let (mut ports, mut payload_offset) = (None, None);
    if let Some((ihl, proto)) = ipv4 {
        packet_type |= ptype::IPV4;
        packet_type |= match proto {
            6 => ptype::TCP,
            17 => ptype::UDP,
            1 => ptype::ICMP,
            _ => 0,
        };
        let end = (u16::from_be_bytes([l3[2], l3[3]]) as usize).min(l3.len());
        let l4 = &l3[ihl.min(end)..end];
        let doff = l4.get(12).map_or(0, |v| (v >> 4) as usize * 4);
        let header = match proto {
            6 if l4.len() >= 20 && doff >= 20 && l4.len() >= doff => Some(doff),
            17 if l4.len() >= 8 => Some(8),
            _ => None,
        };
        if let Some(header) = header {
            ports = Some((be16(l4, 0)?, be16(l4, 2)?));
            payload_offset = Some((l3_offset + ihl + header) as u16);
        }
    }
    Some(Decoded {
        has_vlan: tagged,
        vlan_tci,
        ethertype,
        l3_offset,
        l3,
        ipv4,
        ports,
        payload_offset,
        packet_type,
    })
}

/// What the views say about the same bytes.
fn view(b: &[u8]) -> Option<Decoded<'_>> {
    let eth = EthFrame::new(b)?;
    let p = ParsedFrame::parse(b)?;
    assert_eq!(p.vlan_tci, eth.vlan_tci(), "parse keeps the view's tag");
    Some(Decoded {
        has_vlan: eth.has_vlan(),
        vlan_tci: eth.vlan_tci(),
        ethertype: eth.ethertype(),
        l3_offset: eth.l3_offset(),
        l3: eth.l3(),
        ipv4: p.ipv4.map(|ip| (ip.header_len(), ip.protocol())),
        ports: p.ports(),
        payload_offset: p.payload_offset(),
        packet_type: SoftNic::new().packet_type(&p),
    })
}

/// Arbitrary bytes, with the fields the decoders branch on laid over
/// them often enough to matter: an outer TPID (none, 802.1Q, 802.1ad,
/// raw), an inner ethertype, an IPv4 version/IHL byte, a protocol and
/// a total length. Lengths favour the short end, tagged runts included.
fn arb_frame() -> impl Strategy<Value = Vec<u8>> {
    (
        prop_oneof![0usize..24, 0usize..96],
        proptest::collection::vec(any::<u8>(), 96),
        0u8..4,
        0u8..3,
        0u8..3,
        0u8..4,
        any::<bool>(),
    )
        .prop_map(|(len, mut b, tag, inner, ver, proto, fit_len)| {
            let tpid: u16 = match tag {
                0 => 0x0800,
                1 => 0x8100,
                2 => 0x88A8,
                _ => u16::from_be_bytes([b[12], b[13]]),
            };
            b[12..14].copy_from_slice(&tpid.to_be_bytes());
            let l3 = if tag == 1 || tag == 2 { 18 } else { 14 };
            if l3 == 18 {
                let ety: u16 = match inner {
                    0 => 0x0800,
                    1 => 0x86DD,
                    _ => u16::from_be_bytes([b[16], b[17]]),
                };
                b[16..18].copy_from_slice(&ety.to_be_bytes());
            }
            b[l3] = match ver {
                0 => 0x45,
                1 => 0x40 | (b[l3] & 0xF),
                _ => b[l3],
            };
            b[l3 + 9] = [6, 17, 1, b[l3 + 9]][proto as usize];
            if fit_len {
                let total = len.saturating_sub(l3) as u16;
                b[l3 + 2..l3 + 4].copy_from_slice(&total.to_be_bytes());
            }
            b.truncate(len);
            b
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// The views and the parse agree with the byte-level decoder on
    /// every frame, and a frame under 14 bytes is no frame to either.
    #[test]
    fn views_match_a_byte_level_decoder(frame in arb_frame()) {
        prop_assert_eq!(view(&frame), decode(&frame), "frame {:02x?}", frame);
    }
}

#[test]
fn tagged_runts_lose_what_they_cut_off() {
    for tpid in [0x8100u16, 0x88A8] {
        for len in 14..18 {
            let mut b = vec![0u8; len];
            b[12..14].copy_from_slice(&tpid.to_be_bytes());
            if len >= 16 {
                b[14..16].copy_from_slice(&0x0123u16.to_be_bytes());
            }
            let eth = EthFrame::new(&b).unwrap();
            assert!(eth.has_vlan());
            assert_eq!(eth.ethertype(), None, "{len} bytes: no inner ethertype");
            let tci = (len >= 16).then_some(0x0123);
            assert_eq!(eth.vlan_tci(), tci, "{len} bytes");
            assert_eq!((eth.l3_offset(), eth.l3()), (18, &[][..]));
        }
    }
}
