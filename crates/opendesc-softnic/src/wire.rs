//! Zero-copy wire-format views over raw Ethernet frames.
//!
//! Minimal, allocation-free accessors in the smoltcp style: a view wraps a
//! byte slice and exposes typed getters. Only the protocols the semantic
//! implementations need are covered (Ethernet II, 802.1Q, IPv4, TCP, UDP).

/// EtherType values used by the views.
pub mod ethertype {
    pub const IPV4: u16 = 0x0800;
    pub const VLAN: u16 = 0x8100;
    pub const QINQ: u16 = 0x88A8;
    pub const IPV6: u16 = 0x86DD;
    pub const ARP: u16 = 0x0806;
}

/// IPv4 protocol numbers used by the views.
pub mod ipproto {
    pub const TCP: u8 = 6;
    pub const UDP: u8 = 17;
    pub const ICMP: u8 = 1;
}

#[inline]
fn be16(b: &[u8], off: usize) -> Option<u16> {
    Some(u16::from_be_bytes([*b.get(off)?, *b.get(off + 1)?]))
}

/// [`be16`] with one bounds check for both bytes: what the Ethernet
/// view reads at an offset the tag decides. (The IPv4 and L4 views,
/// whose offsets are constants, measured slower with it in the device
/// model's offload engine.)
#[inline]
fn be16_pair(b: &[u8], off: usize) -> Option<u16> {
    let b = b.get(off..off + 2)?;
    Some(u16::from_be_bytes([b[0], b[1]]))
}

#[inline]
fn be32(b: &[u8], off: usize) -> Option<u32> {
    Some(u32::from_be_bytes([
        *b.get(off)?,
        *b.get(off + 1)?,
        *b.get(off + 2)?,
        *b.get(off + 3)?,
    ]))
}

/// View over an Ethernet II frame (with optional single 802.1Q tag).
///
/// Whether the frame is tagged is resolved once, by [`EthFrame::new`],
/// into the L3 offset, and every accessor reads that offset instead of
/// testing the tag again: on mixed tagged and untagged traffic a test
/// per accessor is a branch per accessor the predictor cannot learn.
#[derive(Debug, Clone, Copy)]
pub struct EthFrame<'a> {
    bytes: &'a [u8],
    /// Byte offset of the L3 header: 14, or 18 behind an 802.1Q or
    /// 802.1ad tag.
    l3: usize,
}

impl<'a> EthFrame<'a> {
    /// Wrap a frame; `None` if shorter than the 14-byte Ethernet header.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Option<Self> {
        let outer = be16_pair(bytes, 12)?;
        let tagged = (outer == ethertype::VLAN) | (outer == ethertype::QINQ);
        Some(EthFrame {
            bytes,
            l3: 14 + 4 * tagged as usize,
        })
    }

    /// Whether a single 802.1Q tag is present.
    #[inline]
    pub fn has_vlan(&self) -> bool {
        self.l3 != 14
    }

    /// VLAN tag control information, if tagged. The two bytes are read
    /// whether or not the frame is tagged and the tag only selects the
    /// answer, so the tag costs no branch here either.
    #[inline]
    pub fn vlan_tci(&self) -> Option<u16> {
        let tci = be16_pair(self.bytes, 14);
        (self.has_vlan() & tci.is_some()).then_some(tci.unwrap_or(0))
    }

    /// Ethertype of the encapsulated payload, after any VLAN tag: the
    /// two bytes in front of the L3 header.
    #[inline]
    pub fn ethertype(&self) -> Option<u16> {
        be16_pair(self.bytes, self.l3 - 2)
    }

    /// Byte offset of the L3 header.
    #[inline]
    pub fn l3_offset(&self) -> usize {
        self.l3
    }

    /// L3 payload slice.
    #[inline]
    pub fn l3(&self) -> &'a [u8] {
        &self.bytes[self.l3.min(self.bytes.len())..]
    }

    /// Whole frame.
    #[inline]
    pub fn as_bytes(&self) -> &'a [u8] {
        self.bytes
    }
}

/// View over an IPv4 header (+payload).
#[derive(Debug, Clone, Copy)]
pub struct Ipv4View<'a> {
    bytes: &'a [u8],
}

impl<'a> Ipv4View<'a> {
    /// Wrap an IPv4 packet; validates version nibble and minimum length.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Option<Self> {
        if bytes.len() < 20 || bytes[0] >> 4 != 4 {
            return None;
        }
        let ihl = ((bytes[0] & 0xF) as usize) * 4;
        (ihl >= 20 && bytes.len() >= ihl).then_some(Ipv4View { bytes })
    }

    /// Header length in bytes.
    #[inline]
    pub fn header_len(&self) -> usize {
        ((self.bytes[0] & 0xF) as usize) * 4
    }

    #[inline]
    pub fn total_len(&self) -> u16 {
        be16(self.bytes, 2).unwrap()
    }

    #[inline]
    pub fn ident(&self) -> u16 {
        be16(self.bytes, 4).unwrap()
    }

    #[inline]
    pub fn protocol(&self) -> u8 {
        self.bytes[9]
    }

    #[inline]
    pub fn checksum(&self) -> u16 {
        be16(self.bytes, 10).unwrap()
    }

    #[inline]
    pub fn src(&self) -> u32 {
        be32(self.bytes, 12).unwrap()
    }

    #[inline]
    pub fn dst(&self) -> u32 {
        be32(self.bytes, 16).unwrap()
    }

    /// L4 payload (after the IPv4 header, clipped to `total_len`).
    #[inline]
    pub fn payload(&self) -> &'a [u8] {
        let start = self.header_len();
        let end = (self.total_len() as usize).min(self.bytes.len());
        &self.bytes[start.min(end)..end]
    }

    /// The raw header bytes.
    #[inline]
    pub fn header(&self) -> &'a [u8] {
        &self.bytes[..self.header_len()]
    }
}

/// View over a TCP header.
#[derive(Debug, Clone, Copy)]
pub struct TcpView<'a> {
    bytes: &'a [u8],
}

impl<'a> TcpView<'a> {
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Option<Self> {
        if bytes.len() < 20 {
            return None;
        }
        let off = ((bytes[12] >> 4) as usize) * 4;
        (off >= 20 && bytes.len() >= off).then_some(TcpView { bytes })
    }

    #[inline]
    pub fn src_port(&self) -> u16 {
        be16(self.bytes, 0).unwrap()
    }

    #[inline]
    pub fn dst_port(&self) -> u16 {
        be16(self.bytes, 2).unwrap()
    }

    #[inline]
    pub fn header_len(&self) -> usize {
        ((self.bytes[12] >> 4) as usize) * 4
    }

    #[inline]
    pub fn checksum(&self) -> u16 {
        be16(self.bytes, 16).unwrap()
    }

    #[inline]
    pub fn payload(&self) -> &'a [u8] {
        &self.bytes[self.header_len().min(self.bytes.len())..]
    }
}

/// View over a UDP header.
#[derive(Debug, Clone, Copy)]
pub struct UdpView<'a> {
    bytes: &'a [u8],
}

impl<'a> UdpView<'a> {
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Option<Self> {
        (bytes.len() >= 8).then_some(UdpView { bytes })
    }

    #[inline]
    pub fn src_port(&self) -> u16 {
        be16(self.bytes, 0).unwrap()
    }

    #[inline]
    pub fn dst_port(&self) -> u16 {
        be16(self.bytes, 2).unwrap()
    }

    #[inline]
    pub fn len(&self) -> u16 {
        be16(self.bytes, 4).unwrap()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() <= 8
    }

    #[inline]
    pub fn checksum(&self) -> u16 {
        be16(self.bytes, 6).unwrap()
    }

    #[inline]
    pub fn payload(&self) -> &'a [u8] {
        let end = (self.len() as usize).min(self.bytes.len());
        &self.bytes[8.min(end)..end]
    }
}

/// A fully parsed frame: every layer the semantics need, resolved once.
#[derive(Debug, Clone, Copy)]
pub struct ParsedFrame<'a> {
    pub eth: EthFrame<'a>,
    pub vlan_tci: Option<u16>,
    pub ipv4: Option<Ipv4View<'a>>,
    pub tcp: Option<TcpView<'a>>,
    pub udp: Option<UdpView<'a>>,
}

impl<'a> ParsedFrame<'a> {
    /// Parse as far as the frame allows; L2 must be present.
    #[inline]
    pub fn parse(bytes: &'a [u8]) -> Option<Self> {
        let eth = EthFrame::new(bytes)?;
        let vlan_tci = eth.vlan_tci();
        let mut ipv4 = None;
        let mut tcp = None;
        let mut udp = None;
        if eth.ethertype() == Some(ethertype::IPV4) {
            if let Some(ip) = Ipv4View::new(eth.l3()) {
                match ip.protocol() {
                    ipproto::TCP => tcp = TcpView::new(ip.payload()),
                    ipproto::UDP => udp = UdpView::new(ip.payload()),
                    _ => {}
                }
                ipv4 = Some(ip);
            }
        }
        Some(ParsedFrame {
            eth,
            vlan_tci,
            ipv4,
            tcp,
            udp,
        })
    }

    /// The L4 source/destination ports, from whichever transport parsed.
    #[inline]
    pub fn ports(&self) -> Option<(u16, u16)> {
        if let Some(t) = &self.tcp {
            return Some((t.src_port(), t.dst_port()));
        }
        if let Some(u) = &self.udp {
            return Some((u.src_port(), u.dst_port()));
        }
        None
    }

    /// The application payload, if a transport parsed.
    #[inline]
    pub fn l4_payload(&self) -> Option<&'a [u8]> {
        if let Some(t) = &self.tcp {
            return Some(t.payload());
        }
        if let Some(u) = &self.udp {
            return Some(u.payload());
        }
        None
    }

    /// Byte offset of the L4 payload within the frame, if resolvable.
    #[inline]
    pub fn payload_offset(&self) -> Option<u16> {
        let ip = self.ipv4.as_ref()?;
        let l4 = self.eth.l3_offset() + ip.header_len();
        let hdr = if let Some(t) = &self.tcp {
            t.header_len()
        } else if self.udp.is_some() {
            8
        } else {
            return None;
        };
        Some((l4 + hdr) as u16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testpkt;

    #[test]
    fn parse_plain_udp_frame() {
        let f = testpkt::udp4([10, 0, 0, 1], [10, 0, 0, 2], 1234, 5678, b"hello", None);
        let p = ParsedFrame::parse(&f).unwrap();
        assert!(p.vlan_tci.is_none());
        let ip = p.ipv4.unwrap();
        assert_eq!(ip.src(), u32::from_be_bytes([10, 0, 0, 1]));
        assert_eq!(ip.protocol(), ipproto::UDP);
        assert_eq!(p.ports(), Some((1234, 5678)));
        assert_eq!(p.l4_payload(), Some(&b"hello"[..]));
        assert_eq!(p.payload_offset(), Some(14 + 20 + 8));
    }

    #[test]
    fn parse_vlan_tagged_tcp_frame() {
        let f = testpkt::tcp4(
            [192, 168, 1, 1],
            [192, 168, 1, 2],
            443,
            51000,
            b"xyz",
            Some(0x2064), // prio 1, vid 100
        );
        let p = ParsedFrame::parse(&f).unwrap();
        assert_eq!(p.vlan_tci, Some(0x2064));
        assert!(p.tcp.is_some());
        assert_eq!(p.ports(), Some((443, 51000)));
        assert_eq!(p.l4_payload(), Some(&b"xyz"[..]));
        assert_eq!(p.payload_offset(), Some(18 + 20 + 20));
    }

    #[test]
    fn short_frame_rejected() {
        assert!(EthFrame::new(&[0u8; 13]).is_none());
        assert!(ParsedFrame::parse(&[0u8; 5]).is_none());
    }

    #[test]
    fn bad_ip_version_rejected() {
        let mut f = testpkt::udp4([1, 1, 1, 1], [2, 2, 2, 2], 1, 2, b"", None);
        f[14] = 0x65; // version 6 nibble in an IPv4 slot
        let p = ParsedFrame::parse(&f).unwrap();
        assert!(p.ipv4.is_none());
    }

    #[test]
    fn ipv4_payload_clipped_to_total_len() {
        // Frame padded past the IP total length must not leak padding into
        // the payload view.
        let mut f = testpkt::udp4([1, 1, 1, 1], [2, 2, 2, 2], 7, 9, b"ab", None);
        f.extend_from_slice(&[0xEE; 10]); // ethernet padding
        let p = ParsedFrame::parse(&f).unwrap();
        assert_eq!(p.l4_payload(), Some(&b"ab"[..]));
    }

    #[test]
    fn udp_view_len_and_empty() {
        let f = testpkt::udp4([1, 1, 1, 1], [2, 2, 2, 2], 7, 9, b"", None);
        let p = ParsedFrame::parse(&f).unwrap();
        let u = p.udp.unwrap();
        assert_eq!(u.len(), 8);
        assert!(u.is_empty());
    }
}
