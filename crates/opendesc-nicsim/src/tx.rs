//! The simulated NIC's transmit path (paper §3, channels ① and ②).
//!
//! The host posts descriptors into the TX ring; the device parses them
//! per the contract's `DescParser` (per-queue H2C context steering the
//! parse), resolves `buf_addr`/`buf_len` against host memory, honors the
//! offload hints the descriptor carries (checksum insertion, VLAN
//! insertion — computed by the same softnic reference code the host
//! would use as fallback), and emits the wire frame.
//!
//! Like the completion side, the parse is table-driven: the descriptor
//! layout is resolved once per programmed context
//! ([`SimNic::configure_tx`], and at construction for parsers that
//! never get configured) by the same rule as the completion path — the
//! first enumerated [`DescriptorLayout`] whose guards all hold — and
//! each descriptor is then five [`Slot`] loads. The enumerator
//! refuses, at construction, every parser a table cannot express (see
//! [`opendesc_ir::txpath`]), so the table is exact; under a context
//! that selects no layout every descriptor is a parse reject, as it is
//! for the contract's parser.

use crate::hostmem::HostMem;
use crate::nic::{select_layout, NicError, SimNic};
use crate::offload::Slot;
use opendesc_ir::semantics::names;
use opendesc_ir::{Assignment, DescriptorLayout, SemanticRegistry};
use opendesc_softnic::fixup;

/// TX-side counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TxStats {
    /// Descriptors consumed from the ring.
    pub descs: u64,
    /// Frames emitted on the wire.
    pub frames: u64,
    /// Descriptors the parser rejected.
    pub parse_rejects: u64,
    /// Descriptors with unresolvable buffer addresses/lengths.
    pub bad_buffers: u64,
}

/// The active descriptor layout reduced to what the device reads per
/// descriptor — the TX twin of RX's active completion path.
#[derive(Debug, Clone)]
pub(crate) struct TxPath {
    /// Index into `SimNic::tx_layouts`.
    layout: usize,
    size_bits: u32,
    buf_addr: Slot,
    buf_len: Slot,
    vlan_insert: Option<Slot>,
    ip_csum: Option<Slot>,
    l4_csum: Option<Slot>,
}

/// What one descriptor asks of the device. An offload hint the layout
/// does not carry reads as 0, like one the host left clear.
struct TxHints {
    buf_addr: u128,
    buf_len: u128,
    vlan_insert: u128,
    ip_csum: u128,
    l4_csum: u128,
}

impl TxPath {
    /// The fields the device reads from `layouts[layout]`. The
    /// enumerator refused every layout without `buf_addr`/`buf_len` or
    /// carrying a semantic twice, so each is one slot at most.
    fn new(layouts: &[DescriptorLayout], layout: usize, reg: &SemanticRegistry) -> Option<TxPath> {
        let l = &layouts[layout];
        let field = |sem: &str| l.slot_for(reg.id(sem)?).map(Slot::of);
        Some(TxPath {
            layout,
            size_bits: l.size_bits,
            buf_addr: field(names::BUF_ADDR)?,
            buf_len: field(names::BUF_LEN)?,
            vlan_insert: field(names::TX_VLAN_INSERT),
            ip_csum: field(names::TX_IP_CSUM),
            l4_csum: field(names::TX_L4_CSUM),
        })
    }

    /// The parser's `extract`s fail exactly when the descriptor is
    /// shorter than the walk's headers; longer is fine (the tail is
    /// never read).
    fn read(&self, desc: &[u8]) -> Result<TxHints, TxError> {
        if desc.len() * 8 < self.size_bits as usize {
            return Err(TxError::ParseReject);
        }
        let get = |slot: Slot| slot.load(desc);
        Ok(TxHints {
            buf_addr: get(self.buf_addr),
            buf_len: get(self.buf_len),
            vlan_insert: self.vlan_insert.map_or(0, get),
            ip_csum: self.ip_csum.map_or(0, get),
            l4_csum: self.l4_csum.map_or(0, get),
        })
    }
}

impl SimNic {
    /// Program the H2C (TX) per-queue context.
    pub fn configure_tx(&mut self, ctx: Assignment) {
        self.h2c_context = ctx;
        self.refresh_tx_path();
    }

    /// The programmed H2C (TX) context.
    pub fn tx_context(&self) -> &Assignment {
        &self.h2c_context
    }

    /// The descriptor layout the programmed H2C context selects; `None`
    /// means it selects none, and every descriptor is a parse reject.
    pub fn active_tx_layout(&self) -> Option<&DescriptorLayout> {
        self.tx_path.as_ref().map(|p| &self.tx_layouts[p.layout])
    }

    pub(crate) fn refresh_tx_path(&mut self) {
        let guards = self.tx_layouts.iter().map(|l| l.guard.as_slice());
        self.tx_path = select_layout(guards, &self.h2c_context)
            .and_then(|i| TxPath::new(&self.tx_layouts, i, &self.reg));
    }

    /// Register a frame buffer in DMA-visible host memory (for tests
    /// that hand-feed descriptors; the driver's `TxQueue` registers its
    /// buffers once, at attach).
    pub fn alloc_tx_buf(&mut self, frame: &[u8]) -> u64 {
        self.host_mem.alloc(frame)
    }

    /// Post a raw TX descriptor and ring the doorbell for it — the
    /// device-level shorthand tests use to hand-feed one descriptor.
    pub fn post_tx(&mut self, desc: &[u8]) -> Result<(), NicError> {
        self.post_tx_deferred(desc)?;
        self.ring_tx_doorbell();
        Ok(())
    }

    /// Stage a TX descriptor in the ring *without* publishing it: the
    /// device sees nothing until [`ring_tx_doorbell`] makes the whole
    /// batch visible at once. This is how real drivers amortize the MMIO
    /// doorbell write over a batch.
    ///
    /// [`ring_tx_doorbell`]: SimNic::ring_tx_doorbell
    fn post_tx_deferred(&mut self, desc: &[u8]) -> Result<(), NicError> {
        self.tx_ring.produce(desc).map_err(NicError::Ring)
    }

    /// Publish every staged TX descriptor with one doorbell; returns how
    /// many became visible to the device.
    pub fn ring_tx_doorbell(&mut self) -> u64 {
        self.tx_ring.ring_doorbell()
    }

    /// Cumulative count of TX descriptors the device has consumed — the
    /// completion signal batched submitters reclaim buffer slots
    /// against (a descriptor is consumed only after its frame left the
    /// device, so a slot whose descriptor is consumed is free to reuse).
    pub fn tx_completed(&self) -> u64 {
        self.tx_ring.total_consumed()
    }

    /// [`process_tx`](SimNic::process_tx) without collecting the wire
    /// frames: processes every published descriptor and returns the
    /// number of frames emitted. The forwarding engine's device-side
    /// drain — wire frames that nobody inspects are not retained, and
    /// after warm-up nothing is allocated.
    pub fn process_tx_drain(&mut self) -> u64 {
        let before = self.tx_stats.frames;
        self.run_tx(|_| {});
        self.tx_stats.frames - before
    }

    /// Device side: consume published descriptors, parse them with the
    /// contract, apply requested offloads, and return the wire frames.
    pub fn process_tx(&mut self) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        self.run_tx(|frame| out.push(frame.to_vec()));
        out
    }

    /// Consume every published descriptor, handing each wire frame to
    /// `emit`. Each descriptor is read in its ring slot; the frame lives
    /// in scratch reused across calls.
    fn run_tx(&mut self, mut emit: impl FnMut(&[u8])) {
        let mut frame = std::mem::take(&mut self.tx_frame_scratch);
        while let Some(desc) = self.tx_ring.consume() {
            self.tx_stats.descs += 1;
            let hints = match &self.tx_path {
                Some(path) => path.read(desc),
                None => Err(TxError::ParseReject),
            };
            match hints.and_then(|h| build_frame(&self.host_mem, &h, &mut frame)) {
                Ok(()) => {
                    self.tx_stats.frames += 1;
                    self.dma.record(&self.dma_cfg, frame.len() as u32);
                    emit(&frame);
                }
                Err(TxError::ParseReject) => self.tx_stats.parse_rejects += 1,
                Err(TxError::BadBuffer) => self.tx_stats.bad_buffers += 1,
            }
        }
        self.tx_frame_scratch = frame;
    }
}

/// Resolve the descriptor's buffer against host memory into `frame` and
/// apply the offload hints (same reference code as the host fallback).
/// Descriptor contents are host input: an address or length the device
/// cannot represent, or a range that is not one registered buffer, is a
/// bad buffer, never a truncation.
fn build_frame(mem: &HostMem, hints: &TxHints, frame: &mut Vec<u8>) -> Result<(), TxError> {
    let addr = u64::try_from(hints.buf_addr).map_err(|_| TxError::BadBuffer)?;
    let len = usize::try_from(hints.buf_len).map_err(|_| TxError::BadBuffer)?;
    let buf = mem.read(addr, len).ok_or(TxError::BadBuffer)?;
    frame.clear();
    frame.extend_from_slice(buf);
    if hints.vlan_insert != 0 {
        fixup::insert_vlan_in_place(frame, hints.vlan_insert as u16);
    }
    if hints.ip_csum != 0 {
        fixup::fill_ipv4_checksum(frame);
    }
    if hints.l4_csum != 0 {
        fixup::fill_l4_checksum(frame);
    }
    Ok(())
}

enum TxError {
    ParseReject,
    BadBuffer,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
    use crate::ring::RingError;
    use opendesc_ir::bits::write_bits;
    use opendesc_ir::pred::FieldRef;
    use opendesc_softnic::testpkt;

    fn h2c(size: u128) -> Assignment {
        let mut a = Assignment::new();
        a.insert(FieldRef::new(&["h2c_ctx", "desc_size"], 8), size);
        a
    }

    /// Build a QDMA base descriptor (addr 64, len 16, flags 8, qid 8).
    fn qdma_desc(addr: u64, len: u16, ext_args: Option<u32>) -> Vec<u8> {
        let size = if ext_args.is_some() { 16 } else { 12 };
        let mut d = vec![0u8; size];
        write_bits(&mut d, 0, 64, addr as u128);
        write_bits(&mut d, 64, 16, len as u128);
        if let Some(args) = ext_args {
            write_bits(&mut d, 96, 32, args as u128);
        }
        d
    }

    #[test]
    fn qdma_tx_base_descriptor_transmits() {
        let mut nic = SimNic::new(models::qdma_default(), 16).unwrap();
        assert!(nic.model.desc_parser.is_some());
        nic.configure_tx(h2c(12));
        let frame = testpkt::udp4([1, 2, 3, 4], [5, 6, 7, 8], 1, 2, b"payload", None);
        let addr = nic.alloc_tx_buf(&frame);
        nic.post_tx(&qdma_desc(addr, frame.len() as u16, None))
            .unwrap();
        let sent = nic.process_tx();
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0], frame);
        assert_eq!(nic.tx_stats.frames, 1);
    }

    #[test]
    fn tx_parse_reject_on_wrong_context() {
        let mut nic = SimNic::new(models::qdma_default(), 16).unwrap();
        nic.configure_tx(h2c(99)); // select has no arm for 99 → reject
        let frame = testpkt::udp4([1, 1, 1, 1], [2, 2, 2, 2], 1, 2, b"x", None);
        let addr = nic.alloc_tx_buf(&frame);
        nic.post_tx(&qdma_desc(addr, frame.len() as u16, None))
            .unwrap();
        assert!(nic.process_tx().is_empty());
        assert_eq!(nic.tx_stats.parse_rejects, 1);
    }

    #[test]
    fn tx_bad_buffer_counted() {
        let mut nic = SimNic::new(models::qdma_default(), 16).unwrap();
        nic.configure_tx(h2c(12));
        nic.post_tx(&qdma_desc(0xDEAD_0000, 64, None)).unwrap();
        assert!(nic.process_tx().is_empty());
        assert_eq!(nic.tx_stats.bad_buffers, 1);
    }

    #[test]
    fn e1000e_tx_transmits_via_its_parser() {
        let mut nic = SimNic::new(models::e1000e(), 16).unwrap();
        assert!(nic.model.desc_parser.is_some());
        let frame = testpkt::udp4([3, 3, 3, 3], [4, 4, 4, 4], 9, 10, b"e1000e", None);
        let addr = nic.alloc_tx_buf(&frame);
        // e1000e TX: addr 64, length 16, flags 8, qid 8 (12 bytes).
        let mut d = vec![0u8; 12];
        write_bits(&mut d, 0, 64, addr as u128);
        write_bits(&mut d, 64, 16, frame.len() as u128);
        nic.post_tx(&d).unwrap();
        let sent = nic.process_tx();
        assert_eq!(sent, vec![frame]);
    }

    #[test]
    fn models_without_tx_parser_are_inert() {
        let mut nic = SimNic::new(models::mlx5(), 16).unwrap();
        assert!(nic.model.desc_parser.is_none());
        assert!(nic.process_tx().is_empty());
    }

    #[test]
    fn deferred_posts_invisible_until_doorbell() {
        let mut nic = SimNic::new(models::qdma_default(), 16).unwrap();
        nic.configure_tx(h2c(12));
        let frame = testpkt::udp4([9, 9, 9, 9], [8, 8, 8, 8], 3, 4, b"batched", None);
        let addr = nic.alloc_tx_buf(&frame);
        for _ in 0..3 {
            nic.post_tx_deferred(&qdma_desc(addr, frame.len() as u16, None))
                .unwrap();
        }
        // Nothing published: the device consumes nothing.
        assert_eq!(nic.process_tx_drain(), 0);
        assert_eq!(nic.tx_completed(), 0);
        // One doorbell publishes the whole batch.
        assert_eq!(nic.ring_tx_doorbell(), 3);
        assert_eq!(nic.process_tx_drain(), 3);
        assert_eq!(nic.tx_completed(), 3);
        assert_eq!(nic.tx_stats.frames, 3);
    }

    #[test]
    fn ring_full_reported() {
        let mut nic = SimNic::new(models::qdma_default(), 16).unwrap();
        nic.configure_tx(h2c(12));
        // TX ring default capacity; fill until Full.
        let d = qdma_desc(0x1000, 8, None);
        let mut posted = 0;
        loop {
            match nic.post_tx(&d) {
                Ok(()) => posted += 1,
                Err(NicError::Ring(RingError::Full)) => break,
                Err(e) => panic!("unexpected {e}"),
            }
            assert!(posted < 100_000, "ring never fills?");
        }
        assert_eq!(posted, nic.tx_ring.capacity());
    }
}
