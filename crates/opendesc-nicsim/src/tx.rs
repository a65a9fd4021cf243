//! The simulated NIC's transmit path (paper §3, channels ① and ②).
//!
//! The host posts descriptors into the TX ring; the device parses them
//! per the contract's `DescParser` (per-queue H2C context steering the
//! parse), resolves `buf_addr`/`buf_len` against host memory, honors the
//! offload hints the descriptor carries (checksum insertion, VLAN
//! insertion — computed by the same softnic reference code the host
//! would use as fallback), and emits the wire frame.
//!
//! Like the completion side, the parse has two executions of the one
//! contract. The reference interprets the `DescParser` AST for every
//! descriptor. The table-driven path resolves the descriptor layout once
//! per programmed context ([`SimNic::configure_tx`], and at
//! construction for parsers that never get configured) and then reads
//! five `(offset, width)` fields per descriptor. The layout is chosen by
//! the reference itself: the interpreter runs once over an all-zero
//! probe descriptor under the programmed context, and the enumerated
//! [`DescriptorLayout`] with the same state walk becomes active — so no
//! second evaluator of `select` can disagree with the first. The table
//! is used only when that choice provably holds for every descriptor
//! (see [`SimNic::active_tx_layout`]); otherwise, and always in
//! [`WritebackMode::Interpret`], each descriptor goes through the
//! interpreter.

use crate::hostmem::HostMem;
use crate::nic::{NicError, SimNic, WritebackMode};
use opendesc_ir::bits::read_bits;
use opendesc_ir::interp::{run_desc_parser, InterpError, ParserRun};
use opendesc_ir::semantics::names;
use opendesc_ir::value::Value;
use opendesc_ir::{Assignment, DescriptorLayout, SemanticId};
use opendesc_p4::ast;
use opendesc_p4::types::{ExternKind, Ty};
use opendesc_softnic::fixup;
use std::collections::HashMap;

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

/// One descriptor field the device reads: `(offset_bits, width_bits)`.
type Field = (u32, u16);

/// The active descriptor layout reduced to what the device reads per
/// descriptor — the TX twin of RX's active completion path.
#[derive(Debug, Clone)]
pub(crate) struct TxPath {
    /// Index into `SimNic::tx_layouts`.
    layout: usize,
    size_bits: u32,
    buf_addr: Field,
    buf_len: Field,
    vlan_insert: Option<Field>,
    ip_csum: Option<Field>,
    l4_csum: Option<Field>,
}

/// What one descriptor asks of the device, whichever path parsed it.
/// An offload hint the layout does not carry reads as 0, like one the
/// host left clear.
struct TxHints {
    buf_addr: u128,
    buf_len: u128,
    vlan_insert: u128,
    ip_csum: u128,
    l4_csum: u128,
}

impl TxPath {
    /// The interpreter's `extract`s fail exactly when the descriptor is
    /// shorter than the walk's headers; longer is fine (the tail is
    /// never read).
    fn read(&self, desc: &[u8]) -> Result<TxHints, TxError> {
        if desc.len() * 8 < self.size_bits as usize {
            return Err(TxError::ParseReject);
        }
        let get = |(offset, width): Field| read_bits(desc, offset, width);
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

    /// The descriptor layout the programmed H2C context selects, when
    /// the context alone decides it; `None` means every descriptor is
    /// interpreted. That is the case when the contract's parser rejects
    /// the probe under this context (no layout matches), when its walk
    /// is not among the enumerated layouts, when a state on the walk
    /// does anything but `extract` into the `out` descriptor or
    /// `select`s on something other than fields of the `in` context
    /// parameter (a descriptor field, a computed expression), or when
    /// the layout lacks `buf_addr`/`buf_len` or carries one of the five
    /// consumed semantics twice.
    pub fn active_tx_layout(&self) -> Option<&DescriptorLayout> {
        self.tx_path.as_ref().map(|p| &self.tx_layouts[p.layout])
    }

    pub(crate) fn refresh_tx_path(&mut self) {
        self.tx_path = self.resolve_tx_path();
    }

    fn resolve_tx_path(&self) -> Option<TxPath> {
        let name = self.model.desc_parser.as_deref()?;
        let parser = self.checked.program.parser(name)?;
        let probe = vec![0u8; self.tx_ring.slot_size()];
        let walk = self.run_tx_parser(name, &probe).ok()?.trace;
        let layout = self.tx_layouts.iter().position(|l| l.states == walk)?;
        if !self.context_decides(parser, &walk) {
            return None;
        }
        // `Err` = carried twice: which copy the interpreter's harvest
        // reports is its business, not something to replicate.
        let slots = &self.tx_layouts[layout].slots;
        let field = |sem: &str| -> Result<Option<Field>, ()> {
            let id = self.reg.id(sem);
            let mut hits = slots.iter().filter(|s| id.is_some() && s.semantic == id);
            match (hits.next(), hits.next()) {
                (first, None) => Ok(first.map(|s| (s.offset_bits, s.width_bits))),
                _ => Err(()),
            }
        };
        Some(TxPath {
            layout,
            size_bits: self.tx_layouts[layout].size_bits,
            buf_addr: field(names::BUF_ADDR).ok()??,
            buf_len: field(names::BUF_LEN).ok()??,
            vlan_insert: field(names::TX_VLAN_INSERT).ok()?,
            ip_csum: field(names::TX_IP_CSUM).ok()?,
            l4_csum: field(names::TX_L4_CSUM).ok()?,
        })
    }

    /// Whether every descriptor takes `walk` under the programmed
    /// context: each state on it only `extract`s into the `out`
    /// descriptor (so nothing else is written and every extracted header
    /// is harvested), and each `select` reads only fields of an H2C
    /// context parameter (so no descriptor content steers the parse).
    fn context_decides(&self, parser: &ast::ParserDecl, walk: &[String]) -> bool {
        let mut desc_in = None;
        let mut out = None;
        for p in &parser.params {
            match self.checked.param_ty(p) {
                Some(Ty::Extern(ExternKind::DescIn | ExternKind::PacketIn)) => {
                    desc_in = Some(p.name.name.as_str());
                }
                Some(Ty::Extern(_)) | None => {}
                Some(_) if p.dir == Some(ast::Direction::Out) => out = Some(p.name.name.as_str()),
                Some(_) => {}
            }
        }
        let extracts_into_out = |stmt: &ast::Stmt| {
            let ast::StmtKind::Expr(e) = &stmt.kind else {
                return false;
            };
            let ast::ExprKind::Call { callee, args } = &e.kind else {
                return false;
            };
            callee
                .as_path()
                .is_some_and(|c| c.len() == 2 && Some(c[0]) == desc_in && c[1] == "extract")
                && args.len() == 1
                && args[0].as_path().is_some_and(|a| Some(a[0]) == out)
        };
        let reads_context = |e: &ast::Expr| {
            e.as_path()
                .is_some_and(|path| self.h2c_params(parser).any(|(p, _)| p == path[0]))
        };
        walk.iter().all(|name| {
            let Some(st) = parser
                .states
                .iter()
                .flatten()
                .find(|s| s.name.name == *name)
            else {
                return false;
            };
            st.stmts.iter().all(extracts_into_out)
                && match &st.transition {
                    Some(ast::Transition::Select { exprs, .. }) => exprs.iter().all(reads_context),
                    _ => true,
                }
        })
    }

    /// The parser's H2C context parameters — `in`-direction structs,
    /// the ones [`configure_tx`](SimNic::configure_tx) values reach.
    fn h2c_params<'a>(
        &'a self,
        parser: &'a ast::ParserDecl,
    ) -> impl Iterator<Item = (&'a str, opendesc_p4::types::StructId)> + 'a {
        parser
            .params
            .iter()
            .filter_map(|p| match (p.dir, self.checked.param_ty(p)) {
                (Some(ast::Direction::In), Some(Ty::Struct(sid))) => {
                    Some((p.name.name.as_str(), sid))
                }
                _ => None,
            })
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
    /// `emit`. Descriptor and frame live in scratch reused across calls.
    fn run_tx(&mut self, mut emit: impl FnMut(&[u8])) {
        let Some(parser) = self.model.desc_parser.as_deref() else {
            return;
        };
        let mut desc = std::mem::take(&mut self.tx_desc_scratch);
        let mut frame = std::mem::take(&mut self.tx_frame_scratch);
        while let Some(d) = self.tx_ring.consume() {
            desc.clear();
            desc.extend_from_slice(d);
            self.tx_stats.descs += 1;
            let hints = match (self.mode, &self.tx_path) {
                (WritebackMode::Fast, Some(path)) => path.read(&desc),
                _ => self.interpret_desc(parser, &desc),
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
        self.tx_desc_scratch = desc;
        self.tx_frame_scratch = frame;
    }

    /// Execute the contract's parser `name` over `desc` under the
    /// programmed H2C context.
    fn run_tx_parser(&self, name: &str, desc: &[u8]) -> Result<ParserRun, InterpError> {
        let parser = self.checked.program.parser(name);
        let args: HashMap<String, Value> = parser
            .into_iter()
            .flat_map(|parser| self.h2c_params(parser))
            .map(|(param, sid)| {
                let value = self.context_value(sid, param, &self.h2c_context);
                (param.to_string(), value)
            })
            .collect();
        run_desc_parser(&self.checked, name, desc, &args)
    }

    /// Reference parse: interpret the `parser` AST over `desc` and
    /// harvest the semantic-annotated fields of the result.
    fn interpret_desc(&self, parser: &str, desc: &[u8]) -> Result<TxHints, TxError> {
        let run = self
            .run_tx_parser(parser, desc)
            .map_err(|_| TxError::ParseReject)?;
        let mut fields = Vec::new();
        self.harvest_semantics(&run.descriptor, &mut fields);
        let get = |name: &str| {
            let id = self.reg.id(name)?;
            fields.iter().find(|(s, _)| *s == id).map(|(_, v)| *v)
        };
        Ok(TxHints {
            buf_addr: get(names::BUF_ADDR).ok_or(TxError::BadBuffer)?,
            buf_len: get(names::BUF_LEN).ok_or(TxError::BadBuffer)?,
            vlan_insert: get(names::TX_VLAN_INSERT).unwrap_or(0),
            ip_csum: get(names::TX_IP_CSUM).unwrap_or(0),
            l4_csum: get(names::TX_L4_CSUM).unwrap_or(0),
        })
    }

    /// Collect `(semantic, value)` pairs from a parsed descriptor value
    /// tree: every valid header field carrying an `@semantic` annotation.
    fn harvest_semantics(&self, v: &Value, out: &mut Vec<(SemanticId, u128)>) {
        match v {
            Value::Struct(fields) => {
                for f in fields.values() {
                    self.harvest_semantics(f, out);
                }
            }
            Value::Header {
                header,
                valid: true,
                fields,
            } => {
                let info = self.checked.types.header(*header);
                for hf in &info.fields {
                    if let Some(sem) = hf.semantic.as_deref() {
                        if let Some(id) = self.reg.id(sem) {
                            out.push((id, fields.get(&hf.name).copied().unwrap_or(0)));
                        }
                    }
                }
            }
            _ => {}
        }
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
