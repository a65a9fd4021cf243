//! The simulated NIC's offload engine.
//!
//! For each received frame the engine runs an [`OffloadProgram`]: one op
//! per semantic the device computes, compiled against the active
//! completion layout, so every op carries the slots its value lands in
//! and the engine writes the completion record directly
//! ([`OffloadEngine::process_into_completion`], the device's `offload`
//! stage, which reuses the steering stage's parse and RSS hash). The
//! same op loop can fill a [`MetaRecord`] instead
//! ([`OffloadEngine::process_program_into`]) — what a reference
//! serializer of the contract takes as its input. A queue compiles its
//! program into the storage of the one before
//! ([`OffloadProgram::compile`] builds a fresh one). The engine
//! delegates stateless semantics to the SoftNIC reference
//! implementations — hardware and software compute identical values by
//! construction — and adds the device-only ones (timestamps from the
//! device clock).

use opendesc_ir::bits::{read_bits, write_bits};
use opendesc_ir::semantics::{names, SemanticRegistry};
use opendesc_ir::{CompletionPath, FieldSlot, SemanticId};
use opendesc_softnic::wire::ParsedFrame;
use opendesc_softnic::{ShimMemo, ShimOp, SoftNic};

/// Per-packet semantic values, keyed by semantic id.
///
/// Backed by a sorted `Vec` rather than a tree: a record holds a handful
/// of entries and is rebuilt per packet, so a flat array wins on both
/// lookup and (crucially) `clear`-and-reuse — the deliver hot path keeps
/// one record allocated for the lifetime of the queue.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetaRecord {
    /// Sorted by semantic id.
    values: Vec<(SemanticId, u128)>,
}

impl MetaRecord {
    pub fn get(&self, sem: SemanticId) -> Option<u128> {
        self.values
            .binary_search_by_key(&sem, |(s, _)| *s)
            .ok()
            .map(|i| self.values[i].1)
    }

    pub fn set(&mut self, sem: SemanticId, value: u128) {
        match self.values.binary_search_by_key(&sem, |(s, _)| *s) {
            Ok(i) => self.values[i].1 = value,
            Err(i) => self.values.insert(i, (sem, value)),
        }
    }

    /// Drop all entries, keeping the backing storage for reuse.
    pub fn clear(&mut self) {
        self.values.clear();
    }

    pub fn iter(&self) -> impl Iterator<Item = (SemanticId, u128)> + '_ {
        self.values.iter().map(|(k, v)| (*k, *v))
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// One device-side operation, pre-lowered from a semantic name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceOp {
    /// Stamp the device clock (device-only state).
    Timestamp,
    /// Allocate a crypto-context id (device-only state).
    CryptoCtx,
    /// Delegate to the SoftNIC reference implementation.
    Shim(ShimOp),
}

/// One field of the active layout, resolved when the program or the TX
/// path is built: where a completion value lands, or where a descriptor
/// hint is read from. Byte-aligned 8-, 16-, 32- and 64-bit fields (most
/// fields of every catalog layout) move as one big-endian access; every
/// other shape goes through [`write_bits`] / [`read_bits`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    pub offset_bits: u32,
    pub width_bits: u16,
}

impl Slot {
    pub(crate) fn of(field: &FieldSlot) -> Slot {
        Slot {
            offset_bits: field.offset_bits,
            width_bits: field.width_bits,
        }
    }

    /// Write the low `width_bits` of `value` into `buf` at this slot —
    /// what [`write_bits`] does.
    #[inline]
    fn store(self, buf: &mut [u8], value: u64) {
        let at = (self.offset_bits / 8) as usize;
        match (self.offset_bits % 8, self.width_bits) {
            (0, 8) => buf[at] = value as u8,
            (0, 16) => buf[at..at + 2].copy_from_slice(&(value as u16).to_be_bytes()),
            (0, 32) => buf[at..at + 4].copy_from_slice(&(value as u32).to_be_bytes()),
            (0, 64) => buf[at..at + 8].copy_from_slice(&value.to_be_bytes()),
            _ => write_bits(buf, self.offset_bits, self.width_bits, value.into()),
        }
    }

    /// Read this slot's value from `buf` — what [`read_bits`] does, by
    /// the same shapes as [`store`](Slot::store).
    #[inline]
    pub(crate) fn load(self, buf: &[u8]) -> u128 {
        let at = (self.offset_bits / 8) as usize;
        match (self.offset_bits % 8, self.width_bits) {
            (0, 8) => buf[at].into(),
            (0, 16) => u16::from_be_bytes(buf[at..at + 2].try_into().unwrap()).into(),
            (0, 32) => u32::from_be_bytes(buf[at..at + 4].try_into().unwrap()).into(),
            (0, 64) => u64::from_be_bytes(buf[at..at + 8].try_into().unwrap()).into(),
            _ => read_bits(buf, self.offset_bits, self.width_bits),
        }
    }
}

/// One step of an [`OffloadProgram`]: a semantic, the op computing it,
/// and (through `OffloadProgram::slots_of`) where its value goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OffloadOp {
    pub sem: SemanticId,
    pub op: DeviceOp,
    /// This op's range of the program's slot table.
    slots: (u16, u16),
}

/// A list of semantics lowered to device ops, once per queue context —
/// the engine-side twin of the host's compiled shim plan. Each semantic
/// is one op and runs once per packet, however many slots carry it.
#[derive(Debug, Clone, Default)]
pub struct OffloadProgram {
    ops: Vec<OffloadOp>,
    /// Destination slots of every op, grouped by op.
    slots: Vec<Slot>,
    /// Size of the record the slots index into.
    record_bytes: usize,
}

impl OffloadProgram {
    /// Lower `sems` against the registry and against `layout`: each op
    /// carries every slot of the layout tagged with its semantic (none,
    /// for a semantic the layout does not carry — its value reaches
    /// only a record). Names resolve to ops, and semantics to offsets,
    /// here — never again per packet.
    pub fn compile(
        reg: &SemanticRegistry,
        sems: &[SemanticId],
        layout: &CompletionPath,
    ) -> OffloadProgram {
        let mut prog = OffloadProgram::default();
        prog.recompile(reg, sems.iter().copied(), layout);
        prog
    }

    /// [`compile`](Self::compile) into this program's own storage: a
    /// queue relayout reprograms its device without allocating once the
    /// program has held as many ops and slots.
    pub(crate) fn recompile(
        &mut self,
        reg: &SemanticRegistry,
        sems: impl IntoIterator<Item = SemanticId>,
        layout: &CompletionPath,
    ) {
        self.clear();
        for sem in sems {
            let op = match reg.name(sem) {
                names::TIMESTAMP => DeviceOp::Timestamp,
                names::CRYPTO_CTX => DeviceOp::CryptoCtx,
                name => DeviceOp::Shim(ShimOp::from_name(name)),
            };
            let start = self.slots.len() as u16;
            self.slots.extend(
                (layout.slots.iter())
                    .filter(|s| s.semantic == Some(sem))
                    .map(Slot::of),
            );
            self.ops.push(OffloadOp {
                sem,
                op,
                slots: (start, self.slots.len() as u16),
            });
        }
        self.record_bytes = layout.size_bytes() as usize;
    }

    /// No ops: what a queue whose context selects no layout computes.
    pub(crate) fn clear(&mut self) {
        self.ops.clear();
        self.slots.clear();
        self.record_bytes = 0;
    }

    pub fn ops(&self) -> &[OffloadOp] {
        &self.ops
    }

    /// The completion slots `op` (one of [`ops`](Self::ops)) writes.
    fn slots_of(&self, op: &OffloadOp) -> &[Slot] {
        &self.slots[op.slots.0 as usize..op.slots.1 as usize]
    }
}

/// The device-side computation engine.
#[derive(Debug, Clone)]
pub struct OffloadEngine {
    soft: SoftNic,
    /// Device clock in nanoseconds; advances as frames arrive.
    clock_ns: u64,
    /// Link rate used to advance the clock per frame, bits per ns.
    link_gbps: f64,
    /// Monotonic crypto-context allocator (device-owned state).
    next_crypto_ctx: u32,
}

impl Default for OffloadEngine {
    fn default() -> Self {
        Self::new(100.0)
    }
}

impl OffloadEngine {
    /// An engine on a link of `link_gbps` gigabits per second.
    pub fn new(link_gbps: f64) -> Self {
        OffloadEngine {
            soft: SoftNic::new(),
            clock_ns: 1_000, // arbitrary non-zero epoch
            link_gbps,
            next_crypto_ctx: 1,
        }
    }

    /// Run a pre-compiled program over one frame into a reusable record,
    /// advancing the device clock by the frame's wire time.
    ///
    /// The frame is parsed once and the view shared by every shim op;
    /// intra-packet repeats are memoized (mirroring the host-side plan
    /// execution, so hardware and shims stay value-identical).
    pub fn process_program_into(
        &mut self,
        prog: &OffloadProgram,
        frame: &[u8],
        rec: &mut MetaRecord,
    ) {
        rec.clear();
        self.run_ops(prog, frame, None, None, |op, v| rec.set(op.sem, v.into()));
    }

    /// Run a program compiled against a completion layout over one frame
    /// and write the completion record itself into `record` (cleared and
    /// sized to the layout first): every value goes from its op straight
    /// to the slots the op carries, bits no op writes stay zero. Same
    /// device-state effects as
    /// [`process_program_into`](OffloadEngine::process_program_into).
    ///
    /// Work the steering stage already did is reused, never repeated: a
    /// multi-queue NIC parses the frame and runs Toeplitz RSS to pick a
    /// queue, so pass the parse as `steer_parsed` and the hash as
    /// `rss_hint`. `steer_parsed = None` parses here; `rss_hint = None`
    /// leaves RSS to the shim. The hint must be the frame's own
    /// [`opendesc_softnic::rss_frame`] (true for
    /// [`crate::multiqueue::Steerer`], which calls it).
    pub fn process_into_completion(
        &mut self,
        prog: &OffloadProgram,
        frame: &[u8],
        steer_parsed: Option<&ParsedFrame<'_>>,
        rss_hint: Option<u32>,
        record: &mut Vec<u8>,
    ) {
        record.clear();
        record.resize(prog.record_bytes, 0);
        self.run_ops(prog, frame, steer_parsed, rss_hint, |op, v| {
            for slot in prog.slots_of(op) {
                slot.store(record, v);
            }
        });
    }

    /// The op loop every entry point shares: advance the device clock,
    /// parse once (or not at all, given `steer_parsed`), run each op of
    /// `prog` once and hand each value it produced to `sink`.
    #[inline]
    fn run_ops(
        &mut self,
        prog: &OffloadProgram,
        frame: &[u8],
        steer_parsed: Option<&ParsedFrame<'_>>,
        rss_hint: Option<u32>,
        mut sink: impl FnMut(&OffloadOp, u64),
    ) {
        // Wire time: preamble(8) + frame + FCS(4) + IFG(12) bytes.
        let wire_bytes = frame.len() as u64 + 24;
        self.clock_ns += ((wire_bytes * 8) as f64 / self.link_gbps) as u64;

        let local;
        let parsed = match steer_parsed {
            Some(p) => Some(p),
            None => {
                local = ParsedFrame::parse(frame);
                local.as_ref()
            }
        };
        let mut memo = ShimMemo::default();
        if let Some(h) = rss_hint {
            memo.prime_rss(h);
        }
        for op in &prog.ops {
            let v = match op.op {
                DeviceOp::Timestamp => Some(self.clock_ns),
                DeviceOp::CryptoCtx => {
                    let id = self.next_crypto_ctx;
                    self.next_crypto_ctx = self.next_crypto_ctx.wrapping_add(1).max(1);
                    Some(u64::from(id))
                }
                DeviceOp::Shim(shim) => {
                    parsed.and_then(|p| self.soft.exec_op(shim, p, frame.len(), &mut memo))
                }
            };
            if let Some(v) = v {
                sink(op, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opendesc_softnic::testpkt;

    fn ids(reg: &SemanticRegistry, names_: &[&str]) -> Vec<SemanticId> {
        names_.iter().map(|n| reg.id(n).unwrap()).collect()
    }

    /// A layout with no slots: every value reaches only the record.
    fn slotless() -> CompletionPath {
        CompletionPath {
            id: 0,
            guard: Vec::new(),
            emits: Vec::new(),
            slots: Vec::new(),
            size_bits: 0,
            prov: Default::default(),
        }
    }

    /// `sems` over `frame` into a fresh record.
    fn process(
        eng: &mut OffloadEngine,
        reg: &SemanticRegistry,
        sems: &[SemanticId],
        frame: &[u8],
    ) -> MetaRecord {
        let mut rec = MetaRecord::default();
        eng.process_program_into(
            &OffloadProgram::compile(reg, sems, &slotless()),
            frame,
            &mut rec,
        );
        rec
    }

    #[test]
    fn process_fills_supported_semantics() {
        let reg = SemanticRegistry::with_builtins();
        let mut eng = OffloadEngine::new(100.0);
        let f = testpkt::udp4([10, 0, 0, 1], [10, 0, 0, 2], 1000, 2000, b"data", None);
        let sems = ids(&reg, &[names::RSS_HASH, names::PKT_LEN, names::TIMESTAMP]);
        let rec = process(&mut eng, &reg, &sems, &f);
        assert_eq!(rec.len(), 3);
        assert_eq!(
            rec.get(reg.id(names::PKT_LEN).unwrap()),
            Some(f.len() as u128)
        );
        assert!(rec.get(reg.id(names::TIMESTAMP).unwrap()).unwrap() > 1000);
    }

    #[test]
    fn clock_advances_with_frame_size() {
        let reg = SemanticRegistry::with_builtins();
        let mut eng = OffloadEngine::new(10.0); // 10 Gbps
        let t0 = eng.clock_ns;
        let f = testpkt::udp4([1, 1, 1, 1], [2, 2, 2, 2], 1, 2, &[0u8; 1000], None);
        process(&mut eng, &reg, &[], &f);
        let dt = eng.clock_ns - t0;
        // ~ (1042+24)*8/10 ≈ 850 ns.
        assert!(dt > 700 && dt < 1000, "wire time {dt} ns");
    }

    #[test]
    fn timestamps_monotonic() {
        let reg = SemanticRegistry::with_builtins();
        let mut eng = OffloadEngine::default();
        let ts = reg.id(names::TIMESTAMP).unwrap();
        let f = testpkt::udp4([1, 1, 1, 1], [2, 2, 2, 2], 1, 2, b"x", None);
        let a = process(&mut eng, &reg, &[ts], &f).get(ts).unwrap();
        let b = process(&mut eng, &reg, &[ts], &f).get(ts).unwrap();
        assert!(b > a);
    }

    #[test]
    fn unsupported_layers_leave_gaps() {
        let reg = SemanticRegistry::with_builtins();
        let mut eng = OffloadEngine::default();
        // A non-IP frame: VLAN semantic absent, RSS absent.
        let frame = vec![0u8; 14]; // bare ethernet, ethertype 0
        let sems = ids(&reg, &[names::RSS_HASH, names::VLAN_TCI, names::PKT_LEN]);
        let rec = process(&mut eng, &reg, &sems, &frame);
        assert_eq!(rec.get(reg.id(names::RSS_HASH).unwrap()), None);
        assert_eq!(rec.get(reg.id(names::VLAN_TCI).unwrap()), None);
        assert_eq!(rec.get(reg.id(names::PKT_LEN).unwrap()), Some(14));
    }

    #[test]
    fn meta_record_set_get_clear() {
        let mut rec = MetaRecord::default();
        assert!(rec.is_empty());
        // Insert out of order; storage stays sorted.
        rec.set(SemanticId(5), 50);
        rec.set(SemanticId(1), 10);
        rec.set(SemanticId(3), 30);
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.get(SemanticId(3)), Some(30));
        assert_eq!(rec.get(SemanticId(2)), None);
        let ids: Vec<_> = rec.iter().map(|(s, _)| s.0).collect();
        assert_eq!(ids, vec![1, 3, 5]);
        // Overwrite, then clear-and-reuse.
        rec.set(SemanticId(3), 33);
        assert_eq!(rec.get(SemanticId(3)), Some(33));
        rec.clear();
        assert!(rec.is_empty());
        rec.set(SemanticId(9), 9);
        assert_eq!(rec.get(SemanticId(9)), Some(9));
    }

    #[test]
    fn steer_reuse_path_matches_fresh_parse() {
        // Handing the engine the steering stage's parse + RSS hash must
        // be observationally identical to parsing/hashing from scratch.
        let reg = SemanticRegistry::with_builtins();
        let sems: Vec<SemanticId> = reg.iter().map(|(id, _)| id).collect();
        let prog = OffloadProgram::compile(&reg, &sems, &slotless());
        let f = testpkt::udp4(
            [10, 0, 0, 1],
            [10, 0, 0, 2],
            1000,
            2000,
            b"get k\r\n",
            Some(7),
        );
        let parsed = ParsedFrame::parse(&f).unwrap();
        let hint = SoftNic::new().rss(&parsed);
        let mut a = OffloadEngine::new(100.0);
        let mut b = OffloadEngine::new(100.0);
        let mut ra = MetaRecord::default();
        let mut rb = MetaRecord::default();
        a.process_program_into(&prog, &f, &mut ra);
        b.run_ops(&prog, &f, Some(&parsed), hint, |op, v| {
            rb.set(op.sem, v.into())
        });
        assert_eq!(ra, rb, "steer-reuse diverged from fresh parse");
        assert_eq!(a.clock_ns, b.clock_ns);
    }

    /// Single-access widths on and off the byte grid (up to the last
    /// byte of a 24-byte buffer), ragged widths, and slots wider than a
    /// `u64`.
    const SHAPES: [(u32, u16); 15] = [
        (0, 8),
        (8, 16),
        (16, 32),
        (64, 64),
        (128, 64),
        (184, 8),
        (4, 8),
        (3, 16),
        (1, 32),
        (7, 64),
        (0, 13),
        (24, 24),
        (21, 3),
        (0, 128),
        (40, 100),
    ];

    #[test]
    fn slot_store_is_write_bits() {
        // All-ones values and buffers so masking shows.
        for (offset_bits, width_bits) in SHAPES {
            for value in [u64::MAX, 0, 0x0123_4567_89AB_CDEF] {
                for fill in [0x00, 0xFF] {
                    let mut got = [fill; 24];
                    let mut want = [fill; 24];
                    Slot {
                        offset_bits,
                        width_bits,
                    }
                    .store(&mut got, value);
                    write_bits(&mut want, offset_bits, width_bits, value.into());
                    assert_eq!(got, want, "offset {offset_bits} width {width_bits}");
                }
            }
        }
    }

    #[test]
    fn slot_load_is_read_bits() {
        // All-ones, all-zero and mixed buffers, so a field that reads a
        // neighbour's bits or drops its own shows.
        let mixed: [u8; 24] = std::array::from_fn(|i| (i as u8).wrapping_mul(0x9D) ^ 0x5A);
        for (offset_bits, width_bits) in SHAPES {
            for buf in [[0xFF; 24], [0x00; 24], mixed] {
                let slot = Slot {
                    offset_bits,
                    width_bits,
                };
                assert_eq!(
                    slot.load(&buf),
                    read_bits(&buf, offset_bits, width_bits),
                    "offset {offset_bits} width {width_bits}"
                );
            }
        }
    }

    #[test]
    fn completion_sink_writes_what_the_record_sink_collects() {
        // One op loop, two sinks: the completion written through the
        // compiled slots must be the record's values at the path's slots.
        let nic = crate::SimNic::new(crate::models::mlx5(), 16).unwrap();
        let f = testpkt::udp4(
            [10, 0, 0, 1],
            [10, 0, 0, 2],
            1000,
            2000,
            b"get k\r\n",
            Some(7),
        );
        for path in &nic.paths {
            let prog = OffloadProgram::compile(&nic.reg, &nic.supported, path);
            let (mut a, mut b) = (OffloadEngine::default(), OffloadEngine::default());
            let mut rec = MetaRecord::default();
            a.process_program_into(&prog, &f, &mut rec);
            let mut cmpt = vec![0xAA; 3]; // stale contents must not survive
            b.process_into_completion(&prog, &f, None, None, &mut cmpt);
            let mut want = vec![0u8; path.size_bytes() as usize];
            for slot in &path.slots {
                if let Some(v) = slot.semantic.and_then(|sem| rec.get(sem)) {
                    write_bits(&mut want, slot.offset_bits, slot.width_bits, v);
                }
            }
            assert_eq!(cmpt, want, "path {}", path.id);
            assert_eq!(a.clock_ns, b.clock_ns);
        }
    }

    #[test]
    fn reused_record_carries_nothing_across_frames() {
        let reg = SemanticRegistry::with_builtins();
        let sems = ids(&reg, &[names::RSS_HASH, names::VLAN_TCI, names::PKT_LEN]);
        let prog = OffloadProgram::compile(&reg, &sems, &slotless());
        let mut eng = OffloadEngine::default();
        let mut rec = MetaRecord::default();
        let tagged = testpkt::udp4([1, 1, 1, 1], [2, 2, 2, 2], 1, 2, b"x", Some(0x0ABC));
        eng.process_program_into(&prog, &tagged, &mut rec);
        assert_eq!(rec.get(reg.id(names::VLAN_TCI).unwrap()), Some(0x0ABC));
        // Next frame has no VLAN: the stale entry must not leak through.
        let plain = vec![0u8; 14];
        eng.process_program_into(&prog, &plain, &mut rec);
        assert_eq!(rec.get(reg.id(names::VLAN_TCI).unwrap()), None);
        assert_eq!(rec.get(reg.id(names::PKT_LEN).unwrap()), Some(14));
    }

    #[test]
    fn crypto_ctx_ids_unique() {
        let reg = SemanticRegistry::with_builtins();
        let mut eng = OffloadEngine::default();
        let cc = reg.id(names::CRYPTO_CTX).unwrap();
        let f = testpkt::udp4([1, 1, 1, 1], [2, 2, 2, 2], 1, 2, b"x", None);
        let a = process(&mut eng, &reg, &[cc], &f).get(cc).unwrap();
        let b = process(&mut eng, &reg, &[cc], &f).get(cc).unwrap();
        assert_ne!(a, b);
    }
}
