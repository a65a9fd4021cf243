//! The device's table-driven TX descriptor read must be
//! indistinguishable from the contract's `DescParser` interpreted
//! statement by statement (`opendesc_reference::device::transmit`):
//! same wire frames, same `TxStats`, on every catalog model with a
//! parser, on randomly generated programmable NICs (the conformance
//! fuzzer's generator), for valid, short, over-long, hostile and random
//! descriptors, under contexts that select a layout and contexts that
//! select none — and a contract whose parse depends on descriptor
//! *contents* has no table form, so it is refused outright.

use opendesc::compiler::{compile_tx, CompileError, Intent, Selector};
use opendesc::ir::bits::write_bits;
use opendesc::ir::{enumerate_tx_layouts, names, Assignment, DescriptorLayout, SemanticRegistry};
use opendesc::nicsim::models::{self, programmable, ProgField, ProgSpec, ProgTxSpec};
use opendesc::nicsim::{NicError, NicModel, RingError, SimNic, TxStats};
use opendesc::p4::typecheck::parse_and_check;
use opendesc::softnic::testpkt;
use opendesc_reference::conformance::{gen_spec, splat, Rng};
use opendesc_reference::device::{transmit, TxOutcome};

fn layouts_of(model: &NicModel) -> (Vec<DescriptorLayout>, SemanticRegistry) {
    let (checked, diags) = parse_and_check(&model.p4_source);
    assert!(
        !diags.has_errors(),
        "{}: contract does not check",
        model.name
    );
    let mut reg = SemanticRegistry::with_builtins();
    let parser = model.desc_parser.as_deref().unwrap();
    let layouts = enumerate_tx_layouts(&checked, parser, &mut reg)
        .unwrap_or_else(|_| panic!("{}: TX layouts do not enumerate", model.name));
    (layouts, reg)
}

/// Frames the descriptors point at: plain and VLAN-tagged, UDP and TCP,
/// IP and L4 checksums zeroed the way a host relying on the offloads
/// leaves them — so a hint that is honoured shows on the wire.
fn frames() -> Vec<Vec<u8>> {
    (1..=6)
        .map(|seed| {
            let mut f = testpkt::seeded_frame(seed);
            let l3 = if f[12..14] == [0x81, 0x00] { 18 } else { 14 };
            let l4_csum = l3 + 20 + if f[l3 + 9] == 17 { 6 } else { 16 };
            f[l3 + 10..l3 + 12].fill(0);
            f[l4_csum..l4_csum + 2].fill(0);
            f
        })
        .collect()
}

/// A descriptor for `layout`: every field seeded garbage, then the
/// buffer fields set. `hints` keeps or clears the offload fields.
fn descriptor(
    layout: &DescriptorLayout,
    reg: &SemanticRegistry,
    seed: u64,
    addr: u128,
    len: u128,
    hints: bool,
) -> Vec<u8> {
    let mut desc = vec![0u8; layout.size_bytes() as usize];
    let mut s = seed | 1;
    for slot in &layout.slots {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        let is = |name: &str| slot.semantic.is_some() && slot.semantic == reg.id(name);
        let offload = is(names::TX_VLAN_INSERT) || is(names::TX_IP_CSUM) || is(names::TX_L4_CSUM);
        let v = if is(names::BUF_ADDR) {
            addr
        } else if is(names::BUF_LEN) {
            len
        } else if offload && !hints {
            0
        } else {
            s as u128
        };
        write_bits(&mut desc, slot.offset_bits, slot.width_bits, v);
    }
    desc
}

/// Builds descriptors from the `(address, length)` of each registered
/// frame buffer.
type Descs<'a> = dyn Fn(&[(u64, usize)]) -> Vec<Vec<u8>> + 'a;

/// Run `descs`, built against the NIC's own buffer addresses, through
/// the device and through the reference; require the same wire frames
/// and the same `TxStats`, every consumed descriptor accounted for once.
/// Returns the stats and whether a layout was active.
fn agree(what: &str, model: &NicModel, ctx: Option<&Assignment>, descs: &Descs) -> (TxStats, bool) {
    let mut nic = SimNic::new(model.clone(), 64).unwrap();
    if let Some(ctx) = ctx {
        nic.configure_tx(ctx.clone());
    }
    let bufs: Vec<(u64, usize)> = frames()
        .iter()
        .map(|f| (nic.alloc_tx_buf(f), f.len()))
        .collect();
    let (mut wire, mut ref_wire) = (Vec::new(), Vec::new());
    let mut ref_stats = TxStats::default();
    for (i, d) in descs(&bufs).iter().enumerate() {
        let want = transmit(&nic, d);
        match nic.post_tx(d) {
            Ok(()) => {}
            Err(NicError::Ring(RingError::EntryTooLarge { .. })) => {
                assert!(d.len() > nic.tx_ring.slot_size());
                continue;
            }
            Err(e) => panic!("{} {what}: post: {e}", model.name),
        }
        ref_stats.descs += 1;
        // Mostly the collecting entry point, sometimes the draining one.
        let collect = i % 3 != 2;
        match want {
            TxOutcome::Frame(f) => {
                ref_stats.frames += 1;
                if collect {
                    ref_wire.push(f);
                }
            }
            TxOutcome::ParseReject => ref_stats.parse_rejects += 1,
            TxOutcome::BadBuffer => ref_stats.bad_buffers += 1,
        }
        if collect {
            wire.extend(nic.process_tx());
        } else {
            nic.process_tx_drain();
        }
    }
    let stats = nic.tx_stats.clone();
    assert_eq!(wire, ref_wire, "{} {what}: wire frames", model.name);
    assert_eq!(stats, ref_stats, "{} {what}: TxStats", model.name);
    assert_eq!(
        stats.descs,
        stats.frames + stats.parse_rejects + stats.bad_buffers,
        "{} {what}: a descriptor unaccounted for",
        model.name
    );
    (stats, nic.active_tx_layout().is_some())
}

/// The full descriptor battery against one layout of one model.
fn check_layout(model: &NicModel, layout: &DescriptorLayout, reg: &SemanticRegistry) {
    let Ok(ctx) = layout.solve_context() else {
        return;
    };
    let n = frames().len() as u64;
    let bytes = layout.size_bytes() as usize;
    let slot = |name: &str| layout.slot_for(reg.id(name).unwrap()).unwrap().clone();
    let (addr_slot, len_slot) = (slot(names::BUF_ADDR), slot(names::BUF_LEN));

    let (stats, table) = agree("valid", model, Some(&ctx), &|bufs| {
        let mut out = Vec::new();
        for (i, &(addr, len)) in bufs.iter().enumerate() {
            for hints in [true, false] {
                let seed = 0xA11CE + i as u64;
                out.push(descriptor(
                    layout,
                    reg,
                    seed,
                    addr as u128,
                    len as u128,
                    hints,
                ));
            }
        }
        // A descriptor longer than the layout parses like an exact one.
        let mut long = descriptor(layout, reg, 7, bufs[0].0 as u128, bufs[0].1 as u128, true);
        long.resize(64, 0xEE);
        out.push(long);
        out
    });
    assert!(
        table,
        "{} layout {}: not table-driven",
        model.name, layout.id
    );
    assert_eq!(stats.frames, 2 * n + 1, "{}", model.name);

    let (stats, _) = agree("short", model, Some(&ctx), &|bufs| {
        let d = descriptor(layout, reg, 9, bufs[0].0 as u128, bufs[0].1 as u128, true);
        vec![d[..bytes - 1].to_vec(), d[..1].to_vec(), Vec::new()]
    });
    assert_eq!(
        (stats.parse_rejects, stats.frames),
        (3, 0),
        "{}",
        model.name
    );

    // Hostile buffers: unmapped, one byte past the end, a length of all
    // ones at a non-base address (`off + len` overflows a usize), and
    // an address whose low 64 bits are a real buffer but which is wider
    // than any address the device has.
    let (stats, _) = agree("hostile", model, Some(&ctx), &|bufs| {
        let (addr, len) = (bufs[0].0 as u128, bufs[0].1 as u128);
        let mut out = vec![
            descriptor(layout, reg, 11, 0xDEAD_0000, 64, true),
            descriptor(layout, reg, 12, addr, len + 1, true),
            descriptor(layout, reg, 13, addr + 1, u128::MAX, true),
        ];
        if addr_slot.width_bits > 64 {
            out.push(descriptor(layout, reg, 14, addr | 1 << 64, len, true));
        }
        out
    });
    let hostile = 3 + (addr_slot.width_bits > 64) as u64;
    assert_eq!(
        (stats.bad_buffers, stats.frames),
        (hostile, 0),
        "{}",
        model.name
    );

    // Random bytes of random length, 0..=80 (past the ring's 64-byte
    // slot, which refuses them at post): half of them with buffer
    // fields that name a registered buffer, some of those one byte too
    // long for it.
    let seed = layout.id as u64 ^ (model.name.bytes().map(u64::from).sum::<u64>() << 8);
    let (stats, _) = agree("random", model, Some(&ctx), &|bufs| {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        (0..256)
            .map(|_| {
                let r = next();
                let mut d = splat(next(), (r % 81) as usize);
                let fits = |f: &opendesc::ir::FieldSlot| {
                    (f.offset_bits + f.width_bits as u32) as usize <= d.len() * 8
                };
                if r & 0x100 != 0 && fits(&addr_slot) && fits(&len_slot) {
                    let (addr, len) = bufs[(r >> 9) as usize % bufs.len()];
                    let len = len as u128 + ((r >> 20) & 1) as u128;
                    write_bits(
                        &mut d,
                        addr_slot.offset_bits,
                        addr_slot.width_bits,
                        addr.into(),
                    );
                    write_bits(&mut d, len_slot.offset_bits, len_slot.width_bits, len);
                }
                d
            })
            .collect()
    });
    assert!(
        stats.frames > 0,
        "{}: no random descriptor sent",
        model.name
    );
}

fn one_field_layout() -> models::ProgLayout {
    models::ProgLayout {
        fields: vec![ProgField::sem("len", names::PKT_LEN, 16)],
    }
}

fn tx_models() -> Vec<NicModel> {
    let mut out: Vec<NicModel> = models::catalog()
        .into_iter()
        .filter(|m| m.desc_parser.is_some())
        .collect();
    // Generated programmable NICs, half of which come with a TX spec.
    let mut rng = Rng::new(0x7E57_0D15);
    out.extend(
        (0..48)
            .map(|i| gen_spec(&mut rng, i))
            .filter(|spec| spec.tx.is_some())
            .map(|spec| programmable(&spec).expect("generator emits valid specs")),
    );
    // Fields at the width limits: a 128-bit address and a 64-bit length
    // are what the narrowing `as` casts used to truncate.
    out.push(
        programmable(&ProgSpec {
            name: "wide".into(),
            layouts: vec![one_field_layout()],
            guard: models::ProgGuard::Unconditional,
            tail: None,
            tx: Some(ProgTxSpec {
                base: vec![
                    ProgField::sem("addr", names::BUF_ADDR, 128),
                    ProgField::sem("blen", names::BUF_LEN, 64),
                ],
                ext: Some(vec![
                    ProgField::pad("x0", 3),
                    ProgField::sem("x_ip", names::TX_IP_CSUM, 3),
                    ProgField::pad("x1", 2),
                ]),
            }),
        })
        .unwrap(),
    );
    out
}

#[test]
fn fast_and_interpret_tx_agree() {
    let models = tx_models();
    assert!(models.len() > 10, "generator produced too few TX NICs");
    let mut layouts_checked = 0;
    for model in &models {
        let (layouts, reg) = layouts_of(model);
        for layout in &layouts {
            check_layout(model, layout, &reg);
            layouts_checked += 1;
        }
        // A context no layout matches: the parser rejects everything,
        // and so does the device. (A parser without `select` has no
        // such context.)
        if layouts.iter().any(|l| !l.guard.is_empty()) {
            let mut ctx = layouts[0].solve_context().unwrap();
            for v in ctx.values_mut() {
                *v = 0xFB;
            }
            let (stats, table) = agree("no layout", model, Some(&ctx), &|bufs| {
                layouts
                    .iter()
                    .map(|l| descriptor(l, &reg, 3, bufs[0].0 as u128, bufs[0].1 as u128, true))
                    .collect()
            });
            assert!(!table, "{}: a layout matched context 0xFB", model.name);
            assert_eq!(stats.parse_rejects, layouts.len() as u64);
        }
    }
    assert!(layouts_checked > models.len(), "no multi-layout model seen");
}

/// A parser that `select`s on a field it just extracted: which layout a
/// descriptor has is a property of the descriptor, not of the queue.
fn content_steered() -> NicModel {
    let tx = r#"
header cs_base_t {
    @semantic("buf_addr") bit<64> addr;
    @semantic("buf_len")  bit<16> len;
    bit<8> kind;
    bit<8> rsvd;
}
header cs_ext_t { @semantic("tx_ip_csum_offload") bit<8> ip; bit<24> rsvd; }
struct cs_desc_t { cs_base_t base; cs_ext_t ext; }
struct cs_ctx_t { bit<8> kind; }
parser DescParser(desc_in d, in cs_ctx_t h2c_ctx, out cs_desc_t desc_hdr) {
    state start {
        d.extract(desc_hdr.base);
        transition select(desc_hdr.base.kind) {
            0: accept;
            1: parse_ext;
            default: reject;
        }
    }
    state parse_ext {
        d.extract(desc_hdr.ext);
        transition accept;
    }
}
"#;
    with_desc_parser("content-steered", tx)
}

/// A one-layout RX model whose contract also carries `tx`, a
/// `DescParser`.
fn with_desc_parser(name: &str, tx: &str) -> NicModel {
    let mut model = programmable(&ProgSpec {
        name: name.into(),
        layouts: vec![one_field_layout()],
        guard: models::ProgGuard::Unconditional,
        tail: None,
        tx: None,
    })
    .unwrap();
    model.p4_source.push_str(tx);
    model.desc_parser = Some("DescParser".into());
    model
}

#[test]
fn a_32_bit_buf_addr_is_refused_at_new() {
    // The host writes a 64-bit DMA address into `buf_addr`; a narrower
    // field would truncate it to another buffer's address, so the
    // contract never boots.
    let tx = r#"
header nb_t {
    @semantic("buf_addr") bit<32> addr;
    @semantic("buf_len")  bit<16> len;
    bit<16> rsvd;
}
struct nb_desc_t { nb_t base; }
struct nb_ctx_t { bit<8> kind; }
parser DescParser(desc_in d, in nb_ctx_t h2c_ctx, out nb_desc_t desc_hdr) {
    state start { d.extract(desc_hdr.base); transition accept; }
}
"#;
    let err = SimNic::new(with_desc_parser("narrow-addr", tx), 16)
        .err()
        .expect("refused");
    let NicError::BadContract(msg) = err else {
        panic!("not a contract refusal: {err:?}");
    };
    assert!(msg.contains("32-bit `buf_addr`"), "{msg}");
}

#[test]
fn select_on_descriptor_contents_is_refused_at_new() {
    // The device has no way to serve it — no table, no interpreter —
    // so the contract never boots, and says which select is at fault.
    let err = SimNic::new(content_steered(), 16).err().expect("refused");
    let NicError::BadContract(msg) = err else {
        panic!("not a contract refusal: {err:?}");
    };
    assert!(msg.contains("state `start`"), "{msg}");
    assert!(msg.contains("desc_hdr.base.kind"), "{msg}");
}

#[test]
fn compile_tx_refuses_a_select_on_descriptor_contents() {
    // The host never programs a per-packet field as H2C context.
    let model = content_steered();
    let mut reg = SemanticRegistry::with_builtins();
    let intent = Intent::builder("tx").build();
    let err = compile_tx(
        &Selector::default(),
        &model.p4_source,
        "DescParser",
        &model.name,
        &intent,
        &mut reg,
    )
    .expect_err("a content-steered parser has no context to program");
    let CompileError::Extract(msg) = err else {
        panic!("not an extraction refusal: {err}");
    };
    assert!(msg.contains("desc_hdr.base.kind"), "{msg}");
}
