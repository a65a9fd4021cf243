//! The device's two TX executions of one contract must be
//! indistinguishable: the table-driven descriptor read resolved from the
//! H2C context, and the per-descriptor `DescParser` interpreter
//! (`WritebackMode::Interpret`). Same wire frames, same `TxStats`, on
//! every catalog model with a parser, on randomly generated
//! programmable NICs (the conformance fuzzer's generator), for valid,
//! short, over-long and hostile descriptors, under contexts that select
//! a layout and contexts that select none — and a contract whose parse
//! depends on descriptor *contents* must not be table-driven at all.

use opendesc::ir::bits::write_bits;
use opendesc::ir::pred::FieldRef;
use opendesc::ir::{enumerate_tx_layouts, names, Assignment, DescriptorLayout, SemanticRegistry};
use opendesc::nicsim::models::{self, programmable, ProgField, ProgSpec, ProgTxSpec};
use opendesc::nicsim::{NicModel, SimNic, TxStats, WritebackMode};
use opendesc::p4::typecheck::parse_and_check;
use opendesc::softnic::testpkt;
use opendesc_reference::conformance::{gen_spec, Rng};

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

/// Everything one NIC emits for `descs` built against its own buffer
/// addresses, in `mode`.
fn drive(
    model: &NicModel,
    ctx: Option<&Assignment>,
    mode: WritebackMode,
    descs: &Descs,
) -> (Vec<Vec<u8>>, TxStats, bool) {
    let mut nic = SimNic::new(model.clone(), 64).unwrap();
    nic.set_mode(mode);
    if let Some(ctx) = ctx {
        nic.configure_tx(ctx.clone());
    }
    let bufs: Vec<(u64, usize)> = frames()
        .iter()
        .map(|f| (nic.alloc_tx_buf(f), f.len()))
        .collect();
    let mut wire = Vec::new();
    for (i, d) in descs(&bufs).iter().enumerate() {
        nic.post_tx(d).unwrap();
        // Mostly the collecting entry point, sometimes the draining one.
        if i % 3 == 2 {
            nic.process_tx_drain();
        } else {
            wire.extend(nic.process_tx());
        }
    }
    let table = nic.active_tx_layout().is_some();
    (wire, nic.tx_stats.clone(), table)
}

/// Run `descs` through both modes, require identical output, and return
/// it with whether Fast mode was table-driven.
fn agree(what: &str, model: &NicModel, ctx: Option<&Assignment>, descs: &Descs) -> (TxStats, bool) {
    let (fast_wire, fast_stats, table) = drive(model, ctx, WritebackMode::Fast, descs);
    let (ref_wire, ref_stats, _) = drive(model, ctx, WritebackMode::Interpret, descs);
    assert_eq!(fast_wire, ref_wire, "{} {what}: wire frames", model.name);
    assert_eq!(fast_stats, ref_stats, "{} {what}: TxStats", model.name);
    (fast_stats, table)
}

/// The full descriptor battery against one layout of one model.
fn check_layout(model: &NicModel, layout: &DescriptorLayout, reg: &SemanticRegistry) {
    let Some(ctx) = layout.solve_context() else {
        return;
    };
    let n = frames().len() as u64;
    let bytes = layout.size_bytes() as usize;
    let addr_bits = layout
        .slot_for(reg.id(names::BUF_ADDR).unwrap())
        .map_or(0, |s| s.width_bits);

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
        if addr_bits > 64 {
            out.push(descriptor(layout, reg, 14, addr | 1 << 64, len, true));
        }
        out
    });
    let hostile = 3 + (addr_bits > 64) as u64;
    assert_eq!(
        (stats.bad_buffers, stats.frames),
        (hostile, 0),
        "{}",
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
        // on both paths. (A parser without `select` has no such context.)
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
/// descriptor has is a property of the descriptor, not of the queue, so
/// the device must interpret every one.
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
    let mut model = programmable(&ProgSpec {
        name: "content-steered".into(),
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
fn select_on_descriptor_contents_is_never_table_driven() {
    let model = content_steered();
    let (layouts, reg) = layouts_of(&model);
    assert_eq!(layouts.len(), 2);
    // The enumerator's guards name the extracted field as if it were
    // context; program exactly that, the worst case for a guard reader.
    for steer in [0u128, 1, 2] {
        let mut ctx = Assignment::new();
        ctx.insert(FieldRef::new(&["desc_hdr", "base", "kind"], 8), steer);
        ctx.insert(FieldRef::new(&["h2c_ctx", "kind"], 8), steer);
        let kind = layouts[0].slots.iter().find(|s| s.name.ends_with(".kind"));
        let kind = kind.unwrap().clone();
        let (stats, table) = agree("content-steered", &model, Some(&ctx), &|bufs| {
            let mut out = Vec::new();
            for (i, l) in layouts.iter().enumerate() {
                for k in [0u128, 1, 2] {
                    let (addr, len) = bufs[i];
                    let mut d = descriptor(l, &reg, 5 + k as u64, addr as u128, len as u128, true);
                    write_bits(&mut d, kind.offset_bits, kind.width_bits, k);
                    out.push(d);
                }
            }
            out
        });
        assert!(
            !table,
            "steer {steer}: parse depends on descriptor contents"
        );
        // kind 0 parses on both sizes, kind 1 only on the long one.
        assert_eq!((stats.frames, stats.parse_rejects), (3, 3));
    }
}
