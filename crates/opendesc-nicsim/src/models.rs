//! NIC models: the device contracts the simulator ships with.
//!
//! Each model is a P4 OpenDesc contract plus the naming glue the simulator
//! needs (which control is the completion deparser, which parameter is
//! the context, ...). The families mirror the paper's Fig. 1
//! spectrum:
//!
//! * `e1000-legacy` — one fixed completion layout (length, checksum,
//!   status, VLAN), the "single descriptor" class;
//! * `e1000e` — the Fig. 6 running example: a context bit selects RSS
//!   *or* ip_id+checksum, never both;
//! * `ixgbe` — 16 B advanced writeback: RSS or flow-director tag in
//!   dword 0, plus packet type, lengths, VLAN and IP checksum status;
//! * `mlx5` — 64 B full CQE (timestamp, RSS, flow tag, checksums, a
//!   programmable metadata slot) or 8 B compressed mini-CQEs carrying
//!   either RSS or checksum;
//! * `qdma` — fully programmable: completion layouts are generated from
//!   the application's own field list (see [`qdma`]).

/// A NIC model: contract text plus simulator glue.
#[derive(Debug, Clone)]
pub struct NicModel {
    pub name: String,
    pub description: String,
    pub p4_source: String,
    /// Name of the completion-deparser control.
    pub deparser: String,
    /// Name of the TX descriptor parser, if the model defines one.
    pub desc_parser: Option<String>,
    /// Deparser parameter names.
    pub ctx_param: String,
    pub meta_param: String,
    /// Context/meta struct type names.
    pub ctx_type: String,
    pub meta_type: String,
    /// Completion-ring slot size (the largest layout, bytes).
    pub completion_slot_bytes: usize,
}

/// The e1000-legacy contract: a single unconditional 8-byte writeback.
pub fn e1000_legacy() -> NicModel {
    let p4 = r#"
// Intel e1000 legacy receive descriptor writeback (8 bytes).
header e1000_wb_t {
    @semantic("pkt_len")     bit<16> length;
    @semantic("ip_checksum") bit<16> csum;
    @semantic("rx_status")   bit<8>  status;
    bit<8>  errors;
    @semantic("vlan_tci")    bit<16> special;
}
struct e1000_ctx_t { bit<1> reserved; }
struct e1000_meta_t { e1000_wb_t wb; }

control CmptDeparser(cmpt_out cmpt, in e1000_ctx_t ctx, in e1000_meta_t pipe_meta) {
    apply {
        cmpt.emit(pipe_meta.wb);
    }
}

// Legacy transmit descriptor (16 bytes).
header e1000_tx_t {
    @semantic("buf_addr") bit<64> buffer_addr;
    @semantic("buf_len")  bit<16> length;
    bit<8>  cso;
    @semantic("tx_ip_csum_offload") bit<8> cmd;
    bit<8>  status;
    bit<8>  css;
    @semantic("tx_vlan_insert") bit<16> special;
}
struct e1000_desc_t { e1000_tx_t base; }
struct e1000_h2c_ctx_t { bit<1> reserved; }

parser DescParser(desc_in d, in e1000_h2c_ctx_t h2c_ctx, out e1000_desc_t desc_hdr) {
    state start {
        d.extract(desc_hdr.base);
        transition accept;
    }
}
"#;
    NicModel {
        name: "e1000-legacy".into(),
        description: "fixed-function, one 8B writeback layout".into(),
        p4_source: p4.into(),
        deparser: "CmptDeparser".into(),
        desc_parser: Some("DescParser".into()),
        ctx_param: "ctx".into(),
        meta_param: "pipe_meta".into(),
        ctx_type: "e1000_ctx_t".into(),
        meta_type: "e1000_meta_t".into(),
        completion_slot_bytes: 8,
    }
}

/// The paper's Fig. 6 model: newer e1000 with an RSS/checksum mux.
pub fn e1000e() -> NicModel {
    let p4 = r#"
// Fig. 6: the context bit use_rss selects between a 32-bit RSS hash and
// the ip_id + checksum pair; a base record always follows.
header rss_cmpt_t { @semantic("rss_hash") bit<32> rss; }
header ip_cmpt_t {
    @semantic("ip_id")       bit<16> ip_id;
    @semantic("ip_checksum") bit<16> csum;
}
header base_cmpt_t {
    @semantic("pkt_len")   bit<16> length;
    @semantic("rx_status") bit<8>  status;
    bit<8> errors;
    @semantic("vlan_tci")  bit<16> vlan;
    bit<16> reserved;
}
struct e1000e_ctx_t { bit<1> use_rss; }
struct e1000e_meta_t {
    rss_cmpt_t  rss;
    ip_cmpt_t   ip_fields;
    base_cmpt_t base;
}

control CmptDeparser(cmpt_out cmpt, in e1000e_ctx_t ctx, in e1000e_meta_t pipe_meta) {
    apply {
        if (ctx.use_rss == 1) {
            cmpt.emit(pipe_meta.rss);
        } else {
            cmpt.emit(pipe_meta.ip_fields);
        }
        cmpt.emit(pipe_meta.base);
    }
}

header e1000e_tx_t {
    @semantic("buf_addr") bit<64> buffer_addr;
    @semantic("buf_len")  bit<16> length;
    @semantic("tx_ip_csum_offload") bit<8> flags;
    bit<8>  qid;
}
struct e1000e_desc_t { e1000e_tx_t base; }
struct e1000e_h2c_ctx_t { bit<1> reserved; }

parser DescParser(desc_in d, in e1000e_h2c_ctx_t h2c_ctx, out e1000e_desc_t desc_hdr) {
    state start {
        d.extract(desc_hdr.base);
        transition accept;
    }
}
"#;
    NicModel {
        name: "e1000e".into(),
        description: "Fig. 6 running example: RSS xor ip_id+csum, + base".into(),
        p4_source: p4.into(),
        deparser: "CmptDeparser".into(),
        desc_parser: Some("DescParser".into()),
        ctx_param: "ctx".into(),
        meta_param: "pipe_meta".into(),
        ctx_type: "e1000e_ctx_t".into(),
        meta_type: "e1000e_meta_t".into(),
        completion_slot_bytes: 12,
    }
}

/// Intel ixgbe-style 16-byte advanced receive writeback.
pub fn ixgbe() -> NicModel {
    let p4 = r#"
// Dword 0 carries the RSS hash or (with flow director enabled) the
// matched filter id; the rest of the 16B writeback is fixed.
header ixgbe_rss_t  { @semantic("rss_hash") bit<32> rss; }
header ixgbe_fdir_t { @semantic("flow_tag") bit<32> fdir_id; }
header ixgbe_rest_t {
    @semantic("packet_type")    bit<16> ptype;
    @semantic("payload_offset") bit<16> hdr_len;
    @semantic("rx_status")      bit<16> status;
    @semantic("ip_checksum")    bit<16> ip_csum_status;
    @semantic("pkt_len")        bit<16> length;
    @semantic("vlan_tci")       bit<16> vlan;
}
struct ixgbe_ctx_t { bit<1> use_fdir; }
struct ixgbe_meta_t {
    ixgbe_rss_t  rss;
    ixgbe_fdir_t fdir;
    ixgbe_rest_t rest;
}

control CmptDeparser(cmpt_out cmpt, in ixgbe_ctx_t ctx, in ixgbe_meta_t pipe_meta) {
    apply {
        if (ctx.use_fdir == 1) {
            cmpt.emit(pipe_meta.fdir);
        } else {
            cmpt.emit(pipe_meta.rss);
        }
        cmpt.emit(pipe_meta.rest);
    }
}
"#;
    NicModel {
        name: "ixgbe".into(),
        description: "16B advanced writeback: rss|fdir + fixed tail".into(),
        p4_source: p4.into(),
        deparser: "CmptDeparser".into(),
        desc_parser: None,
        ctx_param: "ctx".into(),
        meta_param: "pipe_meta".into(),
        ctx_type: "ixgbe_ctx_t".into(),
        meta_type: "ixgbe_meta_t".into(),
        completion_slot_bytes: 16,
    }
}

/// NVIDIA mlx5-style CQE: full 64 B or 8 B compressed mini-CQEs.
pub fn mlx5() -> NicModel {
    let p4 = r#"
enum bit<2> cqe_fmt_t { FULL, MINI_RSS, MINI_CSUM }

// Full 64B CQE. app_meta is the programmable match-action result slot
// (BlueField-style), which OpenDesc maps to custom semantics such as the
// KVS key hash of the paper's Fig. 1 scenario.
header mlx5_full_cqe_t {
    @semantic("timestamp")      bit<64> ts;
    @semantic("rss_hash")       bit<32> rss;
    @semantic("flow_tag")       bit<32> flow_tag;
    @semantic("packet_type")    bit<16> ptype;
    @semantic("vlan_tci")       bit<16> vlan;
    @semantic("pkt_len")        bit<32> byte_cnt;
    @semantic("ip_checksum")    bit<16> ip_csum;
    @semantic("l4_checksum")    bit<16> l4_csum;
    @semantic("payload_offset") bit<16> hdr_offset;
    @semantic("kvs_key_hash")   bit<32> app_meta;
    @semantic("rx_status")      bit<8>  op_own;
    bit<116> reserved0;
    bit<116> reserved1;
}
header mlx5_mini_rss_t {
    @semantic("rss_hash")  bit<32> rss;
    @semantic("pkt_len")   bit<16> byte_cnt;
    @semantic("rx_status") bit<8>  op_own;
    bit<8> reserved;
}
header mlx5_mini_csum_t {
    @semantic("ip_checksum") bit<16> ip_csum;
    @semantic("l4_checksum") bit<16> l4_csum;
    @semantic("pkt_len")     bit<16> byte_cnt;
    @semantic("rx_status")   bit<8>  op_own;
    bit<8> reserved;
}
struct mlx5_ctx_t { cqe_fmt_t cqe_format; }
struct mlx5_meta_t {
    mlx5_full_cqe_t  full;
    mlx5_mini_rss_t  mini_rss;
    mlx5_mini_csum_t mini_csum;
}

control CmptDeparser(cmpt_out cmpt, in mlx5_ctx_t ctx, in mlx5_meta_t pipe_meta) {
    apply {
        switch (ctx.cqe_format) {
            0: { cmpt.emit(pipe_meta.full); }
            1: { cmpt.emit(pipe_meta.mini_rss); }
            2: { cmpt.emit(pipe_meta.mini_csum); }
            default: { cmpt.emit(pipe_meta.full); }
        }
    }
}
"#;
    NicModel {
        name: "mlx5".into(),
        description: "64B full CQE or 8B compressed mini-CQE (rss|csum)".into(),
        p4_source: p4.into(),
        deparser: "CmptDeparser".into(),
        desc_parser: None,
        ctx_param: "ctx".into(),
        meta_param: "pipe_meta".into(),
        ctx_type: "mlx5_ctx_t".into(),
        meta_type: "mlx5_meta_t".into(),
        completion_slot_bytes: 64,
    }
}

/// Intel ice/E810-style flexible receive descriptor: the RXDID register
/// selects one of several 32-byte writeback *profiles*, each packing a
/// different metadata mix — the closest shipping hardware to OpenDesc's
/// "NIC with selectable completion layouts" model.
pub fn ice() -> NicModel {
    let p4 = r#"
// Profile 0 (legacy-ish): rss + lengths + checksums.
header ice_legacy_prof_t {
    @semantic("rss_hash")     bit<32> rss;
    @semantic("pkt_len")      bit<16> length;
    @semantic("ip_checksum")  bit<16> ip_csum;
    @semantic("l4_checksum")  bit<16> l4_csum;
    @semantic("vlan_tci")     bit<16> vlan;
    @semantic("rx_status")    bit<16> status;
    bit<16>  rsvd0;
    bit<128> rsvd1;
}
// Profile 1 (nic-timestamping): timestamp-heavy telemetry mix.
header ice_ts_prof_t {
    @semantic("timestamp")    bit<64> ts;
    @semantic("rss_hash")     bit<32> rss;
    @semantic("pkt_len")      bit<16> length;
    @semantic("packet_type")  bit<16> ptype;
    @semantic("rx_status")    bit<16> status;
    bit<112> rsvd0;
}
// Profile 2 (flow-director / COMMS): flow tag + payload offsets.
header ice_comms_prof_t {
    @semantic("flow_tag")       bit<32> fdid;
    @semantic("rss_hash")       bit<32> rss;
    @semantic("payload_offset") bit<16> hdr_len;
    @semantic("packet_type")    bit<16> ptype;
    @semantic("pkt_len")        bit<16> length;
    @semantic("vlan_tci")       bit<16> vlan;
    @semantic("rx_status")      bit<16> status;
    bit<112> rsvd0;
}
struct ice_ctx_t { bit<3> rxdid; }
struct ice_meta_t {
    ice_legacy_prof_t legacy;
    ice_ts_prof_t     ts;
    ice_comms_prof_t  comms;
}

control CmptDeparser(cmpt_out cmpt, in ice_ctx_t ctx, in ice_meta_t pipe_meta) {
    apply {
        switch (ctx.rxdid) {
            0: { cmpt.emit(pipe_meta.legacy); }
            1: { cmpt.emit(pipe_meta.ts); }
            2: { cmpt.emit(pipe_meta.comms); }
            default: { cmpt.emit(pipe_meta.legacy); }
        }
    }
}

header ice_tx_t {
    @semantic("buf_addr") bit<64> addr;
    @semantic("buf_len")  bit<16> len;
    @semantic("tx_l4_csum_offload") bit<8> cmd_l4;
    @semantic("tx_ip_csum_offload") bit<8> cmd_ip;
    @semantic("tx_vlan_insert") bit<16> l2tag1;
    bit<16> rsvd;
}
struct ice_desc_t { ice_tx_t base; }
struct ice_h2c_ctx_t { bit<1> reserved; }

parser DescParser(desc_in d, in ice_h2c_ctx_t h2c_ctx, out ice_desc_t desc_hdr) {
    state start {
        d.extract(desc_hdr.base);
        transition accept;
    }
}
"#;
    NicModel {
        name: "ice".into(),
        description: "32B flexible writeback, RXDID-selected profiles".into(),
        p4_source: p4.into(),
        deparser: "CmptDeparser".into(),
        desc_parser: Some("DescParser".into()),
        ctx_param: "ctx".into(),
        meta_param: "pipe_meta".into(),
        ctx_type: "ice_ctx_t".into(),
        meta_type: "ice_meta_t".into(),
        completion_slot_bytes: 32,
    }
}

/// One user-defined QDMA completion layout.
#[derive(Debug, Clone, PartialEq)]
pub struct QdmaLayout {
    /// `(semantic_name, width_bits)` in emission order.
    pub fields: Vec<(String, u16)>,
}

impl QdmaLayout {
    pub fn new(fields: &[(&str, u16)]) -> Self {
        QdmaLayout {
            fields: fields.iter().map(|(n, w)| (n.to_string(), *w)).collect(),
        }
    }

    /// Total field bits.
    pub fn bits(&self) -> u32 {
        self.fields.iter().map(|(_, w)| *w as u32).sum()
    }

    /// QDMA completion size class: 8, 16, 32 or 64 bytes; `None` if the
    /// fields exceed 64 bytes.
    fn size_class(&self) -> Option<u32> {
        let bytes = self.bits().div_ceil(8);
        [8u32, 16, 32, 64].into_iter().find(|c| bytes <= *c)
    }
}

/// Generate a QDMA contract exposing `layouts` as selectable per-queue
/// completion formats (paper: "fully programmable descriptors of 8, 16,
/// 32 or 64 bytes"). Returns `None` if any layout exceeds 64 bytes.
fn qdma_contract(layouts: &[QdmaLayout]) -> Option<String> {
    let mut src = String::from("// AMD/Xilinx QDMA-style fully programmable completion formats.\n");
    for (i, l) in layouts.iter().enumerate() {
        let class = l.size_class()?;
        src.push_str(&format!("header qdma_cmpt{i}_t {{\n"));
        for (j, (sem, w)) in l.fields.iter().enumerate() {
            src.push_str(&format!("    @semantic(\"{sem}\") bit<{w}> f{j};\n"));
        }
        // Pad to the size class in ≤128-bit chunks (field values are
        // modeled as u128).
        let mut pad = class * 8 - l.bits();
        let mut k = 0;
        while pad > 0 {
            let chunk = pad.min(128);
            src.push_str(&format!("    bit<{chunk}> pad{k};\n"));
            pad -= chunk;
            k += 1;
        }
        src.push_str("}\n");
    }
    src.push_str("struct qdma_ctx_t { bit<16> layout_id; }\n");
    src.push_str("struct qdma_meta_t {\n");
    for i in 0..layouts.len() {
        src.push_str(&format!("    qdma_cmpt{i}_t l{i};\n"));
    }
    src.push_str("}\n");
    src.push_str(
        "control CmptDeparser(cmpt_out cmpt, in qdma_ctx_t ctx, in qdma_meta_t pipe_meta) {\n    apply {\n        switch (ctx.layout_id) {\n",
    );
    for i in 0..layouts.len() {
        src.push_str(&format!(
            "            {i}: {{ cmpt.emit(pipe_meta.l{i}); }}\n"
        ));
    }
    src.push_str("            default: { }\n        }\n    }\n}\n");
    src.push_str(
        r#"
header qdma_h2c_base_t {
    @semantic("buf_addr") bit<64> addr;
    @semantic("buf_len")  bit<16> len;
    bit<8>  flags;
    bit<8>  qid;
}
header qdma_h2c_ext_t {
    @semantic("tx_l4_csum_offload") bit<16> l4_csum;
    @semantic("tx_vlan_insert")     bit<16> vlan;
}
struct qdma_desc_t { qdma_h2c_base_t base; qdma_h2c_ext_t ext; }
struct qdma_h2c_ctx_t { bit<8> desc_size; }

parser DescParser(desc_in d, in qdma_h2c_ctx_t h2c_ctx, out qdma_desc_t desc_hdr) {
    state start {
        d.extract(desc_hdr.base);
        transition select(h2c_ctx.desc_size) {
            12: accept;
            16: parse_ext;
            default: reject;
        }
    }
    state parse_ext {
        d.extract(desc_hdr.ext);
        transition accept;
    }
}
"#,
    );
    Some(src)
}

/// A QDMA model wrapping generated layouts.
pub fn qdma(layouts: &[QdmaLayout]) -> Option<NicModel> {
    let p4_source = qdma_contract(layouts)?;
    let slot = layouts
        .iter()
        .map(|l| l.size_class().unwrap_or(64) as usize)
        .max()
        .unwrap_or(8);
    Some(NicModel {
        name: "qdma".into(),
        description: format!("fully programmable, {} installed layouts", layouts.len()),
        p4_source,
        deparser: "CmptDeparser".into(),
        desc_parser: Some("DescParser".into()),
        ctx_param: "ctx".into(),
        meta_param: "pipe_meta".into(),
        ctx_type: "qdma_ctx_t".into(),
        meta_type: "qdma_meta_t".into(),
        completion_slot_bytes: slot,
    })
}

/// A sensible default QDMA provisioning used by examples and benches:
/// four layouts covering common intent mixes at 8/16/32 bytes.
pub fn qdma_default() -> NicModel {
    qdma(&[
        QdmaLayout::new(&[("rss_hash", 32), ("pkt_len", 16), ("rx_status", 16)]),
        QdmaLayout::new(&[
            ("rss_hash", 32),
            ("ip_checksum", 16),
            ("l4_checksum", 16),
            ("vlan_tci", 16),
            ("pkt_len", 16),
            ("rx_status", 16),
        ]),
        QdmaLayout::new(&[
            ("rss_hash", 32),
            ("ip_checksum", 16),
            ("vlan_tci", 16),
            ("kvs_key_hash", 32),
            ("pkt_len", 16),
            ("rx_status", 16),
        ]),
        QdmaLayout::new(&[
            ("timestamp", 64),
            ("rss_hash", 32),
            ("flow_tag", 32),
            ("ip_checksum", 16),
            ("l4_checksum", 16),
            ("vlan_tci", 16),
            ("packet_type", 16),
            ("payload_offset", 16),
            ("kvs_key_hash", 32),
            ("pkt_len", 16),
            ("rx_status", 16),
        ]),
    ])
    .expect("default layouts fit 64B")
}

// ---------------------------------------------------------------------
// Programmable layout ingestion: a NIC model as pure data.
// ---------------------------------------------------------------------

/// One field of a programmable layout description.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgField {
    /// P4 field name; must be a valid identifier, unique per header.
    pub name: String,
    /// Semantic annotation; `None` renders a bare (pad/tag) field.
    pub semantic: Option<String>,
    pub width_bits: u16,
}

impl ProgField {
    /// A semantic-carrying field.
    pub fn sem(name: &str, semantic: &str, width_bits: u16) -> Self {
        ProgField {
            name: name.into(),
            semantic: Some(semantic.into()),
            width_bits,
        }
    }

    /// A bare field: padding, reserved bits, or a generation tag.
    pub fn pad(name: &str, width_bits: u16) -> Self {
        ProgField {
            name: name.into(),
            semantic: None,
            width_bits,
        }
    }
}

/// One completion-header layout: fields in emission order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProgLayout {
    pub fields: Vec<ProgField>,
}

impl ProgLayout {
    pub fn bits(&self) -> u32 {
        self.fields.iter().map(|f| f.width_bits as u32).sum()
    }

    pub fn bytes(&self) -> u32 {
        self.bits().div_ceil(8)
    }
}

/// How the deparser chooses among the alternative layouts.
#[derive(Debug, Clone, PartialEq)]
pub enum ProgGuard {
    /// Exactly one layout, always emitted.
    Unconditional,
    /// Exactly two layouts behind a 1-bit context selector.
    IfElse,
    /// Up to `2^selector_bits` layouts behind a switch on a context
    /// selector field.
    Switch { selector_bits: u16 },
    /// Exactly two layouts behind a guard the path solver cannot
    /// analyze (two context fields compared to each other) — the
    /// negotiated manifest's context must say `"mode": "manual"`.
    Opaque,
}

/// A TX descriptor description: a base header (which must carry
/// `buf_addr` and `buf_len`) and an optional extended header gated on
/// the host-to-card context's `desc_size`, QDMA-style.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgTxSpec {
    pub base: Vec<ProgField>,
    pub ext: Option<Vec<ProgField>>,
}

/// A full programmable NIC description: everything [`programmable`]
/// needs to mint a [`NicModel`]. A fifth real NIC is one of these — a
/// data change, not code.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgSpec {
    pub name: String,
    pub layouts: Vec<ProgLayout>,
    pub guard: ProgGuard,
    /// Optional fixed tail emitted after the selected alternative
    /// (e1000e-style base record).
    pub tail: Option<ProgLayout>,
    pub tx: Option<ProgTxSpec>,
}

/// Render header fields, auto-padding the header to a whole number of
/// bytes (the typechecker rejects ragged headers) in ≤128-bit chunks.
fn render_fields(src: &mut String, fields: &[ProgField]) {
    for f in fields {
        match &f.semantic {
            Some(s) => src.push_str(&format!(
                "    @semantic(\"{s}\") bit<{}> {};\n",
                f.width_bits, f.name
            )),
            None => src.push_str(&format!("    bit<{}> {};\n", f.width_bits, f.name)),
        }
    }
    let bits: u32 = fields.iter().map(|f| f.width_bits as u32).sum();
    let pad = bits.div_ceil(8) * 8 - bits;
    if pad > 0 {
        src.push_str(&format!("    bit<{pad}> alignpad;\n"));
    }
}

fn fields_ok(fields: &[ProgField]) -> bool {
    !fields.is_empty()
        && fields.iter().all(|f| {
            f.width_bits >= 1
                && f.width_bits <= 128
                && !f.name.is_empty()
                && f.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_')
                && !f.name.starts_with(|c: char| c.is_ascii_digit())
                && f.name != "alignpad"
        })
        && fields
            .iter()
            .enumerate()
            .all(|(i, f)| fields[..i].iter().all(|g| g.name != f.name))
}

/// Build a [`NicModel`] from a programmable description. Returns `None`
/// on an invalid shape: guard arity mismatch, a path exceeding 64
/// bytes, malformed fields, or a TX spec without byte-aligned headers
/// carrying `buf_addr`/`buf_len` in the base.
pub fn programmable(spec: &ProgSpec) -> Option<NicModel> {
    // Shape checks.
    match spec.guard {
        ProgGuard::Unconditional => {
            if spec.layouts.len() != 1 {
                return None;
            }
        }
        ProgGuard::IfElse | ProgGuard::Opaque => {
            if spec.layouts.len() != 2 {
                return None;
            }
        }
        ProgGuard::Switch { selector_bits } => {
            if !(1..=16).contains(&selector_bits)
                || spec.layouts.is_empty()
                || (selector_bits < 16 && spec.layouts.len() > 1usize << selector_bits)
            {
                return None;
            }
        }
    }
    let tail_bytes = spec.tail.as_ref().map_or(0, |t| t.bytes());
    let mut slot_bytes = 0u32;
    for l in &spec.layouts {
        if !fields_ok(&l.fields) {
            return None;
        }
        // Headers are auto-padded to whole bytes individually.
        let path_bytes = l.bytes() + tail_bytes;
        if path_bytes > 64 {
            return None;
        }
        slot_bytes = slot_bytes.max(path_bytes);
    }
    if let Some(t) = &spec.tail {
        if !fields_ok(&t.fields) {
            return None;
        }
    }
    if let Some(tx) = &spec.tx {
        let has =
            |fs: &[ProgField], sem: &str| fs.iter().any(|f| f.semantic.as_deref() == Some(sem));
        let byte_aligned =
            |fs: &[ProgField]| fs.iter().map(|f| f.width_bits as u32).sum::<u32>() % 8 == 0;
        if !fields_ok(&tx.base)
            || !has(&tx.base, "buf_addr")
            || !has(&tx.base, "buf_len")
            || !byte_aligned(&tx.base)
        {
            return None;
        }
        if let Some(ext) = &tx.ext {
            if !fields_ok(ext) || !byte_aligned(ext) {
                return None;
            }
        }
    }

    // Completion headers.
    let mut src = format!("// programmable model \"{}\" (generated).\n", spec.name);
    for (i, l) in spec.layouts.iter().enumerate() {
        src.push_str(&format!("header pd_cmpt{i}_t {{\n"));
        render_fields(&mut src, &l.fields);
        src.push_str("}\n");
    }
    if let Some(t) = &spec.tail {
        src.push_str("header pd_tail_t {\n");
        render_fields(&mut src, &t.fields);
        src.push_str("}\n");
    }

    // Context struct.
    src.push_str("struct pd_ctx_t { ");
    match spec.guard {
        ProgGuard::Unconditional => src.push_str("bit<1> reserved; "),
        ProgGuard::IfElse => src.push_str("bit<1> sel; "),
        ProgGuard::Switch { selector_bits } => src.push_str(&format!("bit<{selector_bits}> sel; ")),
        ProgGuard::Opaque => src.push_str("bit<4> a; bit<4> b; "),
    }
    src.push_str("}\n");

    // Metadata struct.
    src.push_str("struct pd_meta_t {\n");
    for i in 0..spec.layouts.len() {
        src.push_str(&format!("    pd_cmpt{i}_t l{i};\n"));
    }
    if spec.tail.is_some() {
        src.push_str("    pd_tail_t tail;\n");
    }
    src.push_str("}\n");

    // Deparser.
    src.push_str("control CmptDeparser(cmpt_out cmpt, in pd_ctx_t ctx, in pd_meta_t pipe_meta) {\n    apply {\n");
    match spec.guard {
        ProgGuard::Unconditional => {
            src.push_str("        cmpt.emit(pipe_meta.l0);\n");
        }
        ProgGuard::IfElse => {
            src.push_str("        if (ctx.sel == 1) {\n            cmpt.emit(pipe_meta.l1);\n        } else {\n            cmpt.emit(pipe_meta.l0);\n        }\n");
        }
        ProgGuard::Switch { .. } => {
            src.push_str("        switch (ctx.sel) {\n");
            for i in 0..spec.layouts.len() {
                src.push_str(&format!(
                    "            {i}: {{ cmpt.emit(pipe_meta.l{i}); }}\n"
                ));
            }
            src.push_str("            default: { }\n        }\n");
        }
        ProgGuard::Opaque => {
            src.push_str("        if (ctx.a == ctx.b) {\n            cmpt.emit(pipe_meta.l0);\n        } else {\n            cmpt.emit(pipe_meta.l1);\n        }\n");
        }
    }
    if spec.tail.is_some() {
        src.push_str("        cmpt.emit(pipe_meta.tail);\n");
    }
    src.push_str("    }\n}\n");

    // TX descriptor parser.
    if let Some(tx) = &spec.tx {
        src.push_str("header pd_tx_base_t {\n");
        render_fields(&mut src, &tx.base);
        src.push_str("}\n");
        let base_bytes: u32 = tx.base.iter().map(|f| f.width_bits as u32).sum::<u32>() / 8;
        match &tx.ext {
            Some(ext) => {
                src.push_str("header pd_tx_ext_t {\n");
                render_fields(&mut src, ext);
                src.push_str("}\n");
                let ext_bytes: u32 = ext.iter().map(|f| f.width_bits as u32).sum::<u32>() / 8;
                src.push_str("struct pd_desc_t { pd_tx_base_t base; pd_tx_ext_t ext; }\n");
                src.push_str("struct pd_h2c_ctx_t { bit<8> desc_size; }\n");
                src.push_str(&format!(
                    "parser DescParser(desc_in d, in pd_h2c_ctx_t h2c_ctx, out pd_desc_t desc_hdr) {{\n    state start {{\n        d.extract(desc_hdr.base);\n        transition select(h2c_ctx.desc_size) {{\n            {base_bytes}: accept;\n            {}: parse_ext;\n            default: reject;\n        }}\n    }}\n    state parse_ext {{\n        d.extract(desc_hdr.ext);\n        transition accept;\n    }}\n}}\n",
                    base_bytes + ext_bytes
                ));
            }
            None => {
                src.push_str("struct pd_desc_t { pd_tx_base_t base; }\n");
                src.push_str("struct pd_h2c_ctx_t { bit<1> reserved; }\n");
                src.push_str("parser DescParser(desc_in d, in pd_h2c_ctx_t h2c_ctx, out pd_desc_t desc_hdr) {\n    state start {\n        d.extract(desc_hdr.base);\n        transition accept;\n    }\n}\n");
            }
        }
    }

    Some(NicModel {
        name: spec.name.clone(),
        description: format!(
            "programmable: {} layouts, {:?} guard",
            spec.layouts.len(),
            spec.guard
        ),
        p4_source: src,
        deparser: "CmptDeparser".into(),
        desc_parser: spec.tx.as_ref().map(|_| "DescParser".into()),
        ctx_param: "ctx".into(),
        meta_param: "pipe_meta".into(),
        ctx_type: "pd_ctx_t".into(),
        meta_type: "pd_meta_t".into(),
        completion_slot_bytes: slot_bytes as usize,
    })
}

/// All fixed catalog models (including the default QDMA provisioning).
pub fn catalog() -> Vec<NicModel> {
    vec![
        e1000_legacy(),
        e1000e(),
        ixgbe(),
        ice(),
        mlx5(),
        qdma_default(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use opendesc_ir::{enumerate_paths, extract, SemanticRegistry, Unsolved, DEFAULT_MAX_PATHS};
    use opendesc_p4::typecheck::parse_and_check;

    fn check_model(m: &NicModel) -> usize {
        let (checked, diags) = parse_and_check(&m.p4_source);
        assert!(
            !diags.has_errors(),
            "model {} contract errors:\n{}",
            m.name,
            diags
                .iter()
                .map(|d| d.message.clone())
                .collect::<Vec<_>>()
                .join("\n")
        );
        let mut reg = SemanticRegistry::with_builtins();
        let cfg = extract(&checked, &m.deparser, &mut reg).expect("cfg extracts");
        let paths = enumerate_paths(&cfg, DEFAULT_MAX_PATHS).expect("paths enumerate");
        for p in &paths {
            assert!(
                p.size_bytes() as usize <= m.completion_slot_bytes,
                "model {}: path {} ({}B) exceeds slot {}",
                m.name,
                p.id,
                p.size_bytes(),
                m.completion_slot_bytes
            );
            assert!(
                p.solve_context().is_ok(),
                "model {}: unsolvable guard",
                m.name
            );
        }
        paths.len()
    }

    #[test]
    fn e1000_legacy_single_layout() {
        assert_eq!(check_model(&e1000_legacy()), 1);
    }

    #[test]
    fn e1000e_two_layouts() {
        assert_eq!(check_model(&e1000e()), 2);
    }

    #[test]
    fn ixgbe_two_layouts() {
        assert_eq!(check_model(&ixgbe()), 2);
    }

    #[test]
    fn mlx5_four_switch_arms() {
        // FULL, MINI_RSS, MINI_CSUM + default(FULL again).
        assert_eq!(check_model(&mlx5()), 4);
    }

    #[test]
    fn mlx5_full_cqe_is_64_bytes() {
        let m = mlx5();
        let (checked, d) = parse_and_check(&m.p4_source);
        assert!(!d.has_errors());
        let id = checked.header_id("mlx5_full_cqe_t").unwrap();
        assert_eq!(checked.types.header(id).width_bytes(), 64);
        let mini = checked.header_id("mlx5_mini_rss_t").unwrap();
        assert_eq!(checked.types.header(mini).width_bytes(), 8);
    }

    #[test]
    fn qdma_layout_size_classes() {
        let l = QdmaLayout::new(&[("rss_hash", 32), ("pkt_len", 16)]);
        assert_eq!(l.size_class(), Some(8));
        let l9 = QdmaLayout::new(&[("rss_hash", 32), ("pkt_len", 16), ("flow_tag", 32)]);
        assert_eq!(l9.size_class(), Some(16), "10 bytes fits the 16B class");
        let max = QdmaLayout::new(&[("timestamp", 64); 8]);
        assert_eq!(max.size_class(), Some(64));
        let too_big = QdmaLayout::new(&[("timestamp", 64); 9]);
        assert_eq!(too_big.size_class(), None);
        assert!(qdma(&[too_big]).is_none());
    }

    #[test]
    fn qdma_default_checks_and_enumerates() {
        // 4 installed layouts + default(empty) arm.
        assert_eq!(check_model(&qdma_default()), 5);
    }

    #[test]
    fn qdma_scales_to_many_layouts() {
        let layouts: Vec<QdmaLayout> = std::iter::repeat_with(|| {
            QdmaLayout::new(&[("rss_hash", 32), ("pkt_len", 16), ("flow_tag", 32)])
        })
        .take(64)
        .collect();
        let m = qdma(&layouts).unwrap();
        assert_eq!(check_model(&m), 65);
    }

    #[test]
    fn catalog_all_models_valid() {
        for m in catalog() {
            check_model(&m);
        }
    }

    fn sample_spec(guard: ProgGuard, n: usize) -> ProgSpec {
        let layout = |tag: usize| ProgLayout {
            fields: vec![
                ProgField::sem(&format!("hash{tag}"), "rss_hash", 32),
                ProgField::pad(&format!("gen{tag}"), 4),
                ProgField::sem(&format!("len{tag}"), "pkt_len", 16),
            ],
        };
        ProgSpec {
            name: "prog-test".into(),
            layouts: (0..n).map(layout).collect(),
            guard,
            tail: Some(ProgLayout {
                fields: vec![ProgField::sem("status", "rx_status", 8)],
            }),
            tx: Some(ProgTxSpec {
                base: vec![
                    ProgField::sem("addr", "buf_addr", 64),
                    ProgField::sem("len", "buf_len", 16),
                    ProgField::pad("flags", 8),
                ],
                ext: Some(vec![ProgField::sem("vlan", "tx_vlan_insert", 16)]),
            }),
        }
    }

    #[test]
    fn programmable_switch_model_checks() {
        let m = programmable(&sample_spec(ProgGuard::Switch { selector_bits: 4 }, 3)).unwrap();
        // 3 arms + empty default arm.
        assert_eq!(check_model(&m), 4);
        assert!(m.desc_parser.is_some());
    }

    #[test]
    fn programmable_unconditional_and_ifelse() {
        let m = programmable(&sample_spec(ProgGuard::Unconditional, 1)).unwrap();
        assert_eq!(check_model(&m), 1);
        let m = programmable(&sample_spec(ProgGuard::IfElse, 2)).unwrap();
        assert_eq!(check_model(&m), 2);
    }

    #[test]
    fn programmable_opaque_guard_is_unsolvable() {
        let m = programmable(&sample_spec(ProgGuard::Opaque, 2)).unwrap();
        let (checked, diags) = parse_and_check(&m.p4_source);
        assert!(!diags.has_errors());
        let mut reg = SemanticRegistry::with_builtins();
        let cfg = extract(&checked, &m.deparser, &mut reg).unwrap();
        let paths = enumerate_paths(&cfg, DEFAULT_MAX_PATHS).unwrap();
        assert_eq!(paths.len(), 2);
        assert!(
            (paths.iter()).all(|p| p.solve_context() == Err(Unsolved::Opaque)),
            "opaque guards must defeat the context solver"
        );
    }

    #[test]
    fn programmable_rejects_bad_shapes() {
        // Guard arity.
        assert!(programmable(&sample_spec(ProgGuard::Unconditional, 2)).is_none());
        assert!(programmable(&sample_spec(ProgGuard::IfElse, 3)).is_none());
        assert!(programmable(&sample_spec(ProgGuard::Switch { selector_bits: 1 }, 3)).is_none());
        // Oversized path.
        let mut big = sample_spec(ProgGuard::Unconditional, 1);
        big.layouts[0].fields = (0..5)
            .map(|i| ProgField::pad(&format!("p{i}"), 128))
            .collect();
        assert!(programmable(&big).is_none());
        // TX base missing buf_len.
        let mut tx = sample_spec(ProgGuard::Unconditional, 1);
        tx.tx.as_mut().unwrap().base.retain(|f| f.name != "len");
        assert!(programmable(&tx).is_none());
        // TX header not byte-aligned.
        let mut ragged = sample_spec(ProgGuard::Unconditional, 1);
        ragged.tx.as_mut().unwrap().ext = Some(vec![ProgField::pad("x", 7)]);
        assert!(programmable(&ragged).is_none());
        // Duplicate field names.
        let mut dup = sample_spec(ProgGuard::Unconditional, 1);
        let first = dup.layouts[0].fields[0].clone();
        dup.layouts[0].fields.push(first);
        assert!(programmable(&dup).is_none());
    }

    #[test]
    fn ixgbe_writeback_is_16_bytes() {
        let m = ixgbe();
        let (checked, _) = parse_and_check(&m.p4_source);
        let rest = checked.header_id("ixgbe_rest_t").unwrap();
        assert_eq!(checked.types.header(rest).width_bytes(), 12);
    }
}
