//! What the contract's P4 text says a device must do — the oracle of
//! the simulated NIC, which executes the same contract from its
//! enumerated layout tables.
//!
//! * [`completion`]: the `CmptDeparser` interpreted under a queue's
//!   programmed context, over the record of semantic values
//!   [`SimNic::offload_record`] produces for a frame. A queue that
//!   delivered the frame must have written exactly these bytes.
//! * [`transmit`]: the `DescParser` interpreted under the queue's H2C
//!   context, its `@semantic` fields harvested, the buffer resolved
//!   against `host_mem` and the requested fix-ups applied in the
//!   device's order (VLAN insert, IP checksum, L4 checksum). The
//!   device's `process_tx` must emit the same frame — or count the
//!   same reject.
//!
//! Both read the queue through [`SimNic`]'s public state and change
//! nothing on it.

use crate::interp::{run_deparser, run_desc_parser, InterpError};
use crate::value::Value;
use opendesc_ir::bits::width_mask;
use opendesc_ir::semantics::names;
use opendesc_ir::{Assignment, SemanticId};
use opendesc_nicsim::{MetaRecord, SimNic};
use opendesc_p4::ast;
use opendesc_p4::types::{StructId, Ty};
use opendesc_softnic::fixup;
use std::collections::HashMap;

/// The completion `nic`'s deparser serializes for `record` under the
/// programmed context.
pub fn completion(nic: &SimNic, record: &MetaRecord) -> Result<Vec<u8>, InterpError> {
    let model = &nic.model;
    let checked = &nic.checked;
    let mut args = HashMap::new();
    if let Some(Ty::Struct(sid)) = checked.lookup(&model.ctx_type) {
        let ctx = context_value(nic, sid, &model.ctx_param, nic.context());
        args.insert(model.ctx_param.clone(), ctx);
    }
    if let Some(Ty::Struct(sid)) = checked.lookup(&model.meta_type) {
        args.insert(model.meta_param.clone(), meta_value(nic, sid, record));
    }
    run_deparser(&nic.checked, &model.deparser, &args).map(|run| run.output)
}

/// What a device does with one TX descriptor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxOutcome {
    /// The wire frame it emits.
    Frame(Vec<u8>),
    /// The parser rejects the descriptor (`TxStats::parse_rejects`).
    ParseReject,
    /// The buffer it names does not resolve (`TxStats::bad_buffers`).
    BadBuffer,
}

/// What `nic`'s descriptor parser makes of `desc` under the programmed
/// H2C context, against the buffers registered in `nic.host_mem`.
pub fn transmit(nic: &SimNic, desc: &[u8]) -> TxOutcome {
    let Some(name) = nic.model.desc_parser.as_deref() else {
        return TxOutcome::ParseReject;
    };
    let Some(parser) = nic.checked.program.parser(name) else {
        return TxOutcome::ParseReject;
    };
    // The H2C context parameters: `in`-direction structs.
    let args: HashMap<String, Value> = (parser.params.iter())
        .filter_map(|p| match (p.dir, nic.checked.param_ty(p)) {
            (Some(ast::Direction::In), Some(Ty::Struct(sid))) => {
                let name = nic.checked.name(p.name.name);
                let v = context_value(nic, sid, name, nic.tx_context());
                Some((name.to_string(), v))
            }
            _ => None,
        })
        .collect();
    let Ok(run) = run_desc_parser(&nic.checked, name, desc, &args) else {
        return TxOutcome::ParseReject;
    };
    let mut fields = Vec::new();
    harvest(nic, &run.descriptor, &mut fields);
    let get = |name: &str| {
        let id = nic.reg.id(name)?;
        fields.iter().find(|(s, _)| *s == id).map(|(_, v)| *v)
    };
    let (Some(addr), Some(len)) = (get(names::BUF_ADDR), get(names::BUF_LEN)) else {
        return TxOutcome::BadBuffer;
    };
    let (Ok(addr), Ok(len)) = (u64::try_from(addr), usize::try_from(len)) else {
        return TxOutcome::BadBuffer;
    };
    let Some(buf) = nic.host_mem.read(addr, len) else {
        return TxOutcome::BadBuffer;
    };
    let mut frame = buf.to_vec();
    let vlan = get(names::TX_VLAN_INSERT).unwrap_or(0);
    if vlan != 0 {
        fixup::insert_vlan_in_place(&mut frame, vlan as u16);
    }
    if get(names::TX_IP_CSUM).unwrap_or(0) != 0 {
        fixup::fill_ipv4_checksum(&mut frame);
    }
    if get(names::TX_L4_CSUM).unwrap_or(0) != 0 {
        fixup::fill_l4_checksum(&mut frame);
    }
    TxOutcome::Frame(frame)
}

/// A value of context struct `sid` for parameter `param`, holding the
/// entries of `context` rooted at that parameter (zero elsewhere).
fn context_value(nic: &SimNic, sid: StructId, param: &str, context: &Assignment) -> Value {
    let mut v = Value::struct_of(sid, &nic.checked);
    for (fref, val) in context {
        let mut segs = fref.segments();
        if segs.next() != Some(param) {
            continue;
        }
        let segs: Vec<&str> = segs.collect();
        if let Some(slot) = v.get_path_mut(&segs) {
            *slot = Value::bits(fref.width, *val);
        }
    }
    v
}

/// The meta struct `sid` as the deparser reads it: every header valid,
/// each `@semantic` field holding the record's value (masked to the
/// field), absent values and unannotated fields zero.
fn meta_value(nic: &SimNic, sid: StructId, record: &MetaRecord) -> Value {
    let checked = &nic.checked;
    let mut v = Value::struct_of(sid, checked);
    for f in &checked.types.struct_(sid).fields {
        let Ty::Header(hid) = f.ty else {
            continue;
        };
        let Some(Value::Header { valid, fields, .. }) = v.get_path_mut(&[checked.name(f.name)])
        else {
            continue;
        };
        *valid = true;
        for hf in &checked.types.header(hid).fields {
            let id = hf.semantic.and_then(|s| nic.reg.id(checked.name(s)));
            if let Some(val) = id.and_then(|id| record.get(id)) {
                let name = checked.name(hf.name).to_string();
                fields.insert(name, width_mask(hf.width_bits) & val);
            }
        }
    }
    v
}

/// Every `(semantic, value)` of the valid headers in a parsed
/// descriptor.
fn harvest(nic: &SimNic, v: &Value, out: &mut Vec<(SemanticId, u128)>) {
    match v {
        Value::Struct(fields) => {
            for f in fields.values() {
                harvest(nic, f, out);
            }
        }
        Value::Header {
            header,
            valid: true,
            fields,
        } => {
            let checked = &nic.checked;
            for hf in &checked.types.header(*header).fields {
                if let Some(id) = hf.semantic.and_then(|s| nic.reg.id(checked.name(s))) {
                    let value = fields.get(checked.name(hf.name)).copied();
                    out.push((id, value.unwrap_or(0)));
                }
            }
        }
        _ => {}
    }
}
