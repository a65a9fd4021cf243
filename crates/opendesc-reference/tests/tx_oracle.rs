//! `tx_descriptor` against the layout it serializes and the deparse
//! bytecode it is the oracle of.

use opendesc_core::{compile_tx, txreg, CompiledTx, CompiledTxPlan, Intent, Selector};
use opendesc_ir::{names, SemanticId, SemanticRegistry};
use opendesc_nicsim::{models, NicModel};
use opendesc_reference::tx_descriptor;

fn compile(model: &NicModel, intent: &Intent, reg: &mut SemanticRegistry) -> CompiledTx {
    let sel = Selector::default();
    compile_tx(
        &sel,
        &model.p4_source,
        "DescParser",
        &model.name,
        intent,
        reg,
    )
    .unwrap()
}

#[test]
fn writer_only_writes_known_slots() {
    let mut reg = SemanticRegistry::with_builtins();
    let intent = Intent::builder("t").build();
    let compiled = compile(&models::qdma_default(), &intent, &mut reg);
    let addr = reg.id(names::BUF_ADDR).unwrap();
    let vlan = reg.id(names::TX_VLAN_INSERT).unwrap();
    assert!(compiled.layout.slot_for(addr).is_some());
    assert!(
        compiled.layout.slot_for(vlan).is_none(),
        "12B layout has no vlan slot"
    );
    let desc = tx_descriptor(&compiled.layout, &[(addr, 0xABCD), (vlan, 7)]);
    assert_eq!(desc.len(), 12);
    assert_eq!(&desc[..8], &0xABCDu64.to_be_bytes());
}

#[test]
fn deparse_bytecode_matches_writer_on_every_model() {
    // For each TX-capable model: lower the layout and check the
    // bytecode produces byte-identical descriptors to the oracle.
    for model in [
        models::e1000_legacy(),
        models::e1000e(),
        models::ice(),
        models::qdma_default(),
    ] {
        let mut reg = SemanticRegistry::with_builtins();
        let intent = Intent::builder("tx")
            .want(&mut reg, names::TX_L4_CSUM)
            .want(&mut reg, names::TX_VLAN_INSERT)
            .build();
        let plan = CompiledTxPlan::new(compile(&model, &intent, &mut reg), &reg);
        let id = |n: &str| reg.id(n).expect("builtin");
        let cases: [(u64, usize, u16, bool, bool); 3] = [
            (0x1000, 60, 0x0123, true, true),
            (0xFFFF_FF00, 1514, 0, false, true),
            (0x2468, 64, 0x0FFF, true, false),
        ];
        for (addr, len, tci, ip, l4) in cases {
            let mut hints: Vec<(SemanticId, u128)> = vec![
                (id(names::BUF_ADDR), addr as u128),
                (id(names::BUF_LEN), len as u128),
            ];
            let mut regs = [0u128; txreg::COUNT];
            regs[txreg::BUF_ADDR] = addr as u128;
            regs[txreg::BUF_LEN] = len as u128;
            if !plan.sw_vlan {
                hints.push((id(names::TX_VLAN_INSERT), tci as u128));
                regs[txreg::VLAN] = tci as u128;
            }
            if ip && !plan.sw_ip_csum {
                hints.push((id(names::TX_IP_CSUM), 1));
                regs[txreg::IP_CSUM] = 1;
            }
            if l4 && !plan.sw_l4_csum {
                hints.push((id(names::TX_L4_CSUM), 1));
                regs[txreg::L4_CSUM] = 1;
            }
            let golden = tx_descriptor(&plan.tx.layout, &hints);
            let mut desc = vec![0xFFu8; golden.len()];
            plan.prog.run_deparse(&regs, &mut desc);
            assert_eq!(desc, golden, "bytecode deparse diverges on {}", model.name);
        }
    }
}
