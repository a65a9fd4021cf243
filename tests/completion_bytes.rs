//! Completion bytes are untrusted input: the host reads each record in
//! the ring slot the device wrote, so whatever bytes land there — of any
//! length the slot can hold — must be served without a panic.
//!
//! For every catalog model, in `Structural` and `Full` validation, at
//! batch caps 1 and 32, a case posts arbitrary records of every length
//! from 0 to the slot size + 8 (`SimNic::post_completion`), in random
//! order, each with an arbitrary frame and steering hint:
//! - a record longer than the slot is refused as
//!   `RingError::EntryTooLarge`, and nothing is posted;
//! - every posted row is delivered, with its own frame and its record
//!   read back in its slot, and `accepted` counts exactly those rows;
//! - a row shorter than the negotiated record is counted as truncated
//!   and served degraded: its values are the degraded stream's over its
//!   frame, whatever its bytes said.
//!
//! `CHAOS_SEED` is mixed into the case seed, so the CI chaos job feeds
//! distinct bytes per matrix entry.

use opendesc::compiler::{Compiler, Intent, OpenDescDriver, ValidationMode};
use opendesc::ir::{names, SemanticRegistry};
use opendesc::nicsim::{models, NicError, RingError, SimNic};
use opendesc::softnic::{testpkt, SoftNic};
use opendesc_reference::execute_degraded;
use proptest::prelude::*;

/// The case seed with `CHAOS_SEED` mixed in.
fn seeded(seed: u64) -> u64 {
    let chaos: u64 = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    seed ^ chaos.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// A KVS GET over UDP (tagged or not), or raw bytes that may not parse.
fn frame(s: &mut u64) -> Vec<u8> {
    let r = xorshift(s);
    if r & 3 == 0 {
        let len = (xorshift(s) % 80) as usize;
        return (0..len).map(|_| xorshift(s) as u8).collect();
    }
    let key = format!("k{}", r % 97);
    let vlan = (r & 4 != 0).then_some((r >> 8) as u16);
    let payload = testpkt::kvs_get_payload(&key);
    testpkt::udp4(
        [10, 0, 0, 1],
        [10, 0, 0, 2],
        r as u16,
        11211,
        &payload,
        vlan,
    )
}

fn driver(model_ix: usize, mode: ValidationMode) -> OpenDescDriver {
    let model = models::catalog().swap_remove(model_ix);
    let mut reg = SemanticRegistry::with_builtins();
    let intent = [
        names::RSS_HASH,
        names::VLAN_TCI,
        names::PKT_LEN,
        names::PACKET_TYPE,
        names::PAYLOAD_OFFSET,
        names::KVS_KEY_HASH,
        names::IP_CHECKSUM,
    ]
    .iter()
    .fold(Intent::builder("bench7"), |b, s| b.want(&mut reg, s))
    .build();
    let compiled = Compiler::default()
        .compile_model(&model, &intent, &mut reg)
        .expect("bench7 compiles on every model");
    let mut drv = OpenDescDriver::attach(SimNic::new(model, 128).unwrap(), compiled).unwrap();
    drv.set_validation_mode(mode);
    drv
}

fn check(
    model_ix: usize,
    mode: ValidationMode,
    cap: usize,
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut drv = driver(model_ix, mode);
    let name = format!("{} {mode:?} cap {cap}", drv.nic.model.name);
    let slot = drv.nic.cq.slot_size();
    let expected_len = drv.iface.validator().expected_len;
    let mut s = seed | 1;
    // Every length once, in random order.
    let mut lens: Vec<usize> = (0..=slot + 8).collect();
    for i in (1..lens.len()).rev() {
        lens.swap(i, (xorshift(&mut s) % (i as u64 + 1)) as usize);
    }
    let mut posted = Vec::new();
    for len in lens {
        let record: Vec<u8> = (0..len).map(|_| xorshift(&mut s) as u8).collect();
        let f = frame(&mut s);
        let hint = (xorshift(&mut s) & 1 == 0).then(|| xorshift(&mut s) as u32);
        match drv.nic.post_completion(&f, &record, hint) {
            Ok(()) => {
                prop_assert!(
                    len <= slot,
                    "{}: {} bytes fit a {}-byte slot",
                    name,
                    len,
                    slot
                );
                posted.push((f, record));
            }
            Err(NicError::Ring(RingError::EntryTooLarge { len: l, slot: sl })) => {
                prop_assert_eq!((l, sl), (len, slot), "{}", name);
                prop_assert!(len > slot, "{}: {} bytes refused", name, len);
            }
            Err(e) => {
                return Err(TestCaseError::fail(format!(
                    "{name}: post {len} bytes: {e}"
                )))
            }
        }
    }
    let before = drv.validation_stats();
    let mut batch = drv.make_batch(cap);
    let mut soft = SoftNic::new();
    let mut oracle = vec![None; drv.iface.plan.steps.len()];
    let mut row = 0;
    loop {
        let n = drv.poll_batch_into(&mut batch);
        if n == 0 {
            break;
        }
        for pkt in 0..n {
            let (f, record) = &posted[row];
            prop_assert_eq!(batch.frame(pkt), &f[..], "{}: row {}", name, row);
            let got = drv.completion(&batch, pkt);
            prop_assert_eq!(got, Some(&record[..]), "{}: row {} in its slot", name, row);
            if record.len() < expected_len {
                execute_degraded(&drv.iface.plan, &mut soft, f, &mut oracle);
                for (field, want) in oracle.iter().enumerate() {
                    let v = batch.value_at(field, pkt);
                    prop_assert_eq!(v, *want, "{}: short row {} field {}", name, row, field);
                }
            }
            row += 1;
        }
    }
    let stats = drv.validation_stats();
    let shorts = posted
        .iter()
        .filter(|(_, r)| r.len() < expected_len)
        .count() as u64;
    prop_assert_eq!(row, posted.len(), "{}: every posted row is delivered", name);
    prop_assert_eq!(
        stats.accepted - before.accepted,
        posted.len() as u64,
        "{}",
        name
    );
    prop_assert_eq!(stats.truncated - before.truncated, shorts, "{}", name);
    prop_assert!(
        stats.degraded_packets - before.degraded_packets >= shorts,
        "{}",
        name
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn arbitrary_completion_bytes_are_served_without_a_panic(seed in any::<u64>()) {
        for model_ix in 0..models::catalog().len() {
            for mode in [ValidationMode::Structural, ValidationMode::Full] {
                for cap in [1, 32] {
                    check(model_ix, mode, cap, seeded(seed))?;
                }
            }
        }
    }
}
