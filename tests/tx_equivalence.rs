//! The TX path against references it shares nothing with.
//!
//! There is one submission pipeline (`TxQueue::submit_from`;
//! [`TxDriver::send`] is its one-slot case). Its first reference is
//! [`expected_wire`]: the softnic fix-ups applied to a copy of the frame
//! — no driver, no device, no `compile_tx`. Whatever the model's
//! descriptor carries in hardware and whatever falls to driver software,
//! and wherever the batch boundaries land, exactly those bytes must
//! reach the wire, in order, on every TX-capable model.
//!
//! A second property pins the lowering itself: for arbitrary hint
//! values the deparse program must produce the exact descriptor bytes
//! the reference serializer `tx_descriptor` does.
//!
//! The third property closes the loop: a full-duplex [`ShardedEngine`]
//! forwarding every packet verbatim must put the same multiset of
//! frames on the wire that was delivered to its queues.
//!
//! The first property also draws when the device drains: only when a
//! submit comes up short, or after a drawn subset of flushes, so DMA
//! buffers are taken while others are in flight and the queue's free
//! stack holds a mix. `CHAOS_SEED` is mixed into that schedule (the CI
//! chaos job fans this suite out across seeds); failures print it.

use opendesc::compiler::{
    compile_tx, lower_tx, txreg, CompiledTxPlan, ForwardFn, Intent, PlanCache, RxBatch, Selector,
    ShardedEngine, TxBatch, TxDriver, TxQueue, TxRequest, TxVerdict,
};
use opendesc::ir::{names, SemanticRegistry};
use opendesc::nicsim::pktgen::ShardFrame;
use opendesc::nicsim::{models, NicModel, SimNic, SteerPolicy};
use opendesc::softnic::{fixup, testpkt};
use opendesc_reference::tx_descriptor;
use proptest::prelude::*;
use std::sync::Arc;

/// CI override: mixes an external seed into the drain schedule so the
/// chaos job explores distinct interleavings per matrix entry.
fn env_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// When the device drains besides a short submit: after flush `k` (or,
/// one frame per doorbell, after send `k`) if bit `k % 64` is set.
#[derive(Debug, Clone, Copy)]
struct Drains(u64);

impl Drains {
    fn after(self, k: usize) -> bool {
        self.0 >> (k % 64) & 1 == 1
    }
}

/// Every model whose contract includes a TX descriptor parser.
fn tx_models() -> Vec<NicModel> {
    models::catalog()
        .into_iter()
        .filter(|m| m.desc_parser.is_some())
        .collect()
}

fn tx_intent(reg: &mut SemanticRegistry) -> Intent {
    Intent::builder("tx-equiv")
        .want(reg, names::TX_L4_CSUM)
        .want(reg, names::TX_IP_CSUM)
        .want(reg, names::TX_VLAN_INSERT)
        .build()
}

/// One arbitrary frame: valid UDP/TCP (VLAN-tagged or not, checksums
/// zeroed so offloads have work to do) or raw bytes the fixups must
/// refuse wherever they run.
fn arb_frame() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        (
            any::<[u8; 4]>(),
            any::<[u8; 4]>(),
            any::<u16>(),
            any::<u16>(),
            proptest::collection::vec(any::<u8>(), 0..64usize),
            any::<bool>(),
            any::<u16>(),
            any::<bool>(),
        )
            .prop_map(|(s, d, sp, dp, pay, tagged, tci, udp)| {
                let mut f = if udp {
                    testpkt::udp4(s, d, sp, dp, &pay, tagged.then_some(tci & 0x0FFF))
                } else {
                    testpkt::tcp4(s, d, sp, dp, &pay, tagged.then_some(tci & 0x0FFF))
                };
                // Zero the IP header checksum of untagged frames so the
                // ip_csum offload changes bytes (tagged frames keep
                // theirs: offsets shift under the 802.1Q header).
                if !tagged {
                    f[24] = 0;
                    f[25] = 0;
                }
                f
            }),
        proptest::collection::vec(any::<u8>(), 0..120usize),
    ]
}

/// One arbitrary offload request. TCI 0 (a priority tag) gets its own
/// arm: a descriptor's VLAN hint reads 0 as "none", so it is the value
/// hardware insertion cannot carry.
fn arb_req() -> impl Strategy<Value = TxRequest> {
    (
        any::<bool>(),
        any::<bool>(),
        prop_oneof![Just(None), Just(Some(0)), (0u16..0x1000).prop_map(Some)],
    )
        .prop_map(|(ip_csum, l4_csum, vlan)| TxRequest {
            ip_csum,
            l4_csum,
            vlan,
        })
}

/// What one request must put on the wire: the reference fix-ups on a
/// copy of the frame, in the device's vlan → ip → l4 order.
fn expected_wire(frame: &[u8], req: TxRequest) -> Vec<u8> {
    let mut wire = req
        .vlan
        .and_then(|tci| fixup::insert_vlan(frame, tci))
        .unwrap_or_else(|| frame.to_vec());
    if req.ip_csum {
        fixup::fill_ipv4_checksum(&mut wire);
    }
    if req.l4_csum {
        fixup::fill_l4_checksum(&mut wire);
    }
    wire
}

/// Wire frames the product emits for `cases` at one batch capacity on
/// a `ring`-entry TX ring. Capacity 1 is `TxDriver::send` (one frame,
/// one doorbell); above that frames accumulate in a `TxBatch` and go out
/// through `TxQueue::submit`, one doorbell per batch. When a submit
/// comes up short (the ring is full) the device consumes and the
/// remainder is resubmitted with `submit_from`; otherwise the device
/// drains only where `drains` says and once at the end.
fn submitted_wire(
    model: &NicModel,
    cases: &[(Vec<u8>, TxRequest)],
    batch_cap: usize,
    ring: usize,
    drains: Drains,
) -> Vec<Vec<u8>> {
    let mut reg = SemanticRegistry::with_builtins();
    let intent = tx_intent(&mut reg);
    let compiled = compile_tx(
        &Selector::default(),
        &model.p4_source,
        model.desc_parser.as_deref().unwrap(),
        &model.name,
        &intent,
        &mut reg,
    )
    .unwrap_or_else(|e| panic!("{}: {e}", model.name));
    let mut nic = SimNic::new(model.clone(), ring).unwrap();
    let mut out = Vec::new();
    if batch_cap == 1 {
        let mut tx = TxDriver::attach(&mut nic, compiled, reg).unwrap();
        for (k, (frame, req)) in cases.iter().enumerate() {
            if tx.send(&mut nic, frame, *req).is_err() {
                // A full ring: the device consumes, then the frame goes.
                out.extend(nic.process_tx());
                tx.send(&mut nic, frame, *req).unwrap();
            }
            if drains.after(k) {
                out.extend(nic.process_tx());
            }
        }
        out.extend(nic.process_tx());
        return out;
    }
    let plan = Arc::new(CompiledTxPlan::new(compiled, &reg));
    let mut q = TxQueue::attach(&mut nic, plan, 2048);
    let mut batch = TxBatch::new(batch_cap, 2048);
    let mut flushes = 0;
    let mut flush = |nic: &mut SimNic, batch: &mut TxBatch| {
        let (mut from, mut drained) = (0, false);
        while from < batch.len() {
            let placed = q.submit_from(nic, batch, from).unwrap();
            assert!(placed > 0 || !drained, "a drained ring took nothing");
            from += placed;
            drained = from < batch.len();
            if drained {
                out.extend(nic.process_tx());
            }
        }
        if drains.after(flushes) {
            out.extend(nic.process_tx());
        }
        flushes += 1;
        batch.clear();
    };
    for (frame, req) in cases {
        if !batch.push(frame, *req) {
            flush(&mut nic, &mut batch);
            assert!(batch.push(frame, *req), "frame fits an empty batch");
        }
    }
    flush(&mut nic, &mut batch);
    out.extend(nic.process_tx());
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every TX-capable model puts exactly the oracle's bytes on the
    /// wire, in order, across arbitrary frame/request mixes and batch
    /// boundaries — one frame per doorbell included.
    #[test]
    fn submitted_wire_equals_oracle_on_every_tx_model(
        cases in proptest::collection::vec((arb_frame(), arb_req()), 1..24),
        extra_cap in 1..33usize,
        (only_short, bits) in (any::<bool>(), any::<u64>()),
    ) {
        // Drain only when a submit comes up short, or after a drawn
        // subset of flushes as well.
        let drains = Drains(if only_short {
            0
        } else {
            bits ^ env_seed().wrapping_mul(0x9E37_79B9_7F4A_7C15)
        });
        // Beside the ring nothing wraps on, an 8-entry one under at
        // least four laps of traffic, alternately longest-first and as
        // generated: every batch buffer, and each DMA buffer the queue
        // hands back, carries frame after frame, each shorter than the
        // stale one it still holds may be, and a batch above 8 frames
        // only goes out through resubmission.
        let mut long_first = cases.clone();
        long_first.sort_by_key(|(f, _)| std::cmp::Reverse(f.len()));
        let laps = 32usize.div_ceil(cases.len()).max(4);
        let recycled: Vec<_> = (0..laps)
            .flat_map(|lap| if lap % 2 == 0 { &long_first } else { &cases })
            .cloned()
            .collect();
        for (cases, ring) in [(&cases, 256), (&recycled, 8)] {
            let want: Vec<Vec<u8>> = cases.iter().map(|(f, r)| expected_wire(f, *r)).collect();
            for model in tx_models() {
                for batch_cap in [1, 2, 7, 32, extra_cap] {
                    let got = submitted_wire(&model, cases, batch_cap, ring, drains);
                    for (i, want) in want.iter().enumerate() {
                        prop_assert_eq!(
                            got.get(i),
                            Some(want),
                            "{} / ring {} / batch_cap {} / {:?} / CHAOS_SEED={}: frame {} ({:02x?}) with {:?} diverged from the oracle",
                            model.name.clone(),
                            ring,
                            batch_cap,
                            drains,
                            env_seed(),
                            i,
                            cases[i].0.clone(),
                            cases[i].1
                        );
                    }
                    prop_assert_eq!(got.len(), want.len(), "{}: extra wire frames", model.name.clone());
                }
            }
        }
    }

    /// The lowered deparse bytecode writes the exact descriptor bytes
    /// `tx_descriptor` does, for arbitrary hint values.
    #[test]
    fn deparse_bytecode_equals_writer_for_arbitrary_hints(
        addr in any::<u64>(),
        len in any::<u16>(),
        vlan in any::<u16>(),
        ip in any::<bool>(),
        l4 in any::<bool>(),
    ) {
        for model in tx_models() {
            let mut reg = SemanticRegistry::with_builtins();
            let intent = tx_intent(&mut reg);
            let compiled = compile_tx(
                &Selector::default(),
                &model.p4_source,
                model.desc_parser.as_deref().unwrap(),
                &model.name,
                &intent,
                &mut reg,
            )
            .unwrap();
            let prog = lower_tx(&compiled, &reg);
            let id = |n: &str| reg.id(n).unwrap();
            let golden = tx_descriptor(&compiled.layout, &[
                (id(names::BUF_ADDR), addr as u128),
                (id(names::BUF_LEN), len as u128),
                (id(names::TX_VLAN_INSERT), vlan as u128),
                (id(names::TX_IP_CSUM), ip as u128),
                (id(names::TX_L4_CSUM), l4 as u128),
            ]);
            let mut hints = [0u128; txreg::COUNT];
            hints[txreg::BUF_ADDR] = addr as u128;
            hints[txreg::BUF_LEN] = len as u128;
            hints[txreg::VLAN] = vlan as u128;
            hints[txreg::IP_CSUM] = ip as u128;
            hints[txreg::L4_CSUM] = l4 as u128;
            let mut desc = vec![0u8; golden.len()];
            prog.run_deparse(&hints, &mut desc);
            prop_assert_eq!(
                &desc,
                &golden,
                "{}: bytecode descriptor diverged from tx_descriptor",
                model.name.clone()
            );
        }
    }

    /// A full-duplex engine forwarding everything verbatim conserves the
    /// frame multiset: wire out == delivered in, per queue in order.
    #[test]
    fn full_duplex_forward_conserves_the_frame_multiset(
        frames in proptest::collection::vec(arb_frame(), 1..24),
        queues in 1..4usize,
    ) {
        let cache = PlanCache::default();
        let mut reg = SemanticRegistry::with_builtins();
        let rx_intent = Intent::builder("fwd_rx")
            .want(&mut reg, names::RSS_HASH)
            .want(&mut reg, names::PKT_LEN)
            .build();
        let tx_intent = Intent::builder("fwd_tx").build();
        let forward: Arc<ForwardFn> =
            Arc::new(|_b: &RxBatch, _i: usize, _s: &mut Vec<u8>| {
                TxVerdict::Forward(TxRequest::default())
            });
        let mut eng = ShardedEngine::new_uniform(
            &cache,
            &models::e1000e(),
            &rx_intent,
            &tx_intent,
            &mut reg,
            queues,
            256,
            SteerPolicy::Rss,
            8,
            2048,
            forward,
        )
        .unwrap();
        let mut pools = vec![Vec::new(); queues];
        for (i, f) in frames.iter().enumerate() {
            let v = eng.steerer().steer(i as u64, f);
            pools[v.queue].push(ShardFrame { bytes: f.clone(), rss: v.rss });
        }
        let (report, kept) = eng.run_collect(&pools);
        prop_assert_eq!(report.total_forwarded() as usize, frames.len());
        prop_assert_eq!(report.total_wire_frames(), report.total_forwarded());
        for (q, c) in kept.iter().enumerate() {
            let want: Vec<&Vec<u8>> = pools[q].iter().map(|s| &s.bytes).collect();
            let got: Vec<&Vec<u8>> = c.wire.iter().collect();
            prop_assert_eq!(got, want, "queue {}: forwarded frames diverged", q);
        }
    }
}
