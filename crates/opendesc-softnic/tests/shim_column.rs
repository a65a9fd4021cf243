//! `SoftNic::exec_column` — one op down a column of parsed frames —
//! against per-packet `SoftNic::exec_op` over the same frames.
//!
//! For every `ShimOp` (`FlowTag`, which keeps state, and `Unsupported`
//! included), a generated program of ops run column by column must give
//! every row the value per-packet execution gives it, over frames that
//! parse and frames that do not, with memos primed or not and shared by
//! every op of a row (`rss_hash` beside `queue_hint`); both engines must
//! end with the same `shim_ops`.
//!
//! `CHAOS_SEED` is mixed into the byte noise laid over every frame and
//! into the row hints, so the CI chaos job explores distinct frames per
//! matrix entry. Failures print the seed so a case is replayable.

use opendesc_softnic::wire::ParsedFrame;
use opendesc_softnic::{testpkt, ShimMemo, ShimOp, SoftNic};
use proptest::prelude::*;

const OPS: [ShimOp; 13] = [
    ShimOp::RssHash,
    ShimOp::IpChecksum,
    ShimOp::L4Checksum,
    ShimOp::VlanTci,
    ShimOp::PktLen,
    ShimOp::PacketType,
    ShimOp::IpId,
    ShimOp::PayloadOffset,
    ShimOp::FlowTag,
    ShimOp::KvsKeyHash,
    ShimOp::QueueHint,
    ShimOp::RxStatus,
    ShimOp::Unsupported,
];

/// CI override: mixed into the frame noise and the hints.
fn env_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn xorshift(seed: &mut u64) -> u64 {
    *seed ^= *seed << 13;
    *seed ^= *seed >> 7;
    *seed ^= *seed << 17;
    *seed
}

/// One frame: UDP or TCP over a small address space (so flows repeat
/// and `flow_tag` hits its table), a KVS GET, or raw bytes (non-IP,
/// runts that do not parse at all).
fn arb_frame() -> impl Strategy<Value = Vec<u8>> {
    let l4 = (
        any::<bool>(),
        0u8..4,
        0u8..4,
        0u16..3,
        0u16..3,
        proptest::collection::vec(any::<u8>(), 0..48usize),
        (any::<bool>(), any::<u16>()).prop_map(|(t, tci)| t.then_some(tci & 0x0FFF)),
    )
        .prop_map(|(tcp, s, d, sp, dp, pay, vlan)| {
            let (src, dst) = ([10, 0, 0, s], [10, 0, 1, d]);
            if tcp {
                testpkt::tcp4(src, dst, sp, dp, &pay, vlan)
            } else {
                testpkt::udp4(src, dst, sp, dp, &pay, vlan)
            }
        });
    prop_oneof![
        l4,
        "\\PC{0,12}".prop_map(|key| {
            testpkt::udp4(
                [10, 0, 0, 1],
                [10, 0, 0, 2],
                40000,
                11211,
                &testpkt::kvs_get_payload(&key),
                None,
            )
        }),
        proptest::collection::vec(any::<u8>(), 0..64usize),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn column_execution_equals_per_packet_execution(
        mut frames in proptest::collection::vec(arb_frame(), 0..40),
        program in proptest::collection::vec(0usize..OPS.len(), 1..8),
        noise in any::<u64>(),
    ) {
        let mut seed = (noise ^ env_seed().wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1;
        let ctx = format!("CHAOS_SEED={} noise={noise:#x}", env_seed());
        // Flip a byte in about one frame in four, anywhere in it.
        for f in &mut frames {
            let r = xorshift(&mut seed);
            if r.is_multiple_of(4) && !f.is_empty() {
                let at = (r >> 8) as usize % f.len();
                f[at] ^= (r >> 32) as u8 | 1;
            }
        }
        // About half the rows carry a steering hint.
        let memos: Vec<ShimMemo> = frames
            .iter()
            .map(|_| {
                let r = xorshift(&mut seed);
                let mut memo = ShimMemo::default();
                if r & 1 == 0 {
                    memo.prime_rss((r >> 32) as u32);
                }
                memo
            })
            .collect();
        // `rss_hash` and `queue_hint` share each row's memo.
        let program: Vec<ShimOp> = program
            .into_iter()
            .map(|i| OPS[i])
            .chain([ShimOp::RssHash, ShimOp::QueueHint])
            .collect();
        let parsed: Vec<Option<ParsedFrame<'_>>> =
            frames.iter().map(|f| ParsedFrame::parse(f)).collect();

        let mut per_packet = SoftNic::new();
        let mut want = vec![vec![None; frames.len()]; program.len()];
        for (row, f) in frames.iter().enumerate() {
            let mut memo = memos[row];
            for (col, &op) in program.iter().enumerate() {
                want[col][row] = parsed[row]
                    .as_ref()
                    .and_then(|p| per_packet.exec_op(op, p, f.len(), &mut memo))
                    .map(u128::from);
            }
        }

        let mut column = SoftNic::new();
        let mut memos = memos;
        let mut got = vec![vec![Some(u128::MAX); frames.len()]; program.len()];
        for (col, &op) in program.iter().enumerate() {
            column.exec_column(op, &parsed, &mut memos, &mut got[col]);
        }

        for (col, op) in program.iter().enumerate() {
            prop_assert_eq!(&got[col], &want[col], "{}: {:?} (column {})", ctx, op, col);
        }
        prop_assert_eq!(column.shim_ops(), per_packet.shim_ops(), "{}: shim_ops", ctx);
    }
}

#[test]
fn a_column_writes_only_its_rows_and_skips_unparsed_ones() {
    let frames = [
        testpkt::udp4([10, 0, 0, 1], [10, 0, 0, 2], 1, 2, b"get k\r\n", None),
        b"runt".to_vec(),
    ];
    let parsed: Vec<_> = frames.iter().map(|f| ParsedFrame::parse(f)).collect();
    assert!(parsed[1].is_none());
    let mut soft = SoftNic::new();
    let mut memos = [ShimMemo::default(); 3];
    let mut out = [Some(7); 3];
    soft.exec_column(ShimOp::PktLen, &parsed, &mut memos, &mut out);
    assert_eq!(out, [Some(frames[0].len() as u128), None, Some(7)]);
    assert_eq!(soft.shim_ops(), 1, "an unparsed row runs no op");
}
