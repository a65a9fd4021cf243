//! XDP firewall from NIC metadata: generate a verified eBPF program that
//! drops packets whose *device-computed* flow tag matches a blocklist
//! entry — without the program ever touching packet bytes.
//!
//! This is the paper's "access the metadata sent from the NIC in eBPF
//! through XDP" consumption model: the accessor offsets come from the
//! compiled completion layout, and the generated program carries the
//! bounds check the kernel-style verifier demands.
//!
//! Part two runs the same policy as a forwarding firewall on the
//! full-duplex sharded engine: ice queues deliver the device-computed
//! flow tag in their flex completion, the verdict drops blocked flows
//! and forwards the rest through the batched TX path unchanged.
//!
//! ```sh
//! cargo run --example xdp_firewall
//! cargo run --example xdp_firewall -- --zipf 1.1 --elephants 1
//! cargo run --example xdp_firewall -- --relayout 3
//! ```
//!
//! `--zipf <alpha>` / `--elephants <n>` skew the part-two traffic so
//! the per-queue report shows what flow skew does to RSS steering.
//! `--relayout <n>` hot-renegotiates the firewall's RX contract `n`
//! times between bursts — each round drain-and-flips every ice queue
//! onto an alternate completion layout (toggling an `rss_hash` want
//! next to the flow tag) and filters another burst under the new
//! plans, reporting flip latency and packet retention.

use opendesc::compiler::codegen::ebpf::gen_xdp_filter;
use opendesc::compiler::{ForwardFn, RxBatch, TxVerdict};
use opendesc::ebpf::insn::xdp_action;
use opendesc::ebpf::{disasm, verify, Vm, XdpContext};
use opendesc::ir::names;
use opendesc::nicsim::multiqueue::SteerPolicy;
use opendesc::nicsim::pktgen::ShardedPktGen;
use opendesc::nicsim::SimNic;
use opendesc::prelude::*;
use std::sync::Arc;

/// `--zipf <alpha>` / `--elephants <n>`: skew the part-two traffic.
/// `--relayout <n>`: hot-renegotiate the firewall contract n times.
fn parse_args() -> (Option<f64>, u32, u32) {
    let (mut zipf, mut elephants, mut relayout) = (None, 0u32, 0u32);
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--zipf" => {
                zipf = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--zipf <alpha>"),
                )
            }
            "--elephants" => {
                elephants = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--elephants <n>")
            }
            "--relayout" => {
                relayout = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--relayout <n>")
            }
            other => panic!(
                "unknown flag {other} (supported: --zipf <alpha>, --elephants <n>, --relayout <n>)"
            ),
        }
    }
    (zipf, elephants, relayout)
}

fn main() {
    // Intent: the application steers on the device flow tag.
    let mut reg = SemanticRegistry::with_builtins();
    let intent = Intent::builder("firewall")
        .want(&mut reg, names::FLOW_TAG)
        .want(&mut reg, names::PKT_LEN)
        .build();

    let model = models::mlx5();
    let compiled = Compiler::default()
        .compile_model(&model, &intent, &mut reg)
        .expect("mlx5 full CQE provides flow tags");
    println!("{}", compiled.report());

    // Generate the filter: drop flow tag 1 (the first flow the device
    // sees). The accessor's offset/width come from the selected layout.
    let flow_acc = compiled
        .accessors
        .for_semantic(reg.id(names::FLOW_TAG).unwrap())
        .expect("flow_tag accessor");
    let blocked_tag = 1u64;
    let prog = gen_xdp_filter(flow_acc, compiled.accessors.completion_bytes, blocked_tag)
        .expect("hardware accessor compiles to eBPF");

    println!("--- generated XDP program ({} insns) ---", prog.len());
    println!("{}", disasm(&prog));
    let stats = verify(&prog).expect("generated programs verify by construction");
    println!("verifier: OK ({} states explored)\n", stats.states_explored);

    // Run traffic: two flows; the first one hits the blocklist.
    let nic = SimNic::new(model, 256).unwrap();
    let mut drv = OpenDescDriver::attach(nic, compiled).unwrap();
    let flows: [(u16, &str); 2] = [(1111, "flow A"), (2222, "flow B")];
    for round in 0..4 {
        for (port, _) in flows {
            let f = opendesc::softnic::testpkt::udp4(
                [10, 9, 0, 1],
                [10, 9, 0, 2],
                port,
                9000,
                format!("round {round}").as_bytes(),
                None,
            );
            drv.deliver(&f).unwrap();
        }
    }

    let vm = Vm::default();
    let (mut passed, mut dropped) = (0u32, 0u32);
    // The XDP hook sees (packet, raw completion record) pairs.
    while let Some((frame, cmpt)) = drv.nic.receive() {
        let ctx = XdpContext::new(frame, cmpt);
        let (action, _) = vm.run(&prog, &ctx).expect("verified program cannot fault");
        match action {
            a if a == xdp_action::DROP => dropped += 1,
            a if a == xdp_action::PASS => passed += 1,
            other => panic!("unexpected action {other}"),
        }
    }
    println!("passed={passed} dropped={dropped}");
    assert_eq!(dropped, 4, "all four packets of the blocked flow dropped");
    assert_eq!(passed, 4, "the other flow passes");

    // --- Part two: the same policy as a forwarding firewall ---------
    // ice queues deliver the flow tag in hardware (flex descriptor);
    // the verdict never touches packet bytes — blocked flows are
    // consumed, the rest go straight back out through the batched TX
    // path, one doorbell per drained batch.
    let cache = PlanCache::default();
    let mut reg = SemanticRegistry::with_builtins();
    let rx_intent = Intent::builder("fw_rx")
        .want(&mut reg, names::FLOW_TAG)
        .want(&mut reg, names::PKT_LEN)
        .build();
    let tx_intent = Intent::builder("fw_tx").build(); // plain forward
    let flow = reg.id(names::FLOW_TAG).unwrap();
    let forward: Arc<ForwardFn> = Arc::new(move |b: &RxBatch, i: usize, _s: &mut Vec<u8>| {
        match b.get(i, flow) {
            // Block every even flow tag — half the flows, no byte reads.
            Some(tag) if tag % 2 == 0 => TxVerdict::Drop,
            Some(_) => TxVerdict::Forward(TxRequest::default()),
            None => TxVerdict::Drop,
        }
    });
    let mut eng = ShardedEngine::new_uniform(
        &cache,
        &models::ice(),
        &rx_intent,
        &tx_intent,
        &mut reg,
        2,
        512,
        SteerPolicy::Rss,
        32,
        2048,
        forward,
    )
    .expect("ice serves flow tags in hardware and has a TX parser");
    let total = 4_000;
    let (zipf, elephants, relayout) = parse_args();
    let wl = Workload {
        zipf_alpha: zipf,
        elephants,
        ..Default::default()
    };
    let pools = ShardedPktGen::generate(wl, eng.steerer(), total).into_pools();
    let report = eng.run(&pools);
    println!(
        "\nforwarding firewall on ice: {} in → {} forwarded, {} blocked ({} doorbells)",
        report.total_rx_packets(),
        report.total_forwarded(),
        report.total_dropped(),
        eng.snapshot().counter("tx.engine.doorbells"),
    );
    let per_queue: Vec<u64> = report.rx.iter().map(|w| w.packets).collect();
    println!(
        "per-queue pkts {:?}, p99/p50 {:.2}{}",
        per_queue,
        opendesc::compiler::imbalance_p99_p50(&per_queue),
        if zipf.is_some() || elephants > 0 {
            " (skewed stream)"
        } else {
            ""
        }
    );
    assert_eq!(report.total_rx_packets() as usize, total);
    assert_eq!(
        report.total_forwarded() + report.total_dropped(),
        total as u64,
        "every packet got a verdict"
    );
    assert_eq!(report.total_wire_frames(), report.total_forwarded());
    assert!(report.total_forwarded() > 0 && report.total_dropped() > 0);

    // --- Live evolution: re-contract the firewall without dropping it.
    // The policy only needs the flow tag; each round toggles an
    // `rss_hash` want next to it, drain-and-flips every queue onto the
    // renegotiated layout, and filters another burst under the new
    // plans. Retention must be total: a firewall that loses packets on
    // a layout change fails open.
    if relayout > 0 {
        let alt_intent = Intent::builder("fw_rx_v2")
            .want(&mut reg, names::FLOW_TAG)
            .want(&mut reg, names::PKT_LEN)
            .want(&mut reg, names::RSS_HASH)
            .build();
        let burst = total / 4;
        let (mut retained, mut worst_polls) = (0u64, 0u32);
        println!("\nlive evolution: {relayout} firewall re-contracts under traffic");
        for round in 0..relayout {
            cache.begin_generation();
            let target = if round % 2 == 0 {
                &alt_intent
            } else {
                &rx_intent
            };
            let rx = cache
                .get_or_compile(&models::ice(), target, &mut reg)
                .expect("alternate firewall layout compiles on ice");
            let flips = eng.relayout(&rx, None);
            let polls = flips.iter().map(|(_, p)| *p).max().unwrap_or(0);
            worst_polls = worst_polls.max(polls);
            for (q, (prog, _)) in flips.iter().enumerate() {
                assert!(
                    matches!(prog, FlipProgress::Committed(_)),
                    "queue {q} failed to flip: {prog:?}"
                );
            }
            let wl = Workload {
                zipf_alpha: zipf,
                elephants,
                seed: round as u64 + 1,
                ..Default::default()
            };
            let pools = ShardedPktGen::generate(wl, eng.steerer(), burst).into_pools();
            let r = eng.run(&pools);
            retained += r.total_rx_packets();
            println!(
                "  round {round}: flipped to {:>8} in {polls} drain polls; {}/{burst} packets got a verdict ({} forwarded, {} blocked)",
                target.name,
                r.total_forwarded() + r.total_dropped(),
                r.total_forwarded(),
                r.total_dropped(),
            );
            assert_eq!(
                r.total_rx_packets() as usize,
                burst,
                "relayout lost packets"
            );
            assert_eq!(
                r.total_forwarded() + r.total_dropped(),
                burst as u64,
                "every packet keeps getting a verdict across flips"
            );
        }
        let evicted = cache.evict_superseded();
        println!(
            "retained {retained}/{} packets across {relayout} relayouts; worst flip {worst_polls} polls (budget {FLIP_POLL_BUDGET}); {evicted} superseded plan(s) evicted",
            burst as u64 * relayout as u64,
        );
        assert_eq!(retained, burst as u64 * relayout as u64);
        assert!(worst_polls <= FLIP_POLL_BUDGET);
    }
}
