//! GET-serving key-value store on the full-duplex sharded engine (the
//! paper's Fig. 1 FlexNIC example, taken all the way to the response):
//! the NIC contract delivers each request's key hash with the packet
//! (via the SoftNIC shim on e1000e, whose fixed-function completion has
//! no such slot), the forward verdict shards by that hash and rewrites
//! the request into a response in worker-owned scratch, and the batched
//! TX path serializes descriptors through the compiled deparse bytecode
//! — checksums inserted by hardware where the layout carries the hint,
//! by driver software where it doesn't, one doorbell per batch either
//! way.
//!
//! ```sh
//! cargo run --example kvs_offload
//! cargo run --example kvs_offload -- --zipf 1.3 --elephants 2
//! cargo run --example kvs_offload -- --relayout 4
//! ```
//!
//! With `--zipf <alpha>` (and optionally `--elephants <n>`) the request
//! stream is skewed instead of uniform, and the example reports the
//! per-queue occupancy skew RSS leaves behind instead of asserting the
//! flat-load balance.
//!
//! With `--relayout <n>` the store stays up while its RX contract is
//! renegotiated `n` times mid-run — each round drain-and-flips every
//! queue onto an alternate layout (adding/removing an `rss_hash` want)
//! and then serves another burst of requests under the new plans. The
//! example reports per-round flip latency (drain polls) and asserts
//! every request across every round was retained: live evolution, zero
//! loss.

use opendesc::compiler::{imbalance_p99_p50, ForwardFn, RxBatch, TxVerdict};
use opendesc::ir::names;
use opendesc::nicsim::multiqueue::SteerPolicy;
use opendesc::nicsim::pktgen::ShardedPktGen;
use opendesc::prelude::*;
use opendesc::softnic::checksum::{verify_ipv4_checksum, verify_l4_checksum};
use opendesc::softnic::wire::ParsedFrame;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const SHARDS: usize = 4;
const QUEUES: usize = 2;
const REQUESTS: usize = 8_000;

/// `--zipf <alpha>` / `--elephants <n>`: skew the request stream.
/// `--relayout <n>`: hot-renegotiate the RX contract n times mid-run.
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

/// Turn a GET request into its response in place of `out`: swap MACs,
/// IPs, and UDP ports, zero both checksums (the TX offload path fills
/// them), and echo the payload. No allocation once `out` has warmed up.
fn build_response(req: &[u8], out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(req);
    for i in 0..6 {
        out.swap(i, 6 + i); // Ethernet dst ↔ src
    }
    for i in 0..4 {
        out.swap(26 + i, 30 + i); // IPv4 src ↔ dst
    }
    out.swap(34, 36); // UDP src ↔ dst (hi bytes)
    out.swap(35, 37); // UDP src ↔ dst (lo bytes)
    out[24] = 0;
    out[25] = 0; // IP checksum — NIC or driver fills it
    out[40] = 0;
    out[41] = 0; // UDP checksum — likewise
}

fn main() {
    let cache = PlanCache::default();
    let mut reg = SemanticRegistry::with_builtins();
    let rx_intent = Intent::builder("kvs_rx")
        .want(&mut reg, names::KVS_KEY_HASH)
        .want(&mut reg, names::PKT_LEN)
        .build();
    let tx_intent = Intent::builder("kvs_tx")
        .want(&mut reg, names::TX_IP_CSUM)
        .want(&mut reg, names::TX_L4_CSUM)
        .build();

    let kvs = reg.id(names::KVS_KEY_HASH).unwrap();
    let shard_load: Arc<[AtomicU64; SHARDS]> = Arc::new(Default::default());
    let counts = Arc::clone(&shard_load);
    let forward: Arc<ForwardFn> = Arc::new(move |b: &RxBatch, i: usize, out: &mut Vec<u8>| {
        let Some(h) = b.get(i, kvs) else {
            return TxVerdict::Drop;
        };
        counts[(h as usize) % SHARDS].fetch_add(1, Ordering::Relaxed);
        build_response(b.frame(i), out);
        TxVerdict::Rewrite(TxRequest {
            ip_csum: true,
            l4_csum: true,
            vlan: None,
        })
    });

    let model = models::e1000e();
    let mut eng = ShardedEngine::new_uniform(
        &cache,
        &model,
        &rx_intent,
        &tx_intent,
        &mut reg,
        QUEUES,
        1024,
        SteerPolicy::Rss,
        64,
        2048,
        forward,
    )
    .expect("kvs intents compile (key hash via softnic shim on e1000e)");

    let (zipf, elephants, relayout) = parse_args();
    let mut wl = Workload::kvs(64);
    wl.zipf_alpha = zipf;
    wl.elephants = elephants;
    let pools = ShardedPktGen::generate(wl, eng.steerer(), REQUESTS).into_pools();
    let (report, kept) = eng.run_collect(&pools);

    println!(
        "{}: served {} GET requests on {} full-duplex queues ({} rewritten responses on the wire)",
        model.name,
        report.total_rx_packets(),
        QUEUES,
        report.total_wire_frames(),
    );
    assert_eq!(report.total_forwarded() as usize, REQUESTS);
    assert_eq!(report.total_wire_frames() as usize, REQUESTS);
    assert_eq!(
        report.total_forwarded(),
        report.tx.iter().map(|t| t.rewritten).sum::<u64>()
    );

    // Every response went back to the requester with valid checksums —
    // whichever side of the hardware/software split inserted them.
    for (q, c) in kept.iter().enumerate() {
        for (resp, req) in c.wire.iter().zip(&pools[q]) {
            let p = ParsedFrame::parse(resp).expect("response parses");
            let r = ParsedFrame::parse(&req.bytes).unwrap();
            let (psrc, pdst) = p.ports().unwrap();
            let (rsrc, rdst) = r.ports().unwrap();
            assert_eq!(psrc, rdst, "response comes from the store port");
            assert_eq!(pdst, rsrc, "response goes back to the client");
            assert!(verify_ipv4_checksum(&resp[14..34]));
            assert!(verify_l4_checksum(&p));
        }
    }

    let total: u64 = shard_load.iter().map(|c| c.load(Ordering::Relaxed)).sum();
    println!("sharded by NIC-delivered key hash:");
    for (i, c) in shard_load.iter().enumerate() {
        let n = c.load(Ordering::Relaxed);
        let bar = "#".repeat((n * 40 / total.max(1)) as usize);
        println!("  shard {i}: {n:>6} {bar}");
    }
    if zipf.is_none() && elephants == 0 {
        // Flat load only: skewed flows legitimately skew the shards.
        let max = shard_load
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .max()
            .unwrap() as f64;
        let min = shard_load
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .min()
            .unwrap() as f64;
        assert!(max / min.max(1.0) < 2.0, "shard imbalance {max}/{min}");
    } else {
        // Skewed mode: show what the flow skew does to the queues
        // (this is the imbalance E18's adaptive steering exists to fix).
        let per_queue: Vec<u64> = report.rx.iter().map(|w| w.packets).collect();
        println!(
            "skewed stream (zipf {:?}, {elephants} elephants): per-queue pkts {:?}, p99/p50 {:.2}",
            zipf,
            per_queue,
            imbalance_p99_p50(&per_queue)
        );
    }

    let snap = eng.snapshot();
    println!(
        "tx.engine: frames={} doorbells={} sw_fixups={} (descriptor carries ip-csum; l4 falls to software)",
        snap.counter("tx.engine.frames"),
        snap.counter("tx.engine.doorbells"),
        snap.counter("tx.engine.sw_fixups"),
    );
    assert!(
        snap.counter("tx.engine.doorbells") < snap.counter("tx.engine.frames"),
        "batched submission must ring fewer doorbells than frames"
    );
    // --- Live evolution: renegotiate the RX contract while serving ---
    // Each round flips every queue onto the alternate layout (adding or
    // dropping an `rss_hash` want — the key hash the forward verdict
    // shards on stays in both intents) and serves another burst of
    // requests under the new plans. The store never goes down.
    if relayout > 0 {
        let alt_intent = Intent::builder("kvs_rx_v2")
            .want(&mut reg, names::KVS_KEY_HASH)
            .want(&mut reg, names::PKT_LEN)
            .want(&mut reg, names::RSS_HASH)
            .build();
        let tx = cache
            .get_or_compile_tx(&model, &tx_intent, &mut reg)
            .expect("tx plan already cached");
        let burst = REQUESTS / 4;
        let (mut retained, mut worst_polls) = (0u64, 0u32);
        println!("\nlive evolution: {relayout} contract renegotiations under traffic");
        for round in 0..relayout {
            cache.begin_generation();
            let target = if round % 2 == 0 {
                &alt_intent
            } else {
                &rx_intent
            };
            let rx = cache
                .get_or_compile(&model, target, &mut reg)
                .expect("alternate kvs layout compiles");
            let flips = eng.relayout(&rx, Some(&tx));
            let polls = flips.iter().map(|(_, p)| *p).max().unwrap_or(0);
            worst_polls = worst_polls.max(polls);
            for (q, (prog, _)) in flips.iter().enumerate() {
                assert!(
                    matches!(prog, FlipProgress::Committed(_)),
                    "queue {q} failed to flip: {prog:?}"
                );
            }
            let mut wl = Workload::kvs(64);
            wl.zipf_alpha = zipf;
            wl.elephants = elephants;
            wl.seed = round as u64 + 1;
            let pools = ShardedPktGen::generate(wl, eng.steerer(), burst).into_pools();
            let report = eng.run(&pools);
            retained += report.total_rx_packets();
            println!(
                "  round {round}: {} queues -> {:>9} in {polls} drain polls; {}/{burst} requests served",
                QUEUES,
                target.name,
                report.total_rx_packets(),
            );
            assert_eq!(
                report.total_rx_packets() as usize,
                burst,
                "relayout lost requests"
            );
            assert_eq!(
                report.total_wire_frames() as usize,
                burst,
                "responses lost after flip"
            );
        }
        let evicted = cache.evict_superseded();
        println!(
            "retained {retained}/{} requests across {relayout} relayouts; worst flip {worst_polls} polls (budget {FLIP_POLL_BUDGET}); {evicted} superseded plan(s) evicted, {} live",
            burst as u64 * relayout as u64,
            cache.len() + cache.tx_len(),
        );
        assert_eq!(retained, burst as u64 * relayout as u64);
        assert!(worst_polls <= FLIP_POLL_BUDGET);
    }

    println!("identical application logic; the contract decided who hashes, who checksums.");
}
