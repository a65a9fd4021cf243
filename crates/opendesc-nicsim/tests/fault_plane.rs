//! The injected faults are one seeded sequence: which class fires on
//! which frame, where a torn or truncated record is cut, which bit a
//! corruption flips, follows from the configuration and its seed alone.
//!
//! Each case runs 1 000 generated frames into a 64-entry ring and
//! consumes them through `receive_slot`, 0–40 at a time on a seeded
//! schedule (so the ring fills and drops), with one `reset_queue` and
//! one same-path `reprogram_queue` mid-run. An FNV-1a digest over every
//! consumed (frame, record, sequence tag, hint) and the final
//! `NicStats` is held to the table below, for:
//! - each of the eight fault classes alone at 0.25, and all eight at
//!   0.05 (hangs of 2 deliveries), seeds 1–3;
//! - e1000e delivered unsteered, and qdma_default delivered steered
//!   (the steering hint rides along and faults can mangle it).
//!
//! A change that moves one random draw, or reorders two, changes the
//! digests. A change to the fault model made on purpose replaces the
//! table with the one the failure prints, and says why.

use opendesc_nicsim::{
    models, FaultConfig, NicModel, NicStats, PktGen, SimNic, SteerPolicy, Steerer, Workload,
};

const FRAMES: u64 = 1_000;
const SEEDS: [u64; 3] = [1, 2, 3];
const CLASSES: [&str; 8] = [
    "drop",
    "corrupt",
    "torn",
    "truncate",
    "duplicate",
    "stale_gen",
    "doorbell_loss",
    "hang",
];

/// Digests per model, configuration (the classes alone, in `CLASSES`
/// order, then all eight) and seed.
const GOLDEN: [[[u64; 3]; 9]; 2] = [
    // e1000e unsteered
    [
        [0x56ef608374bf4c7d, 0xd0321128c4e1ae85, 0x6c22aa08666dda88], // drop
        [0x7933c244e7a15df5, 0x26b9bb4dd98a361a, 0xd0b28b59f2aa79d5], // corrupt
        [0x5ba1301fdd75c5b2, 0x64a6eb757cc76c6f, 0x086ef2572e7fee30], // torn
        [0x2685422c5f5bf4b8, 0xb6499964a913a2d8, 0xa10c350bdd2aaa6a], // truncate
        [0xc9dbae8b04ec01a2, 0x19a2ea44fa723adf, 0x7ff59a25a8b274a3], // duplicate
        [0x8820537e3dc11a36, 0xb950f34b2b28b02c, 0xe125958a3fd3eba1], // stale_gen
        [0xb9389d5162ebd418, 0x7d68fcee29f723c4, 0xb3bdc956d7c0214d], // doorbell_loss
        [0x1306545a33f5b2c4, 0x8a2875d504527af0, 0xf26a6b81870a222b], // hang
        [0x3aa06a0c13b747e4, 0xf980c4a7d16ed36f, 0x5f50661a49706305], // all eight
    ],
    // qdma_default steered
    [
        [0xc3a5592b4b8cc914, 0xa6b668008443c2cc, 0x0df267df0f9067ce], // drop
        [0x35016db6ef0abdb6, 0x00c15ba08e398851, 0x0186e46912bc14db], // corrupt
        [0x9394e767116b13ee, 0x84b17941f55f2fd1, 0xff93189bcc7bafc1], // torn
        [0x4dd3310a53b2e62e, 0xf11159ff655af13e, 0xf1c4b1b2011a1da3], // truncate
        [0xb793451661201b00, 0xb5a404ad2c89f131, 0x21f7378a7e539c4c], // duplicate
        [0x054fa61b26458441, 0x76ead3cfee4ad813, 0xe6317fbf84467c28], // stale_gen
        [0xdc6a9a11e38b128f, 0x1284e060a1a1fc17, 0xb03bd8ae8ab4cc48], // doorbell_loss
        [0xcabf5c0e6d083e05, 0x8edd19f4b653d8ca, 0x0616bf3c5c89e08d], // hang
        [0x2e7484ed8b3c27e2, 0x85e9d164e9585474, 0xdca218e8c364b2bd], // all eight
    ],
];

/// Every class of `mask` (bit `i` = `CLASSES[i]`) at chance `p`.
fn faults(mask: u8, p: f64, seed: u64) -> FaultConfig {
    let on = |i: usize| if mask & (1 << i) != 0 { p } else { 0.0 };
    FaultConfig::builder()
        .drop_chance(on(0))
        .corrupt_chance(on(1))
        .torn_chance(on(2))
        .truncate_chance(on(3))
        .duplicate_chance(on(4))
        .stale_gen_chance(on(5))
        .doorbell_loss_chance(on(6))
        .hang(on(7), 2)
        .seed(seed)
        .build()
        .unwrap()
}

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// A length-prefixed slice, so adjacent fields cannot trade bytes.
    fn slice(&mut self, bytes: &[u8]) {
        self.u64(bytes.len() as u64);
        self.bytes(bytes);
    }
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Consume up to `run` published completions into the digest.
fn consume(nic: &mut SimNic, host: &mut Vec<u8>, run: u64, h: &mut Fnv) {
    for _ in 0..run {
        let Some((pos, side)) = nic.receive_slot(host) else {
            return;
        };
        h.slice(host);
        h.slice(
            nic.cq
                .record(pos)
                .expect("a consumed record reads in its slot"),
        );
        h.u64(side.seq);
        h.u64(side.rss_hint.map_or(u64::MAX, u64::from));
    }
}

fn run(model: NicModel, steered: bool, cfg: FaultConfig, seed: u64) -> (u64, NicStats) {
    let mut nic = SimNic::new(model, 64).unwrap();
    let rss = nic.reg.id(opendesc_ir::names::RSS_HASH).unwrap();
    let (path, ctx) = (nic.paths.iter())
        .filter(|p| p.slot_for(rss).is_some())
        .find_map(|p| p.solve_context().ok().map(|ctx| (p.id, ctx)))
        .expect("a solvable path that carries the RSS hash");
    nic.configure(ctx.clone()).unwrap();
    nic.set_faults(cfg).unwrap();
    let steerer = Steerer::new(SteerPolicy::Rss, 1);
    let mut gen = PktGen::new(Workload {
        seed,
        ..Workload::default()
    });
    let mut schedule = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);
    let mut host = Vec::new();
    for i in 0..FRAMES {
        let frame = gen.next_frame();
        if steered {
            let v = steerer.steer(i, &frame);
            nic.deliver_steered(&frame, v.parsed.as_ref(), v.rss)
        } else {
            nic.deliver(&frame)
        }
        .unwrap();
        if i == FRAMES * 2 / 5 {
            nic.reset_queue();
        }
        if i == FRAMES * 7 / 10 {
            nic.reprogram_queue(&ctx, path).unwrap();
        }
        if xorshift(&mut schedule).is_multiple_of(48) {
            let run = xorshift(&mut schedule) % 41;
            consume(&mut nic, &mut host, run, &mut h);
        }
    }
    nic.reset_queue();
    consume(&mut nic, &mut host, u64::MAX, &mut h);
    assert_eq!(nic.pending_completions(), 0);
    let s = nic.stats.clone();
    for v in [
        s.rx_frames,
        s.rx_bytes,
        s.completions,
        s.dropped_faults,
        s.dropped_ring_full,
        s.corrupted,
        s.torn,
        s.truncated,
        s.duplicated,
        s.stale_gen,
        s.doorbell_lost,
        s.hang_dropped,
        s.resets,
        s.reprograms,
    ] {
        h.u64(v);
    }
    (h.0, s)
}

/// The counter each class moves when it fires.
fn fired(class: usize, s: &NicStats) -> u64 {
    [
        s.dropped_faults,
        s.corrupted,
        s.torn,
        s.truncated,
        s.duplicated,
        s.stale_gen,
        s.doorbell_lost,
        s.hang_dropped,
    ][class]
}

#[test]
fn the_fault_sequence_is_pinned() {
    let models = [
        ("e1000e unsteered", models::e1000e(), false),
        ("qdma_default steered", models::qdma_default(), true),
    ];
    let mut got = [[[0u64; 3]; 9]; 2];
    for (m, (name, model, steered)) in models.iter().enumerate() {
        for (c, row) in got[m].iter_mut().enumerate() {
            for (k, &seed) in SEEDS.iter().enumerate() {
                let cfg = match c {
                    8 => faults(0xFF, 0.05, seed),
                    _ => faults(1 << c, 0.25, seed),
                };
                let (digest, stats) = run(model.clone(), *steered, cfg, seed);
                row[k] = digest;
                let classes = if c == 8 { 0..8 } else { c..c + 1 };
                for class in classes {
                    assert!(
                        fired(class, &stats) > 0,
                        "{name}, seed {seed}: {} never fired: {stats:?}",
                        CLASSES[class]
                    );
                }
                assert!(
                    stats.dropped_ring_full > 0,
                    "{name}, config {c}, seed {seed}: the ring never filled: {stats:?}"
                );
            }
        }
    }
    if got != GOLDEN {
        let mut table = String::from("const GOLDEN: [[[u64; 3]; 9]; 2] = [\n");
        for (m, rows) in got.iter().enumerate() {
            table += &format!("    // {}\n    [\n", models[m].0);
            for (c, row) in rows.iter().enumerate() {
                let name = CLASSES.get(c).copied().unwrap_or("all eight");
                table += &format!(
                    "        [{:#018x}, {:#018x}, {:#018x}], // {name}\n",
                    row[0], row[1], row[2]
                );
            }
            table += "    ],\n";
        }
        table += "];\n";
        panic!("the fault sequence moved; the digests are now:\n{table}");
    }
}
