//! E8 — batched accessor reads (the §5 "SIMD and architecture-dependent
//! optimization" direction).
//!
//! DPDK drivers hand-maintain SSE/NEON variants that read four
//! descriptors at a time; OpenDesc could *generate* them. This bench
//! measures what the *software* column loader the datapath runs
//! (`vm::load_column` over the lowered program's hardware loads) buys
//! over per-record `Accessor::read`s of the same four completions. Any
//! difference comes from resolving the load shape once per field, not
//! per record, not from SIMD: the real
//! vectorized-RX win requires emitting genuine SIMD loads per layout —
//! the paper's "generate SIMD accessors" future-work item. Numbers are
//! recorded in EXPERIMENTS.md.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use opendesc_core::{lower, vm, Compiler, Intent};
use opendesc_ir::{names, SemanticRegistry};
use opendesc_nicsim::{models, SimNic};
use opendesc_softnic::testpkt;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut reg = SemanticRegistry::with_builtins();
    let intent = Intent::builder("e8")
        .want(&mut reg, names::TIMESTAMP)
        .want(&mut reg, names::RSS_HASH)
        .want(&mut reg, names::PKT_LEN)
        .want(&mut reg, names::VLAN_TCI)
        .build();
    let compiled = Compiler::default()
        .compile_model(&models::mlx5(), &intent, &mut reg)
        .unwrap();
    assert!(compiled.missing_features().is_empty());

    // Four real completion records from the simulator.
    let mut nic = SimNic::new(models::mlx5(), 16).unwrap();
    nic.configure(compiled.context.clone().unwrap()).unwrap();
    let mut cmpts: Vec<Vec<u8>> = Vec::new();
    for i in 0..4u16 {
        let f = testpkt::udp4(
            [10, 0, 0, 1],
            [10, 0, 0, 2],
            1000 + i,
            2000,
            b"pkt",
            Some(0x100 + i),
        );
        nic.deliver(&f).unwrap();
        let (_, cmpt) = nic.receive().unwrap();
        cmpts.push(cmpt);
    }
    let quad: [&[u8]; 4] = [&cmpts[0], &cmpts[1], &cmpts[2], &cmpts[3]];
    let set = &compiled.accessors;
    let nacc = set.accessors.len();
    // The loads the datapath executes: one pre-resolved instruction per
    // hardware field, in the artifact's verified program.
    let low = lower(set, &compiled.plan).expect("mlx5 plan lowers");
    let loads = low.prog.hw_insns();
    assert_eq!(loads.len(), nacc, "every E8 field is a hardware load");

    println!("\nE8: 4-wide column loads vs scalar accessor reads, mlx5 full CQE, 4 fields");

    let mut g = c.benchmark_group("e8/reads");
    g.throughput(Throughput::Elements(4 * nacc as u64));
    g.bench_function("scalar_4x4", |b| {
        b.iter(|| {
            let mut acc = 0u128;
            // Inputs go through `black_box` in both arms: they are loop
            // constants, and a hoisted load measures nothing.
            for cmpt in black_box(&quad) {
                for a in black_box(&set.accessors) {
                    acc ^= a.read(cmpt);
                }
            }
            acc
        })
    });
    g.bench_function("batched_4x4", |b| {
        b.iter(|| {
            let mut acc = 0u128;
            let mut col = [None; 4];
            for insn in black_box(loads) {
                vm::load_column(insn, black_box(&quad), &mut col);
                acc ^= col.iter().fold(0, |x, v| x ^ v.unwrap_or(0));
            }
            acc
        })
    });
    g.finish();

    // Sanity: both orders produce identical values.
    let mut scalar = Vec::new();
    for cmpt in &quad {
        for a in &set.accessors {
            scalar.push(a.read(cmpt));
        }
    }
    for insn in loads {
        let mut col = [None; 4];
        vm::load_column(insn, &quad, &mut col);
        for (j, b) in col.iter().enumerate() {
            assert_eq!(
                *b,
                Some(scalar[j * nacc + insn.dst as usize]),
                "batch/scalar divergence"
            );
        }
    }
    println!("batch/scalar value agreement: OK");
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_secs(1))
        .measurement_time(std::time::Duration::from_secs(3));
    targets = bench
}
criterion_main!(benches);
