//! E1–E11 — the paper's own figures and §2/§4/§5 claims, one
//! `measure(rounds) -> Record` each. *Decisions* (chosen path, context,
//! completion bytes, fallback set, verifier verdict) are identity cells,
//! so a changed decision renames its row and the gate fails it as
//! missing; *shapes* are ratios of two arms of the same run; absolute
//! µs/ns are reported and never gated. Every timed cell goes through
//! [`best_of`].

use crate::{
    best_of, drain, fill, frames, harvest, intent_of, mlx5_with, timed, Cell, Record, Row,
};
use opendesc_core::{CompiledInterface, Compiler, Intent};
use opendesc_ir::names::{
    IP_CHECKSUM, IP_ID, L4_CHECKSUM, PKT_LEN, RSS_HASH, TIMESTAMP, TX_IP_CSUM, TX_L4_CSUM, VLAN_TCI,
};
use opendesc_ir::{Assignment, SemanticRegistry};
use opendesc_nicsim::{models, DmaConfig, Workload};

/// An intent compiled on mlx5 by the default compiler: the artifact,
/// the context it programs, and the intent and registry it was built
/// from.
fn on_mlx5(
    intent: impl FnOnce(&mut SemanticRegistry) -> Intent,
) -> (CompiledInterface, Assignment, Intent, SemanticRegistry) {
    let mut reg = SemanticRegistry::with_builtins();
    let intent = intent(&mut reg);
    let compiled = Compiler::default()
        .compile_model(&models::mlx5(), &intent, &mut reg)
        .expect("intent compiles on mlx5");
    let ctx = compiled.context.clone().expect("mlx5 selects by context");
    (compiled, ctx, intent, reg)
}

/// A semantic set as one identity cell: `rss_hash+ip_checksum`, `-`
/// when empty.
fn set(names: &[&str]) -> Cell {
    Cell::Id(if names.is_empty() {
        "-".to_string()
    } else {
        names.join("+")
    })
}

/// 1.0 when `ratios` — a DMA-model ratio per [`LINKS`] entry, fastest
/// link first — move one way at every step, 0.0 otherwise.
fn monotone(ratios: &[f64]) -> f64 {
    let rising = ratios.windows(2).all(|w| w[0] < w[1]);
    let falling = ratios.windows(2).all(|w| w[0] > w[1]);
    (rising || falling) as u64 as f64
}

/// E1 — the Fig. 6 running example as a decision table: for every
/// subset of {rss_hash, ip_checksum, ip_id, vlan_tci}, the path e1000e's
/// compiler selects, the context it programs and what falls back to
/// software. One full compile of the headline case, Req = {rss, csum},
/// is timed.
pub mod e1 {
    use super::*;

    pub const SEMS: [&str; 4] = [RSS_HASH, IP_CHECKSUM, IP_ID, VLAN_TCI];

    fn subset(mask: u32) -> Vec<&'static str> {
        let picked = SEMS
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0);
        picked.map(|(_, s)| *s).collect()
    }

    fn compile(mask: u32) -> CompiledInterface {
        let mut reg = SemanticRegistry::with_builtins();
        let intent = intent_of(&mut reg, "subset", &subset(mask));
        Compiler::default()
            .compile_model(&models::e1000e(), &intent, &mut reg)
            .expect("all subsets satisfiable")
    }

    pub fn measure(rounds: usize) -> Record {
        let rows = (0..16)
            .map(|mask| {
                let c = compile(mask);
                let ctx = c.context.as_ref().and_then(|a| a.values().next().copied());
                vec![
                    ("req", set(&subset(mask))),
                    ("path", Cell::IdNum(c.path.id as f64)),
                    (
                        "ctx",
                        Cell::Id(ctx.map_or("-".into(), |v| format!("rss={v}"))),
                    ),
                    ("fallbacks", set(&c.missing_features())),
                    ("soft_ns", Cell::Val(c.selection.best.software_cost_ns)),
                ]
            })
            .collect();
        let ns = best_of(rounds, &mut [|| timed(|| compile(0b0011))]);
        let mut rec = Record::new(
            "e1_fig6_selection",
            "decision per intent subset",
            0,
            rounds,
            rows,
        );
        rec.put("compile_rss_plus_csum_us", ns[0] / 1e3);
        rec
    }
}

/// E2 — the Fig. 1 scenario as a NIC × intent matrix: which layout
/// wins, what it costs, what falls back to software, what is
/// unsatisfiable. The timed cell is the whole matrix (36 compiles).
pub mod e2 {
    use super::*;
    use crate::intent_catalog;
    use opendesc_core::{CompileError, SelectError};

    fn matrix() -> Vec<Row> {
        let mut rows = Vec::new();
        for model in models::catalog() {
            let mut reg0 = SemanticRegistry::with_builtins();
            for (iname, intent) in intent_catalog(&mut reg0) {
                let compiled =
                    Compiler::default().compile_model(&model, &intent, &mut reg0.clone());
                let (paths, bytes, soft, fallbacks) = match compiled {
                    Ok(c) => (
                        c.paths_considered,
                        c.path.size_bytes(),
                        c.selection.best.software_cost_ns,
                        set(&c.missing_features()),
                    ),
                    Err(CompileError::Select(SelectError::Unsatisfiable { uncomputable })) => {
                        let why = format!("UNSATISFIABLE({})", uncomputable.join("+"));
                        (0, 0, 0.0, Cell::Id(why))
                    }
                    Err(e) => panic!("{} x {iname}: {e}", model.name),
                };
                rows.push(vec![
                    ("nic", Cell::id(&model.name)),
                    ("intent", Cell::id(&iname)),
                    ("cmpt_bytes", Cell::IdNum(bytes as f64)),
                    ("fallbacks", fallbacks),
                    ("paths", Cell::Count(paths as u64)),
                    ("soft_ns", Cell::Val(soft)),
                ]);
            }
        }
        rows
    }

    pub fn measure(rounds: usize) -> Record {
        let ns = best_of(rounds, &mut [|| timed(matrix)]);
        let mut rec = Record::new(
            "e2_layout_matrix",
            "decision per (NIC, intent)",
            0,
            rounds,
            matrix(),
        );
        rec.put("full_matrix_compile_us", ns[0] / 1e3);
        rec
    }
}

/// E3 — host datapath cost on mlx5 (full CQE, 5-semantic intent):
/// generated accessors vs the generic copy-everything mbuf layer vs the
/// least-common-denominator datapath that recomputes what the NIC
/// already did. The device fills the ring off the clock; the timed
/// region is the host poll loop, identical across the three.
pub mod e3 {
    use super::*;
    use crate::baseline::{GenericMbufDriver, LcdDriver};
    use opendesc_core::OpenDescDriver;

    /// Packets per measured round; rings hold two.
    pub const ROUND: usize = 256;
    pub const DATAPATHS: [&str; 3] = ["opendesc", "generic_mbuf", "lcd_recompute"];

    pub fn workloads() -> [(&'static str, Workload); 2] {
        let mixed = Workload {
            payload: (18, 1400),
            vlan_fraction: 1.0,
            ..Workload::default()
        };
        [("min64B", Workload::min_size(64)), ("mixed", mixed)]
    }

    pub fn measure(rounds: usize) -> Record {
        let sems = [RSS_HASH, IP_CHECKSUM, L4_CHECKSUM, VLAN_TCI, PKT_LEN];
        let (compiled, ctx, intent, reg) = on_mlx5(|reg| intent_of(reg, "e3", &sems));
        let nic = || mlx5_with(&ctx, ROUND * 2, &[]);
        let mut rows = Vec::new();
        for (label, wl) in workloads() {
            let frames = frames(wl, ROUND);
            let mut od = OpenDescDriver::attach(nic(), compiled.clone()).expect("attaches");
            let mut generic =
                GenericMbufDriver::attach(nic(), intent.clone(), reg.clone()).expect("attaches");
            let mut lcd = LcdDriver::attach(nic(), intent.clone(), reg.clone());
            macro_rules! arm {
                ($drv:ident) => {
                    &mut || {
                        for f in &frames {
                            $drv.deliver(f).expect("ring holds the round");
                        }
                        timed(|| drain(|| $drv.poll())) / ROUND as f64
                    }
                };
            }
            let ns = best_of::<&mut dyn FnMut() -> f64>(
                rounds,
                &mut [arm!(od), arm!(generic), arm!(lcd)],
            );
            for (path, ns) in DATAPATHS.iter().zip(ns) {
                rows.push(vec![
                    ("workload", Cell::id(label)),
                    ("datapath", Cell::id(path)),
                    ("ns_per_pkt", Cell::Val(ns)),
                    ("mpps", Cell::Val(1e3 / ns)),
                ]);
            }
        }
        let mut rec = Record::new("e3_datapath_throughput", "ns/pkt", ROUND, rounds, rows);
        for (label, _) in workloads() {
            let ns = |path: &str| format!("rows[workload={label},datapath={path}].ns_per_pkt");
            for (key, path) in [("generic", "generic_mbuf"), ("lcd", "lcd_recompute")] {
                let r = rec.ratio(&ns(path), &ns("opendesc"));
                rec.put(format!("{key}_vs_opendesc_{label}"), r);
            }
        }
        rec
    }
}

/// The mlx5 context that selects the full 64 B CQE (`0`) or the 8 B
/// mini-CQE (`1`) directly, for the experiments that compare the two
/// formats rather than negotiate one (E4).
fn cqe_format(fmt: u128) -> Assignment {
    let field = opendesc_ir::pred::FieldRef::new(&["ctx", "cqe_format"], 2);
    Assignment::from([(field, fmt)])
}

/// The link speeds (GB/s) of the PCIe/DMA model tables (E4, E10, E11).
pub const LINKS: [f64; 4] = [7.9, 2.0, 0.5, 0.1];

/// E4 — completion-size sensitivity under the PCIe/DMA model: the
/// analytic completion-rate ceiling per record size (the QDMA size
/// classes, which include both mlx5 formats) and link speed; the
/// simulated mlx5's accumulated completion DMA on identical traffic,
/// full CQE vs mini-CQE at 0.5 GB/s; and the wall cost of deliver +
/// drain per format.
pub mod e4 {
    use super::*;

    pub const SIZES: [u32; 4] = [8, 16, 32, 64];
    /// Frames per timed deliver + drain round.
    pub const ROUND: usize = 256;
    const FORMATS: [(&str, u128); 2] = [("full64", 0), ("mini8", 1)];

    pub fn measure(rounds: usize) -> Record {
        let mut rows = Vec::new();
        for size in SIZES {
            for bw in LINKS {
                let ns = DmaConfig::default().with_bandwidth(bw).write_cost_ns(size);
                rows.push(vec![
                    ("cmpt_bytes", Cell::IdNum(size as f64)),
                    ("link_gbps", Cell::IdNum(bw)),
                    ("write_ns", Cell::Val(ns)),
                    ("mpps_ceiling", Cell::Val(1e3 / ns)),
                ]);
            }
        }
        let mut rec = Record::new(
            "e4_dma_footprint",
            "Mpps ceiling (completion writes only)",
            ROUND,
            rounds,
            rows,
        );
        let ratios = LINKS.map(|bw| {
            let at = |size: u32| format!("rows[cmpt_bytes={size},link_gbps={bw}].mpps_ceiling");
            rec.ratio(&at(8), &at(64))
        });
        for (bw, r) in LINKS.iter().zip(ratios) {
            rec.put(format!("ceiling_8_vs_64_{bw}"), r);
        }
        rec.put("model_ratios_monotone", monotone(&ratios));
        // Simulated: 10 × 1 000 packets through the device at 0.5 GB/s.
        let traffic = frames(Workload::min_size(32), 1000);
        for (label, fmt) in FORMATS {
            let mut nic = mlx5_with(&cqe_format(fmt), 1 << 14, &[]);
            nic.set_dma_config(DmaConfig::default().with_bandwidth(0.5));
            for _ in 0..10 {
                fill(&mut nic, &traffic);
                while nic.receive().is_some() {}
            }
            rec.put(format!("sim_dma_bytes_{label}"), nic.dma.bytes as f64);
            rec.put(format!("sim_dma_ns_per_pkt_{label}"), nic.dma.busy_ns / 1e4);
        }
        let r = rec.ratio("sim_dma_ns_per_pkt_full64", "sim_dma_ns_per_pkt_mini8");
        rec.put("sim_dma_full_vs_mini", r);
        // Timed: what the simulator itself pays per completion format.
        let traffic = &traffic[..ROUND];
        let mut nics = FORMATS.map(|(_, fmt)| mlx5_with(&cqe_format(fmt), ROUND * 2, &[]));
        let mut arms = nics.each_mut().map(|nic| {
            move || {
                let drained = || {
                    fill(nic, traffic);
                    std::iter::from_fn(|| nic.receive()).count()
                };
                timed(drained) / ROUND as f64
            }
        });
        for ((label, _), ns) in FORMATS.iter().zip(best_of(rounds, &mut arms)) {
            rec.put(format!("deliver_drain_ns_per_pkt_{label}"), ns);
        }
        rec
    }
}

/// E5 — descriptor metadata in eBPF/XDP: the verifier's verdict on
/// every generated accessor program and on the same read with its bounds
/// check removed, and interpreted cost of reading a NIC-computed value
/// against recomputing it in eBPF. Fig. 1 intent on mlx5, one real
/// (packet, completion) pair from the simulator.
pub mod e5 {
    use super::*;
    use opendesc_core::codegen::ebpf::{gen_ipv4_csum_prog, gen_xdp_filter};
    use opendesc_ebpf::asm::{reg as r, Asm};
    use opendesc_ebpf::insn::size;
    use opendesc_ebpf::xdp::ctx_off;
    use opendesc_ebpf::{verify, Vm, XdpContext};

    /// Program runs (and a tenth as many verifications) per timed round.
    pub const REPS: usize = 1000;

    pub fn measure(rounds: usize) -> Record {
        let fig1 =
            |reg: &mut _| Intent::from_p4(opendesc_core::FIG1_INTENT_P4, reg).expect("parses");
        let (compiled, ctx, _, reg) = on_mlx5(fig1);
        let bytes = compiled.accessors.completion_bytes;
        let rss = reg.id(RSS_HASH).expect("builtin");
        let rss = compiled.accessors.for_semantic(rss).expect("requested");
        let mut progs = compiled.ebpf_programs().expect("accessors generate");
        progs.push(("recompute_ipv4_csum".into(), gen_ipv4_csum_prog(14)));
        let filter = gen_xdp_filter(rss, bytes, 7).expect("filter generates");
        progs.push(("xdp_filter_on_rss".into(), filter));
        // The adversarial variant: an accessor's read, bounds check gone.
        let mut a = Asm::new();
        a.ldx(size::DW, r::R2, r::R1, ctx_off::META)
            .ldx(size::W, r::R0, r::R2, 8)
            .exit();
        progs.push(("unchecked".into(), a.build()));

        let (src, dst, body) = ([10, 0, 0, 1], [10, 0, 0, 2], b"get bench\r\n");
        let frame = opendesc_softnic::testpkt::udp4(src, dst, 1234, 11211, body, Some(0x0064));
        let (pkt, cmpt) = harvest(&mut mlx5_with(&ctx, 16, &[frame])).remove(0);
        let xdp = XdpContext::new(pkt, cmpt);
        let vm = Vm::default();
        let verdicts: Vec<_> = progs.iter().map(|(_, p)| verify(p)).collect();
        let mut arms: Vec<Box<dyn FnMut() -> f64 + '_>> = Vec::new();
        for ((_, p), _) in progs.iter().zip(&verdicts).filter(|(_, v)| v.is_ok()) {
            let run = || (0..REPS).fold(0, |acc, _| acc ^ vm.run(p, &xdp).expect("verified").0);
            arms.push(Box::new(move || timed(run) / REPS as f64));
            let check = || (0..REPS / 10).filter(|_| verify(p).is_ok()).count();
            arms.push(Box::new(move || timed(check) / (REPS / 10) as f64));
        }
        let mut ns = best_of(rounds, &mut arms).into_iter();
        drop(arms);
        let rows = progs
            .iter()
            .zip(verdicts)
            .map(|((name, p), verdict)| {
                let (verdict, reason, states) = match verdict {
                    Ok(stats) => ("ACCEPT", "-".into(), stats.states_explored),
                    Err(e) => ("REJECT", e.reason.to_string(), 0),
                };
                let mut timing = || match verdict {
                    "ACCEPT" => ns.next().expect("two arms per accepted program"),
                    _ => 0.0,
                };
                vec![
                    ("program", Cell::id(name)),
                    ("verifier", Cell::id(verdict)),
                    ("reason", Cell::Id(reason)),
                    ("insns", Cell::Count(p.len() as u64)),
                    ("states", Cell::Count(states as u64)),
                    ("interp_ns", Cell::Val(timing())),
                    ("verify_ns", Cell::Val(timing())),
                ]
            })
            .collect();
        let mut rec = Record::new(
            "e5_ebpf_accessors",
            "verifier verdict, ns interpreted",
            REPS,
            rounds,
            rows,
        );
        let row =
            |name: &str, col: &str| format!("rows[program={name},verifier=ACCEPT,reason=-].{col}");
        for (key, col) in [("ebpf", "interp_ns"), ("insns", "insns")] {
            let r = rec.ratio(&row("recompute_ipv4_csum", col), &row("csum", col));
            rec.put(format!("recompute_vs_accessor_{key}"), r);
        }
        rec
    }
}

/// E6 — compiler scalability: QDMA devices provisioned with 2 → 2 048
/// installed layouts, timing the frontend (parse + typecheck + CFG) and
/// enumeration + selection apart.
pub mod e6 {
    use super::*;
    use opendesc_ir::extract;
    use opendesc_nicsim::{qdma, QdmaLayout};
    use opendesc_p4::typecheck::parse_and_check;
    use std::hint::black_box;

    pub const LAYOUTS: [usize; 6] = [2, 8, 32, 128, 512, 2048];

    /// `k` installed layouts cycling through four semantic combinations.
    fn layouts(k: usize) -> Vec<QdmaLayout> {
        let pool: [&[(&str, u16)]; 4] = [
            &[("rss_hash", 32), ("pkt_len", 16)],
            &[("rss_hash", 32), ("ip_checksum", 16), ("vlan_tci", 16)],
            &[("flow_tag", 32), ("pkt_len", 16), ("rx_status", 16)],
            &[("timestamp", 64), ("rss_hash", 32), ("l4_checksum", 16)],
        ];
        (0..k).map(|i| QdmaLayout::new(pool[i % 4])).collect()
    }

    pub fn measure(rounds: usize) -> Record {
        let mut reg = SemanticRegistry::with_builtins();
        let intent = intent_of(&mut reg, "e6", &[RSS_HASH, IP_CHECKSUM]);
        let devices = LAYOUTS.map(|k| qdma(&layouts(k)).expect("layouts fit a size class"));
        let frontend = |m: &opendesc_nicsim::NicModel, reg: &mut SemanticRegistry| {
            let (checked, d) = parse_and_check(&m.p4_source);
            assert!(!d.has_errors());
            extract(&checked, &m.deparser, reg).expect("contract extracts")
        };
        let cfgs = devices.each_ref().map(|m| frontend(m, &mut reg.clone()));
        let mut arms: Vec<Box<dyn FnMut() -> f64 + '_>> = Vec::new();
        for ((m, cfg), k) in devices.iter().zip(&cfgs).zip(LAYOUTS) {
            // A round is at least a few ms of one phase on one device:
            // interleaved one compile at a time, the small devices would
            // run on the caches the 2 048-layout one just emptied.
            let reps = (256 / k).max(1);
            let repeat =
                move |work: &dyn Fn()| timed(|| (0..reps).for_each(|_| work())) / reps as f64;
            let parse = move || {
                black_box(frontend(m, &mut SemanticRegistry::with_builtins()));
            };
            arms.push(Box::new(move || repeat(&parse)));
            let (intent, reg) = (&intent, &reg);
            let select = move || {
                let compiled = Compiler::default().compile_cfg(cfg, "qdma", intent, reg);
                black_box(compiled.expect("selects"));
            };
            arms.push(Box::new(move || repeat(&select)));
        }
        let ns = best_of(rounds, &mut arms);
        drop(arms);
        let rows = LAYOUTS
            .iter()
            .zip(&devices)
            .zip(ns.chunks(2))
            .map(|((&k, m), ns)| {
                let regime = if k <= 8 { "realistic" } else { "stress" };
                vec![
                    ("layouts", Cell::IdNum(k as f64)),
                    ("regime", Cell::id(regime)),
                    ("paths", Cell::Count(k as u64 + 1)),
                    ("contract_bytes", Cell::Count(m.p4_source.len() as u64)),
                    ("frontend_us", Cell::Val(ns[0] / 1e3)),
                    ("select_us", Cell::Val(ns[1] / 1e3)),
                ]
            })
            .collect();
        let mut rec = Record::new(
            "e6_compiler_scalability",
            "us per compile phase",
            0,
            rounds,
            rows,
        );
        // Cost per layout at 2 048 over cost per layout at 128: 1.0 is
        // linear, 16 is quadratic.
        for phase in ["frontend", "select"] {
            let at = |k: usize, regime: &str| {
                rec.metric(&format!("rows[layouts={k},regime={regime}].{phase}_us"))
                    .expect("row")
                    / k as f64
            };
            let growth = at(2048, "stress") / at(128, "stress");
            rec.put(format!("{phase}_per_layout_growth_2048_vs_128"), growth);
        }
        rec
    }
}

/// E7 — ablation of the selection objective (Eq. 1): cost-only,
/// size-only and the combined objective choose a layout per link speed
/// (β follows the link: ns per completion byte), and each choice is
/// priced at what it *realizes* — host poll cost measured through the
/// driver plus that link's modelled completion DMA.
///
/// Host cost is measured once per distinct chosen layout (mlx5: the
/// 64 B CQE and the 8 B mini-CQE), interleaved and warm, and every
/// (link, selector) cell is composed from its layout's host ns and the
/// DMA model's completion-write cost at that link: two selectors that
/// choose one layout run the same code and read the same number. The
/// software prices are calibrated once per run (§5's performance
/// interfaces) and recorded, and each choice is an identity cell, so a
/// run whose calibration moved a selection says so in its row names.
pub mod e7 {
    use super::*;
    use opendesc_core::{Objective, OpenDescDriver, Selector};
    use opendesc_ir::semantics::Cost;
    use opendesc_nicsim::SimNic;
    use std::collections::BTreeMap;

    pub const LINKS: [f64; 4] = [7.9, 1.0, 0.25, 0.05];
    /// Packets per measured round.
    pub const ROUND: usize = 2000;
    pub const SELECTORS: [(&str, Objective); 3] = [
        ("combined", Objective::Combined),
        ("cost_only", Objective::CostOnly),
        ("size_only", Objective::SizeOnly),
    ];

    pub fn measure(rounds: usize) -> Record {
        let mut reg = SemanticRegistry::with_builtins();
        let calibration = opendesc_softnic::calibrate(&mut reg, 2000);
        let intent = intent_of(
            &mut reg,
            "e7",
            &[RSS_HASH, IP_CHECKSUM, L4_CHECKSUM, VLAN_TCI],
        );
        let compile = |beta_ns_per_byte: f64, objective, reg: &mut SemanticRegistry| {
            let selector = Selector {
                beta_ns_per_byte,
                objective,
                ..Selector::default()
            };
            Compiler { selector }
                .compile_model(&models::mlx5(), &intent, reg)
                .expect("e7 intent compiles on mlx5")
        };
        // Who chooses what, and one driver per distinct layout.
        let mut drivers: BTreeMap<u32, OpenDescDriver> = BTreeMap::new();
        let mut choices = Vec::new();
        for bw in LINKS {
            for (name, objective) in SELECTORS {
                let compiled = compile(1.0 / bw, objective, &mut reg);
                let size = compiled.path.size_bytes();
                choices.push((bw, name, size));
                drivers.entry(size).or_insert_with(|| {
                    let nic = SimNic::new(models::mlx5(), ROUND * 2).expect("model valid");
                    OpenDescDriver::attach(nic, compiled).expect("attaches")
                });
            }
        }
        let traffic = Workload {
            payload: (200, 800),
            vlan_fraction: 1.0,
            ..Workload::default()
        };
        let frames = &frames(traffic, ROUND);
        let arms = drivers.values_mut().map(|drv| {
            move || {
                for f in frames {
                    drv.deliver(f).expect("ring holds the round");
                }
                timed(|| drain(|| drv.poll())) / ROUND as f64
            }
        });
        let host = best_of(rounds, &mut arms.collect::<Vec<_>>());
        let host: BTreeMap<u32, f64> = drivers.keys().copied().zip(host).collect();
        // A layout's host ns, and what the DMA model charges a
        // completion of its size on the link (E4 holds the simulated
        // device's `dma.busy_ns` to the same model).
        let realized = |bw: f64, size: u32| {
            let dma_ns = DmaConfig::default().with_bandwidth(bw).write_cost_ns(size);
            (host[&size], dma_ns)
        };
        let rows = choices.iter().map(|&(bw, name, size)| {
            let (host_ns, dma_ns) = realized(bw, size);
            vec![
                ("link_gbps", Cell::IdNum(bw)),
                ("selector", Cell::id(name)),
                ("chosen_bytes", Cell::IdNum(size as f64)),
                ("beta", Cell::Val(1.0 / bw)),
                ("host_ns", Cell::Val(host_ns)),
                ("dma_ns", Cell::Val(dma_ns)),
                ("realized_ns", Cell::Val(host_ns + dma_ns)),
            ]
        });
        let unit = "realized ns/pkt (host + completion DMA)";
        let mut rec = Record::new("e7_objective_ablation", unit, ROUND, rounds, rows.collect());
        let cell = |bw: f64, selector: &str| {
            let chose = |c: &&(f64, &str, u32)| c.0 == bw && c.1 == selector;
            let (host_ns, dma_ns) = realized(bw, choices.iter().find(chose).expect("cell").2);
            host_ns + dma_ns
        };
        for bw in LINKS {
            let best = cell(bw, "cost_only").min(cell(bw, "size_only"));
            let r = cell(bw, "combined") / best;
            rec.put(format!("combined_over_best_ablation_{bw}"), r);
        }
        let slow = cell(0.05, "cost_only") / cell(0.05, "combined");
        rec.put("cost_only_over_combined_0.05", slow);
        let fast = cell(7.9, "size_only") / cell(7.9, "combined");
        rec.put("size_only_over_combined_7.9", fast);
        // Selection cost per objective (one arithmetic expression apart).
        let beta = Selector::default().beta_ns_per_byte;
        let mut arms = SELECTORS.map(|(_, objective)| {
            let (compile, reg) = (&compile, &reg);
            move || timed(|| compile(beta, objective, &mut reg.clone()))
        });
        for ((name, _), ns) in SELECTORS.iter().zip(best_of(rounds, &mut arms)) {
            rec.put(format!("select_us_{name}"), ns / 1e3);
        }
        // The prices this run selected under: w(s) = base + per_byte·len.
        for e in &calibration.entries {
            let Cost::Finite {
                base_ns,
                per_byte_ns,
            } = e.new
            else {
                continue;
            };
            rec.put(format!("calibrated_{}_ns", e.name), base_ns);
            rec.put(format!("calibrated_{}_ns_per_byte", e.name), per_byte_ns);
        }
        rec
    }
}

/// E8 — the column loader the datapath runs (`vm::load_column` over
/// the lowered program's hardware loads) against per-record
/// `Accessor::read`s of the same four fields × four mlx5 completions.
/// Not SIMD: what differs is resolving the load shape once per field
/// instead of once per record. Inputs go through `black_box` in both
/// arms — they are loop constants, and a hoisted load measures nothing.
pub mod e8 {
    use super::*;
    use opendesc_core::{lower, vm};
    use opendesc_softnic::testpkt;
    use std::hint::black_box;

    /// 4 × 4 reads per iteration, this many iterations per round.
    pub const REPS: usize = 10_000;

    pub fn measure(rounds: usize) -> Record {
        let sems = [TIMESTAMP, RSS_HASH, PKT_LEN, VLAN_TCI];
        let (compiled, ctx, ..) = on_mlx5(|reg| intent_of(reg, "e8", &sems));
        assert!(compiled.missing_features().is_empty());
        let traffic: Vec<Vec<u8>> = (0..4u16)
            .map(|i| {
                let (src, dst) = ([10, 0, 0, 1], [10, 0, 0, 2]);
                testpkt::udp4(src, dst, 1000 + i, 2000, b"pkt", Some(0x100 + i))
            })
            .collect();
        let pairs = harvest(&mut mlx5_with(&ctx, 16, &traffic));
        let quad: Vec<&[u8]> = pairs.iter().map(|(_, cmpt)| &cmpt[..]).collect();
        let set = &compiled.accessors;
        let fields = set.accessors.len();
        // One pre-resolved instruction per hardware field, in the
        // artifact's verified program.
        let low = lower(set, &compiled.plan).expect("mlx5 plan lowers");
        let loads = low.prog.hw_insns();
        assert_eq!(loads.len(), fields, "every E8 field is a hardware load");
        let scalar = || {
            let mut acc = 0u128;
            for cmpt in black_box(&quad) {
                for a in black_box(&set.accessors) {
                    acc ^= a.read(cmpt);
                }
            }
            acc
        };
        let column = || {
            let mut acc = 0u128;
            let mut col = [None; 4];
            for insn in black_box(loads) {
                vm::load_column(insn, black_box(&quad), &mut col);
                acc ^= col.iter().fold(0, |x, v| x ^ v.unwrap_or(0));
            }
            acc
        };
        let per_iter =
            |f: &dyn Fn() -> u128| timed(|| (0..REPS).fold(0, |acc, _| acc ^ f())) / REPS as f64;
        let ns = best_of::<&mut dyn FnMut() -> f64>(
            rounds,
            &mut [&mut || per_iter(&scalar), &mut || per_iter(&column)],
        );
        let rows = ["scalar_4x4", "column_4x4"]
            .iter()
            .zip(&ns)
            .map(|(reads, ns)| {
                vec![
                    ("reads", Cell::id(reads)),
                    ("ns_per_iter", Cell::Val(*ns)),
                    ("ns_per_field", Cell::Val(ns / (4 * fields) as f64)),
                ]
            })
            .collect();
        // Both orders must produce identical values.
        let agree = loads.iter().all(|insn| {
            let mut col = [None; 4];
            vm::load_column(insn, &quad, &mut col);
            let field = &set.accessors[insn.dst as usize];
            col.iter()
                .zip(&quad)
                .all(|(v, cmpt)| *v == Some(field.read(cmpt)))
        });
        let mut rec = Record::new(
            "e8_batched_accessors",
            "ns per 4 records x 4 fields",
            REPS,
            rounds,
            rows,
        );
        rec.put("column_vs_scalar", ns[0] / ns[1]);
        rec.put("values_agree", agree as u64 as f64);
        rec
    }
}

/// E9 — host-side `send()` per frame, the TX mirror of E3: with the
/// checksum hints in the descriptor (ice carries both) against the
/// driver checksumming the payload before posting (e1000e: L4 in
/// software), at two payload sizes. The device consumes each round off
/// the clock.
pub mod e9 {
    use super::*;
    use opendesc_core::{compile_tx, Selector, TxDriver, TxRequest};
    use opendesc_nicsim::{NicModel, SimNic};

    /// Frames per measured round; rings hold two.
    pub const ROUND: usize = 128;
    pub const PAYLOADS: [usize; 2] = [64, 1024];

    fn driver(model: &NicModel) -> (SimNic, TxDriver) {
        let mut reg = SemanticRegistry::with_builtins();
        let intent = intent_of(&mut reg, "e9", &[TX_L4_CSUM, TX_IP_CSUM]);
        let parser = model.desc_parser.as_deref().expect("model transmits");
        let (selector, contract) = (Selector::default(), &model.p4_source);
        let compiled = compile_tx(&selector, contract, parser, &model.name, &intent, &mut reg)
            .expect("e9 intent compiles");
        let mut nic = SimNic::new(model.clone(), ROUND * 2).expect("model valid");
        let tx = TxDriver::attach(&mut nic, compiled, reg).expect("attaches");
        (nic, tx)
    }

    /// UDP frames with both checksums zeroed: somebody must fill them.
    fn traffic(payload: usize) -> Vec<Vec<u8>> {
        (0..ROUND)
            .map(|i| {
                let (src, dst, body) = ([10, 0, 0, 1], [10, 0, 0, 2], vec![0xAB; payload]);
                let mut f = opendesc_softnic::testpkt::udp4(src, dst, i as u16 + 1, 9, &body, None);
                for at in [24, 25, 40, 41] {
                    f[at] = 0;
                }
                f
            })
            .collect()
    }

    pub fn measure(rounds: usize) -> Record {
        let cases = [
            ("ice_hw_both", models::ice()),
            ("e1000e_l4_in_sw", models::e1000e()),
        ];
        let req = TxRequest {
            l4_csum: true,
            ip_csum: true,
            vlan: None,
        };
        let mut arms: Vec<Box<dyn FnMut() -> f64>> = Vec::new();
        for payload in PAYLOADS {
            for (_, model) in &cases {
                let (mut nic, mut tx) = driver(model);
                let frames = traffic(payload);
                arms.push(Box::new(move || {
                    let sent = timed(|| {
                        for f in &frames {
                            tx.send(&mut nic, f, req).expect("ring holds the round");
                        }
                    });
                    assert_eq!(nic.process_tx_drain() as usize, ROUND);
                    sent / ROUND as f64
                }));
            }
        }
        let ns = best_of(rounds, &mut arms);
        let labels = PAYLOADS
            .iter()
            .flat_map(|p| cases.iter().map(move |(path, _)| (p, path)));
        let rows = labels
            .zip(&ns)
            .map(|((payload, path), ns)| {
                vec![
                    ("payload", Cell::IdNum(*payload as f64)),
                    ("path", Cell::id(path)),
                    ("send_ns_per_frame", Cell::Val(*ns)),
                ]
            })
            .collect();
        let mut rec = Record::new("e9_tx_offload", "ns per send()", ROUND, rounds, rows);
        let at = |payload: usize, path: &str| {
            format!("rows[payload={payload},path={path}].send_ns_per_frame")
        };
        let hw = rec.ratio(&at(1024, "ice_hw_both"), &at(64, "ice_hw_both"));
        let sw = rec.ratio(&at(1024, "e1000e_l4_in_sw"), &at(64, "e1000e_l4_in_sw"));
        rec.put("hw_growth_1024_vs_64", hw);
        rec.put("sw_growth_1024_vs_64", sw);
        rec.put("sw_growth_over_hw_growth", sw / hw);
        let r = rec.ratio(&at(64, "e1000e_l4_in_sw"), &at(64, "ice_hw_both"));
        rec.put("sw_over_hw_64", r);
        rec
    }
}

/// What E10 and E11 consume: an `{rss_hash, pkt_len}` intent compiled on
/// mlx5 (its context), `n` (frame, completion) pairs of `wl` harvested
/// from the simulator, the pairs packed into 9 KB ASNI jumbos, and the
/// hardware accessor for the hash.
struct Styles {
    ctx: Assignment,
    traffic: Vec<Vec<u8>>,
    pairs: Vec<(Vec<u8>, Vec<u8>)>,
    jumbos: Vec<opendesc_nicsim::aggregate::AsniFrame>,
    rss: opendesc_core::Accessor,
}

fn styles(wl: Workload, n: usize) -> Styles {
    let (compiled, ctx, _, reg) = on_mlx5(|reg| intent_of(reg, "styles", &[RSS_HASH, PKT_LEN]));
    let traffic = frames(wl, n);
    let pairs = harvest(&mut mlx5_with(&ctx, n * 2, &traffic));
    let mut agg = opendesc_nicsim::aggregate::AsniAggregator::new(9000);
    let packed = pairs.iter().filter_map(|(f, cmpt)| agg.push(cmpt, f));
    let mut jumbos: Vec<_> = packed.collect();
    jumbos.extend(agg.flush());
    let rss = reg.id(RSS_HASH).expect("builtin");
    let rss = compiled.accessors.for_semantic(rss).expect("requested");
    Styles {
        ctx,
        traffic,
        pairs,
        jumbos,
        rss: rss.clone(),
    }
}

/// E10 — ASNI-style aggregation: modelled DMA time of individual
/// (completion, frame) writes against one batched write per 9 KB jumbo
/// across link speeds, and the host cost of consuming a ring against
/// iterating jumbos (accessor read per entry in both).
pub mod e10 {
    use super::*;
    use opendesc_nicsim::aggregate::{dma_cost_comparison, AsniIter};

    /// Packets per measured round.
    pub const ROUND: usize = 256;

    pub fn measure(rounds: usize) -> Record {
        // 1 000 packets: 8 B completion + 60 B frame each.
        let model = LINKS.map(|bw| {
            dma_cost_comparison(&DmaConfig::default().with_bandwidth(bw), 1000, 8, 60, 9000)
        });
        let rows = LINKS
            .iter()
            .zip(model)
            .map(|(&bw, (individual, aggregated))| {
                vec![
                    ("link_gbps", Cell::IdNum(bw)),
                    ("individual_ns", Cell::Val(individual)),
                    ("aggregated_ns", Cell::Val(aggregated)),
                    ("dma_ratio", Cell::Val(individual / aggregated)),
                ]
            })
            .collect();
        let fx = styles(Workload::min_size(64), ROUND);
        let mut nic = mlx5_with(&fx.ctx, ROUND * 2, &[]);
        let mut ring = || {
            fill(&mut nic, &fx.traffic);
            let read = || {
                std::iter::from_fn(|| nic.receive()).fold(0, |acc, (_, cm)| acc ^ fx.rss.read(&cm))
            };
            timed(read) / ROUND as f64
        };
        let jumbo = || {
            let entries = fx.jumbos.iter().flat_map(|j| AsniIter::new(&j.bytes));
            entries.fold(0, |acc, (cm, _)| acc ^ fx.rss.read(cm))
        };
        let ns = best_of::<&mut dyn FnMut() -> f64>(
            rounds,
            &mut [&mut ring, &mut || timed(jumbo) / ROUND as f64],
        );
        let mut rec = Record::new(
            "e10_asni_aggregation",
            "ns DMA per 1000 pkts (model)",
            ROUND,
            rounds,
            rows,
        );
        rec.put(
            "model_ratios_monotone",
            monotone(&model.map(|(ind, agg)| ind / agg)),
        );
        rec.put("jumbos", fx.jumbos.len() as f64);
        rec.put("ring_consume_ns_per_pkt", ns[0]);
        rec.put("jumbo_consume_ns_per_pkt", ns[1]);
        rec.put("ring_vs_jumbo_consume", ns[0] / ns[1]);
        rec
    }
}

/// E11 — descriptor ring vs ENSO-style stream vs ASNI jumbo: modelled
/// DMA on the wire, and host consumption under two application needs —
/// raw payload processing, and an RSS hash per packet, which the stream
/// must recompute while the descriptor paths read 4 bytes.
pub mod e11 {
    use super::*;
    use opendesc_nicsim::aggregate::AsniIter;
    use opendesc_nicsim::stream::StreamQueue;
    use opendesc_nicsim::DmaMeter;
    use opendesc_softnic::SoftNic;

    /// Packets per measured round.
    pub const ROUND: usize = 256;

    /// The "raw payload processing" app: fold every byte.
    fn touch(frame: &[u8]) -> u64 {
        frame.iter().fold(0u64, |a, b| a.rotate_left(7) ^ *b as u64)
    }

    /// Modelled DMA ns for 1 000 packets written `per_write` at a time,
    /// `bytes` each.
    fn coalesced(cfg: &DmaConfig, per_write: u32, bytes: u32) -> f64 {
        let mut meter = DmaMeter::default();
        let mut left = 1000u32;
        while left > 0 {
            let batch = left.min(per_write);
            meter.record(cfg, batch * bytes);
            left -= batch;
        }
        meter.busy_ns
    }

    pub fn measure(rounds: usize) -> Record {
        // Wire side: 60 B frames, 8 B completions; the stream coalesces
        // into 4 KB writes, ASNI into 9 KB jumbos of 4 B-framed entries.
        let mut wins = Vec::new();
        let rows = LINKS[..3]
            .iter()
            .map(|&bw| {
                let cfg = DmaConfig::default().with_bandwidth(bw);
                let descriptor = coalesced(&cfg, 1, 8) + coalesced(&cfg, 1, 60);
                let stream = coalesced(&cfg, 4096 / 62, 62);
                let asni = coalesced(&cfg, 9000 / 72, 72);
                wins.push(descriptor / stream);
                vec![
                    ("link_gbps", Cell::IdNum(bw)),
                    ("descriptor_ns", Cell::Val(descriptor)),
                    ("stream_ns", Cell::Val(stream)),
                    ("asni_ns", Cell::Val(asni)),
                    ("stream_win", Cell::Val(descriptor / stream)),
                ]
            })
            .collect();
        let wl = Workload {
            flows: 64,
            payload: (64, 512),
            ..Workload::default()
        };
        let fx = styles(wl, ROUND);
        let mut stream_src = StreamQueue::new(1 << 20);
        for (f, _) in &fx.pairs {
            assert!(stream_src.append(f));
        }
        let jumbo = || fx.jumbos.iter().flat_map(|j| AsniIter::new(&j.bytes));
        // The stream is consumed destructively: each round drains a
        // clone made off the clock.
        let stream = |work: &mut dyn FnMut(&[u8]) -> u64| {
            let mut s = stream_src.clone();
            timed(|| {
                let mut acc = 0;
                while let Some(f) = s.next() {
                    acc ^= work(f);
                }
                acc
            })
        };
        let mut soft = SoftNic::new();
        let mut arms: [&mut dyn FnMut() -> f64; 6] = [
            &mut || timed(|| fx.pairs.iter().fold(0, |acc, (f, _)| acc ^ touch(f))),
            &mut || stream(&mut |f| touch(f)),
            &mut || timed(|| jumbo().fold(0, |acc, (_, f)| acc ^ touch(f))),
            &mut || {
                timed(|| {
                    fx.pairs
                        .iter()
                        .fold(0, |acc, (_, cm)| acc ^ fx.rss.read(cm))
                })
            },
            // The stream carries no metadata: full software
            // recomputation per packet.
            &mut || stream(&mut |f| soft.compute_by_name(RSS_HASH, f).unwrap_or(0)),
            &mut || timed(|| jumbo().fold(0, |acc, (cm, _)| acc ^ fx.rss.read(cm))),
        ];
        let ns = best_of(rounds, &mut arms);
        let mut rec = Record::new(
            "e11_interface_styles",
            "ns DMA per 1000 pkts (model)",
            ROUND,
            rounds,
            rows,
        );
        rec.put("model_ratios_monotone", monotone(&wins));
        let cells = ["raw_payload", "needs_rss_hash"]
            .iter()
            .flat_map(|app| ["ring", "stream", "jumbo"].map(|style| (app, style)));
        for ((app, style), ns) in cells.zip(&ns) {
            rec.put(format!("{app}_{style}_ns_per_pkt"), ns / ROUND as f64);
        }
        rec.put("raw_payload_stream_vs_ring", ns[1] / ns[0]);
        rec.put("hash_collapse_stream_vs_ring", ns[4] / ns[3]);
        rec
    }
}
