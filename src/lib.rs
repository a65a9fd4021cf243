//! # OpenDesc — from static NIC descriptors to evolvable metadata interfaces
//!
//! A Rust implementation of the OpenDesc system (Lahmer, Tyunyayev,
//! Barbette — HotNets '25): NICs describe their descriptor/completion
//! semantics in a P4 dialect, applications declare an *intent* (the
//! metadata they want with each packet), and a compiler aligns the two —
//! selecting the best completion layout the NIC supports, programming the
//! device context, and generating constant-time host accessors plus
//! software fallbacks for everything else.
//!
//! This crate is the facade: it re-exports the product crates. The
//! oracles the product is held equal to live in `opendesc-reference`,
//! a dev-dependency the facade does not re-export.
//!
//! There is one RX path. §4's DPDK item, a hook on the descriptor much
//! like XDP, runs on it: `OpenDescDriver::poll_batch_into` admits each
//! completion and delivers the negotiated fields as `RxBatch` columns,
//! and a `ForwardFn` on the sharded engine drops on device metadata
//! (`TxVerdict::Drop`) without reading frame bytes
//! (`examples/xdp_firewall.rs`).
//!
//! | Crate | Role |
//! |---|---|
//! | [`p4`] | P4-16 subset frontend (lexer, parser, type checker) |
//! | [`ir`] | semantics Σ, deparser CFG, completion paths, TX descriptor layouts |
//! | [`softnic`] | reference software implementations of every semantic |
//! | [`nicsim`] | simulated NICs executing contracts, rings, DMA model |
//! | [`ebpf`] | eBPF ISA, assembler, verifier, VM (XDP-style hook) |
//! | [`compiler`] | intent → layout selection (Eq. 1) → host stubs |
//! | [`telemetry`] | metric registry, histograms, per-queue trace rings |
//!
//! ## Quickstart
//!
//! ```
//! use opendesc::compiler::{Compiler, Intent};
//! use opendesc::ir::{names, SemanticRegistry};
//! use opendesc::nicsim::models;
//! use opendesc::compiler::OpenDescDriver;
//! use opendesc::nicsim::SimNic;
//! use opendesc::softnic::testpkt;
//!
//! // 1. Declare what the application wants (paper Fig. 5).
//! let mut reg = SemanticRegistry::with_builtins();
//! let intent = Intent::builder("app")
//!     .want(&mut reg, names::RSS_HASH)
//!     .want(&mut reg, names::VLAN_TCI)
//!     .build();
//!
//! // 2. Compile against a NIC's interface contract.
//! let model = models::mlx5();
//! let compiled = Compiler::default().compile_model(&model, &intent, &mut reg).unwrap();
//!
//! // 3. Attach the generated datapath and receive.
//! let mut drv = OpenDescDriver::attach(SimNic::new(model, 64).unwrap(), compiled).unwrap();
//! let frame = testpkt::udp4([10,0,0,1], [10,0,0,2], 1000, 2000, b"hi", Some(0x0042));
//! drv.deliver(&frame).unwrap();
//! let pkt = drv.poll().unwrap();
//! assert_eq!(pkt.get(reg.id(names::VLAN_TCI).unwrap()), Some(0x0042));
//! ```

pub use opendesc_core as compiler;
pub use opendesc_ebpf as ebpf;
pub use opendesc_ir as ir;
pub use opendesc_nicsim as nicsim;
pub use opendesc_p4 as p4;
pub use opendesc_softnic as softnic;
pub use opendesc_telemetry as telemetry;

/// Convenience prelude with the most-used types.
pub mod prelude {
    pub use opendesc_core::{
        CompiledInterface, Compiler, Control, FlipProgress, Intent, Objective, OpenDescDriver,
        PlanCache, RelayoutRequest, RxPacket, Selector, ShardedEngine, TxBatch, TxDriver, TxQueue,
        TxRequest, TxVerdict, FLIP_POLL_BUDGET,
    };
    pub use opendesc_ir::{names, Cost, SemanticId, SemanticRegistry};
    pub use opendesc_nicsim::{models, DmaConfig, PktGen, SimNic, Workload};
    pub use opendesc_softnic::SoftNic;
}
