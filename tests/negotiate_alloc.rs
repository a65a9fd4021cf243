//! Allocations per negotiation are pinned.
//!
//! A negotiation is control-plane work — parse the contract, enumerate,
//! solve Eq. 1, synthesize, lower, render — and on this code base its
//! cost tracks its allocation count (~250 cycles each). A counting
//! global allocator wraps `System` and holds, per catalog model:
//!
//! * one cold negotiation through a fresh [`PlanCache`] (the frozen
//!   benchmark's sequence) to a committed ceiling, 5 % above its reading;
//! * a second, different intent on the same cache to at least one
//!   `parse_and_check` fewer allocations than that intent compiled cold
//!   (the relayout case: the contract is checked once per cache);
//! * an N-queue [`ShardedEngine`] to one front-end run, not N + 2;
//! * one `parse_and_check` of its contract to a committed ceiling, the
//!   same way: the lexer interns, tokens are copied, and annotations
//!   live in two arenas sized before the parse;
//! * one `CompiledRx::new` (lower + verify) of its bench7 interface to a
//!   committed ceiling, the same way: the plan's windows are assembled
//!   by one assembler, each into a vector of exactly its length;
//! * the registry of builtins — a static table — to one allocation to
//!   build and one to clone, to the fingerprint committed manifests
//!   carry, read without allocating, and to ids that re-costing keeps
//!   and new names extend;
//! * names below the front end to being shared: cloning a catalog
//!   [`CompletionPath`] allocates its vectors and its semantic set, never
//!   a slot name, source or context field, and cloning the context its
//!   guard solves to allocates the assignment's one node.
//!
//! The counter is process-global, so this file runs exactly one test;
//! `stage_table` (ignored) prints the per-stage counts CHANGES.md quotes:
//! `cargo test --release --test negotiate_alloc -- --ignored --nocapture`.

use opendesc::compiler::{
    compile_tx, CompiledRx, CompiledTxPlan, Compiler, Intent, PlanCache, Selector, ShardedEngine,
    TxVerdict,
};
use opendesc::ir::{
    enumerate_paths, extract, names, CompletionPath, Cond, Cost, SemanticId, SemanticInfo,
    SemanticRegistry, DEFAULT_MAX_PATHS,
};
use opendesc::nicsim::multiqueue::SteerPolicy;
use opendesc::nicsim::{models, NicModel};
use opendesc::p4::parse_and_check;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards to `System` with the caller's layout
// unchanged; the counter is a statistic that publishes no data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(l)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(p, l, new)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

/// Allocation events of `f`, and its result (dropped by the caller, off
/// the count).
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

/// The frozen benchmark's RX intent.
const BENCH7: [&str; 7] = [
    names::RSS_HASH,
    names::VLAN_TCI,
    names::PKT_LEN,
    names::PACKET_TYPE,
    names::PAYLOAD_OFFSET,
    names::KVS_KEY_HASH,
    names::IP_CHECKSUM,
];

fn bench7(reg: &mut SemanticRegistry) -> Intent {
    BENCH7
        .iter()
        .fold(Intent::builder("bench7"), |b, s| b.want(reg, s))
        .build()
}

fn tx_intent(reg: &mut SemanticRegistry) -> Intent {
    Intent::builder("tx_ip_csum_offload")
        .want(reg, names::TX_IP_CSUM)
        .build()
}

/// The relayout target: a different intent for the same model.
fn relayout_intent(reg: &mut SemanticRegistry) -> Intent {
    Intent::builder("relayout")
        .want(reg, names::PKT_LEN)
        .want(reg, names::VLAN_TCI)
        .build()
}

/// `benchmark/src/negotiate.rs::negotiate`, statement for statement.
fn negotiate(cache: &PlanCache, model: &NicModel) -> usize {
    let mut reg = SemanticRegistry::with_builtins();
    let rx_intent = bench7(&mut reg);
    let rx = cache.get_or_compile(model, &rx_intent, &mut reg).unwrap();
    let tx = model.desc_parser.as_ref().map(|_| {
        let intent = tx_intent(&mut reg);
        cache.get_or_compile_tx(model, &intent, &mut reg).unwrap()
    });
    let manifest = rx.manifest();
    std::hint::black_box((rx, tx));
    manifest.len()
}

/// The vectors cloning `c` allocates: one per non-empty `And`/`Or` and
/// one per `Not`'s box.
fn cond_vecs(c: &Cond) -> u64 {
    match c {
        Cond::And(cs) | Cond::Or(cs) => {
            u64::from(!cs.is_empty()) + cs.iter().map(cond_vecs).sum::<u64>()
        }
        Cond::Not(inner) => 1 + cond_vecs(inner),
        _ => 0,
    }
}

/// What cloning `p` may allocate: its non-empty vectors, the guard's
/// inner vectors, and the nodes of its semantic set.
fn path_clone_allocs(p: &CompletionPath) -> u64 {
    let vecs = [p.guard.len(), p.emits.len(), p.slots.len()];
    let (_, prov) = counted(|| p.prov.clone());
    vecs.iter().filter(|n| **n > 0).count() as u64
        + p.guard.iter().map(cond_vecs).sum::<u64>()
        + prov
}

/// Committed ceilings: 5 % above the reading of one cold negotiation,
/// of the `parse_and_check` inside it, and of its `CompiledRx::new`
/// (lower + verify: one assembler per plan, one exact-size vector per
/// window).
const CEILINGS: [(&str, u64, u64, u64); 6] = [
    ("e1000-legacy", 162, 40, 17),
    ("e1000e", 214, 51, 17),
    ("ixgbe", 180, 38, 27),
    ("ice", 273, 58, 20),
    ("mlx5", 234, 49, 30),
    ("qdma", 349, 72, 30),
];

/// `reading` is at most `ceiling`, and within 5 % of it.
fn pinned(what: &str, reading: u64, ceiling: u64) {
    assert!(
        reading <= ceiling,
        "{what} allocates {reading} times, ceiling {ceiling}"
    );
    assert!(
        reading * 105 / 100 + 1 >= ceiling,
        "{what}: {reading} allocations, but the ceiling is still {ceiling}: lower it"
    );
}

/// `SemanticRegistry::with_builtins().fingerprint()`: the
/// `registry_fingerprint` of every manifest under `manifests/`.
const BUILTINS_FINGERPRINT: u64 = 0x61d9_e776_f3cf_6de1;

#[test]
fn negotiation_allocations_are_pinned() {
    // The registry of builtins borrows its names and docs from a static
    // table: building or cloning one is a single allocation.
    let (builtins, built) = counted(SemanticRegistry::with_builtins);
    let (copy, cloned) = counted(|| builtins.clone());
    assert!(built <= 1, "with_builtins allocates {built} times");
    assert!(cloned <= 1, "clone allocates {cloned} times");
    let (fingerprint, read) = counted(|| builtins.fingerprint());
    assert_eq!(read, 0, "fingerprint() allocates {read} times");
    assert_eq!(fingerprint, BUILTINS_FINGERPRINT);
    assert_eq!(copy.fingerprint(), BUILTINS_FINGERPRINT);
    // Re-costing a builtin keeps its id and the fingerprint; a new name
    // takes the next id and is priced infinite.
    let mut reg = copy;
    let rss = reg.id(names::RSS_HASH).unwrap();
    let recosted = SemanticInfo {
        cost: Cost::flat(6.0),
        ..reg.info(rss).clone()
    };
    assert_eq!(reg.register(recosted), rss);
    assert_eq!(reg.cost(rss), Cost::flat(6.0));
    assert_eq!(reg.fingerprint(), BUILTINS_FINGERPRINT);
    let new = reg.intern("new");
    assert_eq!(new, SemanticId(20));
    assert!(reg.cost(new).is_infinite());
    let (_, read) = counted(|| reg.fingerprint());
    assert_eq!(read, 0, "an owned registry's fingerprint() allocates");

    for model in models::catalog() {
        let &(_, ceiling, front_ceiling, lower_ceiling) = CEILINGS
            .iter()
            .find(|(n, ..)| *n == model.name)
            .unwrap_or_else(|| panic!("{}: no committed ceiling", model.name));
        let (_, cold) = counted(|| negotiate(&PlanCache::default(), &model));
        let (_, again) = counted(|| negotiate(&PlanCache::default(), &model));
        assert_eq!(cold, again, "{}: the count must repeat exactly", model.name);
        pinned(
            &format!("{}: a cold negotiation", model.name),
            cold,
            ceiling,
        );
        let (_, front_end) = counted(|| parse_and_check(&model.p4_source));
        pinned(
            &format!("{}: parse_and_check", model.name),
            front_end,
            front_ceiling,
        );

        let mut reg = SemanticRegistry::with_builtins();
        let first = bench7(&mut reg);
        let iface = Compiler::default()
            .compile_model(&model, &first, &mut reg)
            .unwrap();
        let (rx, lowering) = counted(|| CompiledRx::new(iface));
        assert!(rx.lowering_error().is_none(), "{}", model.name);
        pinned(
            &format!("{}: CompiledRx::new", model.name),
            lowering,
            lower_ceiling,
        );

        // Relayout: a second intent on a cache that already checked the
        // contract saves at least the whole front end.
        let second = relayout_intent(&mut reg);
        let (_, cold_second) = counted(|| {
            PlanCache::default()
                .get_or_compile(&model, &second, &mut reg)
                .unwrap()
        });
        let cache = PlanCache::default();
        cache.get_or_compile(&model, &first, &mut reg).unwrap();
        let (_, warm_second) = counted(|| cache.get_or_compile(&model, &second, &mut reg).unwrap());
        assert!(
            warm_second + front_end <= cold_second,
            "{}: relayout compile {warm_second}, cold {cold_second}, front end {front_end}",
            model.name
        );
        assert_eq!(cache.contract_stats(), (1, 1), "{}", model.name);

        // Names are shared below the front end: a path's clone and its
        // context's clone copy no name.
        let (checked, _) = parse_and_check(&model.p4_source);
        let cfg = extract(&checked, &model.deparser, &mut reg).unwrap();
        for p in enumerate_paths(&cfg, DEFAULT_MAX_PATHS).unwrap() {
            let (_, cloned) = counted(|| p.clone());
            assert_eq!(
                cloned,
                path_clone_allocs(&p),
                "{} path {}: a clone copies a name",
                model.name,
                p.id
            );
            let ctx = p.solve_context().unwrap();
            let (_, cloned) = counted(|| ctx.clone());
            assert_eq!(
                cloned,
                u64::from(!ctx.is_empty()),
                "{} path {}: cloning its context allocates more than one node",
                model.name,
                p.id
            );
        }
    }

    // Four full-duplex queues boot from one checked contract: one miss
    // for the RX plan, hits for the TX plan and every device boot.
    let model = models::ice();
    let cache = PlanCache::default();
    let mut reg = SemanticRegistry::with_builtins();
    let rx = bench7(&mut reg);
    let tx = tx_intent(&mut reg);
    let engine = ShardedEngine::new_uniform(
        &cache,
        &model,
        &rx,
        &tx,
        &mut reg,
        4,
        64,
        SteerPolicy::Rss,
        16,
        2048,
        Arc::new(|_, _, _| TxVerdict::Drop),
    )
    .unwrap();
    assert_eq!(engine.queues(), 4);
    assert_eq!(
        cache.contract_stats().1,
        1,
        "one front-end run for 4 queues"
    );
}

#[test]
#[ignore = "prints the per-stage allocation table; run alone"]
fn stage_table() {
    println!(
        "{:<13} {:>6} {:>14} {:>7} {:>6} {:>6} {:>6} {:>6} {:>8} | {:>6}",
        "model",
        "intent",
        "lex+parse+chk",
        "extract",
        "enum",
        "select",
        "lower",
        "tx",
        "manifest",
        "cached"
    );
    for model in models::catalog() {
        let ((mut reg, rx_intent), intent) = counted(|| {
            let mut reg = SemanticRegistry::with_builtins();
            let i = bench7(&mut reg);
            (reg, i)
        });
        let ((checked, _), parse) = counted(|| parse_and_check(&model.p4_source));
        let (_, lex) = counted(|| opendesc::p4::lexer::lex(&model.p4_source));
        let ((program, _), lex_parse) = counted(|| opendesc::p4::parser::parse(&model.p4_source));
        let (_, check) = counted(|| opendesc::p4::typecheck::check(program));
        let front = format!("{parse}={lex}+{}+{check}", lex_parse - lex);
        let (cfg, ext) = counted(|| extract(&checked, &model.deparser, &mut reg).unwrap());
        let (paths, enumerate) = counted(|| enumerate_paths(&cfg, DEFAULT_MAX_PATHS).unwrap());
        let (iface, select) = counted(|| {
            Compiler::default()
                .compile_paths(&paths, &model.name, &rx_intent, &reg)
                .unwrap()
        });
        let (rx, lower) = counted(|| CompiledRx::new(iface));
        let (_, tx) = counted(|| {
            model.desc_parser.as_deref().map(|parser| {
                let intent = tx_intent(&mut reg);
                let tx = compile_tx(
                    &Selector::default(),
                    &model.p4_source,
                    parser,
                    &model.name,
                    &intent,
                    &mut reg,
                )
                .unwrap();
                CompiledTxPlan::new(tx, &reg)
            })
        });
        let (_, manifest) = counted(|| rx.manifest());
        let (_, cached) = counted(|| negotiate(&PlanCache::default(), &model));
        println!(
            "{:<13} {intent:>6} {front:>14} {ext:>7} {enumerate:>6} {select:>6} {lower:>6} {tx:>6} {manifest:>8} | {cached:>6}",
            model.name
        );
    }
}
