//! Compile once, run everywhere: shareable compiled artifacts and the
//! keyed plan cache.
//!
//! The compiler's output is immutable after compilation — the accessor
//! table, the lowered [`RxPlan`](crate::plan::RxPlan), the selected path
//! and context are all read-only on the datapath. [`CompiledRx`] makes
//! that explicit: an `Arc`-held artifact that N queues share instead of
//! holding N copies, and that worker threads can hold concurrently
//! (`Send + Sync` is asserted at compile time below).
//!
//! [`PlanCache`] keys artifacts by what determines them — `(model,
//! registry, intent)` — so N queues with the same intent trigger one
//! compilation, while queues with *different* intents (the paper's §3
//! "multiple OpenDesc instances with different intents to obtain
//! different queues" scenario) each get their own artifact. Identical
//! requests return pointer-equal `Arc`s.
//!
//! The cache also owns the *checked contract* of every model it has
//! compiled for, for as long as it holds a plan of that model: the
//! front end runs once per contract per cache, and the RX compile, the
//! TX compile, a relayout to a newly negotiated intent and every device
//! queue an engine boots all map from that one
//! [`CheckedProgram`] ([`PlanCache::contract`]).

use crate::codegen::manifest::ManifestV1;
use crate::compiler::{check_contract, CompileError, CompiledInterface, Compiler};
use crate::intent::Intent;
use crate::lower::{lower, LowerError, LoweredPlan};
use crate::robust::ValidatorSpec;
use crate::tx::{compile_tx_checked, CompiledTxPlan};
use crate::vm::PlanProgram;
use opendesc_ir::SemanticRegistry;
use opendesc_nicsim::models::NicModel;
use opendesc_nicsim::nic::NicError;
use opendesc_p4::typecheck::CheckedProgram;
use std::collections::HashMap;
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, Mutex};

/// An immutable, thread-shareable compiled RX interface.
///
/// Wraps [`CompiledInterface`] and hides `&mut` access; `Deref` keeps
/// every `iface.accessors` / `iface.plan` call site working unchanged.
#[derive(Debug)]
pub struct CompiledRx {
    iface: CompiledInterface,
    /// Layout-derived completion validator, computed once here so N
    /// queues sharing the artifact share one spec.
    validator: ValidatorSpec,
    /// The plan's bytecode + verified-eBPF form, lowered once here. An
    /// `Err` records why the plan has no executable form: nothing else
    /// may run it, so the cache never serves such an artifact and
    /// `OpenDescDriver::attach`/`request_relayout` refuse it.
    lowered: Result<LoweredPlan, LowerError>,
}

impl CompiledRx {
    pub fn new(iface: CompiledInterface) -> Self {
        let validator = ValidatorSpec::derive(&iface.accessors, &iface.reg);
        let lowered = lower(&iface.accessors, &iface.plan);
        CompiledRx {
            iface,
            validator,
            lowered,
        }
    }

    /// The wrapped interface (also reachable through `Deref`).
    pub fn interface(&self) -> &CompiledInterface {
        &self.iface
    }

    /// The layout-derived completion validator spec.
    pub fn validator(&self) -> &ValidatorSpec {
        &self.validator
    }

    /// The verifier-accepted bytecode form, when lowering succeeded.
    pub fn lowered(&self) -> Option<&LoweredPlan> {
        self.lowered.as_ref().ok()
    }

    /// Why lowering failed, when it did.
    pub fn lowering_error(&self) -> Option<&LowerError> {
        self.lowered.as_ref().err()
    }

    /// Generated driver manifest (JSON): context writes, accessor table,
    /// shim list and the digests of this artifact's own executable
    /// forms — for drivers that consume configuration, not code.
    pub fn manifest(&self) -> String {
        ManifestV1::from_compiled(self).render()
    }

    /// The verified bytecode the datapath executes.
    ///
    /// # Panics
    /// On an artifact whose [`lowering_error`](CompiledRx::lowering_error)
    /// is `Some`. Attach and relayout refuse those, so a driver can only
    /// hold one if its public `iface` field was overwritten from outside.
    pub(crate) fn program(&self) -> &PlanProgram {
        match &self.lowered {
            Ok(l) => &l.prog,
            Err(e) => panic!("driver holds an artifact attach would have refused: {e}"),
        }
    }
}

impl Deref for CompiledRx {
    type Target = CompiledInterface;
    fn deref(&self) -> &CompiledInterface {
        &self.iface
    }
}

impl From<CompiledInterface> for CompiledRx {
    fn from(iface: CompiledInterface) -> Self {
        CompiledRx::new(iface)
    }
}

/// Why [`OpenDescDriver::attach`](crate::datapath::OpenDescDriver::attach)
/// refused an artifact.
#[derive(Debug, Clone, PartialEq)]
pub enum AttachError {
    /// The device rejected the artifact's context.
    Nic(NicError),
    /// The plan has no verifier-accepted bytecode form, and the driver
    /// executes nothing else.
    Unlowerable(LowerError),
}

impl fmt::Display for AttachError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttachError::Nic(e) => write!(f, "nic: {e}"),
            AttachError::Unlowerable(e) => write!(f, "plan has no verified program: {e}"),
        }
    }
}

impl std::error::Error for AttachError {}

impl From<NicError> for AttachError {
    fn from(e: NicError) -> Self {
        AttachError::Nic(e)
    }
}

// The whole point of `CompiledRx` is cross-thread sharing; break the
// build if a future field introduces interior mutability.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CompiledRx>();
    assert_send_sync::<CompiledTxPlan>();
    assert_send_sync::<CheckedProgram>();
    assert_send_sync::<PlanCache>();
};

/// Cache key: everything that determines a compilation's output.
///
/// An intent's meaning depends on *which registry* interned its
/// semantic ids — the same name can map to different ids (or widths) in
/// different registries. Keying on semantic-name strings alone therefore
/// aliases across registries and can hand a worker a plan compiled for
/// the wrong id assignment. The key instead binds the registry's
/// [`fingerprint`](SemanticRegistry::fingerprint) together with a hash
/// of the intent's `(id, field name, width)` rows.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PlanKey {
    model: String,
    deparser: String,
    /// Fingerprint of the registry's id ↔ (name, width) assignment.
    reg_fingerprint: u64,
    /// FNV-1a over the intent name and its `(id, name, width)` fields.
    intent_hash: u64,
}

impl PlanKey {
    fn new(model: &NicModel, intent: &Intent, reg: &SemanticRegistry) -> PlanKey {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut byte = |b: u8| {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for b in intent.name.as_bytes() {
            byte(*b);
        }
        byte(0xFF);
        for f in &intent.fields {
            for b in f.semantic.0.to_le_bytes() {
                byte(b);
            }
            for b in f.name.as_bytes() {
                byte(*b);
            }
            for b in f.width_bits.to_le_bytes() {
                byte(b);
            }
            byte(0xFF);
        }
        PlanKey {
            model: model.name.clone(),
            deparser: model.deparser.clone(),
            reg_fingerprint: reg.fingerprint(),
            intent_hash: h,
        }
    }
}

/// A cached artifact tagged with the cache epoch of the last request
/// that returned it. Entries whose epoch falls behind the current one
/// are *superseded* — a relayout has moved every consumer to a newer
/// plan — and become evictable once their external refcount drops to
/// zero (only the cache's own `Arc` remains).
#[derive(Debug)]
struct Versioned<T> {
    plan: Arc<T>,
    epoch: u64,
}

/// A checked contract and the source it was checked from. The source
/// is what a lookup compares: a name alone never hits.
#[derive(Debug)]
struct Contract {
    source: String,
    checked: Arc<CheckedProgram>,
}

#[derive(Debug, Default)]
struct CacheInner {
    /// Checked contracts by model name: at most one per name, replaced
    /// when a model of that name arrives with different source, dropped
    /// by `evict_superseded` with the model's last plan.
    contracts: HashMap<String, Contract>,
    contract_hits: u64,
    contract_misses: u64,
    map: HashMap<PlanKey, Versioned<CompiledRx>>,
    hits: u64,
    misses: u64,
    /// TX plans live in their own map with their own counters, so the
    /// RX `stats()`/`len()` numbers existing callers assert on never
    /// shift when a full-duplex engine also compiles TX.
    tx_map: HashMap<PlanKey, Versioned<CompiledTxPlan>>,
    tx_hits: u64,
    tx_misses: u64,
    /// Current plan epoch. 0 until the first
    /// [`begin_generation`](PlanCache::begin_generation); a cache that
    /// never relayouts never evicts, so pre-evolution callers see the
    /// exact historical behavior.
    epoch: u64,
}

/// Keyed plan cache: `(model, registry, intent) → Arc<CompiledRx>`.
///
/// The lock guards only the map — setup-time state. Queues take their
/// `Arc` once at attach and the per-packet path never touches the cache.
#[derive(Debug, Default)]
pub struct PlanCache {
    compiler: Compiler,
    inner: Mutex<CacheInner>,
}

impl PlanCache {
    pub fn new(compiler: Compiler) -> Self {
        PlanCache {
            compiler,
            inner: Mutex::new(CacheInner::default()),
        }
    }

    /// Compiled artifact for `(model, intent)`, compiling at most once:
    /// repeated calls with an identical request return pointer-equal
    /// `Arc`s (`Arc::ptr_eq` holds).
    pub fn get_or_compile(
        &self,
        model: &NicModel,
        intent: &Intent,
        reg: &mut SemanticRegistry,
    ) -> Result<Arc<CompiledRx>, CompileError> {
        let key = PlanKey::new(model, intent, reg);
        {
            let mut inner = self.inner.lock().unwrap();
            let epoch = inner.epoch;
            if let Some(hit) = inner.map.get_mut(&key) {
                // A hit re-adopts the entry into the current epoch: a
                // plan still being requested is not superseded.
                hit.epoch = epoch;
                let hit = Arc::clone(&hit.plan);
                inner.hits += 1;
                return Ok(hit);
            }
        }
        // Compile outside the lock: compilation is the slow part, and
        // racing compilers at setup are harmless (last insert wins the
        // map; both callers get a valid artifact — callers needing
        // pointer equality call sequentially, as the engine setup does).
        let checked = self.contract(model)?;
        let iface =
            self.compiler
                .compile_checked(&checked, &model.deparser, &model.name, intent, reg)?;
        let rx = Arc::new(CompiledRx::new(iface));
        // The cache only serves verifier-accepted plans: a plan whose
        // lowered eBPF form the verifier rejected never enters the map.
        if let Some(e) = rx.lowering_error() {
            return Err(CompileError::Lowering(e.to_string()));
        }
        let mut inner = self.inner.lock().unwrap();
        inner.misses += 1;
        let epoch = inner.epoch;
        let entry = inner
            .map
            .entry(key)
            .or_insert_with(|| Versioned { plan: rx, epoch });
        entry.epoch = epoch;
        Ok(Arc::clone(&entry.plan))
    }

    /// Compiled TX plan for `(model, intent)`, compiling at most once —
    /// the transmit-side twin of [`get_or_compile`](PlanCache::get_or_compile).
    /// The returned artifact carries the Eq. 1 layout match, its deparse
    /// bytecode, and the software/hardware offload split; N queues with
    /// the same intent share one pointer-equal `Arc`.
    pub fn get_or_compile_tx(
        &self,
        model: &NicModel,
        intent: &Intent,
        reg: &mut SemanticRegistry,
    ) -> Result<Arc<CompiledTxPlan>, CompileError> {
        let key = PlanKey::new(model, intent, reg);
        {
            let mut inner = self.inner.lock().unwrap();
            let epoch = inner.epoch;
            if let Some(hit) = inner.tx_map.get_mut(&key) {
                hit.epoch = epoch;
                let hit = Arc::clone(&hit.plan);
                inner.tx_hits += 1;
                return Ok(hit);
            }
        }
        // Compile outside the lock, exactly like the RX path.
        let parser = model.desc_parser.as_deref().unwrap_or("DescParser");
        let checked = self.contract(model)?;
        let tx = compile_tx_checked(
            &self.compiler.selector,
            &checked,
            parser,
            &model.name,
            intent,
            reg,
        )?;
        let plan = Arc::new(CompiledTxPlan::new(tx, reg));
        let mut inner = self.inner.lock().unwrap();
        inner.tx_misses += 1;
        let epoch = inner.epoch;
        let entry = inner
            .tx_map
            .entry(key)
            .or_insert_with(|| Versioned { plan, epoch });
        entry.epoch = epoch;
        Ok(Arc::clone(&entry.plan))
    }

    /// The checked contract of `model`, running the front end at most
    /// once per contract: a hit needs the stored source to equal
    /// `model.p4_source` byte for byte, so a same-named model with an
    /// edited contract is checked afresh and replaces the entry. A
    /// contract with error diagnostics is refused and never stored.
    pub fn contract(&self, model: &NicModel) -> Result<Arc<CheckedProgram>, CompileError> {
        {
            let mut inner = self.inner.lock().unwrap();
            if let Some(c) = inner.contracts.get(&model.name) {
                if c.source == model.p4_source {
                    let checked = Arc::clone(&c.checked);
                    inner.contract_hits += 1;
                    return Ok(checked);
                }
            }
        }
        // Outside the lock, like the compiles it feeds.
        let checked = Arc::new(check_contract(&model.p4_source)?);
        let mut inner = self.inner.lock().unwrap();
        inner.contract_misses += 1;
        inner.contracts.insert(
            model.name.clone(),
            Contract {
                source: model.p4_source.clone(),
                checked: Arc::clone(&checked),
            },
        );
        Ok(checked)
    }

    /// `(hits, misses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        let inner = self.inner.lock().unwrap();
        (inner.hits, inner.misses)
    }

    /// `(hits, misses)` of the TX plan map.
    pub fn tx_stats(&self) -> (u64, u64) {
        let inner = self.inner.lock().unwrap();
        (inner.tx_hits, inner.tx_misses)
    }

    /// `(hits, misses)` of the checked-contract memo. Every miss ran the
    /// front end and stored what it produced; a refused contract counts
    /// as neither.
    pub fn contract_stats(&self) -> (u64, u64) {
        let inner = self.inner.lock().unwrap();
        (inner.contract_hits, inner.contract_misses)
    }

    /// Distinct artifacts held.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Distinct TX plans held.
    pub fn tx_len(&self) -> usize {
        self.inner.lock().unwrap().tx_map.len()
    }

    /// Current plan epoch. 0 until the first
    /// [`begin_generation`](PlanCache::begin_generation).
    pub fn generation(&self) -> u64 {
        self.inner.lock().unwrap().epoch
    }

    /// Open a new plan generation and return its epoch. Entries served
    /// before this call become *superseded*: once no consumer outside
    /// the cache holds them they are reclaimable by
    /// [`evict_superseded`](PlanCache::evict_superseded). A relayout
    /// calls this before compiling the incoming layout's plans, so the
    /// outgoing generation ages out while any entry the new intent
    /// re-requests (a hit) is re-adopted into the new epoch and kept.
    pub fn begin_generation(&self) -> u64 {
        let mut inner = self.inner.lock().unwrap();
        inner.epoch += 1;
        inner.epoch
    }

    /// Drop superseded artifacts no consumer still holds. An entry is
    /// evicted when its epoch predates the current generation *and* the
    /// cache's `Arc` is the last reference — a queue still draining the
    /// old layout pins its plan (the `Arc` refcount is the "in-flight
    /// batch" pin) until its flip commits and it drops the handle.
    /// Returns how many artifacts (RX + TX) were reclaimed. A model's
    /// checked contract goes with its last plan.
    pub fn evict_superseded(&self) -> usize {
        let mut guard = self.inner.lock().unwrap();
        let inner = &mut *guard;
        let epoch = inner.epoch;
        let before = inner.map.len() + inner.tx_map.len();
        inner
            .map
            .retain(|_, v| v.epoch == epoch || Arc::strong_count(&v.plan) > 1);
        inner
            .tx_map
            .retain(|_, v| v.epoch == epoch || Arc::strong_count(&v.plan) > 1);
        let (map, tx_map) = (&inner.map, &inner.tx_map);
        inner
            .contracts
            .retain(|name, _| map.keys().chain(tx_map.keys()).any(|k| k.model == *name));
        before - (inner.map.len() + inner.tx_map.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opendesc_ir::names;
    use opendesc_nicsim::models;

    fn intent(reg: &mut SemanticRegistry, name: &str, sems: &[&str]) -> Intent {
        let mut b = Intent::builder(name);
        for s in sems {
            b = b.want(reg, s);
        }
        b.build()
    }

    #[test]
    fn identical_requests_are_pointer_equal() {
        let cache = PlanCache::default();
        let mut reg = SemanticRegistry::with_builtins();
        let i = intent(&mut reg, "app", &[names::RSS_HASH, names::PKT_LEN]);
        let a = cache
            .get_or_compile(&models::e1000e(), &i, &mut reg)
            .unwrap();
        let b = cache
            .get_or_compile(&models::e1000e(), &i, &mut reg)
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same request must share one artifact");
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_model_or_intent_miss() {
        let cache = PlanCache::default();
        let mut reg = SemanticRegistry::with_builtins();
        let i1 = intent(&mut reg, "app", &[names::RSS_HASH, names::PKT_LEN]);
        let i2 = intent(&mut reg, "app2", &[names::VLAN_TCI]);
        let a = cache
            .get_or_compile(&models::e1000e(), &i1, &mut reg)
            .unwrap();
        let b = cache
            .get_or_compile(&models::mlx5(), &i1, &mut reg)
            .unwrap();
        let c = cache
            .get_or_compile(&models::e1000e(), &i2, &mut reg)
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.len(), 3);
        // Artifacts genuinely differ.
        assert_eq!(a.nic_name, "e1000e");
        assert_eq!(b.nic_name, "mlx5");
        assert_eq!(c.intent.name, "app2");
    }

    #[test]
    fn distinct_registries_never_alias_cache_entries() {
        // Regression: the old key was semantic-*name* strings, so two
        // registries assigning the same names to different ids collided
        // and the second caller got a plan compiled for the wrong id
        // assignment. The fingerprint in the key must keep them apart.
        let cache = PlanCache::default();
        let mut reg_a = SemanticRegistry::with_builtins();
        let mut reg_b = SemanticRegistry::empty();
        reg_b.register_custom(
            "shift_ids",
            8,
            opendesc_ir::Cost::flat(1.0),
            "displaces every builtin id",
        );
        for (_, info) in SemanticRegistry::with_builtins().iter() {
            reg_b.register(info.clone());
        }
        let ia = intent(&mut reg_a, "app", &[names::RSS_HASH, names::PKT_LEN]);
        let ib = intent(&mut reg_b, "app", &[names::RSS_HASH, names::PKT_LEN]);
        let a = cache
            .get_or_compile(&models::e1000e(), &ia, &mut reg_a)
            .unwrap();
        let b = cache
            .get_or_compile(&models::e1000e(), &ib, &mut reg_b)
            .unwrap();
        assert!(
            !Arc::ptr_eq(&a, &b),
            "same names on different registries must not share an artifact"
        );
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats(), (0, 2), "both requests must be misses");
    }

    #[test]
    fn cache_serves_only_verifier_accepted_plans() {
        let cache = PlanCache::default();
        let mut reg = SemanticRegistry::with_builtins();
        let i = intent(&mut reg, "app", &[names::RSS_HASH, names::PKT_LEN]);
        for model in [
            models::e1000e(),
            models::ixgbe(),
            models::mlx5(),
            models::qdma_default(),
        ] {
            let rx = cache.get_or_compile(&model, &i, &mut reg).unwrap();
            let low = rx
                .lowered()
                .expect("every cache-served plan carries its lowered form");
            assert!(
                low.verifier_states > 0 || low.ebpf.is_empty(),
                "{}: the verifier must actually have run",
                model.name
            );
        }
    }

    #[test]
    fn tx_plans_cache_separately_from_rx() {
        let cache = PlanCache::default();
        let mut reg = SemanticRegistry::with_builtins();
        let ti = intent(&mut reg, "tx", &[names::TX_L4_CSUM, names::TX_VLAN_INSERT]);
        let a = cache
            .get_or_compile_tx(&models::qdma_default(), &ti, &mut reg)
            .unwrap();
        let b = cache
            .get_or_compile_tx(&models::qdma_default(), &ti, &mut reg)
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same TX request shares one plan");
        assert_eq!(cache.tx_stats(), (1, 1));
        assert_eq!(
            cache.stats(),
            (0, 0),
            "TX compiles must not move the RX counters"
        );
        assert_eq!(cache.len(), 0, "TX plans live outside the RX map");
        assert!(!a.prog.deparse.is_empty(), "plan carries deparse bytecode");
        // A model without a TX parser errors and is never cached.
        assert!(cache
            .get_or_compile_tx(&models::mlx5(), &ti, &mut reg)
            .is_err());
        assert_eq!(cache.tx_stats(), (1, 1));
    }

    fn tx_intent(reg: &mut SemanticRegistry) -> Intent {
        intent(reg, "tx", &[names::TX_IP_CSUM])
    }

    #[test]
    fn rx_and_tx_of_one_model_share_one_checked_contract() {
        let cache = PlanCache::default();
        let mut reg = SemanticRegistry::with_builtins();
        let model = models::e1000e();
        let i = intent(&mut reg, "app", &[names::RSS_HASH, names::PKT_LEN]);
        cache.get_or_compile(&model, &i, &mut reg).unwrap();
        let t = tx_intent(&mut reg);
        cache.get_or_compile_tx(&model, &t, &mut reg).unwrap();
        assert_eq!(cache.contract_stats(), (1, 1), "one front-end run");
        // Plan hits never reach the contract memo.
        cache.get_or_compile(&model, &i, &mut reg).unwrap();
        assert_eq!(cache.contract_stats(), (1, 1));
        let a = cache.contract(&model).unwrap();
        let b = cache.contract(&model).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same source, same contract");
    }

    #[test]
    fn an_edited_contract_under_the_same_name_is_checked_afresh() {
        let cache = PlanCache::default();
        let mut reg = SemanticRegistry::with_builtins();
        let i = intent(&mut reg, "app", &[names::PKT_LEN]);
        let original = models::e1000e();
        let mut edited = original.clone();
        edited.p4_source = edited.p4_source.replace(
            "@semantic(\"pkt_len\")   bit<16> length;",
            "@semantic(\"pkt_len\")   bit<16> frame_length;",
        );
        assert_ne!(edited.p4_source, original.p4_source, "the edit applied");
        let first = cache.contract(&original).unwrap();
        let second = cache.contract(&edited).unwrap();
        assert_eq!(cache.contract_stats(), (0, 2), "a name alone never hits");
        assert!(!Arc::ptr_eq(&first, &second));
        // The entry was replaced, not added beside: the edited source
        // now hits, and its plans read the edited contract.
        let again = cache.contract(&edited).unwrap();
        assert!(Arc::ptr_eq(&second, &again));
        let rx = cache.get_or_compile(&edited, &i, &mut reg).unwrap();
        assert!(
            rx.path
                .slots
                .iter()
                .any(|s| s.name.ends_with("frame_length")),
            "compiled from the contract it was asked for"
        );
    }

    #[test]
    fn a_contract_with_errors_is_refused_and_never_stored() {
        let cache = PlanCache::default();
        let mut reg = SemanticRegistry::with_builtins();
        let i = intent(&mut reg, "app", &[names::PKT_LEN]);
        let mut broken = models::e1000e();
        broken.p4_source.push_str("\nheader broken {");
        for _ in 0..2 {
            let err = cache.get_or_compile(&broken, &i, &mut reg).unwrap_err();
            let direct = Compiler::default()
                .compile_model(&broken, &i, &mut reg)
                .unwrap_err();
            assert!(matches!(err, CompileError::Contract(_)), "{err}");
            assert_eq!(err.to_string(), direct.to_string(), "same refusal text");
        }
        let t = tx_intent(&mut reg);
        assert!(matches!(
            cache.get_or_compile_tx(&broken, &t, &mut reg),
            Err(CompileError::Contract(_))
        ));
        assert_eq!(
            cache.contract_stats(),
            (0, 0),
            "refused every time: nothing was stored to hit, nothing counted as checked"
        );
        assert_eq!((cache.len(), cache.tx_len()), (0, 0));
    }

    #[test]
    fn a_contract_leaves_with_its_models_last_plan() {
        let cache = PlanCache::default();
        let mut reg = SemanticRegistry::with_builtins();
        let model = models::ixgbe();
        let i = intent(&mut reg, "gen0", &[names::PKT_LEN]);
        let live = cache.get_or_compile(&model, &i, &mut reg).unwrap();
        cache.begin_generation();
        // Still pinned by `live`: the plan stays, and so does its contract.
        assert_eq!(cache.evict_superseded(), 0);
        cache.contract(&model).unwrap();
        assert_eq!(cache.contract_stats(), (1, 1));
        drop(live);
        assert_eq!(cache.evict_superseded(), 1);
        cache.contract(&model).unwrap();
        assert_eq!(cache.contract_stats(), (1, 2), "evicted with the last plan");
    }

    #[test]
    fn relayout_generations_are_bounded() {
        // Regression for unbounded growth: N relayouts cycling through
        // distinct intents must never leave more than 2 live RX
        // generations (the incoming plan plus the still-pinned outgoing
        // one), and exactly 1 once each flip's old handle is dropped.
        let cache = PlanCache::default();
        let mut reg = SemanticRegistry::with_builtins();
        let pool = [
            names::RSS_HASH,
            names::VLAN_TCI,
            names::PKT_LEN,
            names::PACKET_TYPE,
        ];
        let mut live = cache
            .get_or_compile(
                &models::ixgbe(),
                &intent(&mut reg, "gen0", &[names::PKT_LEN]),
                &mut reg,
            )
            .unwrap();
        for n in 1..=8usize {
            cache.begin_generation();
            let i = intent(&mut reg, &format!("gen{n}"), &[pool[n % pool.len()]]);
            let next = cache
                .get_or_compile(&models::ixgbe(), &i, &mut reg)
                .unwrap();
            // Transition window: the outgoing plan is still pinned by
            // `live`, so eviction must not reclaim it.
            assert_eq!(cache.evict_superseded(), 0);
            assert_eq!(cache.len(), 2, "old pinned + new = 2 live generations");
            live = next; // flip commits; old Arc drops here
            assert_eq!(cache.evict_superseded(), 1);
            assert_eq!(cache.len(), 1, "superseded generation reclaimed");
        }
        assert_eq!(cache.generation(), 8);
        drop(live);
    }

    #[test]
    fn hits_readopt_entries_into_the_current_generation() {
        // A relayout back to a layout the cache already holds must not
        // age that entry out: the hit re-adopts it into the new epoch.
        let cache = PlanCache::default();
        let mut reg = SemanticRegistry::with_builtins();
        let i = intent(&mut reg, "app", &[names::RSS_HASH, names::PKT_LEN]);
        let a = cache
            .get_or_compile(&models::e1000e(), &i, &mut reg)
            .unwrap();
        cache.begin_generation();
        let b = cache
            .get_or_compile(&models::e1000e(), &i, &mut reg)
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        drop(a);
        drop(b);
        assert_eq!(
            cache.evict_superseded(),
            0,
            "re-adopted entry is current-generation, never evicted"
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn deref_reaches_interface_fields() {
        let cache = PlanCache::default();
        let mut reg = SemanticRegistry::with_builtins();
        let i = intent(&mut reg, "app", &[names::RSS_HASH, names::PKT_LEN]);
        let rx = cache.get_or_compile(&models::mlx5(), &i, &mut reg).unwrap();
        // The whole accessor/plan surface is reachable through Deref.
        assert_eq!(rx.accessors.accessors.len(), 2);
        assert_eq!(rx.plan.steps.len(), 2);
        assert_eq!(rx.interface().nic_name, "mlx5");
    }
}
