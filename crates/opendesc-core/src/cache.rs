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
//! context, intent)` — so N queues with the same intent trigger one
//! compilation, while queues with *different* intents (the paper's §3
//! "multiple OpenDesc instances with different intents to obtain
//! different queues" scenario) each get their own artifact. Identical
//! requests return pointer-equal `Arc`s.

use crate::compiler::{CompileError, CompiledInterface, Compiler};
use crate::intent::Intent;
use crate::lower::{lower, LowerError, LoweredPlan};
use crate::robust::ValidatorSpec;
use crate::tx::{compile_tx, CompiledTxPlan};
use crate::vm::PlanProgram;
use opendesc_ir::{Assignment, SemanticRegistry};
use opendesc_nicsim::models::NicModel;
use opendesc_nicsim::nic::NicError;
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
/// of the intent's `(id, field name, width)` rows; the context override
/// is canonicalized by sorting.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PlanKey {
    model: String,
    deparser: String,
    /// Fingerprint of the registry's id ↔ (name, width) assignment.
    reg_fingerprint: u64,
    /// FNV-1a over the intent name and its `(id, name, width)` fields.
    intent_hash: u64,
    /// Sorted `(dotted field, value)` of the context override, if any.
    context: Option<Vec<(String, u128)>>,
}

impl PlanKey {
    fn new(
        model: &NicModel,
        intent: &Intent,
        context: Option<&Assignment>,
        reg: &SemanticRegistry,
    ) -> PlanKey {
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
        let context = context.map(|ctx| {
            let mut kv: Vec<(String, u128)> = ctx.iter().map(|(f, v)| (f.dotted(), *v)).collect();
            kv.sort();
            kv
        });
        PlanKey {
            model: model.name.clone(),
            deparser: model.deparser.clone(),
            reg_fingerprint: reg.fingerprint(),
            intent_hash: h,
            context,
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

#[derive(Debug, Default)]
struct CacheInner {
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

/// Keyed plan cache: `(model, context, intent) → Arc<CompiledRx>`.
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
        self.get_or_compile_with(model, intent, None, reg)
    }

    /// [`get_or_compile`](PlanCache::get_or_compile) with an explicit
    /// context override — for queues steered onto a specific completion
    /// path (or models whose winning guard is opaque and needs manual
    /// context). The override replaces the compiler-derived context in
    /// the artifact and participates in the key.
    pub fn get_or_compile_with(
        &self,
        model: &NicModel,
        intent: &Intent,
        context: Option<&Assignment>,
        reg: &mut SemanticRegistry,
    ) -> Result<Arc<CompiledRx>, CompileError> {
        let key = PlanKey::new(model, intent, context, reg);
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
        let mut iface = self.compiler.compile_model(model, intent, reg)?;
        if let Some(ctx) = context {
            iface.context = Some(ctx.clone());
        }
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
        let key = PlanKey::new(model, intent, None, reg);
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
        let tx = compile_tx(
            &self.compiler.selector,
            &model.p4_source,
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
    /// Returns how many artifacts (RX + TX) were reclaimed.
    pub fn evict_superseded(&self) -> usize {
        let mut inner = self.inner.lock().unwrap();
        let epoch = inner.epoch;
        let before = inner.map.len() + inner.tx_map.len();
        inner
            .map
            .retain(|_, v| v.epoch == epoch || Arc::strong_count(&v.plan) > 1);
        inner
            .tx_map
            .retain(|_, v| v.epoch == epoch || Arc::strong_count(&v.plan) > 1);
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
    fn context_override_participates_in_key_and_artifact() {
        let cache = PlanCache::default();
        let mut reg = SemanticRegistry::with_builtins();
        let i = intent(&mut reg, "app", &[names::RSS_HASH, names::PKT_LEN]);
        let plain = cache.get_or_compile(&models::mlx5(), &i, &mut reg).unwrap();
        let mut ctx = Assignment::new();
        ctx.insert(
            opendesc_ir::pred::FieldRef::new(&["ctx", "cqe_format"], 2),
            0,
        );
        let forced = cache
            .get_or_compile_with(&models::mlx5(), &i, Some(&ctx), &mut reg)
            .unwrap();
        assert!(!Arc::ptr_eq(&plain, &forced));
        assert_eq!(forced.context.as_ref(), Some(&ctx));
        // Same override again: cache hit.
        let again = cache
            .get_or_compile_with(&models::mlx5(), &i, Some(&ctx), &mut reg)
            .unwrap();
        assert!(Arc::ptr_eq(&forced, &again));
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
