//! Control plane: negotiating an interface for a NIC model.
//!
//! [`negotiate`] is what a host does end to end (and what the
//! `negotiate` workload times); [`negotiate_staged`] does the same work
//! one public stage function at a time, a span around each, so the
//! stage metrics can be checked to sum to the end-to-end figure.

use crate::clock;
use crate::trace::{Name, Spans};
use opendesc_core::codegen::manifest::ManifestV1;
use opendesc_core::{
    compile_tx, CompiledRx, CompiledTxPlan, Compiler, Intent, PlanCache, Selector,
};
use opendesc_ir::{enumerate_paths, extract, names, SemanticRegistry, DEFAULT_MAX_PATHS};
use opendesc_nicsim::{models, NicModel, SimNic};
use opendesc_p4::parse_and_check;
use std::sync::Arc;

/// The one RX intent every workload compiles. What differs between
/// workloads is the hardware/software split the NIC's contract yields.
pub const BENCH7: [&str; 7] = [
    names::RSS_HASH,
    names::VLAN_TCI,
    names::PKT_LEN,
    names::PACKET_TYPE,
    names::PAYLOAD_OFFSET,
    names::KVS_KEY_HASH,
    names::IP_CHECKSUM,
];

pub fn bench7(reg: &mut SemanticRegistry) -> Intent {
    BENCH7
        .iter()
        .fold(Intent::builder("bench7"), |b, s| b.want(reg, s))
        .build()
}

pub fn tx_intent(reg: &mut SemanticRegistry) -> Intent {
    Intent::builder("tx_ip_csum_offload")
        .want(reg, names::TX_IP_CSUM)
        .build()
}

/// Ring entries of every single-queue NIC the benchmark boots.
pub const RING: usize = 512;

pub struct Negotiated {
    /// The plans are held, never read: they are what a host keeps
    /// resident, and so what `mem_mib` weighs.
    #[allow(dead_code)]
    pub plans: (Arc<CompiledRx>, Option<Arc<CompiledTxPlan>>),
    pub manifest: String,
}

/// Cold negotiation of `model` through `cache`: RX plan, TX plan where
/// the model has a descriptor parser, and the rendered manifest.
pub fn negotiate(cache: &PlanCache, model: &NicModel) -> Result<Negotiated, String> {
    let mut reg = SemanticRegistry::with_builtins();
    let rx_intent = bench7(&mut reg);
    let rx = cache
        .get_or_compile(model, &rx_intent, &mut reg)
        .map_err(|e| format!("{}: {e}", model.name))?;
    let tx = match model.desc_parser {
        Some(_) => {
            let intent = tx_intent(&mut reg);
            Some(
                cache
                    .get_or_compile_tx(model, &intent, &mut reg)
                    .map_err(|e| format!("{} tx: {e}", model.name))?,
            )
        }
        None => None,
    };
    let manifest = rx.manifest();
    Ok(Negotiated {
        plans: (rx, tx),
        manifest,
    })
}

/// What the staged negotiation reports besides its spans.
pub struct Staged {
    pub manifest: String,
    pub paths: usize,
    /// Handed out, never read, so that it is dropped off the clock like
    /// the plans [`negotiate`] returns.
    #[allow(dead_code)]
    pub rx: CompiledRx,
}

/// [`negotiate`], stage by stage. Each stage is the public function the
/// plan cache itself calls, so the spans add up to the same work.
pub fn negotiate_staged<S: Spans>(model: &NicModel, s: &mut S) -> Result<Staged, String> {
    let (mut reg, rx_intent) = s.call(Name::Intent, || {
        let mut reg = SemanticRegistry::with_builtins();
        let intent = bench7(&mut reg);
        (reg, intent)
    });
    let (checked, diags) = s.call(Name::ParseCheck, || parse_and_check(&model.p4_source));
    if diags.has_errors() {
        return Err(format!("{}: contract does not check", model.name));
    }
    let cfg = s
        .call(Name::Extract, || {
            extract(&checked, &model.deparser, &mut reg)
        })
        .map_err(|_| format!("{}: extraction failed", model.name))?;
    let paths = s
        .call(Name::Enumerate, || enumerate_paths(&cfg, DEFAULT_MAX_PATHS))
        .map_err(|e| format!("{}: {e}", model.name))?;
    let iface = s
        .call(Name::SelectSynth, || {
            Compiler::default().compile_paths(&paths, &model.name, &rx_intent, &reg)
        })
        .map_err(|e| format!("{}: {e}", model.name))?;
    let rx = s.call(Name::LowerVerify, || CompiledRx::new(iface));
    if let Some(e) = rx.lowering_error() {
        return Err(format!("{}: {e}", model.name));
    }
    if let Some(parser) = model.desc_parser.as_deref() {
        let intent = tx_intent(&mut reg);
        s.call(Name::CompileTx, || {
            compile_tx(
                &Selector::default(),
                &model.p4_source,
                parser,
                &model.name,
                &intent,
                &mut reg,
            )
            .map(|tx| CompiledTxPlan::new(tx, &reg))
        })
        .map_err(|e| format!("{} tx: {e}", model.name))?;
    }
    let manifest = s.call(Name::Manifest, || rx.manifest());
    let n_paths = paths.len();
    // The cached path frees these inside `get_or_compile`.
    s.call(Name::Release, || {
        drop((checked, cfg, paths, reg, rx_intent))
    });
    Ok(Staged {
        manifest,
        paths: n_paths,
        rx,
    })
}

/// One probed, staged negotiation plus one probed device boot, folded
/// into the tracer's lap totals.
pub fn staged_lap<S: Spans>(model: &NicModel, s: &mut S) -> Result<Staged, String> {
    let pa = clock::probe_ns();
    let root = s.open(Name::Negotiation);
    let staged = negotiate_staged(model, s);
    s.close(root);
    let pb = clock::probe_ns();
    s.fold(root, pa, pb);
    let boot = s.open(Name::NicBoot);
    let nic = SimNic::new(model.clone(), RING);
    s.close(boot);
    s.fold(boot, pb, clock::probe_ns());
    nic.map_err(|e| format!("{}: {e}", model.name))?;
    staged
}

/// The `negotiate` workload: every catalog model, cold, per sweep.
pub struct Negotiate {
    pub models: Vec<NicModel>,
    /// Artifacts of the set-up sweep: the reference the verification
    /// sweeps must reproduce byte for byte, and what `mem_mib` weighs.
    pub held: Vec<Negotiated>,
}

impl Negotiate {
    /// The catalog is the whole input; the seed only rotates the order
    /// in which a sweep visits the models.
    pub fn setup(seed: u64) -> Result<Negotiate, String> {
        let mut models = models::catalog();
        let by = (seed % models.len() as u64) as usize;
        models.rotate_left(by);
        let cache = PlanCache::default();
        let held = models
            .iter()
            .map(|m| negotiate(&cache, m))
            .collect::<Result<_, _>>()?;
        Ok(Negotiate { models, held })
    }

    /// One cold sweep; returns mean cycles per negotiation.
    pub fn sweep(&self) -> Result<f64, String> {
        let cache = PlanCache::default();
        let mut cyc = 0.0;
        for m in &self.models {
            let (r, c) = clock::timed_cycles(|| negotiate(&cache, m));
            std::hint::black_box(r?);
            cyc += c;
        }
        Ok(cyc / self.models.len() as f64)
    }

    /// Verification: a cold sweep must render the manifests of the
    /// set-up sweep byte for byte, through both the cached and the
    /// staged path, and each must survive parse → render. Returns
    /// `(attempted, failures)`.
    pub fn verify(&self) -> (u64, Vec<String>) {
        let cache = PlanCache::default();
        let mut failures = Vec::new();
        for (m, held) in self.models.iter().zip(&self.held) {
            match negotiate(&cache, m) {
                Ok(n) if n.manifest != held.manifest => failures.push(format!(
                    "{}: two cold compiles render different manifests",
                    m.name
                )),
                Ok(_) => {}
                Err(e) => failures.push(e),
            }
            match negotiate_staged(m, &mut crate::trace::Off) {
                Ok(s) if s.manifest != held.manifest => failures.push(format!(
                    "{}: staged negotiation renders a different manifest",
                    m.name
                )),
                Ok(_) => {}
                Err(e) => failures.push(e),
            }
            match ManifestV1::parse(&held.manifest) {
                Ok(parsed) if parsed.render() != held.manifest => failures.push(format!(
                    "{}: manifest changes across parse → render",
                    m.name
                )),
                Ok(_) => {}
                Err(e) => failures.push(format!("{}: manifest does not parse: {e:?}", m.name)),
            }
        }
        (3 * self.models.len() as u64, failures)
    }
}
