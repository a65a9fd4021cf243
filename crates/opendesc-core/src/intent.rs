//! Application intent: the set of semantics the application wants
//! delivered with each packet (paper Fig. 5 and §4 "Req ⊆ Σ").
//!
//! An intent is declared either as a P4 header whose fields carry
//! `@semantic` annotations (optionally `@cost` to re-price software
//! fallback for this application's workload), or programmatically through
//! [`Intent::builder`].

use crate::compiler::{check_contract, CompileError};
use opendesc_ir::semantics::{Cost, SemanticRegistry};
use opendesc_ir::SemanticId;
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fmt;

/// One requested metadata field.
#[derive(Debug, Clone, PartialEq)]
pub struct IntentField {
    pub semantic: SemanticId,
    /// Field name in the intent header (used in generated code); a
    /// builder's field borrows its semantic's name from the registry.
    pub name: Cow<'static, str>,
    /// Requested width. The compiler checks the layout's slot fits.
    pub width_bits: u16,
}

/// A parsed application intent.
#[derive(Debug, Clone, PartialEq)]
pub struct Intent {
    /// Intent name (header type name or builder-assigned).
    pub name: String,
    pub fields: Vec<IntentField>,
}

/// Errors raised when parsing an intent.
#[derive(Debug, Clone, PartialEq)]
pub enum IntentError {
    /// The P4 source failed to parse/check.
    BadSource(String),
    /// No header with `@semantic` fields found.
    NoIntentHeader,
    /// A field lacks a `@semantic` annotation.
    UnannotatedField { header: String, field: String },
    /// The same semantic is requested twice.
    DuplicateSemantic(String),
}

impl fmt::Display for IntentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntentError::BadSource(m) => write!(f, "intent source error: {m}"),
            IntentError::NoIntentHeader => {
                write!(f, "no header with @semantic fields found in intent source")
            }
            IntentError::UnannotatedField { header, field } => write!(
                f,
                "field `{field}` of intent header `{header}` has no @semantic annotation"
            ),
            IntentError::DuplicateSemantic(s) => {
                write!(f, "semantic `{s}` requested more than once")
            }
        }
    }
}

impl std::error::Error for IntentError {}

impl Intent {
    /// Parse an intent from P4 source (Fig. 5 style). The first header
    /// whose fields all carry `@semantic` is the intent; `@cost(N)`
    /// annotations re-price that semantic's software fallback in `reg`.
    /// Unknown semantic names are registered with infinite software cost
    /// (the "new feature" extension hook) unless they carry `@cost`.
    pub fn from_p4(src: &str, reg: &mut SemanticRegistry) -> Result<Intent, IntentError> {
        let checked = check_contract(src).map_err(|e| match e {
            CompileError::Contract(summary) => IntentError::BadSource(summary),
            other => IntentError::BadSource(other.to_string()),
        })?;
        let hinfo = (checked.types.headers.iter())
            .find(|h| h.fields.iter().any(|f| f.semantic.is_some()))
            .ok_or(IntentError::NoIntentHeader)?;

        let mut fields = Vec::new();
        let mut seen = BTreeSet::new();
        for f in &hinfo.fields {
            let field_name = checked.name(f.name);
            let Some(sem_name) = f.semantic.map(|s| checked.name(s)) else {
                // Padding fields without a semantic are allowed only if
                // plainly named as padding; anything else is a likely bug.
                if field_name.starts_with("pad") || field_name.starts_with("reserved") {
                    continue;
                }
                return Err(IntentError::UnannotatedField {
                    header: checked.name(hinfo.name).to_string(),
                    field: field_name.to_string(),
                });
            };
            let id = if let Some(cost) = f.cost {
                reg.register_custom(
                    sem_name,
                    f.width_bits,
                    Cost::flat(cost as f64),
                    "application-priced semantic",
                )
            } else {
                reg.intern(sem_name)
            };
            if !seen.insert(id) {
                return Err(IntentError::DuplicateSemantic(sem_name.to_string()));
            }
            fields.push(IntentField {
                semantic: id,
                name: Cow::Owned(field_name.to_string()),
                width_bits: f.width_bits,
            });
        }
        Ok(Intent {
            name: checked.name(hinfo.name).to_string(),
            fields,
        })
    }

    /// Programmatic construction.
    pub fn builder(name: &str) -> IntentBuilder {
        IntentBuilder {
            intent: Intent {
                name: name.into(),
                // Room for the handful of fields an intent asks for.
                fields: Vec::with_capacity(8),
            },
        }
    }

    /// `Req`: the requested semantic set.
    pub fn req(&self) -> BTreeSet<SemanticId> {
        self.fields.iter().map(|f| f.semantic).collect()
    }

    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    pub fn len(&self) -> usize {
        self.fields.len()
    }
}

/// Builder for programmatic intents.
pub struct IntentBuilder {
    intent: Intent,
}

impl IntentBuilder {
    /// Request a well-known semantic by name, using its registry width.
    pub fn want(mut self, reg: &mut SemanticRegistry, sem_name: &str) -> Self {
        let id = reg.intern(sem_name);
        let info = reg.info(id);
        self.intent.fields.push(IntentField {
            semantic: id,
            name: info.name.clone(),
            width_bits: info.width_bits.max(1),
        });
        self
    }

    /// Request a custom semantic with an explicit width and software cost.
    pub fn want_custom(
        mut self,
        reg: &mut SemanticRegistry,
        sem_name: &str,
        width_bits: u16,
        cost: Cost,
    ) -> Self {
        let id = reg.register_custom(sem_name, width_bits, cost, "custom intent semantic");
        self.intent.fields.push(IntentField {
            semantic: id,
            name: reg.info(id).name.clone(),
            width_bits,
        });
        self
    }

    pub fn build(self) -> Intent {
        self.intent
    }
}

/// The paper's Fig. 1 scenario as a ready-made intent source: checksum,
/// decapsulated VLAN TCI, RSS hash, and a KVS-offload result.
pub const FIG1_INTENT_P4: &str = r#"
header app_intent_t {
    @semantic("ip_checksum")  bit<16> csum;
    @semantic("vlan_tci")     bit<16> vlan;
    @semantic("rss_hash")     bit<32> rss;
    @semantic("kvs_key_hash") bit<32> kvs_key;
}
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use opendesc_ir::names;

    #[test]
    fn parse_fig5_intent() {
        let mut reg = SemanticRegistry::with_builtins();
        let intent = Intent::from_p4(
            r#"
            header intent_t {
                @semantic("rss_hash") bit<32> rss_val;
                @semantic("vlan_tci") bit<16> vlan_tag;
                @semantic("ip_checksum") bit<16> csum;
            }
            "#,
            &mut reg,
        )
        .unwrap();
        assert_eq!(intent.name, "intent_t");
        assert_eq!(intent.len(), 3);
        assert!(intent.req().contains(&reg.id(names::RSS_HASH).unwrap()));
    }

    #[test]
    fn fig1_intent_constant_parses() {
        let mut reg = SemanticRegistry::with_builtins();
        let intent = Intent::from_p4(FIG1_INTENT_P4, &mut reg).unwrap();
        assert_eq!(intent.len(), 4);
    }

    #[test]
    fn cost_annotation_reprices_semantic() {
        let mut reg = SemanticRegistry::with_builtins();
        let intent = Intent::from_p4(
            r#"
            header i_t {
                @semantic("rss_hash") @cost(500) bit<32> rss;
            }
            "#,
            &mut reg,
        )
        .unwrap();
        let id = intent.fields[0].semantic;
        assert_eq!(reg.cost(id).eval(64), 500.0);
    }

    #[test]
    fn custom_semantic_interned_with_infinite_cost() {
        let mut reg = SemanticRegistry::with_builtins();
        let intent = Intent::from_p4(
            r#"
            header i_t {
                @semantic("my_new_offload") bit<64> v;
            }
            "#,
            &mut reg,
        )
        .unwrap();
        assert!(reg.cost(intent.fields[0].semantic).is_infinite());
    }

    #[test]
    fn unannotated_field_rejected_unless_padding() {
        let mut reg = SemanticRegistry::with_builtins();
        let err = Intent::from_p4(
            r#"
            header i_t {
                @semantic("rss_hash") bit<32> rss;
                bit<16> mystery;
            }
            "#,
            &mut reg,
        )
        .unwrap_err();
        assert!(matches!(err, IntentError::UnannotatedField { .. }));

        let ok = Intent::from_p4(
            r#"
            header i_t {
                @semantic("rss_hash") bit<32> rss;
                bit<16> pad0;
            }
            "#,
            &mut reg,
        )
        .unwrap();
        assert_eq!(ok.len(), 1);
    }

    #[test]
    fn duplicate_semantic_rejected() {
        let mut reg = SemanticRegistry::with_builtins();
        let err = Intent::from_p4(
            r#"
            header i_t {
                @semantic("rss_hash") bit<32> a;
                @semantic("rss_hash") bit<32> b;
            }
            "#,
            &mut reg,
        )
        .unwrap_err();
        assert_eq!(err, IntentError::DuplicateSemantic("rss_hash".into()));
    }

    #[test]
    fn builder_equivalent_to_source() {
        let mut reg = SemanticRegistry::with_builtins();
        let built = Intent::builder("intent_t")
            .want(&mut reg, names::RSS_HASH)
            .want(&mut reg, names::VLAN_TCI)
            .build();
        assert_eq!(built.len(), 2);
        assert_eq!(built.fields[0].width_bits, 32);
        assert_eq!(built.fields[1].width_bits, 16);
    }

    #[test]
    fn bad_source_reports_diagnostics() {
        let mut reg = SemanticRegistry::with_builtins();
        let err = Intent::from_p4("header broken {", &mut reg).unwrap_err();
        assert!(matches!(err, IntentError::BadSource(_)));
    }

    #[test]
    fn no_semantic_header_rejected() {
        let mut reg = SemanticRegistry::with_builtins();
        let err = Intent::from_p4("header h_t { bit<8> x; }", &mut reg).unwrap_err();
        assert_eq!(err, IntentError::NoIntentHeader);
    }
}
