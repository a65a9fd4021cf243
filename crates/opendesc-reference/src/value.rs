//! Runtime values for contract interpretation.
//!
//! The interpreters ([`crate::interp`]) execute the deparser/parser
//! described in the contract against these values: header instances
//! with per-field scalars, structs grouping them, and plain bit scalars.

use opendesc_p4::typecheck::CheckedProgram;
use opendesc_p4::types::{HeaderId, StructId, Ty};
use std::collections::BTreeMap;

/// A runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A `bit<N>`/`bool`/enum scalar.
    Bits { width: u16, value: u128 },
    /// A struct instance.
    Struct(BTreeMap<String, Value>),
    /// A header instance. Fields default to 0 when absent from the map.
    Header {
        header: HeaderId,
        valid: bool,
        fields: BTreeMap<String, u128>,
    },
}

impl Value {
    /// Scalar constructor.
    pub fn bits(width: u16, value: u128) -> Value {
        let value = if width >= 128 {
            value
        } else {
            value & ((1u128 << width) - 1)
        };
        Value::Bits { width, value }
    }

    /// Build a zeroed value of type `ty` (headers start invalid).
    pub fn zero_of(ty: Ty, checked: &CheckedProgram) -> Value {
        match ty {
            Ty::Bit(w) => Value::bits(w, 0),
            Ty::Bool => Value::bits(1, 0),
            Ty::Enum(id) => Value::bits(checked.types.enum_(id).repr_width, 0),
            Ty::Header(id) => Value::Header {
                header: id,
                valid: false,
                fields: BTreeMap::new(),
            },
            Ty::Struct(id) => Value::struct_of(id, checked),
            Ty::Extern(_) | Ty::Void => Value::bits(0, 0),
        }
    }

    /// Build a zeroed struct with all fields materialized.
    pub fn struct_of(id: StructId, checked: &CheckedProgram) -> Value {
        let info = checked.types.struct_(id);
        let fields = info
            .fields
            .iter()
            .map(|f| {
                let value = Value::zero_of(f.ty, checked);
                (checked.name(f.name).to_string(), value)
            })
            .collect();
        Value::Struct(fields)
    }

    /// Navigate a dotted path below this value.
    pub fn get_path(&self, path: &[&str]) -> Option<&Value> {
        let mut cur = self;
        for seg in path {
            match cur {
                Value::Struct(fields) => cur = fields.get(*seg)?,
                _ => return None,
            }
        }
        Some(cur)
    }

    /// Navigate mutably.
    pub fn get_path_mut(&mut self, path: &[&str]) -> Option<&mut Value> {
        let mut cur = self;
        for seg in path {
            match cur {
                Value::Struct(fields) => cur = fields.get_mut(*seg)?,
                _ => return None,
            }
        }
        Some(cur)
    }

    /// Read a scalar field of a header value.
    pub fn header_field(&self, name: &str) -> Option<u128> {
        match self {
            Value::Header { fields, .. } => Some(fields.get(name).copied().unwrap_or(0)),
            _ => None,
        }
    }

    /// Set a scalar field of a header value.
    pub fn set_header_field(&mut self, name: &str, value: u128) -> bool {
        match self {
            Value::Header { fields, .. } => {
                fields.insert(name.to_string(), value);
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opendesc_p4::typecheck::parse_and_check;

    #[test]
    fn bits_masked_at_construction() {
        assert_eq!(
            Value::bits(4, 0xFF),
            Value::Bits {
                width: 4,
                value: 0xF
            }
        );
        assert_eq!(
            Value::bits(128, u128::MAX),
            Value::Bits {
                width: 128,
                value: u128::MAX
            }
        );
    }

    #[test]
    fn zero_struct_materializes_nested() {
        let (checked, d) = parse_and_check(
            r#"
            header h_t { bit<8> a; }
            struct inner_t { h_t h; bit<4> n; }
            struct outer_t { inner_t i; }
            "#,
        );
        assert!(!d.has_errors());
        let Ty::Struct(sid) = checked.lookup("outer_t").unwrap() else {
            panic!()
        };
        let v = Value::struct_of(sid, &checked);
        let h = v.get_path(&["i", "h"]).unwrap();
        assert!(matches!(h, Value::Header { valid: false, .. }));
        let n = v.get_path(&["i", "n"]).unwrap();
        assert_eq!(*n, Value::bits(4, 0));
    }

    #[test]
    fn header_field_defaults_to_zero() {
        let (checked, _) = parse_and_check("header h_t { bit<8> a; bit<8> b; }");
        let id = checked.header_id("h_t").unwrap();
        let v = Value::Header {
            header: id,
            valid: true,
            fields: [("a".to_string(), 7)].into(),
        };
        assert_eq!(v.header_field("a"), Some(7));
        assert_eq!(v.header_field("b"), Some(0));
    }

    #[test]
    fn path_navigation_mut() {
        let (checked, _) = parse_and_check(
            r#"
            header h_t { bit<8> a; }
            struct s_t { h_t h; }
            "#,
        );
        let Ty::Struct(sid) = checked.lookup("s_t").unwrap() else {
            panic!()
        };
        let mut v = Value::struct_of(sid, &checked);
        v.get_path_mut(&["h"]).unwrap().set_header_field("a", 42);
        assert_eq!(v.get_path(&["h"]).unwrap().header_field("a"), Some(42));
    }
}
