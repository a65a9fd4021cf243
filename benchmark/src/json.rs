//! Hand-written JSON writer (no serde in the tree). Reading goes
//! through `opendesc_telemetry::parse_json`.

/// Builds one JSON object, members in insertion order.
pub struct Obj {
    buf: String,
}

impl Obj {
    pub fn new() -> Obj {
        Obj {
            buf: String::from("{"),
        }
    }

    fn key(&mut self, k: &str) {
        if self.buf.len() > 1 {
            self.buf.push_str(", ");
        }
        self.buf.push_str(&quote(k));
        self.buf.push_str(": ");
    }

    pub fn str(&mut self, k: &str, v: &str) -> &mut Obj {
        self.key(k);
        self.buf.push_str(&quote(v));
        self
    }

    /// A number with all its digits; non-finite values become `null`
    /// (JSON has no spelling for them).
    pub fn num(&mut self, k: &str, v: f64) -> &mut Obj {
        self.key(k);
        if v.is_finite() {
            self.buf.push_str(&format!("{v}"));
        } else {
            self.buf.push_str("null");
        }
        self
    }

    pub fn bool(&mut self, k: &str, v: bool) -> &mut Obj {
        self.raw(k, if v { "true" } else { "false" })
    }

    /// An already-serialised value (nested object, array, `null`).
    pub fn raw(&mut self, k: &str, json: &str) -> &mut Obj {
        self.key(k);
        self.buf.push_str(json);
        self
    }

    pub fn finish(&self) -> String {
        format!("{}}}", self.buf)
    }
}

pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use opendesc_telemetry::parse_json;

    #[test]
    fn objects_round_trip_through_the_reader() {
        let mut inner = Obj::new();
        inner.num("value", 1203.4567891234).str("unit", "cycles/op");
        let mut o = Obj::new();
        o.str("link", "in-process \"simulated\" NIC\n")
            .num("seed", 11.0)
            .bool("correct", true)
            .num("nan", f64::NAN)
            .raw("m", &inner.finish());
        let back = parse_json(&o.finish()).expect("writer emits valid JSON");
        assert_eq!(
            back.get("link").unwrap().as_str(),
            Some("in-process \"simulated\" NIC\n")
        );
        assert_eq!(back.get("seed").unwrap().as_f64(), Some(11.0));
        assert_eq!(
            back.get("m").unwrap().get("value").unwrap().as_f64(),
            Some(1203.4567891234),
            "numbers keep all their digits"
        );
        assert_eq!(
            back.get("nan"),
            Some(&opendesc_telemetry::Json::Null),
            "non-finite numbers are written as null"
        );
        assert_eq!(Obj::new().finish(), "{}");
    }
}
