//! The frontend is the same frontend: for each catalog contract and each
//! ill-formed source under `tests/frontend_golden/cases/` (the sources
//! the `opendesc-p4` unit tests reject, plus a block-scoping case), the
//! pretty-printed AST, the header/struct layouts and every diagnostic
//! must match the committed `.golden` byte for byte. The goldens were
//! written by the frontend as it stood before its tokens borrowed from
//! the source; regenerate them only for a deliberate change in what the
//! frontend accepts or reports:
//! `cargo test --test frontend_golden -- --ignored regenerate`.

use opendesc::nicsim::models;
use opendesc::p4::pretty::print_program;
use opendesc::p4::{parse_and_check, Severity};
use std::fmt::Write;
use std::path::PathBuf;

fn dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/frontend_golden")
}

/// Everything the rest of the tree can observe of one frontend run.
fn snapshot(src: &str) -> String {
    let (checked, diags) = parse_and_check(src);
    let mut o = String::from("== ast ==\n");
    o.push_str(&print_program(&checked.program));
    o.push_str("== layouts ==\n");
    // Names are symbols; the snapshot spells them out.
    let n = |s| checked.name(s);
    for h in &checked.types.headers {
        writeln!(o, "header {} width={}", n(h.name), h.width_bits).unwrap();
        for f in &h.fields {
            writeln!(
                o,
                "  {} offset={} width={} semantic={:?} cost={:?}",
                n(f.name),
                f.offset_bits,
                f.width_bits,
                f.semantic.map(n),
                f.cost
            )
            .unwrap();
        }
    }
    for s in &checked.types.structs {
        writeln!(o, "struct {}", n(s.name)).unwrap();
        for f in &s.fields {
            writeln!(o, "  {} : {}", n(f.name), checked.display(f.ty)).unwrap();
        }
    }
    for e in &checked.types.enums {
        let variants: Vec<&str> = e.variants.iter().map(|v| n(*v)).collect();
        writeln!(o, "enum {} bit<{}> {:?}", n(e.name), e.repr_width, variants).unwrap();
    }
    for c in &checked.types.consts {
        writeln!(
            o,
            "const {} : {} = {}",
            n(c.name),
            checked.display(c.ty),
            c.value
        )
        .unwrap();
    }
    o.push_str("== diagnostics ==\n");
    for d in diags.iter() {
        let sev = match d.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        writeln!(o, "{sev} {} {}", d.span, d.message).unwrap();
        for n in &d.notes {
            writeln!(o, "  note: {n}").unwrap();
        }
    }
    o
}

/// `(golden file stem, source)` for every case, in a stable order.
fn cases() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = models::catalog()
        .into_iter()
        .map(|m| (format!("catalog_{}", m.name), m.p4_source))
        .collect();
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir().join("cases"))
        .expect("tests/frontend_golden/cases exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "p4"))
        .collect();
    files.sort();
    for p in files {
        let stem = p.file_stem().unwrap().to_string_lossy().into_owned();
        out.push((stem, std::fs::read_to_string(&p).expect("case is UTF-8")));
    }
    out
}

#[test]
fn frontend_reproduces_the_committed_goldens() {
    let all = cases();
    assert!(all.len() >= 6 + 30, "cases went missing: {}", all.len());
    for (stem, src) in all {
        let path = dir().join(format!("{stem}.golden"));
        let want =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(snapshot(&src), want, "{stem}: frontend output drifted");
    }
}

#[test]
#[ignore = "writes tests/frontend_golden/*.golden"]
fn regenerate() {
    for (stem, src) in cases() {
        std::fs::write(dir().join(format!("{stem}.golden")), snapshot(&src)).unwrap();
    }
}
