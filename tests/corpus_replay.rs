//! Corpus regression: replay every pinned fuzzer configuration under
//! `tests/corpus/` on every push, so a layout that once diverged (or a
//! sweep that once found a bug) can never regress silently.
//!
//! Each corpus file is a tiny line-oriented TOML: `seed`, `nics`,
//! `intents_per_nic` (decimal or 0x-hex), plus `#` comments. New
//! fuzzer finds get pinned by adding a file — no code change.

use opendesc_reference::conformance;

#[derive(Debug, Default)]
struct Entry {
    seed: u64,
    nics: u64,
    intents_per_nic: u64,
}

fn parse_u64(v: &str) -> Option<u64> {
    if let Some(hex) = v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        v.parse().ok()
    }
}

fn parse_entry(path: &std::path::Path, src: &str) -> Entry {
    let mut e = Entry::default();
    for (i, line) in src.lines().enumerate() {
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let (k, v) = t
            .split_once('=')
            .unwrap_or_else(|| panic!("{}:{}: expected `key = value`", path.display(), i + 1));
        let v = parse_u64(v.trim())
            .unwrap_or_else(|| panic!("{}:{}: bad integer `{}`", path.display(), i + 1, v.trim()));
        match k.trim() {
            "seed" => e.seed = v,
            "nics" => e.nics = v,
            "intents_per_nic" => e.intents_per_nic = v,
            other => panic!("{}:{}: unknown key `{other}`", path.display(), i + 1),
        }
    }
    assert!(
        e.nics > 0 && e.intents_per_nic > 0,
        "{}: nics and intents_per_nic must be set",
        path.display()
    );
    e
}

#[test]
fn every_corpus_entry_replays_clean() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("tests/corpus exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "corpus must not be empty");
    for path in paths {
        let src = std::fs::read_to_string(&path).expect("readable corpus file");
        let e = parse_entry(&path, &src);
        let report = conformance::run(e.seed, e.nics, e.intents_per_nic);
        println!(
            "{}: negotiated={} refused={} tx={} divergences={}",
            path.file_name().unwrap().to_string_lossy(),
            report.layouts_negotiated,
            report.ebpf_refused,
            report.tx_checked,
            report.divergences.len()
        );
        if let Some(d) = report.divergences.first() {
            panic!(
                "{}: regressed — nic {} mask {:#010b}: {}",
                path.display(),
                d.nic_idx,
                d.intent_mask,
                d.detail
            );
        }
        assert_eq!(
            report.layouts_negotiated,
            e.nics * e.intents_per_nic,
            "{}: every pair must negotiate",
            path.display()
        );
    }
}
