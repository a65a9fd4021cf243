//! CI conformance job: the differential layout fuzzer at full scale.
//!
//! Negotiates ≥ 200 generated (NIC, intent, layout) triples per seed
//! and requires zero cross-path divergence (SoftNIC reference == tree
//! oracle == the rows an attached driver delivers in each disposition ==
//! eBPF windows, TX deparse bytes == `tx_descriptor`) plus byte-stable
//! manifest round-trips on every one. `CHAOS_SEED`
//! fans the exploration out across the CI matrix.
//!
//! On failure, a minimized reproducer (seed, intent mask, generated
//! contract, negotiated manifest) is written to
//! `target/conformance-repro/` — CI uploads that directory as an
//! artifact, and the case should be pinned under `tests/corpus/`.

use opendesc_reference::conformance;

fn env_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

#[test]
fn fuzzer_negotiates_200_layouts_with_zero_divergence() {
    let seed = 0xD1FF ^ env_seed().wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let report = conformance::run(seed, 64, 4);
    println!(
        "conformance: seed={seed:#x} nics={} negotiated={} served={} roundtripped={} tx={} refused={} divergences={}",
        report.nics,
        report.layouts_negotiated,
        report.datapath_served,
        report.manifests_roundtripped,
        report.tx_checked,
        report.ebpf_refused,
        report.divergences.len()
    );
    if !report.divergences.is_empty() {
        let dir = std::path::Path::new("target/conformance-repro");
        std::fs::create_dir_all(dir).expect("create repro dir");
        for (i, d) in report.divergences.iter().enumerate() {
            let stem = format!("div{i}_nic{}_mask{:#x}", d.nic_idx, d.intent_mask);
            std::fs::write(
                dir.join(format!("{stem}.md")),
                format!(
                    "# Conformance divergence\n\nCHAOS_SEED: {}\ncase seed: {:#x}\nnic index: {}\nminimized intent mask: {:#010b}\n\n{}\n\nReplay: `CHAOS_SEED={} cargo test --release --test conformance_fuzz`\n",
                    env_seed(),
                    d.seed,
                    d.nic_idx,
                    d.intent_mask,
                    d.detail,
                    env_seed()
                ),
            )
            .expect("write repro");
            std::fs::write(dir.join(format!("{stem}.p4")), &d.contract).expect("write contract");
            std::fs::write(dir.join(format!("{stem}.json")), &d.manifest).expect("write manifest");
        }
        let first = &report.divergences[0];
        panic!(
            "{} divergence(s); first: nic {} mask {:#010b}: {} (repro written to {})",
            report.divergences.len(),
            first.nic_idx,
            first.intent_mask,
            first.detail,
            dir.display()
        );
    }
    assert!(
        report.layouts_negotiated >= 200,
        "must negotiate >= 200 layouts, got {}",
        report.layouts_negotiated
    );
    assert_eq!(
        report.manifests_roundtripped, report.layouts_negotiated,
        "every negotiated layout's manifest must round-trip"
    );
    // Only a layout behind an opaque guard, which no context selects,
    // is refused at attach: 20-32 of 256 at seeds 0-4.
    assert!(
        report.datapath_served * 4 >= report.layouts_negotiated * 3,
        "the datapath must serve most negotiated layouts, served {}",
        report.datapath_served
    );
    assert!(
        report.tx_checked > 0,
        "some generated NICs must carry TX descriptors"
    );
    assert!(
        report.ebpf_refused > 0,
        "the adversarial sweep must exercise verifier refusals"
    );
}
