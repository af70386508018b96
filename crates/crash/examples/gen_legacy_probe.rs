//! Sensitivity probe: does the generated family catch the legacy
//! journal-bug knob? (Exploration aid; `tests/generated.rs` pins the
//! outcome.) Pass `seq3` to run the seq-3 family instead of seq-2.

use iron_crash::{generate_workloads, run_generated_campaign, CrashCampaignOptions, GenOptions};
use iron_fingerprint::Ext3Adapter;

fn main() {
    let seq3 = std::env::args().any(|a| a == "seq3");
    let wl = generate_workloads(&if seq3 {
        GenOptions::seq3()
    } else {
        GenOptions::seq2()
    });
    let fs = Ext3Adapter::stock().with_legacy_journal_bugs();
    let r = run_generated_campaign(&fs, &wl, &CrashCampaignOptions::default());
    let prefix: Vec<_> = r
        .violations
        .iter()
        .filter(|v| v.image.subset.is_empty())
        .collect();
    println!(
        "legacy_journal_bugs: violations={} pure-prefix={} dirty={}",
        r.violations.len(),
        prefix.len(),
        r.dirty_workloads
    );
    for v in prefix.iter().take(4) {
        println!("    {v}");
    }
}
