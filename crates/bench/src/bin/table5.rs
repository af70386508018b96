//! Regenerate Table 5: the IRON-techniques summary across ext3, ReiserFS,
//! and JFS (and, for comparison, ixt3 — whose redundancy column is the
//! paper's point).

use iron_bench::{full_campaign, table5_report};
use iron_fingerprint::summary::summarize;

fn main() {
    let mut summaries = Vec::new();
    for fs in ["ext3", "reiserfs", "jfs", "ixt3"] {
        eprintln!("fingerprinting {fs}…");
        let m = full_campaign(fs);
        summaries.push(summarize(&m));
    }
    print!("{}", table5_report(&summaries));
}
