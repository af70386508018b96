//! The §3.2 ablation: lazy (on-access) versus eager (scrubbing) detection
//! of latent sector errors — detection latency and double-fault exposure
//! as a function of the scrub period — plus a live demonstration of the
//! ixt3 scrubber repairing silent corruption in place.

use iron_blockdev::{MemDisk, RawAccess};
use iron_core::{Block, BlockAddr};
use iron_ext3::{Ext3Fs, Ext3Options, Ext3Params, IronConfig};
use iron_faultinject::reliability::{simulate, ReliabilityParams};
use iron_ixt3::scrub::scrub;
use iron_vfs::{FsEnv, SpecificFs, Vfs};

fn main() {
    println!("== Monte-Carlo: latent-error detection latency vs. scrub period ==\n");
    let base = ReliabilityParams {
        num_blocks: 1 << 20,
        error_rate_per_block_hour: 2e-6,
        access_fraction_per_hour: 0.002,
        scrub_period_hours: None,
        redundancy_group: 2,
        duration_hours: 8760.0, // one year
        seed: 1,
    };
    println!(
        "{:<18} {:>10} {:>12} {:>14}",
        "strategy", "errors", "latency(h)", "double faults"
    );
    let lazy = simulate(&base);
    println!(
        "{:<18} {:>10} {:>12.1} {:>14}",
        "lazy (on access)",
        lazy.errors_arrived,
        lazy.mean_detection_latency_hours,
        lazy.double_faults
    );
    for period in [168.0, 72.0, 24.0, 6.0] {
        let r = simulate(&ReliabilityParams {
            scrub_period_hours: Some(period),
            ..base
        });
        println!(
            "{:<18} {:>10} {:>12.1} {:>14}",
            format!("scrub every {period}h"),
            r.errors_arrived,
            r.mean_detection_latency_hours,
            r.double_faults
        );
    }

    println!("\n== Live: ixt3 scrubber repairing silent corruption ==\n");
    let dev = MemDisk::for_tests(4096);
    let opts = Ext3Options::with_iron(IronConfig::full());
    let mut fs =
        Ext3Fs::format_and_mount(dev, FsEnv::new(), Ext3Params::small(), opts).expect("mount");
    {
        let mut v = Vfs::new(&mut fs as &mut dyn SpecificFs);
        for i in 0..10 {
            v.write_file(&format!("/f{i}"), &vec![i as u8 + 1; 30_000])
                .expect("write");
        }
        v.sync().expect("sync");
    }
    // Silently corrupt three blocks on the medium.
    let victims = [
        fs.layout().inode_table(0),
        fs.layout().data_start(0) + 7,
        fs.layout().data_start(0) + 19,
    ];
    for v in victims {
        fs.device_mut().poke(BlockAddr(v), &Block::filled(0xE5));
    }
    let report = scrub(&mut fs);
    println!(
        "scanned {} blocks: {} corruptions found, {} repaired in place, {} unrecoverable",
        report.scanned, report.corruptions, report.repaired, report.unrecoverable
    );
    assert_eq!(report.unrecoverable, 0, "full ixt3 repairs everything");
    println!("\n(lazy detection would have left these as land mines for the next reader)");
}
