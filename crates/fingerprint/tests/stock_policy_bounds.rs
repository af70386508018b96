//! The stock failure-policy tables are the *only* source of retry
//! behaviour in the five file-system models.
//!
//! Two checks, both against the tables themselves rather than against
//! constants in the file systems:
//!
//! * the rows encode the retry budgets the paper reports (§5.1–§5.4);
//! * under a sticky read or write fault on any block type, no operation
//!   of any Table 3 workload ever issues more back-to-back device
//!   attempts at the faulted address than `1 +` the `Retry` budgets of
//!   the stock chain for that `(block type, direction)` — there is no
//!   loop left that could re-issue a request behind the table's back.

use iron_blockdev::{IoEvent, StackBuilder};
use iron_core::recover::{ErrorClass, FailurePolicyTable, RecoveryAction};
use iron_core::{BlockAddr, BlockTag, FaultKind, IoKind};
use iron_ext3::fs::ext3_stock_policy;
use iron_faultinject::{FaultPlan, FaultSpec, FaultStackExt, FaultTarget};
use iron_fingerprint::workloads::run;
use iron_fingerprint::{
    Ext3Adapter, FsUnderTest, JfsAdapter, NtfsAdapter, ReiserAdapter, Workload,
};
use iron_jfs::{jfs_stock_policy, JfsBlockType};
use iron_ntfs::{ntfs_stock_policy, NtfsBlockType};
use iron_reiser::{reiser_stock_policy, ReiserBlockType};
use iron_vfs::{FsEnv, Vfs};

/// Summed `Retry` budgets of the stock chain for an I/O error on
/// `(tag, io)`.
fn budget(table: &FailurePolicyTable, tag: BlockTag, io: IoKind) -> u32 {
    table
        .chain_for(tag, io, ErrorClass::Io)
        .iter()
        .map(|rung| match rung {
            RecoveryAction::Retry { budget, .. } => *budget,
            _ => 0,
        })
        .sum()
}

#[test]
fn stock_tables_carry_the_papers_retry_budgets() {
    use IoKind::{Read, Write};

    // §5.4: "up to seven times under read failures"; writes three times
    // for data blocks, two for MFT (and all other metadata) blocks.
    let ntfs = ntfs_stock_policy();
    for ty in NtfsBlockType::TABLE4_ROWS {
        assert_eq!(budget(&ntfs, ty.tag(), Read), 7, "NTFS read {}", ty.tag());
        let writes = if ty == NtfsBlockType::Data { 3 } else { 2 };
        assert_eq!(
            budget(&ntfs, ty.tag(), Write),
            writes,
            "NTFS write {}",
            ty.tag()
        );
    }

    // §5.3: the generic code retries every read once; a map block then
    // stops the system, anything else propagates. Writes are not retried.
    let jfs = jfs_stock_policy();
    for ty in JfsBlockType::FIGURE2_ROWS {
        assert_eq!(budget(&jfs, ty.tag(), Read), 1, "JFS read {}", ty.tag());
        assert_eq!(budget(&jfs, ty.tag(), Write), 0, "JFS write {}", ty.tag());
        let last = *jfs
            .chain_for(ty.tag(), Read, ErrorClass::Io)
            .last()
            .unwrap();
        let is_map = matches!(ty, JfsBlockType::Bmap | JfsBlockType::Imap);
        let expect = if is_map {
            RecoveryAction::Stop
        } else {
            RecoveryAction::Propagate
        };
        assert_eq!(last, expect, "JFS read {} ends in", ty.tag());
    }

    // §5.2: one retry on data, indirect and direct reads, none elsewhere.
    let reiser = reiser_stock_policy();
    for ty in ReiserBlockType::FIGURE2_ROWS {
        let retried = matches!(
            ty,
            ReiserBlockType::Data | ReiserBlockType::Indirect | ReiserBlockType::Direct
        );
        assert_eq!(
            budget(&reiser, ty.tag(), Read),
            u32::from(retried),
            "ReiserFS read {}",
            ty.tag()
        );
        assert_eq!(budget(&reiser, ty.tag(), Write), 0);
    }

    // §5.1: ext3 re-reads only the originally requested data block.
    let ext3 = ext3_stock_policy();
    assert_eq!(budget(&ext3, BlockTag("data"), Read), 1);
    assert_eq!(budget(&ext3, BlockTag("inode"), Read), 0);
    assert_eq!(budget(&ext3, BlockTag("data"), Write), 0);
}

/// The longest burst of back-to-back attempts at `anchor` within one
/// operation — a re-issue loop shows up as consecutive trace events at
/// the same address, whereas an operation that merely comes back to the
/// block later (a second request) has other I/O in between. The mount is
/// one operation (the trace up to `mounted`), every workload step another.
fn longest_burst(
    trace: &[IoEvent],
    mounted: usize,
    marks: &[usize],
    (anchor, io): (BlockAddr, IoKind),
) -> usize {
    let mut prev = 0;
    let mut worst = 0;
    for &end in [mounted].iter().chain(marks).chain([&trace.len()]) {
        let mut burst = 0;
        for e in &trace[prev..end] {
            burst = if e.addr == anchor && e.kind == io {
                burst + 1
            } else {
                0
            };
            worst = worst.max(burst);
        }
        prev = end;
    }
    worst
}

/// Every `(block type × direction × workload)` cell of `adapter` under a
/// sticky fault, armed the way the Figure 2 campaign arms it.
fn assert_attempts_bounded(adapter: &dyn FsUnderTest, table: &FailurePolicyTable) {
    let goldens = [adapter.golden(false), adapter.golden(true)];
    let (mut fired, mut exhausted) = (0, 0);
    for tag in adapter.rows() {
        for (io, kind) in [
            (IoKind::Read, FaultKind::ReadError),
            (IoKind::Write, FaultKind::WriteError),
        ] {
            let allowed = 1 + budget(table, tag, io) as usize;
            for workload in Workload::COLUMNS {
                let golden = &goldens[usize::from(workload == Workload::Recovery)];
                let plan = FaultPlan::new();
                let ctl = plan.controller();
                let id = ctl.inject(FaultSpec::sticky(kind, FaultTarget::TagNth { tag, nth: 0 }));
                if !workload.is_special() {
                    ctl.disarm(id);
                }
                let dev = StackBuilder::new(golden.snapshot())
                    .with_faults(plan)
                    .write_through()
                    .build();
                let trace = dev.inner().trace();
                let mounted = adapter.mount(dev, FsEnv::new());
                let at_mount = trace.len();
                let marks = match mounted {
                    Ok(fs) => {
                        ctl.arm(id);
                        run(workload, &mut Vfs::new(fs), Some(&trace)).step_trace_marks
                    }
                    Err(_) => Vec::new(),
                };
                let Some(anchor) = ctl.anchor(id) else {
                    continue; // gray cell: the workload never touches the type
                };
                fired += 1;
                let worst = longest_burst(&trace.events(), at_mount, &marks, (anchor, io));
                exhausted += usize::from(allowed > 1 && worst == allowed);
                assert!(
                    worst <= allowed,
                    "{}: {worst} back-to-back attempts at the faulted `{tag}` block in one operation \
                     of {workload:?} under a sticky {io} fault; the stock chain allows {allowed}",
                    adapter.name(),
                );
            }
        }
    }
    assert!(fired > 50, "{}: only {fired} faults fired", adapter.name());
    // The bound is tight: a sticky fault on a retried type runs its whole
    // budget, so a dropped re-issue would show here.
    assert!(exhausted > 0, "{}: no cell used its budget", adapter.name());
}

#[test]
fn ext3_attempts_stay_within_the_stock_chain() {
    assert_attempts_bounded(&Ext3Adapter::stock(), &ext3_stock_policy());
}

#[test]
fn ixt3_attempts_stay_within_the_stock_chain() {
    assert_attempts_bounded(&Ext3Adapter::ixt3(), &ext3_stock_policy());
}

#[test]
fn reiserfs_attempts_stay_within_the_stock_chain() {
    assert_attempts_bounded(&ReiserAdapter, &reiser_stock_policy());
}

#[test]
fn jfs_attempts_stay_within_the_stock_chain() {
    assert_attempts_bounded(&JfsAdapter, &jfs_stock_policy());
}

#[test]
fn ntfs_attempts_stay_within_the_stock_chain() {
    assert_attempts_bounded(&NtfsAdapter, &ntfs_stock_policy());
}
