//! The stock failure-policy tables are the *only* source of the five
//! file-system models' reactions to a failed device request — retry, stop
//! or propagate — but for the writes the paper found ignoring errors
//! (`PAPER-BUG`), which consult no table. (Mount and journal replay keep
//! a few fixed reactions of their own: an alternate superblock, an
//! aborted mount or replay.)
//!
//! Two checks, both against the tables themselves rather than against
//! constants in the file systems:
//!
//! * the rows encode the retry budgets and the stops the paper reports
//!   (§5.1–§5.4);
//! * under a sticky read or write fault on any block type, no operation
//!   of any Table 3 workload ever issues more device attempts at the
//!   faulted block than `1 +` the `Retry` budgets of the stock chain for
//!   that `(block type, direction)` — there is no loop left that could
//!   re-issue a request behind the table's back.

use iron_blockdev::StackBuilder;
use iron_core::recover::{ErrorClass, FailurePolicyTable, RecoveryAction};
use iron_core::{BlockTag, FaultKind, IoKind};
use iron_ext3::fs::ext3_stock_policy;
use iron_faultinject::{FaultPlan, FaultSpec, FaultStackExt, FaultTarget};
use iron_fingerprint::observe::most_attempts_in_one_step;
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
    // stops the system, anything else propagates. Writes are not retried;
    // a failed journal-superblock write stops the system.
    let jfs = jfs_stock_policy();
    let js_write = jfs.chain_for(JfsBlockType::JournalSuper.tag(), Write, ErrorClass::Io);
    assert_eq!(js_write, [RecoveryAction::Stop], "JFS write j-super");
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

    // §5.2: one retry on data, indirect and direct reads, none elsewhere;
    // every write but an ordered data block's stops the system ("first,
    // do no harm").
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
        if ty != ReiserBlockType::Data {
            let chain = reiser.chain_for(ty.tag(), Write, ErrorClass::Io);
            assert_eq!(chain, [RecoveryAction::Stop], "ReiserFS write {}", ty.tag());
        }
    }

    // §5.1: ext3 re-reads only the originally requested data block.
    let ext3 = ext3_stock_policy();
    assert_eq!(budget(&ext3, BlockTag("data"), Read), 1);
    assert_eq!(budget(&ext3, BlockTag("inode"), Read), 0);
    assert_eq!(budget(&ext3, BlockTag("data"), Write), 0);
}

/// How many times one operation of `workload` *requests* the faulted
/// block when the fault is sticky. Once, but for two ext3 behaviours that
/// come back to a block whose write just failed, with other I/O between:
fn requests(fs: &str, tag: BlockTag, io: IoKind, workload: Workload) -> usize {
    match (fs, tag.0, io, workload) {
        // a dirty mount writes the superblock while replaying the journal
        // and again when the mount completes;
        ("ext3" | "ixt3", "super", IoKind::Write, Workload::Recovery) => 2,
        // stock ext3 ignores a failed journal-superblock write (PAPER-BUG),
        // so a commit that could not mark the journal dirty goes on to
        // mark it clean.
        ("ext3", "j-super", IoKind::Write, Workload::SyncFamily | Workload::LogWrites) => 2,
        _ => 1,
    }
}

/// Every `(block type × direction × workload)` cell of `adapter` under a
/// sticky fault, armed the way the Figure 2 campaign arms it. Attempts are
/// counted per operation by the campaign's own step-scoped counter
/// ([`most_attempts_in_one_step`]); the mount is one operation, every
/// workload step another.
fn assert_attempts_bounded(adapter: &dyn FsUnderTest, table: &FailurePolicyTable) {
    let goldens = [adapter.golden(false), adapter.golden(true)];
    let (mut fired, mut exhausted) = (0, 0);
    for tag in adapter.rows() {
        for (io, kind) in [
            (IoKind::Read, FaultKind::ReadError),
            (IoKind::Write, FaultKind::WriteError),
        ] {
            let per_request = 1 + budget(table, tag, io) as usize;
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
                let trace = dev.inner().log();
                let mounted = adapter.mount(dev, FsEnv::new());
                let mut marks = vec![trace.len()];
                if let Ok(fs) = mounted {
                    ctl.arm(id);
                    marks.extend(run(workload, &mut Vfs::new(fs), Some(&trace)).step_trace_marks);
                }
                let Some(anchor) = ctl.anchor(id) else {
                    continue; // gray cell: the workload never touches the type
                };
                fired += 1;
                let worst = most_attempts_in_one_step(&trace.events(), &marks, |e| {
                    e.addr == anchor && e.kind == io && e.tag == tag
                });
                let allowed = per_request * requests(adapter.name(), tag, io, workload);
                exhausted += usize::from(per_request > 1 && worst == allowed);
                assert!(
                    worst <= allowed,
                    "{}: {worst} attempts at the faulted `{tag}` block in one operation of \
                     {workload:?} under a sticky {io} fault; the stock chain allows {allowed}",
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
