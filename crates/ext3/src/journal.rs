//! Journal block formats and the typestate transaction API.
//!
//! ext3-style full-block journaling (JBD): a transaction is a descriptor
//! block naming the home addresses, the journaled copies themselves, and a
//! commit block. Revoke blocks name addresses that must *not* be replayed.
//! The commit block optionally carries a **transactional checksum** over the
//! whole transaction (the paper's `Tc`, §6.1) — that is what lets ixt3 issue
//! the commit without waiting for the journal data, and what lets recovery
//! reject a partially written transaction.
//!
//! The in-memory transaction is a **typestate chain** (SquirrelFS-style):
//!
//! ```text
//! Txn<Building> --close()--> Txn<Closed> --log()--> Txn<Logged>
//!     --commit()--> Txn<Committed> --checkpoint_group()--> Txn<Checkpointed>
//!     --retire()--> sequence number
//! ```
//!
//! Each transition consumes the previous state, so the orderings the
//! paper's §2.2 failure analysis blames for most loss windows are
//! unrepresentable:
//!
//! * `revoke` exists only on [`Txn<Building>`] — a frozen or logged
//!   transaction cannot change its revoke set after its records are
//!   on disk;
//! * `forget` exists only on [`Txn<Committed>`] (JBD's `journal_forget`):
//!   dropping a freed block from the *checkpoint* set is meaningful only
//!   after the log copy is durable and before it is written home — the
//!   PR-1 freed-blocks-not-forgotten bug is now a type error;
//! * checkpointing is only reachable *through* [`Txn<Logged>::commit`],
//!   which issues the durable-commit barrier internally — home-location
//!   writes cannot start before the commit block is on its way;
//! * the clean journal superblock needs the sequence number that only
//!   [`Txn<Checkpointed>::retire`] returns — the journal cannot be marked
//!   clean while any committed transaction is still un-checkpointed.
//!
//! Group commit batches several [`Txn<Closed>`] into one logged unit via
//! [`Txn<Closed>::merge`]; pipelined checkpointing holds [`Txn<Committed>`]
//! back and later drains them in one deduplicated elevator sweep via
//! [`checkpoint_group`].

use std::collections::{BTreeMap, BTreeSet, HashMap};

use iron_core::checksum::sha1;
use iron_core::{Block, BLOCK_SIZE};

use crate::layout::BlockType;

/// Magic for the journal superblock.
pub const JSUPER_MAGIC: u32 = 0xC03B_3998; // JBD's real magic
/// Block-type discriminator within journal control blocks.
const JDESC_KIND: u32 = 1;
const JCOMMIT_KIND: u32 = 2;
const JREVOKE_KIND: u32 = 5;

/// Decoded journal superblock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JournalSuper {
    /// Next transaction sequence number.
    pub sequence: u64,
    /// True if the log may contain committed-but-not-checkpointed
    /// transactions (recovery needed).
    pub dirty: bool,
    /// Length of the log area in blocks.
    pub log_len: u64,
}

impl JournalSuper {
    /// Serialize.
    pub fn encode(&self) -> Block {
        let mut b = Block::zeroed();
        b.put_u32(0, JSUPER_MAGIC);
        b.put_u64(8, self.sequence);
        b.put_u32(16, u32::from(self.dirty));
        b.put_u64(24, self.log_len);
        b
    }

    /// Decode; `None` on bad magic (ext3 *does* type-check its journal
    /// superblock — §5.1).
    pub fn decode(b: &Block) -> Option<JournalSuper> {
        if b.get_u32(0) != JSUPER_MAGIC {
            return None;
        }
        Some(JournalSuper {
            sequence: b.get_u64(8),
            dirty: b.get_u32(16) != 0,
            log_len: b.get_u64(24),
        })
    }
}

/// Maximum home-address records in one descriptor block.
pub const DESC_CAPACITY: usize = (BLOCK_SIZE - 32) / 12;

/// A journal descriptor block: the home addresses (and types) of the
/// journaled copies that follow it in the log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DescriptorBlock {
    /// Transaction sequence number.
    pub sequence: u64,
    /// (home address, block type) per following journal-data block.
    pub entries: Vec<(u64, BlockType)>,
}

impl DescriptorBlock {
    /// Serialize.
    ///
    /// # Panics
    /// Panics if there are more than [`DESC_CAPACITY`] entries.
    pub fn encode(&self) -> Block {
        assert!(self.entries.len() <= DESC_CAPACITY, "descriptor overflow");
        let mut b = Block::zeroed();
        b.put_u32(0, JSUPER_MAGIC);
        b.put_u32(4, JDESC_KIND);
        b.put_u64(8, self.sequence);
        b.put_u32(16, self.entries.len() as u32);
        let mut off = 32;
        for (addr, ty) in &self.entries {
            b.put_u64(off, *addr);
            b[off + 8] = ty.code();
            off += 12;
        }
        b
    }

    /// Decode; `None` on bad magic/kind/counts (ext3 type-checks journal
    /// descriptor blocks).
    pub fn decode(b: &Block) -> Option<DescriptorBlock> {
        if b.get_u32(0) != JSUPER_MAGIC || b.get_u32(4) != JDESC_KIND {
            return None;
        }
        let count = b.get_u32(16) as usize;
        if count > DESC_CAPACITY {
            return None;
        }
        let mut entries = Vec::with_capacity(count);
        let mut off = 32;
        for _ in 0..count {
            let addr = b.get_u64(off);
            let ty = BlockType::from_code(b[off + 8])?;
            entries.push((addr, ty));
            off += 12;
        }
        Some(DescriptorBlock {
            sequence: b.get_u64(8),
            entries,
        })
    }
}

/// A journal commit block, optionally carrying a transactional checksum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommitBlock {
    /// Transaction sequence number.
    pub sequence: u64,
    /// Transactional checksum over descriptor + journal data (present only
    /// when `Tc` is enabled).
    pub txn_checksum: Option<u64>,
}

impl CommitBlock {
    /// Serialize.
    pub fn encode(&self) -> Block {
        let mut b = Block::zeroed();
        b.put_u32(0, JSUPER_MAGIC);
        b.put_u32(4, JCOMMIT_KIND);
        b.put_u64(8, self.sequence);
        match self.txn_checksum {
            Some(c) => {
                b.put_u32(16, 1);
                b.put_u64(24, c);
            }
            None => b.put_u32(16, 0),
        }
        b
    }

    /// Decode; `None` on bad magic/kind.
    pub fn decode(b: &Block) -> Option<CommitBlock> {
        if b.get_u32(0) != JSUPER_MAGIC || b.get_u32(4) != JCOMMIT_KIND {
            return None;
        }
        let txn_checksum = if b.get_u32(16) != 0 {
            Some(b.get_u64(24))
        } else {
            None
        };
        Some(CommitBlock {
            sequence: b.get_u64(8),
            txn_checksum,
        })
    }
}

/// A revoke block: home addresses that must not be replayed from earlier
/// transactions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RevokeBlock {
    /// Transaction sequence number.
    pub sequence: u64,
    /// Revoked home addresses.
    pub addrs: Vec<u64>,
}

/// Maximum addresses in one revoke block.
pub const REVOKE_CAPACITY: usize = (BLOCK_SIZE - 32) / 8;

impl RevokeBlock {
    /// Serialize.
    ///
    /// # Panics
    /// Panics if there are more than [`REVOKE_CAPACITY`] addresses.
    pub fn encode(&self) -> Block {
        assert!(self.addrs.len() <= REVOKE_CAPACITY, "revoke overflow");
        let mut b = Block::zeroed();
        b.put_u32(0, JSUPER_MAGIC);
        b.put_u32(4, JREVOKE_KIND);
        b.put_u64(8, self.sequence);
        b.put_u32(16, self.addrs.len() as u32);
        let mut off = 32;
        for a in &self.addrs {
            b.put_u64(off, *a);
            off += 8;
        }
        b
    }

    /// Decode; `None` on bad magic/kind/count.
    pub fn decode(b: &Block) -> Option<RevokeBlock> {
        if b.get_u32(0) != JSUPER_MAGIC || b.get_u32(4) != JREVOKE_KIND {
            return None;
        }
        let count = b.get_u32(16) as usize;
        if count > REVOKE_CAPACITY {
            return None;
        }
        let mut addrs = Vec::with_capacity(count);
        let mut off = 32;
        for _ in 0..count {
            addrs.push(b.get_u64(off));
            off += 8;
        }
        Some(RevokeBlock {
            sequence: b.get_u64(8),
            addrs,
        })
    }
}

/// Which kind of journal block a log block decodes as.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalRecord {
    /// A descriptor block.
    Descriptor(DescriptorBlock),
    /// A commit block.
    Commit(CommitBlock),
    /// A revoke block.
    Revoke(RevokeBlock),
}

/// Classify a journal log block (used by recovery and by the gray-box
/// classifier in `iron-fingerprint`).
pub fn classify_log_block(b: &Block) -> Option<JournalRecord> {
    if b.get_u32(0) != JSUPER_MAGIC {
        return None;
    }
    match b.get_u32(4) {
        JDESC_KIND => DescriptorBlock::decode(b).map(JournalRecord::Descriptor),
        JCOMMIT_KIND => CommitBlock::decode(b).map(JournalRecord::Commit),
        JREVOKE_KIND => RevokeBlock::decode(b).map(JournalRecord::Revoke),
        _ => None,
    }
}

/// The transactional checksum (`Tc`, §6.1) as a running state, folded one
/// log image at a time in log order (revokes, descriptors, journal data):
/// the SHA-1 of the images' truncated SHA-1 digests, 8 bytes each, in that
/// order. Each digest binds its image and the sequence binds the order, so
/// a torn, changed or reordered image changes `Tc`.
///
/// This is the one definition of `Tc`. Commit folds while it writes the
/// log ([`Txn<Closed>::log`]), replay folds while it reads it back, and
/// [`txn_checksum`] folds a slice.
#[derive(Debug, Default)]
pub struct TcFold {
    /// The final SHA-1's input: 8 digest bytes per image folded so far.
    digests: Vec<u8>,
}

#[cfg(test)]
thread_local! {
    /// SHA-1 calls [`TcFold::fold`] made on this thread (the hash-once test).
    static FOLD_SHA1_CALLS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl TcFold {
    /// Fold in the next log image. `digest` is the image's truncated
    /// SHA-1 ([`Sha1Digest::truncated64`](iron_core::checksum::Sha1Digest::truncated64))
    /// when the caller has already computed it — under `Mc` the checksum
    /// table holds exactly that for every block it covers — and `None`
    /// when the image has to be hashed here.
    pub fn fold(&mut self, image: &Block, digest: Option<u64>) {
        let digest = digest.unwrap_or_else(|| {
            #[cfg(test)]
            FOLD_SHA1_CALLS.with(|c| c.set(c.get() + 1));
            sha1(&image[..]).truncated64()
        });
        self.digests.extend_from_slice(&digest.to_be_bytes());
    }

    /// Number of images folded so far.
    pub fn images(&self) -> usize {
        self.digests.len() / 8
    }

    /// The checksum the commit block carries.
    pub fn finish(self) -> u64 {
        sha1(&self.digests).truncated64()
    }
}

/// Compute a transactional checksum over the revoke, descriptor and
/// journal-data blocks of a transaction: [`TcFold`] over a slice.
pub fn txn_checksum(blocks: &[&Block]) -> u64 {
    let mut tc = TcFold::default();
    for b in blocks {
        tc.fold(b, None);
    }
    tc.finish()
}

// ======================================================================
// Typestate transaction chain
// ======================================================================

/// Where the next journal write goes. Implemented by the file system (it
/// owns the device and the log cursor); the typestate transitions drive it
/// so the *order* of log writes and barriers is fixed by the types, not by
/// call-site discipline.
pub trait LogSink {
    /// Write `block` into the next log slot; `false` on a device write
    /// error (recorded, policy applied by the caller's `fix_bugs` check).
    fn append(&mut self, block: &Block, ty: BlockType) -> bool;
    /// Issue an ordering barrier to the device.
    fn barrier(&mut self);
}

/// State: accepting `put`/`revoke` from running operations.
#[derive(Debug, Default)]
pub struct Building {
    order: Vec<u64>,
    map: HashMap<u64, (Block, BlockType)>,
    revoked: BTreeSet<u64>,
}

/// State: frozen block set awaiting (group) commit. Accepts `merge` of
/// later closed transactions but no new dirty blocks or revokes.
#[derive(Debug)]
pub struct Closed {
    order: Vec<u64>,
    map: HashMap<u64, (Block, BlockType)>,
    revoked: BTreeSet<u64>,
    /// How many closed transactions were merged into this batch.
    merged: usize,
}

/// State: revoke/descriptor/data records are in the log; the commit block
/// is not. Dropping a `Txn<Logged>` aborts the transaction (nothing will
/// replay without a commit block).
#[derive(Debug)]
pub struct Logged {
    sequence: u64,
    map: HashMap<u64, (Block, BlockType)>,
    /// `Tc` folded over every log image in log order (revokes,
    /// descriptors, data); `None` when the transaction was logged without
    /// a transactional checksum.
    tc: Option<TcFold>,
    log_write_failed: bool,
}

/// State: the commit block is durable (the transition issued the
/// barrier); home locations may still be stale until checkpoint.
#[derive(Debug)]
#[must_use = "a committed transaction must be checkpointed (or explicitly abandoned)"]
pub struct Committed {
    sequence: u64,
    map: HashMap<u64, (Block, BlockType)>,
    commit_write_failed: bool,
}

/// State: home-location writes issued; retire() yields the sequence the
/// clean journal superblock may advance to.
#[derive(Debug)]
pub struct Checkpointed {
    sequence: u64,
}

/// A journal transaction in typestate `S`. See the module docs for the
/// chain and what each transition forbids.
#[derive(Debug, Default)]
pub struct Txn<S = Building> {
    st: S,
}

impl Txn<Building> {
    /// An empty running transaction.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stage a dirty metadata block.
    pub fn put(&mut self, addr: u64, block: Block, ty: BlockType) {
        if !self.st.map.contains_key(&addr) {
            self.st.order.push(addr);
        }
        self.st.map.insert(addr, (block, ty));
        self.st.revoked.remove(&addr);
    }

    /// Fetch the staged copy of `addr`, if any.
    pub fn get(&self, addr: u64) -> Option<&Block> {
        self.st.map.get(&addr).map(|(b, _)| b)
    }

    /// The staged copy of `addr` to edit in place, if it is staged as
    /// `ty` (`None` on a type mismatch: restaging under another type is a
    /// [`Self::put`]).
    pub fn get_mut(&mut self, addr: u64, ty: BlockType) -> Option<&mut Block> {
        match self.st.map.get_mut(&addr) {
            Some((b, staged)) if *staged == ty => Some(b),
            _ => None,
        }
    }

    /// Revoke `addr`: drop any staged copy and record the revocation so
    /// replay won't resurrect older logged copies.
    pub fn revoke(&mut self, addr: u64) {
        if self.st.map.remove(&addr).is_some() {
            self.st.order.retain(|a| *a != addr);
        }
        self.st.revoked.insert(addr);
    }

    /// Addresses revoked in this transaction.
    pub fn revoked(&self) -> impl Iterator<Item = u64> + '_ {
        self.st.revoked.iter().copied()
    }

    /// Number of dirty blocks.
    pub fn len(&self) -> usize {
        self.st.order.len()
    }

    /// True if there is nothing to commit.
    pub fn is_empty(&self) -> bool {
        self.st.order.is_empty() && self.st.revoked.is_empty()
    }

    /// Freeze the block set: no further `put`/`revoke` is possible on the
    /// result — group-commit batching and logging operate on closed
    /// transactions only.
    pub fn close(self) -> Txn<Closed> {
        Txn {
            st: Closed {
                order: self.st.order,
                map: self.st.map,
                revoked: self.st.revoked,
                merged: 1,
            },
        }
    }
}

impl Txn<Closed> {
    /// Group commit: absorb `later` (a transaction closed *after* this
    /// one) into this batch. Later puts override earlier staged copies;
    /// later revokes drop earlier staged copies — exactly the state the
    /// disk would reach replaying the two transactions in order, so the
    /// merged batch can be logged under a single sequence number with one
    /// descriptor chain, one commit block, and one barrier.
    pub fn merge(mut self, mut later: Txn<Closed>) -> Txn<Closed> {
        for addr in later.st.order {
            let staged = later
                .st
                .map
                .remove(&addr)
                .expect("ordered blocks are staged");
            if self.st.map.insert(addr, staged).is_none() {
                self.st.order.push(addr);
            }
            self.st.revoked.remove(&addr);
        }
        for addr in later.st.revoked {
            if self.st.map.remove(&addr).is_some() {
                self.st.order.retain(|a| *a != addr);
            }
            self.st.revoked.insert(addr);
        }
        self.st.merged += later.st.merged;
        self
    }

    /// Fetch the staged copy of `addr`, if any (read path: a closed
    /// batch is newer than anything committed or on disk).
    pub fn get(&self, addr: u64) -> Option<&Block> {
        self.st.map.get(&addr).map(|(b, _)| b)
    }

    /// Number of dirty blocks.
    pub fn len(&self) -> usize {
        self.st.order.len()
    }

    /// True if there is nothing to commit.
    pub fn is_empty(&self) -> bool {
        self.st.order.is_empty() && self.st.revoked.is_empty()
    }

    /// How many closed transactions this batch merges.
    pub fn batched(&self) -> usize {
        self.st.merged
    }

    /// Final block images, in first-dirty order (checksum staging).
    pub fn blocks(&self) -> impl Iterator<Item = (u64, &Block, BlockType)> {
        self.st.order.iter().map(|a| {
            let (b, t) = &self.st.map[a];
            (*a, b, *t)
        })
    }

    /// Log blocks this batch will occupy: revoke chunks + descriptor
    /// chunks + data + the commit block.
    pub fn log_space_needed(&self) -> u64 {
        1 + self.st.order.len() as u64
            + self.st.order.len().div_ceil(DESC_CAPACITY) as u64
            + self.st.revoked.len().div_ceil(REVOKE_CAPACITY.max(1)) as u64
    }

    /// Write this batch's revoke records, descriptors, and journal-data
    /// copies to the log under `sequence`.
    ///
    /// `tc` is `Some` when the transaction commits with a transactional
    /// checksum: every image is folded into `Tc` as it is written, and
    /// the lookup is asked for each journaled block's truncated SHA-1 by
    /// home address and type (see [`TcFold::fold`]). A lookup that knows
    /// nothing (`&|_, _| None`) is always correct.
    pub fn log<W: LogSink>(
        self,
        sequence: u64,
        sink: &mut W,
        tc: Option<&dyn Fn(u64, BlockType) -> Option<u64>>,
    ) -> Txn<Logged> {
        let mut failed = false;
        let mut fold = tc.map(|_| TcFold::default());
        let mut feed = |image: &Block, digest: Option<u64>| {
            if let Some(f) = &mut fold {
                f.fold(image, digest);
            }
        };

        // Ordered-mode barrier: home-location data writes issued while the
        // batch's transactions were building must reach the platter before
        // any journal block. JBD waits for ordered data writeback here; Tc
        // removes only the *pre-commit* barrier (journal data vs. commit
        // block), never this one — the transactional checksum covers the
        // log copies, not home data, so a commit racing ordered data would
        // validate a transaction whose file contents never landed (found
        // by the iron-crash enumerator on the batched workloads).
        sink.barrier();

        let revoked: Vec<u64> = self.st.revoked.iter().copied().collect();
        for chunk in revoked.chunks(REVOKE_CAPACITY.max(1)) {
            let rb = RevokeBlock {
                sequence,
                addrs: chunk.to_vec(),
            }
            .encode();
            failed |= !sink.append(&rb, BlockType::JournalRevoke);
            feed(&rb, None);
        }

        for chunk in self.st.order.chunks(DESC_CAPACITY) {
            let desc = DescriptorBlock {
                sequence,
                entries: chunk.iter().map(|a| (*a, self.st.map[a].1)).collect(),
            }
            .encode();
            failed |= !sink.append(&desc, BlockType::JournalDesc);
            feed(&desc, None);
            for addr in chunk {
                let (b, ty) = &self.st.map[addr];
                failed |= !sink.append(b, BlockType::JournalData);
                feed(b, tc.and_then(|known| known(*addr, *ty)));
            }
        }

        Txn {
            st: Logged {
                sequence,
                map: self.st.map,
                tc: fold,
                log_write_failed: failed,
            },
        }
    }
}

impl Txn<Logged> {
    /// This transaction's sequence number.
    pub fn sequence(&self) -> u64 {
        self.st.sequence
    }

    /// True if any log write failed (`fix_bugs` aborts here by *dropping*
    /// the `Txn<Logged>` — without a commit block nothing replays).
    pub fn log_write_failed(&self) -> bool {
        self.st.log_write_failed
    }

    /// Number of log images (revokes + descriptors + data) folded into
    /// `Tc` — the checksum's input size, for CPU-cost accounting. Zero
    /// for a transaction logged without `Tc`.
    pub fn log_block_count(&self) -> usize {
        self.st.tc.as_ref().map_or(0, TcFold::images)
    }

    /// Write the commit block and make it durable. This transition owns
    /// the commit-path ordering:
    ///
    /// * logged without `Tc`, a barrier is issued *before* the commit
    ///   block so it cannot pass its own journal data;
    /// * logged with `Tc` the pre-barrier is skipped and the commit block
    ///   carries the checksum folded over every log image (§6.1);
    /// * a barrier is always issued *after* the commit block — a
    ///   `Txn<Committed>` is durable by construction, and checkpoint
    ///   writes (only reachable from `Committed`) cannot overtake it.
    pub fn commit<W: LogSink>(self, sink: &mut W) -> Txn<Committed> {
        let txn_checksum = self.st.tc.map(TcFold::finish);
        if txn_checksum.is_none() {
            sink.barrier();
        }
        let commit = CommitBlock {
            sequence: self.st.sequence,
            txn_checksum,
        }
        .encode();
        let commit_write_failed = !sink.append(&commit, BlockType::JournalCommit);
        sink.barrier();
        Txn {
            st: Committed {
                sequence: self.st.sequence,
                map: self.st.map,
                commit_write_failed,
            },
        }
    }
}

impl Txn<Committed> {
    /// This transaction's sequence number.
    pub fn sequence(&self) -> u64 {
        self.st.sequence
    }

    /// True if the commit-block write failed.
    pub fn commit_write_failed(&self) -> bool {
        self.st.commit_write_failed
    }

    /// Fetch the not-yet-checkpointed copy of `addr`, if any (read path:
    /// with pipelined checkpointing the home location is stale until the
    /// drain, and the FS-internal cache may have evicted the block).
    pub fn get(&self, addr: u64) -> Option<&Block> {
        self.st.map.get(&addr).map(|(b, _)| b)
    }

    /// Blocks still awaiting checkpoint.
    pub fn len(&self) -> usize {
        self.st.map.len()
    }

    /// JBD `journal_forget`: drop `addr` from the checkpoint set. Called
    /// when a later transaction frees the block — the log copy stays (a
    /// later revoke record suppresses it on replay), but a deferred
    /// checkpoint must not write the stale image over a reused block.
    pub fn forget(&mut self, addr: u64) {
        self.st.map.remove(&addr);
    }

    /// Drop the transaction without checkpointing, leaving home locations
    /// stale and the journal dirty: `Ext3Fs::commit`'s `fix_bugs` path
    /// when the commit-block write fails (the journal aborts). The name
    /// makes "committed but never checkpointed" a grep-able decision.
    pub fn abandon(self) {
        drop(self);
    }
}

/// The result of checkpointing a group of committed transactions.
pub struct CheckpointSweep {
    /// The checkpointed transactions, oldest first.
    pub txns: Vec<Txn<Checkpointed>>,
    /// What the sweep actually wrote: deduplicated across the group
    /// (newest copy wins), address-sorted. The FS mirrors metadata from
    /// this list.
    pub written: Vec<(u64, Block, BlockType)>,
    /// True if any home-location write failed.
    pub write_failed: bool,
}

/// Checkpoint a group of committed transactions (oldest first) in one
/// elevator sweep: blocks dirtied by several transactions in the group
/// are written once, with the newest image — the kernel's writeback
/// submits checkpoint I/O in address order, and deduplication is where
/// pipelined checkpointing wins over checkpoint-per-commit.
///
/// `write_home` performs one home-location write, returning `false` on a
/// device error.
pub fn checkpoint_group<F>(group: Vec<Txn<Committed>>, mut write_home: F) -> CheckpointSweep
where
    F: FnMut(u64, &Block, BlockType) -> bool,
{
    let mut merged: BTreeMap<u64, (Block, BlockType)> = BTreeMap::new();
    let mut sequences = Vec::with_capacity(group.len());
    for txn in group {
        sequences.push(txn.st.sequence);
        merged.extend(txn.st.map);
    }
    let mut write_failed = false;
    let mut written = Vec::with_capacity(merged.len());
    for (addr, (b, ty)) in merged {
        write_failed |= !write_home(addr, &b, ty);
        written.push((addr, b, ty));
    }
    let txns = sequences
        .into_iter()
        .map(|sequence| Txn {
            st: Checkpointed { sequence },
        })
        .collect();
    CheckpointSweep {
        txns,
        written,
        write_failed,
    }
}

impl Txn<Checkpointed> {
    /// This transaction's sequence number.
    pub fn sequence(&self) -> u64 {
        self.st.sequence
    }

    /// Consume the transaction; the returned sequence is what the clean
    /// journal superblock may record. This is the only way a transaction
    /// leaves the chain successfully, so "journal marked clean before
    /// checkpoint finished" cannot be written by accident.
    pub fn retire(self) -> u64 {
        self.st.sequence
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_super_round_trip() {
        let js = JournalSuper {
            sequence: 42,
            dirty: true,
            log_len: 256,
        };
        assert_eq!(JournalSuper::decode(&js.encode()), Some(js));
        assert_eq!(JournalSuper::decode(&Block::zeroed()), None);
    }

    #[test]
    fn descriptor_round_trip() {
        let d = DescriptorBlock {
            sequence: 9,
            entries: vec![(100, BlockType::Inode), (200, BlockType::Dir)],
        };
        assert_eq!(DescriptorBlock::decode(&d.encode()), Some(d));
    }

    #[test]
    fn descriptor_rejects_commit_block() {
        let c = CommitBlock {
            sequence: 9,
            txn_checksum: None,
        };
        assert_eq!(DescriptorBlock::decode(&c.encode()), None);
    }

    #[test]
    fn commit_round_trip_with_and_without_checksum() {
        for cks in [None, Some(0xDEAD_BEEF_u64)] {
            let c = CommitBlock {
                sequence: 3,
                txn_checksum: cks,
            };
            assert_eq!(CommitBlock::decode(&c.encode()), Some(c));
        }
    }

    #[test]
    fn revoke_round_trip() {
        let r = RevokeBlock {
            sequence: 5,
            addrs: vec![1, 2, 77],
        };
        assert_eq!(RevokeBlock::decode(&r.encode()), Some(r));
    }

    #[test]
    fn classify_distinguishes_kinds() {
        let d = DescriptorBlock {
            sequence: 1,
            entries: vec![],
        };
        let c = CommitBlock {
            sequence: 1,
            txn_checksum: None,
        };
        let r = RevokeBlock {
            sequence: 1,
            addrs: vec![],
        };
        assert!(matches!(
            classify_log_block(&d.encode()),
            Some(JournalRecord::Descriptor(_))
        ));
        assert!(matches!(
            classify_log_block(&c.encode()),
            Some(JournalRecord::Commit(_))
        ));
        assert!(matches!(
            classify_log_block(&r.encode()),
            Some(JournalRecord::Revoke(_))
        ));
        assert_eq!(classify_log_block(&Block::filled(0xAA)), None);
    }

    #[test]
    fn txn_checksum_detects_any_block_change() {
        let a = Block::filled(1);
        let b = Block::filled(2);
        let c = Block::filled(3);
        let base = txn_checksum(&[&a, &b, &c]);
        let mut b2 = b.clone();
        b2[100] ^= 1;
        assert_ne!(txn_checksum(&[&a, &b2, &c]), base);
        // Every swap of two images, adjacent or not, moves `Tc`.
        assert_ne!(txn_checksum(&[&b, &a, &c]), base, "order matters");
        assert_ne!(txn_checksum(&[&a, &c, &b]), base, "order matters");
        assert_ne!(txn_checksum(&[&c, &b, &a]), base, "order matters");
        // A torn transaction (an image missing) and a repeated image too.
        assert_ne!(txn_checksum(&[&a, &b]), base, "torn");
        assert_ne!(txn_checksum(&[&a, &b, &c, &c]), base, "repeated");
        assert_eq!(txn_checksum(&[&a, &b, &c]), base, "deterministic");
    }

    /// Hash-once: under `Mc`+`Tc` the checksum-table pass in `commit()`
    /// is the only SHA-1 a journaled image gets. What the fold still
    /// hashes is exactly what no table entry covers — revoke blocks,
    /// descriptors, and the table's own blocks.
    #[test]
    fn commit_under_mc_and_tc_hashes_no_checksummed_image_twice() {
        use crate::{Ext3Fs, Ext3Options, Ext3Params, IronConfig};
        use iron_blockdev::{MemDisk, RawAccess};
        use iron_core::BlockAddr;
        use iron_vfs::{FsEnv, Vfs};

        let mut dev = MemDisk::for_tests(4096);
        Ext3Fs::<MemDisk>::mkfs(&mut dev, Ext3Params::small()).unwrap();
        let opts = Ext3Options {
            checkpoint_lag: usize::MAX, // keep both transactions in the log
            ..Ext3Options::with_iron(IronConfig {
                meta_checksum: true,
                txn_checksum: true,
                ..IronConfig::off()
            })
        };
        let mut v = Vfs::new(Ext3Fs::mount(dev, FsEnv::new(), opts).unwrap());
        v.mkdir("/a", 0o755).unwrap();
        v.write_file("/a/f", &[7u8; 9000]).unwrap();
        v.sync().unwrap();
        v.unlink("/a/f").unwrap(); // frees blocks: the next commit carries a revoke
        v.mkdir("/b", 0o755).unwrap();
        FOLD_SHA1_CALLS.with(|c| c.set(0));
        v.sync().unwrap();
        let hashed_in_fold = FOLD_SHA1_CALLS.with(std::cell::Cell::get);

        // Read the second transaction back and count its images by kind.
        let layout = *v.fs().layout();
        let dev = v.into_fs().into_device();
        let (mut control, mut table, mut data, mut commits) = (0, 0, 0, 0);
        let mut pos = layout.journal_start;
        while commits < 2 {
            let record = classify_log_block(&dev.peek(BlockAddr(pos))).expect("a control block");
            pos += 1;
            let second = commits == 1;
            match record {
                JournalRecord::Commit(_) => commits += 1,
                JournalRecord::Revoke(_) => control += usize::from(second),
                JournalRecord::Descriptor(d) => {
                    pos += d.entries.len() as u64;
                    if second {
                        control += 1;
                        data += d.entries.len();
                        let is_table = |e: &&(u64, BlockType)| e.1 == BlockType::CksumTable;
                        table += d.entries.iter().filter(is_table).count();
                    }
                }
            }
        }
        assert!(
            control >= 2 && table >= 1,
            "a revoke, a descriptor, a table block"
        );
        assert!(
            data > table,
            "the transaction journals checksummed metadata"
        );
        assert_eq!(hashed_in_fold, control + table);
    }

    #[test]
    fn txn_staging_and_revoke() {
        let mut t = Txn::new();
        assert!(t.is_empty());
        t.put(10, Block::filled(1), BlockType::Inode);
        t.put(20, Block::filled(2), BlockType::Dir);
        t.put(10, Block::filled(3), BlockType::Inode); // overwrite keeps order
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(10), Some(&Block::filled(3)));
        // In place only under the staged type.
        assert!(t.get_mut(10, BlockType::Indirect).is_none());
        t.get_mut(10, BlockType::Inode).unwrap()[0] = 9;
        assert_eq!(t.get(10).unwrap()[0], 9);
        assert!(t.get_mut(30, BlockType::Inode).is_none());

        t.revoke(20);
        assert_eq!(t.len(), 1);
        assert!(t.revoked().any(|a| a == 20));
        // Re-dirtying un-revokes.
        t.put(20, Block::filled(4), BlockType::Dir);
        assert!(!t.revoked().any(|a| a == 20));

        let closed = t.close();
        let addrs: Vec<u64> = closed.blocks().map(|(a, _, _)| a).collect();
        assert_eq!(addrs, vec![10, 20]);
    }

    /// An in-memory log that records what the typestate transitions wrote
    /// and when barriers fired, so the tests can check ordering.
    #[derive(Default)]
    struct VecLog {
        events: Vec<String>,
        head: u64,
    }

    impl LogSink for VecLog {
        fn append(&mut self, block: &Block, ty: BlockType) -> bool {
            self.events.push(format!("w:{}@{}", ty.tag(), self.head));
            let _ = block;
            self.head += 1;
            true
        }
        fn barrier(&mut self) {
            self.events.push("barrier".into());
        }
    }

    #[test]
    fn merge_applies_later_puts_and_revokes() {
        let mut a = Txn::new();
        a.put(10, Block::filled(1), BlockType::Inode);
        a.put(20, Block::filled(2), BlockType::Dir);
        let mut b = Txn::new();
        b.put(10, Block::filled(9), BlockType::Inode); // overrides a's copy
        b.revoke(20); // frees a's block
        b.put(30, Block::filled(3), BlockType::DataBitmap);
        let batch = a.close().merge(b.close());
        assert_eq!(batch.batched(), 2);
        assert_eq!(batch.get(10), Some(&Block::filled(9)));
        assert_eq!(batch.get(20), None, "merged revoke drops staged copy");
        assert_eq!(batch.get(30), Some(&Block::filled(3)));
        // 2 data blocks + 1 descriptor + 1 revoke chunk + 1 commit.
        assert_eq!(batch.log_space_needed(), 5);
    }

    #[test]
    fn commit_without_tc_barriers_before_and_after_commit_block() {
        let mut t = Txn::new();
        t.put(10, Block::filled(1), BlockType::Inode);
        let mut log = VecLog::default();
        let logged = t.close().log(7, &mut log, None);
        assert_eq!(logged.sequence(), 7);
        assert!(!logged.log_write_failed());
        let committed = logged.commit(&mut log);
        assert!(!committed.commit_write_failed());
        assert_eq!(
            log.events,
            vec![
                "barrier", // ordered data durable before any journal write
                "w:j-desc@0",
                "w:j-data@1",
                "barrier", // pre-commit: data durable before the commit block
                "w:j-commit@2",
                "barrier", // commit durable before any checkpoint
            ]
        );
        committed.abandon();
    }

    #[test]
    fn commit_with_tc_skips_the_pre_barrier() {
        let mut t = Txn::new();
        t.put(10, Block::filled(1), BlockType::Inode);
        let mut log = VecLog::default();
        let committed = t
            .close()
            .log(7, &mut log, Some(&|_, _| None))
            .commit(&mut log);
        assert_eq!(
            log.events,
            vec![
                "barrier", // the ordered-data barrier stays even under Tc
                "w:j-desc@0",
                "w:j-data@1",
                "w:j-commit@2",
                "barrier",
            ]
        );
        committed.abandon();
    }

    #[test]
    fn checkpoint_group_dedups_and_sorts_and_retires() {
        let mut a = Txn::new();
        a.put(50, Block::filled(1), BlockType::Inode);
        a.put(10, Block::filled(2), BlockType::Dir);
        let mut b = Txn::new();
        b.put(50, Block::filled(9), BlockType::Inode); // newer copy of 50
        b.put(30, Block::filled(3), BlockType::DataBitmap);
        let mut log = VecLog::default();
        let ca = a.close().log(1, &mut log, None).commit(&mut log);
        let mut cb = b.close().log(2, &mut log, None).commit(&mut log);

        // journal_forget on the committed (not yet checkpointed) txn.
        cb.forget(30);
        assert_eq!(cb.get(30), None);

        let mut writes: Vec<(u64, u8)> = Vec::new();
        let sweep = checkpoint_group(vec![ca, cb], |addr, b, _ty| {
            writes.push((addr, b[0]));
            true
        });
        // Address-sorted, deduped (50 written once, with b's image), and
        // the forgotten block never written.
        assert_eq!(writes, vec![(10, 2), (50, 9)]);
        assert!(!sweep.write_failed);
        let seqs: Vec<u64> = sweep.txns.into_iter().map(Txn::retire).collect();
        assert_eq!(seqs, vec![1, 2]);
    }

    #[test]
    fn desc_capacity_fits_in_block() {
        let entries: Vec<(u64, BlockType)> = (0..DESC_CAPACITY as u64)
            .map(|i| (i, BlockType::Data))
            .collect();
        let d = DescriptorBlock {
            sequence: 1,
            entries,
        };
        let decoded = DescriptorBlock::decode(&d.encode()).unwrap();
        assert_eq!(decoded.entries.len(), DESC_CAPACITY);
    }
}
