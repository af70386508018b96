//! The ReiserFS journal: header, descriptor and commit blocks. The
//! running transaction is the model's [`iron_vfs::Buffers`].
//!
//! ReiserFS journals whole metadata blocks, like ext3. Descriptor and
//! commit blocks carry magic numbers that *are* checked during replay
//! (§5.2: "the journal descriptor and commit blocks also have additional
//! information" that is validated). Journal **data** blocks carry no type
//! information and are replayed blindly — the paper's headline ReiserFS
//! vulnerability.

use iron_core::{Block, BLOCK_SIZE};

/// Magic in journal descriptor/commit blocks (the real one, "ReIsErLB").
pub const JOURNAL_MAGIC: &[u8; 8] = b"ReIsErLB";

/// The journal header block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JournalHeader {
    /// Next transaction id.
    pub sequence: u64,
    /// True if the log holds committed-but-unflushed transactions.
    pub dirty: bool,
}

impl JournalHeader {
    /// Serialize.
    pub fn encode(&self) -> Block {
        let mut b = Block::zeroed();
        b.put_bytes(0, JOURNAL_MAGIC);
        b.put_u64(8, self.sequence);
        b.put_u32(16, u32::from(self.dirty));
        b
    }

    /// Decode with the magic check.
    pub fn decode(b: &Block) -> Option<JournalHeader> {
        if b.get_bytes(0, 8) != JOURNAL_MAGIC {
            return None;
        }
        Some(JournalHeader {
            sequence: b.get_u64(8),
            dirty: b.get_u32(16) != 0,
        })
    }
}

/// Maximum home addresses per descriptor.
pub const DESC_CAPACITY: usize = (BLOCK_SIZE - 32) / 8;

/// A journal descriptor: home addresses of the copies that follow.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalDesc {
    /// Transaction id.
    pub sequence: u64,
    /// Home addresses.
    pub addrs: Vec<u64>,
}

impl JournalDesc {
    /// Serialize.
    ///
    /// # Panics
    /// Panics if over [`DESC_CAPACITY`].
    pub fn encode(&self) -> Block {
        assert!(self.addrs.len() <= DESC_CAPACITY);
        let mut b = Block::zeroed();
        b.put_bytes(0, JOURNAL_MAGIC);
        b.put_u32(8, 1); // kind: descriptor
        b.put_u64(16, self.sequence);
        b.put_u32(24, self.addrs.len() as u32);
        let mut off = 32;
        for a in &self.addrs {
            b.put_u64(off, *a);
            off += 8;
        }
        b
    }

    /// Decode with magic/kind/count checks.
    pub fn decode(b: &Block) -> Option<JournalDesc> {
        if b.get_bytes(0, 8) != JOURNAL_MAGIC || b.get_u32(8) != 1 {
            return None;
        }
        let count = b.get_u32(24) as usize;
        if count > DESC_CAPACITY {
            return None;
        }
        let mut addrs = Vec::with_capacity(count);
        let mut off = 32;
        for _ in 0..count {
            addrs.push(b.get_u64(off));
            off += 8;
        }
        Some(JournalDesc {
            sequence: b.get_u64(16),
            addrs,
        })
    }
}

/// A journal commit block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JournalCommit {
    /// Transaction id.
    pub sequence: u64,
    /// Number of blocks in the transaction.
    pub count: u32,
}

impl JournalCommit {
    /// Serialize.
    pub fn encode(&self) -> Block {
        let mut b = Block::zeroed();
        b.put_bytes(0, JOURNAL_MAGIC);
        b.put_u32(8, 2); // kind: commit
        b.put_u64(16, self.sequence);
        b.put_u32(24, self.count);
        b
    }

    /// Decode with magic/kind checks.
    pub fn decode(b: &Block) -> Option<JournalCommit> {
        if b.get_bytes(0, 8) != JOURNAL_MAGIC || b.get_u32(8) != 2 {
            return None;
        }
        Some(JournalCommit {
            sequence: b.get_u64(16),
            count: b.get_u32(24),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trip() {
        let h = JournalHeader {
            sequence: 9,
            dirty: true,
        };
        assert_eq!(JournalHeader::decode(&h.encode()), Some(h));
        assert_eq!(JournalHeader::decode(&Block::zeroed()), None);
    }

    #[test]
    fn desc_and_commit_round_trip_and_cross_reject() {
        let d = JournalDesc {
            sequence: 4,
            addrs: vec![10, 20, 30],
        };
        let c = JournalCommit {
            sequence: 4,
            count: 3,
        };
        assert_eq!(JournalDesc::decode(&d.encode()), Some(d.clone()));
        assert_eq!(JournalCommit::decode(&c.encode()), Some(c));
        assert_eq!(JournalDesc::decode(&c.encode()), None);
        assert_eq!(JournalCommit::decode(&d.encode()), None);
    }
}
