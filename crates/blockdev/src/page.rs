//! [`Page`]: the unit the layers of a device stack pass to each other —
//! one block's bytes, immutable once shared, with their SHA-1 memoized.

use std::fmt;
use std::sync::{Arc, OnceLock};

use iron_core::checksum::{sha1, Sha1Digest};
use iron_core::{Block, BLOCK_SIZE};

/// One block's bytes and, once anyone has asked for it, their SHA-1.
///
/// Layers hand each other `Arc<Page>` ([`crate::BlockDevice::read_page`],
/// [`crate::BlockDevice::write_page`]), so a block written at the top of
/// a stack is one allocation in the write-back cache, in every replica's
/// medium and in every snapshot of it, and its digest is computed once
/// for all of them. [`Block`] stays the owned buffer a file system edits.
///
/// The invalidation rule: a page's bytes change only through `&mut Page`,
/// which a holder gets only while no one else shares the page
/// (`Arc::get_mut`). [`MemDisk`](crate::MemDisk)'s in-place store is the
/// one such path, and it forgets the digest with the bytes it replaces.
pub struct Page {
    bytes: [u8; BLOCK_SIZE],
    sha1: OnceLock<Sha1Digest>,
}

#[cfg(test)]
thread_local! {
    /// Digests computed into a page's memo on this thread (the hash-once
    /// tests).
    pub(crate) static SHA1_FILLS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl Page {
    /// A new shared page holding a copy of `block`.
    pub fn new(block: &Block) -> Arc<Page> {
        Arc::new(Page {
            bytes: **block,
            sha1: OnceLock::new(),
        })
    }

    /// The page's bytes.
    pub fn bytes(&self) -> &[u8; BLOCK_SIZE] {
        &self.bytes
    }

    /// An owned copy of the bytes, for a caller that will edit them.
    pub fn to_block(&self) -> Block {
        Block::from_array(&self.bytes)
    }

    /// The SHA-1 of the bytes, computed on the first ask.
    pub fn sha1(&self) -> Sha1Digest {
        *self.sha1.get_or_init(|| {
            #[cfg(test)]
            SHA1_FILLS.with(|n| n.set(n.get() + 1));
            sha1(&self.bytes)
        })
    }

    /// Whether two pages hold the same bytes: the same page, or equal
    /// contents.
    pub fn same(a: &Arc<Page>, b: &Arc<Page>) -> bool {
        Arc::ptr_eq(a, b) || a.bytes == b.bytes
    }

    /// Replace the bytes of a page no one else holds, forgetting the
    /// digest of the old ones.
    pub(crate) fn overwrite(&mut self, block: &Block) {
        self.bytes = **block;
        self.sha1.take();
    }
}

impl fmt::Debug for Page {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let nonzero = self.bytes.iter().filter(|&&b| b != 0).count();
        write!(f, "Page({nonzero} nonzero bytes)")
    }
}
