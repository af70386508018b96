//! The block buffers of the simple models (ReiserFS, JFS, NTFS): the
//! metadata images the running transaction has staged, each with its block
//! type, in first-dirty order, beside a cache of the images the model last
//! read or wrote.
//!
//! The two are kept apart on purpose. A write in place (a data block)
//! updates only the cache, so after a corrupt pointer sends one to a
//! staged address the staged image and the cached image differ, and the
//! checkpoint must write the staged one.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use iron_core::Block;

use crate::types::VfsResult;

/// Staged and cached block images, keyed by address; `T` is the model's
/// block type, which the checkpoint writes each staged image under.
#[derive(Debug)]
pub struct Buffers<T> {
    /// Addresses in first-dirty order. A forgotten address keeps its
    /// place: staged again, it is checkpointed where it was first dirtied
    /// (its second entry finds nothing to drain).
    order: Vec<u64>,
    staged: HashMap<u64, (Block, T)>,
    cache: HashMap<u64, Block>,
}

impl<T> Default for Buffers<T> {
    fn default() -> Self {
        Buffers {
            order: Vec::new(),
            staged: HashMap::new(),
            cache: HashMap::new(),
        }
    }
}

impl<T> Buffers<T> {
    /// No block staged or cached.
    pub fn new() -> Self {
        Self::default()
    }

    /// Borrow `addr`'s image: its staged image, else [`Self::get_cached`].
    pub fn get(
        &mut self,
        addr: u64,
        fetch: impl FnOnce() -> VfsResult<Block>,
    ) -> VfsResult<&Block> {
        match self.staged.get(&addr) {
            Some((b, _)) => Ok(b),
            None => cache_or_fetch(&mut self.cache, addr, fetch),
        }
    }

    /// Borrow `addr`'s image past the staged set, as a block the model
    /// writes in place: its cached image, else what `fetch` (the model's
    /// own device read) returns, cached.
    pub fn get_cached(
        &mut self,
        addr: u64,
        fetch: impl FnOnce() -> VfsResult<Block>,
    ) -> VfsResult<&Block> {
        cache_or_fetch(&mut self.cache, addr, fetch)
    }

    /// Cache the image just written to (or read from) `addr`.
    pub fn cache(&mut self, addr: u64, block: Block) {
        self.cache.insert(addr, block);
    }

    /// Stage `block` for the checkpoint as a `ty` block, and cache it.
    pub fn stage(&mut self, addr: u64, block: Block, ty: T) {
        self.cache.insert(addr, block.clone());
        if self.staged.insert(addr, (block, ty)).is_none() {
            self.order.push(addr);
        }
    }

    /// Drop `addr`'s cached image.
    pub fn uncache(&mut self, addr: u64) {
        self.cache.remove(&addr);
    }

    /// Drop `addr`'s staged and cached images: the block was freed.
    pub fn forget(&mut self, addr: u64) {
        self.uncache(addr);
        self.staged.remove(&addr);
    }

    /// Staged images.
    pub fn len(&self) -> usize {
        self.staged.len()
    }

    /// Nothing staged?
    pub fn is_empty(&self) -> bool {
        self.staged.is_empty()
    }

    /// Take every staged image, in first-dirty order, for the commit.
    /// The cache keeps its images.
    pub fn drain(&mut self) -> Vec<(u64, Block, T)> {
        std::mem::take(&mut self.order)
            .into_iter()
            .filter_map(|addr| self.staged.remove(&addr).map(|(b, ty)| (addr, b, ty)))
            .collect()
    }
}

/// The cached image of `addr`, else `fetch`'s, cached. It takes the cache
/// alone so that [`Buffers::get`] can fall through to it while the staged
/// set is borrowed.
fn cache_or_fetch(
    cache: &mut HashMap<u64, Block>,
    addr: u64,
    fetch: impl FnOnce() -> VfsResult<Block>,
) -> VfsResult<&Block> {
    match cache.entry(addr) {
        Entry::Occupied(e) => Ok(e.into_mut()),
        Entry::Vacant(e) => Ok(e.insert(fetch()?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iron_core::Errno;

    #[test]
    fn a_read_sees_the_staged_image_then_the_cache_then_the_fetch() {
        let mut buf = Buffers::new();
        let unreachable = || -> VfsResult<Block> { panic!("no fetch expected") };
        assert_eq!(buf.get(5, || Ok(Block::filled(1))), Ok(&Block::filled(1)));
        assert_eq!(buf.get(5, unreachable), Ok(&Block::filled(1)));
        assert_eq!(buf.get_cached(5, unreachable), Ok(&Block::filled(1)));
        buf.stage(5, Block::filled(2), 'm');
        // A write in place updates the cache only.
        buf.cache(5, Block::filled(3));
        assert_eq!(buf.get(5, unreachable), Ok(&Block::filled(2)));
        assert_eq!(buf.get_cached(5, unreachable), Ok(&Block::filled(3)));
        // The borrowed image is the buffered one, not a copy of it.
        let staged: *const Block = buf.get(5, unreachable).unwrap();
        assert!(std::ptr::eq(staged, buf.get(5, unreachable).unwrap()));
        let cached: *const Block = buf.get_cached(5, unreachable).unwrap();
        assert!(!std::ptr::eq(staged, cached));
        assert!(std::ptr::eq(
            cached,
            buf.get_cached(5, unreachable).unwrap()
        ));
        let failed = buf.get(6, || Err(Errno::EIO.into())).cloned();
        assert_eq!(failed.unwrap_err().errno(), Some(Errno::EIO));
        let failed = buf.get_cached(7, || Err(Errno::EIO.into())).cloned();
        assert_eq!(failed.unwrap_err().errno(), Some(Errno::EIO));
        // A failed fetch caches nothing: the next read fetches again.
        assert_eq!(buf.get(6, || Ok(Block::filled(4))), Ok(&Block::filled(4)));
        assert_eq!(
            buf.get_cached(7, || Ok(Block::filled(5))),
            Ok(&Block::filled(5))
        );
        assert_eq!(buf.get(7, unreachable), Ok(&Block::filled(5)));
    }

    #[test]
    fn a_commit_drains_in_first_dirty_order_and_keeps_the_cache() {
        let mut buf = Buffers::new();
        buf.stage(7, Block::filled(1), 'a');
        buf.stage(3, Block::filled(2), 'b');
        buf.stage(7, Block::filled(3), 'a');
        buf.stage(9, Block::filled(4), 'c');
        assert_eq!(buf.len(), 3);
        let order: Vec<_> = buf
            .drain()
            .into_iter()
            .map(|(a, b, t)| (a, b[0], t))
            .collect();
        assert_eq!(order, [(7, 3, 'a'), (3, 2, 'b'), (9, 4, 'c')]);
        assert!(buf.is_empty());
        assert_eq!(buf.get(7, || Err(Errno::EIO.into())), Ok(&Block::filled(3)));
    }

    #[test]
    fn a_forgotten_block_is_neither_read_nor_checkpointed_unless_staged_again() {
        let mut buf = Buffers::new();
        buf.stage(1, Block::filled(1), ());
        buf.stage(2, Block::filled(2), ());
        buf.stage(3, Block::filled(3), ());
        buf.forget(2);
        buf.uncache(3);
        assert_eq!(buf.get(2, || Ok(Block::zeroed())), Ok(&Block::zeroed()));
        assert_eq!(buf.get(3, || Ok(Block::zeroed())), Ok(&Block::filled(3)));
        buf.forget(1);
        buf.stage(1, Block::filled(5), ());
        let addrs: Vec<_> = buf.drain().into_iter().map(|(a, b, _)| (a, b[0])).collect();
        assert_eq!(addrs, [(1, 5), (3, 3)]);
    }
}
