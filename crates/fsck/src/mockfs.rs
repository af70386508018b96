//! A tiny in-memory [`Checkable`]/[`Repairable`] file system for unit
//! tests — no on-disk format, just the maps the trait exposes. Lets the
//! engine and repair tests cover every issue class and rollback path
//! without depending on a real file-system crate.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use crate::check::{Checkable, ChildEntry, FileKind, InodeSummary, SuperblockReport};
use crate::repair::{RepairFix, Repairable};

pub(crate) struct MockFs {
    pub device_blocks: u64,
    pub total_inodes: u64,
    pub root: u64,
    /// Allocated inode slots; absent = free.
    pub inodes: BTreeMap<u64, InodeSummary>,
    pub dirs: BTreeMap<u64, Vec<ChildEntry>>,
    pub refs: BTreeMap<u64, Vec<u64>>,
    pub block_bitmap: BTreeSet<u64>,
    pub inode_bitmap: BTreeSet<u64>,
    pub regions: Vec<Range<u64>>,
    pub sb: SuperblockReport,
    /// Fail the nth (1-based) `apply_fix` call, for rollback tests.
    pub fail_on_apply: Option<usize>,
    applies: usize,
    pub geometry: BTreeMap<&'static str, u64>,
}

impl MockFs {
    pub fn entry(name: &str, ino: u64) -> ChildEntry {
        ChildEntry {
            name: name.to_string(),
            ino,
        }
    }

    fn used(free: bool, kind: FileKind, links: u32) -> InodeSummary {
        InodeSummary {
            free,
            kind: Some(kind),
            links,
        }
    }

    /// root(2){ a(3), d(4){ b(5) } } — fully consistent.
    pub fn healthy() -> MockFs {
        let mut fs = MockFs {
            device_blocks: 256,
            total_inodes: 16,
            root: 2,
            inodes: BTreeMap::new(),
            dirs: BTreeMap::new(),
            refs: BTreeMap::new(),
            block_bitmap: BTreeSet::new(),
            inode_bitmap: BTreeSet::new(),
            regions: Vec::new(),
            sb: SuperblockReport::default(),
            fail_on_apply: None,
            applies: 0,
            geometry: BTreeMap::from([("total_blocks", 256), ("journal_blocks", 8)]),
        };
        fs.regions.push(100..200);
        fs.inodes
            .insert(2, Self::used(false, FileKind::Directory, 3));
        fs.inodes.insert(3, Self::used(false, FileKind::Other, 1));
        fs.inodes
            .insert(4, Self::used(false, FileKind::Directory, 2));
        fs.inodes.insert(5, Self::used(false, FileKind::Other, 1));
        fs.dirs.insert(
            2,
            vec![
                Self::entry(".", 2),
                Self::entry("..", 2),
                Self::entry("a", 3),
                Self::entry("d", 4),
            ],
        );
        fs.dirs.insert(
            4,
            vec![
                Self::entry(".", 4),
                Self::entry("..", 2),
                Self::entry("b", 5),
            ],
        );
        fs.refs.insert(2, vec![100]);
        fs.refs.insert(3, vec![101, 102]);
        fs.refs.insert(4, vec![103]);
        fs.refs.insert(5, vec![104]);
        fs.block_bitmap = BTreeSet::from([100, 101, 102, 103, 104]);
        fs.inode_bitmap = BTreeSet::from([2, 3, 4, 5]);
        fs
    }

    /// root(2){ d(3), f0..f(n-1) } with even-numbered files in the root
    /// and odd-numbered ones in `d`.
    pub fn wide(n: u64) -> MockFs {
        let mut fs = MockFs {
            device_blocks: 4096,
            total_inodes: 1024,
            root: 2,
            inodes: BTreeMap::new(),
            dirs: BTreeMap::new(),
            refs: BTreeMap::new(),
            block_bitmap: BTreeSet::new(),
            inode_bitmap: BTreeSet::new(),
            regions: Vec::new(),
            sb: SuperblockReport::default(),
            fail_on_apply: None,
            applies: 0,
            geometry: BTreeMap::from([("total_blocks", 4096), ("journal_blocks", 64)]),
        };
        fs.regions.push(900..1800);
        fs.inodes
            .insert(2, Self::used(false, FileKind::Directory, 3));
        fs.inodes
            .insert(3, Self::used(false, FileKind::Directory, 2));
        let mut root_entries = vec![
            Self::entry(".", 2),
            Self::entry("..", 2),
            Self::entry("d", 3),
        ];
        let mut d_entries = vec![Self::entry(".", 3), Self::entry("..", 2)];
        fs.refs.insert(2, vec![900]);
        fs.refs.insert(3, vec![901]);
        for i in 0..n {
            let ino = 4 + i;
            fs.inodes.insert(ino, Self::used(false, FileKind::Other, 1));
            let name = format!("f{i}");
            if i % 2 == 0 {
                root_entries.push(Self::entry(&name, ino));
            } else {
                d_entries.push(Self::entry(&name, ino));
            }
            fs.refs.insert(ino, vec![1000 + i]);
        }
        fs.dirs.insert(2, root_entries);
        fs.dirs.insert(3, d_entries);
        fs.block_bitmap = fs.refs.values().flatten().copied().collect();
        fs.inode_bitmap = fs.inodes.keys().copied().collect();
        fs
    }

    /// Allocate `ino` (marked in the bitmap, holding `refs`) without
    /// linking it anywhere — an orphan.
    pub fn add_orphan(&mut self, ino: u64, refs: &[u64]) {
        self.inodes
            .insert(ino, Self::used(false, FileKind::Other, 1));
        self.inode_bitmap.insert(ino);
        self.refs.insert(ino, refs.to_vec());
    }

    /// Deterministic pseudo-random damage: bitmap flips, link-count
    /// tweaks, duplicate references. Same `k` → same damage.
    pub fn scatter_damage(&mut self, k: u64) {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..k {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            match i % 5 {
                0 => {
                    self.block_bitmap.insert(1000 + x % 200);
                }
                1 => {
                    let ino = 4 + x % 50;
                    if let Some(s) = self.inodes.get_mut(&ino) {
                        s.links = s.links.wrapping_add(1);
                    }
                }
                2 => {
                    self.inode_bitmap.remove(&(4 + x % 50));
                }
                3 => {
                    let ino = 4 + (x >> 7) % 50;
                    if let Some(r) = self.refs.get_mut(&ino) {
                        r.push(1000 + x % 200);
                    }
                }
                _ => {
                    self.block_bitmap.remove(&(900 + x % 300));
                }
            }
        }
    }
}

impl Checkable for MockFs {
    fn fs_name(&self) -> &'static str {
        "mockfs"
    }

    fn device_blocks(&self) -> u64 {
        self.device_blocks
    }

    fn check_superblock(&self) -> SuperblockReport {
        self.sb.clone()
    }

    fn root_ino(&self) -> u64 {
        self.root
    }

    fn total_inodes(&self) -> u64 {
        self.total_inodes
    }

    fn is_reserved_ino(&self, ino: u64) -> bool {
        ino == 1
    }

    fn inode(&self, ino: u64) -> InodeSummary {
        self.inodes.get(&ino).copied().unwrap_or(InodeSummary {
            free: true,
            kind: None,
            links: 0,
        })
    }

    fn dir_entries(&self, ino: u64) -> Vec<ChildEntry> {
        self.dirs.get(&ino).cloned().unwrap_or_default()
    }

    fn block_refs(&self, ino: u64) -> Vec<u64> {
        self.refs.get(&ino).cloned().unwrap_or_default()
    }

    fn data_regions(&self) -> Vec<Range<u64>> {
        self.regions.clone()
    }

    fn block_marked(&self, addr: u64) -> bool {
        self.block_bitmap.contains(&addr)
    }

    fn inode_marked(&self, ino: u64) -> bool {
        self.inode_bitmap.contains(&ino)
    }
}

impl Repairable for MockFs {
    fn apply_fix(&mut self, fix: &RepairFix) -> Result<RepairFix, String> {
        self.applies += 1;
        if self.fail_on_apply == Some(self.applies) {
            return Err("injected apply failure".to_string());
        }
        match *fix {
            RepairFix::FreeBlock { addr } => {
                if !self.block_bitmap.remove(&addr) {
                    return Err(format!("block {addr} not marked"));
                }
                Ok(RepairFix::MarkBlock { addr })
            }
            RepairFix::MarkBlock { addr } => {
                if !self.block_bitmap.insert(addr) {
                    return Err(format!("block {addr} already marked"));
                }
                Ok(RepairFix::FreeBlock { addr })
            }
            RepairFix::SetLinkCount { ino, links } => {
                let s = self
                    .inodes
                    .get_mut(&ino)
                    .ok_or_else(|| format!("inode {ino} is free"))?;
                let old = s.links;
                s.links = links;
                Ok(RepairFix::SetLinkCount { ino, links: old })
            }
            RepairFix::SyncInodeMark { ino } => {
                let free = self.inode(ino).free;
                let old = self.inode_bitmap.contains(&ino);
                if free {
                    self.inode_bitmap.remove(&ino);
                } else {
                    self.inode_bitmap.insert(ino);
                }
                Ok(RepairFix::SetInodeMark { ino, used: old })
            }
            RepairFix::SetInodeMark { ino, used } => {
                let old = self.inode_bitmap.contains(&ino);
                if used {
                    self.inode_bitmap.insert(ino);
                } else {
                    self.inode_bitmap.remove(&ino);
                }
                Ok(RepairFix::SetInodeMark { ino, used: old })
            }
            RepairFix::SetGeometryField { field, value } => {
                let slot = self
                    .geometry
                    .get_mut(field)
                    .ok_or_else(|| format!("unknown geometry field {field}"))?;
                let old = *slot;
                *slot = value;
                Ok(RepairFix::SetGeometryField { field, value: old })
            }
        }
    }
}
