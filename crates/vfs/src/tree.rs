//! [`Vfs::tree`]: the whole namespace as one value.
//!
//! The one recursive walk in the workspace. The crash oracles compare a
//! recovered tree against the shadow model's, the crash shadow takes its
//! checkpoints with it, and the serving layer's differential fingerprints
//! its final namespace from it.

use std::collections::BTreeMap;

use crate::fs::SpecificFs;
use crate::types::FileType;
use crate::vfs::Vfs;

/// A node observed while walking a mounted tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TreeNode {
    /// A directory.
    Dir,
    /// A regular file and its full content.
    File(Vec<u8>),
    /// A symlink and its target.
    Symlink(String),
}

/// Full recursive listing of a mounted file system, path → node.
pub type FsTree = BTreeMap<String, TreeNode>;

/// Most nodes a walk will visit before declaring the tree corrupt. A
/// crash image can decay into a directory cycle; the walker must return
/// an error for the oracle to report, not spin.
const WALK_NODE_BOUND: usize = 4096;

/// Largest file size the walker will read. Anything bigger than the whole
/// test disk is a corrupt inode, not a file.
const WALK_SIZE_BOUND: u64 = 64 * 1024 * 1024;

impl<F: SpecificFs> Vfs<F> {
    /// Recursively walk the file system from the root, reading every file
    /// in full. Any error is fatal to the walk — a recovered file system
    /// must be fully traversable. Corruption that mounts anyway (directory
    /// cycles, implausible inode sizes) is bounded into an error rather
    /// than a hang.
    pub fn tree(&mut self) -> Result<FsTree, String> {
        let mut out = FsTree::new();
        let mut stack = vec![String::from("/")];
        let mut visited = 0usize;
        while let Some(dir) = stack.pop() {
            let entries = self
                .readdir(&dir)
                .map_err(|e| format!("readdir {dir}: {e:?}"))?;
            for ent in entries {
                if ent.name == "." || ent.name == ".." {
                    continue;
                }
                visited += 1;
                if visited > WALK_NODE_BOUND {
                    return Err(format!(
                        "tree walk exceeded {WALK_NODE_BOUND} nodes at {dir}/{} — directory cycle?",
                        ent.name
                    ));
                }
                let path = if dir == "/" {
                    format!("/{}", ent.name)
                } else {
                    format!("{}/{}", dir, ent.name)
                };
                match ent.ftype {
                    FileType::Directory => {
                        out.insert(path.clone(), TreeNode::Dir);
                        stack.push(path);
                    }
                    FileType::Regular => {
                        let size = self
                            .stat(&path)
                            .map_err(|e| format!("stat {path}: {e:?}"))?
                            .size;
                        if size > WALK_SIZE_BOUND {
                            return Err(format!("{path}: implausible size {size}"));
                        }
                        let data = self
                            .read_file(&path)
                            .map_err(|e| format!("read {path}: {e:?}"))?;
                        out.insert(path, TreeNode::File(data));
                    }
                    FileType::Symlink => {
                        let target = self
                            .readlink(&path)
                            .map_err(|e| format!("readlink {path}: {e:?}"))?;
                        out.insert(path, TreeNode::Symlink(target));
                    }
                }
            }
        }
        Ok(out)
    }
}
