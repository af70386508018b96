//! Failure-policy observations: sets of IRON levels.
//!
//! A *failure policy* (§3) is, per scenario, the set of detection techniques
//! and the set of recovery techniques a file system applied. One cell of
//! Figure 2/3 is a [`PolicyCell`]; this module provides a compact
//! bitset-backed [`LevelSet`] over either axis, with the glyph
//! superimposition the paper's figures use ("if multiple mechanisms are
//! observed, the symbols are superimposed").

use std::fmt;
use std::marker::PhantomData;

use crate::taxonomy::{DetectionLevel, Level, RecoveryLevel};

/// A set of levels of one axis, stored as a bitmask over [`Level::index`].
/// Bit 0 is the zero level (`DZero`, `RZero`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LevelSet<L>(u8, PhantomData<L>);

/// A set of detection levels.
pub type DetectionSet = LevelSet<DetectionLevel>;

/// A set of recovery levels.
pub type RecoverySet = LevelSet<RecoveryLevel>;

impl<L: Level> LevelSet<L> {
    /// The empty set (≡ the zero level only, once normalized).
    pub const EMPTY: Self = LevelSet(0, PhantomData);

    /// Singleton set.
    pub fn just(level: L) -> Self {
        LevelSet(1 << level.index(), PhantomData)
    }

    /// Insert a level.
    pub fn insert(&mut self, level: L) {
        self.0 |= Self::just(level).0;
    }

    /// Membership test.
    pub fn contains(&self, level: L) -> bool {
        self.0 & Self::just(level).0 != 0
    }

    /// Union with another set.
    pub fn union(self, other: Self) -> Self {
        LevelSet(self.0 | other.0, PhantomData)
    }

    /// True if no level but the zero level was recorded.
    pub fn is_empty(&self) -> bool {
        self.0 & !1 == 0
    }

    /// Iterate members in taxonomy order.
    pub fn iter(&self) -> impl Iterator<Item = L> + '_ {
        L::ALL.iter().copied().filter(|l| self.contains(*l))
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// Superimpose the members' glyphs into a short string, as the paper's
    /// figures superimpose symbols. The zero level renders as `.`.
    pub fn glyphs(&self) -> String {
        if self.is_empty() {
            return ".".into();
        }
        self.nonzero().map(|l| l.row().glyph).collect()
    }

    /// Members other than the zero level.
    fn nonzero(&self) -> impl Iterator<Item = L> + '_ {
        self.iter().filter(|l| l.index() != 0)
    }
}

impl<L: Level> Default for LevelSet<L> {
    fn default() -> Self {
        Self::EMPTY
    }
}

impl<L: Level> FromIterator<L> for LevelSet<L> {
    fn from_iter<T: IntoIterator<Item = L>>(iter: T) -> Self {
        iter.into_iter()
            .fold(Self::EMPTY, |s, l| s.union(Self::just(l)))
    }
}

impl<L: Level> fmt::Display for LevelSet<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str(L::ALL[0].row().name);
        }
        let names: Vec<String> = self.nonzero().map(|l| l.to_string()).collect();
        f.write_str(&names.join("+"))
    }
}

/// One cell of a Figure 2/3-style failure-policy matrix: the detection and
/// recovery levels observed for one (workload × block type × fault type)
/// scenario.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PolicyCell {
    /// Detection techniques observed.
    pub detection: DetectionSet,
    /// Recovery techniques observed.
    pub recovery: RecoverySet,
}

impl From<DetectionLevel> for PolicyCell {
    fn from(level: DetectionLevel) -> Self {
        PolicyCell {
            detection: DetectionSet::just(level),
            ..PolicyCell::default()
        }
    }
}

impl From<RecoveryLevel> for PolicyCell {
    fn from(level: RecoveryLevel) -> Self {
        PolicyCell {
            recovery: RecoverySet::just(level),
            ..PolicyCell::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_set_operations() {
        let mut s = DetectionSet::EMPTY;
        assert!(s.is_empty());
        s.insert(DetectionLevel::DErrorCode);
        s.insert(DetectionLevel::DSanity);
        assert!(s.contains(DetectionLevel::DErrorCode));
        assert!(!s.contains(DetectionLevel::DRedundancy));
        assert_eq!(s.len(), 2);
        assert_eq!(s.to_string(), "DErrorCode+DSanity");
    }

    #[test]
    fn recovery_set_union_and_iter_order() {
        let a = RecoverySet::just(RecoveryLevel::RStop);
        let b = RecoverySet::just(RecoveryLevel::RPropagate);
        let u = a.union(b);
        let levels: Vec<_> = u.iter().collect();
        assert_eq!(
            levels,
            vec![RecoveryLevel::RPropagate, RecoveryLevel::RStop]
        );
    }

    #[test]
    fn zero_sets_display_as_zero() {
        assert_eq!(DetectionSet::EMPTY.to_string(), "DZero");
        assert_eq!(RecoverySet::EMPTY.to_string(), "RZero");
        assert_eq!(
            DetectionSet::just(DetectionLevel::DZero).to_string(),
            "DZero"
        );
    }

    #[test]
    fn cell_glyph_superimposition() {
        let cell = PolicyCell {
            detection: DetectionSet::just(DetectionLevel::DErrorCode),
            recovery: [RecoveryLevel::RPropagate, RecoveryLevel::RStop]
                .into_iter()
                .collect(),
        };
        assert_eq!(cell.detection.glyphs(), "-");
        assert_eq!(cell.recovery.glyphs(), "-|");
        assert_eq!(PolicyCell::default().detection.glyphs(), ".");
        assert_eq!(PolicyCell::default().recovery.glyphs(), ".");
    }

    #[test]
    fn from_iterator_collects() {
        let s: DetectionSet = [DetectionLevel::DSanity, DetectionLevel::DSanity]
            .into_iter()
            .collect();
        assert_eq!(s.len(), 1);
    }
}
