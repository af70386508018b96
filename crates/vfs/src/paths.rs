//! Lexical path canonicalization and prefix enumeration.
//!
//! The serving layer measures a request's footprint as *path* keys
//! (`iron_serve::lock_keys`), so two textual spellings of the same
//! location ("/a//b/", "/a/b") must map to one key. Normalization here is
//! purely lexical: `.` components are dropped and `..` pops the previous
//! component, but symlinks are **not** chased (the serve protocol has no
//! symlinks for exactly that reason — a lexical key cannot cover a
//! symlink's target).

/// Normalize a path lexically to a canonical absolute form.
///
/// Rules: the result always starts with `/`; repeated and trailing slashes
/// collapse; `.` components vanish; `..` removes the previous component
/// (and is a no-op at the root, as in POSIX resolution). A relative input
/// is interpreted from the root, matching how the serving protocol treats
/// every path as absolute.
///
/// ```
/// use iron_vfs::paths::normalize;
/// assert_eq!(normalize("/a//b/"), "/a/b");
/// assert_eq!(normalize("a/./b/../c"), "/a/c");
/// assert_eq!(normalize("/../x"), "/x");
/// assert_eq!(normalize(""), "/");
/// ```
pub fn normalize(path: &str) -> String {
    let mut comps: Vec<&str> = Vec::new();
    for comp in path.split('/') {
        match comp {
            "" | "." => {}
            ".." => {
                comps.pop();
            }
            c => comps.push(c),
        }
    }
    if comps.is_empty() {
        "/".to_string()
    } else {
        let mut out = String::new();
        for c in &comps {
            out.push('/');
            out.push_str(c);
        }
        out
    }
}

/// Every proper ancestor of `path` (after [`normalize`]), root first.
///
/// For `/a/b/c` this is `["/", "/a", "/a/b"]`; for the root itself it is
/// empty. These are exactly the directories a symlink-free resolution of
/// `path` reads, which is what makes them the shared part of an
/// operation's footprint.
///
/// ```
/// use iron_vfs::paths::prefixes;
/// assert_eq!(prefixes("/a/b/c"), vec!["/", "/a", "/a/b"]);
/// assert!(prefixes("/").is_empty());
/// ```
pub fn prefixes(path: &str) -> Vec<String> {
    let norm = normalize(path);
    if norm == "/" {
        return Vec::new();
    }
    let mut out = vec!["/".to_string()];
    let mut acc = String::new();
    let comps: Vec<&str> = norm.split('/').filter(|c| !c.is_empty()).collect();
    for c in &comps[..comps.len() - 1] {
        acc.push('/');
        acc.push_str(c);
        out.push(acc.clone());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_collapses_slashes_and_dots() {
        assert_eq!(normalize("/"), "/");
        assert_eq!(normalize("//"), "/");
        assert_eq!(normalize("/a/b"), "/a/b");
        assert_eq!(normalize("/a//b///c/"), "/a/b/c");
        assert_eq!(normalize("/a/./b"), "/a/b");
        assert_eq!(normalize("relative/path"), "/relative/path");
    }

    #[test]
    fn normalize_resolves_dotdot_lexically() {
        assert_eq!(normalize("/a/b/../c"), "/a/c");
        assert_eq!(normalize("/a/../../b"), "/b");
        assert_eq!(normalize("/.."), "/");
    }

    #[test]
    fn prefixes_are_proper_ancestors() {
        assert!(prefixes("/").is_empty());
        assert_eq!(prefixes("/a"), vec!["/"]);
        assert_eq!(prefixes("/a/b"), vec!["/", "/a"]);
        assert_eq!(prefixes("/a//b/c/"), vec!["/", "/a", "/a/b"]);
    }

    #[test]
    fn equal_spellings_share_a_key() {
        assert_eq!(normalize("/d/f"), normalize("d//f/"));
        assert_eq!(normalize("/d/./f"), normalize("/d/x/../f"));
    }
}
