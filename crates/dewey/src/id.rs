//! The [`DeweyId`] type and its prefix algebra.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;

use serde::{Deserialize, Serialize};

/// A sibling ordinal within a Dewey path.
pub type Step = u32;

/// Identifier of one document within a corpus.
///
/// GKS search "is seamlessly expanded over multiple documents by prefixing
/// Dewey ids with corresponding document id" (paper §2.4); `DocId` is that
/// prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DocId(pub u32);

impl fmt::Display for DocId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A Dewey identifier: a document id plus the path of sibling ordinals from
/// the document root down to the node.
///
/// The document root itself has an empty path. Ordering is document order:
/// first by [`DocId`], then lexicographically by path, with a prefix sorting
/// before all of its extensions — i.e. an ancestor sorts immediately before
/// its first descendant.
///
/// The id is stored as one contiguous *key* `[doc, step0, step1, …]`
/// ([`Self::key`]). Document order is exactly the lexicographic order of
/// keys, and the ancestor at depth `t` is the key prefix `&key[..t + 1]`, so
/// hash lookups and comparisons along a node's root path borrow sub-slices
/// instead of building new ids. `Hash` hashes the key slice, which makes a
/// `HashMap<DeweyId, _>` queryable by `&[u32]` through [`Borrow`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeweyId {
    /// `[doc, steps…]`; never empty.
    key: Vec<u32>,
}

impl DeweyId {
    /// Creates an id from a document id and a path of sibling ordinals.
    pub fn new(doc: DocId, mut steps: Vec<Step>) -> Self {
        steps.insert(0, doc.0);
        DeweyId { key: steps }
    }

    /// The root of document `doc` (empty path).
    pub fn root(doc: DocId) -> Self {
        DeweyId { key: vec![doc.0] }
    }

    /// Creates an id from its contiguous key `[doc, steps…]` (see
    /// [`Self::key`]). Panics on an empty key, which names no node.
    pub fn from_key(key: &[u32]) -> Self {
        assert!(!key.is_empty(), "a Dewey key starts with its document id");
        DeweyId { key: key.to_vec() }
    }

    /// The contiguous key `[doc, step0, step1, …]`. Keys compare in
    /// document order, and the key of the ancestor at depth `t` is
    /// `&key[..t + 1]`.
    pub fn key(&self) -> &[u32] {
        &self.key
    }

    /// The document this node belongs to.
    pub fn doc(&self) -> DocId {
        DocId(self.key[0])
    }

    /// The same path in document `doc` — how a shard-local id and its
    /// corpus-global id relate.
    pub fn with_doc(&self, doc: DocId) -> DeweyId {
        let mut key = self.key.clone();
        key[0] = doc.0;
        DeweyId { key }
    }

    /// The sibling-ordinal path from the document root.
    pub fn steps(&self) -> &[Step] {
        &self.key[1..]
    }

    /// Depth of the node: number of edges from the document root (the root
    /// has depth 0).
    pub fn depth(&self) -> usize {
        self.key.len() - 1
    }

    /// The last sibling ordinal, or `None` for a document root.
    pub fn last_step(&self) -> Option<Step> {
        self.steps().last().copied()
    }

    /// The parent id, or `None` for a document root.
    pub fn parent(&self) -> Option<DeweyId> {
        match self.depth() {
            0 => None,
            d => Some(DeweyId::from_key(&self.key[..d])),
        }
    }

    /// The id of this node's `ordinal`-th child.
    pub fn child(&self, ordinal: Step) -> DeweyId {
        let mut key = Vec::with_capacity(self.key.len() + 1);
        key.extend_from_slice(&self.key);
        key.push(ordinal);
        DeweyId { key }
    }

    /// Returns `true` iff `self` is a **strict** ancestor of `other`
    /// (`self ≺a other` in the paper's notation).
    pub fn is_ancestor_of(&self, other: &DeweyId) -> bool {
        self.key.len() < other.key.len() && other.key.starts_with(&self.key)
    }

    /// Returns `true` iff `self` is an ancestor of `other` or equal to it
    /// (`self ⪯a other`).
    pub fn is_ancestor_or_self(&self, other: &DeweyId) -> bool {
        other.key.starts_with(&self.key)
    }

    /// Longest common prefix of two ids — the Dewey id of their lowest common
    /// ancestor. `None` when the ids belong to different documents.
    pub fn common_prefix(&self, other: &DeweyId) -> Option<DeweyId> {
        self.common_prefix_len(other).map(|n| DeweyId::from_key(&self.key[..n + 1]))
    }

    /// Number of leading path steps shared with `other` in the same document,
    /// or `None` across documents. Cheaper than [`Self::common_prefix`] when
    /// only the length is needed.
    pub fn common_prefix_len(&self, other: &DeweyId) -> Option<usize> {
        common_key_len(&self.key, &other.key).checked_sub(1)
    }

    /// The smallest id that sorts strictly after **every** node in the
    /// subtree rooted at `self`, so that the subtree occupies the half-open
    /// interval `[self, self.subtree_upper_bound())` in document order.
    ///
    /// Used to binary-search the contiguous subtree range of a candidate node
    /// within the sorted merged list `SL` (§4.1).
    pub fn subtree_upper_bound(&self) -> DeweyId {
        let mut key = self.key.clone();
        // Increment the last step; on overflow carry into the parent, and if
        // the carry escapes the root, move to the next document.
        while key.len() > 1 {
            match key.pop() {
                Some(s) if s < Step::MAX => {
                    key.push(s + 1);
                    return DeweyId { key };
                }
                _ => continue, // carry
            }
        }
        DeweyId { key: vec![self.key[0] + 1] }
    }

    /// Iterates over the strict ancestors of this node, from the parent up to
    /// the document root.
    pub fn ancestors(&self) -> Ancestors<'_> {
        Ancestors { key: &self.key, len: self.key.len() - 1 }
    }

    /// The ancestor-or-self at the given depth. Panics if `depth` exceeds the
    /// node's own depth.
    pub fn ancestor_at_depth(&self, depth: usize) -> DeweyId {
        assert!(depth <= self.depth(), "depth {depth} exceeds node depth");
        DeweyId::from_key(&self.key[..depth + 1])
    }
}

/// Length of the longest common prefix of two Dewey keys, in key elements
/// (the document id included): `0` across documents, `depth + 1` of the
/// lowest common ancestor otherwise.
pub fn common_key_len(a: &[u32], b: &[u32]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// Iterator over strict ancestors, nearest first. See [`DeweyId::ancestors`].
#[derive(Debug)]
pub struct Ancestors<'a> {
    key: &'a [u32],
    /// Key length of the next ancestor to yield (`1` is the document root).
    len: usize,
}

impl Iterator for Ancestors<'_> {
    type Item = DeweyId;

    fn next(&mut self) -> Option<DeweyId> {
        if self.len == 0 {
            return None;
        }
        let id = DeweyId::from_key(&self.key[..self.len]);
        self.len -= 1;
        Some(id)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.len, Some(self.len))
    }
}

impl ExactSizeIterator for Ancestors<'_> {}

impl Borrow<[u32]> for DeweyId {
    fn borrow(&self) -> &[u32] {
        &self.key
    }
}

impl Hash for DeweyId {
    /// Hashes the key slice, so the hash agrees with the borrowed `[u32]`
    /// form (the [`Borrow`] contract).
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key().hash(state);
    }
}

impl Ord for DeweyId {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.cmp(&other.key)
    }
}

impl PartialOrd for DeweyId {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for DeweyId {
    /// Formats as `doc:step.step.step`, e.g. `0:0.1.1.0`; a document root is
    /// `doc:` with an empty path.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:", self.doc())?;
        for (i, s) in self.steps().iter().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

/// Error produced when parsing a malformed Dewey id string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDeweyIdError(String);

impl fmt::Display for ParseDeweyIdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid Dewey id: {}", self.0)
    }
}

impl std::error::Error for ParseDeweyIdError {}

impl FromStr for DeweyId {
    type Err = ParseDeweyIdError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (doc, path) = s
            .split_once(':')
            .ok_or_else(|| ParseDeweyIdError(format!("missing ':' in {s:?}")))?;
        let doc: u32 = doc
            .parse()
            .map_err(|_| ParseDeweyIdError(format!("bad document id in {s:?}")))?;
        let mut key = vec![doc];
        if !path.is_empty() {
            for p in path.split('.') {
                key.push(
                    p.parse::<Step>()
                        .map_err(|_| ParseDeweyIdError(format!("bad step {p:?} in {s:?}")))?,
                );
            }
        }
        Ok(DeweyId { key })
    }
}
