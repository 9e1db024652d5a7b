//! The node table: the paper's `entityHash` + `elementHash`, unified.
//!
//! §2.4 keeps two hash tables over Dewey ids — entity nodes in one, repeating
//! and connecting nodes in the other — both storing "the number of direct
//! children each node has … used while computing the rank of a node". This
//! implementation stores one entry per element node (attribute nodes
//! included, since the potential-flow ranking needs child counts along whole
//! root-to-terminal paths) with the category flags attached, and exposes the
//! paper's two lookup functions, [`NodeTable::is_entity`] and
//! [`NodeTable::is_element`], on top. It is not a hash table: every caller
//! looks nodes up along a root path, so the table is a pre-order tree
//! walked by child ordinal (see [`NodeTable`]).

use gks_dewey::{common_key_len, DeweyId};

use crate::categorize::NodeFlags;
use crate::error::IndexError;
use crate::fasthash::FastMap;

/// Everything the search engine needs to know about one XML node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeMeta {
    /// Number of direct children: element children plus one for a non-empty
    /// text value (never zero for a node that exists — an empty element
    /// counts its missing value as one child so potentials stay finite).
    pub child_count: u32,
    /// Category flags (§2.2).
    pub flags: NodeFlags,
    /// Interned element label.
    pub label: u32,
}

/// Label interner shared by the node table and the attribute store.
#[derive(Debug, Default, Clone)]
pub struct LabelInterner {
    names: Vec<String>,
    ids: FastMap<String, u32>,
}

impl LabelInterner {
    /// Interns `name`, returning its stable id.
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        self.ids.insert(name.to_string(), id);
        id
    }

    /// The name for an id. Panics on an unknown id (ids only come from
    /// [`Self::intern`]).
    pub fn name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    /// Looks up an existing label by name.
    pub fn lookup(&self, name: &str) -> Option<u32> {
        self.ids.get(name).copied()
    }

    /// Number of distinct labels.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when no labels are interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// All names in id order (for persistence).
    pub fn names(&self) -> &[String] {
        &self.names
    }
}

/// Marks a document with no root in [`NodeTable::roots`] (only possible
/// below the first document of a parallel build's partial table).
const NO_ROOT: u32 = u32::MAX;

/// Per-node metadata table over the whole corpus, stored as a positional
/// tree.
///
/// Nodes are numbered in document (pre-order) order and `meta` holds one
/// row per node. The children of node `p` are
/// `children[child_start[p]..child_start[p + 1]]`, indexed by Dewey ordinal,
/// and `roots[doc]` is each document's root. The key `[doc, s0, s1, …]`
/// therefore resolves as `roots[doc] → children[child_start[p] + s0] → …`,
/// one bounds-checked array read per step. Every table is built by
/// [`NodeTable::extend_sorted`], which rejects any row sequence that is not
/// a closed, densely numbered pre-order forest, so the structure cannot
/// hold an orphan, a duplicate or an ordinal gap.
#[derive(Debug, Clone)]
pub struct NodeTable {
    meta: Vec<NodeMeta>,
    /// `len() + 1` offsets into `children`.
    child_start: Vec<u32>,
    children: Vec<u32>,
    /// Root node of each document, [`NO_ROOT`] where a document has none.
    roots: Vec<u32>,
    labels: LabelInterner,
}

impl Default for NodeTable {
    fn default() -> Self {
        NodeTable {
            meta: Vec::new(),
            child_start: vec![0],
            children: Vec::new(),
            roots: Vec::new(),
            labels: LabelInterner::default(),
        }
    }
}

impl NodeTable {
    /// An empty table.
    pub fn new() -> Self {
        NodeTable::default()
    }

    /// The label interner.
    pub fn labels(&self) -> &LabelInterner {
        &self.labels
    }

    /// Mutable access to the interner (used by the builder).
    pub fn labels_mut(&mut self) -> &mut LabelInterner {
        &mut self.labels
    }

    /// Appends the rows of whole documents, given in document order, to a
    /// table holding only lower documents. Every document id must be below
    /// `docs`. Fails with [`IndexError::Corrupt`], leaving the table
    /// unchanged, unless the rows form a closed pre-order forest:
    /// strictly increasing keys, every non-root node's parent recorded
    /// before it, each parent's children numbered `0, 1, 2, …` without a
    /// gap, and every node under a recorded document root.
    pub(crate) fn extend_sorted<'k>(
        &mut self,
        docs: u32,
        rows: impl IntoIterator<Item = (&'k [u32], NodeMeta)>,
    ) -> Result<(), IndexError> {
        let corrupt = |what: &str, key: &[u32]| {
            IndexError::Corrupt(format!("node table: {what} at {}", DeweyId::from_key(key)))
        };
        let base = self.meta.len();
        let mut meta: Vec<NodeMeta> = Vec::new();
        // Per new node: its parent's index (NO_ROOT for a document root)
        // and its element-child count so far.
        let mut parent: Vec<u32> = Vec::new();
        let mut child_count: Vec<u32> = Vec::new();
        let mut roots: Vec<(u32, u32)> = Vec::new();
        // Node indices and key of the previous row's root path.
        let mut path: Vec<u32> = Vec::new();
        let mut prev: Vec<u32> = Vec::new();
        for (key, row) in rows {
            let Some((&doc, steps)) = key.split_first() else {
                return Err(IndexError::Corrupt("node table: empty Dewey key".into()));
            };
            let node = match u32::try_from(base + meta.len()) {
                Ok(node) if node != NO_ROOT => node,
                _ => return Err(corrupt("more than 2^32 nodes", key)),
            };
            if doc >= docs {
                return Err(corrupt("document id out of range", key));
            }
            let depth = steps.len();
            let rooted_doc = roots.last().map(|&(d, _)| d);
            if depth == 0 {
                if (doc as usize) < self.roots.len() || rooted_doc.is_some_and(|d| doc <= d) {
                    return Err(corrupt("unsorted or duplicate document root", key));
                }
                roots.push((doc, node));
                parent.push(NO_ROOT);
            } else {
                // In a closed pre-order run the parent is on the previous
                // row's root path: every row between the two lies in the
                // parent's subtree.
                if common_key_len(&prev, key) < depth {
                    let what = if key < prev.as_slice() {
                        "unsorted node id"
                    } else if rooted_doc != Some(doc) {
                        "node without a document root"
                    } else {
                        "orphan node (no parent)"
                    };
                    return Err(corrupt(what, key));
                }
                let p = path[depth - 1];
                let seen = &mut child_count[p as usize - base];
                let ordinal = steps[depth - 1];
                if ordinal != *seen {
                    let what = if ordinal < *seen {
                        "unsorted or duplicate node id"
                    } else {
                        "ordinal gap"
                    };
                    return Err(corrupt(what, key));
                }
                *seen += 1;
                parent.push(p);
            }
            child_count.push(0);
            meta.push(row);
            path.truncate(depth);
            path.push(node);
            prev.clear();
            prev.extend_from_slice(key);
        }

        // Lay the new nodes' child lists out in node order; pre-order
        // delivers each parent's children in ordinal order.
        let mut fill: Vec<u32> = Vec::with_capacity(child_count.len());
        let mut end = *self.child_start.last().unwrap_or(&0);
        for &count in &child_count {
            fill.push(end);
            end += count;
        }
        self.children.resize(end as usize, 0);
        for (i, &p) in parent.iter().enumerate() {
            if p != NO_ROOT {
                let slot = &mut fill[p as usize - base];
                self.children[*slot as usize] = (base + i) as u32;
                *slot += 1;
            }
        }
        // Each cursor now sits at its node's end, which is where the next
        // node's list starts: exactly the `child_start` entries to append.
        self.child_start.extend(fill);
        self.meta.extend(meta);
        for (doc, node) in roots {
            self.roots.resize(doc as usize, NO_ROOT);
            self.roots.push(node);
        }
        Ok(())
    }

    /// Appends `other`, whose documents all follow this table's, remapping
    /// its label ids into this table's interner. Returns the label map
    /// (`other` id → id here) for the caller's other label-bearing parts.
    pub(crate) fn append(&mut self, other: NodeTable) -> Result<Vec<u32>, IndexError> {
        if other.roots.iter().take(self.roots.len()).any(|&r| r != NO_ROOT) {
            return Err(IndexError::Invariant("appended node table overlaps in documents"));
        }
        let (Ok(node_base), Ok(child_base)) =
            (u32::try_from(self.meta.len()), u32::try_from(self.children.len()))
        else {
            return Err(IndexError::Invariant("node table outgrew u32 node indices"));
        };
        let label_map: Vec<u32> =
            other.labels.names().iter().map(|name| self.labels.intern(name)).collect();
        self.meta.extend(
            other.meta.iter().map(|m| NodeMeta { label: label_map[m.label as usize], ..*m }),
        );
        self.child_start.extend(other.child_start[1..].iter().map(|&s| s + child_base));
        self.children.extend(other.children.iter().map(|&c| c + node_base));
        let docs = self.roots.len();
        for (doc, &root) in other.roots.iter().enumerate().skip(docs) {
            self.roots.resize(doc, NO_ROOT);
            self.roots.push(if root == NO_ROOT {
                NO_ROOT
            } else {
                root + node_base
            });
        }
        Ok(label_map)
    }

    /// True when documents `0..docs` each have a root and no other
    /// document has nodes.
    pub(crate) fn roots_exactly(&self, docs: usize) -> bool {
        self.roots.len() == docs && !self.roots.contains(&NO_ROOT)
    }

    /// The node index of document `doc`'s root.
    pub fn root(&self, doc: u32) -> Option<u32> {
        self.roots.get(doc as usize).copied().filter(|&r| r != NO_ROOT)
    }

    /// The node index of `node`'s child with Dewey ordinal `ordinal`.
    /// `node` must come from [`Self::root`] or [`Self::child`].
    pub fn child(&self, node: u32, ordinal: u32) -> Option<u32> {
        let n = node as usize;
        let (start, end) = (self.child_start[n] as usize, self.child_start[n + 1] as usize);
        let at = start.checked_add(ordinal as usize)?;
        if at < end {
            Some(self.children[at])
        } else {
            None
        }
    }

    /// Metadata of the node with index `node` (from [`Self::root`],
    /// [`Self::child`] or [`Self::walk`]).
    pub fn meta_at(&self, node: u32) -> &NodeMeta {
        &self.meta[node as usize]
    }

    /// The node indices along the Dewey key `key`, root first, one per
    /// recorded prefix; stops at the first absent step.
    pub fn walk<'a>(&'a self, key: &'a [u32]) -> impl Iterator<Item = u32> + 'a {
        let mut at: Option<u32> = None;
        key.iter().map_while(move |&step| {
            at = match at {
                None => self.root(step),
                Some(node) => self.child(node, step),
            };
            at
        })
    }

    /// Full metadata for a node.
    pub fn get(&self, id: &DeweyId) -> Option<&NodeMeta> {
        self.get_key(id.key())
    }

    /// Full metadata for the node with Dewey key `key` (see
    /// [`DeweyId::key`]). An ancestor's metadata is `get_key(&key[..t + 1])`,
    /// with no id built for the lookup.
    pub fn get_key(&self, key: &[u32]) -> Option<&NodeMeta> {
        let depth = key.len().checked_sub(1)?;
        self.walk(key).nth(depth).map(|node| self.meta_at(node))
    }

    /// Paper API: `isEntity(DeweyId)` — "returns the number of direct
    /// children the given node has if true, null otherwise".
    pub fn is_entity(&self, id: &DeweyId) -> Option<u32> {
        self.get(id).filter(|m| m.flags.is_entity()).map(|m| m.child_count)
    }

    /// Paper API: `isElement(DeweyId)` — repeating or connecting nodes.
    pub fn is_element(&self, id: &DeweyId) -> Option<u32> {
        self.get(id)
            .filter(|m| m.flags.is_repeating() || m.flags.is_connecting())
            .map(|m| m.child_count)
    }

    /// Child count of any recorded node.
    pub fn child_count(&self, id: &DeweyId) -> Option<u32> {
        self.get(id).map(|m| m.child_count)
    }

    /// The element name of a recorded node.
    pub fn label_name(&self, id: &DeweyId) -> Option<&str> {
        self.get(id).map(|m| self.labels.name(m.label))
    }

    /// The nearest entity node among `id` and its ancestors, per the LCE
    /// derivation of §4.1: "we check if it is an entity node or any of its
    /// ancestors is an entity node".
    pub fn lowest_entity_ancestor_or_self(&self, id: &DeweyId) -> Option<DeweyId> {
        let key = id.key();
        self.lowest_entity_depth(key).map(|depth| DeweyId::from_key(&key[..depth + 1]))
    }

    /// Depth of the nearest entity ancestor-or-self of the node with Dewey
    /// key `key`: one downward walk that stops at the first absent step.
    /// The entity's own key is `&key[..depth + 1]`.
    pub fn lowest_entity_depth(&self, key: &[u32]) -> Option<usize> {
        self.walk(key)
            .enumerate()
            .filter(|&(_, node)| self.meta_at(node).flags.is_entity())
            .last()
            .map(|(depth, _)| depth)
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// True when no nodes are recorded.
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    /// Iterates all `(id, meta)` pairs in document order (used by persist,
    /// the doctor and the census).
    pub fn iter(&self) -> Iter<'_> {
        Iter { table: self, next_doc: 0, key: Vec::new(), stack: Vec::new() }
    }

    /// Mutable metadata of one node (the doctor's corrupted fixtures).
    #[cfg(test)]
    pub(crate) fn meta_mut(&mut self, node: u32) -> &mut NodeMeta {
        &mut self.meta[node as usize]
    }
}

/// Document-order iterator over a [`NodeTable`]; see [`NodeTable::iter`].
#[derive(Debug)]
pub struct Iter<'a> {
    table: &'a NodeTable,
    next_doc: usize,
    /// Key of the last node yielded.
    key: Vec<u32>,
    /// Node index and next child ordinal at each depth of `key`.
    stack: Vec<(u32, u32)>,
}

impl<'a> Iterator for Iter<'a> {
    type Item = (DeweyId, &'a NodeMeta);

    fn next(&mut self) -> Option<Self::Item> {
        let table = self.table;
        loop {
            let node = match self.stack.last_mut() {
                None => {
                    let (doc, &root) = table
                        .roots
                        .iter()
                        .enumerate()
                        .skip(self.next_doc)
                        .find(|&(_, &r)| r != NO_ROOT)?;
                    self.next_doc = doc + 1;
                    self.key.push(doc as u32);
                    root
                }
                Some((node, ordinal)) => match table.child(*node, *ordinal) {
                    Some(child) => {
                        self.key.push(*ordinal);
                        *ordinal += 1;
                        child
                    }
                    None => {
                        self.stack.pop();
                        self.key.pop();
                        continue;
                    }
                },
            };
            self.stack.push((node, 0));
            return Some((DeweyId::from_key(&self.key), table.meta_at(node)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::categorize::{finalize_child_flags, self_flags};
    use gks_dewey::DocId;

    fn d(steps: &[u32]) -> DeweyId {
        DeweyId::new(DocId(0), steps.to_vec())
    }

    fn entity_meta(label: u32, children: u32) -> NodeMeta {
        let mut flags = self_flags(false, true, true);
        finalize_child_flags(&mut flags, false);
        NodeMeta { child_count: children, flags, label }
    }

    fn connecting_meta(label: u32, children: u32) -> NodeMeta {
        let mut flags = self_flags(false, false, false);
        finalize_child_flags(&mut flags, false);
        NodeMeta { child_count: children, flags, label }
    }

    /// A one-document table from `(steps, meta)` rows in document order.
    fn table(rows: &[(&[u32], NodeMeta)]) -> Result<NodeTable, IndexError> {
        let keys: Vec<DeweyId> = rows.iter().map(|(steps, _)| d(steps)).collect();
        let mut t = NodeTable::new();
        t.extend_sorted(1, keys.iter().map(DeweyId::key).zip(rows.iter().map(|r| r.1)))?;
        Ok(t)
    }

    #[test]
    fn is_entity_mirrors_paper_api() {
        let t = table(&[(&[], entity_meta(0, 2)), (&[0], connecting_meta(1, 3))]).unwrap();
        assert_eq!(t.is_entity(&d(&[])), Some(2));
        assert_eq!(t.is_entity(&d(&[0])), None);
        assert_eq!(t.is_element(&d(&[0])), Some(3));
        assert_eq!(t.is_element(&d(&[])), None);
        assert_eq!(t.is_entity(&d(&[9])), None);
    }

    #[test]
    fn lowest_entity_ancestor_walks_up() {
        let t = table(&[
            (&[], connecting_meta(0, 2)),
            (&[0], entity_meta(0, 2)),
            (&[0, 0], connecting_meta(0, 1)),
            (&[0, 1], connecting_meta(0, 1)),
            (&[1], connecting_meta(0, 1)),
        ])
        .unwrap();
        // Node itself is an entity → returned as-is.
        assert_eq!(t.lowest_entity_ancestor_or_self(&d(&[0])), Some(d(&[0])));
        // Connecting node → nearest entity ancestor.
        assert_eq!(t.lowest_entity_ancestor_or_self(&d(&[0, 1])), Some(d(&[0])));
        // Deep unrecorded node → still walks ancestors.
        assert_eq!(t.lowest_entity_ancestor_or_self(&d(&[0, 1, 5, 2])), Some(d(&[0])));
        // No entity on the path → None.
        assert_eq!(t.lowest_entity_ancestor_or_self(&d(&[1, 0])), None);
        // The depth form agrees, on the key slice.
        assert_eq!(t.lowest_entity_depth(d(&[0, 1, 5, 2]).key()), Some(1));
        assert_eq!(t.lowest_entity_depth(d(&[0]).key()), Some(1));
        assert_eq!(t.lowest_entity_depth(d(&[1, 0]).key()), None);
        assert_eq!(t.lowest_entity_depth(&[7, 0]), None, "unknown document");
        assert_eq!(t.get_key(d(&[0, 1]).key()), t.get(&d(&[0, 1])));
    }

    #[test]
    fn positions_follow_document_order() {
        let t = table(&[
            (&[], connecting_meta(0, 2)),
            (&[0], connecting_meta(1, 1)),
            (&[0, 0], connecting_meta(2, 1)),
            (&[1], connecting_meta(3, 1)),
        ])
        .unwrap();
        let root = t.root(0).unwrap();
        assert_eq!(root, 0);
        assert_eq!(t.child(root, 0), Some(1));
        assert_eq!(t.child(1, 0), Some(2));
        assert_eq!(t.child(root, 1), Some(3));
        assert_eq!(t.child(root, 2), None, "ordinal = child count");
        assert_eq!(t.child(2, 0), None, "below a leaf");
        assert_eq!(t.root(1), None);
        assert_eq!(t.meta_at(3).label, 3);
        assert_eq!(t.walk(&[0, 0, 0, 4]).collect::<Vec<_>>(), vec![0, 1, 2]);
        let keys: Vec<DeweyId> = t.iter().map(|(id, _)| id).collect();
        assert_eq!(keys, vec![d(&[]), d(&[0]), d(&[0, 0]), d(&[1])]);
    }

    #[test]
    fn malformed_rows_are_rejected_and_leave_the_table_unchanged() {
        let m = connecting_meta(0, 1);
        let cases: [(&str, &[&[u32]]); 5] = [
            ("unsorted", &[&[], &[0], &[1], &[0]]),
            ("duplicate", &[&[], &[0], &[0]]),
            ("orphan", &[&[], &[0], &[0, 3, 1]]),
            ("ordinal gap", &[&[], &[0], &[2]]),
            ("document root", &[&[0], &[0, 1]]),
        ];
        for (what, steps) in cases {
            let rows: Vec<(&[u32], NodeMeta)> = steps.iter().map(|s| (*s, m)).collect();
            match table(&rows) {
                Err(IndexError::Corrupt(msg)) => assert!(msg.contains(what), "{what}: {msg}"),
                other => panic!("{what}: expected a corrupt-table error, got {other:?}"),
            }
        }
        let mut t = table(&[(&[], m)]).unwrap();
        let bad = [DeweyId::root(DocId(1)), DeweyId::new(DocId(1), vec![1])];
        assert!(t.extend_sorted(2, bad.iter().map(DeweyId::key).zip([m, m])).is_err());
        assert_eq!((t.len(), t.root(1)), (1, None));
        let late = [DeweyId::root(DocId(5))];
        assert!(t.extend_sorted(2, late.iter().map(DeweyId::key).zip([m])).is_err());
    }

    #[test]
    fn interner_is_stable() {
        let mut i = LabelInterner::default();
        let a = i.intern("author");
        let b = i.intern("title");
        assert_eq!(i.intern("author"), a);
        assert_eq!(i.name(a), "author");
        assert_eq!(i.name(b), "title");
        assert_eq!(i.lookup("title"), Some(b));
        assert_eq!(i.lookup("nope"), None);
        assert_eq!(i.len(), 2);
    }
}
