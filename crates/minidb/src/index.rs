//! Secondary hash indexes over table columns.
//!
//! An index maps the value of one `INT` or `TEXT` column to the (ascending)
//! row indices holding that value. Indexes are *derived* state: they are
//! created on demand by the planner ([`crate::plan`]) the first time a
//! statement probes a column, and maintained incrementally by
//! [`crate::table::Table`] on every insert, cell update, delete, and clear.
//!
//! Two invariants keep the index path bit-identical to a full scan:
//!
//! * posting lists are kept **sorted ascending**, so rows come back in scan
//!   order;
//! * NULL cells are **not indexed** — a NULL never equals anything under
//!   three-valued logic, so an equality probe must not return it.
//!
//! The map is keyed by the column's native type (`i64` or `String`) rather
//! than a boxed key enum, so an equality probe borrows the probe value —
//! no allocation on the lookup path, which bidding-program triggers hit
//! several times per auction. Keys are hashed with FNV-1a: the keys are
//! machine integers and short keyword strings, where FNV beats the
//! collision-resistant default hasher and table data is not adversarial.

use crate::table::Row;
use crate::value::{Value, ValueType};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a, the classic multiply-xor hash. Quality is ample for posting
/// maps keyed by row values; speed on 8-byte ints and short strings is the
/// point.
#[derive(Debug, Clone, Copy)]
struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut hash = self.0;
        for &byte in bytes {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = hash;
    }
}

/// Build-hasher handle for FNV-keyed posting maps.
type FnvBuildHasher = BuildHasherDefault<FnvHasher>;

type FnvMap<K> = HashMap<K, Vec<usize>, FnvBuildHasher>;

/// The postings keyed by the indexed column's native type. Only exact-type
/// matches are indexed: an `INT` column indexes `Value::Int` cells, a
/// `TEXT` column `Value::Text` cells. (Mixed numeric equality like
/// `Int(2) = Float(2.0)` is true under the engine's comparison rules,
/// which is exactly why the planner falls back to a scan whenever the
/// probe key's type is not the column's type.)
#[derive(Debug, Clone)]
enum KeyMap {
    /// Postings of an `INT` column.
    Int(FnvMap<i64>),
    /// Postings of a `TEXT` column.
    Text(FnvMap<String>),
}

impl KeyMap {
    fn for_type(ty: ValueType) -> Option<KeyMap> {
        match ty {
            ValueType::Int => Some(KeyMap::Int(FnvMap::default())),
            ValueType::Text => Some(KeyMap::Text(FnvMap::default())),
            ValueType::Float | ValueType::Bool => None,
        }
    }
}

/// A hash index on one column: value → sorted row indices.
#[derive(Debug, Clone)]
pub(crate) struct HashIndex {
    col: usize,
    map: KeyMap,
}

impl HashIndex {
    /// Builds an index over the existing rows. `ty` must be `INT` or
    /// `TEXT`; the planner never requests a float index (float equality is
    /// not probe-stable).
    pub(crate) fn build(col: usize, ty: ValueType, rows: &[Row]) -> Self {
        let map = KeyMap::for_type(ty).expect("only INT and TEXT columns are indexable");
        let mut index = HashIndex { col, map };
        for (ridx, row) in rows.iter().enumerate() {
            index.note_insert(ridx, row);
        }
        index
    }

    /// The indexed column ordinal.
    pub(crate) fn column(&self) -> usize {
        self.col
    }

    /// Row indices (ascending) whose cell equals `key`, or `None` when the
    /// probe value's type is not the column's type (caller must scan).
    /// Borrows the probe value — the serving path allocates nothing here.
    pub(crate) fn lookup(&self, key: &Value) -> Option<&[usize]> {
        let postings = match (&self.map, key) {
            (KeyMap::Int(map), Value::Int(i)) => map.get(i),
            (KeyMap::Text(map), Value::Text(s)) => map.get(s.as_str()),
            _ => return None,
        };
        Some(postings.map(|v| v.as_slice()).unwrap_or(&[]))
    }

    /// Maintains the index after `row` was appended at `ridx`.
    pub(crate) fn note_insert(&mut self, ridx: usize, row: &[Value]) {
        // Appended rows have the largest index so far: pushing keeps the
        // posting list sorted.
        match (&mut self.map, &row[self.col]) {
            (KeyMap::Int(map), Value::Int(i)) => map.entry(*i).or_default().push(ridx),
            (KeyMap::Text(map), Value::Text(s)) => map.entry(s.clone()).or_default().push(ridx),
            _ => {}
        }
    }

    /// Maintains the index after row `ridx`'s indexed cell changed from
    /// `old` to `new`. Call only when the mutated column is this one.
    pub(crate) fn note_set_cell(&mut self, ridx: usize, old: &Value, new: &Value) {
        match (&mut self.map, old) {
            (KeyMap::Int(map), Value::Int(i)) => unlink(map, i, ridx),
            (KeyMap::Text(map), Value::Text(s)) => unlink(map, s.as_str(), ridx),
            _ => {}
        }
        match (&mut self.map, new) {
            (KeyMap::Int(map), Value::Int(i)) => link(map.entry(*i).or_default(), ridx),
            (KeyMap::Text(map), Value::Text(s)) => link(map.entry(s.clone()).or_default(), ridx),
            _ => {}
        }
    }

    /// Maintains the index before the rows at `sorted_doomed` (ascending,
    /// deduplicated) are removed: deleted postings vanish, survivors shift
    /// down by the number of deletions below them.
    pub(crate) fn note_delete(&mut self, sorted_doomed: &[usize]) {
        let remap = |postings: &mut Vec<usize>| {
            postings.retain_mut(|ridx| match sorted_doomed.binary_search(ridx) {
                Ok(_) => false,
                Err(shift) => {
                    *ridx -= shift;
                    true
                }
            });
            !postings.is_empty()
        };
        match &mut self.map {
            KeyMap::Int(map) => map.retain(|_, postings| remap(postings)),
            KeyMap::Text(map) => map.retain(|_, postings| remap(postings)),
        }
    }

    /// Maintains the index after all rows were removed.
    pub(crate) fn note_clear(&mut self) {
        match &mut self.map {
            KeyMap::Int(map) => map.clear(),
            KeyMap::Text(map) => map.clear(),
        }
    }

    /// Total indexed postings (test introspection).
    #[cfg(test)]
    fn postings_len(&self) -> usize {
        match &self.map {
            KeyMap::Int(map) => map.values().map(Vec::len).sum(),
            KeyMap::Text(map) => map.values().map(Vec::len).sum(),
        }
    }
}

/// Removes `ridx` from the posting list under `key` (if present), dropping
/// the map entry when the list empties.
fn unlink<K, Q>(map: &mut FnvMap<K>, key: &Q, ridx: usize)
where
    K: std::borrow::Borrow<Q> + Eq + std::hash::Hash,
    Q: Eq + std::hash::Hash + ?Sized,
{
    let Some(postings) = map.get_mut(key) else {
        return;
    };
    if let Ok(at) = postings.binary_search(&ridx) {
        postings.remove(at);
    }
    if postings.is_empty() {
        map.remove(key);
    }
}

/// Inserts `ridx` into a sorted posting list (idempotent).
fn link(postings: &mut Vec<usize>, ridx: usize) {
    if let Err(at) = postings.binary_search(&ridx) {
        postings.insert(at, ridx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Row> {
        vec![
            vec![Value::Int(5), Value::Text("a".into())],
            vec![Value::Int(7), Value::Text("b".into())],
            vec![Value::Int(5), Value::Text("c".into())],
            vec![Value::Null, Value::Text("d".into())],
        ]
    }

    #[test]
    fn build_and_lookup() {
        let idx = HashIndex::build(0, ValueType::Int, &rows());
        assert_eq!(idx.lookup(&Value::Int(5)), Some(&[0, 2][..]));
        assert_eq!(idx.lookup(&Value::Int(7)), Some(&[1][..]));
        assert_eq!(idx.lookup(&Value::Int(9)), Some(&[][..]));
        // Type-mismatched probes (and NULL) are unanswerable.
        assert_eq!(idx.lookup(&Value::Float(5.0)), None);
        assert_eq!(idx.lookup(&Value::Null), None);
    }

    #[test]
    fn nulls_are_not_indexed() {
        let idx = HashIndex::build(0, ValueType::Int, &rows());
        assert_eq!(idx.postings_len(), 3);
    }

    #[test]
    fn set_cell_moves_postings() {
        let mut idx = HashIndex::build(0, ValueType::Int, &rows());
        idx.note_set_cell(0, &Value::Int(5), &Value::Int(7));
        assert_eq!(idx.lookup(&Value::Int(5)), Some(&[2][..]));
        assert_eq!(idx.lookup(&Value::Int(7)), Some(&[0, 1][..]));
        // NULL leaves the index.
        idx.note_set_cell(1, &Value::Int(7), &Value::Null);
        assert_eq!(idx.lookup(&Value::Int(7)), Some(&[0][..]));
    }

    #[test]
    fn delete_remaps_survivors() {
        let mut idx = HashIndex::build(0, ValueType::Int, &rows());
        // Delete rows 0 and 1: old row 2 becomes row 0.
        idx.note_delete(&[0, 1]);
        assert_eq!(idx.lookup(&Value::Int(5)), Some(&[0][..]));
        assert_eq!(idx.lookup(&Value::Int(7)), Some(&[][..]));
    }

    #[test]
    fn text_index() {
        let idx = HashIndex::build(1, ValueType::Text, &rows());
        assert_eq!(idx.lookup(&Value::Text("c".into())), Some(&[2][..]));
        assert_eq!(idx.lookup(&Value::Int(1)), None);
    }

    #[test]
    fn fnv_distinguishes_lengths_and_prefixes() {
        let hash = |bytes: &[u8]| {
            let mut h = FnvHasher::default();
            h.write(bytes);
            h.finish()
        };
        assert_ne!(hash(b""), hash(b"\0"));
        assert_ne!(hash(b"kw1"), hash(b"kw10"));
        assert_ne!(hash(b"kw1"), hash(b"kw2"));
    }
}
