//! Secondary indexes over table columns: one sorted array per index.
//!
//! An index maps the value of one `INT` or `TEXT` column to the (ascending)
//! row indices holding that value. Indexes are *derived* state: they are
//! created on demand by the planner ([`crate::plan`]) the first time a
//! statement probes a column, and maintained incrementally by
//! [`crate::table::Table`] on every insert, cell update, delete, and clear.
//!
//! Two invariants keep the index path bit-identical to a full scan:
//!
//! * entries are kept **sorted by (key, row)**, so a key's rows are one
//!   contiguous run that comes back in scan order;
//! * NULL cells are **not indexed** — a NULL never equals anything under
//!   three-valued logic, so an equality probe must not return it.
//!
//! The index is two parallel vectors — keys in the column's native type
//! (`i64` or [`Text`]) and row ids — rather than a hash map with a posting
//! list per key: a bidding program's tables hold one or two rows, where a
//! sorted array is the most compact main-memory index (Lehman & Carey,
//! VLDB 1986) and its linear update cost never shows. A probe borrows the
//! probe value and binary-searches, so the lookup path allocates nothing.

use crate::value::{Text, Value, ValueType};
use std::ops::Range;

/// Keys and row ids in two parallel vectors, sorted by `(key, row)`.
#[derive(Debug, Clone, Default)]
struct Sorted<K> {
    keys: Vec<K>,
    rows: Vec<usize>,
}

impl<K: Ord> Sorted<K> {
    /// The positions holding `key`.
    fn range(&self, key: &K) -> Range<usize> {
        let start = self.keys.partition_point(|k| k < key);
        let len = self.keys[start..].partition_point(|k| k == key);
        start..start + len
    }

    fn lookup(&self, key: &K) -> &[usize] {
        &self.rows[self.range(key)]
    }

    /// Adds `(key, ridx)` at its sorted position.
    fn insert(&mut self, key: K, ridx: usize) {
        let range = self.range(&key);
        let at = range.start + self.rows[range].partition_point(|&r| r < ridx);
        if self.keys.capacity() == 0 {
            // Indexed tables mostly hold one row: no spare slots.
            self.keys.reserve_exact(1);
            self.rows.reserve_exact(1);
        }
        self.keys.insert(at, key);
        self.rows.insert(at, ridx);
    }

    /// Removes `(key, ridx)` if present.
    fn remove(&mut self, key: &K, ridx: usize) {
        let range = self.range(key);
        if let Ok(at) = self.rows[range.clone()].binary_search(&ridx) {
            self.keys.remove(range.start + at);
            self.rows.remove(range.start + at);
        }
    }

    /// Drops the entries of the rows at `sorted_doomed` and shifts every
    /// survivor down by the number of deletions below it, in one pass.
    /// The shift is monotone, so `(key, row)` order survives it.
    fn delete(&mut self, sorted_doomed: &[usize]) {
        let mut kept = 0;
        for at in 0..self.rows.len() {
            if let Err(shift) = sorted_doomed.binary_search(&self.rows[at]) {
                self.rows[kept] = self.rows[at] - shift;
                self.keys.swap(kept, at);
                kept += 1;
            }
        }
        self.keys.truncate(kept);
        self.rows.truncate(kept);
    }

    fn clear(&mut self) {
        self.keys.clear();
        self.rows.clear();
    }
}

/// The entries keyed by the indexed column's native type. Only exact-type
/// matches are indexed: an `INT` column indexes `Value::Int` cells, a
/// `TEXT` column `Value::Text` cells. (Mixed numeric equality like
/// `Int(2) = Float(2.0)` is true under the engine's comparison rules,
/// which is exactly why the planner falls back to a scan whenever the
/// probe key's type is not the column's type.)
#[derive(Debug, Clone)]
enum Keyed {
    /// Entries of an `INT` column.
    Int(Sorted<i64>),
    /// Entries of a `TEXT` column.
    Text(Sorted<Text>),
}

/// A sorted-array index on one column: value → ascending row indices.
#[derive(Debug, Clone)]
pub(crate) struct SortedIndex {
    col: usize,
    keyed: Keyed,
}

impl SortedIndex {
    /// Builds an index over the existing rows, or `None` when `ty` is not
    /// indexable: only `INT` and `TEXT` equality is (float equality is not
    /// probe-stable).
    pub(crate) fn build<'r>(
        col: usize,
        ty: ValueType,
        rows: impl Iterator<Item = &'r [Value]>,
    ) -> Option<Self> {
        let keyed = match ty {
            ValueType::Int => Keyed::Int(Sorted::default()),
            ValueType::Text => Keyed::Text(Sorted::default()),
            ValueType::Float | ValueType::Bool => return None,
        };
        let mut index = SortedIndex { col, keyed };
        for (ridx, row) in rows.enumerate() {
            index.note_insert(ridx, row);
        }
        Some(index)
    }

    /// The indexed column ordinal.
    pub(crate) fn column(&self) -> usize {
        self.col
    }

    /// Row indices (ascending) whose cell equals `key`, or `None` when the
    /// probe value's type is not the column's type (caller must scan).
    /// Borrows the probe value — the serving path allocates nothing here.
    pub(crate) fn lookup(&self, key: &Value) -> Option<&[usize]> {
        match (&self.keyed, key) {
            (Keyed::Int(sorted), Value::Int(i)) => Some(sorted.lookup(i)),
            (Keyed::Text(sorted), Value::Text(s)) => Some(sorted.lookup(s)),
            _ => None,
        }
    }

    /// Maintains the index after `row` was appended at `ridx`.
    pub(crate) fn note_insert(&mut self, ridx: usize, row: &[Value]) {
        self.link(&row[self.col], ridx);
    }

    /// Maintains the index after row `ridx`'s indexed cell changed from
    /// `old` to `new`. Call only when the mutated column is this one.
    pub(crate) fn note_set_cell(&mut self, ridx: usize, old: &Value, new: &Value) {
        match (&mut self.keyed, old) {
            (Keyed::Int(sorted), Value::Int(i)) => sorted.remove(i, ridx),
            (Keyed::Text(sorted), Value::Text(s)) => sorted.remove(s, ridx),
            _ => {}
        }
        self.link(new, ridx);
    }

    /// Maintains the index before the rows at `sorted_doomed` (ascending,
    /// deduplicated) are removed: their entries vanish, survivors shift
    /// down by the number of deletions below them.
    pub(crate) fn note_delete(&mut self, sorted_doomed: &[usize]) {
        match &mut self.keyed {
            Keyed::Int(sorted) => sorted.delete(sorted_doomed),
            Keyed::Text(sorted) => sorted.delete(sorted_doomed),
        }
    }

    /// Maintains the index after all rows were removed.
    pub(crate) fn note_clear(&mut self) {
        match &mut self.keyed {
            Keyed::Int(sorted) => sorted.clear(),
            Keyed::Text(sorted) => sorted.clear(),
        }
    }

    /// Indexes `value` at row `ridx` if it has the column's exact type.
    fn link(&mut self, value: &Value, ridx: usize) {
        match (&mut self.keyed, value) {
            (Keyed::Int(sorted), Value::Int(i)) => sorted.insert(*i, ridx),
            (Keyed::Text(sorted), Value::Text(s)) => sorted.insert(s.clone(), ridx),
            _ => {}
        }
    }

    /// Total indexed entries (test introspection).
    #[cfg(test)]
    fn entries(&self) -> usize {
        match &self.keyed {
            Keyed::Int(sorted) => sorted.rows.len(),
            Keyed::Text(sorted) => sorted.rows.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{Row, Schema, Table};
    use proptest::prelude::*;

    fn rows() -> Vec<Row> {
        vec![
            vec![Value::Int(5), Value::Text("a".into())],
            vec![Value::Int(7), Value::Text("b".into())],
            vec![Value::Int(5), Value::Text("c".into())],
            vec![Value::Null, Value::Text("d".into())],
        ]
    }

    fn build(col: usize, ty: ValueType) -> SortedIndex {
        SortedIndex::build(col, ty, rows().iter().map(Vec::as_slice)).unwrap()
    }

    #[test]
    fn build_and_lookup() {
        let idx = build(0, ValueType::Int);
        assert_eq!(idx.lookup(&Value::Int(5)), Some(&[0, 2][..]));
        assert_eq!(idx.lookup(&Value::Int(7)), Some(&[1][..]));
        assert_eq!(idx.lookup(&Value::Int(9)), Some(&[][..]));
        // Type-mismatched probes (and NULL) are unanswerable.
        assert_eq!(idx.lookup(&Value::Float(5.0)), None);
        assert_eq!(idx.lookup(&Value::Null), None);
        // Float and Bool columns are not indexable at all.
        let floats = SortedIndex::build(0, ValueType::Float, rows().iter().map(Vec::as_slice));
        assert!(floats.is_none());
    }

    #[test]
    fn nulls_are_not_indexed() {
        assert_eq!(build(0, ValueType::Int).entries(), 3);
    }

    #[test]
    fn set_cell_moves_postings() {
        let mut idx = build(0, ValueType::Int);
        idx.note_set_cell(0, &Value::Int(5), &Value::Int(7));
        assert_eq!(idx.lookup(&Value::Int(5)), Some(&[2][..]));
        assert_eq!(idx.lookup(&Value::Int(7)), Some(&[0, 1][..]));
        // NULL leaves the index.
        idx.note_set_cell(1, &Value::Int(7), &Value::Null);
        assert_eq!(idx.lookup(&Value::Int(7)), Some(&[0][..]));
    }

    #[test]
    fn delete_remaps_survivors() {
        let mut idx = build(0, ValueType::Int);
        // Delete rows 0 and 1: old row 2 becomes row 0.
        idx.note_delete(&[0, 1]);
        assert_eq!(idx.lookup(&Value::Int(5)), Some(&[0][..]));
        assert_eq!(idx.lookup(&Value::Int(7)), Some(&[][..]));
    }

    #[test]
    fn text_index() {
        let idx = build(1, ValueType::Text);
        assert_eq!(idx.lookup(&Value::Text("c".into())), Some(&[2][..]));
        assert_eq!(idx.lookup(&Value::Int(1)), None);
    }

    /// One table mutation; keys come from a small domain (`None` is NULL)
    /// so duplicates are common.
    #[derive(Debug, Clone)]
    enum Op {
        Insert(Option<u8>, Option<u8>),
        SetCell(usize, usize, Option<u8>),
        Delete(Vec<usize>),
        Clear,
    }

    /// Keys are drawn from `0..KEYS`; `KEYS` itself is never stored.
    const KEYS: u8 = 4;

    fn key() -> impl Strategy<Value = Option<u8>> {
        proptest::option::of(0..KEYS)
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            4 => (key(), key()).prop_map(|(i, t)| Op::Insert(i, t)),
            4 => (0..8usize, 0..2usize, key()).prop_map(|(r, c, k)| Op::SetCell(r, c, k)),
            2 => proptest::collection::vec(0..8usize, 0..4).prop_map(Op::Delete),
            1 => Just(Op::Clear),
        ]
    }

    /// The cell value of key `k` in column `col` (0 = INT, 1 = TEXT). Odd
    /// TEXT keys are longer than a text stores inline, and sort between
    /// the even ones, so each index holds both kinds in one order.
    fn cell(col: usize, k: Option<u8>) -> Value {
        match (col, k) {
            (_, None) => Value::Null,
            (0, Some(k)) => Value::Int(i64::from(k)),
            (_, Some(k)) if k % 2 == 0 => Value::from(format!("kw{k}")),
            (_, Some(k)) => Value::from(format!("kw{k}, past the inline length")),
        }
    }

    fn apply(table: &mut Table, op: &Op) {
        match op {
            Op::Insert(i, t) => table.insert(vec![cell(0, *i), cell(1, *t)]).unwrap(),
            Op::SetCell(row, col, k) => {
                if !table.is_empty() {
                    let row = row % table.len();
                    table.set_cell(row, *col, cell(*col, *k)).unwrap();
                }
            }
            Op::Delete(picks) => {
                let mut doomed: Vec<usize> = picks
                    .iter()
                    .filter(|_| !table.is_empty())
                    .map(|p| p % table.len())
                    .collect();
                doomed.sort_unstable();
                doomed.dedup();
                table.delete_rows(&doomed);
            }
            Op::Clear => table.clear(),
        }
    }

    /// Every present key and one absent key probe to exactly the rows a
    /// scan finds; probes of another type are unanswerable.
    fn assert_index_matches_scan(table: &Table) {
        for col in 0..2 {
            for k in 0..=KEYS {
                let key = cell(col, Some(k));
                let scanned: Vec<usize> = table
                    .rows()
                    .enumerate()
                    .filter(|(_, row)| row[col] == key)
                    .map(|(ridx, _)| ridx)
                    .collect();
                assert_eq!(
                    table.index_lookup(col, &key),
                    Some(scanned.as_slice()),
                    "column {col}, key {key}"
                );
            }
            assert_eq!(table.index_lookup(col, &Value::Float(1.0)), None);
            assert_eq!(table.index_lookup(col, &Value::Null), None);
            assert_eq!(table.index_lookup(col, &cell(1 - col, Some(1))), None);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The index is a cache of the scan: after every mutation, built
        /// before or after the first rows arrive.
        #[test]
        fn index_lookup_equals_scan(
            before in proptest::collection::vec(op(), 0..6),
            after in proptest::collection::vec(op(), 1..40),
        ) {
            let schema = Schema::try_new(vec![
                ("i".to_string(), ValueType::Int),
                ("t".to_string(), ValueType::Text),
            ])
            .unwrap();
            let mut table = Table::new(schema);
            for op in &before {
                apply(&mut table, op);
            }
            prop_assert!(table.ensure_index(0) && table.ensure_index(1));
            assert_index_matches_scan(&table);
            for op in &after {
                apply(&mut table, op);
                assert_index_matches_scan(&table);
            }
        }
    }
}
