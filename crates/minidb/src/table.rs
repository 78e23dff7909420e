//! Tables, schemas, and rows.

use crate::error::{DbError, DbResult};
use crate::index::SortedIndex;
use crate::value::{Value, ValueType};
use std::sync::Arc;

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name (matched case-insensitively).
    pub name: String,
    /// Column type.
    pub ty: ValueType,
}

/// An ordered list of columns.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    columns: Vec<Column>,
}

/// One row of values, aligned with a [`Schema`].
pub type Row = Vec<Value>;

impl Schema {
    /// Builds a schema from `(name, type)` pairs, or
    /// [`DbError::DuplicateColumn`] if two names are equal ignoring case.
    pub fn try_new<I: IntoIterator<Item = (String, ValueType)>>(cols: I) -> DbResult<Self> {
        let columns: Vec<Column> = cols
            .into_iter()
            .map(|(name, ty)| Column { name, ty })
            .collect();
        for (i, a) in columns.iter().enumerate() {
            if columns[..i]
                .iter()
                .any(|b| a.name.eq_ignore_ascii_case(&b.name))
            {
                return Err(DbError::DuplicateColumn(a.name.clone()));
            }
        }
        Ok(Schema { columns })
    }

    /// The columns in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// `true` if the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Index of a column by (case-insensitive) name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }
}

/// An in-memory table: a schema plus rows, plus any secondary indexes the
/// planner has requested (see `crate::index`). Indexes are derived state
/// and excluded from equality. The schema is shared: a table inside a
/// [`crate::Database`] holds the one of the catalog shape it was created
/// in, so databases that ran the same DDL keep one copy of their column
/// lists.
///
/// The rows live in one row-major vector of cells, the schema giving the
/// row width, so a table costs one allocation however many rows it holds.
/// The first insert reserves exactly one row — a bidding program's tables
/// mostly stay at one — and [`Table::clear`] keeps the capacity, so a
/// table cleared and refilled every auction allocates nothing. The record
/// is 48 bytes: the row count is read off the cells.
#[derive(Debug, Clone, Default)]
pub struct Table {
    schema: Arc<Schema>,
    /// Row `r` is `cells[r * stride..r * stride + arity]`. The stride is
    /// the arity, except that a zero-column table stores one NULL per row
    /// so its row count can still be read off `cells`.
    cells: Vec<Value>,
    indexes: Box<[SortedIndex]>,
}

impl PartialEq for Table {
    fn eq(&self, other: &Self) -> bool {
        // Indexes are a cache over (schema, rows): two tables with the same
        // data are equal no matter which access paths have been exercised.
        self.schema == other.schema && self.cells == other.cells
    }
}

/// Appends `item` to a slice kept exactly as long as what it holds.
pub(crate) fn push_exact<T>(slice: &mut Box<[T]>, item: T) {
    let mut items = std::mem::take(slice).into_vec();
    items.reserve_exact(1);
    items.push(item);
    *slice = items.into_boxed_slice();
}

/// Checks `value` against `col`'s type, widening an INT bound for a FLOAT
/// column so later reads are uniform.
fn fit(value: &mut Value, col: &Column) -> DbResult<()> {
    if !value.conforms_to(col.ty) {
        return Err(DbError::Type(format!(
            "value {value} does not fit column {} ({})",
            col.name, col.ty
        )));
    }
    if col.ty == ValueType::Float {
        if let Value::Int(i) = value {
            *value = Value::Float(*i as f64);
        }
    }
    Ok(())
}

impl Table {
    /// Creates an empty table with the given schema.
    pub fn new(schema: Schema) -> Self {
        Table::with_schema(Arc::new(schema))
    }

    /// Creates an empty table over a shared schema.
    pub(crate) fn with_schema(schema: Arc<Schema>) -> Self {
        Table {
            schema,
            cells: Vec::new(),
            indexes: Box::default(),
        }
    }

    /// How many cells a row takes in `cells`.
    fn stride(&self) -> usize {
        self.schema.len().max(1)
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Row `ridx`'s cells, aligned with the schema. Panics if `ridx` is
    /// not below [`Table::len`].
    pub fn row(&self, ridx: usize) -> &[Value] {
        let start = ridx * self.stride();
        &self.cells[start..start + self.schema.len()]
    }

    /// All rows in order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[Value]> + '_ {
        (0..self.len()).map(|ridx| self.row(ridx))
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.cells.len() / self.stride()
    }

    /// `true` if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Inserts a row after checking arity and types.
    pub fn insert(&mut self, row: Row) -> DbResult<()> {
        if row.len() != self.schema.len() {
            return Err(DbError::Arity {
                expected: self.schema.len(),
                got: row.len(),
            });
        }
        let mut row = row;
        for (value, col) in row.iter_mut().zip(self.schema.columns()) {
            fit(value, col)?;
        }
        if self.cells.capacity() == 0 {
            self.cells.reserve_exact(self.stride());
        }
        let ridx = self.len();
        let start = self.cells.len();
        let placeholder = row.is_empty().then_some(Value::Null);
        self.cells.extend(row.into_iter().chain(placeholder));
        let row = &self.cells[start..];
        for index in &mut self.indexes {
            index.note_insert(ridx, row);
        }
        Ok(())
    }

    /// Mutable access for the executor (indices come from a prior scan).
    pub(crate) fn set_cell(&mut self, row: usize, col: usize, value: Value) -> DbResult<()> {
        let mut value = value;
        fit(&mut value, &self.schema.columns()[col])?;
        let at = row * self.stride() + col;
        let old = std::mem::replace(&mut self.cells[at], value);
        let new = &self.cells[at];
        for index in &mut self.indexes {
            if index.column() == col {
                index.note_set_cell(row, &old, new);
            }
        }
        Ok(())
    }

    /// Removes the rows at the given (sorted ascending, deduplicated)
    /// indices, compacting the survivors in one pass.
    pub(crate) fn delete_rows(&mut self, sorted_indices: &[usize]) {
        for index in &mut self.indexes {
            index.note_delete(sorted_indices);
        }
        let stride = self.stride();
        let mut at = 0;
        self.cells.retain(|_| {
            let keep = sorted_indices.binary_search(&(at / stride)).is_err();
            at += 1;
            keep
        });
    }

    /// Removes all rows, keeping the capacity.
    pub fn clear(&mut self) {
        self.cells.clear();
        for index in &mut self.indexes {
            index.note_clear();
        }
    }

    /// Builds a secondary index on column `col` if one does not already
    /// exist. Returns `false` (and builds nothing) when the column's type is
    /// not indexable (only `INT` and `TEXT` equality is).
    pub(crate) fn ensure_index(&mut self, col: usize) -> bool {
        if self.indexes.iter().any(|i| i.column() == col) {
            return true;
        }
        let ty = self.schema.columns()[col].ty;
        let Some(index) = SortedIndex::build(col, ty, self.rows()) else {
            return false;
        };
        push_exact(&mut self.indexes, index);
        true
    }

    /// Probes the index on `col` for rows whose cell equals `key`, in
    /// ascending row order. `None` means the probe cannot be answered by an
    /// index — none exists on that column, or the key's type is not the
    /// column's exact type — and the caller must fall back to a scan.
    pub(crate) fn index_lookup(&self, col: usize, key: &Value) -> Option<&[usize]> {
        self.indexes
            .iter()
            .find(|i| i.column() == col)
            .and_then(|i| i.lookup(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::try_new(vec![
            ("name".to_string(), ValueType::Text),
            ("bid".to_string(), ValueType::Int),
            ("roi".to_string(), ValueType::Float),
        ])
        .unwrap()
    }

    #[test]
    fn schema_lookup_case_insensitive() {
        let s = schema();
        assert_eq!(s.index_of("BID"), Some(1));
        assert_eq!(s.index_of("Roi"), Some(2));
        assert_eq!(s.index_of("missing"), None);
        assert_eq!(s.len(), 3);
    }

    #[test]
    #[should_panic(expected = "DuplicateColumn(\"A\")")]
    fn duplicate_columns_rejected() {
        Schema::try_new(vec![
            ("a".to_string(), ValueType::Int),
            ("A".to_string(), ValueType::Int),
        ])
        .unwrap();
    }

    #[test]
    fn insert_type_checked() {
        let mut t = Table::new(schema());
        t.insert(vec!["boot".into(), Value::Int(5), Value::Int(2)])
            .unwrap();
        // INT widened into the FLOAT column.
        assert_eq!(t.row(0)[2], Value::Float(2.0));
        let err = t.insert(vec![Value::Int(1), Value::Int(5), Value::Float(2.0)]);
        assert!(matches!(err, Err(DbError::Type(_))));
        let err = t.insert(vec!["x".into()]);
        assert!(matches!(
            err,
            Err(DbError::Arity {
                expected: 3,
                got: 1
            })
        ));
    }

    #[test]
    fn null_fits_any_column() {
        let mut t = Table::new(schema());
        t.insert(vec![Value::Null, Value::Null, Value::Null])
            .unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn indexes_follow_mutations() {
        let mut t = Table::new(schema());
        assert!(t.ensure_index(1)); // bid INT — indexable
        assert!(!t.ensure_index(2)); // roi FLOAT — not indexable
        for i in 0..4 {
            t.insert(vec!["k".into(), Value::Int(i % 2), Value::Float(0.0)])
                .unwrap();
        }
        assert_eq!(t.index_lookup(1, &Value::Int(0)), Some(&[0, 2][..]));
        assert_eq!(t.index_lookup(2, &Value::Float(0.0)), None);
        t.set_cell(0, 1, Value::Int(1)).unwrap();
        assert_eq!(t.index_lookup(1, &Value::Int(1)), Some(&[0, 1, 3][..]));
        t.delete_rows(&[1]);
        assert_eq!(t.index_lookup(1, &Value::Int(1)), Some(&[0, 2][..]));
        t.clear();
        assert_eq!(t.index_lookup(1, &Value::Int(1)), Some(&[][..]));
        // Equality ignores derived index state.
        assert_eq!(t, Table::new(schema()));
    }

    #[test]
    fn a_table_record_is_pinned_at_48_bytes() {
        // 64 B while it kept a row count beside the cells and its indexes
        // in a vector.
        assert_eq!(std::mem::size_of::<Table>(), 48);
    }

    #[test]
    fn a_zero_column_table_counts_its_rows() {
        let mut t = Table::new(Schema::default());
        for _ in 0..3 {
            t.insert(Vec::new()).unwrap();
        }
        assert_eq!(t.len(), 3);
        assert!(t.rows().all(<[Value]>::is_empty));
        t.delete_rows(&[0, 2]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.row(0), &[] as &[Value]);
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn delete_rows_in_reverse() {
        let mut t = Table::new(Schema::try_new(vec![("v".to_string(), ValueType::Int)]).unwrap());
        for i in 0..5 {
            t.insert(vec![Value::Int(i)]).unwrap();
        }
        t.delete_rows(&[1, 3]);
        let left: Vec<i64> = t.rows().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(left, vec![0, 2, 4]);
    }
}
