//! Columnar projections of stored relations.
//!
//! A [`ColumnStore`] is a read-only, per-attribute re-encoding of a
//! [`Database`]'s row storage, built by one sequential
//! scan (relations in schema order, rows in insertion order) so that every
//! derived artifact — dictionary codes in particular — is a pure function
//! of the stored rows, independent of thread count. The row storage stays
//! authoritative; columns are a cache the hot path (join probes, semijoin
//! membership, cube grouping) reads instead of cloning and hashing
//! [`Value`]s per row.
//!
//! Encoding rules, in order:
//!
//! 1. **`DictU32`** — if the column has at most [`DICT_MAX`](crate::dict::DICT_MAX) distinct
//!    values (under the `Value` total order, so NULLs and mixed Int/Float
//!    spellings participate like any other value), every row becomes a
//!    `u32` code into a first-appearance [`Dict`].
//! 2. **`I64`** — otherwise, if every value is strictly `Value::Int`
//!    (no NULLs, no floats), the raw `i64`s are stored densely.
//! 3. **`F64`** — otherwise, if every value is strictly `Value::Float`,
//!    the raw `f64`s are stored densely.
//! 4. **`Rows`** — otherwise the column stays row-oriented and consumers
//!    fall back to the `Value` path.
//!
//! The strictness in rules 2–3 matters: a mixed Int/Float column decoded
//! from an `I64`/`F64` array would lose which spelling each row used, so
//! such columns take rule 4 instead.

use crate::database::Database;
use crate::dict::{Dict, DictBuilder};
use crate::predicate::{Atom, Predicate};
use crate::schema::AttrRef;
use crate::table::Relation;
use crate::value::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// One attribute's column, in the densest faithful encoding available.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// Dictionary-coded: `codes[row]` indexes into `dict`. The dictionary
    /// is reference-counted so that appends which introduce no new
    /// distinct values can share it instead of re-sorting the rank table.
    DictU32 {
        /// Per-row dictionary codes, in row order.
        codes: Vec<u32>,
        /// The column's value dictionary.
        dict: Arc<Dict>,
    },
    /// Dense `i64`s; only for columns that are strictly `Value::Int`.
    I64(Vec<i64>),
    /// Dense `f64`s; only for columns that are strictly `Value::Float`.
    F64(Vec<f64>),
    /// Row-oriented fallback: read through `Relation::row` instead.
    Rows,
}

impl ColumnData {
    /// Reconstruct the `Value` stored at `row`, or `None` for [`Rows`]
    /// columns (the caller should read the relation directly). For
    /// `DictU32` columns the decoded value is the column's
    /// first-appearance representative, which compares equal to the
    /// stored value under the `Value` total order.
    ///
    /// [`Rows`]: ColumnData::Rows
    pub fn value_at(&self, row: usize) -> Option<Value> {
        match self {
            ColumnData::DictU32 { codes, dict } => Some(dict.value(codes[row]).clone()),
            ColumnData::I64(xs) => Some(Value::Int(xs[row])),
            ColumnData::F64(xs) => Some(Value::Float(xs[row])),
            ColumnData::Rows => None,
        }
    }

    /// Whether this column is dictionary-coded.
    pub fn is_dict(&self) -> bool {
        matches!(self, ColumnData::DictU32 { .. })
    }
}

/// Columnar re-encodings of every attribute of every relation.
#[derive(Debug, Clone)]
pub struct ColumnStore {
    /// `columns[rel][col]`, mirroring the schema layout. Each relation's
    /// column list is reference-counted so [`ColumnStore::extend_for_append`]
    /// can share the columns of untouched relations with the old store
    /// instead of copying their arrays.
    columns: Vec<Arc<Vec<ColumnData>>>,
}

impl ColumnStore {
    /// Build columns for every attribute by one deterministic sequential
    /// scan. Cost is linear in the stored cells; orchestrators that care
    /// about where the time is spent should trigger this once up front
    /// (see `PreparedDb`), since `Database::columns` builds lazily.
    pub fn build(db: &Database) -> ColumnStore {
        let columns = db
            .schema()
            .relations()
            .iter()
            .enumerate()
            .map(|(rel, rs)| {
                let relation = db.relation(rel);
                Arc::new(
                    (0..rs.arity())
                        .map(|col| build_column(relation, col))
                        .collect(),
                )
            })
            .collect();
        ColumnStore { columns }
    }

    /// Extend a store built over a shorter prefix of `db`'s rows to cover
    /// the rows appended since, producing **exactly** the store a
    /// from-scratch [`ColumnStore::build`] over the current rows would.
    /// `old_lens[rel]` is each relation's length when `old` was built;
    /// work is proportional to the appended rows (plus a rank re-sort per
    /// dictionary that gained values), not to the whole database.
    ///
    /// Parity holds per encoding variant because every encoding decision
    /// in `build_column` fails *monotonically* under append:
    ///
    /// - `DictU32`: codes are first-appearance order, so resuming the old
    ///   dictionary and encoding only new rows reproduces the full-scan
    ///   result; crossing [`DICT_MAX`] mid-extension lands exactly where
    ///   the full scan would abandon dictionary encoding, so that case
    ///   defers to a full rescan.
    /// - `I64`/`F64`: the old prefix already overflowed the dictionary
    ///   (that overflow persists in any extension) and is strictly one
    ///   variant, so the rebuilt encoding is decided by the new rows
    ///   alone: same-variant rows extend the dense array, anything else
    ///   forces `Rows` (the *other* dense variant can't match the prefix).
    /// - `Rows`: both the dictionary and the strict-variant checks
    ///   already failed on the prefix and stay failed on any extension.
    ///
    /// [`DICT_MAX`]: crate::dict::DICT_MAX
    pub fn extend_for_append(old: &ColumnStore, db: &Database, old_lens: &[usize]) -> ColumnStore {
        let columns = db
            .schema()
            .relations()
            .iter()
            .enumerate()
            .map(|(rel, rs)| {
                let relation = db.relation(rel);
                let old_len = old_lens[rel];
                debug_assert!(old_len <= relation.len(), "relations never shrink");
                if relation.len() == old_len {
                    // Untouched relation: share its columns wholesale.
                    return Arc::clone(&old.columns[rel]);
                }
                Arc::new(
                    (0..rs.arity())
                        .map(|col| extend_column(&old.columns[rel][col], relation, col, old_len))
                        .collect(),
                )
            })
            .collect();
        ColumnStore { columns }
    }

    /// The column for `attr`.
    #[inline]
    pub fn column(&self, attr: AttrRef) -> &ColumnData {
        &self.columns[attr.rel][attr.col]
    }

    /// The codes and dictionary for `attr`, if it is dictionary-coded.
    #[inline]
    pub fn dict_column(&self, attr: AttrRef) -> Option<(&[u32], &Dict)> {
        match self.column(attr) {
            ColumnData::DictU32 { codes, dict } => Some((codes, dict)),
            _ => None,
        }
    }

    /// Compile a selection predicate against this store for repeated
    /// evaluation over universal tuples.
    ///
    /// Atoms over dictionary-coded columns are pre-evaluated once per
    /// *distinct* value into a per-code boolean mask, so the per-tuple
    /// cost drops from a `Value` comparison (string compares, Int/Float
    /// cross-type arithmetic) to two array loads. Atoms over other
    /// columns fall back to row-wise `Value` evaluation, unchanged.
    ///
    /// The compilation is *exactly* equivalent to [`Predicate::eval`],
    /// not merely close: `Value`'s `PartialEq`/`PartialOrd` are defined
    /// by the total order, every [`crate::predicate::CmpOp`] therefore
    /// depends only on a value's total-order equivalence class, and the
    /// dictionary assigns one code per class. Constant-folding of
    /// `True`/`False` through the combinators cannot change results
    /// because predicates are pure.
    pub fn compile_predicate<'a>(&'a self, p: &'a Predicate) -> CodedPredicate<'a> {
        match p {
            Predicate::True => CodedPredicate::Const(true),
            Predicate::False => CodedPredicate::Const(false),
            Predicate::Atom(a) => match self.dict_column(a.attr) {
                Some((codes, dict)) => {
                    let mask = (0..dict.len() as u32)
                        .map(|code| a.op.eval(dict.value(code), &a.value))
                        .collect();
                    CodedPredicate::Mask(MaskAtom {
                        rel: a.attr.rel,
                        codes,
                        mask,
                    })
                }
                None => CodedPredicate::Row(a),
            },
            Predicate::And(ps) => {
                let parts: Vec<CodedPredicate<'a>> =
                    ps.iter().map(|p| self.compile_predicate(p)).collect();
                if parts
                    .iter()
                    .any(|c| matches!(c, CodedPredicate::Const(false)))
                {
                    return CodedPredicate::Const(false);
                }
                let mut parts: Vec<CodedPredicate<'a>> = parts
                    .into_iter()
                    .filter(|c| !matches!(c, CodedPredicate::Const(true)))
                    .collect();
                match parts.len() {
                    0 => CodedPredicate::Const(true),
                    1 => parts.pop().expect("len checked"),
                    // Conjunctions of mask atoms — candidate explanations
                    // and the experiments' selections — get a flat,
                    // dispatch-free representation.
                    _ if parts.iter().all(|c| matches!(c, CodedPredicate::Mask(_))) => {
                        CodedPredicate::AllMasks(
                            parts
                                .into_iter()
                                .map(|c| match c {
                                    CodedPredicate::Mask(m) => m,
                                    _ => unreachable!("all parts checked to be masks"),
                                })
                                .collect(),
                        )
                    }
                    _ => CodedPredicate::All(parts),
                }
            }
            Predicate::Or(ps) => {
                let parts: Vec<CodedPredicate<'a>> =
                    ps.iter().map(|p| self.compile_predicate(p)).collect();
                if parts
                    .iter()
                    .any(|c| matches!(c, CodedPredicate::Const(true)))
                {
                    return CodedPredicate::Const(true);
                }
                let mut parts: Vec<CodedPredicate<'a>> = parts
                    .into_iter()
                    .filter(|c| !matches!(c, CodedPredicate::Const(false)))
                    .collect();
                match parts.len() {
                    0 => CodedPredicate::Const(false),
                    1 => parts.pop().expect("len checked"),
                    _ => CodedPredicate::Any(parts),
                }
            }
            Predicate::Not(p) => match self.compile_predicate(p) {
                CodedPredicate::Const(b) => CodedPredicate::Const(!b),
                c => CodedPredicate::Not(Box::new(c)),
            },
        }
    }

    /// Compile up to 64 predicates into one lookup table: the codes a
    /// universal tuple holds in the dictionary-coded columns the
    /// predicates read index the set of predicates it satisfies (bit `j`
    /// for `preds[j]`), so one probe replaces evaluating each predicate.
    /// `None` when a predicate reads a column without a dictionary, there
    /// are more than 64 predicates, or the code combinations number more
    /// than 2¹² (or none: an empty column).
    ///
    /// Exact for the reason [`ColumnStore::compile_predicate`] is: every
    /// entry is `Predicate::eval_with` on the dictionaries'
    /// representative values, and every comparison depends only on a
    /// value's total-order class, which the dictionary codes one to one.
    pub fn compile_predicate_set(&self, preds: &[&Predicate]) -> Option<PredicateSet<'_>> {
        if preds.len() > 64 {
            return None;
        }
        let mut attrs: Vec<AttrRef> = preds.iter().flat_map(|p| p.attrs()).collect();
        attrs.sort_unstable();
        attrs.dedup();
        // Per column: its dictionary and its stride in the table index.
        let mut cols: Vec<(AttrRef, &[u32], &Dict, usize)> = Vec::with_capacity(attrs.len());
        let mut size = 1usize;
        for attr in attrs {
            let (codes, dict) = self.dict_column(attr)?;
            cols.push((attr, codes, dict, size));
            size = size
                .checked_mul(dict.len())
                .filter(|n| (1..=PREDICATE_SET_MAX).contains(n))?;
        }
        let table = (0..size)
            .map(|i| {
                let value_of = |attr: AttrRef| {
                    let &(_, _, dict, stride) = cols
                        .iter()
                        .find(|c| c.0 == attr)
                        .expect("every read column was collected");
                    dict.value(((i / stride) % dict.len()) as u32)
                };
                preds
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.eval_with(&value_of))
                    .fold(0u64, |bits, (j, _)| bits | 1 << j)
            })
            .collect();
        Some(PredicateSet {
            cols: cols
                .into_iter()
                .map(|(attr, codes, _, stride)| (attr.rel, codes, stride))
                .collect(),
            table,
        })
    }
}

/// Largest table [`ColumnStore::compile_predicate_set`] builds.
const PREDICATE_SET_MAX: usize = 1 << 12;

/// Predicates compiled into one lookup table — see
/// [`ColumnStore::compile_predicate_set`].
#[derive(Debug)]
pub struct PredicateSet<'a> {
    /// Per read column: its relation, its per-row codes, and its stride in
    /// the table index.
    cols: Vec<(usize, &'a [u32], usize)>,
    /// Per code combination: bit `j` set iff predicate `j` holds.
    table: Box<[u64]>,
}

impl PredicateSet<'_> {
    /// The predicates a universal tuple satisfies, bit `j` for predicate
    /// `j`.
    #[inline]
    pub fn eval(&self, utuple: &[u32]) -> u64 {
        let index = self
            .cols
            .iter()
            .map(|&(rel, codes, stride)| codes[utuple[rel] as usize] as usize * stride)
            .sum::<usize>();
        self.table[index]
    }
}

/// A selection predicate compiled against a [`ColumnStore`] — see
/// [`ColumnStore::compile_predicate`]. Borrows the store's code arrays
/// and the source predicate's atoms; owns only the per-code masks.
#[derive(Debug)]
pub enum CodedPredicate<'a> {
    /// Constant result (`True`, `False`, and folded combinators).
    Const(bool),
    /// An atom over a dictionary-coded column, pre-evaluated per code.
    Mask(MaskAtom<'a>),
    /// An atom over a column without a dictionary: row-wise fallback.
    Row(&'a Atom),
    /// Conjunction of mask atoms only — the candidate-explanation shape —
    /// evaluated without per-child enum dispatch.
    AllMasks(Vec<MaskAtom<'a>>),
    /// General conjunction (never empty or singleton after folding).
    All(Vec<CodedPredicate<'a>>),
    /// Disjunction (never empty or singleton after folding).
    Any(Vec<CodedPredicate<'a>>),
    /// Negation.
    Not(Box<CodedPredicate<'a>>),
}

/// One dictionary-coded atom: the tuple passes iff `mask[codes[row]]`.
#[derive(Debug)]
pub struct MaskAtom<'a> {
    /// The atom's relation (indexes the universal tuple).
    rel: usize,
    /// The column's per-row dictionary codes.
    codes: &'a [u32],
    /// Atom outcome per dictionary code.
    mask: Box<[bool]>,
}

impl MaskAtom<'_> {
    #[inline]
    fn eval(&self, utuple: &[u32]) -> bool {
        self.mask[self.codes[utuple[self.rel] as usize] as usize]
    }
}

impl CodedPredicate<'_> {
    /// Evaluate against a universal tuple (one row index per relation);
    /// returns exactly what [`Predicate::eval`] returns on the source
    /// predicate.
    #[inline]
    pub fn eval(&self, db: &Database, utuple: &[u32]) -> bool {
        match self {
            CodedPredicate::Const(b) => *b,
            CodedPredicate::Mask(m) => m.eval(utuple),
            CodedPredicate::Row(a) => a.eval(db, utuple),
            CodedPredicate::AllMasks(ms) => ms.iter().all(|m| m.eval(utuple)),
            CodedPredicate::All(ps) => ps.iter().all(|p| p.eval(db, utuple)),
            CodedPredicate::Any(ps) => ps.iter().any(|p| p.eval(db, utuple)),
            CodedPredicate::Not(p) => !p.eval(db, utuple),
        }
    }
}

/// Encode one relation column per the rules in the module docs.
fn build_column(relation: &Relation, col: usize) -> ColumnData {
    let mut builder = DictBuilder::new();
    let mut codes = Vec::with_capacity(relation.len());
    let mut dict_ok = true;
    for row in relation.rows() {
        match builder.encode(&row[col]) {
            Some(code) => codes.push(code),
            None => {
                dict_ok = false;
                break;
            }
        }
    }
    if dict_ok {
        return ColumnData::DictU32 {
            codes,
            dict: Arc::new(builder.finish()),
        };
    }
    // Too many distinct values for a dictionary: try the typed dense
    // fallbacks, which require a single strict Value variant end to end.
    if relation.rows().all(|row| matches!(row[col], Value::Int(_))) {
        let xs = relation
            .rows()
            .map(|row| match row[col] {
                Value::Int(i) => i,
                _ => unreachable!("checked strictly Int above"),
            })
            .collect();
        return ColumnData::I64(xs);
    }
    if relation
        .rows()
        .all(|row| matches!(row[col], Value::Float(_)))
    {
        let xs = relation
            .rows()
            .map(|row| match row[col] {
                Value::Float(f) => f,
                _ => unreachable!("checked strictly Float above"),
            })
            .collect();
        return ColumnData::F64(xs);
    }
    ColumnData::Rows
}

/// Extend one column over rows appended past `old_len`, per the parity
/// argument on [`ColumnStore::extend_for_append`].
fn extend_column(old: &ColumnData, relation: &Relation, col: usize, old_len: usize) -> ColumnData {
    if relation.len() == old_len {
        return old.clone();
    }
    let new_values = || (old_len..relation.len()).map(|i| &relation.row(i)[col]);
    match old {
        ColumnData::DictU32 { codes, dict } => {
            let mut all_codes = Vec::with_capacity(relation.len());
            all_codes.extend_from_slice(codes);
            // Fast path: every appended value already has a code, so the
            // dictionary (values, ranks, null code) is unchanged and can
            // be shared — no rank re-sort, no map rebuild. This is the
            // common case for live appends, whose rows mostly reference
            // values the column has seen.
            let mut fresh_at = None;
            for (i, v) in new_values().enumerate() {
                match dict.code(v) {
                    Some(code) => all_codes.push(code),
                    None => {
                        fresh_at = Some(i);
                        break;
                    }
                }
            }
            let Some(fresh_at) = fresh_at else {
                return ColumnData::DictU32 {
                    codes: all_codes,
                    dict: Arc::clone(dict),
                };
            };
            // Slow path: at least one fresh distinct value. Collect the
            // fresh values in first-appearance order, assigning them the
            // next codes directly — identical to what resuming a
            // [`DictBuilder`] would assign — then merge them into the old
            // rank table in O(d + k log d) instead of re-sorting all d
            // values.
            all_codes.truncate(old_len + fresh_at);
            let mut fresh: Vec<Value> = Vec::new();
            let mut fresh_index: HashMap<&Value, u32> = HashMap::new();
            for v in new_values().skip(fresh_at) {
                let code = match dict.code(v) {
                    Some(code) => code,
                    None => match fresh_index.get(v) {
                        Some(&code) => code,
                        None => {
                            let code = (dict.len() + fresh.len()) as u32;
                            fresh.push(v.clone());
                            fresh_index.insert(v, code);
                            code
                        }
                    },
                };
                all_codes.push(code);
            }
            match dict.extended(fresh) {
                Some(extended) => ColumnData::DictU32 {
                    codes: all_codes,
                    dict: Arc::new(extended),
                },
                // Crossed DICT_MAX: a full scan abandons the dictionary
                // at this same distinct value, then picks a typed
                // fallback — defer to it wholesale.
                None => build_column(relation, col),
            }
        }
        ColumnData::I64(xs) => {
            if new_values().all(|v| matches!(v, Value::Int(_))) {
                let mut all = Vec::with_capacity(relation.len());
                all.extend_from_slice(xs);
                all.extend(new_values().map(|v| match v {
                    Value::Int(i) => *i,
                    _ => unreachable!("checked strictly Int above"),
                }));
                ColumnData::I64(all)
            } else {
                ColumnData::Rows
            }
        }
        ColumnData::F64(xs) => {
            if new_values().all(|v| matches!(v, Value::Float(_))) {
                let mut all = Vec::with_capacity(relation.len());
                all.extend_from_slice(xs);
                all.extend(new_values().map(|v| match v {
                    Value::Float(f) => *f,
                    _ => unreachable!("checked strictly Float above"),
                }));
                ColumnData::F64(all)
            } else {
                ColumnData::Rows
            }
        }
        ColumnData::Rows => ColumnData::Rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaBuilder;
    use crate::value::ValueType as T;

    /// Structural equality for tests: `Dict` holds a `HashMap`, so compare
    /// the deterministic parts (codes, decoded values, ranks, null code).
    fn assert_column_eq(a: &ColumnData, b: &ColumnData, ctx: &str) {
        match (a, b) {
            (
                ColumnData::DictU32 {
                    codes: ca,
                    dict: da,
                },
                ColumnData::DictU32 {
                    codes: cb,
                    dict: db,
                },
            ) => {
                assert_eq!(ca, cb, "{ctx}: codes");
                assert_eq!(da.len(), db.len(), "{ctx}: dict len");
                for code in 0..da.len() as u32 {
                    assert_eq!(da.value(code), db.value(code), "{ctx}: value of {code}");
                    assert_eq!(da.rank(code), db.rank(code), "{ctx}: rank of {code}");
                }
                assert_eq!(da.null_code(), db.null_code(), "{ctx}: null code");
            }
            (ColumnData::I64(xa), ColumnData::I64(xb)) => assert_eq!(xa, xb, "{ctx}: i64"),
            (ColumnData::F64(xa), ColumnData::F64(xb)) => {
                assert_eq!(xa.len(), xb.len(), "{ctx}: f64 len");
                for (i, (x, y)) in xa.iter().zip(xb).enumerate() {
                    assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: f64 row {i}");
                }
            }
            (ColumnData::Rows, ColumnData::Rows) => {}
            (a, b) => panic!("{ctx}: variant mismatch: {a:?} vs {b:?}"),
        }
    }

    fn assert_store_matches_rebuild(store: &ColumnStore, db: &Database) {
        let rebuilt = ColumnStore::build(db);
        for (rel, rs) in db.schema().relations().iter().enumerate() {
            for col in 0..rs.arity() {
                assert_column_eq(
                    &store.columns[rel][col],
                    &rebuilt.columns[rel][col],
                    &format!("{}[{col}]", rs.name),
                );
            }
        }
    }

    fn one_relation_db(attr_ty: T, values: Vec<Value>) -> Database {
        let schema = SchemaBuilder::new()
            .relation("R", &[("a", attr_ty)], &["a"])
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        for v in values {
            db.insert("R", vec![v]).expect("insert");
        }
        db
    }

    #[test]
    fn low_cardinality_column_dictionary_encodes() {
        let db = one_relation_db(
            T::Str,
            vec![
                Value::str("x"),
                Value::str("y"),
                Value::str("x"),
                Value::Null,
            ],
        );
        let store = ColumnStore::build(&db);
        let attr = AttrRef { rel: 0, col: 0 };
        match store.column(attr) {
            ColumnData::DictU32 { codes, dict } => {
                assert_eq!(codes, &[0, 1, 0, 2]);
                assert_eq!(dict.len(), 3);
                assert_eq!(dict.null_code(), Some(2));
            }
            other => panic!("expected DictU32, got {other:?}"),
        }
        assert!(store.dict_column(attr).is_some());
    }

    #[test]
    fn decode_is_identity_on_stored_rows() {
        let values = vec![
            Value::Int(5),
            Value::Null,
            Value::str("s"),
            Value::Float(-0.0),
            Value::dummy(),
            Value::Float(f64::NAN),
        ];
        let db = one_relation_db(T::Any, values.clone());
        let store = ColumnStore::build(&db);
        let col = store.column(AttrRef { rel: 0, col: 0 });
        for (row, expected) in values.iter().enumerate() {
            let got = col.value_at(row).expect("dict column decodes");
            assert_eq!(&got, expected, "row {row}");
        }
    }

    #[test]
    fn extend_for_append_matches_rebuild_on_dict_columns() {
        let schema = SchemaBuilder::new()
            .relation("A", &[("x", T::Int), ("y", T::Any)], &["x"])
            .relation("B", &[("z", T::Str)], &["z"])
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        db.insert("A", vec![Value::Int(1), Value::str("v")])
            .unwrap();
        db.insert("A", vec![Value::Int(2), Value::Null]).unwrap();
        db.insert("B", vec![Value::str("q")]).unwrap();
        let old = ColumnStore::build(&db);
        let old_lens = vec![2, 1];

        // New rows mix repeats, fresh values, a fresh NULL-free column
        // gaining nothing, Int/Float unification, and an untouched B.
        db.insert("A", vec![Value::Int(3), Value::str("v")])
            .unwrap();
        db.insert("A", vec![Value::Int(4), Value::Float(2.0)])
            .unwrap();
        db.insert("A", vec![Value::Int(2), Value::dummy()]).unwrap();

        let extended = ColumnStore::extend_for_append(&old, &db, &old_lens);
        assert_store_matches_rebuild(&extended, &db);
        // Old code prefix survives verbatim.
        let attr = AttrRef { rel: 0, col: 1 };
        match (old.column(attr), extended.column(attr)) {
            (ColumnData::DictU32 { codes: oc, .. }, ColumnData::DictU32 { codes: ec, .. }) => {
                assert_eq!(&ec[..oc.len()], &oc[..])
            }
            other => panic!("expected dict columns, got {other:?}"),
        }
    }

    #[test]
    fn extend_with_no_new_rows_clones_store() {
        let db = one_relation_db(T::Str, vec![Value::str("a"), Value::str("b")]);
        let old = ColumnStore::build(&db);
        let extended = ColumnStore::extend_for_append(&old, &db, &[2]);
        assert_store_matches_rebuild(&extended, &db);
    }

    // The dense and row fallbacks only arise past DICT_MAX distinct
    // values — too many rows for a unit test to build honestly — so
    // exercise `extend_column` directly with hand-made prefixes that
    // satisfy each variant's invariant.
    #[test]
    fn extend_dense_i64_stays_dense_on_int_rows() {
        let db = one_relation_db(T::Int, vec![Value::Int(10), Value::Int(20), Value::Int(30)]);
        let old = ColumnData::I64(vec![10, 20]);
        match extend_column(&old, db.relation(0), 0, 2) {
            ColumnData::I64(xs) => assert_eq!(xs, vec![10, 20, 30]),
            other => panic!("expected I64, got {other:?}"),
        }
    }

    #[test]
    fn extend_dense_falls_to_rows_on_variant_break() {
        let db = one_relation_db(T::Any, vec![Value::Int(10), Value::Float(0.5)]);
        let old = ColumnData::I64(vec![10]);
        assert!(matches!(
            extend_column(&old, db.relation(0), 0, 1),
            ColumnData::Rows
        ));
        let db = one_relation_db(T::Any, vec![Value::Float(1.5), Value::Null]);
        let old = ColumnData::F64(vec![1.5]);
        assert!(matches!(
            extend_column(&old, db.relation(0), 0, 1),
            ColumnData::Rows
        ));
        let db = one_relation_db(T::Any, vec![Value::Float(1.5), Value::Float(2.5)]);
        let old = ColumnData::F64(vec![1.5]);
        match extend_column(&old, db.relation(0), 0, 1) {
            ColumnData::F64(xs) => assert_eq!(xs, vec![1.5, 2.5]),
            other => panic!("expected F64, got {other:?}"),
        }
    }

    #[test]
    fn extend_rows_stays_rows() {
        let db = one_relation_db(T::Any, vec![Value::Int(1), Value::str("s")]);
        assert!(matches!(
            extend_column(&ColumnData::Rows, db.relation(0), 0, 1),
            ColumnData::Rows
        ));
    }

    #[test]
    fn column_store_mirrors_schema_layout() {
        let schema = SchemaBuilder::new()
            .relation("A", &[("x", T::Int), ("y", T::Str)], &["x"])
            .relation("B", &[("z", T::Int)], &["z"])
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        db.insert("A", vec![Value::Int(1), Value::str("v")])
            .unwrap();
        db.insert("B", vec![Value::Int(9)]).unwrap();
        let store = ColumnStore::build(&db);
        assert!(store.column(AttrRef { rel: 0, col: 1 }).is_dict());
        assert!(store.column(AttrRef { rel: 1, col: 0 }).is_dict());
    }
}
