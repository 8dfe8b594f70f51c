//! Boolean predicates over universal-relation tuples.
//!
//! Query selections (the `WHERE` clauses of the aggregate sub-queries
//! `q_1, …, q_m`) are arbitrary boolean combinations of atomic comparisons
//! `[R.A op c]`. Candidate explanations use only the conjunctive fragment
//! ([`Conjunction`]); Definition 2.3 restricts explanation atoms to
//! `{=, <, ≤, >, ≥}` on single attributes.
//!
//! Null semantics: any comparison involving `NULL` is *false* (two-valued
//! logic). The paper's candidate explanations are equalities against
//! constants drawn from the data, so three-valued logic never becomes
//! observable; selections in the experiments likewise never compare nulls.

use crate::database::Database;
use crate::schema::AttrRef;
use crate::value::Value;
use std::fmt;

/// Comparison operator of an atomic predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Evaluate `lhs op rhs` under two-valued null semantics.
    #[inline]
    pub fn eval(self, lhs: &Value, rhs: &Value) -> bool {
        if lhs.is_null() || rhs.is_null() {
            return false;
        }
        match self {
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// An atomic predicate `[R.A op c]` (Definition 2.3).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Atom {
    /// The attribute compared.
    pub attr: AttrRef,
    /// The comparison operator.
    pub op: CmpOp,
    /// The constant compared against.
    pub value: Value,
}

impl Atom {
    /// Equality atom.
    pub fn eq(attr: AttrRef, value: impl Into<Value>) -> Atom {
        Atom {
            attr,
            op: CmpOp::Eq,
            value: value.into(),
        }
    }

    /// Evaluate against a universal tuple (one row index per relation).
    #[inline]
    pub fn eval(&self, db: &Database, utuple: &[u32]) -> bool {
        let row = utuple[self.attr.rel] as usize;
        self.op.eval(db.value(self.attr, row), &self.value)
    }

    /// Evaluate against a single row of the atom's own relation.
    #[inline]
    pub fn eval_row(&self, db: &Database, row: usize) -> bool {
        self.op.eval(db.value(self.attr, row), &self.value)
    }

    /// Render with schema names.
    pub fn display<'a>(&'a self, db: &'a Database) -> impl fmt::Display + 'a {
        struct D<'a>(&'a Atom, &'a Database);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(
                    f,
                    "[{} {} {}]",
                    self.1.schema().attr_name(self.0.attr),
                    self.0.op,
                    self.0.value
                )
            }
        }
        D(self, db)
    }
}

/// A conjunction of atoms — the shape of a candidate explanation
/// (Definition 2.3). The empty conjunction is `true`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Conjunction {
    /// The conjuncts.
    pub atoms: Vec<Atom>,
}

impl Conjunction {
    /// The empty (always-true) conjunction.
    pub fn trivial() -> Conjunction {
        Conjunction { atoms: Vec::new() }
    }

    /// A conjunction from atoms.
    pub fn new(atoms: Vec<Atom>) -> Conjunction {
        Conjunction { atoms }
    }

    /// Evaluate against a universal tuple.
    #[inline]
    pub fn eval(&self, db: &Database, utuple: &[u32]) -> bool {
        self.atoms.iter().all(|a| a.eval(db, utuple))
    }

    /// Number of conjuncts.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// Whether this is the trivial explanation (matches every tuple).
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Promote to a general [`Predicate`].
    pub fn to_predicate(&self) -> Predicate {
        Predicate::And(self.atoms.iter().cloned().map(Predicate::Atom).collect())
    }
}

/// A boolean predicate expression over universal tuples.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Predicate {
    /// Always true.
    True,
    /// Always false.
    False,
    /// An atomic comparison.
    Atom(Atom),
    /// Conjunction of sub-predicates (empty = true).
    And(Vec<Predicate>),
    /// Disjunction of sub-predicates (empty = false).
    Or(Vec<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// Equality atom shortcut.
    pub fn eq(attr: AttrRef, value: impl Into<Value>) -> Predicate {
        Predicate::Atom(Atom::eq(attr, value))
    }

    /// Comparison atom shortcut.
    pub fn cmp(attr: AttrRef, op: CmpOp, value: impl Into<Value>) -> Predicate {
        Predicate::Atom(Atom {
            attr,
            op,
            value: value.into(),
        })
    }

    /// `attr BETWEEN lo AND hi` (inclusive), as used by the paper's year
    /// ranges (`2000 <= z.year AND z.year <= 2004`).
    pub fn between(attr: AttrRef, lo: impl Into<Value>, hi: impl Into<Value>) -> Predicate {
        Predicate::And(vec![
            Predicate::cmp(attr, CmpOp::Ge, lo),
            Predicate::cmp(attr, CmpOp::Le, hi),
        ])
    }

    /// Conjunction shortcut.
    pub fn and(parts: impl IntoIterator<Item = Predicate>) -> Predicate {
        Predicate::And(parts.into_iter().collect())
    }

    /// Disjunction shortcut.
    pub fn or(parts: impl IntoIterator<Item = Predicate>) -> Predicate {
        Predicate::Or(parts.into_iter().collect())
    }

    /// Negation shortcut.
    #[allow(clippy::should_implement_trait)]
    pub fn not(p: Predicate) -> Predicate {
        Predicate::Not(Box::new(p))
    }

    /// Evaluate against a universal tuple (one row index per relation).
    pub fn eval(&self, db: &Database, utuple: &[u32]) -> bool {
        self.eval_with(&|a: AttrRef| db.value(a, utuple[a.rel] as usize))
    }

    /// Evaluate with every attribute read through `value_of`.
    #[inline]
    pub(crate) fn eval_with<'v>(&self, value_of: &impl Fn(AttrRef) -> &'v Value) -> bool {
        match self {
            Predicate::True => true,
            Predicate::False => false,
            Predicate::Atom(a) => a.op.eval(value_of(a.attr), &a.value),
            Predicate::And(ps) => ps.iter().all(|p| p.eval_with(value_of)),
            Predicate::Or(ps) => ps.iter().any(|p| p.eval_with(value_of)),
            Predicate::Not(p) => !p.eval_with(value_of),
        }
    }

    /// The attributes mentioned anywhere in the predicate.
    pub fn attrs(&self) -> Vec<AttrRef> {
        let mut out = Vec::new();
        self.collect_attrs(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_attrs(&self, out: &mut Vec<AttrRef>) {
        match self {
            Predicate::True | Predicate::False => {}
            Predicate::Atom(a) => out.push(a.attr),
            Predicate::And(ps) | Predicate::Or(ps) => {
                for p in ps {
                    p.collect_attrs(out);
                }
            }
            Predicate::Not(p) => p.collect_attrs(out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaBuilder;
    use crate::value::ValueType as T;

    fn db() -> Database {
        let schema = SchemaBuilder::new()
            .relation("R", &[("year", T::Int), ("venue", T::Str)], &["year"])
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        db.insert("R", vec![2001.into(), "SIGMOD".into()]).unwrap();
        db.insert("R", vec![2011.into(), "VLDB".into()]).unwrap();
        db.insert("R", vec![Value::Null, "PODS".into()]).unwrap();
        db
    }

    fn year(db: &Database) -> AttrRef {
        db.schema().attr("R", "year").unwrap()
    }
    fn venue(db: &Database) -> AttrRef {
        db.schema().attr("R", "venue").unwrap()
    }

    #[test]
    fn cmp_ops() {
        assert!(CmpOp::Eq.eval(&Value::Int(1), &Value::Int(1)));
        assert!(CmpOp::Ne.eval(&Value::Int(1), &Value::Int(2)));
        assert!(CmpOp::Lt.eval(&Value::Int(1), &Value::Int(2)));
        assert!(CmpOp::Le.eval(&Value::Int(2), &Value::Int(2)));
        assert!(CmpOp::Gt.eval(&Value::str("b"), &Value::str("a")));
        assert!(CmpOp::Ge.eval(&Value::Float(2.0), &Value::Int(2)));
    }

    #[test]
    fn null_comparisons_are_false() {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert!(!op.eval(&Value::Null, &Value::Int(1)));
            assert!(!op.eval(&Value::Int(1), &Value::Null));
            assert!(!op.eval(&Value::Null, &Value::Null));
        }
    }

    #[test]
    fn atom_eval_over_rows() {
        let db = db();
        let a = Atom::eq(venue(&db), "SIGMOD");
        assert!(a.eval_row(&db, 0));
        assert!(!a.eval_row(&db, 1));
        assert!(a.eval(&db, &[0]));
    }

    #[test]
    fn between_and_boolean_combinators() {
        let db = db();
        let p = Predicate::and([
            Predicate::between(year(&db), 2000, 2004),
            Predicate::eq(venue(&db), "SIGMOD"),
        ]);
        assert!(p.eval(&db, &[0]));
        assert!(!p.eval(&db, &[1]));
        // Null year falls outside every range.
        assert!(!p.eval(&db, &[2]));

        let q = Predicate::or([
            Predicate::eq(venue(&db), "VLDB"),
            Predicate::eq(venue(&db), "PODS"),
        ]);
        assert!(!q.eval(&db, &[0]));
        assert!(q.eval(&db, &[1]));
        assert!(q.eval(&db, &[2]));

        assert!(Predicate::not(Predicate::False).eval(&db, &[0]));
        assert!(Predicate::True.eval(&db, &[2]));
    }

    #[test]
    fn conjunction_eval_and_trivial() {
        let db = db();
        let c = Conjunction::new(vec![
            Atom::eq(venue(&db), "SIGMOD"),
            Atom::eq(year(&db), 2001),
        ]);
        assert!(c.eval(&db, &[0]));
        assert!(!c.eval(&db, &[1]));
        assert!(Conjunction::trivial().eval(&db, &[1]));
        assert!(Conjunction::trivial().is_empty());
        assert_eq!(c.len(), 2);
        assert_eq!(c.to_predicate().eval(&db, &[0]), c.eval(&db, &[0]));
    }

    #[test]
    fn attrs_collects_and_dedups() {
        let db = db();
        let p = Predicate::or([
            Predicate::eq(venue(&db), "a"),
            Predicate::not(Predicate::between(year(&db), 1, 2)),
            Predicate::eq(venue(&db), "b"),
        ]);
        assert_eq!(p.attrs(), vec![year(&db), venue(&db)]);
    }
}
