//! The data-cube operator (`GROUP BY … WITH CUBE`).
//!
//! Given dimensions `A' = (A_1, …, A_d)` and an aggregate, the cube holds
//! one cell per observed combination of dimension values *for every subset
//! of the dimensions*, with `Value::Null` in the "don't care" coordinates —
//! exactly SQL Server's `WITH CUBE` that Section 4 of the paper builds
//! Algorithm 1 on. Each cube row *is* a candidate explanation: the
//! conjunction of equalities on its non-null coordinates.
//!
//! Two strategies are provided (and ablation-benched against each other):
//!
//! * [`CubeStrategy::SubsetEnumeration`] — every input tuple updates all
//!   `2^d` cells it belongs to. Simple; cost `O(|U| · 2^d)` hash updates.
//! * [`CubeStrategy::LatticeRollup`] — group into finest-level cells first,
//!   then roll cells up the lattice level by level; each cell is touched
//!   once per parent. Cost `O(|U| + Σ_cells)`; wins when `|U| ≫ #cells`
//!   (low-cardinality dimensions, the natality setting).
//!
//! ```
//! use exq_relstore::aggregate::AggFunc;
//! use exq_relstore::cube::{compute, CubeStrategy};
//! use exq_relstore::{Database, Predicate, SchemaBuilder, Universal, Value, ValueType};
//!
//! let schema = SchemaBuilder::new()
//!     .relation("R", &[("id", ValueType::Int), ("g", ValueType::Str)], &["id"])
//!     .build()?;
//! let mut db = Database::new(schema);
//! for (i, g) in ["a", "a", "b"].iter().enumerate() {
//!     db.insert("R", vec![(i as i64).into(), (*g).into()])?;
//! }
//! let u = Universal::compute(&db, &db.full_view());
//! let g = db.schema().attr("R", "g")?;
//! let cube = compute(&db, &u, &Predicate::True, &[g], &AggFunc::CountStar, CubeStrategy::Auto)?;
//! assert_eq!(cube.get(&[Value::str("a")]), Some(2.0));
//! assert_eq!(cube.grand_total(), Some(3.0));
//! # Ok::<(), exq_relstore::Error>(())
//! ```

use crate::aggregate::{AggEval, AggFunc, AggState};
use crate::column::{CodedPredicate, ColumnStore, PredicateSet};
use crate::database::Database;
use crate::dict::Dict;
use crate::error::{Error, Result};
use crate::join::Universal;
use crate::par::{self, ExecConfig};
use crate::predicate::Predicate;
use crate::schema::AttrRef;
use crate::value::Value;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

/// Maximum cube dimensionality. `2^16` masks per tuple is already far past
/// anything interactive; the paper's experiments stop at 8.
pub const MAX_CUBE_DIMS: usize = 16;

/// Tuple-accumulation block size. Input tuples are folded into per-block
/// cell maps which are then merged in block order, so the float-addition
/// grouping is a function of the input length alone — never of the thread
/// count. This is what makes cube output bit-identical at any `--threads`.
const ACCUM_BLOCK: usize = 4096;

/// Blocks per executor thread that accumulate before their maps are
/// merged: enough to keep every thread busy, few enough that the
/// per-block maps alive at once stay a small multiple of the merged one.
const WINDOW_BLOCKS_PER_THREAD: usize = 4;

/// Which cube algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CubeStrategy {
    /// Per-tuple enumeration of all `2^d` ancestor cells.
    SubsetEnumeration,
    /// Finest-level grouping followed by level-wise roll-up.
    LatticeRollup,
    /// Sample the input to estimate the distinct-cell count and pick
    /// between the two: roll-up when cells ≪ rows (the low-cardinality
    /// categorical setting), subset enumeration when nearly every tuple
    /// has its own cell (roll-up would only add a regrouping pass).
    #[default]
    Auto,
}

/// Sample size for [`CubeStrategy::Auto`]'s distinct-cell estimate.
const AUTO_SAMPLE: usize = 2048;

/// Resolve [`CubeStrategy::Auto`] against the actual input.
fn resolve_strategy(
    db: &Database,
    u: &Universal,
    dims: &[AttrRef],
    strategy: CubeStrategy,
) -> CubeStrategy {
    match strategy {
        CubeStrategy::Auto => {
            let sample = AUTO_SAMPLE.min(u.len());
            if sample == 0 {
                return CubeStrategy::SubsetEnumeration;
            }
            let distinct = crate::stats::estimate_distinct_coords(db, u, dims, sample);
            // Dense in the sample → likely high-cardinality: enumerate.
            if distinct * 2 >= sample {
                CubeStrategy::SubsetEnumeration
            } else {
                CubeStrategy::LatticeRollup
            }
        }
        resolved => resolved,
    }
}

/// A cube coordinate: one value per dimension, `Value::Null` marking
/// "don't care".
pub type Coord = Box<[Value]>;

/// A computed data cube.
#[derive(Debug, Clone)]
pub struct Cube {
    /// The dimension attributes, in coordinate order.
    pub dims: Vec<AttrRef>,
    /// Aggregate value per cell. Only non-empty cells are present.
    pub cells: HashMap<Coord, f64>,
}

impl Cube {
    /// Number of cells (including the all-null grand total, if any input
    /// tuple matched).
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the cube has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The value at a coordinate, if that cell exists.
    pub fn get(&self, coord: &[Value]) -> Option<f64> {
        self.cells.get(coord).copied()
    }

    /// The grand total (all coordinates null).
    pub fn grand_total(&self) -> Option<f64> {
        let coord: Coord = vec![Value::Null; self.dims.len()].into_boxed_slice();
        self.get(&coord)
    }
}

/// Compute the cube of `agg` over the universal tuples of `u` satisfying
/// `selection`, grouped (with cube) by `dims`.
///
/// Errors if `dims` exceeds [`MAX_CUBE_DIMS`] or if any input tuple has a
/// NULL dimension value (a NULL coordinate would be indistinguishable from
/// "don't care"; the paper's datasets recode missing values explicitly).
pub fn compute(
    db: &Database,
    u: &Universal,
    selection: &Predicate,
    dims: &[AttrRef],
    agg: &AggFunc,
    strategy: CubeStrategy,
) -> Result<Cube> {
    compute_with(
        db,
        u,
        selection,
        dims,
        agg,
        strategy,
        &ExecConfig::sequential(),
    )
}

/// [`compute`] with an explicit executor. Output is bit-identical at any
/// thread count: accumulation is blocked by `ACCUM_BLOCK` and merged in
/// block order, and roll-up merges iterate cells in coordinate order.
///
/// The one-slot case of [`compute_slots_with`]: it runs in packed code
/// space when [`runs_coded`] holds and in `Value` space otherwise. Both
/// run the *same* generic grouping code over the same block structure,
/// tuple order, and fold order, so their cells are bit-identical (see
/// `CubeSpace`).
pub fn compute_with(
    db: &Database,
    u: &Universal,
    selection: &Predicate,
    dims: &[AttrRef],
    agg: &AggFunc,
    strategy: CubeStrategy,
    exec: &ExecConfig,
) -> Result<Cube> {
    let slots = [(selection, agg)];
    let cells = run(db, u, &slots, dims, Mode::Cube(strategy), exec, false)?;
    Ok(one_slot_cube(dims, cells))
}

/// The retained row-oriented reference path of [`compute_with`]: groups
/// on cloned `Value` coordinates regardless of how the dimension columns
/// are encoded. The differential test suite asserts its cells are
/// bit-identical to the columnar path's.
pub fn compute_rows_with(
    db: &Database,
    u: &Universal,
    selection: &Predicate,
    dims: &[AttrRef],
    agg: &AggFunc,
    strategy: CubeStrategy,
    exec: &ExecConfig,
) -> Result<Cube> {
    let slots = [(selection, agg)];
    let cells = run(db, u, &slots, dims, Mode::Cube(strategy), exec, true)?;
    Ok(one_slot_cube(dims, cells))
}

/// A data cube carrying `m` aggregate slots per cell: slot `j` aggregates
/// its own function over the tuples its own selection admits
/// ([`compute_slots_with`]).
#[derive(Debug, Clone)]
pub struct SlotCube {
    /// The dimension attributes, in coordinate order.
    pub dims: Vec<AttrRef>,
    /// One value per slot for each cell (`Value::Null` = "don't care"). A
    /// cell exists when at least one slot's selection admits a tuple in
    /// it; a slot that no admitted tuple reaches holds 0 — Algorithm 1's
    /// outer-join convention, and the value of an empty aggregate.
    pub cells: HashMap<Coord, Vec<f64>>,
    slots: usize,
}

impl SlotCube {
    /// Each slot's aggregate over its whole selection: the all-"don't
    /// care" cell. All zeros (every aggregate empty) when no slot admitted
    /// any tuple.
    pub fn grand_total(&self) -> Vec<f64> {
        let coord: Coord = vec![Value::Null; self.dims.len()].into_boxed_slice();
        self.cells
            .get(&coord)
            .cloned()
            .unwrap_or_else(|| vec![0.0; self.slots])
    }
}

/// The cube of several `(selection, aggregate)` slots over `dims` in one
/// scan of `u`: every tuple is tested against each slot's selection and
/// folded once into its cells, which carry one aggregate state per slot.
/// Each slot's cells are bit-identical to a separate [`compute_with`] run
/// of that slot: a slot's state sees the same tuples in the same order,
/// the same block merges and the same roll-up order.
pub fn compute_slots_with(
    db: &Database,
    u: &Universal,
    slots: &[(&Predicate, &AggFunc)],
    dims: &[AttrRef],
    strategy: CubeStrategy,
    exec: &ExecConfig,
) -> Result<SlotCube> {
    let decoded = run(db, u, slots, dims, Mode::Cube(strategy), exec, false)?;
    Ok(SlotCube {
        dims: dims.to_vec(),
        cells: decoded
            .into_iter()
            .map(|(coord, slot_states)| (coord, slot_states.iter().map(finalize_slot).collect()))
            .collect(),
        slots: slots.len(),
    })
}

/// Whether cubes over `dims` run in packed code space: every dimension
/// column is dictionary-coded and a packed coordinate fits in 64 bits.
/// Otherwise they group on `Value` coordinates.
pub fn runs_coded(db: &Database, dims: &[AttrRef]) -> bool {
    CodedSpace::new(db.columns(), dims).is_some()
}

/// Plain `GROUP BY` (no cube): only the finest-level cells. This is the
/// operator behind series queries (one aggregate value per group), and
/// the first phase of the lattice roll-up.
pub fn group_by(
    db: &Database,
    u: &Universal,
    selection: &Predicate,
    dims: &[AttrRef],
    agg: &AggFunc,
) -> Result<Cube> {
    group_by_with(db, u, selection, dims, agg, &ExecConfig::sequential())
}

/// [`group_by`] with an explicit executor. Like [`compute_with`], runs in
/// code space when [`runs_coded`] holds.
pub fn group_by_with(
    db: &Database,
    u: &Universal,
    selection: &Predicate,
    dims: &[AttrRef],
    agg: &AggFunc,
    exec: &ExecConfig,
) -> Result<Cube> {
    let slots = [(selection, agg)];
    let cells = run(db, u, &slots, dims, Mode::GroupBy, exec, false)?;
    Ok(one_slot_cube(dims, cells))
}

/// A space's cell map.
type CellMap<S> = HashMap<<S as CubeSpace>::Key, SlotStates>;

/// Per-cell aggregate states, one per slot; a slot stays `None` until a
/// tuple its selection admits reaches the cell.
type SlotStates = Box<[Option<AggState>]>;

/// A slot's value: its finalized state, or 0 when no tuple reached it.
fn finalize_slot(state: &Option<AggState>) -> f64 {
    state.as_ref().map_or(0.0, AggState::finalize)
}

/// A one-slot run's cells as a [`Cube`].
fn one_slot_cube(dims: &[AttrRef], decoded: Vec<(Coord, SlotStates)>) -> Cube {
    Cube {
        dims: dims.to_vec(),
        cells: decoded
            .into_iter()
            .map(|(coord, slot_states)| (coord, finalize_slot(&slot_states[0])))
            .collect(),
    }
}

/// What one run of the machinery computes.
#[derive(Clone, Copy)]
enum Mode {
    /// Every lattice level (`WITH CUBE`), by the given strategy.
    Cube(CubeStrategy),
    /// The finest level only (`GROUP BY`); records no counters.
    GroupBy,
}

/// The one entry into the cube machinery: validate, pick the space, run,
/// decode. `reference` forces the row-oriented path (`Value` keys,
/// uncompiled predicates). Cells come back in no particular order; every
/// caller collects them into a map.
fn run(
    db: &Database,
    u: &Universal,
    slots: &[(&Predicate, &AggFunc)],
    dims: &[AttrRef],
    mode: Mode,
    exec: &ExecConfig,
    reference: bool,
) -> Result<Vec<(Coord, SlotStates)>> {
    if dims.len() > MAX_CUBE_DIMS {
        return Err(Error::TooManyCubeDimensions(dims.len()));
    }
    for (_, agg) in slots {
        agg.validate(db.schema())?;
    }
    let store = Arc::clone(db.columns());
    let aggs: Vec<&AggFunc> = slots.iter().map(|&(_, agg)| agg).collect();
    let preds: Vec<&Predicate> = slots.iter().map(|&(p, _)| p).collect();
    if reference {
        let admission = Admission::Each(preds.into_iter().map(Selection::Rows).collect());
        return run_in(db, u, &admission, &aggs, &ValueSpace { dims }, mode, exec);
    }
    let admission = match store.compile_predicate_set(&preds) {
        Some(set) => Admission::Table(set),
        None => Admission::Each(
            preds
                .into_iter()
                .map(|p| Selection::Coded(store.compile_predicate(p)))
                .collect(),
        ),
    };
    match CodedSpace::new(&store, dims) {
        Some(space) => run_in(db, u, &admission, &aggs, &space, mode, exec),
        None => run_in(db, u, &admission, &aggs, &ValueSpace { dims }, mode, exec),
    }
}

/// Which slots admit a tuple. Both forms return the decisions
/// [`Predicate::eval`] would. The table answers every slot with one
/// probe; it needs every column the selections read to be
/// dictionary-coded and few code combinations, and `Each` covers the
/// rest.
enum Admission<'a> {
    /// One table probe answers for every slot.
    Table(PredicateSet<'a>),
    /// Each slot's selection, evaluated in turn.
    Each(Vec<Selection<'a>>),
}

impl Admission<'_> {
    /// Fill `out` with the indices of the slots admitting tuple `t`.
    #[inline]
    fn admitted(&self, db: &Database, t: &[u32], out: &mut Vec<usize>) {
        out.clear();
        match self {
            Admission::Table(set) => {
                let mut bits = set.eval(t);
                while bits != 0 {
                    out.push(bits.trailing_zeros() as usize);
                    bits &= bits - 1;
                }
            }
            Admission::Each(selections) => {
                out.extend((0..selections.len()).filter(|&j| selections[j].eval(db, t)));
            }
        }
    }
}

/// One slot's selection: the reference path keeps the `Value`-based
/// [`Predicate::eval`]; otherwise the predicate is pre-compiled against
/// the column store (per-code masks).
enum Selection<'a> {
    /// Row-oriented reference: evaluate the predicate as given.
    Rows(&'a Predicate),
    /// Code-space compilation of the same predicate.
    Coded(CodedPredicate<'a>),
}

impl Selection<'_> {
    #[inline]
    fn eval(&self, db: &Database, t: &[u32]) -> bool {
        match self {
            Selection::Rows(p) => p.eval(db, t),
            Selection::Coded(p) => p.eval(db, t),
        }
    }
}

/// Decode a state map into `Value` coordinates.
fn decode_cells<S: CubeSpace>(space: &S, state_map: CellMap<S>) -> Vec<(Coord, SlotStates)> {
    // exq-lint: allow(L001): every caller collects the cells into a map, so the drain order is unobservable
    state_map
        .into_iter()
        .map(|(key, slot_states)| (space.decode(key), slot_states))
        .collect()
}

/// The strategy dispatch, counter bookkeeping and decoding shared by
/// both cube spaces. Counter semantics are identical whichever
/// [`CubeSpace`] runs: `cube.runs`, the strategy tag, `cube.input_tuples`
/// (tuples admitted by at least one slot), `cube.cells`, and per-level
/// cell counts all describe the same stitched semantic events.
fn run_in<S: CubeSpace>(
    db: &Database,
    u: &Universal,
    admission: &Admission<'_>,
    aggs: &[&AggFunc],
    space: &S,
    mode: Mode,
    exec: &ExecConfig,
) -> Result<Vec<(Coord, SlotStates)>> {
    let strategy = match mode {
        Mode::GroupBy => {
            let (cells, _) = accumulate_in(db, u, admission, aggs, space, exec, false)?;
            return Ok(decode_cells(space, cells));
        }
        Mode::Cube(strategy) => strategy,
    };
    let sink = exec.metrics();
    let _span = sink.span("cube");
    sink.incr("cube.runs");
    let resolved = resolve_strategy(db, u, space.dims(), strategy);
    let (cells, selected) = match resolved {
        CubeStrategy::SubsetEnumeration => {
            sink.incr("cube.strategy.subset_enumeration");
            accumulate_in(db, u, admission, aggs, space, exec, true)?
        }
        CubeStrategy::LatticeRollup => {
            sink.incr("cube.strategy.lattice_rollup");
            lattice_rollup_in(db, u, admission, aggs, space, exec)?
        }
        CubeStrategy::Auto => unreachable!("resolve_strategy never returns Auto"),
    };
    sink.add("cube.input_tuples", selected);
    sink.add("cube.cells", cells.len() as u64);
    if sink.is_enabled() {
        // Cells materialized per lattice level, where a cell's level is
        // its number of specified (non-don't-care) coordinates — the
        // grand total is level 0, finest-grain cells are level d.
        let mut per_level = vec![0u64; space.dims().len() + 1];
        // exq-lint: allow(L001): per-level integer counting is order-independent
        for key in cells.keys() {
            per_level[space.level_of(key)] += 1;
        }
        for (level, n) in per_level.iter().enumerate() {
            if *n > 0 {
                sink.add(&format!("cube.cells.level.{level}"), *n);
            }
        }
    }
    Ok(decode_cells(space, cells))
}

/// A coordinate representation for the generic cube machinery.
///
/// [`accumulate_in`] and [`lattice_rollup_in`] are written once against
/// this trait and instantiated for two spaces: [`ValueSpace`] (keys are
/// cloned `Value` coordinates — the reference path) and [`CodedSpace`]
/// (keys are dictionary ranks packed into one `u64` — the fast path). The
/// bit-identity argument between the two is structural: both
/// instantiations execute the same block partitioning, tuple order,
/// entry/update sequence, and merge/fold order; the only difference is
/// the key type, and the key↔value mapping is a bijection whose
/// [`CubeSpace::cmp_keys`] orders keys exactly like the `Value` total
/// order on decoded coordinates (the dictionary `rank` table, with "don't
/// care" below everything, mirroring `Value::Null`). So every float
/// addition happens between the same numbers in the same order in both
/// spaces.
trait CubeSpace: Sync {
    /// One dimension's slot in an extracted base coordinate.
    type Elem: Clone + Send;
    /// A cell key: a full or masked coordinate.
    type Key: Clone + Eq + Hash + Send + Sync;

    /// The dimension attributes.
    fn dims(&self) -> &[AttrRef];
    /// Extract tuple `t`'s base coordinate into `out` (cleared first);
    /// errors on NULL dimension values.
    fn extract(&self, db: &Database, t: &[u32], out: &mut Vec<Self::Elem>) -> Result<()>;
    /// The finest-level key for a base coordinate.
    fn full_key(&self, base: &[Self::Elem]) -> Self::Key;
    /// The key for `base` restricted to the dimensions set in `mask`.
    fn masked_key(&self, base: &[Self::Elem], mask: u32) -> Self::Key;
    /// Set dimension `j` of `key` to "don't care".
    fn clear_dim(&self, key: &mut Self::Key, j: usize);
    /// Total order on keys, equal to the lexicographic `Value` order of
    /// the decoded coordinates.
    fn cmp_keys(&self, a: &Self::Key, b: &Self::Key) -> Ordering;
    /// Number of specified (non-don't-care) dimensions of `key`.
    fn level_of(&self, key: &Self::Key) -> usize;
    /// The `Value` coordinate of `key`, `Value::Null` for "don't care".
    fn decode(&self, key: Self::Key) -> Coord;
}

/// The row-oriented reference space: coordinates of cloned [`Value`]s.
struct ValueSpace<'a> {
    dims: &'a [AttrRef],
}

impl CubeSpace for ValueSpace<'_> {
    type Elem = Value;
    type Key = Coord;

    fn dims(&self) -> &[AttrRef] {
        self.dims
    }

    fn extract(&self, db: &Database, t: &[u32], out: &mut Vec<Value>) -> Result<()> {
        out.clear();
        for &a in self.dims {
            let v = db.value(a, t[a.rel] as usize);
            if v.is_null() {
                return Err(null_dimension_error(db, a));
            }
            out.push(v.clone());
        }
        Ok(())
    }

    fn full_key(&self, base: &[Value]) -> Coord {
        base.to_vec().into_boxed_slice()
    }

    fn masked_key(&self, base: &[Value], mask: u32) -> Coord {
        base.iter()
            .enumerate()
            .map(|(j, v)| {
                if mask & (1 << j) != 0 {
                    v.clone()
                } else {
                    Value::Null
                }
            })
            .collect()
    }

    fn clear_dim(&self, key: &mut Coord, j: usize) {
        key[j] = Value::Null;
    }

    fn cmp_keys(&self, a: &Coord, b: &Coord) -> Ordering {
        a.cmp(b)
    }

    fn level_of(&self, key: &Coord) -> usize {
        key.iter().filter(|v| !v.is_null()).count()
    }

    fn decode(&self, key: Coord) -> Coord {
        key
    }
}

/// The columnar fast space: a coordinate packed into one `u64`. Dimension
/// `j` owns a field of ⌈log₂(|dict_j| + 1)⌉ bits holding its value's
/// dictionary rank + 1, with 0 as "don't care"; dimension 0 owns the most
/// significant field. Since ranks order codes exactly like the `Value`
/// order of their values and "don't care" sorts below every rank (as
/// `Value::Null` sorts below every value), plain integer order on keys is
/// the lexicographic `Value` order on decoded coordinates. Null *values*
/// never appear in keys ([`CubeSpace::extract`] rejects them), so they
/// cannot collide with "don't care".
struct CodedSpace<'a> {
    dims: &'a [AttrRef],
    /// Per dimension: the column's codes (per row) and dictionary.
    cols: Vec<(&'a [u32], &'a Dict)>,
    /// Per dimension: the bit offset of its field.
    shifts: Vec<u32>,
    /// Per dimension: its field's bits, in place.
    fields: Vec<u64>,
    /// Per dimension: the code of each rank (inverts `Dict::rank`).
    by_rank: Vec<Vec<u32>>,
}

impl<'a> CodedSpace<'a> {
    /// `Some` iff every dimension column is dictionary-coded and the
    /// fields fit in 64 bits together.
    fn new(store: &'a ColumnStore, dims: &'a [AttrRef]) -> Option<CodedSpace<'a>> {
        let cols = dims
            .iter()
            .map(|&a| store.dict_column(a))
            .collect::<Option<Vec<_>>>()?;
        // Field j holds 0..=|dict_j|; at least one bit so every shift
        // stays below 64.
        let widths: Vec<u32> = cols
            .iter()
            .map(|(_, dict)| (u64::BITS - (dict.len() as u64).leading_zeros()).max(1))
            .collect();
        if widths.iter().sum::<u32>() > u64::BITS {
            return None;
        }
        let mut shifts = vec![0; dims.len()];
        let mut offset = 0;
        for j in (0..dims.len()).rev() {
            shifts[j] = offset;
            offset += widths[j];
        }
        let fields = widths
            .iter()
            .zip(&shifts)
            .map(|(&w, &s)| (u64::MAX >> (u64::BITS - w)) << s)
            .collect();
        let by_rank = cols
            .iter()
            .map(|(_, dict)| {
                let mut codes = vec![0; dict.len()];
                for code in 0..dict.len() as u32 {
                    codes[dict.rank(code) as usize] = code;
                }
                codes
            })
            .collect();
        Some(CodedSpace {
            dims,
            cols,
            shifts,
            fields,
            by_rank,
        })
    }
}

impl CubeSpace for CodedSpace<'_> {
    /// A dimension's field, in place.
    type Elem = u64;
    type Key = u64;

    fn dims(&self) -> &[AttrRef] {
        self.dims
    }

    fn extract(&self, db: &Database, t: &[u32], out: &mut Vec<u64>) -> Result<()> {
        out.clear();
        for ((&a, &(codes, dict)), &shift) in self.dims.iter().zip(&self.cols).zip(&self.shifts) {
            let code = codes[t[a.rel] as usize];
            if dict.is_null_code(code) {
                return Err(null_dimension_error(db, a));
            }
            out.push((u64::from(dict.rank(code)) + 1) << shift);
        }
        Ok(())
    }

    fn full_key(&self, base: &[u64]) -> u64 {
        base.iter().fold(0, |key, &field| key | field)
    }

    fn masked_key(&self, base: &[u64], mask: u32) -> u64 {
        base.iter()
            .enumerate()
            .filter(|&(j, _)| mask & (1 << j) != 0)
            .fold(0, |key, (_, &field)| key | field)
    }

    fn clear_dim(&self, key: &mut u64, j: usize) {
        *key &= !self.fields[j];
    }

    fn cmp_keys(&self, a: &u64, b: &u64) -> Ordering {
        a.cmp(b)
    }

    fn level_of(&self, key: &u64) -> usize {
        self.fields.iter().filter(|&&f| key & f != 0).count()
    }

    fn decode(&self, key: u64) -> Coord {
        self.cols
            .iter()
            .enumerate()
            .map(
                |(j, (_, dict))| match (key & self.fields[j]) >> self.shifts[j] {
                    0 => Value::Null,
                    slot => dict.value(self.by_rank[j][slot as usize - 1]).clone(),
                },
            )
            .collect()
    }
}

/// The `Error::TypeMismatch` for a NULL cube dimension value.
fn null_dimension_error(db: &Database, a: AttrRef) -> Error {
    Error::TypeMismatch {
        relation: db.schema().relation(a.rel).name.clone(),
        attribute: db.schema().relation(a.rel).attributes[a.col].name.clone(),
        expected: "non-null cube dimension".to_string(),
        got: "null".to_string(),
    }
}

/// Fold the admitted universal tuples into a cell map, one coordinate per
/// tuple (`enumerate_masks = false`) or all `2^d` ancestor coordinates
/// (`enumerate_masks = true`). Each tuple is tested against every slot's
/// selection and folded into the slots that admit it.
///
/// Tuples are processed in fixed [`ACCUM_BLOCK`]-sized blocks and the
/// per-block maps merged in block order, so both the error reported (the
/// first failing tuple's, in input order) and the float-addition grouping
/// are independent of the thread count. Blocks run a window of
/// [`WINDOW_BLOCKS_PER_THREAD`] per thread at a time, merged before the
/// next window starts, so only one window's maps are alive at once. Also
/// returns the number of tuples some slot admits (summed over blocks in
/// block order, so the count shares the determinism guarantee).
fn accumulate_in<S: CubeSpace>(
    db: &Database,
    u: &Universal,
    admission: &Admission<'_>,
    aggs: &[&AggFunc],
    space: &S,
    exec: &ExecConfig,
    enumerate_masks: bool,
) -> Result<(CellMap<S>, u64)> {
    let d = space.dims().len();
    let store = Arc::clone(db.columns());
    let evals: Vec<AggEval<'_>> = aggs.iter().map(|agg| agg.compile(&store)).collect();
    let window = ACCUM_BLOCK * WINDOW_BLOCKS_PER_THREAD * exec.threads();
    let mut acc = CellMap::<S>::default();
    let mut selected: u64 = 0;
    for start in (0..u.len()).step_by(window) {
        let len = window.min(u.len() - start);
        let parts = par::try_map_index_blocks(exec, len, ACCUM_BLOCK, |_, range| {
            let mut cells = CellMap::<S>::default();
            let mut selected: u64 = 0;
            let mut base: Vec<S::Elem> = Vec::with_capacity(d);
            let mut admitted: Vec<usize> = Vec::with_capacity(aggs.len());
            for i in range {
                let t = u.tuple(start + i);
                admission.admitted(db, t, &mut admitted);
                if admitted.is_empty() {
                    continue;
                }
                selected += 1;
                space.extract(db, t, &mut base)?;
                if enumerate_masks {
                    for mask in 0..(1u32 << d) {
                        let key = space.masked_key(&base, mask);
                        fold_tuple(&mut cells, key, &admitted, &evals, db, t)?;
                    }
                } else {
                    fold_tuple(&mut cells, space.full_key(&base), &admitted, &evals, db, t)?;
                }
            }
            Ok((cells, selected))
        })?;
        for (part, count) in parts {
            selected += count;
            for (key, states) in part {
                match acc.get_mut(&key) {
                    Some(existing) => {
                        for (into, from) in existing.iter_mut().zip(states.into_vec()) {
                            match (into, from) {
                                (_, None) => {}
                                (Some(into), Some(from)) => into.merge(&from),
                                (into, from) => *into = from,
                            }
                        }
                    }
                    None => {
                        acc.insert(key, states);
                    }
                }
            }
        }
    }
    Ok((acc, selected))
}

/// Fold tuple `t` into the cell at `key`, in every slot that admits it.
#[inline]
fn fold_tuple<K: Eq + Hash>(
    cells: &mut HashMap<K, SlotStates>,
    key: K,
    admitted: &[usize],
    evals: &[AggEval<'_>],
    db: &Database,
    t: &[u32],
) -> Result<()> {
    let states = cells
        .entry(key)
        .or_insert_with(|| (0..evals.len()).map(|_| None).collect());
    for &j in admitted {
        let state = states[j].get_or_insert_with(|| evals[j].new_state());
        evals[j].update(state, db, t)?;
    }
    Ok(())
}

fn lattice_rollup_in<S: CubeSpace>(
    db: &Database,
    u: &Universal,
    admission: &Admission<'_>,
    aggs: &[&AggFunc],
    space: &S,
    exec: &ExecConfig,
) -> Result<(CellMap<S>, u64)> {
    let d = space.dims().len();
    // Finest-level grouping.
    let (base_cells, selected) = accumulate_in(db, u, admission, aggs, space, exec, false)?;

    // Roll up level by level (decreasing popcount). Each mask M (≠ full)
    // aggregates from its parent P = M | lowest unset bit, which has
    // exactly one more bit — so every mask of one level only reads maps of
    // the level above, and the masks within a level are independent: the
    // whole level can fan out. Parent cells are folded in coordinate
    // order, which fixes the float-addition order no matter how the
    // parent's HashMap happens to be laid out.
    let full = (1u32 << d) - 1;
    let mut per_mask: Vec<CellMap<S>> = (0..=full).map(|_| CellMap::<S>::default()).collect();
    per_mask[full as usize] = base_cells;

    for level in (0..d as u32).rev() {
        let level_masks: Vec<u32> = (0..full).filter(|m| m.count_ones() == level).collect();
        let computed = par::map_blocks(exec, &level_masks, 1, |_, masks| {
            masks
                .iter()
                .map(|&mask| (mask, rollup_one_mask_in(space, &per_mask, mask, d)))
                .collect::<Vec<_>>()
        });
        for group in computed {
            for (mask, cells) in group {
                per_mask[mask as usize] = cells;
            }
        }
    }

    // Flatten. Coordinates are disjoint across masks because no dimension
    // value is null.
    let mut out = CellMap::<S>::default();
    for m in per_mask {
        out.extend(m);
    }
    Ok((out, selected))
}

/// Compute one roll-up mask's cell map from its (read-only) parent level.
/// Slot by slot, a child merges exactly the parent states a one-slot
/// roll-up would, in the same order.
fn rollup_one_mask_in<S: CubeSpace>(
    space: &S,
    per_mask: &[CellMap<S>],
    mask: u32,
    d: usize,
) -> CellMap<S> {
    let lowest_unset = (0..d as u32)
        .find(|j| mask & (1 << j) == 0)
        .expect("mask != full");
    let parent = mask | (1 << lowest_unset);
    let parent_cells = &per_mask[parent as usize];
    let mut entries: Vec<(&S::Key, &SlotStates)> = parent_cells.iter().collect();
    entries.sort_unstable_by(|a, b| space.cmp_keys(a.0, b.0));
    let mut child: CellMap<S> = HashMap::with_capacity(parent_cells.len());
    for (coord, parent_states) in entries {
        let mut child_coord = coord.clone();
        space.clear_dim(&mut child_coord, lowest_unset as usize);
        match child.get_mut(&child_coord) {
            Some(existing) => {
                for (into, from) in existing.iter_mut().zip(parent_states.iter()) {
                    match (into, from) {
                        (_, None) => {}
                        (Some(into), Some(from)) => into.merge(from),
                        (into, from) => *into = from.clone(),
                    }
                }
            }
            None => {
                child.insert(child_coord, parent_states.clone());
            }
        }
    }
    child
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaBuilder;
    use crate::value::ValueType as T;
    use proptest::prelude::*;

    /// One relation with an int, a float and a string dimension, each
    /// drawn from a small pool so coordinates collide and ranks interleave
    /// with first-appearance codes.
    fn mixed_db(rows: &[(u8, u8, u8)]) -> Database {
        const WORDS: [&str; 6] = ["", "b", "ab", "a", "Z", "é"];
        let schema = SchemaBuilder::new()
            .relation(
                "R",
                &[
                    ("id", T::Int),
                    ("i", T::Int),
                    ("f", T::Float),
                    ("s", T::Str),
                ],
                &["id"],
            )
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        for (id, &(i, f, s)) in rows.iter().enumerate() {
            let row = vec![
                (id as i64).into(),
                (i64::from(i % 7) - 3).into(),
                (f64::from(f % 5) * -0.5).into(),
                WORDS[usize::from(s) % WORDS.len()].into(),
            ];
            db.insert("R", row).unwrap();
        }
        db
    }

    proptest! {
        /// Rank-packed keys sort exactly like their decoded `Value`
        /// coordinates, at every lattice level, and masking, clearing and
        /// decoding agree with the `Value` space.
        #[test]
        fn packed_keys_sort_like_decoded_coordinates(
            rows in proptest::collection::vec(any::<(u8, u8, u8)>(), 1..30),
        ) {
            let db = mixed_db(&rows);
            let u = Universal::compute(&db, &db.full_view());
            let dims: Vec<AttrRef> = ["i", "f", "s"]
                .iter()
                .map(|name| db.schema().attr("R", name).unwrap())
                .collect();
            let store = Arc::clone(db.columns());
            let coded = CodedSpace::new(&store, &dims).expect("small dictionaries pack");
            let values = ValueSpace { dims: &dims };
            let (mut base, mut value_base) = (Vec::new(), Vec::new());
            let mut keys: Vec<(u64, Coord)> = Vec::new();
            for t in u.iter() {
                coded.extract(&db, t, &mut base).unwrap();
                values.extract(&db, t, &mut value_base).unwrap();
                prop_assert_eq!(coded.full_key(&base), coded.masked_key(&base, 0b111));
                for mask in 0..8u32 {
                    let key = coded.masked_key(&base, mask);
                    let coord = values.masked_key(&value_base, mask);
                    prop_assert_eq!(coded.decode(key), coord.clone());
                    prop_assert_eq!(coded.level_of(&key), values.level_of(&coord));
                    for j in 0..dims.len() {
                        let (mut k, mut c) = (key, coord.clone());
                        coded.clear_dim(&mut k, j);
                        values.clear_dim(&mut c, j);
                        prop_assert_eq!(coded.decode(k), c);
                    }
                    keys.push((key, coord));
                }
            }
            for (ka, ca) in &keys {
                for (kb, cb) in &keys {
                    prop_assert_eq!(coded.cmp_keys(ka, kb), ca.cmp(cb));
                }
            }
        }
    }

    /// Every slot of a multi-slot cube is bit-identical to the one-slot
    /// cube of that slot alone — float sums included — with both
    /// strategies, in both spaces, at any thread count.
    #[test]
    fn slot_cube_matches_separate_cubes() {
        let schema = SchemaBuilder::new()
            .relation(
                "R",
                &[
                    ("id", T::Int),
                    ("g", T::Str),
                    ("h", T::Int),
                    ("x", T::Float),
                ],
                &["id"],
            )
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        for i in 0..9_000i64 {
            let g = format!("g{}", i % 5);
            let x = (i as f64) * 0.1 + 0.3;
            db.insert(
                "R",
                vec![i.into(), g.as_str().into(), (i % 4).into(), x.into()],
            )
            .unwrap();
        }
        let u = Universal::compute(&db, &db.full_view());
        let attr = |name| db.schema().attr("R", name).unwrap();
        let dims = vec![attr("g"), attr("h")];
        let g0 = Predicate::eq(attr("g"), "g0");
        let h3 = Predicate::eq(attr("h"), 3);
        let slots = [
            (&Predicate::True, &AggFunc::Sum(attr("x"))),
            (&g0, &AggFunc::CountDistinct(attr("h"))),
            (&h3, &AggFunc::Max(attr("x"))),
            (&Predicate::False, &AggFunc::CountStar),
        ];
        for strategy in [CubeStrategy::SubsetEnumeration, CubeStrategy::LatticeRollup] {
            for threads in [1, 2, 7] {
                let exec = ExecConfig::with_threads(threads);
                let fused = compute_slots_with(&db, &u, &slots, &dims, strategy, &exec).unwrap();
                for (j, (selection, agg)) in slots.iter().enumerate() {
                    let single =
                        compute_with(&db, &u, selection, &dims, agg, strategy, &exec).unwrap();
                    let rows =
                        compute_rows_with(&db, &u, selection, &dims, agg, strategy, &exec).unwrap();
                    assert_eq!(single.cells, rows.cells);
                    for (coord, values) in &fused.cells {
                        let expected = single.get(coord).unwrap_or(0.0);
                        assert_eq!(
                            values[j].to_bits(),
                            expected.to_bits(),
                            "slot {j} at {coord:?}"
                        );
                    }
                    // Every cell of a one-slot cube is a cell of the fused one.
                    assert!(single.cells.keys().all(|c| fused.cells.contains_key(c)));
                    let total = single.grand_total().unwrap_or(0.0);
                    assert_eq!(fused.grand_total()[j].to_bits(), total.to_bits());
                }
            }
        }
    }

    /// Example 4.1's database (the Figure 3 instance), cube over
    /// (Author.name, Publication.year) with COUNT(*).
    fn figure3_db() -> Database {
        let schema = SchemaBuilder::new()
            .relation(
                "Author",
                &[
                    ("id", T::Str),
                    ("name", T::Str),
                    ("inst", T::Str),
                    ("dom", T::Str),
                ],
                &["id"],
            )
            .relation(
                "Authored",
                &[("id", T::Str), ("pubid", T::Str)],
                &["id", "pubid"],
            )
            .relation(
                "Publication",
                &[("pubid", T::Str), ("year", T::Int), ("venue", T::Str)],
                &["pubid"],
            )
            .standard_fk("Authored", &["id"], "Author")
            .back_and_forth_fk("Authored", &["pubid"], "Publication")
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        for (id, name, inst, dom) in [
            ("A1", "JG", "C.edu", "edu"),
            ("A2", "RR", "M.com", "com"),
            ("A3", "CM", "I.com", "com"),
        ] {
            db.insert(
                "Author",
                vec![id.into(), name.into(), inst.into(), dom.into()],
            )
            .unwrap();
        }
        for (id, pubid) in [
            ("A1", "P1"),
            ("A2", "P1"),
            ("A1", "P2"),
            ("A3", "P2"),
            ("A2", "P3"),
            ("A3", "P3"),
        ] {
            db.insert("Authored", vec![id.into(), pubid.into()])
                .unwrap();
        }
        for (pubid, year, venue) in [
            ("P1", 2001, "SIGMOD"),
            ("P2", 2011, "VLDB"),
            ("P3", 2001, "SIGMOD"),
        ] {
            db.insert("Publication", vec![pubid.into(), year.into(), venue.into()])
                .unwrap();
        }
        db
    }

    fn cube_of(strategy: CubeStrategy) -> (Database, Cube) {
        let db = figure3_db();
        let u = Universal::compute(&db, &db.full_view());
        let dims = vec![
            db.schema().attr("Author", "name").unwrap(),
            db.schema().attr("Publication", "year").unwrap(),
        ];
        let cube = compute(
            &db,
            &u,
            &Predicate::True,
            &dims,
            &AggFunc::CountStar,
            strategy,
        )
        .unwrap();
        (db, cube)
    }

    fn assert_example_41(cube: &Cube) {
        // The 11 rows of Example 4.1.
        let rows: [(&[Value], f64); 11] = [
            (&[Value::str("JG"), Value::Int(2001)], 1.0),
            (&[Value::str("JG"), Value::Int(2011)], 1.0),
            (&[Value::str("RR"), Value::Int(2001)], 2.0),
            (&[Value::str("CM"), Value::Int(2001)], 1.0),
            (&[Value::str("CM"), Value::Int(2011)], 1.0),
            (&[Value::str("JG"), Value::Null], 2.0),
            (&[Value::str("RR"), Value::Null], 2.0),
            (&[Value::str("CM"), Value::Null], 2.0),
            (&[Value::Null, Value::Int(2001)], 4.0),
            (&[Value::Null, Value::Int(2011)], 2.0),
            (&[Value::Null, Value::Null], 6.0),
        ];
        assert_eq!(cube.len(), 11);
        for (coord, expected) in rows {
            assert_eq!(cube.get(coord), Some(expected), "cell {coord:?}");
        }
        assert_eq!(cube.grand_total(), Some(6.0));
    }

    #[test]
    fn example_41_subset_enumeration() {
        let (_, cube) = cube_of(CubeStrategy::SubsetEnumeration);
        assert_example_41(&cube);
    }

    #[test]
    fn example_41_lattice_rollup() {
        let (_, cube) = cube_of(CubeStrategy::LatticeRollup);
        assert_example_41(&cube);
    }

    #[test]
    fn strategies_agree_with_selection_and_distinct() {
        let db = figure3_db();
        let u = Universal::compute(&db, &db.full_view());
        let dims = vec![
            db.schema().attr("Author", "dom").unwrap(),
            db.schema().attr("Publication", "venue").unwrap(),
        ];
        let sel = Predicate::eq(db.schema().attr("Publication", "year").unwrap(), 2001);
        let agg = AggFunc::CountDistinct(db.schema().attr("Publication", "pubid").unwrap());
        let a = compute(&db, &u, &sel, &dims, &agg, CubeStrategy::SubsetEnumeration).unwrap();
        let b = compute(&db, &u, &sel, &dims, &agg, CubeStrategy::LatticeRollup).unwrap();
        assert_eq!(a.cells, b.cells);
        // Both SIGMOD papers in 2001 regardless of author domain.
        assert_eq!(a.get(&[Value::Null, Value::str("SIGMOD")]), Some(2.0));
        assert_eq!(
            a.get(&[Value::str("edu"), Value::Null]),
            Some(1.0),
            "JG only on P1"
        );
    }

    #[test]
    fn zero_dims_gives_grand_total_only() {
        let db = figure3_db();
        let u = Universal::compute(&db, &db.full_view());
        for strategy in [CubeStrategy::SubsetEnumeration, CubeStrategy::LatticeRollup] {
            let cube = compute(
                &db,
                &u,
                &Predicate::True,
                &[],
                &AggFunc::CountStar,
                strategy,
            )
            .unwrap();
            assert_eq!(cube.len(), 1);
            assert_eq!(cube.get(&[]), Some(6.0));
        }
    }

    #[test]
    fn empty_selection_gives_empty_cube() {
        let db = figure3_db();
        let u = Universal::compute(&db, &db.full_view());
        let dims = vec![db.schema().attr("Author", "name").unwrap()];
        for strategy in [CubeStrategy::SubsetEnumeration, CubeStrategy::LatticeRollup] {
            let cube = compute(
                &db,
                &u,
                &Predicate::False,
                &dims,
                &AggFunc::CountStar,
                strategy,
            )
            .unwrap();
            assert!(cube.is_empty());
            assert_eq!(cube.grand_total(), None);
        }
    }

    #[test]
    fn parallel_cube_is_bit_identical_across_thread_counts() {
        // Multi-block input (> ACCUM_BLOCK tuples) with a float measure, so
        // any thread-count-dependent accumulation order would change bits.
        let schema = SchemaBuilder::new()
            .relation(
                "R",
                &[
                    ("id", T::Int),
                    ("g", T::Str),
                    ("h", T::Int),
                    ("x", T::Float),
                ],
                &["id"],
            )
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        for i in 0..10_000i64 {
            let g = format!("g{}", i % 7);
            let x = (i as f64) * 0.1 + 0.3;
            db.insert(
                "R",
                vec![i.into(), g.as_str().into(), (i % 3).into(), x.into()],
            )
            .unwrap();
        }
        let u = Universal::compute(&db, &db.full_view());
        let dims = vec![
            db.schema().attr("R", "g").unwrap(),
            db.schema().attr("R", "h").unwrap(),
        ];
        let agg = AggFunc::Sum(db.schema().attr("R", "x").unwrap());
        for strategy in [CubeStrategy::SubsetEnumeration, CubeStrategy::LatticeRollup] {
            let seq = compute(&db, &u, &Predicate::True, &dims, &agg, strategy).unwrap();
            for threads in [2, 3, 7] {
                let exec = ExecConfig::with_threads(threads);
                let par =
                    compute_with(&db, &u, &Predicate::True, &dims, &agg, strategy, &exec).unwrap();
                assert_eq!(seq.cells.len(), par.cells.len());
                for (coord, v) in &seq.cells {
                    let pv = par
                        .get(coord)
                        .unwrap_or_else(|| panic!("missing {coord:?}"));
                    assert_eq!(
                        v.to_bits(),
                        pv.to_bits(),
                        "{strategy:?} cell {coord:?} differs at {threads} threads"
                    );
                }
            }
        }
        // group_by too.
        let seq = group_by(&db, &u, &Predicate::True, &dims, &agg).unwrap();
        for threads in [2, 7] {
            let exec = ExecConfig::with_threads(threads);
            let par = group_by_with(&db, &u, &Predicate::True, &dims, &agg, &exec).unwrap();
            for (coord, v) in &seq.cells {
                assert_eq!(v.to_bits(), par.get(coord).unwrap().to_bits());
            }
            assert_eq!(seq.cells.len(), par.cells.len());
        }
    }

    #[test]
    fn group_by_rejects_too_many_dims() {
        let db = figure3_db();
        let u = Universal::compute(&db, &db.full_view());
        let dims = vec![db.schema().attr("Author", "name").unwrap(); MAX_CUBE_DIMS + 1];
        let err = group_by(&db, &u, &Predicate::True, &dims, &AggFunc::CountStar).unwrap_err();
        assert!(matches!(err, Error::TooManyCubeDimensions(n) if n == MAX_CUBE_DIMS + 1));
    }

    #[test]
    fn too_many_dims_rejected() {
        let db = figure3_db();
        let u = Universal::compute(&db, &db.full_view());
        let dims = vec![db.schema().attr("Author", "name").unwrap(); MAX_CUBE_DIMS + 1];
        let err = compute(
            &db,
            &u,
            &Predicate::True,
            &dims,
            &AggFunc::CountStar,
            CubeStrategy::SubsetEnumeration,
        )
        .unwrap_err();
        assert!(matches!(err, Error::TooManyCubeDimensions(_)));
    }

    #[test]
    fn null_dimension_value_rejected() {
        let schema = SchemaBuilder::new()
            .relation("R", &[("id", T::Int), ("g", T::Str)], &["id"])
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        db.insert("R", vec![1.into(), Value::Null]).unwrap();
        let u = Universal::compute(&db, &db.full_view());
        let dims = vec![db.schema().attr("R", "g").unwrap()];
        for strategy in [CubeStrategy::SubsetEnumeration, CubeStrategy::LatticeRollup] {
            assert!(compute(
                &db,
                &u,
                &Predicate::True,
                &dims,
                &AggFunc::CountStar,
                strategy
            )
            .is_err());
        }
    }

    #[test]
    fn group_by_is_the_finest_cube_level() {
        let db = figure3_db();
        let u = Universal::compute(&db, &db.full_view());
        let dims = vec![
            db.schema().attr("Author", "name").unwrap(),
            db.schema().attr("Publication", "year").unwrap(),
        ];
        let g = group_by(&db, &u, &Predicate::True, &dims, &AggFunc::CountStar).unwrap();
        // Exactly the 5 fully-specified rows of Example 4.1.
        assert_eq!(g.len(), 5);
        assert_eq!(g.get(&[Value::str("RR"), Value::Int(2001)]), Some(2.0));
        assert_eq!(
            g.get(&[Value::Null, Value::Int(2001)]),
            None,
            "no roll-up rows"
        );

        // Every finest-level cube cell matches.
        let full = compute(
            &db,
            &u,
            &Predicate::True,
            &dims,
            &AggFunc::CountStar,
            CubeStrategy::LatticeRollup,
        )
        .unwrap();
        for (coord, v) in &g.cells {
            assert_eq!(full.get(coord), Some(*v));
        }
    }

    #[test]
    fn group_by_with_selection() {
        let db = figure3_db();
        let u = Universal::compute(&db, &db.full_view());
        let dims = vec![db.schema().attr("Author", "dom").unwrap()];
        let sel = Predicate::eq(db.schema().attr("Publication", "venue").unwrap(), "SIGMOD");
        let g = group_by(&db, &u, &sel, &dims, &AggFunc::CountStar).unwrap();
        assert_eq!(g.get(&[Value::str("com")]), Some(3.0), "u2, u5, u6");
        assert_eq!(g.get(&[Value::str("edu")]), Some(1.0), "u1");
    }

    #[test]
    fn auto_matches_explicit_strategies() {
        let db = figure3_db();
        let u = Universal::compute(&db, &db.full_view());
        let dims = vec![
            db.schema().attr("Author", "name").unwrap(),
            db.schema().attr("Publication", "year").unwrap(),
        ];
        let auto = compute(
            &db,
            &u,
            &Predicate::True,
            &dims,
            &AggFunc::CountStar,
            CubeStrategy::Auto,
        )
        .unwrap();
        let explicit = compute(
            &db,
            &u,
            &Predicate::True,
            &dims,
            &AggFunc::CountStar,
            CubeStrategy::LatticeRollup,
        )
        .unwrap();
        assert_eq!(auto.cells, explicit.cells);
    }

    #[test]
    fn auto_on_empty_input() {
        let db = figure3_db();
        let mut view = db.full_view();
        view.live[0].clear();
        let u = Universal::compute(&db, &view);
        let dims = vec![db.schema().attr("Author", "name").unwrap()];
        let cube = compute(
            &db,
            &u,
            &Predicate::True,
            &dims,
            &AggFunc::CountStar,
            CubeStrategy::Auto,
        )
        .unwrap();
        assert!(cube.is_empty());
    }

    #[test]
    fn rollup_of_sum_and_minmax() {
        let schema = SchemaBuilder::new()
            .relation(
                "R",
                &[("id", T::Int), ("g", T::Str), ("x", T::Int)],
                &["id"],
            )
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        for (i, (g, x)) in [("a", 1), ("a", 5), ("b", 3)].iter().enumerate() {
            db.insert("R", vec![(i as i64).into(), (*g).into(), (*x).into()])
                .unwrap();
        }
        let u = Universal::compute(&db, &db.full_view());
        let dims = vec![db.schema().attr("R", "g").unwrap()];
        let x = db.schema().attr("R", "x").unwrap();
        for (agg, a_total, a_cell) in [
            (AggFunc::Sum(x), 9.0, 6.0),
            (AggFunc::Min(x), 1.0, 1.0),
            (AggFunc::Max(x), 5.0, 5.0),
            (AggFunc::Avg(x), 3.0, 3.0),
        ] {
            for strategy in [CubeStrategy::SubsetEnumeration, CubeStrategy::LatticeRollup] {
                let cube = compute(&db, &u, &Predicate::True, &dims, &agg, strategy).unwrap();
                assert_eq!(cube.get(&[Value::Null]), Some(a_total), "{agg:?} total");
                assert_eq!(cube.get(&[Value::str("a")]), Some(a_cell), "{agg:?} cell a");
            }
        }
    }
}
