//! Differential tests for the columnar cube path: Algorithm 1's fused
//! one-scan pass (packed dictionary-rank keys, `m` aggregate slots per
//! cell) against the retained row-oriented reference (`m` `Value` cubes
//! plus the dummy-value outer join), bit for bit, on the two headline
//! experiment workloads (DBLP Figure 2, natality Figure 10) and on inputs
//! chosen for their edges — plus the thread-count stability of
//! dictionary code assignment.

use exq::datagen::{dblp, natality};
use exq::prelude::*;
use exq_core::cube_algo::{self, CubeAlgoConfig};
use exq_core::prepared::PreparedDb;
use exq_relstore::aggregate::AggFunc;
use exq_relstore::cube::{self, CubeStrategy};
use exq_relstore::{AttrRef, Database, ExecConfig, SchemaBuilder, Universal, ValueType};
use std::sync::Arc;

const THREADS: [usize; 3] = [1, 2, 7];

fn dblp_question(db: &Database) -> UserQuestion {
    let schema = db.schema();
    let pubid = schema.attr("Publication", "pubid").unwrap();
    let venue = schema.attr("Publication", "venue").unwrap();
    let year = schema.attr("Publication", "year").unwrap();
    let dom = schema.attr("Author", "dom").unwrap();
    let q = |d: &str, w: (i32, i32)| AggregateQuery {
        func: AggFunc::CountDistinct(pubid),
        selection: Predicate::and([
            Predicate::eq(venue, "SIGMOD"),
            Predicate::eq(dom, d),
            Predicate::between(year, w.0, w.1),
        ]),
    };
    UserQuestion::new(
        NumericalQuery::double_ratio(
            q("com", (2000, 2004)),
            q("com", (2007, 2011)),
            q("edu", (2000, 2004)),
            q("edu", (2007, 2011)),
        )
        .with_smoothing(1e-4),
        Direction::High,
    )
}

fn natality_question(db: &Database) -> UserQuestion {
    let schema = db.schema();
    let ap = schema.attr("Natality", "ap").unwrap();
    let race = schema.attr("Natality", "race").unwrap();
    let q = |o: &str| {
        AggregateQuery::count_star(Predicate::and([
            Predicate::eq(ap, o),
            Predicate::eq(race, "Asian"),
        ]))
    };
    UserQuestion::new(
        NumericalQuery::ratio(q("good"), q("poor")).with_smoothing(1e-4),
        Direction::High,
    )
}

/// `explanation_table` through the fused path (`reference_rows: false`)
/// and through the row-oriented reference (`reference_rows: true`),
/// requiring full bit-identity, at every thread count. Also pins the
/// fused totals to `aggregate_values`.
fn assert_coded_matches_reference(db: &Database, question: &UserQuestion, dims: &[AttrRef]) {
    assert_fused_matches_reference(db, question, dims, CubeAlgoConfig::checked());
}

/// [`assert_coded_matches_reference`] from a given base configuration.
fn assert_fused_matches_reference(
    db: &Database,
    question: &UserQuestion,
    dims: &[AttrRef],
    base: CubeAlgoConfig,
) {
    let u = Universal::compute(db, &db.full_view());
    let totals = question.query.aggregate_values(db, &u).unwrap();
    for threads in THREADS {
        let config = |reference_rows: bool| CubeAlgoConfig {
            reference_rows,
            exec: ExecConfig::with_threads(threads),
            ..base.clone()
        };
        let coded = cube_algo::explanation_table(db, &u, question, dims, config(false)).unwrap();
        let reference = cube_algo::explanation_table(db, &u, question, dims, config(true)).unwrap();
        assert!(!coded.is_empty());
        assert_eq!(coded, reference, "threads = {threads}");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&coded.totals), bits(&totals), "threads = {threads}");
        for (a, b) in coded.rows.iter().zip(&reference.rows) {
            assert_eq!(bits(&a.values), bits(&b.values), "{:?}", a.coord);
            assert_eq!(
                a.mu_interv.to_bits(),
                b.mu_interv.to_bits(),
                "{:?}",
                a.coord
            );
            assert_eq!(a.mu_aggr.to_bits(), b.mu_aggr.to_bits(), "{:?}", a.coord);
        }
    }
}

/// The natality explanation attributes in the order the Figure 13 runs
/// add them.
fn natality_dims(db: &Database, d: usize) -> Vec<AttrRef> {
    [
        "age",
        "tobacco",
        "prenatal",
        "edu",
        "marital",
        "sex",
        "hypertension",
        "diabetes",
    ][..d]
        .iter()
        .map(|name| db.schema().attr("Natality", name).unwrap())
        .collect()
}

/// `m` COUNT(*) sub-queries over natality, one per (race, APGAR) pair
/// taken in turn, combined as a ratio chain.
fn natality_question_m(db: &Database, m: usize) -> UserQuestion {
    let schema = db.schema();
    let ap = schema.attr("Natality", "ap").unwrap();
    let race = schema.attr("Natality", "race").unwrap();
    let pairs = [
        ("Asian", "good"),
        ("Asian", "poor"),
        ("Black", "good"),
        ("Black", "poor"),
    ];
    let aggregates = pairs[..m]
        .iter()
        .map(|&(r, o)| {
            AggregateQuery::count_star(Predicate::and([
                Predicate::eq(race, r),
                Predicate::eq(ap, o),
            ]))
        })
        .collect();
    let expr = (1..m).fold(NumExpr::Agg(0), |e, j| NumExpr::div(e, NumExpr::Agg(j)));
    UserQuestion::new(
        NumericalQuery::new(aggregates, expr)
            .unwrap()
            .with_smoothing(1e-4),
        Direction::High,
    )
}

#[test]
fn dblp_columnar_table_matches_row_reference() {
    let db = dblp::generate(&dblp::DblpConfig::default());
    let schema = db.schema();
    let dims = vec![
        schema.attr("Author", "inst").unwrap(),
        schema.attr("Author", "name").unwrap(),
    ];
    assert_coded_matches_reference(&db, &dblp_question(&db), &dims);
}

#[test]
fn natality_columnar_table_matches_row_reference() {
    let db = natality::generate(&natality::NatalityConfig {
        rows: 20_000,
        seed: 7,
    });
    let schema = db.schema();
    let dims = vec![
        schema.attr("Natality", "age").unwrap(),
        schema.attr("Natality", "tobacco").unwrap(),
        schema.attr("Natality", "prenatal").unwrap(),
        schema.attr("Natality", "edu").unwrap(),
        schema.attr("Natality", "marital").unwrap(),
    ];
    assert_coded_matches_reference(&db, &natality_question(&db), &dims);
}

/// Cube-level differential, per strategy: the decoded coded cube equals
/// the row-oriented cube cell for cell, down to the last float bit.
#[test]
fn coded_cube_is_bit_identical_to_row_cube_per_strategy() {
    let db = natality::generate(&natality::NatalityConfig {
        rows: 5_000,
        seed: 11,
    });
    let schema = db.schema();
    let u = Universal::compute(&db, &db.full_view());
    let dims = vec![
        schema.attr("Natality", "tobacco").unwrap(),
        schema.attr("Natality", "edu").unwrap(),
        schema.attr("Natality", "marital").unwrap(),
    ];
    let id = schema.attr("Natality", "id").unwrap();
    assert!(
        cube::runs_coded(&db, &dims),
        "generated string/int dimensions dictionary-encode"
    );
    for strategy in [CubeStrategy::SubsetEnumeration, CubeStrategy::LatticeRollup] {
        for agg in [AggFunc::CountStar, AggFunc::Avg(id)] {
            let exec = ExecConfig::with_threads(3);
            let coded = cube::compute_with(&db, &u, &Predicate::True, &dims, &agg, strategy, &exec)
                .unwrap();
            let rows =
                cube::compute_rows_with(&db, &u, &Predicate::True, &dims, &agg, strategy, &exec)
                    .unwrap();
            assert_eq!(coded.len(), rows.len(), "{strategy:?} / {agg:?}");
            for (coord, value) in &rows.cells {
                let c = coded
                    .cells
                    .get(coord)
                    .unwrap_or_else(|| panic!("coded cube missing {coord:?}"));
                assert_eq!(
                    c.to_bits(),
                    value.to_bits(),
                    "{strategy:?} / {agg:?} at {coord:?}"
                );
            }
        }
    }
}

/// Dictionary code assignment depends only on stored row order: preparing
/// the same instance on 1, 2, and 7 worker threads yields bit-identical
/// code arrays for every dictionary-coded column.
#[test]
fn dictionary_codes_are_stable_across_thread_counts() {
    let db = dblp::generate(&dblp::DblpConfig::default());
    let all_attrs: Vec<AttrRef> = {
        let schema = db.schema();
        (0..schema.relation_count())
            .flat_map(|rel| (0..schema.relation(rel).arity()).map(move |col| AttrRef { rel, col }))
            .collect()
    };
    let codes_at = |threads: usize| -> Vec<Option<Vec<u32>>> {
        // A fresh instance (materialize starts with an empty column cache)
        // prepared on `threads` workers; the store is built inside build_with.
        let fresh = db.materialize(&db.full_view());
        let prepared = PreparedDb::build_with(Arc::new(fresh), &ExecConfig::with_threads(threads));
        let store = Arc::clone(prepared.db().columns());
        all_attrs
            .iter()
            .map(|&a| store.dict_column(a).map(|(codes, _)| codes.to_vec()))
            .collect()
    };
    let baseline = codes_at(1);
    assert!(
        baseline.iter().any(Option::is_some),
        "DBLP should have dictionary-coded columns"
    );
    for threads in THREADS {
        assert_eq!(codes_at(threads), baseline, "threads = {threads}");
    }
}

/// m = 1, 2 and 4 sub-queries at every d from 1 to 8: the fused pass
/// carries m slots through every lattice level exactly like m separate
/// cubes would.
#[test]
fn natality_fused_table_matches_reference_for_every_m_and_d() {
    let db = natality::generate(&natality::NatalityConfig {
        rows: 3_000,
        seed: 5,
    });
    for m in [1, 2, 4] {
        let question = natality_question_m(&db, m);
        for d in 1..=8 {
            assert_coded_matches_reference(&db, &question, &natality_dims(&db, d));
        }
    }
}

/// A sub-query whose selection admits no tuple: its slot is empty in
/// every cell, including the grand total, so u_j is the empty
/// aggregate's value — what `aggregate_values` returns.
#[test]
fn sub_query_selecting_nothing_has_aggregate_values_total() {
    let db = natality::generate(&natality::NatalityConfig {
        rows: 3_000,
        seed: 5,
    });
    let schema = db.schema();
    let race = schema.attr("Natality", "race").unwrap();
    let ap = schema.attr("Natality", "ap").unwrap();
    let question = UserQuestion::new(
        NumericalQuery::ratio(
            AggregateQuery::count_star(Predicate::eq(ap, "good")),
            AggregateQuery::count_star(Predicate::eq(race, "no such race")),
        )
        .with_smoothing(1e-4),
        Direction::High,
    );
    let dims = natality_dims(&db, 3);
    assert_coded_matches_reference(&db, &question, &dims);
    let u = Universal::compute(&db, &db.full_view());
    let table =
        cube_algo::explanation_table(&db, &u, &question, &dims, CubeAlgoConfig::checked()).unwrap();
    assert_eq!(table.totals[1], 0.0);
    assert!(table.rows.iter().all(|r| r.values[1] == 0.0));
}

/// COUNT(DISTINCT) over DBLP, alone and in the bump question, across
/// explanation attributes from three relations.
#[test]
fn dblp_count_distinct_fused_table_matches_reference() {
    let db = dblp::generate(&dblp::DblpConfig::default());
    let schema = db.schema();
    let pubid = schema.attr("Publication", "pubid").unwrap();
    let venue = schema.attr("Publication", "venue").unwrap();
    let single = UserQuestion::new(
        NumericalQuery::single(AggregateQuery {
            func: AggFunc::CountDistinct(pubid),
            selection: Predicate::eq(venue, "SIGMOD"),
        }),
        Direction::High,
    );
    let dims = vec![
        schema.attr("Author", "dom").unwrap(),
        schema.attr("Publication", "venue").unwrap(),
        schema.attr("Publication", "year").unwrap(),
    ];
    assert_coded_matches_reference(&db, &single, &dims);
    assert_coded_matches_reference(&db, &dblp_question(&db), &dims);
}

/// Dimensions whose packed coordinate needs more than 64 bits take the
/// `Value` path and still match the reference.
#[test]
fn coordinates_wider_than_64_bits_take_the_value_path() {
    // Eight 300-value dimensions need 9 bits each: 72 in all. Each column
    // is `i * stride mod 300` for a stride coprime to 300, a permutation.
    const DIMS: usize = 8;
    const STRIDES: [i64; DIMS] = [1, 7, 11, 13, 17, 19, 23, 29];
    let cols: Vec<String> = (0..DIMS).map(|j| format!("d{j}")).collect();
    let mut attrs = vec![("id", ValueType::Int), ("ok", ValueType::Str)];
    attrs.extend(cols.iter().map(|c| (c.as_str(), ValueType::Int)));
    let schema = SchemaBuilder::new()
        .relation("R", &attrs, &["id"])
        .build()
        .unwrap();
    let mut db = Database::new(schema);
    for i in 0..300i64 {
        let mut row = vec![i.into(), (if i % 3 == 0 { "y" } else { "n" }).into()];
        row.extend(STRIDES.iter().map(|s| (i * s % 300).into()));
        db.insert("R", row).unwrap();
    }
    let dims: Vec<AttrRef> = cols
        .iter()
        .map(|c| db.schema().attr("R", c).unwrap())
        .collect();
    assert!(!cube::runs_coded(&db, &dims));
    assert!(cube::runs_coded(&db, &dims[..7]), "63 bits still pack");
    let ok = db.schema().attr("R", "ok").unwrap();
    let question = UserQuestion::new(
        NumericalQuery::ratio(
            AggregateQuery::count_star(Predicate::eq(ok, "y")),
            AggregateQuery::count_star(Predicate::eq(ok, "n")),
        )
        .with_smoothing(1e-4),
        Direction::High,
    );
    assert_coded_matches_reference(&db, &question, &dims);
}

/// SUM and AVG over a float column whose cube grand total groups the
/// additions differently from input order: the fused table's u_j are
/// still the input-order values `aggregate_values` returns, and the
/// whole table matches the reference. SUM is not intervention-additive,
/// so Algorithm 1 runs unchecked, as a library caller may run it.
#[test]
fn float_sums_total_in_input_order() {
    let schema = SchemaBuilder::new()
        .relation(
            "R",
            &[
                ("id", ValueType::Int),
                ("g", ValueType::Str),
                ("h", ValueType::Int),
                ("x", ValueType::Float),
            ],
            &["id"],
        )
        .build()
        .unwrap();
    let mut db = Database::new(schema);
    // Input order sums x to 1.0; grouped by g it is 0.0 + 20.0.
    for i in 0..40i64 {
        let (g, x) = [("a", 1e16), ("b", 1.0), ("a", -1e16), ("b", 1.0)][i as usize % 4];
        db.insert("R", vec![i.into(), g.into(), (i % 3).into(), x.into()])
            .unwrap();
    }
    let attr = |name| db.schema().attr("R", name).unwrap();
    let (g, h, x) = (attr("g"), attr("h"), attr("x"));
    let u = Universal::compute(&db, &db.full_view());
    let grouped = cube::compute(
        &db,
        &u,
        &Predicate::True,
        &[g],
        &AggFunc::Sum(x),
        CubeStrategy::Auto,
    )
    .unwrap();
    assert_eq!(
        grouped.grand_total(),
        Some(20.0),
        "the data must show the grouping"
    );
    let question = UserQuestion::new(
        NumericalQuery::new(
            vec![
                AggregateQuery {
                    func: AggFunc::Sum(x),
                    selection: Predicate::True,
                },
                AggregateQuery {
                    func: AggFunc::Avg(x),
                    selection: Predicate::eq(h, 1),
                },
                AggregateQuery::count_star(Predicate::True),
            ],
            NumExpr::Agg(0),
        )
        .unwrap(),
        Direction::High,
    );
    for dims in [vec![g], vec![g, h]] {
        assert_fused_matches_reference(&db, &question, &dims, CubeAlgoConfig::unchecked());
    }
    let table = cube_algo::explanation_table(&db, &u, &question, &[g], CubeAlgoConfig::unchecked())
        .unwrap();
    assert_eq!(table.totals[0], 1.0);
    assert_eq!(
        question.query.combine(&table.totals).to_bits(),
        question.query.eval(&db).unwrap().to_bits()
    );
}
