//! Workload inputs, made from the seed alone: the tables each dataset
//! starts from, the rows held back for live appends, and the request
//! bodies the clients send. The same seed always gives the same inputs.

use crate::stats::Rng;
use exq_core::prelude::DegreeKind;
use exq_datagen::{dblp, geodblp, natality};
use exq_relstore::{AppendBatch, Database, Value};

/// Rows of the natality relation the `natality-cold` server starts with.
pub const NAT_ROWS: usize = 200_000;
/// Rows per natality append batch. Natality rows are only appended by
/// the traced run's probe: the timed loop never appends to it.
pub const NAT_BATCH_ROWS: usize = 16;
/// Natality append batches held back for the traced run's probe.
pub const NAT_HELD_BATCHES: usize = 16;
/// The eight explanation attributes of the paper's Section 5.1 runs.
pub const NAT_DIMS: [&str; 8] = [
    "age",
    "tobacco",
    "prenatal",
    "edu",
    "marital",
    "sex",
    "hypertension",
    "diabetes",
];
/// `top` values the natality requests range over.
pub const NAT_TOPS: usize = 30;

/// DBLP datasets behind the `dblp-routed` front.
pub const DBLP_DATASETS: usize = 4;
/// Shards (workers) behind the `dblp-routed` front.
pub const DBLP_SHARDS: usize = 2;
/// Share of each DBLP dataset's publications held back for appends.
pub const DBLP_HELD_SHARE: f64 = 0.15;

/// Publications the `geodblp-ingest` server starts with.
pub const GEO_PAPERS: usize = 16_000;
/// Whole publications per Geo-DBLP append batch.
pub const GEO_BATCH_PUBS: usize = 4;
/// Geo-DBLP append batches held back per second of a round's loop: over
/// ten times the rate the appender reaches today (about 70 a second), so
/// the pool outlasts the loop even after appends get much faster. Were it
/// to run dry, the appender would stop and the explains turn into hits.
pub const GEO_BATCHES_PER_SECOND: usize = 1000;

/// The Figure 15 question: why does the UK publish more PODS than
/// SIGMOD papers in 2001-2011 (direction low, eight-table join).
pub const GEO_QUESTION: &str = "\
agg sigmod = count(distinct Publication.pubid) where country = 'United Kingdom' and venue = 'SIGMOD' and year >= 2001 and year <= 2011
agg pods = count(distinct Publication.pubid) where country = 'United Kingdom' and venue = 'PODS' and year >= 2001 and year <= 2011
expr sigmod / pods
dir low
smoothing 0.0001
";
/// The Figure 15 explanation attributes.
pub const GEO_DIMS: [&str; 3] = ["Author.name", "AffiliationG.inst", "CityG.city"];
/// `top` values the Geo-DBLP explains cycle through.
pub const GEO_TOPS: usize = 10;

/// `Q_Race` (m = 2 sub-queries).
pub const Q_RACE: &str = "\
agg good = count(*) where ap = 'good' and race = 'Asian'
agg poor = count(*) where ap = 'poor' and race = 'Asian'
expr good / poor
dir high
smoothing 0.0001
";
/// `Q_Marital` (m = 4 sub-queries).
pub const Q_MARITAL: &str = "\
agg q1 = count(*) where marital = 'married' and ap = 'good'
agg q2 = count(*) where marital = 'married' and ap = 'poor'
agg q3 = count(*) where marital = 'unmarried' and ap = 'good'
agg q4 = count(*) where marital = 'unmarried' and ap = 'poor'
expr (q1 / q2) / (q3 / q4)
dir high
smoothing 0.0001
";
/// `Q'_Race` (m = 4 sub-queries): Asian good/poor against Black good/poor.
pub const Q_RACE_PRIME: &str = "\
agg ag = count(*) where race = 'Asian' and ap = 'good'
agg apo = count(*) where race = 'Asian' and ap = 'poor'
agg bg = count(*) where race = 'Black' and ap = 'good'
agg bpo = count(*) where race = 'Black' and ap = 'poor'
expr (ag / apo) / (bg / bpo)
dir high
smoothing 0.0001
";
/// The natality questions, indexed by the request's question number.
pub const NAT_QUESTIONS: [&str; 3] = [Q_RACE, Q_MARITAL, Q_RACE_PRIME];

/// The Example 2.2 bump question: `COUNT(DISTINCT pubid)`, additive,
/// so the server answers it with Algorithm 1 (the cube path).
pub const BUMP: &str = "\
agg com_early = count(distinct Publication.pubid) where venue = 'SIGMOD' and dom = 'com' and year >= 2000 and year <= 2004
agg com_late = count(distinct Publication.pubid) where venue = 'SIGMOD' and dom = 'com' and year >= 2007 and year <= 2011
agg edu_early = count(distinct Publication.pubid) where venue = 'SIGMOD' and dom = 'edu' and year >= 2000 and year <= 2004
agg edu_late = count(distinct Publication.pubid) where venue = 'SIGMOD' and dom = 'edu' and year >= 2007 and year <= 2011
expr (com_early / com_late) / (edu_early / edu_late)
dir high
smoothing 0.0001
";
/// The bump question over `COUNT(*)`: a paper with several authors
/// counts once per author, which is not intervention-additive, so the
/// server runs the naive engine (program **P** once per candidate).
pub const BUMP_STAR: &str = "\
agg com_early = count(*) where venue = 'SIGMOD' and dom = 'com' and year >= 2000 and year <= 2004
agg com_late = count(*) where venue = 'SIGMOD' and dom = 'com' and year >= 2007 and year <= 2011
agg edu_early = count(*) where venue = 'SIGMOD' and dom = 'edu' and year >= 2000 and year <= 2004
agg edu_late = count(*) where venue = 'SIGMOD' and dom = 'edu' and year >= 2007 and year <= 2011
expr (com_early / com_late) / (edu_early / edu_late)
dir high
smoothing 0.0001
";
/// The DBLP questions: 0 runs the cube path, 1 the naive engine.
pub const DBLP_QUESTIONS: [&str; 2] = [BUMP, BUMP_STAR];
/// The DBLP explanation attribute (16 institutions, so 16 candidates).
pub const DBLP_DIMS: [&str; 1] = ["Author.inst"];
/// `top` values the DBLP misses cycle through.
pub const DBLP_TOPS: usize = 16;

/// One held-back append batch.
pub struct Batch {
    /// The rows, relation by relation.
    pub rows: AppendBatch,
    /// Rows in the batch.
    pub row_count: usize,
    /// The `POST /v1/datasets/{name}/rows` body.
    pub body: String,
}

/// One dataset: the tables it starts from and its held-back batches.
pub struct DatasetInput {
    /// Catalog name.
    pub name: String,
    /// The initial tables. Never used directly: each set-up clones it
    /// before its column store exists, so every set-up builds columns.
    pub db: Database,
    /// Batches the appenders send, in order.
    pub held: Vec<Batch>,
}

/// An explain request, as the client sends it.
#[derive(Clone, Debug)]
pub struct ExplainSpec {
    /// Question text.
    pub question: &'static str,
    /// Qualified explanation attributes (`Rel.attr`).
    pub attrs: Vec<String>,
    /// Number of explanations asked for.
    pub top: usize,
    /// Rank by aggravation instead of intervention.
    pub aggr: bool,
}

impl ExplainSpec {
    /// The degree the reply ranks by.
    pub fn kind(&self) -> DegreeKind {
        if self.aggr {
            DegreeKind::Aggravation
        } else {
            DegreeKind::Intervention
        }
    }

    /// The `/v1/explain` body.
    pub fn body(&self, dataset_name: &str) -> String {
        let attrs: Vec<String> = self
            .attrs
            .iter()
            .map(|a| format!("\"{}\"", exq_obs::escape_json(a)))
            .collect();
        let by = if self.aggr { ", \"by\": \"aggr\"" } else { "" };
        format!(
            "{{\"dataset\": \"{}\", \"question\": \"{}\", \"attrs\": [{}], \"top\": {}{by}}}",
            exq_obs::escape_json(dataset_name),
            exq_obs::escape_json(self.question),
            attrs.join(", "),
            self.top
        )
    }
}

/// Render an append batch as the `POST /v1/datasets/{name}/rows` body.
pub fn append_body(batch: &AppendBatch) -> String {
    let cell = |v: &Value| match v {
        Value::Str(s) => format!("\"{}\"", exq_obs::escape_json(s)),
        other => other.to_string(),
    };
    let relations: Vec<String> = batch
        .iter()
        .map(|(rel, rows)| {
            let rows: Vec<String> = rows
                .iter()
                .map(|row| format!("[{}]", row.iter().map(cell).collect::<Vec<_>>().join(",")))
                .collect();
            format!("\"{}\": [{}]", exq_obs::escape_json(rel), rows.join(","))
        })
        .collect();
    format!("{{\"rows\": {{{}}}}}", relations.join(", "))
}

fn batch(rows: AppendBatch) -> Batch {
    let row_count = rows.iter().map(|(_, r)| r.len()).sum();
    let body = append_body(&rows);
    Batch {
        rows,
        row_count,
        body,
    }
}

/// Copy `full` into a fresh database (no column store built), leaving
/// out the rows `keep` rejects.
pub fn copy_where(full: &Database, mut keep: impl FnMut(usize, &[Value]) -> bool) -> Database {
    let mut db = Database::new(full.schema().clone());
    for rel in 0..full.schema().relation_count() {
        for row in full.relation(rel).rows() {
            if keep(rel, row) {
                db.insert_at(rel, row.to_vec())
                    .expect("copied row is valid");
            }
        }
    }
    db
}

/// `natality-cold`: one 200k-row relation. The rows past [`NAT_ROWS`]
/// are held back for the traced run's append probe.
pub fn natality(seed: u64) -> Vec<DatasetInput> {
    let extra = NAT_BATCH_ROWS * NAT_HELD_BATCHES;
    let full = natality::generate(&natality::NatalityConfig {
        rows: NAT_ROWS + extra,
        seed,
    });
    let rel = 0;
    let mut seen = 0usize;
    let db = copy_where(&full, |_, _| {
        seen += 1;
        seen <= NAT_ROWS
    });
    let tail: Vec<Vec<Value>> = full
        .relation(rel)
        .rows()
        .skip(NAT_ROWS)
        .map(|row| row.to_vec())
        .collect();
    let name = full.schema().relation(rel).name.clone();
    let held = tail
        .chunks(NAT_BATCH_ROWS)
        .map(|rows| batch(vec![(name.clone(), rows.to_vec())]))
        .collect();
    vec![DatasetInput {
        name: "natality".to_string(),
        db,
        held,
    }]
}

/// Dataset names for the routed workload, chosen so the consistent-hash
/// ring gives each of the [`DBLP_SHARDS`] workers the same number.
pub fn dblp_names() -> Vec<String> {
    let map = exq_router::ShardMap::new(DBLP_SHARDS);
    let per_shard = DBLP_DATASETS / DBLP_SHARDS;
    let mut owned = [0usize; DBLP_SHARDS];
    let mut names = Vec::new();
    for i in 0.. {
        if names.len() == DBLP_DATASETS {
            break;
        }
        let name = format!("dblp-{i}");
        let shard = map.shard_of(&name);
        if owned[shard] < per_shard {
            owned[shard] += 1;
            names.push(name);
        }
    }
    names
}

/// Split off `count` seeded-random publications of `full`, each with
/// its referencing rows in `children` (relation name, pubid column).
/// Returns the initial database and the held-back publications, each as
/// its own list of (relation, rows).
fn hold_back_publications(
    full: &Database,
    rng: &mut Rng,
    count: usize,
    children: &[(&str, usize)],
) -> (Database, Vec<AppendBatch>) {
    let schema = full.schema();
    let publication = schema.relation_index("Publication").expect("Publication");
    let pubids: Vec<Value> = full
        .relation(publication)
        .rows()
        .map(|row| row[0].clone())
        .collect();
    let mut order: Vec<usize> = (0..pubids.len()).collect();
    rng.shuffle(&mut order);
    let held_ids: std::collections::BTreeSet<usize> = order.into_iter().take(count).collect();
    let held_set: std::collections::HashSet<&Value> =
        held_ids.iter().map(|&i| &pubids[i]).collect();
    let child_rels: Vec<(usize, usize)> = children
        .iter()
        .map(|&(rel, col)| (schema.relation_index(rel).expect("child relation"), col))
        .collect();
    let initial = copy_where(full, |rel, row| {
        if rel == publication {
            return !held_set.contains(&row[0]);
        }
        match child_rels.iter().find(|(r, _)| *r == rel) {
            Some(&(_, col)) => !held_set.contains(&row[col]),
            None => true,
        }
    });
    // Group the held rows by publication, in publication order.
    let mut by_pub: std::collections::HashMap<&Value, Vec<(usize, Vec<Value>)>> =
        std::collections::HashMap::new();
    for &(rel, col) in &child_rels {
        for row in full.relation(rel).rows() {
            if held_set.contains(&row[col]) {
                by_pub
                    .entry(&row[col])
                    .or_default()
                    .push((rel, row.to_vec()));
            }
        }
    }
    let pub_rows: Vec<Vec<Value>> = full
        .relation(publication)
        .rows()
        .map(|row| row.to_vec())
        .collect();
    let held = held_ids
        .iter()
        .map(|&i| {
            let mut rows: AppendBatch = vec![(
                schema.relation(publication).name.clone(),
                vec![pub_rows[i].clone()],
            )];
            for (rel, row) in by_pub.remove(&pubids[i]).unwrap_or_default() {
                let name = &schema.relation(rel).name;
                match rows.iter_mut().find(|(n, _)| n == name) {
                    Some((_, list)) => list.push(row),
                    None => rows.push((name.clone(), vec![row])),
                }
            }
            rows
        })
        .collect();
    (initial, held)
}

/// `dblp-routed`: four default-scale DBLP instances with distinct seeds;
/// 15% of each one's publications (with their `Authored` rows) are held
/// back and appended one publication per batch.
pub fn dblp(seed: u64) -> Vec<DatasetInput> {
    dblp_names()
        .into_iter()
        .enumerate()
        .map(|(i, name)| {
            let ds_seed = Rng::mix(seed, 100 + i as u64);
            let full = dblp::generate(&dblp::DblpConfig {
                seed: ds_seed,
                ..dblp::DblpConfig::default()
            });
            let mut rng = Rng::new(Rng::mix(ds_seed, 1));
            let publications = full.relation_len(
                full.schema()
                    .relation_index("Publication")
                    .expect("Publication"),
            );
            let count = (publications as f64 * DBLP_HELD_SHARE) as usize;
            let (db, pubs) = hold_back_publications(&full, &mut rng, count, &[("Authored", 1)]);
            DatasetInput {
                name,
                db,
                held: pubs.into_iter().map(batch).collect(),
            }
        })
        .collect()
}

/// `geodblp-ingest`: one Geo-DBLP instance of [`GEO_PAPERS`] papers.
/// Extra papers are generated past that and held back, whole
/// (`Publication` + `Authored` + `AffilRec` rows), in batches of
/// [`GEO_BATCH_PUBS`]; `seconds`, the length of one round's loop (each
/// round starts again from the initial tables), sizes the pool.
pub fn geodblp(seed: u64, seconds: u64) -> Vec<DatasetInput> {
    let batches = GEO_BATCHES_PER_SECOND * seconds.max(1) as usize;
    let extra = batches * GEO_BATCH_PUBS;
    let full = geodblp::generate(&geodblp::GeoDblpConfig {
        papers: GEO_PAPERS + extra,
        seed,
    });
    let mut rng = Rng::new(Rng::mix(seed, 2));
    let (db, pubs) =
        hold_back_publications(&full, &mut rng, extra, &[("Authored", 1), ("AffilRec", 1)]);
    let held = pubs
        .chunks(GEO_BATCH_PUBS)
        .map(|group| {
            let mut rows: AppendBatch = Vec::new();
            for publication in group {
                for (name, list) in publication {
                    match rows.iter_mut().find(|(n, _)| n == name) {
                        Some((_, all)) => all.extend(list.iter().cloned()),
                        None => rows.push((name.clone(), list.clone())),
                    }
                }
            }
            batch(rows)
        })
        .collect();
    vec![DatasetInput {
        name: "geodblp".to_string(),
        db,
        held,
    }]
}
