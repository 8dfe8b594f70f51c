//! Correctness checks run after every timed loop. Each returns the
//! mismatches it found; any mismatch fails the run.

use crate::client::{request_bytes, Conn};
use crate::deploy::Deployment;
use crate::drive::{Class, Op, OpKind, Sample};
use crate::inputs::{DatasetInput, ExplainSpec};
use crate::stats::spread_indices;
use crate::workloads::{GeoDblpIngest, Workload};
use exq_core::jsonout::json_f64;
use exq_core::prelude::*;
use exq_core::prepared::PreparedDb;
use exq_core::qparse;
use exq_obs::MetricsSink;
use exq_relstore::{Database, ExecConfig};
use exq_serve::{Catalog, ServerConfig};
use std::sync::Arc;

/// Replies compared against an in-process or reference answer per
/// round, at most: 32 over a run's rounds.
const MAX_COMPARED: usize = 32 / crate::ROUNDS;

/// Run `workload`'s checks on the deployment its loop just drove.
pub fn run(
    workload: Workload,
    deployment: &Deployment,
    inputs: &[DatasetInput],
    samples: &[Sample],
) -> Vec<String> {
    let mut failures = ingest(deployment, inputs, samples);
    failures.extend(match workload {
        Workload::NatalityCold => natality(deployment, samples),
        Workload::DblpRouted => routed(inputs, samples),
        Workload::GeoDblpIngest => rebuilt(deployment, inputs, samples),
    });
    failures
}

/// Zero every `"MARKER": N` integer in a reply body.
fn zero_json_int(body: &str, marker: &str) -> String {
    let mut out = String::with_capacity(body.len());
    let mut rest = body;
    while let Some(at) = rest.find(marker) {
        let digits_from = at + marker.len();
        out.push_str(&rest[..digits_from]);
        out.push('0');
        rest = rest[digits_from..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

/// A reply body with its wall-clock span durations and cost epoch
/// zeroed, the two fields two correct servers may disagree on.
pub fn scrub(body: &str) -> String {
    zero_json_int(&zero_json_int(body, "\"total_ns\": "), "\"epoch\": ")
}

/// Up to `n` items spread evenly over `items`.
fn spread<T>(items: &[T], n: usize) -> impl Iterator<Item = &T> {
    spread_indices(items.len(), n)
        .into_iter()
        .map(|i| &items[i])
}

/// Acknowledged appends of dataset `d`, as (epoch, batch) in epoch order.
pub fn acked<'a>(samples: impl IntoIterator<Item = &'a Sample>, d: usize) -> Vec<(u64, usize)> {
    let mut out: Vec<(u64, usize)> = samples
        .into_iter()
        .filter(|s| s.op.dataset == d && s.ok())
        .filter_map(|s| match s.op.kind {
            OpKind::Append { batch } => Some((s.epoch()?, batch)),
            OpKind::Explain(_) => None,
        })
        .collect();
    out.sort_unstable();
    out
}

/// The integer after `"field": ` on the `/v1/datasets` line of `name`.
fn listing_field(listing: &str, name: &str, field: &str) -> Option<u64> {
    let line = listing
        .lines()
        .find(|l| l.contains(&format!("\"name\": \"{name}\"")))?;
    let marker = format!("\"{field}\": ");
    let rest = &line[line.find(&marker)? + marker.len()..];
    rest.split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

/// Appends: every acknowledged epoch is new and they count up from 1
/// without gaps, each client's epochs increase in the order it sent,
/// and each dataset holds its initial tuples plus every row appended.
fn ingest(deployment: &Deployment, inputs: &[DatasetInput], samples: &[Sample]) -> Vec<String> {
    let mut failures = Vec::new();
    let listing = Conn::new(deployment.entry())
        .send(&request_bytes("GET", "/v1/datasets", b""))
        .map(|r| r.text())
        .unwrap_or_default();
    for (d, input) in inputs.iter().enumerate() {
        let acked = acked(samples, d);
        let epochs: Vec<u64> = acked.iter().map(|&(e, _)| e).collect();
        if epochs != (1..=acked.len() as u64).collect::<Vec<_>>() {
            failures.push(format!(
                "{}: acknowledged epochs are not 1..={}: {epochs:?}",
                input.name,
                acked.len()
            ));
        }
        for client in 0..crate::workloads::CLIENTS {
            let mut own: Vec<&Sample> = samples
                .iter()
                .filter(|s| s.client == client && s.op.dataset == d && s.ok())
                .filter(|s| matches!(s.op.kind, OpKind::Append { .. }))
                .collect();
            own.sort_by_key(|s| s.sent);
            if own.windows(2).any(|w| w[0].epoch() >= w[1].epoch()) {
                failures.push(format!(
                    "{}: client {client} saw its epochs go backwards",
                    input.name
                ));
            }
        }
        let rows: usize = acked.iter().map(|&(_, b)| input.held[b].row_count).sum();
        let want = (input.db.total_tuples() + rows) as u64;
        let held = listing_field(&listing, &input.name, "tuples");
        if held != Some(want) {
            failures.push(format!(
                "{}: holds {held:?} tuples, want {want} (initial + {rows} appended)",
                input.name
            ));
        }
        let epoch = listing_field(&listing, &input.name, "epoch");
        if epoch != Some(acked.len() as u64) {
            failures.push(format!(
                "{}: at epoch {epoch:?} after {} appends",
                input.name,
                acked.len()
            ));
        }
    }
    failures
}

/// The `"top": [...]` block of an explain document.
fn top_block(doc: &str) -> Option<&str> {
    let start = doc.find("  \"top\": [\n")?;
    let end = start + doc[start..].find("  ],\n")?;
    Some(&doc[start..end])
}

/// The `"top"` block `jsonout::explain_doc` renders for `ranked`.
fn render_top(db: &Database, ranked: &[Ranked]) -> String {
    let mut out = String::from("  \"top\": [\n");
    for (i, r) in ranked.iter().enumerate() {
        let sep = if i + 1 == ranked.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{ \"rank\": {}, \"explanation\": \"{}\", \"degree\": {} }}{sep}\n",
            r.rank,
            exq_obs::escape_json(&r.explanation.display(db).to_string()),
            json_f64(r.degree),
        ));
    }
    out
}

/// A request-shaped explainer over `prepared`, as the server builds it.
pub fn explainer<'a>(
    prepared: &'a PreparedDb,
    spec: &ExplainSpec,
    exec: ExecConfig,
) -> Result<Explainer<'a>, String> {
    let schema = prepared.db().schema();
    let question = qparse::parse_question(schema, spec.question).map_err(|e| e.to_string())?;
    let attrs = spec
        .attrs
        .iter()
        .map(|a| schema.attr_path(a))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    Ok(prepared.explainer(question).exec(exec).attrs(attrs))
}

/// `natality-cold`: sampled misses rank exactly as an in-process
/// `Explainer::top` does on the same snapshot.
fn natality(deployment: &Deployment, samples: &[Sample]) -> Vec<String> {
    let mut failures = Vec::new();
    let misses: Vec<&Sample> = samples
        .iter()
        .filter(|s| s.class() == Some(Class::Miss))
        .filter(|s| s.reply.as_ref().is_some_and(|r| !r.body.is_empty()))
        .collect();
    if misses.is_empty() {
        failures.push("natality: no miss reply to check".to_string());
    }
    for sample in spread(&misses, MAX_COMPARED) {
        let OpKind::Explain(spec) = &sample.op.kind else {
            continue;
        };
        let (prepared, _) = deployment.datasets[sample.op.dataset].snapshot();
        let expected = explainer(&prepared, spec, ExecConfig::sequential())
            .and_then(|e| e.top(spec.kind(), spec.top).map_err(|e| e.to_string()))
            .map(|ranked| render_top(prepared.db(), &ranked));
        let doc = sample.reply.as_ref().map(|r| r.text()).unwrap_or_default();
        match (expected, top_block(&doc)) {
            (Ok(want), Some(got)) if want == got => {}
            (want, got) => failures.push(format!(
                "natality: {spec:?} ranked {got:?} over HTTP, in-process {want:?}"
            )),
        }
    }
    failures
}

/// A single-process reference server holding every dataset's initial
/// tables.
fn reference(inputs: &[DatasetInput]) -> Result<exq_serve::Handle, String> {
    let mut catalog = Catalog::new();
    for input in inputs {
        catalog.insert_database(&input.name, Arc::new(input.db.clone()), &ExecConfig::auto())?;
    }
    exq_serve::start(catalog, ServerConfig::default(), MetricsSink::recording())
        .map_err(|e| e.to_string())
}

/// `dblp-routed`: sampled routed replies are byte-identical (span
/// durations and cost epochs scrubbed) to a single-process server at
/// the same epoch, reached by replaying the acknowledged appends.
fn routed(inputs: &[DatasetInput], samples: &[Sample]) -> Vec<String> {
    let mut failures = Vec::new();
    let server = match reference(inputs) {
        Ok(server) => server,
        Err(e) => return vec![format!("reference server: {e}")],
    };
    let mut conn = Conn::new(server.addr());
    let kept: Vec<&Sample> = samples
        .iter()
        .filter(|s| matches!(s.op.kind, OpKind::Explain(_)) && s.ok())
        .filter(|s| s.reply.as_ref().is_some_and(|r| !r.body.is_empty()))
        .collect();
    let mut compared = 0usize;
    for (d, input) in inputs.iter().enumerate() {
        let mut checks: Vec<(u64, &Sample)> = kept
            .iter()
            .filter(|s| s.op.dataset == d)
            .filter_map(|s| Some((s.epoch()?, *s)))
            .collect();
        checks.sort_by_key(|&(e, _)| e);
        let checks: Vec<(u64, &Sample)> = spread(&checks, (MAX_COMPARED / inputs.len()).max(1))
            .copied()
            .collect();
        let mut next = checks.iter().peekable();
        let appends = acked(samples, d);
        for epoch in 0..=appends.len() as u64 {
            while let Some(&&(e, sample)) = next.peek() {
                if e != epoch {
                    break;
                }
                next.next();
                compared += 1;
                let bytes = sample.op.bytes(inputs);
                let want = conn.send(&bytes).map(|r| scrub(&r.text()));
                let got = sample.reply.as_ref().map(|r| scrub(&r.text()));
                if want.as_ref().ok() != got.as_ref() {
                    failures.push(format!(
                        "{}: routed reply at epoch {epoch} differs from a single-process server",
                        input.name
                    ));
                }
            }
            if let Some(&(_, batch)) = appends.get(epoch as usize) {
                let op = Op {
                    dataset: d,
                    kind: OpKind::Append { batch },
                };
                let reply = conn.send(&op.bytes(inputs));
                if reply.map(|r| r.status).ok() != Some(200) {
                    failures.push(format!("{}: reference append failed", input.name));
                }
            }
        }
    }
    server.shutdown();
    if compared == 0 {
        failures.push("dblp: no routed reply to check".to_string());
    }
    failures
}

/// `geodblp-ingest`: the final-epoch explain is byte-identical (span
/// durations and cost epochs scrubbed) to one from a server rebuilt
/// from the initial tables plus every acknowledged batch.
fn rebuilt(deployment: &Deployment, inputs: &[DatasetInput], samples: &[Sample]) -> Vec<String> {
    let input = &inputs[0];
    let op = Op {
        dataset: 0,
        kind: OpKind::Explain(GeoDblpIngest::explain(crate::inputs::GEO_TOPS)),
    };
    let bytes = op.bytes(inputs);
    let live = Conn::new(deployment.entry())
        .send(&bytes)
        .map(|r| scrub(&r.text()));
    // One batch holding every acknowledged batch in epoch order leaves
    // each relation's rows in the order the server appended them.
    let all: exq_relstore::AppendBatch = acked(samples, 0)
        .into_iter()
        .flat_map(|(_, batch)| input.held[batch].rows.iter().cloned())
        .collect();
    let mut db = input.db.clone();
    if let Err(e) = db.append_batch(all) {
        return vec![format!("{}: rebuilding the full instance: {e}", input.name)];
    }
    let mut catalog = Catalog::new();
    if let Err(e) = catalog.insert_database(&input.name, Arc::new(db), &ExecConfig::auto()) {
        return vec![format!("{}: rebuilding: {e}", input.name)];
    }
    let server = match exq_serve::start(catalog, ServerConfig::default(), MetricsSink::recording())
    {
        Ok(server) => server,
        Err(e) => return vec![format!("rebuilt server: {e}")],
    };
    let fresh = Conn::new(server.addr())
        .send(&bytes)
        .map(|r| scrub(&r.text()));
    server.shutdown();
    match (live, fresh) {
        (Ok(live), Ok(fresh)) if live == fresh && live.contains("\"top\"") => Vec::new(),
        _ => vec![format!(
            "{}: final-epoch explain differs from a server rebuilt from the full instance",
            input.name
        )],
    }
}
