//! The traced run: per-layer numbers.
//!
//! It runs the rounds of the untraced run, each followed by the same
//! round with tracing enabled on the servers' and front's sinks, and
//! checks every round's answers. On the last traced round it then times
//! each layer's public functions from here, on the same inputs:
//!
//! * set-up layers on fresh copies of the tables;
//! * for every request of that round, the HTTP parse of the exact
//!   bytes sent, the question parse and the cache key;
//! * for a spread sample of misses, the explanation table, top-K and
//!   rendering;
//! * for a spread sample of appends, the delta maintenance and the
//!   whole append, each on the state the server applied it to;
//! * a probe that sends one cached explain alternately straight to its
//!   worker and through a front (for direct workloads a front is stood
//!   up for the probe alone).
//!
//! Every client request and every replayed call is a span (name, start,
//! end, parent, request id) kept in memory and written once, at the end,
//! as a Chrome trace to `.bench_traces/`. A request's self time is its
//! latency minus its children, whose intervals do not overlap; that
//! remainder is `unattributed_ms`. Where a workload's loop never reaches
//! a layer (appends and hits on `natality-cold`, the front on the direct
//! workloads, the naive engine off `dblp-routed`), the probe or a replay
//! on the workload's own data stands in, so every workload reports every
//! per-layer metric.

use crate::check::{acked, explainer};
use crate::client::Conn;
use crate::deploy::Deployment;
use crate::drive::{Class, Op, OpKind, Sample};
use crate::inputs::{self, DatasetInput, ExplainSpec};
use crate::stats::{median, quantile, spread_indices};
use crate::workloads::{DblpRouted, GeoDblpIngest, Workload};
use crate::{Metric, Outcome};
use exq_core::jsonout;
use exq_core::prelude::*;
use exq_core::prepared::PreparedDb;
use exq_core::qparse;
use exq_core::topk;
use exq_obs::MetricsSink;
use exq_relstore::{semijoin, ExecConfig, Universal};
use exq_router::{Front, FrontConfig};
use exq_serve::http::{parse_request, Limits};
use exq_serve::key::{cache_key, CanonicalRequest};
use exq_serve::ServerConfig;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Repetitions of each set-up replay.
const SETUP_REPEATS: usize = 3;
/// Misses whose whole pipeline is replayed.
const MISS_REPLAYS: usize = 16;
/// Appends whose maintenance is replayed.
const APPEND_REPLAYS: usize = 24;
/// Of those, appends also compared against a full rebuild.
const REBUILD_REPLAYS: usize = 4;
/// Direct/routed pairs the probe sends.
const PROBE_PAIRS: usize = 100;

/// One recorded span.
struct Span {
    name: String,
    parent: usize,
    request: usize,
    start: Duration,
    end: Duration,
}

/// The benchmark's own spans, kept in memory until the run ends.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            // Index 0 is the root every parentless span hangs from.
            spans: vec![Span {
                name: "run".to_string(),
                parent: 0,
                request: 0,
                start: Duration::ZERO,
                end: Duration::ZERO,
            }],
        }
    }

    /// Record a span; returns its id.
    fn record(
        &mut self,
        name: &str,
        parent: usize,
        request: usize,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            request,
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
        });
        self.spans.len() - 1
    }

    /// Run `f` inside a span; returns its result and duration.
    fn time<T>(
        &mut self,
        name: &str,
        parent: usize,
        request: usize,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let end = Instant::now();
        self.record(name, parent, request, start, end);
        (out, end - start)
    }

    fn duration(&self, id: usize) -> Duration {
        let s = &self.spans[id];
        s.end.saturating_sub(s.start)
    }

    /// Span `id`'s duration minus its children's, in ms (may be negative
    /// when replayed children ran slower than the original request).
    fn self_ms(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .enumerate()
            .filter(|&(i, s)| i != 0 && s.parent == id && i != id)
            .map(|(i, _)| self.duration(i).as_secs_f64())
            .sum();
        (self.duration(id).as_secs_f64() - children) * 1e3
    }

    /// Write every span as a Chrome trace (one track per request).
    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let events: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .skip(1)
            .map(|(id, s)| {
                format!(
                    "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {id}, \"parent\": {}, \"request\": {}}}}}",
                    exq_obs::escape_json(&s.name),
                    s.request,
                    s.start.as_secs_f64() * 1e6,
                    s.end.saturating_sub(s.start).as_secs_f64() * 1e6,
                    s.parent,
                    s.request,
                )
            })
            .collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(
            path,
            format!("{{\"traceEvents\": [\n{}\n]}}\n", events.join(",\n")),
        )
    }
}

/// Per-layer metrics collected so far.
struct Layers(Vec<Metric>);

impl Layers {
    fn push(&mut self, name: &str, unit: &'static str, values: &[f64]) -> Result<(), String> {
        let value = median(values).ok_or_else(|| format!("no samples for {name}"))?;
        self.0.push(Metric::new(name, unit, value, values.len()));
        Ok(())
    }

    fn push_one(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        self.0.push(Metric::new(name, unit, value, samples));
    }

    fn push_percentiles(&mut self, name: &str, values: &[f64]) -> Result<(), String> {
        for (q, tag) in [(0.5, "p50"), (0.95, "p95")] {
            let v = quantile(values, q).ok_or_else(|| format!("no samples for {name}"))?;
            self.0
                .push(Metric::new(format!("{name}.{tag}"), "ms", v, values.len()));
        }
        Ok(())
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `(count, total_ns)` of span `name` in an explain document's metrics.
fn doc_span(doc: &str, name: &str) -> Option<(u64, u64)> {
    let at = doc.find(&format!("\"{name}\": {{ \"count\": "))?;
    let rest = &doc[at..];
    let int_after = |marker: &str| -> Option<u64> {
        let from = rest.find(marker)? + marker.len();
        rest[from..]
            .split(|c: char| !c.is_ascii_digit())
            .next()?
            .parse()
            .ok()
    };
    Some((int_after("\"count\": ")?, int_after("\"total_ns\": ")?))
}

/// Counter `name` in an explain document's metrics.
fn doc_counter(doc: &str, name: &str) -> Option<u64> {
    let marker = format!("\"{name}\": ");
    let from = doc.find(&marker)? + marker.len();
    doc[from..]
        .split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

/// Set-up layers on fresh copies of every dataset, summed over datasets;
/// medians of [`SETUP_REPEATS`] repetitions.
fn setup_layers(
    inputs: &[DatasetInput],
    tracer: &mut Tracer,
    out: &mut Layers,
) -> Result<(), String> {
    let exec = ExecConfig::auto();
    let (mut columns, mut reduce, mut universal, mut build) = (vec![], vec![], vec![], vec![]);
    let mut rows = 0usize;
    for _ in 0..SETUP_REPEATS {
        let (mut c, mut r, mut u, mut b) = (
            Duration::ZERO,
            Duration::ZERO,
            Duration::ZERO,
            Duration::ZERO,
        );
        let root = tracer.record("replay.setup", 0, 0, Instant::now(), Instant::now());
        for input in inputs {
            let db = input.db.clone();
            c += tracer
                .time("relstore.column.build", root, 0, || {
                    db.columns();
                })
                .1;
            let (view, t) = tracer.time("relstore.semijoin.reduce", root, 0, || {
                semijoin::reduce_with(&db, &db.full_view(), &exec)
            });
            r += t;
            let (joined, t) = tracer.time("relstore.join.universal", root, 0, || {
                Universal::compute_with(&db, &view, &exec)
            });
            u += t;
            rows += joined.len();
            let fresh = Arc::new(input.db.clone());
            b += tracer
                .time("core.prepared.build", root, 0, || {
                    PreparedDb::build_with(fresh, &exec)
                })
                .1;
        }
        columns.push(ms(c));
        reduce.push(ms(r));
        universal.push(ms(u));
        build.push(ms(b));
    }
    out.push("relstore.column.build_ms", "ms", &columns)?;
    out.push("relstore.semijoin.reduce_ms", "ms", &reduce)?;
    out.push("relstore.join.universal_ms", "ms", &universal)?;
    out.push_one(
        "relstore.join.universal_rows",
        "count",
        (rows / SETUP_REPEATS) as f64,
        inputs.len(),
    );
    out.push("core.prepared.build_ms", "ms", &build)
}

/// The explain every probe request sends, per workload.
fn probe_spec(workload: Workload) -> ExplainSpec {
    match workload {
        Workload::NatalityCold => ExplainSpec {
            question: inputs::Q_RACE,
            attrs: vec![
                "Natality.age".into(),
                "Natality.tobacco".into(),
                "Natality.edu".into(),
            ],
            top: 3,
            aggr: true,
        },
        Workload::DblpRouted => DblpRouted::hot(0),
        Workload::GeoDblpIngest => GeoDblpIngest::explain(3),
    }
}

/// The question each workload's naive-engine replay ranks: the loop's
/// own `COUNT(*)` question on `dblp-routed`; elsewhere the workload's
/// question over one low-cardinality attribute.
fn naive_spec(workload: Workload) -> ExplainSpec {
    match workload {
        Workload::NatalityCold => ExplainSpec {
            question: inputs::Q_RACE,
            attrs: vec!["Natality.tobacco".into()],
            top: 3,
            aggr: false,
        },
        Workload::DblpRouted => ExplainSpec {
            top: 3,
            aggr: false,
            ..DblpRouted::hot(1)
        },
        Workload::GeoDblpIngest => ExplainSpec {
            attrs: vec!["CityG.city".into()],
            ..GeoDblpIngest::explain(3)
        },
    }
}

struct Probe {
    direct: Vec<f64>,
    overhead: Vec<f64>,
    /// Pooled-checkout ratio of the probe's own front, if it had one.
    pooled_ratio: Option<f64>,
    samples: Vec<Sample>,
    failures: Vec<String>,
}

/// Send the probe explain once to warm the cache, then
/// [`PROBE_PAIRS`] times straight to its worker and through a front,
/// alternating which goes first. Natality, whose loop never appends,
/// also gets its held-back batches appended here.
fn probe(
    workload: Workload,
    deployment: &Deployment,
    inputs: &[DatasetInput],
    origin: Instant,
) -> Result<Probe, String> {
    let op = Op {
        dataset: 0,
        kind: OpKind::Explain(probe_spec(workload)),
    };
    let bytes = op.bytes(inputs);
    let own_front = match deployment.front {
        Some(_) => None,
        None => {
            let front = Front::start_on(
                "127.0.0.1:0",
                FrontConfig {
                    workers: 1,
                    per_worker_connections: ServerConfig::default().threads,
                    datasets: inputs.iter().map(|d| d.name.clone()).collect(),
                    ..FrontConfig::default()
                },
                MetricsSink::recording(),
            )
            .map_err(|e| format!("probe front: {e}"))?;
            front.upstreams().set_addr(0, Some(deployment.direct(0)));
            Some(front)
        }
    };
    let front_addr = own_front.as_ref().map_or(deployment.entry(), Front::addr);
    let mut direct = Conn::new(deployment.direct(0));
    let mut routed = Conn::new(front_addr);
    let mut out = Probe {
        direct: Vec::new(),
        overhead: Vec::new(),
        pooled_ratio: None,
        samples: Vec::new(),
        failures: Vec::new(),
    };
    let warm = direct.send(&bytes).map_err(|e| format!("probe: {e}"))?;
    for i in 0..PROBE_PAIRS {
        let mut times = [Duration::ZERO; 2];
        let mut bodies = [String::new(), String::new()];
        for leg in [i % 2, 1 - i % 2] {
            let conn = if leg == 0 { &mut direct } else { &mut routed };
            let sent = Instant::now();
            let reply = conn.send(&bytes).ok();
            times[leg] = sent.elapsed();
            match &reply {
                Some(r) if r.status == 200 && r.cost("cache") == Some("hit") => {
                    bodies[leg] = r.text();
                }
                _ => out
                    .failures
                    .push(format!("probe: leg {leg} was not a 200 cache hit")),
            }
            if leg == 0 {
                out.samples.push(Sample {
                    client: 0,
                    op: op.clone(),
                    sent: sent - origin,
                    latency: times[0],
                    reply,
                    request: Some(bytes.clone()),
                });
            }
        }
        if bodies[0] != bodies[1] || bodies[0] != warm.text() {
            out.failures
                .push("probe: routed and direct replies differ".to_string());
        }
        out.direct.push(ms(times[0]));
        out.overhead.push(ms(times[1]) - ms(times[0]));
    }
    if workload == Workload::NatalityCold {
        let mut conn = Conn::new(deployment.direct(0));
        for batch in 0..inputs[0].held.len() {
            let op = Op {
                dataset: 0,
                kind: OpKind::Append { batch },
            };
            let bytes = op.bytes(inputs);
            let sent = Instant::now();
            let reply = conn.send(&bytes).ok();
            let latency = sent.elapsed();
            if reply.as_ref().map(|r| r.status) != Some(200) {
                out.failures
                    .push("probe: natality append failed".to_string());
            }
            out.samples.push(Sample {
                client: 0,
                op,
                sent: sent - origin,
                latency,
                reply,
                request: Some(bytes),
            });
        }
    }
    out.pooled_ratio = own_front.and_then(|front| pooled_ratio(&front.shutdown()));
    Ok(out)
}

/// Pooled checkouts over all checkouts, from a front's counters.
fn pooled_ratio(snapshot: &exq_obs::Snapshot) -> Option<f64> {
    let reuses = snapshot.counter("router.upstream.reuses") as f64;
    let connects = snapshot.counter("router.upstream.connects") as f64;
    (reuses + connects > 0.0).then(|| reuses / (reuses + connects))
}

/// The last traced round's completed requests, each with a root span,
/// and what replaying them needs.
struct Replay<'a> {
    inputs: &'a [DatasetInput],
    deployment: &'a Deployment,
    samples: Vec<&'a Sample>,
    /// Root span of `samples[i]`, whose request id is `i + 1`.
    roots: Vec<usize>,
    /// When the round's loop started.
    started: Instant,
}

impl Replay<'_> {
    /// Indices of the samples of `class`.
    fn of(&self, class: Class) -> Vec<usize> {
        (0..self.samples.len())
            .filter(|&i| self.samples[i].class() == Some(class))
            .collect()
    }
}

/// HTTP parse, question parse and cache key, replayed for every request.
fn request_layers(r: &Replay<'_>, tracer: &mut Tracer, out: &mut Layers) -> Result<(), String> {
    let limits = Limits::default();
    let (mut parse_us, mut qparse_us, mut key_us) = (vec![], vec![], vec![]);
    for (i, s) in r.samples.iter().enumerate() {
        let (root, request) = (r.roots[i], i + 1);
        let bytes = s
            .request
            .as_deref()
            .expect("traced loops keep request bytes");
        let (parsed, t) = tracer.time("serve.http.parse", root, request, || {
            parse_request(bytes, &limits)
        });
        parse_us.push(us(t));
        if !matches!(parsed, Ok(Some(_))) {
            return Err("a sent request does not parse".to_string());
        }
        let OpKind::Explain(spec) = &s.op.kind else {
            continue;
        };
        let (prepared, _) = r.deployment.datasets[s.op.dataset].snapshot();
        let schema = prepared.db().schema();
        let (question, t) = tracer.time("core.qparse", root, request, || {
            qparse::parse_question(schema, spec.question)
        });
        qparse_us.push(us(t));
        let question = question.map_err(|e| e.to_string())?;
        let attrs: Vec<_> = spec
            .attrs
            .iter()
            .map(|a| schema.attr_path(a))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        let name = &r.inputs[s.op.dataset].name;
        let (_, t) = tracer.time("serve.key.cache_key", root, request, || {
            cache_key(
                schema,
                &CanonicalRequest {
                    endpoint: "explain",
                    dataset: name,
                    epoch: s.epoch().unwrap_or(0),
                    question: &question,
                    attrs: &attrs,
                    top_k: spec.top,
                    kind: spec.kind(),
                    strategy: TopKStrategy::MinimalSelfJoin,
                    polarity: MinimalityPolarity::PreferGeneral,
                    min_support: None,
                    naive: false,
                },
            )
        });
        key_us.push(us(t));
    }
    out.push("serve.http.parse_us", "us", &parse_us)?;
    out.push("core.qparse_us", "us", &qparse_us)?;
    out.push("serve.key.cache_key_us", "us", &key_us)
}

/// What every miss reply embeds: its engine phases, cube counters and
/// candidate count, and the server's engine time as a child span.
fn embedded_layers(r: &Replay<'_>, tracer: &mut Tracer, out: &mut Layers) -> Result<(), String> {
    const PHASES: [&str; 4] = ["totals", "cubes", "join", "derive"];
    let mut phase: [Vec<f64>; 4] = Default::default();
    let (mut cube_runs, mut scans, mut candidates, mut explain_wait) =
        (vec![], vec![], vec![], vec![]);
    for i in r.of(Class::Miss) {
        let s = r.samples[i];
        let reply = s.reply.as_ref().expect("completed");
        let doc = reply.text();
        if let Some(c) = reply.cost("candidates").and_then(|v| v.parse::<f64>().ok()) {
            candidates.push(c);
        }
        let Some((_, table_ns)) = doc_span(&doc, "explain.table") else {
            continue;
        };
        let start = r.started + s.sent;
        let end = start + Duration::from_nanos(table_ns);
        tracer.record("server.explain.table", r.roots[i], i + 1, start, end);
        explain_wait.push(s.ms() - table_ns as f64 / 1e6);
        if doc.contains("\"engine\": \"Cube\"") {
            for (slot, name) in PHASES.iter().enumerate() {
                let ns = doc_span(&doc, &format!("cube_algo.{name}")).map_or(0, |(_, ns)| ns);
                phase[slot].push(ns as f64 / 1e6);
            }
            let runs = doc_counter(&doc, "cube.runs").unwrap_or(0);
            let totals = doc_span(&doc, "cube_algo.totals").map_or(0, |(n, _)| n);
            cube_runs.push(runs as f64);
            scans.push((runs + totals) as f64);
        }
    }
    for (slot, name) in PHASES.iter().enumerate() {
        out.push(&format!("core.cube_algo.{name}_ms"), "ms", &phase[slot])?;
    }
    out.push("core.cube.runs", "count", &cube_runs)?;
    out.push("core.cube_algo.scans", "count", &scans)?;
    out.push("core.candidates", "count", &candidates)?;
    out.push("serve.explain.wait_ms", "ms", &explain_wait)
}

/// The whole pipeline of a spread sample of misses, on the dataset's
/// current snapshot: explanation table, top-K, render.
fn miss_layers(r: &Replay<'_>, tracer: &mut Tracer, out: &mut Layers) -> Result<(), String> {
    let (mut cube_table, mut topk_ms, mut render_ms, mut unattributed) =
        (vec![], vec![], vec![], vec![]);
    let misses = r.of(Class::Miss);
    for j in spread_indices(misses.len(), MISS_REPLAYS) {
        let i = misses[j];
        let s = r.samples[i];
        let OpKind::Explain(spec) = &s.op.kind else {
            continue;
        };
        let (prepared, _) = r.deployment.datasets[s.op.dataset].snapshot();
        let sink = MetricsSink::recording();
        let exec = ExecConfig::sequential().with_metrics(sink.clone());
        let explainer = explainer(&prepared, spec, exec)?;
        let q_d = explainer.q_d().map_err(|e| e.to_string())?;
        let (table, t) = tracer.time("replay.explainer.table", 0, i + 1, || explainer.table());
        let (table, choice) = table.map_err(|e| e.to_string())?;
        if choice == EngineChoice::Cube {
            cube_table.push(ms(t));
        }
        let (ranked, t) = tracer.time("core.topk", r.roots[i], i + 1, || {
            topk::top_k(
                &table,
                spec.kind(),
                spec.top,
                TopKStrategy::MinimalSelfJoin,
                MinimalityPolarity::PreferGeneral,
            )
        });
        topk_ms.push(ms(t));
        let snapshot = sink.snapshot();
        let (_, t) = tracer.time("core.jsonout.render", r.roots[i], i + 1, || {
            jsonout::explain_doc(prepared.db(), q_d, choice, table.len(), &ranked, &snapshot)
        });
        render_ms.push(ms(t));
        unattributed.push(tracer.self_ms(r.roots[i]));
    }
    out.push("core.cube_algo.table_ms", "ms", &cube_table)?;
    out.push("core.topk_ms", "ms", &topk_ms)?;
    out.push("core.jsonout.render_ms", "ms", &render_ms)?;
    out.push("unattributed_ms.explain_miss", "ms", &unattributed)
}

/// The naive engine on the workload's naive question.
fn naive_layers(
    workload: Workload,
    deployment: &Deployment,
    tracer: &mut Tracer,
    out: &mut Layers,
) -> Result<(), String> {
    let (mut naive_ms, mut fixpoint_runs) = (vec![], vec![]);
    let spec = naive_spec(workload);
    for _ in 0..SETUP_REPEATS {
        let (prepared, _) = deployment.datasets[0].snapshot();
        let sink = MetricsSink::recording();
        let exec = ExecConfig::sequential().with_metrics(sink.clone());
        let explainer = explainer(&prepared, &spec, exec)?.force_naive();
        let (table, t) = tracer.time("replay.naive.table", 0, 0, || explainer.table());
        table.map_err(|e| e.to_string())?;
        naive_ms.push(ms(t));
        fixpoint_runs.push(sink.snapshot().counter("fixpoint.runs") as f64);
    }
    out.push("core.naive.table_ms", "ms", &naive_ms)?;
    out.push("core.naive.fixpoint_runs", "count", &fixpoint_runs)
}

/// Appends: a spread sample replayed on the exact state each was
/// applied to. The batches between two sampled ones are applied as one
/// merged batch, which leaves the same rows in the same order.
fn append_layers(r: &Replay<'_>, tracer: &mut Tracer, out: &mut Layers) -> Result<(), String> {
    let exec = ExecConfig::sequential();
    let (mut extend_ms, mut apply_ms, mut vs_rebuild, mut wait, mut unattributed) =
        (vec![], vec![], vec![], vec![], vec![]);
    let appends = r.of(Class::Append);
    for (d, input) in r.inputs.iter().enumerate() {
        let order = acked(r.samples.iter().copied(), d);
        let picks = spread_indices(order.len(), APPEND_REPLAYS / r.inputs.len() + 1);
        let rebuilds = spread_indices(picks.len(), REBUILD_REPLAYS);
        let mut state = Arc::clone(&r.deployment.initial[d]);
        let mut applied = 0usize;
        for (p, &pick) in picks.iter().enumerate() {
            if pick > applied {
                let merged: exq_relstore::AppendBatch = order[applied..pick]
                    .iter()
                    .flat_map(|&(_, b)| input.held[b].rows.iter().cloned())
                    .collect();
                let next = state
                    .append_with(merged, &exec)
                    .map_err(|e| e.to_string())?;
                state = Arc::new(next.0);
            }
            let (epoch, batch) = order[pick];
            let rows = &input.held[batch].rows;
            let i = appends
                .iter()
                .copied()
                .find(|&i| r.samples[i].op.dataset == d && r.samples[i].epoch() == Some(epoch))
                .ok_or("an acknowledged append has no sample")?;
            let mut db = state.db().clone();
            let old_lens: Vec<usize> = (0..db.schema().relation_count())
                .map(|rel| db.relation_len(rel))
                .collect();
            db.append_batch(rows.clone()).map_err(|e| e.to_string())?;
            let (_, t) = tracer.time("replay.relstore.join.extend", 0, i + 1, || {
                Universal::extend_for_append_with(state.universal(), &db, &old_lens, &exec)
            });
            extend_ms.push(ms(t));
            let (next, t) = tracer.time("core.prepared.append", r.roots[i], i + 1, || {
                state.append_with(rows.clone(), &exec)
            });
            let next = Arc::new(next.map_err(|e| e.to_string())?.0);
            apply_ms.push(ms(t));
            wait.push(r.samples[i].ms() - ms(t));
            unattributed.push(tracer.self_ms(r.roots[i]));
            if rebuilds.contains(&p) {
                let fresh = Arc::new(inputs::copy_where(next.db(), |_, _| true));
                let (_, rebuild) = tracer.time("replay.core.prepared.rebuild", 0, i + 1, || {
                    PreparedDb::build_with(fresh, &exec)
                });
                vs_rebuild.push(ms(t) / ms(rebuild));
            }
            state = next;
            applied = pick + 1;
        }
    }
    out.push("relstore.join.extend_ms", "ms", &extend_ms)?;
    out.push("core.prepared.append_ms", "ms", &apply_ms)?;
    out.push("core.prepared.append_vs_rebuild", "ratio", &vs_rebuild)?;
    out.push("serve.append.wait_ms", "ms", &wait)?;
    out.push("unattributed_ms.append", "ms", &unattributed)
}

/// The traced run for `workload`.
pub fn traced(workload: Workload, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let inputs = workload.inputs(seed, seconds);
    let mut tracer = Tracer::new();
    let mut out = Layers(Vec::new());
    setup_layers(&inputs, &mut tracer, &mut out)?;

    // Rounds of the same loop, untraced and traced in turn, each on a
    // fresh deployment; the last traced round is the one replayed below.
    let seconds = seconds as f64 / crate::ROUNDS as f64;
    let mut failures = Vec::new();
    let (mut attempted, mut failed) = (0usize, 0usize);
    let mut rps = [(0usize, 0.0f64); 2];
    let mut last: Option<crate::Round> = None;
    for index in 0..crate::ROUNDS {
        for traced in [false, true] {
            let r = crate::round(workload, &inputs, seed, index, seconds, traced)?;
            let samples = &r.result.samples;
            attempted += samples.len();
            failed += samples.iter().filter(|s| !s.ok()).count();
            rps[usize::from(traced)].0 += samples.iter().filter(|s| s.ok()).count();
            rps[usize::from(traced)].1 += r.result.elapsed.as_secs_f64();
            failures.extend(r.failures.iter().cloned());
            if !traced {
                r.deployment.shutdown();
            } else if let Some(previous) = last.replace(r) {
                previous.deployment.shutdown();
            }
        }
    }
    let crate::Round {
        deployment, result, ..
    } = last.expect("at least one traced round");
    let [base, with_tracing] = rps.map(|(done, s)| done as f64 / s);
    out.push_one(
        "obs.trace_overhead_frac",
        "ratio",
        (with_tracing - base) / base,
        2 * crate::ROUNDS,
    );

    let explains: Vec<&Sample> = result
        .samples
        .iter()
        .filter(|s| matches!(s.op.kind, OpKind::Explain(_)) && s.ok())
        .collect();
    let hits = explains
        .iter()
        .filter(|s| s.class() == Some(Class::Hit))
        .count();
    out.push_one(
        "serve.cache.hit_ratio",
        "ratio",
        hits as f64 / explains.len().max(1) as f64,
        explains.len(),
    );

    let mut probe = probe(workload, &deployment, &inputs, result.started)?;
    failures.append(&mut probe.failures);
    out.push_percentiles("serve.direct_rtt_ms", &probe.direct)?;
    out.push_percentiles("router.front.overhead_ms", &probe.overhead)?;

    // Requests whose class the loop never produced come from the probe.
    let mut samples: Vec<&Sample> = result.samples.iter().filter(|s| s.ok()).collect();
    for class in [Class::Hit, Class::Append] {
        if !samples.iter().any(|s| s.class() == Some(class)) {
            samples.extend(probe.samples.iter().filter(|s| s.class() == Some(class)));
        }
    }
    let roots = samples
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let start = result.started + s.sent;
            let name = format!("client.{:?}", s.class().expect("completed")).to_lowercase();
            tracer.record(&name, 0, i + 1, start, start + s.latency)
        })
        .collect();
    let replay = Replay {
        inputs: &inputs,
        deployment: &deployment,
        samples,
        roots,
        started: result.started,
    };
    request_layers(&replay, &mut tracer, &mut out)?;
    embedded_layers(&replay, &mut tracer, &mut out)?;
    miss_layers(&replay, &mut tracer, &mut out)?;
    naive_layers(workload, &deployment, &mut tracer, &mut out)?;
    append_layers(&replay, &mut tracer, &mut out)?;
    let hit_self: Vec<f64> = replay
        .of(Class::Hit)
        .into_iter()
        .map(|i| tracer.self_ms(replay.roots[i]))
        .collect();
    out.push("unattributed_ms.explain_hit", "ms", &hit_self)?;
    drop(replay);

    let (servers, front) = deployment.shutdown();
    let pooled = probe
        .pooled_ratio
        .or_else(|| front.as_ref().and_then(pooled_ratio))
        .ok_or("the front made no upstream checkout")?;
    out.push_one("router.upstream.pooled_ratio", "ratio", pooled, 1);
    let ingest = |name: &str| servers.iter().map(|s| s.counter(name) as f64).sum::<f64>();

    let path =
        std::path::Path::new(".bench_traces").join(format!("{}-seed{seed}.json", workload.name()));
    tracer
        .write(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let failed = failed + failures.len();
    let mut metrics = out.0;
    metrics.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(Outcome {
        metrics,
        notes: vec![
            Metric::new(
                "ingest.delta.full_rebuilds",
                "count",
                ingest("ingest.delta.full_rebuilds"),
                servers.len(),
            ),
            Metric::new(
                "ingest.delta.tuples",
                "count",
                ingest("ingest.delta.tuples"),
                servers.len(),
            ),
            Metric::new("trace.spans", "count", tracer.spans.len() as f64 - 1.0, 1),
        ],
        attempted,
        failed,
        failures,
    })
}
