//! Server ↔ CLI parity on the DBLP workload (ISSUE 4 acceptance): N
//! parallel HTTP clients must get responses whose semantic content is
//! byte-identical to the single-shot CLI's `--format json` document, at
//! 1, 2, and 7 server worker threads.
//!
//! The two surfaces share one serializer (`exq_core::jsonout`), so the
//! document *up to the `"notes"` field* is comparable byte-for-byte:
//! after it, the CLI carries CSV-load provenance notes and join
//! counters from its cold build that the server's request-scoped
//! metrics (running over pre-built intermediates) legitimately lack.
//! Across clients the *full* bodies must agree after zeroing span
//! wall-times — and on cache hits they agree without normalization.

use exq::datagen::dblp;
use exq::relstore::csv::dump_relation;
use exq::relstore::ExecConfig;
use exq::serve::{client, Catalog, ServerConfig};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("exq-serve-parity-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn asset(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("assets")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Write the generated DBLP dataset as a `Catalog::load_dir` directory:
/// `schema.exq` + one `<Relation>.csv` per relation.
fn write_dataset(dir: &Path) {
    let db = dblp::generate(&dblp::DblpConfig {
        papers_per_year_base: 6,
        authors_per_institution: 4,
        ..dblp::DblpConfig::default()
    });
    fs::write(dir.join("schema.exq"), asset("schemas/dblp.exq")).unwrap();
    for rel in ["Author", "Authored", "Publication"] {
        let f = fs::File::create(dir.join(format!("{rel}.csv"))).unwrap();
        dump_relation(&db, rel, std::io::BufWriter::new(f)).unwrap();
    }
    fs::write(dir.join("question.exq"), asset("questions/bump.exq")).unwrap();
}

fn cli_explain_json(dir: &Path) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_exq"))
        .args([
            "explain",
            "--schema",
            dir.join("schema.exq").to_str().unwrap(),
            "--table",
            &format!("Author={}", dir.join("Author.csv").display()),
            "--table",
            &format!("Authored={}", dir.join("Authored.csv").display()),
            "--table",
            &format!("Publication={}", dir.join("Publication.csv").display()),
            "--question",
            dir.join("question.exq").to_str().unwrap(),
            "--attrs",
            "Author.inst",
            "--top",
            "5",
            "--threads",
            "1",
            "--format",
            "json",
        ])
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "CLI failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(output.stderr.is_empty(), "json mode must keep stderr empty");
    String::from_utf8(output.stdout).unwrap()
}

/// The document up to its `"notes"` field: q_d, engine, candidate
/// count, and the full ranked top-K.
fn semantic_prefix(doc: &str) -> &str {
    let idx = doc
        .find("\"notes\"")
        .unwrap_or_else(|| panic!("no notes field in {doc}"));
    &doc[..idx]
}

/// Zero the digits after every `"total_ns": ` (same normalization as
/// the CLI golden-fixture tests).
fn normalize(text: &str) -> String {
    let mut out = String::new();
    for line in text.lines() {
        match line.find("\"total_ns\": ") {
            Some(idx) => {
                let head = &line[..idx + "\"total_ns\": ".len()];
                let tail: String = line[idx + "\"total_ns\": ".len()..]
                    .chars()
                    .skip_while(char::is_ascii_digit)
                    .collect();
                out.push_str(head);
                out.push('0');
                out.push_str(&tail);
            }
            None => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

fn request_body(dir: &Path) -> String {
    let question = fs::read_to_string(dir.join("question.exq")).unwrap();
    format!(
        "{{\"dataset\": \"dblp\", \"question\": \"{}\", \"attrs\": [\"Author.inst\"], \"top\": 5}}",
        exq::obs::escape_json(&question)
    )
}

#[test]
fn parallel_clients_match_single_shot_cli_at_1_2_and_7_threads() {
    let dir = workdir("dblp");
    write_dataset(&dir);
    let cli_doc = cli_explain_json(&dir);
    let cli_prefix = semantic_prefix(&cli_doc).to_string();
    assert!(
        cli_prefix.contains("\"engine\": \"Cube\""),
        "unexpected CLI doc: {cli_prefix}"
    );
    let body = request_body(&dir);

    for threads in [1usize, 2, 7] {
        let mut catalog = Catalog::new();
        catalog
            .load_dir("dblp", &dir, &ExecConfig::sequential())
            .unwrap();
        let handle = exq::serve::start(
            catalog,
            ServerConfig {
                threads,
                ..ServerConfig::default()
            },
            exq::obs::MetricsSink::recording(),
        )
        .unwrap();
        let addr = handle.addr();

        let bodies: Vec<String> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..6)
                .map(|_| {
                    let body = body.as_str();
                    scope.spawn(move || {
                        let response = client::post_json(addr, "/v1/explain", body).unwrap();
                        assert_eq!(response.status, 200, "{}", response.text());
                        response.text()
                    })
                })
                .collect();
            clients.into_iter().map(|c| c.join().unwrap()).collect()
        });

        for response in &bodies {
            // Semantic parity with the CLI, byte for byte.
            assert_eq!(
                semantic_prefix(response),
                cli_prefix,
                "server response diverged from CLI at {threads} threads"
            );
        }
        // Full-document agreement across parallel clients (normalized:
        // racing cache misses may differ only in span wall-times).
        let first = normalize(&bodies[0]);
        for response in &bodies[1..] {
            assert_eq!(
                normalize(response),
                first,
                "parallel clients diverged at {threads} threads"
            );
        }

        // A follow-up request is a cache hit: identical without
        // normalization, and the hit counter proves it was served from
        // the cache.
        let warm = client::post_json(addr, "/v1/explain", &body).unwrap();
        assert_eq!(warm.status, 200);
        assert_eq!(semantic_prefix(&warm.text()), cli_prefix);
        let snapshot = handle.shutdown();
        assert!(
            snapshot.counter("server.cache.hits") >= 1,
            "expected at least one cache hit"
        );
        assert_eq!(
            snapshot.counter("server.responses.ok"),
            7,
            "all requests must succeed"
        );
    }
}

/// ISSUE 5 acceptance: for a *sequential* request mix (so cache
/// hit/miss outcomes are deterministic), the server's final metrics
/// snapshot — counters, span counts, and histogram bucket counts —
/// normalizes to a bit-identical JSON document at 1, 2, and 7 worker
/// threads. Wall-clock (span totals, latency histogram sums/buckets)
/// is collapsed by `Snapshot::normalized()`; everything else must not
/// depend on the thread count.
#[test]
fn sequential_snapshots_normalize_identically_at_1_2_and_7_threads() {
    let dir = workdir("dblp-snapshot");
    write_dataset(&dir);
    let body = request_body(&dir);

    let mut reference: Option<String> = None;
    for threads in [1usize, 2, 7] {
        let mut catalog = Catalog::new();
        catalog
            .load_dir("dblp", &dir, &ExecConfig::sequential())
            .unwrap();
        let handle = exq::serve::start(
            catalog,
            ServerConfig {
                threads,
                ..ServerConfig::default()
            },
            exq::obs::MetricsSink::recording(),
        )
        .unwrap();
        let addr = handle.addr();

        // Deterministic mix: explain miss + hit, report miss + hit,
        // and a sweep of the GET endpoints.
        for _ in 0..2 {
            let response = client::post_json(addr, "/v1/explain", &body).unwrap();
            assert_eq!(response.status, 200, "{}", response.text());
        }
        for _ in 0..2 {
            let response = client::post_json(addr, "/v1/report", &body).unwrap();
            assert_eq!(response.status, 200, "{}", response.text());
        }
        for path in ["/healthz", "/v1/datasets", "/metrics", "/v1/debug/requests"] {
            assert_eq!(client::get(addr, path).unwrap().status, 200);
        }
        assert_eq!(client::get(addr, "/nope").unwrap().status, 404);

        let doc = handle.shutdown().normalized().to_json();
        match &reference {
            None => reference = Some(doc),
            Some(expected) => assert_eq!(
                &doc, expected,
                "normalized snapshot changed at {threads} threads"
            ),
        }
    }
}

/// `report --format json` through the CLI matches `/v1/report` through
/// the server the same way.
#[test]
fn report_parity_cli_vs_server() {
    let dir = workdir("dblp-report");
    write_dataset(&dir);
    let output = Command::new(env!("CARGO_BIN_EXE_exq"))
        .args([
            "report",
            "--schema",
            dir.join("schema.exq").to_str().unwrap(),
            "--table",
            &format!("Author={}", dir.join("Author.csv").display()),
            "--table",
            &format!("Authored={}", dir.join("Authored.csv").display()),
            "--table",
            &format!("Publication={}", dir.join("Publication.csv").display()),
            "--question",
            dir.join("question.exq").to_str().unwrap(),
            "--attrs",
            "Author.inst",
            "--top",
            "5",
            "--threads",
            "1",
            "--format",
            "json",
        ])
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "CLI failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(output.stderr.is_empty());
    let cli_doc = String::from_utf8(output.stdout).unwrap();

    let mut catalog = Catalog::new();
    catalog
        .load_dir("dblp", &dir, &ExecConfig::sequential())
        .unwrap();
    let handle = exq::serve::start(
        catalog,
        ServerConfig::default(),
        exq::obs::MetricsSink::recording(),
    )
    .unwrap();
    let response = client::post_json(handle.addr(), "/v1/report", &request_body(&dir)).unwrap();
    assert_eq!(response.status, 200, "{}", response.text());
    assert_eq!(semantic_prefix(&response.text()), semantic_prefix(&cli_doc));
    handle.shutdown();
}

/// SUM/AVG over a float column, with data whose cube grand total groups
/// the additions differently from input order: the CLI and `/v1/explain`
/// report the same `q_d` (the input-order value) and the same ranking.
#[test]
fn float_sum_parity_cli_vs_server() {
    let dir = workdir("floats");
    fs::write(
        dir.join("schema.exq"),
        "relation R(id: int key, g: str, x: float)\n",
    )
    .unwrap();
    // Input order sums x to 1.0; grouped by g it is 0.0 + 20.0.
    let mut csv = String::from("id,g,x\n");
    for id in 0..40 {
        let (g, x) = [("a", 1e16), ("b", 1.0), ("a", -1e16), ("b", 1.0)][id % 4];
        csv.push_str(&format!("{id},{g},{x:?}\n"));
    }
    fs::write(dir.join("R.csv"), csv).unwrap();
    let question = "agg s = sum(x)\nagg m = avg(x) where g = 'b'\nexpr s + m\ndir high\n";
    fs::write(dir.join("question.exq"), question).unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_exq"))
        .args([
            "explain",
            "--schema",
            dir.join("schema.exq").to_str().unwrap(),
            "--table",
            &format!("R={}", dir.join("R.csv").display()),
            "--question",
            dir.join("question.exq").to_str().unwrap(),
            "--attrs",
            "R.g",
            "--top",
            "5",
            "--threads",
            "1",
            "--format",
            "json",
        ])
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "CLI failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let cli_doc = String::from_utf8(output.stdout).unwrap();
    assert!(cli_doc.contains("\"q_d\": 2,"), "{cli_doc}");

    let mut catalog = Catalog::new();
    catalog
        .load_dir("floats", &dir, &ExecConfig::sequential())
        .unwrap();
    let handle = exq::serve::start(
        catalog,
        ServerConfig::default(),
        exq::obs::MetricsSink::recording(),
    )
    .unwrap();
    let body = format!(
        "{{\"dataset\": \"floats\", \"question\": \"{}\", \"attrs\": [\"R.g\"], \"top\": 5}}",
        exq::obs::escape_json(question)
    );
    let response = client::post_json(handle.addr(), "/v1/explain", &body).unwrap();
    assert_eq!(response.status, 200, "{}", response.text());
    assert_eq!(semantic_prefix(&response.text()), semantic_prefix(&cli_doc));
    handle.shutdown();
}
