//! One record per served request, and the three policies that keep it.
//!
//! Both serving tiers build one [`RequestRecord`] per answered request:
//! trace id (the `X-Exq-Trace-Id` the client saw), tenant, shard,
//! method, path, endpoint, status, latency, and cache outcome. It feeds
//! three policies:
//!
//! * **keep the last N**: a ring of the last [`RING_CAPACITY`] records,
//!   served at `GET /v1/debug/requests` and dumped on SIGTERM;
//! * **keep errors and slow requests**: a ring of the same depth holding
//!   requests that answered ≥ 500 or reached the slow bound — static
//!   (`--trace-slow-ms`) or, without one, the p99 bucket bound of the
//!   endpoint's own latency histogram once [`ADAPTIVE_MIN_SAMPLES`] are
//!   in. Served at `GET /v1/debug/traces`, appended to a JSON-lines file
//!   when configured; the newest per histogram is its Prometheus exemplar;
//! * **write every request**: the access log ([`LineLog::record`]).
//!
//! A worker runs all three through [`RequestLog::record`]; the router
//! front writes only the access log. Every surface renders the record
//! with [`RequestRecord::to_json`] and puts its own keys first: `seq`
//! (1-based position in the server's sequence) on the last-N ring;
//! `reason` (`"error"` or `"slow"`), `hist` and `bucket_upper` on
//! retained records; and on the access log two coarse wall-clock
//! fields, `ts_bucket` (minutes since the Unix epoch) and
//! `latency_bucket` (the latency's log-bucket upper bound):
//!
//! ```json
//! {"ts_bucket": 29473921, "latency_bucket": 1048575, "trace_id": 7,
//!  "tenant": "acme", "shard": 0, "method": "POST", "path": "/v1/explain",
//!  "endpoint": "explain", "status": 200, "latency_ns": 912345, "cache": "miss"}
//! ```

use crate::http::Request;
use exq_obs::{bucket_index, bucket_upper, escape_json, Exemplar};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Depth of both in-memory rings: the last N requests and the retained
/// ones. Oldest entries are evicted first.
pub const RING_CAPACITY: usize = 128;

/// Observations of a latency histogram before its adaptive slow bound
/// arms. Below this, only errors and static-threshold hits are retained.
pub const ADAPTIVE_MIN_SAMPLES: u64 = 64;

/// One served request, as every surface reports it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestRecord {
    /// The request's trace id, as sent back in `X-Exq-Trace-Id`.
    pub trace_id: u64,
    /// The `X-Exq-Tenant` header as sent, if any.
    pub tenant: Option<String>,
    /// Shard that answered: the worker's own id, or (on the front) the
    /// shard the request was proxied to.
    pub shard: Option<u64>,
    /// Request method, `-` when the request never parsed.
    pub method: String,
    /// Request path with its query string, `-` when it never parsed.
    pub path: String,
    /// Routed endpoint name on a worker; the query-less path on the front.
    pub endpoint: String,
    /// Response status.
    pub status: u16,
    /// Wall-clock handling time, read to write, in nanoseconds.
    pub latency_ns: u64,
    /// Cache outcome: `"hit"`, `"miss"`, or `"-"` for uncached routes.
    pub cache: &'static str,
}

impl RequestRecord {
    /// What any tier knows about a request it answered. `request` is
    /// `None` when no request parsed. The endpoint defaults to the path
    /// without its query string; shard and cache default to unknown.
    pub fn new(
        request: Option<&Request>,
        trace_id: u64,
        status: u16,
        latency: Duration,
    ) -> RequestRecord {
        let (method, path) = request.map_or(("-", "-"), |r| (r.method.as_str(), r.path.as_str()));
        RequestRecord {
            trace_id,
            tenant: request
                .and_then(|r| r.header("x-exq-tenant"))
                .map(str::to_owned),
            shard: None,
            method: method.to_owned(),
            path: path.to_owned(),
            endpoint: path.split_once('?').map_or(path, |(p, _)| p).to_owned(),
            status,
            latency_ns: u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX),
            cache: "-",
        }
    }

    /// The record as one JSON object on one line: the `extra` members
    /// (keys with already-rendered JSON values) first, then the
    /// record's own fields.
    pub fn to_json(&self, extra: &[(&str, String)]) -> String {
        let mut out = String::from("{");
        for (key, value) in extra {
            let _ = write!(out, "\"{key}\": {value}, ");
        }
        let _ = write!(
            out,
            "\"trace_id\": {}, \"tenant\": {}, \"shard\": {}, \"method\": {}, \"path\": {}, \
             \"endpoint\": {}, \"status\": {}, \"latency_ns\": {}, \"cache\": {}}}",
            self.trace_id,
            self.tenant.as_deref().map_or("null".to_string(), json_str),
            self.shard.map_or("null".to_string(), |s| s.to_string()),
            json_str(&self.method),
            json_str(&self.path),
            json_str(&self.endpoint),
            self.status,
            self.latency_ns,
            json_str(self.cache),
        );
        out
    }
}

/// The trace id for a request: the one a client (or the router front)
/// sent in `X-Exq-Trace-Id` if it is a positive integer, else the next
/// id from `next` (the first allocated id is 1). Requests that never
/// parsed get a fresh id too, so every response carries one.
pub fn trace_id(request: Option<&Request>, next: &AtomicU64) -> u64 {
    request
        .and_then(|r| r.header("x-exq-trace-id"))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .filter(|&id| id > 0)
        .unwrap_or_else(|| next.fetch_add(1, Ordering::Relaxed) + 1)
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", escape_json(s))
}

/// A bounded FIFO of rendered records: the last [`RING_CAPACITY`]
/// lines pushed, plus a count of every push.
#[derive(Debug, Default)]
struct Ring {
    lines: VecDeque<String>,
    pushed: u64,
}

impl Ring {
    fn push(&mut self, line: String) {
        if self.lines.len() == RING_CAPACITY {
            self.lines.pop_front();
        }
        self.lines.push_back(line);
        self.pushed += 1;
    }

    /// The debug document over this ring: `capacity`, the `members`,
    /// then the lines under `list`, oldest first.
    fn to_json(&self, members: &[(&str, String)], list: &str) -> String {
        let mut out = format!("{{\n  \"capacity\": {RING_CAPACITY},\n");
        for (key, value) in members {
            let _ = writeln!(out, "  \"{key}\": {value},");
        }
        let _ = write!(out, "  \"{list}\": [");
        for (i, line) in self.lines.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            out.push_str(line);
        }
        out.push_str(if self.lines.is_empty() {
            "]\n}"
        } else {
            "\n  ]\n}"
        });
        out
    }
}

#[derive(Debug, Default)]
struct LogState {
    recent: Ring,
    retained: Ring,
    /// Per-histogram sample count and log-bucket counts, kept here so
    /// the adaptive bound never walks the global metrics sink.
    dist: BTreeMap<&'static str, (u64, Vec<u64>)>,
    /// Newest retained record per histogram: (bucket upper, trace id).
    exemplars: BTreeMap<&'static str, (u64, u64)>,
}

/// A worker's request log: the last-N ring, the retention policy with
/// its ring and JSON-lines file, and the access log, all fed by
/// [`RequestLog::record`].
#[derive(Debug)]
pub struct RequestLog {
    /// Static slow bound in nanoseconds; `None` selects the adaptive one.
    slow_ns: Option<u64>,
    retained_file: LineLog,
    access_log: LineLog,
    state: Mutex<LogState>,
}

impl RequestLog {
    /// A log with the given static slow bound (milliseconds; `None`
    /// selects the adaptive p99 bound), appending retained records to
    /// `retained_file` and every record to `access_log`.
    pub fn new(slow_ms: Option<u64>, retained_file: LineLog, access_log: LineLog) -> RequestLog {
        RequestLog {
            slow_ns: slow_ms.map(|ms| ms.saturating_mul(1_000_000)),
            retained_file,
            access_log,
            state: Mutex::new(LogState::default()),
        }
    }

    /// Feed one record to all three policies. `hist` is the latency
    /// histogram the request was observed into. Returns whether the
    /// record was retained; the caller counts `server.trace.retained`.
    pub fn record(&self, record: &RequestRecord, hist: &'static str) -> bool {
        self.access_log.record(record);
        let mut state = self.state.lock().expect("request log poisoned");
        let seq = state.recent.pushed + 1;
        state
            .recent
            .push(record.to_json(&[("seq", seq.to_string())]));
        let idx = bucket_index(record.latency_ns);
        let (count, buckets) = state.dist.entry(hist).or_default();
        if buckets.len() <= idx {
            buckets.resize(idx + 1, 0);
        }
        buckets[idx] += 1;
        *count += 1;
        // The slow bound includes the request being judged.
        let reason = if record.status >= 500 {
            "error"
        } else if is_slow(self.slow_ns, *count, buckets, record.latency_ns) {
            "slow"
        } else {
            return false;
        };
        let line = record.to_json(&[
            ("reason", json_str(reason)),
            ("hist", json_str(hist)),
            ("bucket_upper", bucket_upper(idx).to_string()),
        ]);
        state
            .exemplars
            .insert(hist, (bucket_upper(idx), record.trace_id));
        state.retained.push(line.clone());
        drop(state);
        self.retained_file.append(&line);
        true
    }

    /// The `GET /v1/debug/requests` document: the last N records, each
    /// with its `seq`.
    pub fn recent_json(&self) -> String {
        let state = self.state.lock().expect("request log poisoned");
        let recorded = [("recorded", state.recent.pushed.to_string())];
        state.recent.to_json(&recorded, "requests")
    }

    /// The `GET /v1/debug/traces` document: the retained records and
    /// the policy that kept them.
    pub fn retained_json(&self) -> String {
        let state = self.state.lock().expect("request log poisoned");
        let mut members = vec![("retained", state.retained.pushed.to_string())];
        match self.slow_ns {
            Some(ns) => {
                members.push(("policy", json_str("static")));
                members.push(("slow_ns", ns.to_string()));
            }
            None => members.push(("policy", json_str("adaptive-p99"))),
        }
        state.retained.to_json(&members, "traces")
    }

    /// The newest retained record per latency histogram.
    pub fn exemplars(&self) -> Vec<Exemplar> {
        let state = self.state.lock().expect("request log poisoned");
        state
            .exemplars
            .iter()
            .map(|(hist, &(bucket_upper, trace_id))| Exemplar {
                hist: (*hist).to_owned(),
                bucket_upper,
                trace_id,
            })
            .collect()
    }
}

/// Whether `latency_ns` clears the slow bar: the static bound if there
/// is one, else above the p99 bucket bound of the histogram's `count`
/// samples in `buckets`, once it has enough of them.
fn is_slow(slow_ns: Option<u64>, count: u64, buckets: &[u64], latency_ns: u64) -> bool {
    if let Some(slow_ns) = slow_ns {
        return latency_ns >= slow_ns;
    }
    if count < ADAPTIVE_MIN_SAMPLES {
        return false;
    }
    let rank = (count * 99).div_ceil(100);
    let mut seen = 0u64;
    for (i, c) in buckets.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return latency_ns > bucket_upper(i);
        }
    }
    false
}

/// A cheap, cloneable handle to one JSON-lines destination. The default
/// handle is disabled and writes nothing. Each line goes out in one
/// `write_all` behind a mutex, so concurrent writers never interleave
/// partial lines; an I/O error costs the line, never the request.
#[derive(Clone, Default)]
pub struct LineLog(Option<Arc<Mutex<Box<dyn std::io::Write + Send>>>>);

impl LineLog {
    /// Open `path` for appending: `-` is standard output, anything else
    /// a file created if missing.
    pub fn open(path: &Path) -> std::io::Result<LineLog> {
        let out: Box<dyn std::io::Write + Send> = if path.as_os_str() == "-" {
            Box::new(std::io::stdout())
        } else {
            Box::new(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?,
            )
        };
        Ok(LineLog(Some(Arc::new(Mutex::new(out)))))
    }

    /// The access-log policy: one line for `record`, led by the coarse
    /// wall-clock fields `ts_bucket` and `latency_bucket`.
    pub fn record(&self, record: &RequestRecord) {
        if self.0.is_some() {
            self.append(&record.to_json(&[
                ("ts_bucket", minute_bucket().to_string()),
                (
                    "latency_bucket",
                    bucket_upper(bucket_index(record.latency_ns)).to_string(),
                ),
            ]));
        }
    }

    fn append(&self, line: &str) {
        let Some(out) = &self.0 else {
            return;
        };
        let mut out = out.lock().expect("line log poisoned");
        let _ = out.write_all(format!("{line}\n").as_bytes());
        let _ = out.flush();
    }
}

impl std::fmt::Debug for LineLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LineLog")
            .field("enabled", &self.0.is_some())
            .finish()
    }
}

/// Minutes since the Unix epoch: the access log's coarse timestamp.
fn minute_bucket() -> u64 {
    // exq-lint: allow(L002): access-log timestamp bucket, never reaches explanation results
    let since_epoch = std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH);
    since_epoch.map(|d| d.as_secs() / 60).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const HIST: &str = "server.latency.explain.miss";

    fn record(trace_id: u64, path: &str, status: u16, latency_ns: u64) -> RequestRecord {
        RequestRecord {
            trace_id,
            tenant: None,
            shard: None,
            method: "POST".to_string(),
            path: path.to_string(),
            endpoint: "explain".to_string(),
            status,
            latency_ns,
            cache: "-",
        }
    }

    fn temp_file(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("exq-record-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("log.jsonl")
    }

    /// Zero the values of the wall-clock-derived keys so lines compare
    /// byte for byte.
    fn scrub(line: &str) -> String {
        let mut out = line.to_string();
        for key in [
            "\"ts_bucket\": ",
            "\"latency_bucket\": ",
            "\"latency_ns\": ",
        ] {
            if let Some(at) = out.find(key) {
                let start = at + key.len();
                let end = out[start..]
                    .find(|c: char| !c.is_ascii_digit())
                    .map_or(out.len(), |n| start + n);
                out.replace_range(start..end, "0");
            }
        }
        out
    }

    fn parse(doc: &str) -> crate::json::Json {
        crate::json::parse(doc.as_bytes()).unwrap_or_else(|e| panic!("{e}: {doc}"))
    }

    #[test]
    fn recent_ring_keeps_last_n_with_global_sequence() {
        let log = RequestLog::new(None, LineLog::default(), LineLog::default());
        let total = RING_CAPACITY as u64 + 5;
        for i in 0..total {
            log.record(&record(i + 10, &format!("/r{i}"), 200, i), HIST);
        }
        let doc = parse(&log.recent_json());
        assert_eq!(
            doc.get("recorded").and_then(|v| v.as_usize()),
            Some(total as usize)
        );
        let requests = doc.get("requests").and_then(|v| v.as_array()).unwrap();
        assert_eq!(requests.len(), RING_CAPACITY);
        assert_eq!(requests[0].get("seq").and_then(|v| v.as_usize()), Some(6));
        let last = &requests[RING_CAPACITY - 1];
        assert_eq!(
            last.get("seq").and_then(|v| v.as_usize()),
            Some(total as usize)
        );
        assert_eq!(
            last.get("path").and_then(|v| v.as_str()),
            Some(format!("/r{}", total - 1).as_str())
        );
        assert_eq!(
            last.get("trace_id").and_then(|v| v.as_usize()),
            Some(total as usize + 9)
        );
    }

    #[test]
    fn static_threshold_retains_slow_and_errors_only() {
        let log = RequestLog::new(Some(10), LineLog::default(), LineLog::default()); // 10ms
        assert!(!log.record(&record(1, "/v1/explain", 200, 9_999_999), HIST));
        assert!(log.record(&record(2, "/v1/explain", 200, 10_000_000), HIST));
        assert!(log.record(&record(3, "/v1/explain", 503, 5), HIST));
        let doc = parse(&log.retained_json());
        assert_eq!(doc.get("retained").and_then(|v| v.as_usize()), Some(2));
        assert_eq!(doc.get("policy").and_then(|v| v.as_str()), Some("static"));
        assert_eq!(
            doc.get("slow_ns").and_then(|v| v.as_usize()),
            Some(10_000_000)
        );
        let traces = doc.get("traces").and_then(|v| v.as_array()).unwrap();
        let reasons: Vec<_> = traces
            .iter()
            .map(|t| t.get("reason").and_then(|v| v.as_str()).unwrap())
            .collect();
        assert_eq!(reasons, ["slow", "error"]);
        assert_eq!(
            traces[1].get("bucket_upper").and_then(|v| v.as_usize()),
            Some(bucket_upper(bucket_index(5)) as usize)
        );
        // The exemplar is the newest retained record of the histogram.
        let exemplars = log.exemplars();
        assert_eq!(exemplars.len(), 1);
        assert_eq!(exemplars[0].trace_id, 3);
        assert_eq!(exemplars[0].bucket_upper, bucket_upper(bucket_index(5)));
    }

    #[test]
    fn adaptive_bound_arms_after_min_samples() {
        let log = RequestLog::new(None, LineLog::default(), LineLog::default());
        // A wild outlier before the bound arms is not retained.
        assert!(!log.record(&record(0, "/v1/explain", 200, u64::MAX / 2), HIST));
        // A tight distribution around ~1000ns, deep enough that the p99
        // rank falls inside it rather than at its maximum.
        for i in 0..200 {
            assert!(!log.record(&record(i + 1, "/v1/explain", 200, 1000 + i % 16), HIST));
        }
        // An outlier far above the p99 bucket bound is retained, while a
        // typical latency still is not.
        assert!(log.record(&record(999, "/v1/explain", 200, 50_000_000), HIST));
        assert!(!log.record(&record(1000, "/v1/explain", 200, 1001), HIST));
        let doc = parse(&log.retained_json());
        assert_eq!(
            doc.get("policy").and_then(|v| v.as_str()),
            Some("adaptive-p99")
        );
        let traces = doc.get("traces").and_then(|v| v.as_array()).unwrap();
        assert_eq!(traces.len(), 1);
        assert_eq!(
            traces[0].get("reason").and_then(|v| v.as_str()),
            Some("slow")
        );
    }

    #[test]
    fn retained_ring_is_bounded() {
        let log = RequestLog::new(Some(0), LineLog::default(), LineLog::default());
        for i in 0..(RING_CAPACITY as u64 + 10) {
            assert!(log.record(&record(i, "/healthz", 200, 1), HIST));
        }
        let doc = parse(&log.retained_json());
        let traces = doc.get("traces").and_then(|v| v.as_array()).unwrap();
        assert_eq!(traces.len(), RING_CAPACITY);
        assert_eq!(
            traces[0].get("trace_id").and_then(|v| v.as_usize()),
            Some(10)
        );
        assert_eq!(
            doc.get("retained").and_then(|v| v.as_usize()),
            Some(RING_CAPACITY + 10)
        );
    }

    #[test]
    fn empty_documents_and_escaped_paths_are_valid_json() {
        let log = RequestLog::new(None, LineLog::default(), LineLog::default());
        assert!(log.recent_json().contains("\"requests\": []"));
        assert!(log.retained_json().contains("\"traces\": []"));
        parse(&log.recent_json());
        parse(&log.retained_json());
        log.record(&record(1, "/x\"y", 500, 1), HIST);
        parse(&log.recent_json());
        parse(&log.retained_json());
    }

    /// The retained file and the access log carry the same record: the
    /// access line scrubbed of its wall-clock fields is byte-stable, and
    /// the retained line shares every record field with it.
    #[test]
    fn retained_file_and_access_log_write_the_same_record() {
        let retained_path = temp_file("retained");
        let access_path = temp_file("access");
        let log = RequestLog::new(
            Some(0),
            LineLog::open(&retained_path).unwrap(),
            LineLog::open(&access_path).unwrap(),
        );
        let mut tagged = record(42, "/v1/explain?x=1", 200, 1_234_567);
        tagged.tenant = Some("acme \"inc\"".to_string());
        tagged.shard = Some(1);
        tagged.cache = "miss";
        log.record(&tagged, HIST);
        let untagged = RequestRecord {
            endpoint: "/v1/datasets".to_string(),
            ..record(43, "/v1/datasets", 503, 5)
        };
        log.record(&untagged, HIST);

        let access = std::fs::read_to_string(&access_path).unwrap();
        let scrubbed: Vec<String> = access.lines().map(scrub).collect();
        assert_eq!(
            scrubbed,
            [
                concat!(
                    "{\"ts_bucket\": 0, \"latency_bucket\": 0, \"trace_id\": 42, ",
                    "\"tenant\": \"acme \\\"inc\\\"\", \"shard\": 1, \"method\": \"POST\", ",
                    "\"path\": \"/v1/explain?x=1\", \"endpoint\": \"explain\", \"status\": 200, ",
                    "\"latency_ns\": 0, \"cache\": \"miss\"}",
                ),
                concat!(
                    "{\"ts_bucket\": 0, \"latency_bucket\": 0, \"trace_id\": 43, ",
                    "\"tenant\": null, \"shard\": null, \"method\": \"POST\", ",
                    "\"path\": \"/v1/datasets\", \"endpoint\": \"/v1/datasets\", \"status\": 503, ",
                    "\"latency_ns\": 0, \"cache\": \"-\"}",
                ),
            ]
        );
        // The wall-clock fields are live: the latency bucket is the
        // histogram bucketing of the latency, the timestamp non-zero.
        let first = parse(access.lines().next().unwrap());
        assert_eq!(
            first.get("latency_bucket").and_then(|v| v.as_usize()),
            Some(bucket_upper(bucket_index(1_234_567)) as usize)
        );
        assert!(first.get("ts_bucket").and_then(|v| v.as_usize()).unwrap() > 0);

        let retained = std::fs::read_to_string(&retained_path).unwrap();
        let lines: Vec<&str> = retained.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"reason\": \"slow\", \"hist\": "));
        assert!(lines[1].starts_with("{\"reason\": \"error\", "));
        for (retained_line, access_line) in lines.iter().zip(access.lines()) {
            let record_part = |line: &str| line[line.find("\"trace_id\"").unwrap()..].to_string();
            assert_eq!(record_part(retained_line), record_part(access_line));
        }
        let _ = std::fs::remove_dir_all(retained_path.parent().unwrap());
        let _ = std::fs::remove_dir_all(access_path.parent().unwrap());
    }

    #[test]
    fn trace_ids_honor_a_sent_id_and_allocate_otherwise() {
        let next = AtomicU64::new(0);
        let request = |headers: &[(&str, &str)]| Request {
            method: "GET".to_string(),
            path: "/healthz".to_string(),
            headers: headers
                .iter()
                .map(|(n, v)| (n.to_string(), v.to_string()))
                .collect(),
            body: Vec::new(),
        };
        assert_eq!(trace_id(None, &next), 1);
        assert_eq!(
            trace_id(Some(&request(&[("x-exq-trace-id", " 77 ")])), &next),
            77
        );
        assert_eq!(
            trace_id(Some(&request(&[("x-exq-trace-id", "0")])), &next),
            2
        );
        assert_eq!(trace_id(Some(&request(&[])), &next), 3);
    }
}
