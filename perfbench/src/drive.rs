//! The closed-loop load generator: each client thread holds one
//! keep-alive connection and sends its next request only once the
//! previous reply has fully arrived.

use crate::client::{request_bytes, Conn, Reply};
use crate::inputs::{DatasetInput, ExplainSpec};
use crate::stats::Rng;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// What a request does.
#[derive(Clone, Debug)]
pub enum OpKind {
    /// `POST /v1/explain`.
    Explain(ExplainSpec),
    /// `POST /v1/datasets/{name}/rows` with held-back batch `batch`.
    Append {
        /// Index into the dataset's held-back batches.
        batch: usize,
    },
}

/// One request of a schedule.
#[derive(Clone, Debug)]
pub struct Op {
    /// Index into the workload's datasets.
    pub dataset: usize,
    /// The request.
    pub kind: OpKind,
}

impl Op {
    /// The complete request bytes.
    pub fn bytes(&self, inputs: &[DatasetInput]) -> Vec<u8> {
        let dataset = &inputs[self.dataset];
        match &self.kind {
            OpKind::Explain(spec) => {
                request_bytes("POST", "/v1/explain", spec.body(&dataset.name).as_bytes())
            }
            OpKind::Append { batch } => request_bytes(
                "POST",
                &format!("/v1/datasets/{}/rows", dataset.name),
                dataset.held[*batch].body.as_bytes(),
            ),
        }
    }
}

/// Where each client's next request comes from. Implementations are
/// deterministic given the seed and the order requests are drawn in.
pub trait Schedule: Sync {
    /// Client threads (at most `nproc`).
    fn clients(&self) -> usize;
    /// Client `client`'s next request, or `None` when it has no more.
    fn next(&self, client: usize, rng: &mut Rng) -> Option<Op>;
    /// How long client `client` waits after a reply before drawing its
    /// next request (not part of any latency).
    fn think(&self, _client: usize) -> Duration {
        Duration::ZERO
    }
}

/// How a reply was served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// An explain answered from the result cache.
    Hit,
    /// An explain computed afresh.
    Miss,
    /// An append.
    Append,
}

/// One request as the client saw it.
#[derive(Debug)]
pub struct Sample {
    /// The client that sent it.
    pub client: usize,
    /// What was sent.
    pub op: Op,
    /// When it was sent, from the start of the loop.
    pub sent: Duration,
    /// Send to last byte of the reply.
    pub latency: Duration,
    /// The reply, or `None` on a transport error.
    pub reply: Option<Reply>,
    /// The exact request bytes (kept in traced runs).
    pub request: Option<Vec<u8>>,
}

impl Sample {
    /// Whether the request completed with `200`.
    pub fn ok(&self) -> bool {
        self.reply.as_ref().is_some_and(|r| r.status == 200)
    }

    /// The class of a completed request.
    pub fn class(&self) -> Option<Class> {
        let reply = self.reply.as_ref().filter(|r| r.status == 200)?;
        match self.op.kind {
            OpKind::Append { .. } => Some(Class::Append),
            OpKind::Explain(_) => match reply.cost("cache") {
                Some("hit") => Some(Class::Hit),
                Some("miss") => Some(Class::Miss),
                _ => None,
            },
        }
    }

    /// The dataset epoch the reply reports.
    pub fn epoch(&self) -> Option<u64> {
        let reply = self.reply.as_ref()?;
        match self.op.kind {
            OpKind::Append { .. } => reply.header("x-exq-epoch")?.parse().ok(),
            OpKind::Explain(_) => reply.cost("epoch")?.parse().ok(),
        }
    }

    /// Latency in milliseconds.
    pub fn ms(&self) -> f64 {
        self.latency.as_secs_f64() * 1e3
    }
}

/// The outcome of one timed loop.
pub struct LoopResult {
    /// Every request sent, in no particular order.
    pub samples: Vec<Sample>,
    /// When the loop started.
    pub started: Instant,
    /// From the start of the loop until the last client finished.
    pub elapsed: Duration,
}

/// Keep one explain reply body in this many in untraced runs (enough
/// for the correctness checks; traced runs keep them all).
const KEEP_EVERY: usize = 8;

/// Run `schedule` against `entry` for `seconds`: one thread per client,
/// each drawing from its own seeded generator.
pub fn run(
    schedule: &dyn Schedule,
    inputs: &[DatasetInput],
    entry: SocketAddr,
    seconds: f64,
    seed: u64,
    traced: bool,
) -> LoopResult {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let samples = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..schedule.clients())
            .map(|client| {
                scope.spawn(move || {
                    let mut rng = Rng::new(Rng::mix(seed, 1000 + client as u64));
                    let mut conn = Conn::new(entry);
                    let mut samples = Vec::new();
                    let mut explains = 0usize;
                    while Instant::now() < deadline {
                        if !samples.is_empty() {
                            std::thread::sleep(schedule.think(client));
                        }
                        let Some(op) = schedule.next(client, &mut rng) else {
                            break;
                        };
                        let bytes = op.bytes(inputs);
                        let sent = Instant::now();
                        let reply = conn.send(&bytes).ok();
                        let latency = sent.elapsed();
                        let keep_body = match op.kind {
                            OpKind::Explain(_) => {
                                explains += 1;
                                traced || explains % KEEP_EVERY == 1
                            }
                            OpKind::Append { .. } => true,
                        };
                        let reply = reply.map(|mut r| {
                            if !keep_body {
                                r.body = Vec::new();
                            }
                            r
                        });
                        samples.push(Sample {
                            client,
                            op,
                            sent: sent - start,
                            latency,
                            reply,
                            request: traced.then_some(bytes),
                        });
                    }
                    samples
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    LoopResult {
        samples,
        started: start,
        elapsed: start.elapsed(),
    }
}
