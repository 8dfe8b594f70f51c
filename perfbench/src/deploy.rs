//! Standing up the system under test in-process: the real `exq-serve`
//! server, and for routed workloads the real `exq-router` front over
//! sharded workers, each configured as `exq serve` configures it by
//! default.

use crate::client::{request_bytes, Conn};
use crate::inputs::DatasetInput;
use exq_core::prepared::PreparedDb;
use exq_obs::{MetricsSink, Snapshot};
use exq_relstore::{Database, ExecConfig};
use exq_router::{Front, FrontConfig, ShardMap};
use exq_serve::{Catalog, Dataset, Handle, ServerConfig};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Trace events each sink keeps when the traced run enables tracing.
const TRACE_RING_CAPACITY: usize = 1 << 16;

/// How the datasets are served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// One server holds every dataset; clients talk to it directly.
    Direct,
    /// A front routes to `shards` workers by consistent hash.
    Routed {
        /// Worker count.
        shards: usize,
    },
}

/// A running deployment.
pub struct Deployment {
    /// The servers: one for [`Topology::Direct`], one per shard otherwise.
    pub servers: Vec<Handle>,
    /// The front, for [`Topology::Routed`].
    pub front: Option<Front>,
    /// Each dataset's live state, in input order.
    pub datasets: Vec<Arc<Dataset>>,
    /// Each dataset's state when set-up finished (epoch 0).
    pub initial: Vec<Arc<PreparedDb>>,
    /// Index into `servers` of the server holding each dataset.
    pub owner: Vec<usize>,
}

impl Deployment {
    /// Where clients send requests: the front if there is one.
    pub fn entry(&self) -> SocketAddr {
        match &self.front {
            Some(front) => front.addr(),
            None => self.servers[0].addr(),
        }
    }

    /// The server that holds dataset `i`.
    pub fn direct(&self, i: usize) -> SocketAddr {
        self.servers[self.owner[i]].addr()
    }

    /// Stop everything; returns the servers' final snapshots and the
    /// front's, if any.
    pub fn shutdown(self) -> (Vec<Snapshot>, Option<Snapshot>) {
        let front = self.front.map(Front::shutdown);
        let servers = self.servers.into_iter().map(Handle::shutdown).collect();
        (servers, front)
    }
}

fn server_sink(traced: bool) -> MetricsSink {
    let sink = MetricsSink::recording();
    if traced {
        sink.enable_tracing(TRACE_RING_CAPACITY);
    }
    sink
}

fn start_server(
    inputs: &[DatasetInput],
    dbs: &mut [Option<Database>],
    members: &[usize],
    shard: Option<u64>,
    traced: bool,
    datasets: &mut [Option<Arc<Dataset>>],
) -> std::io::Result<Handle> {
    let mut catalog = Catalog::new();
    for &i in members {
        let db = dbs[i].take().expect("each dataset is served once");
        catalog
            .insert_database(&inputs[i].name, Arc::new(db), &ExecConfig::auto())
            .map_err(std::io::Error::other)?;
        datasets[i] = catalog.get(&inputs[i].name);
    }
    exq_serve::start(
        catalog,
        ServerConfig {
            shard_id: shard,
            ..ServerConfig::default()
        },
        server_sink(traced),
    )
}

/// Stand the workload up and time it: from the tables being in memory
/// to the first answered request (`GET /v1/datasets`, which through a
/// front reaches every worker). Returns the deployment and that time.
pub fn deploy(
    inputs: &[DatasetInput],
    topology: Topology,
    traced: bool,
) -> std::io::Result<(Deployment, Duration)> {
    // Fresh copies whose column stores are not built yet, made before
    // the clock starts.
    let mut dbs: Vec<Option<Database>> = inputs.iter().map(|d| Some(d.db.clone())).collect();
    let mut datasets: Vec<Option<Arc<Dataset>>> = vec![None; inputs.len()];
    let started = Instant::now();
    let (servers, front, owner) = match topology {
        Topology::Direct => {
            let all: Vec<usize> = (0..inputs.len()).collect();
            let server = start_server(inputs, &mut dbs, &all, None, traced, &mut datasets)?;
            (vec![server], None, vec![0; inputs.len()])
        }
        Topology::Routed { shards } => {
            let names: Vec<String> = inputs.iter().map(|d| d.name.clone()).collect();
            let front = Front::start_on(
                "127.0.0.1:0",
                FrontConfig {
                    workers: shards,
                    // As `exq serve --router`: one pooled connection per
                    // worker thread.
                    per_worker_connections: ServerConfig::default().threads,
                    datasets: names.clone(),
                    ..FrontConfig::default()
                },
                server_sink(traced),
            )?;
            let map = ShardMap::new(shards);
            let mut servers = Vec::with_capacity(shards);
            let mut owner = vec![0; inputs.len()];
            for shard in 0..shards {
                let members: Vec<usize> = (0..inputs.len())
                    .filter(|&i| map.shard_of(&names[i]) == shard)
                    .collect();
                for &i in &members {
                    owner[i] = shard;
                }
                let server = start_server(
                    inputs,
                    &mut dbs,
                    &members,
                    Some(shard as u64),
                    traced,
                    &mut datasets,
                )?;
                front.upstreams().set_addr(shard, Some(server.addr()));
                servers.push(server);
            }
            (servers, Some(front), owner)
        }
    };
    let datasets: Vec<Arc<Dataset>> = datasets
        .into_iter()
        .map(|d| d.expect("every dataset is served"))
        .collect();
    let deployment = Deployment {
        initial: datasets.iter().map(|d| d.snapshot().0).collect(),
        servers,
        front,
        datasets,
        owner,
    };
    let reply = Conn::new(deployment.entry()).send(&request_bytes("GET", "/v1/datasets", b""))?;
    let elapsed = started.elapsed();
    if reply.status != 200 {
        deployment.shutdown();
        return Err(std::io::Error::other(format!(
            "first request answered {}",
            reply.status
        )));
    }
    Ok((deployment, elapsed))
}
