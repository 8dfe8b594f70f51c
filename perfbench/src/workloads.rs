//! The three workloads: what each serves, how, and what its clients ask.
//! See `perfbench/README.md` for why each exists and which layers it
//! loads and bypasses.

use crate::deploy::Topology;
use crate::drive::{Op, OpKind, Schedule};
use crate::inputs::{self, DatasetInput, ExplainSpec};
use crate::stats::Rng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Client threads per loop (`nproc` on the reference machine).
pub const CLIENTS: usize = 2;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Distinct cold explains on one 200k-row natality relation.
    NatalityCold,
    /// A hit/miss/append mix over four DBLP datasets behind a front.
    DblpRouted,
    /// Live appends racing Figure 15 explains on Geo-DBLP (run by hand,
    /// not gated: see `perfbench/README.md`).
    GeoDblpIngest,
}

impl Workload {
    /// Every workload `--workload` accepts.
    pub const ALL: [Workload; 3] = [
        Workload::NatalityCold,
        Workload::DblpRouted,
        Workload::GeoDblpIngest,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NatalityCold => "natality-cold",
            Workload::DblpRouted => "dblp-routed",
            Workload::GeoDblpIngest => "geodblp-ingest",
        }
    }

    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// How the workload's datasets are served.
    pub fn topology(self) -> Topology {
        match self {
            Workload::DblpRouted => Topology::Routed {
                shards: inputs::DBLP_SHARDS,
            },
            _ => Topology::Direct,
        }
    }

    /// The workload's datasets for a run of `seconds`, made from `seed`.
    pub fn inputs(self, seed: u64, seconds: u64) -> Vec<DatasetInput> {
        match self {
            Workload::NatalityCold => inputs::natality(seed),
            Workload::DblpRouted => inputs::dblp(seed),
            Workload::GeoDblpIngest => {
                inputs::geodblp(seed, seconds.div_ceil(crate::ROUNDS as u64))
            }
        }
    }

    /// A fresh schedule over `inputs`.
    pub fn schedule(self, inputs: &[DatasetInput], seed: u64) -> Box<dyn Schedule> {
        match self {
            Workload::NatalityCold => Box::new(NatalityCold::new(seed)),
            Workload::DblpRouted => Box::new(DblpRouted::new(inputs, seed)),
            Workload::GeoDblpIngest => Box::new(GeoDblpIngest::new(inputs)),
        }
    }
}

/// Every request is a distinct `/v1/explain`: a question (`Q_Race`,
/// `Q_Marital`, `Q'_Race`) × an attribute subset of size 3-6 of the
/// eight natality dimensions × a `top` of 1-30. Keys fall into twelve
/// strata (question × subset size) whose costs differ tenfold; requests
/// take the strata in turn, in a seeded order, and within a stratum the
/// keys in a seeded order, so every stretch of twelve requests has the
/// same mix. The shared cursor hands each key out once, so every
/// request misses.
pub struct NatalityCold {
    strata: Vec<Vec<(usize, u8, usize)>>,
    cursor: AtomicUsize,
}

impl NatalityCold {
    fn new(seed: u64) -> NatalityCold {
        let mut rng = Rng::new(Rng::mix(seed, 3));
        let mut strata = Vec::new();
        for question in 0..inputs::NAT_QUESTIONS.len() {
            for size in 3..=6 {
                let mut keys = Vec::new();
                for mask in 0..=u8::MAX {
                    if mask.count_ones() == size {
                        for top in 1..=inputs::NAT_TOPS {
                            keys.push((question, mask, top));
                        }
                    }
                }
                rng.shuffle(&mut keys);
                strata.push(keys);
            }
        }
        rng.shuffle(&mut strata);
        NatalityCold {
            strata,
            cursor: AtomicUsize::new(0),
        }
    }
}

impl Schedule for NatalityCold {
    fn clients(&self) -> usize {
        CLIENTS
    }

    fn next(&self, _client: usize, _rng: &mut Rng) -> Option<Op> {
        let n = self.cursor.fetch_add(1, Ordering::Relaxed);
        let stratum = &self.strata[n % self.strata.len()];
        let &(question, mask, top) = stratum.get(n / self.strata.len())?;
        let attrs = inputs::NAT_DIMS
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, d)| format!("Natality.{d}"))
            .collect();
        Some(Op {
            dataset: 0,
            kind: OpKind::Explain(ExplainSpec {
                question: inputs::NAT_QUESTIONS[question],
                attrs,
                top,
                aggr: false,
            }),
        })
    }
}

/// Requests per cycle of the routed mix, and of them the hot-set
/// repeats and fresh misses; the rest are appends.
const CYCLE: usize = 20;
const HOT_PER_CYCLE: usize = 14;
const MISS_PER_CYCLE: usize = 5;
/// One miss in this many asks the naive-engine question.
const NAIVE_EVERY: usize = 4;

/// What a routed request does.
#[derive(Clone, Copy)]
enum Mix {
    Hot,
    Miss,
    Append,
}

/// A read-heavy mix over the DBLP datasets. Every cycle of 20 requests
/// holds, in a seeded order, 14 repeats of a hot set of two keys per
/// dataset (the bump question and its `COUNT(*)` variant, ranked by
/// aggravation; 70%), 5 misses (25%) and 1 append (5%). Of every four
/// misses three ask the bump question (cube path) and one its `COUNT(*)`
/// variant (naive engine), so the miss median sits inside the cube mode
/// and the tail inside the naive one rather than on the edge between
/// them. Misses take the four datasets in turn, with a `top` cycling
/// 1-16 per dataset and question, so a key recurs only after 16 misses
/// on it; appends take the datasets in turn, each appending its next
/// held-back publication. An epoch bump invalidates the dataset's hot
/// keys, so the next repeat of each misses once.
pub struct DblpRouted {
    pattern: Vec<Mix>,
    held: Vec<usize>,
    cursor: AtomicUsize,
    misses: AtomicUsize,
    appends: AtomicUsize,
    appended: Vec<AtomicUsize>,
}

impl DblpRouted {
    fn new(inputs: &[DatasetInput], seed: u64) -> DblpRouted {
        let mut pattern: Vec<Mix> = (0..CYCLE)
            .map(|i| match i {
                i if i < HOT_PER_CYCLE => Mix::Hot,
                i if i < HOT_PER_CYCLE + MISS_PER_CYCLE => Mix::Miss,
                _ => Mix::Append,
            })
            .collect();
        Rng::new(Rng::mix(seed, 4)).shuffle(&mut pattern);
        DblpRouted {
            pattern,
            held: inputs.iter().map(|d| d.held.len()).collect(),
            cursor: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            appends: AtomicUsize::new(0),
            appended: inputs.iter().map(|_| AtomicUsize::new(0)).collect(),
        }
    }

    /// The hot key of `question` (on every dataset).
    pub fn hot(question: usize) -> ExplainSpec {
        ExplainSpec {
            question: inputs::DBLP_QUESTIONS[question],
            attrs: inputs::DBLP_DIMS.iter().map(|s| s.to_string()).collect(),
            top: 5,
            aggr: true,
        }
    }

    fn hot_op(&self, rng: &mut Rng) -> Op {
        Op {
            dataset: rng.below(self.held.len()),
            kind: OpKind::Explain(DblpRouted::hot(rng.below(inputs::DBLP_QUESTIONS.len()))),
        }
    }
}

impl Schedule for DblpRouted {
    fn clients(&self) -> usize {
        CLIENTS
    }

    fn next(&self, _client: usize, rng: &mut Rng) -> Option<Op> {
        let n = self.cursor.fetch_add(1, Ordering::Relaxed);
        Some(match self.pattern[n % CYCLE] {
            Mix::Hot => self.hot_op(rng),
            Mix::Miss => {
                let m = self.misses.fetch_add(1, Ordering::Relaxed);
                let question = usize::from(m % NAIVE_EVERY == NAIVE_EVERY - 1);
                let dataset = m % self.held.len();
                let round = m / (NAIVE_EVERY * self.held.len());
                Op {
                    dataset,
                    kind: OpKind::Explain(ExplainSpec {
                        top: 1 + round % inputs::DBLP_TOPS,
                        aggr: false,
                        ..DblpRouted::hot(question)
                    }),
                }
            }
            Mix::Append => {
                let dataset = self.appends.fetch_add(1, Ordering::Relaxed) % self.held.len();
                let batch = self.appended[dataset].fetch_add(1, Ordering::Relaxed);
                if batch < self.held[dataset] {
                    Op {
                        dataset,
                        kind: OpKind::Append { batch },
                    }
                } else {
                    self.hot_op(rng)
                }
            }
        })
    }
}

/// Client 0 streams the held-back batches in order, taking
/// [`APPEND_THINK`] to assemble each next batch after an acknowledgement;
/// client 1 asks the Figure 15 question with a `top` cycling 1-10, so
/// its first request after each epoch bump misses.
pub struct GeoDblpIngest {
    held: usize,
    appended: AtomicUsize,
    explains: AtomicUsize,
}

impl GeoDblpIngest {
    fn new(inputs: &[DatasetInput]) -> GeoDblpIngest {
        GeoDblpIngest {
            held: inputs[0].held.len(),
            appended: AtomicUsize::new(0),
            explains: AtomicUsize::new(0),
        }
    }

    /// The Figure 15 explain with `top`.
    pub fn explain(top: usize) -> ExplainSpec {
        ExplainSpec {
            question: inputs::GEO_QUESTION,
            attrs: inputs::GEO_DIMS.iter().map(|s| s.to_string()).collect(),
            top,
            aggr: false,
        }
    }
}

/// The appender's pause between an acknowledgement and its next batch.
/// Without it the next append takes the write lock within microseconds
/// of the last one releasing it, and whether a woken explain gets its
/// snapshot first or waits out a second append is a scheduling coin
/// toss; the explain tail then jumps between one and two append times
/// from run to run.
pub const APPEND_THINK: Duration = Duration::from_millis(2);

impl Schedule for GeoDblpIngest {
    fn clients(&self) -> usize {
        CLIENTS
    }

    fn think(&self, client: usize) -> Duration {
        if client == 0 {
            APPEND_THINK
        } else {
            Duration::ZERO
        }
    }

    fn next(&self, client: usize, _rng: &mut Rng) -> Option<Op> {
        let kind = if client == 0 {
            let batch = self.appended.fetch_add(1, Ordering::Relaxed);
            if batch >= self.held {
                return None;
            }
            OpKind::Append { batch }
        } else {
            let n = self.explains.fetch_add(1, Ordering::Relaxed);
            OpKind::Explain(GeoDblpIngest::explain(1 + n % inputs::GEO_TOPS))
        };
        Some(Op { dataset: 0, kind })
    }
}
