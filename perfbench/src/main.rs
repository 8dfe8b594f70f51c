//! `exq-perfbench`: the repository's benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload natality-cold --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Stands the real `exq-serve` server (and for `dblp-routed` the real
//! `exq-router` front) up in-process on inputs made from `--seed`,
//! drives it from closed-loop clients for `--seconds`, checks every
//! checked answer, and prints one metric per line followed by a JSON
//! summary as the last line. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` runs the traced variant and reports the
//! per-layer ones. Exits 1 when an answer is wrong, 2 on bad usage.
//! `--setups-only 1` only times set-ups; the untraced run starts itself
//! that way to sample set-up time in more than one process.
//! `perfbench/README.md` describes the workloads and metrics.

mod check;
mod client;
mod deploy;
mod drive;
mod inputs;
mod layers;
mod stats;
mod workloads;

use drive::{Class, Sample};
use stats::{median, peak_rss_mb, quantile};
use std::process::ExitCode;
use workloads::Workload;

/// Timed loops per run. Each runs `--seconds / ROUNDS` on a fresh
/// deployment and the run pools their requests: how fast a fresh
/// server happens to run varies from one deployment to the next by more
/// than it varies within one, so several short loops give a steadier
/// figure than one long loop.
pub const ROUNDS: usize = 8;
/// Extra processes that only time set-ups. How long one process's
/// set-ups take is bimodal on the 2-vCPU reference machine: depending on
/// where the scheduler puts the executor's threads for the life of the
/// process, `dblp-routed` sets up in about 8 or about 14 ms. So `setup_s`
/// is the mean, over this process and the extra ones, of each process's
/// median set-up time: a median of a few such values flips between the
/// modes.
const SETUP_PROCESSES: usize = 3;
/// Set-ups an extra process times: at least `CHILD_SETUPS_MIN`, then more
/// while all of them took under `CHILD_SETUP_BUDGET_S`, at most
/// `CHILD_SETUPS_MAX`.
const CHILD_SETUPS_MIN: usize = 3;
const CHILD_SETUPS_MAX: usize = 16;
const CHILD_SETUP_BUDGET_S: f64 = 0.5;

/// One reported number.
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// The value.
    pub value: f64,
    /// How many observations it summarizes.
    pub samples: usize,
}

impl Metric {
    /// A metric over `samples` observations.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            samples,
        }
    }
}

/// What one run reports.
pub struct Outcome {
    /// Metrics for the JSON summary.
    pub metrics: Vec<Metric>,
    /// Metrics printed for the reader only (not every workload has them).
    pub notes: Vec<Metric>,
    /// Requests the timed loop sent.
    pub attempted: usize,
    /// Failed requests (non-200, refused, transport errors) plus wrong
    /// answers.
    pub failed: usize,
    /// What went wrong, one line each.
    pub failures: Vec<String>,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Time set-ups only (an extra process of [`end_to_end`]).
    setups_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setups_only = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            "--setups-only" => setups_only = value == "1",
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        setups_only,
    })
}

/// Latencies in ms of the completed samples `keep` selects.
fn latencies(samples: &[Sample], keep: impl Fn(&Sample) -> bool) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.ok() && keep(s))
        .map(Sample::ms)
        .collect()
}

/// Push p50 and p95 of `values` as `{prefix}_p50_ms` / `_p95_ms`.
fn push_percentiles(out: &mut Vec<Metric>, prefix: &str, values: &[f64]) {
    for (q, tag) in [(0.5, "p50"), (0.95, "p95")] {
        if let Some(v) = quantile(values, q) {
            out.push(Metric::new(
                format!("{prefix}_{tag}_ms"),
                "ms",
                v,
                values.len(),
            ));
        }
    }
}

/// One round: a fresh deployment, a timed loop of `seconds`, the checks.
pub struct Round {
    /// The deployment, still running.
    pub deployment: deploy::Deployment,
    /// Its set-up time.
    pub setup: f64,
    /// The loop.
    pub result: drive::LoopResult,
    /// Wrong answers the checks found.
    pub failures: Vec<String>,
}

/// Run round `index` of `workload`.
pub fn round(
    workload: Workload,
    inputs: &[inputs::DatasetInput],
    seed: u64,
    index: usize,
    seconds: f64,
    traced: bool,
) -> Result<Round, String> {
    let (deployment, setup) =
        deploy::deploy(inputs, workload.topology(), traced).map_err(|e| format!("set-up: {e}"))?;
    let seed = stats::Rng::mix(seed, index as u64);
    let schedule = workload.schedule(inputs, seed);
    let result = drive::run(
        &*schedule,
        inputs,
        deployment.entry(),
        seconds,
        seed,
        traced,
    );
    let failures = check::run(workload, &deployment, inputs, &result.samples);
    Ok(Round {
        deployment,
        setup: setup.as_secs_f64(),
        result,
        failures,
    })
}

/// The untraced run: [`ROUNDS`] rounds, then set-ups alone in
/// [`SETUP_PROCESSES`] extra processes.
fn end_to_end(workload: Workload, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let inputs = workload.inputs(seed, seconds);
    let mut setups = Vec::new();
    let mut samples = Vec::new();
    let mut loop_s = 0.0;
    let mut failures = Vec::new();
    for index in 0..ROUNDS {
        let r = round(
            workload,
            &inputs,
            seed,
            index,
            seconds as f64 / ROUNDS as f64,
            false,
        )?;
        r.deployment.shutdown();
        setups.push(r.setup);
        samples.extend(r.result.samples);
        loop_s += r.result.elapsed.as_secs_f64();
        failures.extend(r.failures);
    }
    let mut medians = vec![median(&setups).expect("rounds ran")];
    for _ in 0..SETUP_PROCESSES {
        let times = child_setups(workload, seed, seconds)?;
        medians.push(median(&times).ok_or("a set-up process timed nothing")?);
        setups.extend(times);
    }
    let rss = peak_rss_mb().ok_or("cannot read peak resident memory")?;

    let samples = &samples;
    let completed = samples.iter().filter(|s| s.ok()).count();
    let errors = samples.len() - completed;
    let of = |class: Class| latencies(samples, |s| s.class() == Some(class));
    let all = latencies(samples, |_| true);

    let mut metrics = vec![
        Metric::new(
            "setup_s",
            "s",
            medians.iter().sum::<f64>() / medians.len() as f64,
            setups.len(),
        ),
        Metric::new(
            "throughput_rps",
            "1/s",
            completed as f64 / loop_s,
            completed,
        ),
    ];
    push_percentiles(&mut metrics, "request", &all);
    push_percentiles(&mut metrics, "explain_miss", &of(Class::Miss));
    metrics.push(Metric::new("peak_rss_mb", "MiB", rss, 1));

    let mut notes = Vec::new();
    push_percentiles(&mut notes, "explain_hit", &of(Class::Hit));
    let appends = of(Class::Append);
    push_percentiles(&mut notes, "append", &appends);
    if !appends.is_empty() {
        let rows: usize = samples
            .iter()
            .filter(|s| s.class() == Some(Class::Append))
            .map(|s| match s.op.kind {
                drive::OpKind::Append { batch } => inputs[s.op.dataset].held[batch].row_count,
                drive::OpKind::Explain(_) => 0,
            })
            .sum();
        notes.push(Metric::new(
            "ingest_rows_per_s",
            "1/s",
            rows as f64 / loop_s,
            rows,
        ));
    }
    let failed = errors + failures.len();
    notes.push(Metric::new(
        "error_rate",
        "ratio",
        failed as f64 / samples.len().max(1) as f64,
        samples.len(),
    ));
    Ok(Outcome {
        metrics,
        notes,
        attempted: samples.len(),
        failed,
        failures,
    })
}

/// Set-up times of a fresh deployment, in seconds, as an extra set-up
/// process measures them.
fn setup_times(workload: Workload, seed: u64, seconds: u64) -> Result<Vec<f64>, String> {
    let inputs = workload.inputs(seed, seconds);
    let mut times = Vec::new();
    while times.len() < CHILD_SETUPS_MAX
        && (times.len() < CHILD_SETUPS_MIN || times.iter().sum::<f64>() < CHILD_SETUP_BUDGET_S)
    {
        let (deployment, t) = deploy::deploy(&inputs, workload.topology(), false)
            .map_err(|e| format!("set-up: {e}"))?;
        deployment.shutdown();
        times.push(t.as_secs_f64());
    }
    Ok(times)
}

/// Run this program again with `--setups-only 1`, wait for it, and
/// return the set-up times it printed.
fn child_setups(workload: Workload, seed: u64, seconds: u64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("set-up process: {e}"))?;
    let output = std::process::Command::new(exe)
        .args([
            "--workload",
            workload.name(),
            "--trace",
            "0",
            "--setups-only",
            "1",
        ])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .output()
        .map_err(|e| format!("set-up process: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let times = stdout
        .lines()
        .last()
        .and_then(|line| line.strip_prefix("setups "))
        .filter(|_| output.status.success())
        .ok_or_else(|| {
            format!(
                "set-up process failed: {}",
                String::from_utf8_lossy(&output.stderr).trim()
            )
        })?;
    times
        .split_whitespace()
        .map(|t| t.parse::<f64>().map_err(|e| format!("set-up process: {e}")))
        .collect()
}

/// The machine fingerprint printed with every result.
fn fingerprint(seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "fingerprint: nproc={nproc} rustc=\"{}\" profile={} seed={seed}",
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE")
    )
}

fn json_summary(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failures.is_empty(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: exq-perfbench --workload <natality-cold|dblp-routed|geodblp-ingest> \
                 --seed N --seconds N --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    if args.setups_only {
        return match setup_times(args.workload, args.seed, args.seconds) {
            Ok(times) => {
                let times: Vec<String> = times.iter().map(f64::to_string).collect();
                println!("setups {}", times.join(" "));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let ran = if args.trace {
        layers::traced(args.workload, args.seed, args.seconds)
    } else {
        end_to_end(args.workload, args.seed, args.seconds)
    };
    let outcome = match ran {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if outcome.metrics.iter().any(|m| !m.value.is_finite()) {
        eprintln!("error: a metric is not a finite number");
        return ExitCode::FAILURE;
    }
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("{}", fingerprint(args.seed));
    for m in outcome.metrics.iter().chain(&outcome.notes) {
        println!("{} = {} {} (n={})", m.name, m.value, m.unit, m.samples);
    }
    for failure in &outcome.failures {
        println!("MISMATCH {failure}");
    }
    println!("{}", json_summary(&outcome));
    if outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
