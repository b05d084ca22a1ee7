//! dcfail-perfbench — the end-to-end and per-layer benchmark of the dcfail
//! workspace, driving its public API from the outside.
//!
//! ```text
//! perfbench --workload <report-batch|stream-replay|serve-mixed|shard-resume>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the named workload is set up several times (the median
//! is `setup_s`), then its timed part runs with the benchmark's tracing off
//! and reports the end-to-end metrics. With `--trace 1` every workload's
//! traced pass runs once, timing each layer call from outside, and reports
//! the per-layer metrics; the span trees go to `perfbench/out/`.
//!
//! The last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Any failed correctness gate makes the process
//! exit 1; bad arguments exit 2. See `perfbench/README.md`.

mod report_batch;
mod serve_mixed;
mod shard_resume;
mod stream_replay;
mod trace;
mod util;

use dcfail_report::{run_all, RunConfig};
use dcfail_stream::{figure_digest, StreamConfig, StreamEngine};
use dcfail_synth::feed::dataset_feed;
use dcfail_synth::Scenario;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use util::{Metrics, Tally};

const USAGE: &str = "usage: perfbench --workload <report-batch|stream-replay|serve-mixed|\
shard-resume> --seed <n> --seconds <s> --trace <0|1>";

/// Set-up repetitions per timed run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Golden digests at seed 42, scale 0.02: all 24 registry reports
/// (`tests/golden_report.rs`) and the streamed figures
/// (`tests/golden_stream.rs`).
const PIN_REPORT: u64 = 0x58aa_c896_6164_c50b;
const PIN_STREAM: u64 = 0x1a1e_6e0e_4154_03cf;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    ReportBatch,
    StreamReplay,
    ServeMixed,
    ShardResume,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "report-batch" => Some(Self::ReportBatch),
            "stream-replay" => Some(Self::StreamReplay),
            "serve-mixed" => Some(Self::ServeMixed),
            "shard-resume" => Some(Self::ShardResume),
            _ => None,
        }
    }

    const fn name(self) -> &'static str {
        match self {
            Self::ReportBatch => "report-batch",
            Self::StreamReplay => "stream-replay",
            Self::ServeMixed => "serve-mixed",
            Self::ShardResume => "shard-resume",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s >= 1)
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The seed-42 scale-0.02 pins: if the program's report or stream bytes
/// moved, no timing it produces is comparable with the parent's.
fn check_pins(tally: &mut Tally) {
    let dataset = Scenario::paper()
        .seed(42)
        .scale(0.02)
        .build()
        .into_dataset();
    let reports: Vec<_> = run_all(&dataset, &RunConfig::default())
        .into_iter()
        .map(|(id, rendered)| (id.key(), rendered))
        .collect();
    let report = figure_digest(&reports);
    tally.check(report == PIN_REPORT, || {
        format!("report pin {report:#018x} != {PIN_REPORT:#018x}")
    });
    let mut engine = StreamEngine::new(dataset.horizon(), StreamConfig::default());
    let mut late = 0u64;
    for event in dataset_feed(&dataset) {
        late += u64::from(engine.ingest(event).is_err());
    }
    let stream = engine.finish().digest();
    tally.check(late == 0 && stream == PIN_STREAM, || {
        format!("stream pin {stream:#018x} != {PIN_STREAM:#018x} ({late} late)")
    });
}

/// The timed part's end-to-end figures, named alike for every workload.
pub struct Timed {
    /// Median wall time of one unit of the workload's work, ms.
    pub unit_ms: f64,
    /// Work items completed per second of the timed part.
    pub throughput_per_s: f64,
    /// Every unit's wall time, ms (summarised on stderr).
    pub units: Vec<f64>,
    /// Median over the timed units of the peak resident memory while each
    /// ran, MiB (see [`util::unit`]).
    pub peak_rss_mb: f64,
}

/// Sets up `SETUP_REPS` times (pins included), keeps the last set-up, runs
/// the timed part on it and collects the end-to-end metrics.
fn timed<S>(
    tally: &mut Tally,
    mut setup: impl FnMut(&mut Tally) -> S,
    run: impl FnOnce(S, &mut Tally) -> Timed,
) -> Metrics {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        // Tearing down the previous set-up is not set-up time.
        drop(prepared.take());
        let start = Instant::now();
        check_pins(tally);
        prepared = Some(setup(tally));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let prepared = prepared.expect("SETUP_REPS >= 1");
    let t = run(prepared, tally);
    eprintln!(
        "perfbench: {} units, ms min {:.3} q1 {:.3} median {:.3} q3 {:.3} max {:.3}",
        t.units.len(),
        util::quantile(&t.units, 0.0),
        util::quantile(&t.units, 0.25),
        t.unit_ms,
        util::quantile(&t.units, 0.75),
        util::quantile(&t.units, 1.0)
    );
    let mut metrics = Metrics::default();
    metrics.put("unit_ms", t.unit_ms, "ms");
    metrics.put("throughput_per_s", t.throughput_per_s, "1/s");
    metrics.put("setup_s", util::median(&setup_s), "s");
    metrics.put("peak_rss_mb", t.peak_rss_mb, "MiB");
    metrics
}

fn run_timed(args: &Args, tally: &mut Tally) -> Metrics {
    let (seed, seconds) = (args.seed, args.seconds);
    match args.workload {
        Workload::ReportBatch => timed(
            tally,
            |t| report_batch::setup(seed, t),
            |s, t| report_batch::run(s, seed, seconds, t),
        ),
        Workload::StreamReplay => timed(
            tally,
            |t| stream_replay::setup(seed, t),
            |s, t| stream_replay::run(&s, seconds, t),
        ),
        Workload::ServeMixed => timed(
            tally,
            |t| serve_mixed::setup(seed, t),
            |s, t| serve_mixed::run(s, seed, seconds, t),
        ),
        Workload::ShardResume => timed(
            tally,
            |t| shard_resume::setup(seed, t),
            |s, t| shard_resume::run(&s, seed, seconds, t),
        ),
    }
}

/// Runs every workload's traced pass (the named one included), so each
/// trace run reports the full per-layer set, and writes the span trees.
fn run_traced(args: &Args, tally: &mut Tally) -> Metrics {
    check_pins(tally);
    let mut tracer = Tracer::new();
    report_batch::trace(args.seed, &mut tracer, tally);
    stream_replay::trace(args.seed, &mut tracer, tally);
    serve_mixed::trace(args.seed, &mut tracer, tally);
    shard_resume::trace(args.seed, &mut tracer, tally);
    let dir = std::path::Path::new("perfbench").join("out");
    let path = dir.join(format!(
        "trace-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, tracer.to_json(args.workload.name(), args.seed)));
    tally.check(written.is_ok(), || {
        format!("cannot write {}: {written:?}", path.display())
    });
    eprintln!("perfbench: span trees written to {}", path.display());
    tracer.metrics
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    dcfail_par::set_thread_override(Some(threads));
    eprintln!(
        "perfbench: {} seed {} seconds {} trace {} on {threads} thread(s)",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut tally = Tally::default();
    tally.check(util::pin_malloc(), || {
        "glibc refused the fixed malloc thresholds".into()
    });
    let metrics = if args.trace {
        run_traced(&args, &mut tally)
    } else {
        run_timed(&args, &mut tally)
    };
    for name in metrics.non_finite() {
        eprintln!("perfbench: FAILED: {name} could not be measured");
    }
    println!("{}", metrics.result_line(&tally));
    if tally.failed == 0 && metrics.all_finite() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
