//! `shard-resume`: the out-of-core path at full fleet. Each seed runs
//! `build_sharded` with 16 shards plus the 17 paper reports, then a
//! checkpointed run on `MemFs` is killed halfway through its I/O and
//! resumed to the same reports. Shard accumulators and checkpoint
//! encode/load are measured nowhere else.

use crate::trace::Tracer;
use crate::util::{derive, median, trim_heap, unit, Tally};
use crate::Timed;
use dcfail_chaos::IoFaultPlan;
use dcfail_ckpt::{ChaosFs, CheckpointStore, CkptError, FaultFs, FsError, MemFs};
use dcfail_report::experiments;
use dcfail_report::{ExperimentId, RunConfig};
use dcfail_shard::{build_sharded, resume_sharded, ShardedOutput};
use dcfail_stream::figure_digest;
use dcfail_synth::{Scenario, ScenarioConfig};
use std::sync::Arc;

/// Sub-stream ids for [`derive`].
const SEEDS: u64 = 4;
const PROBE: u64 = 5;

const SHARDS: usize = 16;

/// Seeds per second of `--seconds` (≈500 ms per seed on a 2-core host).
const SEEDS_PER_SECOND: f64 = 2.0;

/// Seeds in the traced pass.
const TRACE_SEEDS: u64 = 2;

/// Checkpoint directory inside the in-memory filesystem.
const DIR: &str = "perfbench-ckpt";

/// Keeps a `ChaosFs` readable (its op counter) after a store owns it.
struct Counted(Arc<ChaosFs<MemFs>>);

impl FaultFs for Counted {
    fn read(&self, path: &str) -> Result<Vec<u8>, FsError> {
        self.0.read(path)
    }
    fn write(&self, path: &str, bytes: &[u8]) -> Result<(), FsError> {
        self.0.write(path, bytes)
    }
    fn rename(&self, from: &str, to: &str) -> Result<(), FsError> {
        self.0.rename(from, to)
    }
    fn remove(&self, path: &str) -> Result<(), FsError> {
        self.0.remove(path)
    }
    fn exists(&self, path: &str) -> Result<bool, FsError> {
        self.0.exists(path)
    }
    fn create_dir_all(&self, path: &str) -> Result<(), FsError> {
        self.0.create_dir_all(path)
    }
}

fn config(seed: u64) -> ScenarioConfig {
    Scenario::paper().seed(seed).config().clone()
}

/// The I/O operation at which checkpointed runs are killed: half of a clean
/// checkpointed run's operations.
pub struct Prepared {
    kill_at: u64,
}

pub fn setup(seed: u64, tally: &mut Tally) -> Prepared {
    let probe = derive(seed, PROBE, 0);
    let fs = Arc::new(ChaosFs::new(MemFs::new(), IoFaultPlan::quiet(probe)));
    let store = CheckpointStore::new(Box::new(Counted(Arc::clone(&fs))), DIR);
    let clean = resume_sharded(&config(probe), SHARDS, &store);
    tally.check(clean.is_ok(), || {
        format!("clean checkpointed run failed: {:?}", clean.err())
    });
    Prepared {
        kill_at: fs.ops() / 2,
    }
}

/// Starts a checkpointed run on `mem` that dies at I/O operation `kill_at`;
/// only the injected kill is an acceptable outcome.
fn killed_run(config: &ScenarioConfig, mem: &MemFs, kill_at: u64, tally: &mut Tally) {
    let plan = IoFaultPlan::kill_at(config.seed, kill_at);
    let store = CheckpointStore::new(Box::new(ChaosFs::new(mem.clone(), plan)), DIR);
    let outcome = resume_sharded(config, SHARDS, &store).map(|_| ());
    tally.check(matches!(outcome, Err(CkptError::Killed { .. })), || {
        format!("run meant to die at op {kill_at} ended with {outcome:?}")
    });
}

/// Resumes from whatever the killed run left on `mem`.
fn resumed_run(config: &ScenarioConfig, mem: &MemFs, tally: &mut Tally) -> Option<ShardedOutput> {
    let store = CheckpointStore::new(Box::new(mem.clone()), DIR);
    match resume_sharded(config, SHARDS, &store) {
        Ok(out) => Some(out),
        Err(e) => {
            tally.check(false, || format!("resume failed: {e}"));
            None
        }
    }
}

fn check_resumed(seed: u64, uninterrupted: u64, resumed: Option<u64>, tally: &mut Tally) {
    tally.check(resumed == Some(uninterrupted), || {
        format!("seed {seed}: resumed digest {resumed:x?} != uninterrupted {uninterrupted:#018x}")
    });
}

/// Gate: the sharded digest equals the monolithic paper reports'.
fn check_monolithic(config: &ScenarioConfig, sharded: u64, tally: &mut Tally) {
    let dataset = Scenario::from_config(config.clone()).build().into_dataset();
    let run_config = RunConfig::with_seed(config.seed);
    let reports: Vec<_> = ExperimentId::PAPER
        .into_iter()
        .map(|id| (id.key(), experiments::run(id, &dataset, &run_config)))
        .collect();
    let monolithic = figure_digest(&reports);
    tally.check(monolithic == sharded, || {
        format!("sharded digest {sharded:#018x} != monolithic {monolithic:#018x}")
    });
}

pub fn run(prepared: &Prepared, seed: u64, seconds: u64, tally: &mut Tally) -> Timed {
    let n = (seconds as f64 * SEEDS_PER_SECOND).ceil() as u64;
    let (mut per_seed, mut peaks) = (Vec::new(), Vec::new());
    let mut machines = 0usize;
    let mut first = None;
    for i in 0..n {
        let config = config(derive(seed, SEEDS, i));
        let run_config = RunConfig::with_seed(config.seed);
        let ((uninterrupted, resumed), ms, peak) = unit(|| {
            let sharded = build_sharded(&config, SHARDS);
            let uninterrupted = sharded.paper_digest(&run_config);
            machines += sharded.dataset().machines().len();
            drop(sharded);
            let mem = MemFs::new();
            killed_run(&config, &mem, prepared.kill_at, tally);
            let resumed =
                resumed_run(&config, &mem, tally).map(|out| out.paper_digest(&run_config));
            (uninterrupted, resumed)
        });
        per_seed.push(ms);
        peaks.push(peak);
        check_resumed(config.seed, uninterrupted, resumed, tally);
        first.get_or_insert((config, uninterrupted));
    }
    let (config, uninterrupted) = first.expect("at least one seed");
    check_monolithic(&config, uninterrupted, tally);
    Timed {
        unit_ms: median(&per_seed),
        throughput_per_s: machines as f64 / (per_seed.iter().sum::<f64>() / 1e3),
        units: per_seed,
        peak_rss_mb: median(&peaks),
    }
}

/// Per-call times of one traced cycle.
struct CycleTimes {
    build: f64,
    reports: [f64; 2],
    write: f64,
    resume: f64,
    total: f64,
}

/// One seed's cycle with a span per layer call; returns the `MemFs` the
/// checkpointed runs wrote to.
fn traced_cycle(
    seed: u64,
    kill_at: u64,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> (MemFs, CycleTimes) {
    let config = config(seed);
    let run_config = RunConfig::with_seed(seed);
    trim_heap();
    let cycle = tracer.open("shard-resume.unit");
    let (sharded, build) = tracer.time("shard.build", || build_sharded(&config, SHARDS));
    let (uninterrupted, r1) = tracer.time("shard.reports", || sharded.paper_digest(&run_config));
    drop(sharded);
    let mem = MemFs::new();
    let ((), write) = tracer.time("ckpt.write", || {
        killed_run(&config, &mem, kill_at, tally);
    });
    let (out, resume) = tracer.time("ckpt.resume", || resumed_run(&config, &mem, tally));
    let (resumed, r2) = tracer.time("shard.reports", || {
        out.map(|out| out.paper_digest(&run_config))
    });
    let total = tracer.close(cycle);
    check_resumed(seed, uninterrupted, resumed, tally);
    let times = CycleTimes {
        build,
        reports: [r1, r2],
        write,
        resume,
        total,
    };
    (mem, times)
}

pub fn trace(seed: u64, tracer: &mut Tracer, tally: &mut Tally) {
    let pass = tracer.open("shard-resume");
    let prepared = tracer.time("shard.probe", || setup(seed, tally)).0;
    let (mut build, mut reports, mut write, mut resume, mut unit) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut segment_bytes = 0.0;
    for i in 0..TRACE_SEEDS {
        let (mem, t) = traced_cycle(derive(seed, SEEDS, i), prepared.kill_at, tracer, tally);
        segment_bytes = mem
            .paths()
            .iter()
            .filter(|p| p.ends_with(".seg"))
            .filter_map(|p| mem.snapshot(p))
            .map(|bytes| bytes.len() as f64)
            .sum();
        build.push(t.build);
        reports.extend(t.reports);
        write.push(t.write);
        resume.push(t.resume);
        unit.push(t.total);
    }
    // One more cycle under the program's own dcfail-obs window; its
    // checkpoint counters come from there.
    let obs_span = tracer.open("shard-resume.obs");
    let handle = dcfail_obs::ObsHandle::install();
    let with_obs = traced_cycle(derive(seed, SEEDS, 0), prepared.kill_at, tracer, tally).1;
    let (mut written, mut loaded) = (f64::NAN, f64::NAN);
    if let Some(handle) = handle {
        let report = handle.finish();
        written = report.counter("ckpt.segments_written").unwrap_or(0) as f64;
        loaded = report.counter("ckpt.segments_loaded").unwrap_or(0) as f64;
        tracer.keep_obs("shard-resume", report.to_json());
    }
    tracer.close(obs_span);
    tracer.close(pass);

    let m = &mut tracer.metrics;
    m.put("shard.build_ms", median(&build), "ms");
    m.put("shard.reports_ms", median(&reports), "ms");
    m.put("ckpt.write_ms", median(&write), "ms");
    m.put("ckpt.resume_ms", median(&resume), "ms");
    m.put("ckpt.kill_at_op", prepared.kill_at as f64, "count");
    m.put("ckpt.segments_written", written, "count");
    m.put("ckpt.segments_loaded", loaded, "count");
    m.put("ckpt.segment_bytes", segment_bytes, "bytes");
    m.put("trace.shard-resume.unit_ms", median(&unit), "ms");
    m.put(
        "obs.shard-resume.overhead",
        with_obs.total / median(&unit),
        "ratio",
    );
    let total: f64 = unit.iter().sum();
    let sum = |v: &[f64]| v.iter().sum::<f64>() / total;
    m.put(
        "share.shard-resume.shard",
        sum(&build) + sum(&reports),
        "ratio",
    );
    m.put(
        "share.shard-resume.ckpt",
        sum(&write) + sum(&resume),
        "ratio",
    );
}
