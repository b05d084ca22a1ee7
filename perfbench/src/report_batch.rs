//! `report-batch`: the analyst's `repro --classify all --json` path at full
//! fleet. Each seed is built, its tickets re-classified with k-means, all
//! 24 artifacts rendered through `Toolkit::render_all` and serialized as
//! envelopes. Synth, tickets, report/core and par do nearly all the work
//! here and almost none in the other workloads.

use crate::trace::Tracer;
use crate::util::{derive, median, ms_since, trim_heap, unit, Metrics, Tally};
use crate::Timed;
use dcfail_model::dataset::FailureDataset;
use dcfail_report::experiments;
use dcfail_report::{run_all, ExperimentId, Rendered, RunConfig, Toolkit};
use dcfail_stats::rng::StreamRng;
use dcfail_synth::{incidents, population, scenario, telemetry_gen, Scenario};
use dcfail_tickets::classify::{apply_to_dataset, PipelineConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Sub-stream ids for [`derive`].
const SEEDS: u64 = 1;
const WARMUP: u64 = 2;

/// Seeds per second of `--seconds`, sized so the timed part takes about
/// that long on a 2-core host (≈380 ms per seed).
const SEEDS_PER_SECOND: f64 = 2.5;

/// Seeds in the traced pass.
const TRACE_SEEDS: u64 = 2;

fn classify(dataset: &mut FailureDataset, seed: u64) {
    // The rng `repro --classify` uses.
    let mut rng = StreamRng::new(seed ^ 0x7ea).fork("repro.classify");
    apply_to_dataset(dataset, PipelineConfig::default(), &mut rng);
}

/// Seed → build → classify → render all 24 → serialize every envelope.
fn pipeline(seed: u64) -> (Toolkit, Vec<(ExperimentId, Arc<Rendered>)>) {
    let mut dataset = Scenario::paper().seed(seed).build().into_dataset();
    classify(&mut dataset, seed);
    let toolkit = Toolkit::from_dataset(dataset, RunConfig::with_seed(seed));
    let rendered = toolkit.render_all();
    for id in ExperimentId::ALL {
        black_box(toolkit.envelope_json(id));
    }
    (toolkit, rendered)
}

/// Gate: the parallel `render_all` equals one sequential `run` per id.
fn check_render_all(
    toolkit: &Toolkit,
    rendered: &[(ExperimentId, Arc<Rendered>)],
    sequential: impl Fn(ExperimentId) -> Rendered,
    tally: &mut Tally,
) {
    tally.check(rendered.len() == ExperimentId::ALL.len(), || {
        format!("render_all returned {} artifacts", rendered.len())
    });
    for (id, parallel) in rendered {
        let alone = sequential(*id);
        tally.check(**parallel == alone, || {
            format!(
                "render_all {id} differs from the sequential run (seed {})",
                toolkit.config().seed
            )
        });
    }
}

/// Warm-up: one untimed seed, so lazy initialisation is done before timing.
pub fn setup(seed: u64, _tally: &mut Tally) {
    black_box(pipeline(derive(seed, WARMUP, 0)));
}

pub fn run((): (), seed: u64, seconds: u64, tally: &mut Tally) -> Timed {
    let n = (seconds as f64 * SEEDS_PER_SECOND).ceil() as u64;
    let (mut per_seed, mut peaks) = (Vec::new(), Vec::new());
    for i in 0..n {
        let ((toolkit, rendered), ms, peak) = unit(|| pipeline(derive(seed, SEEDS, i)));
        per_seed.push(ms);
        peaks.push(peak);
        tally.add(1, 0);
        // Gate the first seed here, so its dataset is gone before the next
        // unit starts and no unit's peak memory counts an earlier one's.
        if i == 0 {
            let dataset = toolkit.snapshot().dataset();
            check_render_all(
                &toolkit,
                &rendered,
                |id| experiments::run(id, dataset, toolkit.config()),
                tally,
            );
        }
    }
    let total_s: f64 = per_seed.iter().sum::<f64>() / 1e3;
    Timed {
        unit_ms: median(&per_seed),
        throughput_per_s: (per_seed.len() * ExperimentId::ALL.len()) as f64 / total_s,
        units: per_seed,
        peak_rss_mb: median(&peaks),
    }
}

/// The synth stages `Scenario::build` runs, called one by one in its order.
fn staged_build(seed: u64, tracer: &mut Tracer, ms: &mut [Vec<f64>; 4]) -> FailureDataset {
    let config = Scenario::paper().seed(seed).config().clone();
    let rng = StreamRng::new(config.seed);
    let (pop, t0) = tracer.time("synth.population", || population::build(&config, &rng));
    let (telemetry, t1) = tracer.time("synth.telemetry", || {
        telemetry_gen::generate(&config, &pop, &rng)
    });
    let (specs, t2) = tracer.time("synth.incidents", || {
        incidents::simulate(&config, &pop, &telemetry, &rng)
    });
    let (dataset, t3) = tracer.time("synth.assemble", || {
        scenario::assemble_dataset(&config, pop, telemetry, &specs, &rng)
    });
    for (acc, t) in ms.iter_mut().zip([t0, t1, t2, t3]) {
        acc.push(t);
    }
    dataset
}

/// Wall ms of `f` at `threads` worker threads.
fn at_threads<T>(threads: usize, f: impl FnOnce() -> T) -> f64 {
    let ambient = dcfail_par::thread_override();
    dcfail_par::set_thread_override(Some(threads));
    let start = Instant::now();
    black_box(f());
    let ms = ms_since(start);
    dcfail_par::set_thread_override(ambient);
    ms
}

/// Per-call times of one traced unit: build, classify, render_all, envelopes.
struct UnitTimes {
    layers: [f64; 4],
    total: f64,
}

/// The timed unit with one span per layer call.
fn traced_unit(
    s: u64,
    tracer: &mut Tracer,
) -> (Toolkit, Vec<(ExperimentId, Arc<Rendered>)>, UnitTimes) {
    trim_heap();
    let unit = tracer.open("report-batch.unit");
    let (mut dataset, b) = tracer.time("synth.build", || {
        Scenario::paper().seed(s).build().into_dataset()
    });
    let ((), c) = tracer.time("tickets.classify", || classify(&mut dataset, s));
    let ((toolkit, rendered), r) = tracer.time("report.render_all", || {
        let toolkit = Toolkit::from_dataset(dataset, RunConfig::with_seed(s));
        let rendered = toolkit.render_all();
        (toolkit, rendered)
    });
    let ((), e) = tracer.time("report.envelope", || {
        for id in ExperimentId::ALL {
            black_box(toolkit.envelope_json(id));
        }
    });
    let total = tracer.close(unit);
    (
        toolkit,
        rendered,
        UnitTimes {
            layers: [b, c, r, e],
            total,
        },
    )
}

pub fn trace(seed: u64, tracer: &mut Tracer, tally: &mut Tally) {
    let nproc = dcfail_par::thread_count();
    let mut stages: [Vec<f64>; 4] = Default::default();
    let mut layers: [Vec<f64>; 4] = Default::default();
    let mut unit = Vec::new();
    let mut runners: Vec<Vec<f64>> = vec![Vec::new(); ExperimentId::ALL.len()];
    let (mut speedup_build, mut speedup_report) = (vec![], vec![]);
    let mut counts = [0usize; 4];
    let pass = tracer.open("report-batch");
    for i in 0..TRACE_SEEDS {
        let s = derive(seed, SEEDS, i);
        let seed_span = tracer.open("report-batch.seed");

        let staged = staged_build(s, tracer, &mut stages);
        let (whole, _) = tracer.time("synth.build.reference", || {
            Scenario::paper().seed(s).build().into_dataset()
        });
        tally.check(staged == whole, || {
            format!("staged synth differs from Scenario::build (seed {s})")
        });
        drop((staged, whole));

        let (toolkit, rendered, times) = traced_unit(s, tracer);
        for (acc, t) in layers.iter_mut().zip(times.layers) {
            acc.push(t);
        }
        unit.push(times.total);

        let dataset = toolkit.snapshot().dataset();
        counts = [
            dataset.machines().len(),
            dataset.events().len(),
            dataset.incidents().len(),
            dataset.tickets().len(),
        ];
        let config = toolkit.config();
        let mut sequential = Vec::with_capacity(ExperimentId::ALL.len());
        for (k, id) in ExperimentId::ALL.into_iter().enumerate() {
            let (alone, ms) = tracer.time(format!("report.{id}"), || {
                experiments::run(id, dataset, config)
            });
            runners[k].push(ms);
            sequential.push((id, alone));
        }
        check_render_all(
            &toolkit,
            &rendered,
            |id| {
                sequential
                    .iter()
                    .find(|(k, _)| *k == id)
                    .map(|(_, r)| r.clone())
                    .expect("every id ran sequentially")
            },
            tally,
        );

        let scaling = tracer.open("par.scaling");
        let one = at_threads(1, || Scenario::paper().seed(s).build());
        let many = at_threads(nproc, || Scenario::paper().seed(s).build());
        speedup_build.push(one / many);
        let one = at_threads(1, || run_all(dataset, config));
        let many = at_threads(nproc, || run_all(dataset, config));
        speedup_report.push(one / many);
        tracer.close(scaling);
        tracer.close(seed_span);
    }

    // One more unit under the program's own dcfail-obs window, kept apart
    // so its cost does not inflate the layer times above.
    let obs_span = tracer.open("report-batch.obs");
    let handle = dcfail_obs::ObsHandle::install();
    let (_, _, with_obs) = traced_unit(derive(seed, SEEDS, 0), tracer);
    if let Some(handle) = handle {
        tracer.keep_obs("report-batch", handle.finish().to_json());
    }
    tracer.close(obs_span);
    tracer.close(pass);

    let m: &mut Metrics = &mut tracer.metrics;
    for (name, values) in [
        "synth.build_ms",
        "tickets.classify_ms",
        "report.render_all_ms",
        "report.envelope_ms",
    ]
    .iter()
    .zip(&layers)
    {
        m.put(*name, median(values), "ms");
    }
    for (name, values) in ["population", "telemetry", "incidents", "assemble"]
        .iter()
        .zip(&stages)
    {
        m.put(format!("synth.{name}_ms"), median(values), "ms");
    }
    for (id, values) in ExperimentId::ALL.iter().zip(&runners) {
        m.put(format!("report.{id}_ms"), median(values), "ms");
    }
    m.put("par.speedup_build", median(&speedup_build), "ratio");
    m.put("par.speedup_report", median(&speedup_report), "ratio");
    for (name, n) in ["machines", "events", "incidents", "tickets"]
        .iter()
        .zip(counts)
    {
        m.put(format!("dataset.{name}"), n as f64, "count");
    }
    m.put("trace.report-batch.unit_ms", median(&unit), "ms");
    m.put(
        "obs.report-batch.overhead",
        with_obs.total / median(&unit),
        "ratio",
    );
    // Each layer's share of the traced unit's wall time.
    let total: f64 = unit.iter().sum();
    let sum = |v: &[f64]| v.iter().sum::<f64>() / total;
    m.put("share.report-batch.synth", sum(&layers[0]), "ratio");
    m.put("share.report-batch.tickets", sum(&layers[1]), "ratio");
    m.put(
        "share.report-batch.report",
        sum(&layers[2]) + sum(&layers[3]),
        "ratio",
    );
}
