//! `stream-replay`: full-fleet event feeds, reordered within a 360-minute
//! slack (the `repro stream --smoke --slack 360` setting), replayed through
//! `StreamEngine`. The reorder buffer, watermark and window accumulators do
//! all the timed work; report runners only render the three streamed
//! figures, after the clock stops, for the stream==batch gate.

use crate::trace::Tracer;
use crate::util::{derive, median, trim_heap, unit, Tally};
use crate::Timed;
use dcfail_model::time::{Horizon, SimDuration};
use dcfail_stats::rng::StreamRng;
use dcfail_stream::{
    batch_digest, figure_digest, DetectorConfig, FeedEvent, StreamConfig, StreamEngine,
    StreamOutput,
};
use dcfail_synth::feed::{dataset_feed, reorder_within_slack};
use dcfail_synth::Scenario;

/// Sub-stream id for [`derive`].
const FEED_SEEDS: u64 = 3;

/// Feeds built in set-up; replays alternate between them.
const FEEDS: u64 = 2;

/// Replays per second of `--seconds` (≈620K events, ≈250–300 ms each).
const REPLAYS_PER_SECOND: f64 = 4.0;

/// Replays in the traced pass.
const TRACE_REPLAYS: usize = 3;

const SLACK_MINUTES: i64 = 360;

/// One reordered feed plus what the batch pipeline renders for its dataset.
pub struct Feed {
    horizon: Horizon,
    events: Vec<FeedEvent>,
    batch: u64,
}

fn build_feed(seed: u64) -> Feed {
    let dataset = Scenario::paper().seed(seed).build().into_dataset();
    let mut rng = StreamRng::new(seed).fork("perfbench.reorder");
    let events = reorder_within_slack(
        &dataset_feed(&dataset),
        SimDuration::from_minutes(SLACK_MINUTES),
        &mut rng,
    );
    Feed {
        horizon: dataset.horizon(),
        events,
        batch: batch_digest(&dataset),
    }
}

fn engine(feed: &Feed) -> StreamEngine {
    StreamEngine::new(
        feed.horizon,
        StreamConfig {
            slack: SimDuration::from_minutes(SLACK_MINUTES),
            detector: DetectorConfig::weekly(),
        },
    )
}

/// Ingests the whole feed; returns the engine and the rejected-late count.
fn ingest(feed: &Feed) -> (StreamEngine, u64) {
    let mut engine = engine(feed);
    let mut late = 0u64;
    for &event in &feed.events {
        late += u64::from(engine.ingest(event).is_err());
    }
    (engine, late)
}

/// Gates: nothing late or dropped in a legal reorder, and the streamed
/// figures equal the batch pipeline's.
fn check(feed: &Feed, out: &StreamOutput, late: u64, digest: u64, tally: &mut Tally) {
    let stats = &out.stats;
    tally.check(
        late == 0 && stats.late_events == 0 && stats.events_applied == stats.events_ingested,
        || {
            format!(
                "stream dropped events: {late} late, {} applied of {}",
                stats.events_applied, stats.events_ingested
            )
        },
    );
    tally.check(digest == feed.batch, || {
        format!(
            "streamed digest {digest:#018x} != batch {:#018x}",
            feed.batch
        )
    });
}

/// Built feeds, ready to replay.
pub struct Prepared {
    feeds: Vec<Feed>,
}

pub fn setup(seed: u64, tally: &mut Tally) -> Prepared {
    // One thread: allocations from several threads land in the allocator's
    // arenas in a schedule-dependent order, and the fragmentation they
    // leave would move the replay's peak memory from run to run.
    let ambient = dcfail_par::thread_override();
    dcfail_par::set_thread_override(Some(1));
    let feeds: Vec<Feed> = (0..FEEDS)
        .map(|i| build_feed(derive(seed, FEED_SEEDS, i)))
        .collect();
    dcfail_par::set_thread_override(ambient);
    // Warm-up replay.
    let (engine, late) = ingest(&feeds[0]);
    let out = engine.finish();
    check(&feeds[0], &out, late, out.digest(), tally);
    Prepared { feeds }
}

pub fn run(prepared: &Prepared, seconds: u64, tally: &mut Tally) -> Timed {
    let n = (seconds as f64 * REPLAYS_PER_SECOND).ceil() as usize;
    let (mut per_replay, mut peaks) = (Vec::new(), Vec::new());
    let mut events = 0u64;
    for r in 0..n {
        let feed = &prepared.feeds[r % prepared.feeds.len()];
        let ((out, late), ms, peak) = unit(|| {
            let (engine, late) = ingest(feed);
            (engine.finish(), late)
        });
        per_replay.push(ms);
        peaks.push(peak);
        events += out.stats.events_ingested;
        check(feed, &out, late, out.digest(), tally);
    }
    Timed {
        unit_ms: median(&per_replay),
        throughput_per_s: events as f64 / (per_replay.iter().sum::<f64>() / 1e3),
        units: per_replay,
        peak_rss_mb: median(&peaks),
    }
}

/// One replay with a span per engine call: (output, late, ingest, finish, unit).
fn traced_replay(feed: &Feed, tracer: &mut Tracer) -> (StreamOutput, u64, f64, f64, f64) {
    trim_heap();
    let unit = tracer.open("stream-replay.unit");
    let ((engine, late), i) = tracer.time("stream.ingest", || ingest(feed));
    let (out, f) = tracer.time("stream.finish", || engine.finish());
    let total = tracer.close(unit);
    (out, late, i, f, total)
}

pub fn trace(seed: u64, tracer: &mut Tracer, tally: &mut Tally) {
    let pass = tracer.open("stream-replay");
    let (feed, _) = tracer.time("stream.setup", || build_feed(derive(seed, FEED_SEEDS, 0)));
    let (mut ingest_ms, mut finish_ms, mut render_ms, mut unit) = (vec![], vec![], vec![], vec![]);
    let mut last = None;
    for _ in 0..TRACE_REPLAYS {
        let (out, late, i, f, total) = traced_replay(&feed, tracer);
        let (rendered, r) = tracer.time("stream.render", || out.rendered());
        check(&feed, &out, late, figure_digest(&rendered), tally);
        ingest_ms.push(i);
        finish_ms.push(f);
        render_ms.push(r);
        unit.push(total);
        last = Some((out, late));
    }
    // One more replay under the program's own dcfail-obs window.
    let obs_span = tracer.open("stream-replay.obs");
    let handle = dcfail_obs::ObsHandle::install();
    let with_obs = traced_replay(&feed, tracer).4;
    if let Some(handle) = handle {
        tracer.keep_obs("stream-replay", handle.finish().to_json());
    }
    tracer.close(obs_span);
    tracer.close(pass);

    let (out, late) = last.expect("TRACE_REPLAYS >= 1");
    let m = &mut tracer.metrics;
    m.put("stream.ingest_ms", median(&ingest_ms), "ms");
    m.put("stream.finish_ms", median(&finish_ms), "ms");
    m.put("stream.render_ms", median(&render_ms), "ms");
    m.put("stream.events", out.stats.events_ingested as f64, "count");
    m.put(
        "stream.peak_buffered",
        out.stats.peak_buffered as f64,
        "count",
    );
    m.put(
        "stream.windows_closed",
        out.stats.windows_closed as f64,
        "count",
    );
    m.put("stream.alerts", out.alerts.len() as f64, "count");
    m.put(
        "stream.late_rejected",
        late.max(out.stats.late_events) as f64,
        "count",
    );
    m.put("trace.stream-replay.unit_ms", median(&unit), "ms");
    m.put(
        "obs.stream-replay.overhead",
        with_obs / median(&unit),
        "ratio",
    );
    let total: f64 = unit.iter().sum();
    let ingest_share = ingest_ms.iter().sum::<f64>() / total;
    m.put("share.stream-replay.ingest", ingest_share, "ratio");
    let finish_share = finish_ms.iter().sum::<f64>() / total;
    m.put("share.stream-replay.finish", finish_share, "ratio");
}
