//! `serve-mixed`: the `dcfail-serve` daemon in its shipped configuration
//! (metrics and background ingest on) at full fleet, one worker per core,
//! under one closed-loop client per core. The clients pull from one counted
//! schedule: mostly `GET /reports/:id` cycling over all 24 ids (cache hits),
//! plus never-seen what-if seeds (cold renders), the registry, the stream
//! alerts, and at fixed positions a `publish_rebuilt` that rebuilds the
//! fleet, bumps the data version (so the next GET of each id renders cold)
//! and starts the background stream replay. Hot reads stress conn, http,
//! router and envelope serialization; cold reads stress the report runners
//! through the Toolkit cache.

use crate::trace::Tracer;
use crate::util::{
    derive, json_u64_after, median, obs_counter, peak_rss_mb, quantile, reset_peak_rss, trim_heap,
    Tally,
};
use crate::Timed;
use dcfail_ckpt::fnv64;
use dcfail_report::{DatasetSnapshot, ExperimentId, RunConfig, Toolkit};
use dcfail_serve::conn::{get_request, post_request, roundtrip};
use dcfail_serve::http::{parse_request, split_response};
use dcfail_serve::{router, serve_toolkit, ServeConfig, ServerHandle};
use dcfail_synth::Scenario;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Sub-stream ids for [`derive`].
const DATA: u64 = 6;
const MIX: u64 = 7;
const WHATIF: u64 = 8;
const TRACE_MIX: u64 = 9;

/// Scheduled requests per second of `--seconds`, sized so the session
/// takes about that long on a 2-core host.
const REQUESTS_PER_SECOND: u64 = 8000;

/// One `publish_rebuilt` per this many seconds of `--seconds`, placed by
/// request count, not by the clock.
const SECONDS_PER_REFRESH: u64 = 3;

/// Per-mille shares of the non-report requests. No recorded request mix of
/// the daemon exists, so these shares and the refresh rate are assumptions:
/// hot reads are the bulk of requests, and each cold path still runs often
/// enough in one run for a steady median. The traced run's
/// `share.serve-mixed.<kind>_time` shows how much of the clients' time each
/// kind takes, and so how much the mix sets `throughput_per_s`.
const WHATIF_PERMILLE: u64 = 10;
const REGISTRY_PERMILLE: u64 = 5;
const ALERTS_PERMILLE: u64 = 5;

/// Schedule length of the traced pass, in `--seconds` units.
const TRACE_SECONDS: u64 = 3;

/// In-process `router::route` calls per id in the traced pass.
const ROUTER_CALLS: usize = 200;

#[derive(Clone, Copy)]
enum Op {
    Report(ExperimentId),
    Whatif(u64),
    Registry,
    Alerts,
    /// Rebuild the fleet from this seed and publish it.
    Refresh(u64),
}

/// The counted request schedule: a pure function of the seed and length.
fn schedule(seed: u64, mix: u64, seconds: u64) -> Vec<Op> {
    let n = seconds * REQUESTS_PER_SECOND;
    let refreshes = (seconds / SECONDS_PER_REFRESH).max(1);
    let every = n / (refreshes + 1);
    let mut ops = Vec::with_capacity((n + refreshes) as usize);
    let (mut cursor, mut version) = (0usize, 0u64);
    for k in 0..n {
        if k > 0 && k % every == 0 && version < refreshes {
            version += 1;
            ops.push(Op::Refresh(derive(seed, DATA, version)));
        }
        let draw = derive(seed, mix, k) % 1000;
        ops.push(if draw < WHATIF_PERMILLE {
            Op::Whatif(derive(seed, WHATIF, k))
        } else if draw < WHATIF_PERMILLE + REGISTRY_PERMILLE {
            Op::Registry
        } else if draw < WHATIF_PERMILLE + REGISTRY_PERMILLE + ALERTS_PERMILLE {
            Op::Alerts
        } else {
            cursor += 1;
            Op::Report(ExperimentId::ALL[(cursor - 1) % ExperimentId::ALL.len()])
        });
    }
    ops
}

/// What one client saw; merged across clients after the session.
#[derive(Default)]
struct Log {
    hot: Vec<f64>,
    cold: Vec<f64>,
    whatif: Vec<f64>,
    registry: Vec<f64>,
    alerts: Vec<f64>,
    refresh: Vec<f64>,
    ingest_replay: Vec<f64>,
    requests: u64,
    failed: u64,
    shed: u64,
    first_error: Option<String>,
}

impl Log {
    fn merge(&mut self, other: Log) {
        self.hot.extend(other.hot);
        self.cold.extend(other.cold);
        self.whatif.extend(other.whatif);
        self.registry.extend(other.registry);
        self.alerts.extend(other.alerts);
        self.refresh.extend(other.refresh);
        self.ingest_replay.extend(other.ingest_replay);
        self.requests += other.requests;
        self.failed += other.failed;
        self.shed += other.shed;
        self.first_error = self.first_error.take().or(other.first_error);
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_error.get_or_insert(what);
    }

    /// One timed round trip; the body of a 200 response, or `None` after
    /// counting the failure (socket error, typed 429/503 shed, other status).
    fn request(&mut self, addr: SocketAddr, raw: &[u8]) -> (Option<Vec<u8>>, f64) {
        self.requests += 1;
        let start = Instant::now();
        let response = roundtrip(addr, raw);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let what = || String::from_utf8_lossy(&raw[..raw.len().min(40)]).into_owned();
        match response.as_deref().map(split_response) {
            Ok(Some((200, body))) => return (Some(body), ms),
            Ok(Some((status @ (429 | 503), _))) => {
                self.shed += 1;
                self.fail(format!("{}: shed with {status}", what()));
            }
            Ok(Some((status, _))) => self.fail(format!("{}: status {status}", what())),
            Ok(None) => self.fail(format!("{}: unparseable response", what())),
            Err(e) => self.fail(format!("{}: {e}", what())),
        }
        (None, ms)
    }
}

/// First-pass body digests (and when they arrived) per `(data version,
/// id)`, the data seed of every published version, the peak memory of
/// each refresh epoch, and whether any epoch's high-water mark could not
/// be reset (which makes every epoch peak unusable).
#[derive(Default)]
struct Seen {
    first: BTreeMap<(u64, ExperimentId), (u64, Instant)>,
    versions: BTreeMap<u64, u64>,
    epoch_peaks: Vec<f64>,
    reset_failed: bool,
}

/// A running daemon plus what its clients have seen so far.
pub struct Prepared {
    handle: ServerHandle,
    seen: Mutex<Seen>,
}

/// Classifies one report response sent at `sent`; `Some(true)` means cold.
/// The first body for its `(version, id)` is the cold render and its digest
/// is kept for the gate. A request sent before that first body arrived is
/// cold too: the Toolkit cache renders concurrent misses twice. `None`: the
/// body carries no readable `data_version`, so the gate could not check it.
fn note_report(seen: &Mutex<Seen>, id: ExperimentId, body: &[u8], sent: Instant) -> Option<bool> {
    let version = json_u64_after(&String::from_utf8_lossy(body), "\"data_version\"")?;
    let mut seen = seen.lock().expect("no client panics holding the lock");
    if let Some(&(_, answered)) = seen.first.get(&(version, id)) {
        return Some(sent < answered);
    }
    seen.first
        .insert((version, id), (fnv64(body), Instant::now()));
    Some(true)
}

/// Hands freed heap back and resets the memory high-water mark at the
/// start of an epoch, noting a reset that failed.
fn start_epoch(seen: &Mutex<Seen>) {
    trim_heap();
    if !reset_peak_rss() {
        seen.lock()
            .expect("no client panics holding the lock")
            .reset_failed = true;
    }
}

/// Closes a memory epoch: records its peak and starts the next one. A
/// refresh opens each epoch, so every epoch holds one rebuild, its cold
/// renders and its stream replay.
fn next_epoch(seen: &Mutex<Seen>) {
    let peak = peak_rss_mb();
    seen.lock()
        .expect("no client panics holding the lock")
        .epoch_peaks
        .push(peak);
    start_epoch(seen);
}

/// Runs the schedule with one closed-loop client per core; `wait_alerts`
/// (traced pass only) makes a refreshing client wait for the ingest replay.
fn session(prepared: &Prepared, ops: &[Op], wait_alerts: bool) -> (Log, f64) {
    let addr = prepared.handle.addr();
    let next = AtomicUsize::new(0);
    let clients = dcfail_par::thread_count();
    start_epoch(&prepared.seen);
    let start = Instant::now();
    let logs: Vec<Log> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut log = Log::default();
                    while let Some(&op) = ops.get(next.fetch_add(1, Ordering::Relaxed)) {
                        client_op(prepared, addr, op, wait_alerts, &mut log);
                    }
                    log
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client threads do not panic"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    next_epoch(&prepared.seen);
    let mut all = Log::default();
    for log in logs {
        all.merge(log);
    }
    (all, wall_s)
}

fn client_op(prepared: &Prepared, addr: SocketAddr, op: Op, wait_alerts: bool, log: &mut Log) {
    match op {
        Op::Report(id) => {
            let sent = Instant::now();
            let (body, ms) = log.request(addr, &get_request(&format!("/reports/{id}")));
            if let Some(body) = body {
                match note_report(&prepared.seen, id, &body, sent) {
                    Some(true) => log.cold.push(ms),
                    Some(false) => log.hot.push(ms),
                    None => log.fail(format!("/reports/{id}: no data_version in the body")),
                }
            }
        }
        Op::Whatif(seed) => {
            let raw = post_request("/whatif", &format!("{{\"seed\": {seed}}}"));
            if let (Some(_), ms) = log.request(addr, &raw) {
                log.whatif.push(ms);
            }
        }
        Op::Registry => {
            if let (Some(_), ms) = log.request(addr, &get_request("/registry")) {
                log.registry.push(ms);
            }
        }
        Op::Alerts => {
            if let (Some(_), ms) = log.request(addr, &get_request("/stream/alerts")) {
                log.alerts.push(ms);
            }
        }
        Op::Refresh(seed) => {
            next_epoch(&prepared.seen);
            let start = Instant::now();
            let version = prepared.handle.publish_rebuilt(seed, 1.0);
            log.refresh.push(start.elapsed().as_secs_f64() * 1e3);
            prepared
                .seen
                .lock()
                .expect("no client panics holding the lock")
                .versions
                .insert(version, seed);
            if wait_alerts {
                let published = Instant::now();
                if !prepared.handle.wait_for_alerts(version) {
                    log.fail(format!("ingest replay of version {version} did not finish"));
                }
                log.ingest_replay
                    .push(published.elapsed().as_secs_f64() * 1e3);
            }
        }
    }
}

pub fn setup(seed: u64, tally: &mut Tally) -> Prepared {
    let data_seed = derive(seed, DATA, 0);
    let obs = dcfail_obs::ObsHandle::install();
    let toolkit = Toolkit::build(RunConfig::with_seed(data_seed));
    let config = ServeConfig {
        workers: dcfail_par::thread_count(),
        ..ServeConfig::default()
    };
    let handle = serve_toolkit(config, toolkit, obs).expect("bind an ephemeral loopback port");
    tally.check(handle.wait_for_alerts(0), || {
        "initial ingest replay did not finish".into()
    });
    let prepared = Prepared {
        handle,
        seen: Mutex::new(Seen::default()),
    };
    prepared
        .seen
        .lock()
        .expect("no other user yet")
        .versions
        .insert(0, data_seed);
    // Warm pass: the cold renders of version 0.
    let mut log = Log::default();
    for id in ExperimentId::ALL {
        client_op(
            &prepared,
            prepared.handle.addr(),
            Op::Report(id),
            false,
            &mut log,
        );
    }
    settle(tally, &log);
    prepared
}

/// Folds a client log into the tally.
fn settle(tally: &mut Tally, log: &Log) {
    tally.add(log.requests, log.failed);
    if let Some(e) = &log.first_error {
        eprintln!("perfbench: FAILED: {} request(s), first: {e}", log.failed);
    }
}

/// Gate: every first-pass body equals `envelope_json` of a fresh library
/// Toolkit at the same data version. Every published version must have
/// been served, and every body must carry a published version. Runs after
/// the daemon is gone.
fn check_first_pass(seen: Seen, tally: &mut Tally) {
    for &(version, id) in seen.first.keys() {
        tally.check(seen.versions.contains_key(&version), || {
            format!("/reports/{id} served data version {version}, which was never published")
        });
    }
    for (version, seed) in seen.versions {
        let ids: Vec<_> = seen
            .first
            .iter()
            .filter(|((v, _), _)| *v == version)
            .map(|((_, id), (digest, _))| (*id, *digest))
            .collect();
        tally.check(!ids.is_empty(), || {
            format!("no report was served at published data version {version}")
        });
        if ids.is_empty() {
            continue;
        }
        let dataset = Scenario::paper().seed(seed).build().into_dataset();
        let reference = Toolkit::from_snapshot(
            DatasetSnapshot::new(dataset, version),
            RunConfig::with_seed(seed),
        );
        for (id, digest) in ids {
            let want = fnv64(reference.envelope_json(id).as_bytes());
            tally.check(want == digest, || {
                format!("/reports/{id} at data version {version} differs from the library")
            });
        }
    }
}

/// Stops the daemon and runs the first-pass gate.
fn finish(prepared: Prepared, tally: &mut Tally) {
    let Prepared { handle, seen } = prepared;
    handle.shutdown();
    check_first_pass(seen.into_inner().expect("clients are done"), tally);
}

pub fn run(prepared: Prepared, seed: u64, seconds: u64, tally: &mut Tally) -> Timed {
    let ops = schedule(seed, MIX, seconds);
    let (log, wall_s) = session(&prepared, &ops, false);
    let peak_rss_mb = {
        let seen = prepared.seen.lock().expect("clients are done");
        if seen.reset_failed {
            f64::NAN
        } else {
            median(&seen.epoch_peaks)
        }
    };
    settle(tally, &log);
    finish(prepared, tally);
    Timed {
        unit_ms: median(&log.hot),
        throughput_per_s: log.requests as f64 / wall_s,
        units: log.hot,
        peak_rss_mb,
    }
}

pub fn trace(seed: u64, tracer: &mut Tracer, tally: &mut Tally) {
    let pass = tracer.open("serve-mixed");
    let (prepared, _) = tracer.time("serve.setup", || setup(seed, tally));
    let ops = schedule(seed, TRACE_MIX, TRACE_SECONDS);
    let ((log, _), _) = tracer.time("serve-mixed.session", || session(&prepared, &ops, true));
    settle(tally, &log);

    let state = prepared.handle.state();
    let (router, _) = tracer.time("serve.router", || {
        let mut router = Vec::with_capacity(ROUTER_CALLS * ExperimentId::ALL.len());
        for id in ExperimentId::ALL {
            let request = parse_request(&get_request(&format!("/reports/{id}")))
                .expect("the client's own request parses");
            for _ in 0..ROUTER_CALLS {
                let start = Instant::now();
                black_box(router::route(&request, state));
                router.push(start.elapsed().as_secs_f64() * 1e6);
            }
        }
        router
    });
    let mut metrics_log = Log::default();
    let (obs, _) = metrics_log.request(prepared.handle.addr(), &get_request("/metrics"));
    settle(tally, &metrics_log);
    let obs = String::from_utf8_lossy(&obs.unwrap_or_default()).into_owned();
    let hits = obs_counter(&obs, "toolkit.cache_hit") as f64;
    let misses = obs_counter(&obs, "toolkit.cache_miss") as f64;
    tracer.keep_obs("serve-mixed", obs);
    tracer.time("serve.gate", || finish(prepared, tally));
    tracer.close(pass);

    let hot_p50 = median(&log.hot);
    let router_us = median(&router);
    let cold: Vec<f64> = log.cold.iter().chain(&log.whatif).copied().collect();
    let m = &mut tracer.metrics;
    m.put("serve.router_us", router_us, "us");
    m.put("serve.transport_us", hot_p50 * 1e3 - router_us, "us");
    m.put("serve.reports_hot_ms", hot_p50, "ms");
    m.put("serve.hot_p99_ms", quantile(&log.hot, 0.99), "ms");
    m.put("serve.reports_cold_ms", median(&log.cold), "ms");
    m.put("serve.whatif_ms", median(&log.whatif), "ms");
    m.put("serve.registry_ms", median(&log.registry), "ms");
    m.put("serve.alerts_ms", median(&log.alerts), "ms");
    m.put("serve.cold_p50_ms", median(&cold), "ms");
    m.put("serve.cold_p99_ms", quantile(&cold, 0.99), "ms");
    m.put("serve.refresh_ms", median(&log.refresh), "ms");
    m.put("serve.ingest_replay_ms", median(&log.ingest_replay), "ms");
    m.put("serve.cache_hit_ratio", hits / (hits + misses), "ratio");
    m.put("serve.shed", log.shed as f64, "count");
    m.put("serve.requests", log.requests as f64, "count");
    m.put("trace.serve-mixed.unit_ms", hot_p50, "ms");
    m.put(
        "share.serve-mixed.hot_requests",
        log.hot.len() as f64 / log.requests as f64,
        "ratio",
    );
    // Each kind's share of the clients' summed time in requests and
    // refreshes: how much of `throughput_per_s` the assumed mix puts on
    // each path.
    let kinds = [
        ("hot", &log.hot),
        ("cold", &log.cold),
        ("whatif", &log.whatif),
        ("registry", &log.registry),
        ("alerts", &log.alerts),
        ("refresh", &log.refresh),
    ];
    let busy: f64 = kinds.iter().map(|(_, ms)| ms.iter().sum::<f64>()).sum();
    for (kind, ms) in kinds {
        m.put(
            format!("share.serve-mixed.{kind}_time"),
            ms.iter().sum::<f64>() / busy,
            "ratio",
        );
    }
}
