//! The event-at-a-time ingest engine.
//!
//! [`StreamEngine`] consumes a boundedly-reordered feed of
//! [`FeedPayload`]-shaped events and maintains the Fig. 8/9/10 estimators
//! incrementally: a slack-bounded reorder buffer canonicalizes arrivals back
//! into `(at, seq)` order, tumbling per-week windows absorb the ordered
//! events, and each window flushes into the global mergeable curve counts
//! when the watermark passes its end. Because arrivals are canonicalized
//! *before* they touch any estimator, a streamed run is byte-identical to
//! the batch run by construction — at any thread count and any legal
//! reordering within the slack bound.

use crate::detect::{Alert, BurstDetector, DetectorConfig};
use crate::window::{PanelBins, WindowAccum, NUM_PANELS};
use dcfail_core::curve::{share_from_counts, CurveCounts, NO_BIN};
use dcfail_core::{consolidation, onoff, usage};
use dcfail_model::prelude::*;
use dcfail_report::runners::{render_fig10, render_fig8, render_fig9, Fig8Curves, Rendered};
use dcfail_stats::merge::Mergeable;
use dcfail_synth::feed::{FeedEvent, FeedPayload};
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt;

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Maximum arrival lateness the engine tolerates: an event may arrive
    /// after events up to `slack` newer than it. `ZERO` still permits
    /// arbitrary permutations of equal-timestamp events.
    pub slack: SimDuration,
    /// Burst-detector tuning.
    pub detector: DetectorConfig,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            slack: SimDuration::ZERO,
            detector: DetectorConfig::weekly(),
        }
    }
}

/// An arrival the engine must reject to keep the determinism contract.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum StreamError {
    /// The event's time precedes the applied watermark: its canonical slot
    /// has already been replayed, so absorbing it would diverge from the
    /// batch result. Arrivals within the configured slack never trip this.
    LateEvent {
        /// The rejected event's time.
        at: SimTime,
        /// The watermark the event fell behind.
        watermark: SimTime,
    },
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::LateEvent { at, watermark } => write!(
                f,
                "late event: at {} min < applied watermark {} min (exceeds the slack bound)",
                at.as_minutes(),
                watermark.as_minutes()
            ),
        }
    }
}

impl std::error::Error for StreamError {}

/// Ingest and window-lifecycle counters of one streamed run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct StreamStats {
    /// Events offered to [`StreamEngine::ingest`] (including rejected ones).
    pub events_ingested: u64,
    /// Events replayed out of the reorder buffer into the estimators.
    pub events_applied: u64,
    /// Arrivals rejected as late ([`StreamError::LateEvent`]).
    pub late_events: u64,
    /// Duplicate attribute announcements ignored.
    pub duplicate_attrs: u64,
    /// Duplicate machine-week usage rollups ignored.
    pub duplicate_usage: u64,
    /// Machines announced via `Attrs`.
    pub machines: u64,
    /// Failure events absorbed into windows.
    pub failures: u64,
    /// Tickets absorbed into windows.
    pub tickets: u64,
    /// Tumbling windows opened.
    pub windows_opened: u64,
    /// Tumbling windows closed (includes synthesized empty windows).
    pub windows_closed: u64,
    /// High-water mark of the reorder buffer, in events.
    pub peak_buffered: usize,
    /// High-water mark of simultaneously open windows.
    pub peak_open_windows: usize,
}

/// Week-invariant attribute bins of one announced machine.
#[derive(Debug, Clone, Copy)]
struct MachineBins {
    cons_bin: u16,
    onoff_bin: u16,
}

/// The figures and telemetry produced by a completed streamed run.
#[derive(Debug, Clone)]
pub struct StreamOutput {
    /// The six Fig. 8 panel curves.
    pub fig8: Fig8Curves,
    /// Fig. 9 rate curve.
    pub fig9: dcfail_core::curve::AttributeCurve,
    /// Fig. 9 population-share panel.
    pub fig9_shares: Vec<(String, f64)>,
    /// Fig. 10 rate curve.
    pub fig10: dcfail_core::curve::AttributeCurve,
    /// Fig. 10 population-share panel.
    pub fig10_shares: Vec<(String, f64)>,
    /// Burst alerts in deterministic (window-close) order.
    pub alerts: Vec<Alert>,
    /// Ingest and window-lifecycle counters.
    pub stats: StreamStats,
}

impl StreamOutput {
    /// Renders the streamed figures with the same renderers the batch
    /// pipeline uses, keyed like the experiment registry.
    pub fn rendered(&self) -> [(&'static str, Rendered); 3] {
        [
            ("fig8", render_fig8(&self.fig8)),
            ("fig9", render_fig9(&self.fig9, &self.fig9_shares)),
            ("fig10", render_fig10(&self.fig10, &self.fig10_shares)),
        ]
    }

    /// FNV-1a digest over the rendered figures, byte-compatible with the
    /// golden-report digest format.
    pub fn digest(&self) -> u64 {
        figure_digest(&self.rendered())
    }
}

/// FNV-1a over `id:text\ncsv\n` of each rendered report — the exact format
/// the golden-report pin hashes, so streamed and batch digests are
/// comparable byte-for-byte.
pub fn figure_digest(reports: &[(&'static str, Rendered)]) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for (id, rendered) in reports {
        for byte in format!("{id}:{}\n{:?}\n", rendered.text, rendered.csv).bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x100000001b3);
        }
    }
    hash
}

/// The batch pipeline's Fig. 8/9/10 renders for `dataset`, keyed like
/// [`StreamOutput::rendered`] — the comparison target of the stream==batch
/// determinism contract.
pub fn batch_rendered(dataset: &FailureDataset) -> [(&'static str, Rendered); 3] {
    let fig8 = usage::fig8_curves(dataset);
    let (fig9, fig9_shares) = consolidation::fig9_parts(dataset);
    let (fig10, fig10_shares) = onoff::fig10_parts(dataset);
    [
        ("fig8", render_fig8(&fig8)),
        ("fig9", render_fig9(&fig9, &fig9_shares)),
        ("fig10", render_fig10(&fig10, &fig10_shares)),
    ]
}

/// [`figure_digest`] of [`batch_rendered`].
pub fn batch_digest(dataset: &FailureDataset) -> u64 {
    figure_digest(&batch_rendered(dataset))
}

/// Streaming ingest engine over one observation horizon.
pub struct StreamEngine {
    horizon: Horizon,
    config: StreamConfig,
    panel_bins: PanelBins,
    fig9_bins: dcfail_stats::binning::Bins,
    fig10_bins: dcfail_stats::binning::Bins,
    /// Slack-bounded reorder buffer: arrivals wait here until the watermark
    /// proves their canonical slot, then replay in `(at, seq)` order.
    buffer: BTreeMap<(SimTime, u64), FeedPayload>,
    max_seen: Option<SimTime>,
    /// Exclusive watermark: every event strictly before it has been applied.
    applied_through: Option<SimTime>,
    next_close: usize,
    open: BTreeMap<usize, WindowAccum>,
    registry: BTreeMap<MachineId, MachineBins>,
    fig8: [CurveCounts; NUM_PANELS],
    fig9: CurveCounts,
    fig9_per_bin: Vec<u64>,
    fig10: CurveCounts,
    fig10_per_bin: Vec<u64>,
    detector: BurstDetector,
    alerts: Vec<Alert>,
    stats: StreamStats,
}

impl StreamEngine {
    /// Fresh engine over `horizon`.
    pub fn new(horizon: Horizon, config: StreamConfig) -> Self {
        let weeks = horizon.num_weeks();
        let panel_bins = PanelBins::paper();
        let fig9_bins = consolidation::level_bins();
        let fig10_bins = onoff::onoff_bins();
        // Panel order and attribute names mirror the batch Fig. 8 path.
        let fig8 = [
            CurveCounts::new("cpu util %", &panel_bins.util, weeks),
            CurveCounts::new("cpu util %", &panel_bins.util, weeks),
            CurveCounts::new("mem util %", &panel_bins.util, weeks),
            CurveCounts::new("mem util %", &panel_bins.util, weeks),
            CurveCounts::new("disk util %", &panel_bins.util, weeks),
            CurveCounts::new("net kbps", &panel_bins.net, weeks),
        ];
        Self {
            fig9: CurveCounts::new("consolidation", &fig9_bins, weeks),
            fig9_per_bin: vec![0; fig9_bins.len()],
            fig10: CurveCounts::new("on/off per month", &fig10_bins, weeks),
            fig10_per_bin: vec![0; fig10_bins.len()],
            detector: BurstDetector::new(config.detector),
            horizon,
            config,
            panel_bins,
            fig9_bins,
            fig10_bins,
            buffer: BTreeMap::new(),
            max_seen: None,
            applied_through: None,
            next_close: 0,
            open: BTreeMap::new(),
            registry: BTreeMap::new(),
            fig8,
            alerts: Vec::new(),
            stats: StreamStats::default(),
        }
    }

    /// Ingest counters so far.
    pub fn stats(&self) -> &StreamStats {
        &self.stats
    }

    /// Events currently parked in the reorder buffer.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Currently open tumbling windows.
    pub fn open_windows(&self) -> usize {
        self.open.len()
    }

    /// Offers one arrival to the engine. Arrivals within the slack bound are
    /// buffered and replayed in canonical order; an arrival behind the
    /// applied watermark is rejected as [`StreamError::LateEvent`] and
    /// changes nothing.
    pub fn ingest(&mut self, event: FeedEvent) -> Result<(), StreamError> {
        self.stats.events_ingested += 1;
        if let Some(watermark) = self.applied_through {
            if event.at < watermark {
                self.stats.late_events += 1;
                dcfail_obs::add("stream.late_events", 1);
                return Err(StreamError::LateEvent {
                    at: event.at,
                    watermark,
                });
            }
        }
        self.max_seen = Some(self.max_seen.map_or(event.at, |m| m.max(event.at)));
        self.buffer.insert((event.at, event.seq), event.payload);
        self.stats.peak_buffered = self.stats.peak_buffered.max(self.buffer.len());
        let watermark = self.max_seen.unwrap_or(event.at) - self.config.slack;
        self.advance_to(watermark);
        Ok(())
    }

    /// Replays every buffered event strictly before `watermark` in canonical
    /// order, then closes every window whose end the watermark passed.
    /// Draining strictly *below* keeps equal-timestamp arrivals waiting
    /// until the clock moves past them, which is what makes zero-slack runs
    /// safe under equal-timestamp permutations.
    fn advance_to(&mut self, watermark: SimTime) {
        if self.applied_through.is_some_and(|w| w >= watermark) {
            return;
        }
        let mut applied = 0u64;
        while let Some((&(at, _), _)) = self.buffer.first_key_value() {
            if at >= watermark {
                break;
            }
            let (_, payload) = self.buffer.pop_first().expect("nonempty buffer");
            self.apply(at, payload);
            applied += 1;
        }
        if applied > 0 {
            dcfail_obs::add("stream.events_applied", applied);
        }
        self.stats.events_applied += applied;
        self.applied_through = Some(watermark);
        while self.next_close < self.horizon.num_weeks() {
            let end = self.window_end(self.next_close);
            if end > watermark {
                break;
            }
            self.close_next_window();
        }
    }

    fn window_end(&self, week: usize) -> SimTime {
        self.horizon.start() + SimDuration::from_days(7 * (week as i64 + 1))
    }

    /// Applies one canonically-ordered event to the estimators.
    fn apply(&mut self, at: SimTime, payload: FeedPayload) {
        match payload {
            FeedPayload::Attrs {
                machine,
                kind,
                consolidation,
                onoff_rate,
            } => {
                if self.registry.contains_key(&machine) {
                    self.stats.duplicate_attrs += 1;
                    return;
                }
                // Only VMs carry the Fig. 9/10 attributes; the constant
                // observe path counts the machine into every week at once,
                // exactly like the batch per-machine fast path.
                let mut bins = MachineBins {
                    cons_bin: NO_BIN,
                    onoff_bin: NO_BIN,
                };
                if kind == MachineKind::Vm {
                    if let Some(bin) = self
                        .fig9
                        .observe_machine_constant(&self.fig9_bins, consolidation)
                    {
                        bins.cons_bin = bin as u16;
                        self.fig9_per_bin[bin] += 1;
                    }
                    if let Some(bin) = self
                        .fig10
                        .observe_machine_constant(&self.fig10_bins, onoff_rate)
                    {
                        bins.onoff_bin = bin as u16;
                        self.fig10_per_bin[bin] += 1;
                    }
                }
                self.registry.insert(machine, bins);
                self.stats.machines += 1;
            }
            FeedPayload::Usage {
                machine,
                kind,
                week,
                cpu,
                mem,
                disk,
                net,
            } => {
                if week >= self.horizon.num_weeks() || week < self.next_close {
                    self.stats.duplicate_usage += 1;
                    return;
                }
                let accum = Self::window(&mut self.open, &mut self.stats, &self.panel_bins, week);
                if !accum.record_usage(machine, kind, [cpu, mem, disk, net], &self.panel_bins) {
                    self.stats.duplicate_usage += 1;
                }
            }
            FeedPayload::Failure { machine } => {
                let Some(week) = self.horizon.week_of(at) else {
                    return;
                };
                debug_assert!(week >= self.next_close, "failure behind the close line");
                Self::window(&mut self.open, &mut self.stats, &self.panel_bins, week)
                    .record_failure(machine);
                self.stats.failures += 1;
            }
            FeedPayload::Ticket { machine: _ } => {
                let Some(week) = self.horizon.week_of(at) else {
                    return;
                };
                Self::window(&mut self.open, &mut self.stats, &self.panel_bins, week)
                    .record_ticket();
                self.stats.tickets += 1;
            }
        }
    }

    /// The open accumulator for `week`, created on first touch. An
    /// associated function over disjoint fields so callers can keep
    /// borrowing `panel_bins` while holding the returned accumulator.
    fn window<'a>(
        open: &'a mut BTreeMap<usize, WindowAccum>,
        stats: &mut StreamStats,
        panel_bins: &PanelBins,
        week: usize,
    ) -> &'a mut WindowAccum {
        if let std::collections::btree_map::Entry::Vacant(slot) = open.entry(week) {
            stats.windows_opened += 1;
            dcfail_obs::add("stream.windows_opened", 1);
            slot.insert(WindowAccum::new(week, panel_bins));
            stats.peak_open_windows = stats.peak_open_windows.max(open.len());
        }
        open.get_mut(&week).expect("window just ensured")
    }

    /// Closes the next tumbling window in dense week order (synthesizing an
    /// empty accumulator for eventless weeks, so the detector sees a dense
    /// series): joins the window's failures against its usage bins and the
    /// attribute registry, flushes one column per bin into the global curve
    /// counts, and feeds the detector.
    fn close_next_window(&mut self) {
        let week = self.next_close;
        self.next_close += 1;
        let accum = self
            .open
            .remove(&week)
            .unwrap_or_else(|| WindowAccum::new(week, &self.panel_bins));

        let mut panel_events: [Vec<u64>; NUM_PANELS] =
            std::array::from_fn(|p| vec![0u64; self.panel_bins.len(p)]);
        let mut fig9_events = vec![0u64; self.fig9_bins.len()];
        let mut fig10_events = vec![0u64; self.fig10_bins.len()];
        for (machine, &count) in accum.failures() {
            if let Some(bins) = accum.bins_of().get(machine) {
                for (p, &bin) in bins.iter().enumerate() {
                    if bin != NO_BIN {
                        panel_events[p][bin as usize] += count;
                    }
                }
            }
            if let Some(bins) = self.registry.get(machine) {
                if bins.cons_bin != NO_BIN {
                    fig9_events[bins.cons_bin as usize] += count;
                }
                if bins.onoff_bin != NO_BIN {
                    fig10_events[bins.onoff_bin as usize] += count;
                }
            }
        }
        for (p, counts) in panel_events.iter().enumerate() {
            let pop = accum.population(p);
            for (bin, &event_count) in counts.iter().enumerate() {
                self.fig8[p].add_window_column(bin, week, pop[bin], event_count);
            }
        }
        for (bin, &event_count) in fig9_events.iter().enumerate() {
            self.fig9.add_window_column(bin, week, 0, event_count);
        }
        for (bin, &event_count) in fig10_events.iter().enumerate() {
            self.fig10.add_window_column(bin, week, 0, event_count);
        }

        let end = self.window_end(week);
        let window_stats = accum.finalize();
        self.stats.windows_closed += 1;
        dcfail_obs::add("stream.windows_closed", 1);
        dcfail_obs::observe("stream.window_failures", window_stats.failures as f64);
        if let Some(alert) = self.detector.observe(week, end, window_stats.failures) {
            dcfail_obs::add("stream.alerts", 1);
            self.alerts.push(alert);
        }
    }

    /// Ends the stream: replays everything still buffered, closes every
    /// remaining window (through the end of the horizon), and finalizes the
    /// estimators.
    pub fn finish(mut self) -> StreamOutput {
        let _span = dcfail_obs::span("stream.finish");
        let mut applied = 0u64;
        while let Some(((at, _), payload)) = self.buffer.pop_first() {
            self.apply(at, payload);
            applied += 1;
        }
        if applied > 0 {
            dcfail_obs::add("stream.events_applied", applied);
        }
        self.stats.events_applied += applied;
        while self.next_close < self.horizon.num_weeks() {
            self.close_next_window();
        }
        let [pm_cpu, vm_cpu, pm_mem, vm_mem, disk, net] = self.fig8;
        StreamOutput {
            fig8: Fig8Curves {
                pm_cpu: pm_cpu.finalize(),
                vm_cpu: vm_cpu.finalize(),
                pm_mem: pm_mem.finalize(),
                vm_mem: vm_mem.finalize(),
                disk: disk.finalize(),
                net: net.finalize(),
            },
            fig9: self.fig9.finalize(),
            fig9_shares: share_from_counts(&self.fig9_bins, &self.fig9_per_bin),
            fig10: self.fig10.finalize(),
            fig10_shares: share_from_counts(&self.fig10_bins, &self.fig10_per_bin),
            alerts: self.alerts,
            stats: self.stats,
        }
    }
}
