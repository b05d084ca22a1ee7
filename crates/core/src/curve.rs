//! Shared machinery for the rate-vs-attribute figures (Figs. 7–10).
//!
//! All four figures have the same skeleton: bucket machines by an attribute
//! (capacity, weekly usage, consolidation level, on/off frequency), compute
//! the weekly failure rate of each bucket, and report mean + 25th/75th
//! percentiles per bucket. [`CurveCounts`] holds the per-(bin, week)
//! counts of that skeleton; [`weekly_rate_by_machine`] drives it for static
//! attributes (capacity, consolidation, on/off) and
//! [`crate::usage::UsageCounts`] for the week-varying usage panels.

use dcfail_model::prelude::*;
use dcfail_stats::binning::Bins;
use dcfail_stats::empirical::Summary;
use dcfail_stats::merge::{CountMatrix, Mergeable};
use serde::{Deserialize, Serialize};

/// One bucket of a rate-vs-attribute curve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CurvePoint {
    /// Bucket label (e.g. `"4"` CPUs or `"10-20"` percent).
    pub label: String,
    /// Mean weekly failure rate of the bucket.
    pub mean: f64,
    /// 25th percentile of the bucket's weekly rate series.
    pub p25: f64,
    /// 75th percentile of the bucket's weekly rate series.
    pub p75: f64,
    /// Machine-weeks observed in the bucket.
    pub machine_weeks: usize,
    /// Failure events observed in the bucket.
    pub events: usize,
}

/// A full rate-vs-attribute curve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttributeCurve {
    /// What the attribute is (for rendering).
    pub attribute: String,
    /// Buckets in attribute order; empty buckets are omitted.
    pub points: Vec<CurvePoint>,
}

impl AttributeCurve {
    /// Mean rate of the bucket with `label`, if present.
    pub fn mean_of(&self, label: &str) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.label == label)
            .map(|p| p.mean)
    }

    /// [`AttributeCurve::dynamic_range`] restricted to buckets holding at
    /// least `min_share` of the curve's machine-weeks — sparse outlier
    /// buckets otherwise dominate the ratio.
    pub fn dynamic_range_min_weight(&self, min_share: f64) -> Option<f64> {
        let total: usize = self.points.iter().map(|p| p.machine_weeks).sum();
        let floor = (total as f64 * min_share) as usize;
        let mut lo = f64::INFINITY;
        let mut hi: f64 = 0.0;
        for p in &self.points {
            if p.machine_weeks < floor.max(1) {
                continue;
            }
            lo = lo.min(p.mean);
            hi = hi.max(p.mean);
        }
        (lo.is_finite() && lo > 0.0 && hi > 0.0).then(|| hi / lo)
    }

    /// Ratio between the highest and lowest bucket means (the paper's
    /// "impact factor", e.g. 5.5× for PM CPU counts).
    pub fn dynamic_range(&self) -> Option<f64> {
        let mut lo = f64::INFINITY;
        let mut hi: f64 = 0.0;
        for p in &self.points {
            if p.machine_weeks == 0 {
                continue;
            }
            lo = lo.min(p.mean);
            hi = hi.max(p.mean);
        }
        (lo.is_finite() && lo > 0.0 && hi > 0.0).then(|| hi / lo)
    }
}

/// Sentinel bin id for "machine not binned" in the flat columnar bin
/// tables of the week-invariant curves. Bin counts are tiny (≤ 13 across
/// all figures), so bin ids fit a `u16` with room to spare.
pub const NO_BIN: u16 = u16::MAX;

/// Mergeable per-(bin, week) population and event counts behind a
/// rate-vs-attribute curve.
///
/// A whole-fleet pass and a sharded pass (each shard
/// counting its own machine-weeks and events, then absorbing) build the
/// same counts, so [`Mergeable::finalize`] yields bit-identical
/// [`AttributeCurve`]s either way — counting is exactly mergeable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CurveCounts {
    attribute: String,
    labels: Vec<String>,
    weeks: usize,
    population: CountMatrix,
    events: CountMatrix,
}

impl CurveCounts {
    /// Empty counts for a curve over `bins` and `weeks` observation weeks.
    pub fn new(attribute: &str, bins: &Bins, weeks: usize) -> Self {
        assert!(
            bins.len() < NO_BIN as usize,
            "bin count must leave room for the NO_BIN sentinel"
        );
        Self {
            attribute: attribute.to_string(),
            labels: (0..bins.len()).map(|b| bins.label(b).to_string()).collect(),
            weeks,
            population: CountMatrix::zeros(bins.len(), weeks),
            events: CountMatrix::zeros(bins.len(), weeks),
        }
    }

    /// Counts one machine-week in `(bin, week)`.
    pub fn add_machine_week(&mut self, bin: usize, week: usize) {
        self.population.add(bin, week, 1);
    }

    /// Buckets one machine's weeks under `attr(week)`, counting each binned
    /// machine-week, and returns the per-week bin assignment — needed later
    /// to attribute the machine's failure events to bins via [`Self::add_event`].
    #[cfg(test)]
    pub(crate) fn observe_machine_weeks(
        &mut self,
        bins: &Bins,
        attr: impl FnMut(usize) -> Option<f64>,
    ) -> Vec<Option<usize>> {
        let mut row = vec![NO_BIN; self.weeks];
        self.observe_machine_weeks_into(bins, attr, &mut row);
        row.iter()
            .map(|&b| (b != NO_BIN).then_some(b as usize))
            .collect()
    }

    /// [`Self::observe_machine_weeks`] in flat columnar form: writes the
    /// per-week bin assignment into a preallocated `row` of `u16` bin ids
    /// ([`NO_BIN`] for unbinned weeks) instead of allocating a
    /// `Vec<Option<usize>>` per machine.
    ///
    /// # Panics
    ///
    /// Panics if `row` is not exactly one slot per observation week.
    #[cfg(test)]
    pub(crate) fn observe_machine_weeks_into(
        &mut self,
        bins: &Bins,
        mut attr: impl FnMut(usize) -> Option<f64>,
        row: &mut [u16],
    ) {
        assert_eq!(row.len(), self.weeks, "row must be one slot per week");
        for (w, slot) in row.iter_mut().enumerate() {
            *slot = NO_BIN;
            if let Some(value) = attr(w) {
                if let Some(bin) = bins.index_of(value) {
                    self.add_machine_week(bin, w);
                    *slot = bin as u16;
                }
            }
        }
    }

    /// Buckets a machine whose attribute is week-invariant: the attribute is
    /// evaluated once, every observation week lands in its bin (the exact
    /// counts `observe_machine_weeks` would produce for a constant
    /// attribute), and the single bin id is returned for event attribution.
    pub fn observe_machine_constant(&mut self, bins: &Bins, value: Option<f64>) -> Option<usize> {
        let bin = value.and_then(|v| bins.index_of(v))?;
        self.population.add_row(bin, 1);
        Some(bin)
    }

    /// Counts one failure event in `(bin, week)`.
    pub fn add_event(&mut self, bin: usize, week: usize) {
        self.events.add(bin, week, 1);
    }

    /// Flushes one closed streaming window into the counts: `machines`
    /// machine-weeks and `events` failure events land in `(bin, week)` at
    /// once. A window accumulator that buckets its own members and then
    /// flushes each bin through this method produces exactly the counts the
    /// batch observe/add_event path would — counting is commutative, so the
    /// column-at-a-time order cannot be told apart from the batch order.
    pub fn add_window_column(&mut self, bin: usize, week: usize, machines: u64, events: u64) {
        if machines > 0 {
            self.population.add(bin, week, machines);
        }
        if events > 0 {
            self.events.add(bin, week, events);
        }
    }

    /// Number of observation weeks the counts cover.
    pub fn weeks(&self) -> usize {
        self.weeks
    }

    fn is_unset(&self) -> bool {
        self.labels.is_empty() && self.weeks == 0
    }
}

impl Mergeable for CurveCounts {
    type Output = AttributeCurve;

    fn identity() -> Self {
        Self {
            attribute: String::new(),
            labels: Vec::new(),
            weeks: 0,
            population: CountMatrix::identity(),
            events: CountMatrix::identity(),
        }
    }

    fn absorb(&mut self, other: &Self) {
        if other.is_unset() {
            return;
        }
        if self.is_unset() {
            self.attribute.clone_from(&other.attribute);
            self.labels.clone_from(&other.labels);
            self.weeks = other.weeks;
        } else {
            assert!(
                self.attribute == other.attribute
                    && self.labels == other.labels
                    && self.weeks == other.weeks,
                "curve configurations must match"
            );
        }
        self.population.absorb(&other.population);
        self.events.absorb(&other.events);
    }

    fn finalize(self) -> AttributeCurve {
        let mut points = Vec::new();
        for (bin, label) in self.labels.iter().enumerate() {
            let mut series = Vec::new();
            let mut machine_weeks = 0usize;
            let mut event_total = 0usize;
            for w in 0..self.weeks {
                let pop = self.population.get(bin, w);
                if pop == 0 {
                    continue;
                }
                machine_weeks += pop as usize;
                event_total += self.events.get(bin, w) as usize;
                series.push(self.events.get(bin, w) as f64 / pop as f64);
            }
            let Some(s) = Summary::of(&series) else {
                continue;
            };
            points.push(CurvePoint {
                label: label.clone(),
                mean: s.mean,
                p25: s.p25,
                p75: s.p75,
                machine_weeks,
                events: event_total,
            });
        }
        AttributeCurve {
            attribute: self.attribute,
            points,
        }
    }
}

/// Computes a weekly-rate curve over attribute `attr`: the generic
/// per-machine-week skeleton, kept as the oracle of the specialised passes
/// ([`crate::usage::fig8_curves`], [`weekly_rate_by_machine`]).
///
/// `attr(machine, week)` returns the machine's bucket attribute for that
/// week, or `None` to exclude the machine-week (e.g. missing telemetry).
/// For each bucket, the weekly rate series is
/// `events(bucket, week) / machines(bucket, week)` over all weeks where the
/// bucket is populated.
#[cfg(test)]
pub(crate) fn weekly_rate_by(
    dataset: &FailureDataset,
    attribute: &str,
    bins: &Bins,
    kind: MachineKind,
    mut attr: impl FnMut(&Machine, usize) -> Option<f64>,
) -> AttributeCurve {
    let weeks = dataset.horizon().num_weeks();
    let mut counts = CurveCounts::new(attribute, bins, weeks);

    // Assign machine-weeks to bins: one flat machines × weeks matrix of
    // small bin ids instead of a Vec<Option<usize>> per machine.
    let machines = dataset.machines();
    let mut bin_of_machine_week = vec![NO_BIN; machines.len() * weeks];
    for (m, row) in machines.iter().zip(bin_of_machine_week.chunks_mut(weeks)) {
        if m.kind() == kind {
            counts.observe_machine_weeks_into(bins, |w| attr(m, w), row);
        }
    }

    // Count events per (bin, week): a dense scan over the flat grid.
    for ev in dataset.events() {
        let Some(w) = dataset.horizon().week_of(ev.at()) else {
            continue;
        };
        let bin = bin_of_machine_week[ev.machine().index() * weeks + w];
        if bin != NO_BIN {
            counts.add_event(bin as usize, w);
        }
    }

    counts.finalize()
}

/// Weekly-rate curve for a week-invariant attribute (capacity,
/// consolidation level, on/off rate): `attr` runs once per machine, every
/// observation week of the machine lands in its bin, and events are
/// attributed through a flat per-machine bin table.
pub fn weekly_rate_by_machine(
    dataset: &FailureDataset,
    attribute: &str,
    bins: &Bins,
    kind: MachineKind,
    attr: impl FnMut(&Machine) -> Option<f64>,
) -> AttributeCurve {
    bin_machines(dataset, attribute, bins, kind, attr)
        .0
        .finalize()
}

/// Single-pass rate curve plus population-share panel for a week-invariant
/// attribute — the Fig. 9/10 shape. Machines are binned exactly once and
/// the same bin table feeds both panels, so the two no longer each
/// recompute the attribute per machine.
pub fn rate_and_share_by_machine(
    dataset: &FailureDataset,
    attribute: &str,
    bins: &Bins,
    kind: MachineKind,
    attr: impl FnMut(&Machine) -> Option<f64>,
) -> (AttributeCurve, Vec<(String, f64)>) {
    let (counts, bin_of_machine) = bin_machines(dataset, attribute, bins, kind, attr);
    let mut per_bin = vec![0u64; bins.len()];
    for &bin in &bin_of_machine {
        if bin != NO_BIN {
            per_bin[bin as usize] += 1;
        }
    }
    (counts.finalize(), share_from_counts(bins, &per_bin))
}

/// Shared core of the week-invariant fast paths: bins every machine of
/// `kind` once, counts all its observation weeks via the constant path, and
/// attributes events through the per-machine bin table.
fn bin_machines(
    dataset: &FailureDataset,
    attribute: &str,
    bins: &Bins,
    kind: MachineKind,
    mut attr: impl FnMut(&Machine) -> Option<f64>,
) -> (CurveCounts, Vec<u16>) {
    let weeks = dataset.horizon().num_weeks();
    let mut counts = CurveCounts::new(attribute, bins, weeks);

    let machines = dataset.machines();
    let mut bin_of_machine = vec![NO_BIN; machines.len()];
    for (m, slot) in machines.iter().zip(&mut bin_of_machine) {
        if m.kind() == kind {
            if let Some(bin) = counts.observe_machine_constant(bins, attr(m)) {
                *slot = bin as u16;
            }
        }
    }

    for ev in dataset.events() {
        let Some(w) = dataset.horizon().week_of(ev.at()) else {
            continue;
        };
        let bin = bin_of_machine[ev.machine().index()];
        if bin != NO_BIN {
            counts.add_event(bin as usize, w);
        }
    }

    (counts, bin_of_machine)
}

/// Normalizes per-bin machine counts into `(label, share)` rows, the shape
/// of the Fig. 9/10 population-share panels.
pub fn share_from_counts(bins: &Bins, counts: &[u64]) -> Vec<(String, f64)> {
    let total: u64 = counts.iter().sum();
    counts
        .iter()
        .enumerate()
        .map(|(i, &c)| (bins.label(i).to_string(), c as f64 / total.max(1) as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;
    use dcfail_stats::binning::Bins;

    #[test]
    fn curve_rate_normalizes_by_population() {
        let ds = testutil::dataset();
        // Single catch-all bin → curve mean equals the overall weekly rate.
        let bins = Bins::from_edges(vec![0.0, 1e9]);
        let curve = weekly_rate_by(ds, "all", &bins, MachineKind::Pm, |_, _| Some(1.0));
        assert_eq!(curve.points.len(), 1);
        let fig2 = crate::rates::weekly_failure_rates(ds);
        assert!(
            (curve.points[0].mean - fig2.all_pm.mean).abs() < 1e-9,
            "curve {} vs fig2 {}",
            curve.points[0].mean,
            fig2.all_pm.mean
        );
    }

    #[test]
    fn events_and_machine_weeks_are_consistent() {
        let ds = testutil::dataset();
        let bins = Bins::discrete(&[1.0, 2.0, 4.0, 8.0, 16.0, 24.0, 32.0, 64.0]);
        let curve = weekly_rate_by(ds, "cpus", &bins, MachineKind::Pm, |m, _| {
            Some(m.capacity().cpus() as f64)
        });
        let total_events: usize = curve.points.iter().map(|p| p.events).sum();
        let expected = ds
            .events()
            .iter()
            .filter(|e| ds.machine(e.machine()).is_pm())
            .count();
        assert_eq!(total_events, expected);
        let total_mw: usize = curve.points.iter().map(|p| p.machine_weeks).sum();
        assert_eq!(total_mw, ds.population(MachineKind::Pm, None) * 52);
    }

    #[test]
    fn excluded_machine_weeks_drop_out() {
        let ds = testutil::tiny();
        let bins = Bins::from_edges(vec![0.0, 2.0]);
        let curve = weekly_rate_by(ds, "none", &bins, MachineKind::Vm, |_, _| None);
        assert!(curve.points.is_empty());
        assert!(curve.dynamic_range().is_none());
    }

    #[test]
    fn constant_path_matches_per_week_path() {
        let bins = Bins::from_edges(vec![0.0, 1.0, 2.0]);
        let mut per_week = CurveCounts::new("x", &bins, 5);
        let a = per_week.observe_machine_weeks(&bins, |_| Some(1.5));
        let b = per_week.observe_machine_weeks(&bins, |_| None);
        let mut constant = CurveCounts::new("x", &bins, 5);
        let ca = constant.observe_machine_constant(&bins, Some(1.5));
        let cb = constant.observe_machine_constant(&bins, None);
        assert_eq!(constant, per_week);
        assert_eq!(ca, a[0]);
        assert!(a.iter().all(|&w| w == ca));
        assert_eq!(cb, None);
        assert!(b.iter().all(Option::is_none));
        // Out-of-range value: no bin, no counts.
        assert_eq!(constant.observe_machine_constant(&bins, Some(7.0)), None);
        assert_eq!(constant, per_week);
    }

    #[test]
    fn machine_fast_path_matches_generic_path() {
        let ds = testutil::dataset();
        let bins = Bins::discrete(&[1.0, 2.0, 4.0, 8.0, 16.0, 24.0, 32.0, 64.0]);
        let fast = weekly_rate_by_machine(ds, "cpus", &bins, MachineKind::Pm, |m| {
            Some(m.capacity().cpus() as f64)
        });
        let generic = weekly_rate_by(ds, "cpus", &bins, MachineKind::Pm, |m, _| {
            Some(m.capacity().cpus() as f64)
        });
        assert_eq!(fast, generic);
    }

    #[test]
    fn rate_and_share_single_pass_matches_separate_panels() {
        let ds = testutil::dataset();
        let bins = Bins::from_edges(vec![0.0, 2.0, 4.0, 1e9]);
        let attr = |m: &Machine| Some(m.capacity().cpus() as f64);
        let (curve, shares) = rate_and_share_by_machine(ds, "cpus", &bins, MachineKind::Vm, attr);
        assert_eq!(
            curve,
            weekly_rate_by_machine(ds, "cpus", &bins, MachineKind::Vm, attr)
        );
        // Shares equal an independent per-machine count.
        let mut counts = vec![0u64; bins.len()];
        for m in ds.machines_of_kind(MachineKind::Vm) {
            if let Some(b) = bins.index_of(m.capacity().cpus() as f64) {
                counts[b] += 1;
            }
        }
        assert_eq!(shares, share_from_counts(&bins, &counts));
    }

    #[test]
    fn curve_counts_absorb_law() {
        let bins = Bins::from_edges(vec![0.0, 1.0, 2.0]);
        let weeks = 4;

        // Whole pass: two machines observed in one accumulator.
        let mut whole = CurveCounts::new("x", &bins, weeks);
        let a = whole.observe_machine_weeks(&bins, |w| Some(w as f64 / 2.0));
        let b = whole.observe_machine_weeks(&bins, |_| Some(1.5));
        whole.add_event(a[0].unwrap(), 0);
        whole.add_event(b[1].unwrap(), 1);

        // Sharded pass: one machine per accumulator, absorbed into identity.
        let mut s1 = CurveCounts::new("x", &bins, weeks);
        let a1 = s1.observe_machine_weeks(&bins, |w| Some(w as f64 / 2.0));
        s1.add_event(a1[0].unwrap(), 0);
        let mut s2 = CurveCounts::new("x", &bins, weeks);
        let b2 = s2.observe_machine_weeks(&bins, |_| Some(1.5));
        s2.add_event(b2[1].unwrap(), 1);

        let mut merged = CurveCounts::identity();
        merged.absorb(&s1);
        merged.absorb(&s2);
        assert_eq!(merged, whole, "absorb must equal the sequential pass");

        // Identity is neutral on both sides.
        let mut right = s1.clone();
        right.absorb(&CurveCounts::identity());
        assert_eq!(right, s1);

        assert_eq!(merged.finalize(), whole.finalize());
    }

    #[test]
    fn window_column_flush_matches_observe_path() {
        let bins = Bins::from_edges(vec![0.0, 1.0, 2.0]);
        let weeks = 3;

        // Batch path: two machines observed per week, one event each in
        // weeks 0 and 1.
        let mut batch = CurveCounts::new("x", &bins, weeks);
        let a = batch.observe_machine_weeks(&bins, |_| Some(0.5));
        let b = batch.observe_machine_weeks(&bins, |_| Some(1.5));
        batch.add_event(a[0].unwrap(), 0);
        batch.add_event(b[1].unwrap(), 1);

        // Streaming path: the same counts arrive one window column at a
        // time, pre-aggregated per bin.
        let mut stream = CurveCounts::new("x", &bins, weeks);
        for week in 0..weeks {
            // Both bins hold one machine every week.
            stream.add_window_column(0, week, 1, u64::from(week == 0));
            stream.add_window_column(1, week, 1, u64::from(week == 1));
        }
        assert_eq!(stream, batch);
        // Zero-sized flushes are no-ops.
        stream.add_window_column(0, 2, 0, 0);
        assert_eq!(stream, batch);
        assert_eq!(stream.finalize(), batch.finalize());
    }

    #[test]
    fn mean_of_and_dynamic_range() {
        let curve = AttributeCurve {
            attribute: "x".into(),
            points: vec![
                CurvePoint {
                    label: "a".into(),
                    mean: 0.002,
                    p25: 0.0,
                    p75: 0.004,
                    machine_weeks: 10,
                    events: 1,
                },
                CurvePoint {
                    label: "b".into(),
                    mean: 0.01,
                    p25: 0.005,
                    p75: 0.015,
                    machine_weeks: 10,
                    events: 5,
                },
            ],
        };
        assert_eq!(curve.mean_of("b"), Some(0.01));
        assert_eq!(curve.mean_of("zz"), None);
        assert!((curve.dynamic_range().unwrap() - 5.0).abs() < 1e-12);
        // Weighted range drops sparse buckets.
        assert!((curve.dynamic_range_min_weight(0.1).unwrap() - 5.0).abs() < 1e-12);
        let mut sparse = curve.clone();
        sparse.points.push(CurvePoint {
            label: "c".into(),
            mean: 1.0,
            p25: 0.0,
            p75: 1.0,
            machine_weeks: 1,
            events: 1,
        });
        assert!(sparse.dynamic_range().unwrap() > 100.0);
        assert!((sparse.dynamic_range_min_weight(0.2).unwrap() - 5.0).abs() < 1e-12);
    }
}
