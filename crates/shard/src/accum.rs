//! Mergeable per-shard accumulators for the telemetry-dependent figures.
//!
//! Figures 8–10 are the only paper artifacts that read weekly telemetry, so
//! they are the only ones a shard coordinator cannot re-run on the merged
//! (telemetry-free) dataset. Instead each shard folds its machines into
//! [`CurveAccums`] — per-(bin, week) population/event counts plus the
//! population-share counters — and the coordinator absorbs the shard
//! accumulators in index order. Counting is exactly mergeable, so the
//! finalized curves are bit-identical to the monolithic
//! `usage::fig8_curves`/`rate_and_share_by_machine` passes.

use dcfail_core::consolidation::level_bins;
use dcfail_core::curve::{share_from_counts, AttributeCurve, CurveCounts};
use dcfail_core::onoff::onoff_bins;
use dcfail_core::usage::{Fig8Curves, UsageCounts};
use dcfail_model::prelude::*;
use dcfail_stats::binning::Bins;
use dcfail_stats::merge::{CountVec, Mergeable};
use serde::{Deserialize, Serialize};

/// What attributing one machine's failure events needs beyond its weekly
/// usage: its kind (which Fig. 8 panels it feeds) and, for VMs, the single
/// bin each week-invariant Fig. 9/10 attribute maps to.
pub(crate) struct Assign {
    kind: MachineKind,
    cons: Option<u16>,
    onoff: Option<u16>,
}

/// All telemetry-curve accumulators of one shard: the six Fig. 8 panels,
/// the Fig. 9/10 rate curves and the two population-share counters.
pub(crate) struct CurveAccums {
    level_bins: Bins,
    onoff_bins: Bins,
    usage: UsageCounts,
    consolidation: CurveCounts,
    onoff: CurveCounts,
    level_shares: CountVec,
    onoff_shares: CountVec,
}

/// The finalized telemetry-dependent artifacts, ready for
/// `render_fig8`/`render_fig9`/`render_fig10`.
pub struct ShardedCurves {
    /// The six Fig. 8 panel curves.
    pub fig8: Fig8Curves,
    /// Fig. 9 rate-vs-consolidation curve.
    pub fig9_curve: AttributeCurve,
    /// Fig. 9 population shares per consolidation level.
    pub fig9_shares: Vec<(String, f64)>,
    /// Fig. 10 rate-vs-on/off curve.
    pub fig10_curve: AttributeCurve,
    /// Fig. 10 population shares per on/off bucket.
    pub fig10_shares: Vec<(String, f64)>,
}

impl CurveAccums {
    /// Empty accumulators for a horizon of `weeks` observation weeks.
    ///
    /// Attribute names and bins mirror the monolithic runners
    /// (`usage::fig8_curves`, `consolidation::rate_by_consolidation`,
    /// `onoff::rate_by_onoff`) exactly — the merged finalize must be
    /// byte-identical to theirs.
    pub(crate) fn new(weeks: usize) -> Self {
        let level = level_bins();
        let onoff = onoff_bins();
        Self {
            usage: UsageCounts::new(weeks),
            consolidation: CurveCounts::new("consolidation", &level, weeks),
            onoff: CurveCounts::new("on/off per month", &onoff, weeks),
            level_shares: CountVec::zeros(level.len()),
            onoff_shares: CountVec::zeros(onoff.len()),
            level_bins: level,
            onoff_bins: onoff,
        }
    }

    /// Buckets one machine's telemetry into every curve its kind feeds,
    /// counting machine-weeks (and VM population shares), and returns what
    /// later event attribution needs.
    pub(crate) fn observe(&mut self, m: &Machine, telemetry: &Telemetry) -> Assign {
        let (id, kind) = (m.id(), m.kind());
        if let Some(series) = telemetry.usage(id) {
            self.usage.observe(kind, series);
        }
        if kind == MachineKind::Pm {
            return Assign {
                kind,
                cons: None,
                onoff: None,
            };
        }
        // Week-invariant attributes: computed and binned once per machine,
        // feeding both the rate curves and the shares.
        let level = telemetry.mean_consolidation(id);
        let rate = telemetry
            .onoff(id)
            .and_then(OnOffLog::monthly_transition_rate);
        let cons = self
            .consolidation
            .observe_machine_constant(&self.level_bins, level)
            .map(|b| b as u16);
        let onoff = self
            .onoff
            .observe_machine_constant(&self.onoff_bins, rate)
            .map(|b| b as u16);
        if let Some(bin) = cons {
            self.level_shares.add(bin as usize, 1);
        }
        if let Some(bin) = onoff {
            self.onoff_shares.add(bin as usize, 1);
        }
        Assign { kind, cons, onoff }
    }

    /// Counts one failure event in `week` of the machine behind `assign`,
    /// whose usage that week was `usage`: in every Fig. 8 panel the usage
    /// bins into, and in the Fig. 9/10 curves, whose constant bin covers
    /// every observation week.
    pub(crate) fn count_event(&mut self, assign: &Assign, week: usize, usage: Option<WeeklyUsage>) {
        if let Some(usage) = usage {
            self.usage.count_event(assign.kind, week, usage);
        }
        if let Some(bin) = assign.cons {
            self.consolidation.add_event(bin as usize, week);
        }
        if let Some(bin) = assign.onoff {
            self.onoff.add_event(bin as usize, week);
        }
    }
}

/// The serializable projection of [`CurveAccums`] a checkpoint segment
/// stores: the counts only. The `Bins` fields are pure functions of the
/// configuration constants (`util_bins()` et al.), so [`CurveAccums::
/// from_state`] reconstructs them instead of persisting them — `absorb`
/// never touches bins and `finalize` reads the reconstructed ones, so a
/// round-tripped accumulator finalizes to identical bytes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct CurveState {
    pm_cpu: CurveCounts,
    vm_cpu: CurveCounts,
    pm_mem: CurveCounts,
    vm_mem: CurveCounts,
    vm_disk: CurveCounts,
    vm_net: CurveCounts,
    consolidation: CurveCounts,
    onoff: CurveCounts,
    level_shares: CountVec,
    onoff_shares: CountVec,
}

impl CurveAccums {
    /// Extracts the checkpointable counts.
    pub(crate) fn to_state(&self) -> CurveState {
        CurveState {
            pm_cpu: self.usage.pm_cpu.clone(),
            vm_cpu: self.usage.vm_cpu.clone(),
            pm_mem: self.usage.pm_mem.clone(),
            vm_mem: self.usage.vm_mem.clone(),
            vm_disk: self.usage.disk.clone(),
            vm_net: self.usage.net.clone(),
            consolidation: self.consolidation.clone(),
            onoff: self.onoff.clone(),
            level_shares: self.level_shares.clone(),
            onoff_shares: self.onoff_shares.clone(),
        }
    }

    /// Rebuilds a full accumulator from checkpointed counts, restoring the
    /// bins from their constructors.
    pub(crate) fn from_state(state: CurveState) -> Self {
        let mut usage = UsageCounts::identity();
        usage.pm_cpu = state.pm_cpu;
        usage.vm_cpu = state.vm_cpu;
        usage.pm_mem = state.pm_mem;
        usage.vm_mem = state.vm_mem;
        usage.disk = state.vm_disk;
        usage.net = state.vm_net;
        Self {
            level_bins: level_bins(),
            onoff_bins: onoff_bins(),
            usage,
            consolidation: state.consolidation,
            onoff: state.onoff,
            level_shares: state.level_shares,
            onoff_shares: state.onoff_shares,
        }
    }
}

impl Mergeable for CurveAccums {
    type Output = ShardedCurves;

    fn identity() -> Self {
        Self {
            // The identity is only ever absorbed into, never observed.
            level_bins: level_bins(),
            onoff_bins: onoff_bins(),
            usage: UsageCounts::identity(),
            consolidation: CurveCounts::identity(),
            onoff: CurveCounts::identity(),
            level_shares: CountVec::identity(),
            onoff_shares: CountVec::identity(),
        }
    }

    fn absorb(&mut self, other: &Self) {
        self.usage.absorb(&other.usage);
        self.consolidation.absorb(&other.consolidation);
        self.onoff.absorb(&other.onoff);
        self.level_shares.absorb(&other.level_shares);
        self.onoff_shares.absorb(&other.onoff_shares);
    }

    fn finalize(self) -> ShardedCurves {
        let level_counts = self.level_shares.finalize();
        let onoff_counts = self.onoff_shares.finalize();
        ShardedCurves {
            fig8: self.usage.finalize(),
            fig9_curve: self.consolidation.finalize(),
            fig9_shares: share_from_counts(&self.level_bins, &level_counts),
            fig10_curve: self.onoff.finalize(),
            fig10_shares: share_from_counts(&self.onoff_bins, &onoff_counts),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcfail_stats::rng::StreamRng;
    use dcfail_synth::config::ScenarioConfig;
    use dcfail_synth::{population, telemetry_gen};

    #[test]
    fn curve_accums_absorb_law() {
        let mut config = ScenarioConfig::paper();
        config.scale = 0.01;
        let rng = StreamRng::new(9);
        let pop = population::build(&config, &rng);
        let telemetry = telemetry_gen::generate(&config, &pop, &rng);
        let weeks = config.horizon.num_weeks();
        assert!(pop.machines.len() >= 4, "scenario too small to split");

        // Whole pass: one accumulator observes every machine, with one
        // event per machine in week 0.
        let mut whole = CurveAccums::new(weeks);
        for m in &pop.machines {
            let assign = whole.observe(m, &telemetry);
            whole.count_event(&assign, 0, telemetry.usage_in_week(m.id(), 0));
        }

        // Sharded pass: two halves absorbed into the identity, in index
        // order — the shard==monolithic contract in miniature.
        let mid = pop.machines.len() / 2;
        let mut left = CurveAccums::new(weeks);
        for m in &pop.machines[..mid] {
            let assign = left.observe(m, &telemetry);
            left.count_event(&assign, 0, telemetry.usage_in_week(m.id(), 0));
        }
        let mut right = CurveAccums::new(weeks);
        for m in &pop.machines[mid..] {
            let assign = right.observe(m, &telemetry);
            right.count_event(&assign, 0, telemetry.usage_in_week(m.id(), 0));
        }
        let mut merged = CurveAccums::identity();
        merged.absorb(&left);
        merged.absorb(&right);

        let s = merged.finalize();
        let w = whole.finalize();
        assert_eq!(s.fig8.pm_cpu, w.fig8.pm_cpu);
        assert_eq!(s.fig8.vm_cpu, w.fig8.vm_cpu);
        assert_eq!(s.fig8.pm_mem, w.fig8.pm_mem);
        assert_eq!(s.fig8.vm_mem, w.fig8.vm_mem);
        assert_eq!(s.fig8.disk, w.fig8.disk);
        assert_eq!(s.fig8.net, w.fig8.net);
        assert_eq!(s.fig9_curve, w.fig9_curve);
        assert_eq!(s.fig9_shares, w.fig9_shares);
        assert_eq!(s.fig10_curve, w.fig10_curve);
        assert_eq!(s.fig10_shares, w.fig10_shares);
    }
}
