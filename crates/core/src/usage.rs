//! Failure rate vs resource usage (Fig. 8).
//!
//! Usage attributes vary week by week, so machine-weeks (not machines) are
//! bucketed: a machine at 5% CPU in March and 40% in June contributes to
//! both buckets. Panels: CPU utilization (a), memory utilization (b), disk
//! utilization (c, VM-only) and network volume in Kbps (d, VM-only) — the
//! paper has no PM disk/network usage either.

use crate::curve::{AttributeCurve, CurveCounts};
use dcfail_model::prelude::*;
use dcfail_stats::binning::Bins;
use dcfail_stats::merge::Mergeable;

/// Utilization-percentage bins (0–100 in 10-point steps) shared by the
/// Fig. 8 CPU/memory/disk panels.
pub fn util_bins() -> Bins {
    Bins::linear(0.0, 100.0, 10)
}

/// Network-volume bins (power-of-two Kbps over the paper's 2 Kbps – 8 Mbps
/// range) for Fig. 8(d).
pub fn net_bins() -> Bins {
    Bins::log2(1, 13) // 2 Kbps .. 8192 Kbps
}

/// The six Fig. 8 panel curves, in rendering order.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8Curves {
    /// 8(a) PM CPU utilization.
    pub pm_cpu: AttributeCurve,
    /// 8(a) VM CPU utilization.
    pub vm_cpu: AttributeCurve,
    /// 8(b) PM memory utilization.
    pub pm_mem: AttributeCurve,
    /// 8(b) VM memory utilization.
    pub vm_mem: AttributeCurve,
    /// 8(c) VM disk utilization.
    pub disk: AttributeCurve,
    /// 8(d) VM network volume.
    pub net: AttributeCurve,
}

/// Mergeable per-(bin, week) counts behind the six Fig. 8 panels, fed by
/// one pass over each machine's weekly usage series.
///
/// PMs feed the CPU and memory panels 8(a)/(b); VMs feed those plus disk
/// 8(c) and network 8(d). An event is attributed by looking up its
/// machine's usage in the event's week, so no machines × weeks bin grid is
/// ever built. Whole-fleet ([`fig8_curves`]) and sharded passes count the
/// same integers, so [`Mergeable::finalize`] yields identical curves.
#[derive(Debug, Clone, PartialEq)]
pub struct UsageCounts {
    util_bins: Bins,
    net_bins: Bins,
    /// 8(a) PM CPU utilization counts.
    pub pm_cpu: CurveCounts,
    /// 8(a) VM CPU utilization counts.
    pub vm_cpu: CurveCounts,
    /// 8(b) PM memory utilization counts.
    pub pm_mem: CurveCounts,
    /// 8(b) VM memory utilization counts.
    pub vm_mem: CurveCounts,
    /// 8(c) VM disk utilization counts.
    pub disk: CurveCounts,
    /// 8(d) VM network volume counts.
    pub net: CurveCounts,
}

impl UsageCounts {
    /// Empty counts over `weeks` observation weeks.
    pub fn new(weeks: usize) -> Self {
        let util = util_bins();
        let net = net_bins();
        Self {
            pm_cpu: CurveCounts::new("cpu util %", &util, weeks),
            vm_cpu: CurveCounts::new("cpu util %", &util, weeks),
            pm_mem: CurveCounts::new("mem util %", &util, weeks),
            vm_mem: CurveCounts::new("mem util %", &util, weeks),
            disk: CurveCounts::new("disk util %", &util, weeks),
            net: CurveCounts::new("net kbps", &net, weeks),
            util_bins: util,
            net_bins: net,
        }
    }

    /// Buckets one machine's weekly usage series into every panel its kind
    /// feeds, counting each binned machine-week. Entries past the
    /// observation weeks are ignored.
    pub fn observe(&mut self, kind: MachineKind, series: &[WeeklyUsage]) {
        for (week, &usage) in series.iter().take(self.pm_cpu.weeks()).enumerate() {
            self.for_each_bin(kind, usage, |counts, bin| {
                counts.add_machine_week(bin, week);
            });
        }
    }

    /// Counts one failure event in `week` of a machine of `kind` whose usage
    /// that week was `usage`, in every panel the usage bins into.
    pub fn count_event(&mut self, kind: MachineKind, week: usize, usage: WeeklyUsage) {
        self.for_each_bin(kind, usage, |counts, bin| counts.add_event(bin, week));
    }

    /// Calls `f(panel, bin)` for every panel of `kind` whose attribute
    /// value in `usage` falls into a bin.
    fn for_each_bin(
        &mut self,
        kind: MachineKind,
        usage: WeeklyUsage,
        mut f: impl FnMut(&mut CurveCounts, usize),
    ) {
        let util = &self.util_bins;
        let mut hit = |counts: &mut CurveCounts, bins: &Bins, value: f64| {
            if let Some(bin) = bins.index_of(value) {
                f(counts, bin);
            }
        };
        let cpu = f64::from(usage.cpu_pct);
        let mem = f64::from(usage.mem_pct);
        match kind {
            MachineKind::Pm => {
                hit(&mut self.pm_cpu, util, cpu);
                hit(&mut self.pm_mem, util, mem);
            }
            MachineKind::Vm => {
                hit(&mut self.vm_cpu, util, cpu);
                hit(&mut self.vm_mem, util, mem);
                hit(&mut self.disk, util, f64::from(usage.disk_pct));
                hit(&mut self.net, &self.net_bins, f64::from(usage.net_kbps));
            }
        }
    }
}

impl Mergeable for UsageCounts {
    type Output = Fig8Curves;

    fn identity() -> Self {
        Self {
            util_bins: util_bins(),
            net_bins: net_bins(),
            pm_cpu: CurveCounts::identity(),
            vm_cpu: CurveCounts::identity(),
            pm_mem: CurveCounts::identity(),
            vm_mem: CurveCounts::identity(),
            disk: CurveCounts::identity(),
            net: CurveCounts::identity(),
        }
    }

    fn absorb(&mut self, other: &Self) {
        self.pm_cpu.absorb(&other.pm_cpu);
        self.vm_cpu.absorb(&other.vm_cpu);
        self.pm_mem.absorb(&other.pm_mem);
        self.vm_mem.absorb(&other.vm_mem);
        self.disk.absorb(&other.disk);
        self.net.absorb(&other.net);
    }

    fn finalize(self) -> Fig8Curves {
        Fig8Curves {
            pm_cpu: self.pm_cpu.finalize(),
            vm_cpu: self.vm_cpu.finalize(),
            pm_mem: self.pm_mem.finalize(),
            vm_mem: self.vm_mem.finalize(),
            disk: self.disk.finalize(),
            net: self.net.finalize(),
        }
    }
}

/// All six Fig. 8 panels in one pass: each machine's weekly usage series is
/// read once, and each failure event looks up its machine's usage in its
/// week.
pub fn fig8_curves(dataset: &FailureDataset) -> Fig8Curves {
    let telemetry = dataset.telemetry();
    let mut counts = UsageCounts::new(dataset.horizon().num_weeks());
    for m in dataset.machines() {
        if let Some(series) = telemetry.usage(m.id()) {
            counts.observe(m.kind(), series);
        }
    }
    for ev in dataset.events() {
        let Some(week) = dataset.horizon().week_of(ev.at()) else {
            continue;
        };
        if let Some(usage) = telemetry.usage_in_week(ev.machine(), week) {
            counts.count_event(dataset.machine(ev.machine()).kind(), week, usage);
        }
    }
    counts.finalize()
}

/// Fig. 8(a): weekly failure rate vs CPU utilization (10-point bins).
/// Computes every panel; read [`fig8_curves`] when several are needed.
pub fn rate_by_cpu_util(dataset: &FailureDataset, kind: MachineKind) -> AttributeCurve {
    let curves = fig8_curves(dataset);
    match kind {
        MachineKind::Pm => curves.pm_cpu,
        MachineKind::Vm => curves.vm_cpu,
    }
}

/// Fig. 8(b): weekly failure rate vs memory utilization.
/// Computes every panel; read [`fig8_curves`] when several are needed.
pub fn rate_by_mem_util(dataset: &FailureDataset, kind: MachineKind) -> AttributeCurve {
    let curves = fig8_curves(dataset);
    match kind {
        MachineKind::Pm => curves.pm_mem,
        MachineKind::Vm => curves.vm_mem,
    }
}

/// Fig. 8(c): weekly VM failure rate vs disk-space utilization.
/// Computes every panel; read [`fig8_curves`] when several are needed.
pub fn rate_by_disk_util(dataset: &FailureDataset) -> AttributeCurve {
    fig8_curves(dataset).disk
}

/// Fig. 8(d): weekly VM failure rate vs network volume (Kbps, power-of-two
/// bins over the paper's 2 Kbps – 8 Mbps range).
/// Computes every panel; read [`fig8_curves`] when several are needed.
pub fn rate_by_network(dataset: &FailureDataset) -> AttributeCurve {
    fig8_curves(dataset).net
}

/// The six-pass Fig. 8 the single-pass kernel replaced, kept as the
/// equality oracle: one `weekly_rate_by` pass per panel, each looking
/// usage up per machine-week and binning events through a flat grid.
#[cfg(test)]
mod oracle {
    use super::{net_bins, util_bins, Fig8Curves};
    use crate::curve::{weekly_rate_by, AttributeCurve};
    use dcfail_model::prelude::*;

    fn panel(
        dataset: &FailureDataset,
        attribute: &str,
        bins: &dcfail_stats::binning::Bins,
        kind: MachineKind,
        value: impl Fn(WeeklyUsage) -> f32,
    ) -> AttributeCurve {
        weekly_rate_by(dataset, attribute, bins, kind, |m, w| {
            dataset
                .telemetry()
                .usage_in_week(m.id(), w)
                .map(|u| f64::from(value(u)))
        })
    }

    pub fn fig8_curves(dataset: &FailureDataset) -> Fig8Curves {
        let (util, net) = (util_bins(), net_bins());
        Fig8Curves {
            pm_cpu: panel(dataset, "cpu util %", &util, MachineKind::Pm, |u| u.cpu_pct),
            vm_cpu: panel(dataset, "cpu util %", &util, MachineKind::Vm, |u| u.cpu_pct),
            pm_mem: panel(dataset, "mem util %", &util, MachineKind::Pm, |u| u.mem_pct),
            vm_mem: panel(dataset, "mem util %", &util, MachineKind::Vm, |u| u.mem_pct),
            disk: panel(dataset, "disk util %", &util, MachineKind::Vm, |u| {
                u.disk_pct
            }),
            net: panel(dataset, "net kbps", &net, MachineKind::Vm, |u| u.net_kbps),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;
    use proptest::prelude::*;

    fn low_mid_rates(curve: &AttributeCurve) -> (f64, f64) {
        // Mean of the 0-20% buckets vs the 20-40% buckets, weighting by
        // machine-weeks.
        let avg = |labels: &[&str]| {
            let pts: Vec<_> = curve
                .points
                .iter()
                .filter(|p| labels.contains(&p.label.as_str()))
                .collect();
            let mw: usize = pts.iter().map(|p| p.machine_weeks).sum();
            pts.iter()
                .map(|p| p.mean * p.machine_weeks as f64)
                .sum::<f64>()
                / mw.max(1) as f64
        };
        (avg(&["0-10", "10-20"]), avg(&["20-30", "30-40"]))
    }

    #[test]
    fn vm_cpu_util_rate_increases_while_pm_decreases() {
        let ds = testutil::dataset();
        let vm = rate_by_cpu_util(ds, MachineKind::Vm);
        let (vm_low, vm_mid) = low_mid_rates(&vm);
        assert!(
            vm_mid > 1.3 * vm_low,
            "VM: mid {vm_mid} should exceed low {vm_low}"
        );
        let pm = rate_by_cpu_util(ds, MachineKind::Pm);
        let (pm_low, pm_mid) = low_mid_rates(&pm);
        assert!(
            pm_low > 1.3 * pm_mid,
            "PM: low {pm_low} should exceed mid {pm_mid}"
        );
    }

    #[test]
    fn memory_util_is_inverted_bathtub() {
        let ds = testutil::dataset();
        for kind in MachineKind::ALL {
            let curve = rate_by_mem_util(ds, kind);
            let low = curve.mean_of("0-10").unwrap();
            let mid = curve.mean_of("30-40").or(curve.mean_of("40-50")).unwrap();
            let high = curve
                .mean_of("80-90")
                .or(curve.mean_of("70-80"))
                .or(curve.mean_of("90-100"))
                .unwrap();
            assert!(mid > low, "{kind}: mid {mid} vs low {low}");
            assert!(mid > high, "{kind}: mid {mid} vs high {high}");
        }
    }

    #[test]
    fn pm_memory_util_impact_exceeds_vm() {
        let ds = testutil::dataset();
        let pm = rate_by_mem_util(ds, MachineKind::Pm)
            .dynamic_range()
            .unwrap();
        let vm = rate_by_mem_util(ds, MachineKind::Vm)
            .dynamic_range()
            .unwrap();
        assert!(pm > vm, "pm {pm} vs vm {vm}");
    }

    #[test]
    fn disk_util_mildly_increases() {
        let ds = testutil::dataset();
        let curve = rate_by_disk_util(ds);
        let low = curve.mean_of("0-10").unwrap();
        let high = curve.mean_of("80-90").or(curve.mean_of("70-80")).unwrap();
        assert!(high > low, "high {high} vs low {low}");
        // Milder than the VM CPU effect (the paper's comparison).
        let cpu = rate_by_cpu_util(ds, MachineKind::Vm);
        assert!(curve.dynamic_range().unwrap() < cpu.dynamic_range().unwrap() * 1.5);
    }

    #[test]
    fn network_peaks_at_low_volume() {
        let ds = testutil::dataset();
        let curve = rate_by_network(ds);
        // Rate near the 32-64 Kbps peak beats the megabit tail.
        let peak = curve.mean_of("32-64").or(curve.mean_of("16-32")).unwrap();
        let tail = curve
            .mean_of("4096-8192")
            .or(curve.mean_of("2048-4096"))
            .unwrap();
        assert!(peak > tail, "peak {peak} vs tail {tail}");
    }

    #[test]
    fn usage_buckets_skew_low() {
        let ds = testutil::dataset();
        let curve = rate_by_cpu_util(ds, MachineKind::Vm);
        let total: usize = curve.points.iter().map(|p| p.machine_weeks).sum();
        let low: usize = curve
            .points
            .iter()
            .filter(|p| p.label == "0-10")
            .map(|p| p.machine_weeks)
            .sum();
        // Paper: more than half of machines run at ≤ 10% CPU.
        assert!(low as f64 / total as f64 > 0.5);
    }

    #[test]
    fn single_pass_matches_six_pass_oracle() {
        for ds in [testutil::dataset(), testutil::tiny()] {
            assert_eq!(fig8_curves(ds), oracle::fig8_curves(ds));
        }
    }

    #[test]
    fn usage_counts_absorb_law() {
        let ds = testutil::tiny();
        let telemetry = ds.telemetry();
        let weeks = ds.horizon().num_weeks();
        // Each half observes its machines and counts their events.
        let half = |range: std::ops::Range<usize>| {
            let mut counts = UsageCounts::new(weeks);
            for m in &ds.machines()[range.clone()] {
                if let Some(series) = telemetry.usage(m.id()) {
                    counts.observe(m.kind(), series);
                }
            }
            for ev in ds.events() {
                let Some(week) = ds.horizon().week_of(ev.at()) else {
                    continue;
                };
                let usage = telemetry.usage_in_week(ev.machine(), week);
                if let (true, Some(usage)) = (range.contains(&ev.machine().index()), usage) {
                    counts.count_event(ds.machine(ev.machine()).kind(), week, usage);
                }
            }
            counts
        };
        let mid = ds.machines().len() / 2;
        let mut merged = UsageCounts::identity();
        merged.absorb(&half(0..mid));
        merged.absorb(&half(mid..ds.machines().len()));
        assert_eq!(merged, half(0..ds.machines().len()));
        assert_eq!(merged.finalize(), fig8_curves(ds));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn single_pass_matches_oracle_across_seeds(seed in 1u64..13, large in any::<bool>()) {
            let ds = dcfail_synth::Scenario::paper()
                .seed(seed)
                .scale(if large { 0.2 } else { 0.02 })
                .build()
                .into_dataset();
            prop_assert_eq!(fig8_curves(&ds), oracle::fig8_curves(&ds));
        }
    }

    #[test]
    fn missing_short_and_unbinnable_usage_match_oracle() {
        let builder = || {
            let mut topo = Topology::new();
            topo.add_subsystem(SubsystemMeta::new(SubsystemId::new(0), "Sys I"));
            let mut b = DatasetBuilder::new();
            b.topology(topo);
            for i in 0..3 {
                b.add_machine(Machine::new_pm(
                    MachineId::new(i),
                    SubsystemId::new(0),
                    PowerDomainId::new(0),
                    ResourceCapacity::default(),
                    None,
                ));
            }
            b
        };
        // No telemetry at all: every panel is empty.
        let bare = builder().build();
        let empty = fig8_curves(&bare);
        assert!(empty.pm_cpu.points.is_empty() && empty.net.points.is_empty());
        assert_eq!(empty, oracle::fig8_curves(&bare));

        // A full series, a short one with NaN and out-of-range values, and a
        // series longer than the horizon.
        let weeks = bare.horizon().num_weeks();
        let mut telemetry = Telemetry::new();
        let full = (0..weeks)
            .map(|w| WeeklyUsage::new(w as f32, 100.0 - w as f32, 50.0, 64.0))
            .collect();
        telemetry.set_usage(MachineId::new(0), full);
        let short = vec![
            WeeklyUsage {
                cpu_pct: f32::NAN,
                mem_pct: 101.0,
                disk_pct: -1.0,
                net_kbps: 0.5,
            };
            3
        ];
        telemetry.set_usage(MachineId::new(1), short);
        telemetry.set_usage(MachineId::new(2), vec![WeeklyUsage::default(); weeks + 4]);
        let mut b = builder();
        b.telemetry(telemetry);
        let ds = b.build();
        let curves = fig8_curves(&ds);
        assert!(!curves.pm_cpu.points.is_empty());
        assert_eq!(curves, oracle::fig8_curves(&ds));
    }
}
