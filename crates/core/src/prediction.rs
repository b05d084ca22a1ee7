//! Week-ahead failure prediction.
//!
//! The paper's related work (BlueGene/L, [10]) explores "the correlation
//! between the recurrence and the location of failures through an on-line
//! predictive model"; the paper itself stops at measurement. This module is
//! the natural extension: score every machine's probability of failing next
//! week from its history and attributes, and evaluate the scores against
//! what actually happened — walking forward in time, never peeking ahead.
//!
//! The predictor is deliberately simple and interpretable; its value is in
//! quantifying how much signal the paper's findings carry:
//!
//! * **recency** — failures recur (Table V: 35–42× random),
//! * **frequency** — past failure count marks lemons,
//! * **base rate** — kind × subsystem skews (Fig. 2).

use dcfail_model::prelude::*;
use serde::{Deserialize, Serialize};

/// Scoring weights for the week-ahead predictor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PredictorWeights {
    /// Added when the machine failed within the last week.
    pub recency_1w: f64,
    /// Added when the machine failed within the last month (28 days).
    pub recency_4w: f64,
    /// Per prior failure (capped at 5).
    pub per_prior_failure: f64,
    /// Weight of the group base rate (failures per machine-week so far).
    pub base_rate: f64,
}

impl Default for PredictorWeights {
    fn default() -> Self {
        Self {
            recency_1w: 0.20,
            recency_4w: 0.06,
            per_prior_failure: 0.02,
            base_rate: 1.0,
        }
    }
}

/// Evaluation of the predictor over the observation window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictionReport {
    /// Machine-week observations evaluated.
    pub observations: usize,
    /// Machine-weeks that actually failed.
    pub positives: usize,
    /// Fraction of next-week failures captured by the top-decile scores.
    pub recall_at_top_decile: f64,
    /// Lift of the top decile over a random decile.
    pub lift_at_top_decile: f64,
    /// Area under the ROC curve (probability a failing machine-week
    /// outscores a non-failing one).
    pub auc: f64,
}

/// Recency states a machine's last failure can put it in: the two flags
/// `(within a week, within four weeks)` packed as `2·w1 + w4`.
const RECENCY_STATES: usize = 4;
/// Prior-failure counts the score distinguishes (`0..=5`, capped).
const COUNT_STATES: usize = 6;
/// Score cells per (kind, subsystem) group.
const CELLS_PER_GROUP: usize = RECENCY_STATES * COUNT_STATES;

/// Walk-forward predictor state: everything the score reads, folded from
/// the events before the current week's start and advanced in one forward
/// pass.
///
/// A machine's score depends only on its *cell* — its group, its recency
/// flags and its capped prior-failure count — so [`Sweep::cell_scores`]
/// evaluates the one scoring expression once per cell, and
/// [`score_week`] and [`evaluate`] both read machine scores out of that
/// table.
struct Sweep<'a> {
    dataset: &'a FailureDataset,
    /// Index of the first event not yet folded in.
    next_event: usize,
    week: usize,
    week_start: SimTime,
    last_failure: Vec<Option<SimTime>>,
    failure_count: Vec<usize>,
    /// Dense (kind, subsystem) group of each machine.
    group_of: Vec<usize>,
    group_events: Vec<usize>,
    group_population: Vec<usize>,
}

impl<'a> Sweep<'a> {
    /// Fresh state at the start of week 0, with no history folded in.
    fn new(dataset: &'a FailureDataset) -> Self {
        let machines = dataset.machines();
        let group = |m: &Machine| {
            2 * m.subsystem().index()
                + match m.kind() {
                    MachineKind::Pm => 0,
                    MachineKind::Vm => 1,
                }
        };
        let group_of: Vec<usize> = machines.iter().map(group).collect();
        let groups = group_of.iter().max().map_or(0, |&g| g + 1);
        let mut group_population = vec![0; groups];
        for &g in &group_of {
            group_population[g] += 1;
        }
        Self {
            dataset,
            next_event: 0,
            week: 0,
            week_start: dataset.horizon().start(),
            last_failure: vec![None; machines.len()],
            failure_count: vec![0; machines.len()],
            group_of,
            group_events: vec![0; groups],
            group_population,
        }
    }

    /// Folds in every event before the start of `week`: events are
    /// time-sorted, so the fold stops at the first event at or after the
    /// week start and never peeks ahead.
    ///
    /// # Panics
    ///
    /// Panics if `week` is before the week already reached.
    fn advance_to(&mut self, week: usize) {
        assert!(week >= self.week, "the sweep only walks forward");
        self.week = week;
        self.week_start = self.dataset.horizon().start() + WEEK * week as i64;
        let events = self.dataset.events();
        while let Some(ev) = events.get(self.next_event) {
            if ev.at() >= self.week_start {
                break;
            }
            let i = ev.machine().index();
            self.last_failure[i] = Some(ev.at());
            self.failure_count[i] += 1;
            self.group_events[self.group_of[i]] += 1;
            self.next_event += 1;
        }
    }

    /// Number of score cells ([`Self::cell_of`] is always below it).
    fn num_cells(&self) -> usize {
        self.group_population.len() * CELLS_PER_GROUP
    }

    /// The score cell of machine `index` at the current week start.
    fn cell_of(&self, index: usize) -> usize {
        let recency = self.last_failure[index].map_or(0, |last| {
            let days = (self.week_start - last).as_days();
            2 * usize::from(days <= 7.0) + usize::from(days <= 28.0)
        });
        let count = self.failure_count[index].min(COUNT_STATES - 1);
        (self.group_of[index] * RECENCY_STATES + recency) * COUNT_STATES + count
    }

    /// The score of every cell at the current week start — the predictor's
    /// one scoring expression.
    fn cell_scores(&self, weights: &PredictorWeights) -> Vec<f64> {
        // Group base rates per machine-week observed so far.
        let weeks_so_far = self.week.max(1) as f64;
        let mut scores = Vec::with_capacity(self.num_cells());
        for (&events, &population) in self.group_events.iter().zip(&self.group_population) {
            let group_rate = events as f64 / population.max(1) as f64 / weeks_so_far;
            for recency in 0..RECENCY_STATES {
                for count in 0..COUNT_STATES {
                    let mut score = 0.0;
                    if recency & 2 != 0 {
                        score += weights.recency_1w;
                    }
                    if recency & 1 != 0 {
                        score += weights.recency_4w;
                    }
                    score += weights.per_prior_failure * count as f64;
                    score += weights.base_rate * group_rate;
                    scores.push(score);
                }
            }
        }
        scores
    }
}

/// Scores every machine at the start of `week` using only history before
/// that week, returning `(machine, score)`.
pub fn score_week(
    dataset: &FailureDataset,
    week: usize,
    weights: &PredictorWeights,
) -> Vec<(MachineId, f64)> {
    let mut sweep = Sweep::new(dataset);
    sweep.advance_to(week);
    let scores = sweep.cell_scores(weights);
    dataset
        .machines()
        .iter()
        .enumerate()
        .map(|(i, m)| (m.id(), scores[sweep.cell_of(i)]))
        .collect()
}

/// Walk-forward evaluation: for each week from `start_week` on, score all
/// machines on history and compare against that week's actual failures.
///
/// One forward [`Sweep`] scores every machine-week. Ranking needs no sort
/// over machine-weeks: each distinct score carries a (machine-weeks,
/// positives) tally — a few per group, recency state and count each week —
/// and the AUC's mid-ranks and the top-decile cut are read off the sorted
/// tally. Scores are assumed non-NaN (finite weights).
///
/// Returns `None` when no machine-week fails in the evaluation span.
pub fn evaluate(
    dataset: &FailureDataset,
    start_week: usize,
    weights: &PredictorWeights,
) -> Option<PredictionReport> {
    let horizon = dataset.horizon();
    let weeks = horizon.num_weeks();
    let machines = dataset.machines().len();
    // Actual failures per (week, machine): a dense weeks × machines bitset.
    let mut failed = vec![0u64; (weeks * machines).div_ceil(64)];
    for ev in dataset.events() {
        if let Some(w) = horizon.week_of(ev.at()) {
            let bit = w * machines + ev.machine().index();
            failed[bit / 64] |= 1 << (bit % 64);
        }
    }
    let is_failed = |bit: usize| failed[bit / 64] >> (bit % 64) & 1 == 1;

    // Walk forward: per machine-week, its (week, cell) key; per key, the
    // score and the (machine-weeks, positives) tally.
    let mut sweep = Sweep::new(dataset);
    let span = weeks.saturating_sub(start_week);
    let mut keys: Vec<u32> = Vec::with_capacity(span * machines);
    let mut key_scores: Vec<f64> = Vec::with_capacity(span * sweep.num_cells());
    let mut tally: Vec<(usize, usize)> = vec![(0, 0); span * sweep.num_cells()];
    for week in start_week..weeks {
        sweep.advance_to(week);
        let base = key_scores.len();
        key_scores.extend(sweep.cell_scores(weights));
        for i in 0..machines {
            let key = base + sweep.cell_of(i);
            let cell = &mut tally[key];
            cell.0 += 1;
            cell.1 += usize::from(is_failed(week * machines + i));
            keys.push(u32::try_from(key).expect("score keys fit in u32"));
        }
    }
    let observations = keys.len();
    let positives: usize = tally.iter().map(|&(_, p)| p).sum();
    if positives == 0 {
        return None;
    }

    // Distinct scores in ascending total order with their tallies. Keys
    // whose scores compare equal under `total_cmp` (identical bits) merge.
    let mut by_score: Vec<(f64, usize, usize)> = tally
        .iter()
        .zip(&key_scores)
        .filter(|&(&(n, _), _)| n > 0)
        .map(|(&(n, p), &s)| (s, n, p))
        .collect();
    by_score.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
    let mut distinct: Vec<(f64, usize, usize)> = Vec::with_capacity(by_score.len());
    for (s, n, p) in by_score {
        match distinct.last_mut() {
            Some(last) if last.0.total_cmp(&s).is_eq() => {
                last.1 += n;
                last.2 += p;
            }
            _ => distinct.push((s, n, p)),
        }
    }

    // Top decile by score; machine-week order is the explicit tie-break, so
    // the cutoff is a total order. Whole tie groups above the cut count in
    // bulk; only the group straddling it is scanned in machine-week order.
    let decile = (observations / 10).max(1);
    let mut remaining = decile;
    let mut hits = 0;
    for &(score, n, p) in distinct.iter().rev() {
        if n <= remaining {
            hits += p;
            remaining -= n;
            continue;
        }
        let straddling = keys
            .iter()
            .enumerate()
            .filter(|&(_, &key)| key_scores[key as usize].total_cmp(&score).is_eq())
            .take(remaining);
        for (obs, _) in straddling {
            let week = start_week + obs / machines;
            hits += usize::from(is_failed(week * machines + obs % machines));
        }
        break;
    }
    let recall = hits as f64 / positives as f64;
    let random_recall = decile as f64 / observations as f64;

    // AUC via rank statistic (ties, grouped with `==`, get mid-ranks). Ranks
    // are half-integers and their sum stays far below 2^52, so the sum is
    // exact whatever the summation order.
    let mut pos_rank_sum = 0.0;
    let mut below = 0;
    let mut i = 0;
    while i < distinct.len() {
        let (first, mut n, mut p) = distinct[i];
        let mut j = i + 1;
        while j < distinct.len() && distinct[j].0 == first {
            n += distinct[j].1;
            p += distinct[j].2;
            j += 1;
        }
        // Ranks below+1 ..= below+n (1-based), averaged over the tie group.
        let mid_rank = (2 * below + n - 1) as f64 / 2.0 + 1.0;
        pos_rank_sum += p as f64 * mid_rank;
        below += n;
        i = j;
    }
    let n_pos = positives as f64;
    let n_neg = (observations - positives) as f64;
    let auc = (pos_rank_sum - n_pos * (n_pos + 1.0) / 2.0) / (n_pos * n_neg);

    Some(PredictionReport {
        observations,
        positives,
        recall_at_top_decile: recall,
        lift_at_top_decile: recall / random_recall,
        auc,
    })
}

/// The per-week rescan the sweep replaced, kept as the equality oracle:
/// every week re-folds the whole event prefix into fresh maps, and the
/// ranking sorts every scored machine-week.
#[cfg(test)]
mod oracle {
    use super::{PredictionReport, PredictorWeights};
    use dcfail_model::prelude::*;
    use std::collections::BTreeMap;

    pub fn score_week(
        dataset: &FailureDataset,
        week: usize,
        weights: &PredictorWeights,
    ) -> Vec<(MachineId, f64)> {
        let horizon = dataset.horizon();
        let week_start = horizon.start() + WEEK * week as i64;
        let mut last_failure: BTreeMap<MachineId, SimTime> = BTreeMap::new();
        let mut failure_count: BTreeMap<MachineId, usize> = BTreeMap::new();
        let mut group_events: BTreeMap<(MachineKind, SubsystemId), usize> = BTreeMap::new();
        for ev in dataset.events() {
            if ev.at() >= week_start {
                break;
            }
            last_failure.insert(ev.machine(), ev.at());
            *failure_count.entry(ev.machine()).or_insert(0) += 1;
            let m = dataset.machine(ev.machine());
            *group_events.entry((m.kind(), m.subsystem())).or_insert(0) += 1;
        }
        let weeks_so_far = week.max(1) as f64;
        let mut group_rate: BTreeMap<(MachineKind, SubsystemId), f64> = BTreeMap::new();
        for (&key, &events) in &group_events {
            let population = dataset.population(key.0, Some(key.1)).max(1);
            group_rate.insert(key, events as f64 / population as f64 / weeks_so_far);
        }
        dataset
            .machines()
            .iter()
            .map(|m| {
                let mut score = 0.0;
                if let Some(&last) = last_failure.get(&m.id()) {
                    let days = (week_start - last).as_days();
                    if days <= 7.0 {
                        score += weights.recency_1w;
                    }
                    if days <= 28.0 {
                        score += weights.recency_4w;
                    }
                }
                let count = failure_count.get(&m.id()).copied().unwrap_or(0).min(5);
                score += weights.per_prior_failure * count as f64;
                score += weights.base_rate
                    * group_rate
                        .get(&(m.kind(), m.subsystem()))
                        .copied()
                        .unwrap_or(0.0);
                (m.id(), score)
            })
            .collect()
    }

    pub fn evaluate(
        dataset: &FailureDataset,
        start_week: usize,
        weights: &PredictorWeights,
    ) -> Option<PredictionReport> {
        let weeks = dataset.horizon().num_weeks();
        let mut failed: BTreeMap<(usize, MachineId), bool> = BTreeMap::new();
        for ev in dataset.events() {
            if let Some(w) = dataset.horizon().week_of(ev.at()) {
                failed.insert((w, ev.machine()), true);
            }
        }
        let mut scored: Vec<(f64, bool)> = Vec::new();
        for week in start_week..weeks {
            for (machine, score) in score_week(dataset, week, weights) {
                scored.push((score, failed.contains_key(&(week, machine))));
            }
        }
        let positives = scored.iter().filter(|&&(_, p)| p).count();
        if positives == 0 {
            return None;
        }
        let mut by_score: Vec<(usize, (f64, bool))> = scored.iter().copied().enumerate().collect();
        by_score.sort_unstable_by(|(i, a), (j, b)| b.0.total_cmp(&a.0).then(i.cmp(j)));
        let decile = (by_score.len() / 10).max(1);
        let hits = by_score[..decile].iter().filter(|&&(_, (_, p))| p).count();
        let recall = hits as f64 / positives as f64;
        let random_recall = decile as f64 / by_score.len() as f64;
        let scores: Vec<f64> = scored.iter().map(|&(s, _)| s).collect();
        let ranks = dcfail_stats::corr::ranks(&scores);
        let pos_rank_sum: f64 = scored
            .iter()
            .zip(&ranks)
            .filter(|((_, p), _)| *p)
            .map(|(_, &r)| r)
            .sum();
        let n_pos = positives as f64;
        let n_neg = (scored.len() - positives) as f64;
        let auc = (pos_rank_sum - n_pos * (n_pos + 1.0) / 2.0) / (n_pos * n_neg);
        Some(PredictionReport {
            observations: scored.len(),
            positives,
            recall_at_top_decile: recall,
            lift_at_top_decile: recall / random_recall,
            auc,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn predictor_beats_random() {
        let ds = testutil::dataset();
        let report = evaluate(ds, 8, &PredictorWeights::default()).expect("failures exist");
        // Recurrence alone guarantees real lift: a failing machine is
        // ~40-60x more likely to fail next week.
        assert!(report.auc > 0.6, "AUC {}", report.auc);
        assert!(
            report.lift_at_top_decile > 2.0,
            "lift {}",
            report.lift_at_top_decile
        );
        assert!(report.positives > 100);
        assert!(report.observations > 100_000);
        assert!((0.0..=1.0).contains(&report.recall_at_top_decile));
    }

    #[test]
    fn scores_never_peek_ahead() {
        let ds = testutil::dataset();
        // Week-0 scores use no event history: only zero base rates.
        let w0 = score_week(ds, 0, &PredictorWeights::default());
        assert!(w0.iter().all(|&(_, s)| s == 0.0));
        // Later weeks produce nonzero scores.
        let w20 = score_week(ds, 20, &PredictorWeights::default());
        assert!(w20.iter().any(|&(_, s)| s > 0.0));
        assert_eq!(w20.len(), ds.machines().len());
    }

    #[test]
    fn recent_failures_raise_scores() {
        let ds = testutil::dataset();
        let weights = PredictorWeights::default();
        // Find a machine that failed in week 19.
        let failed_machine = ds
            .events()
            .iter()
            .find(|ev| ds.horizon().week_of(ev.at()) == Some(19))
            .map(FailureEvent::machine)
            .expect("some failure in week 19");
        let scores: BTreeMap<MachineId, f64> = score_week(ds, 20, &weights).into_iter().collect();
        let failed_score = scores[&failed_machine];
        // It must outscore a never-failed machine of the same group.
        let m = ds.machine(failed_machine);
        let virgin = ds
            .machines()
            .iter()
            .find(|x| {
                x.kind() == m.kind()
                    && x.subsystem() == m.subsystem()
                    && ds.events_for(x.id()).next().is_none()
            })
            .expect("some never-failed peer");
        assert!(failed_score > scores[&virgin.id()]);
    }

    #[test]
    fn zero_weights_give_chance_auc() {
        let ds = testutil::dataset();
        let weights = PredictorWeights {
            recency_1w: 0.0,
            recency_4w: 0.0,
            per_prior_failure: 0.0,
            base_rate: 0.0,
        };
        let report = evaluate(ds, 8, &weights).unwrap();
        // All scores equal ⇒ AUC = 0.5 by mid-rank convention.
        assert!((report.auc - 0.5).abs() < 1e-9, "AUC {}", report.auc);
    }

    /// Asserts the sweep's report equals the oracle's, AUC bit for bit.
    fn assert_matches_oracle(ds: &FailureDataset, start_week: usize, weights: &PredictorWeights) {
        let fast = evaluate(ds, start_week, weights);
        let slow = oracle::evaluate(ds, start_week, weights);
        assert_eq!(fast, slow, "start week {start_week}, weights {weights:?}");
        if let (Some(f), Some(s)) = (fast, slow) {
            assert_eq!(f.auc.to_bits(), s.auc.to_bits());
            assert_eq!(
                f.recall_at_top_decile.to_bits(),
                s.recall_at_top_decile.to_bits()
            );
        }
    }

    #[test]
    fn sweep_matches_oracle_at_full_scale() {
        let ds = testutil::dataset();
        assert_matches_oracle(ds, 8, &PredictorWeights::default());
        for week in [0, 8, 20, 51] {
            assert_eq!(
                score_week(ds, week, &PredictorWeights::default()),
                oracle::score_week(ds, week, &PredictorWeights::default())
            );
        }
    }

    /// Weight values the property test draws from: zero, both signs, the
    /// defaults' magnitudes and a large base-rate scale.
    const WEIGHT_POOL: [f64; 7] = [0.0, -0.0, 0.02, 0.06, 0.2, -0.35, 1.0];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn sweep_matches_oracle(
            seed in 1u64..13,
            large in any::<bool>(),
            picks in proptest::collection::vec(0usize..WEIGHT_POOL.len() + 1, 4..5),
            free in -2.0f64..2.0,
            start in 0usize..5,
        ) {
            let scale = if large { 0.2 } else { 0.02 };
            let ds = dcfail_synth::Scenario::paper()
                .seed(seed)
                .scale(scale)
                .build()
                .into_dataset();
            // The last pick draws a free value instead of a pool entry.
            let w = |i: usize| WEIGHT_POOL.get(picks[i]).copied().unwrap_or(free);
            let weights = PredictorWeights {
                recency_1w: w(0),
                recency_4w: w(1),
                per_prior_failure: w(2),
                base_rate: w(3),
            };
            let weeks = ds.horizon().num_weeks();
            let start_week = [0, 8, weeks / 2, weeks - 1, weeks + 8][start];
            assert_matches_oracle(&ds, start_week, &weights);
            let week = start_week.min(weeks);
            prop_assert_eq!(
                score_week(&ds, week, &weights),
                oracle::score_week(&ds, week, &weights)
            );
        }
    }

    #[test]
    fn evaluation_past_the_horizon_is_none() {
        let ds = testutil::tiny();
        let weeks = ds.horizon().num_weeks();
        for start in [weeks, weeks + 10] {
            assert_eq!(evaluate(ds, start, &PredictorWeights::default()), None);
            assert_eq!(
                oracle::evaluate(ds, start, &PredictorWeights::default()),
                None
            );
        }
    }
}
