//! Shared helpers: seed derivation, order statistics, failure accounting,
//! memory measurement and the result line.

use std::fmt::Write as _;
use std::time::Instant;

/// Derives the `index`-th seed of sub-stream `stream` from the workload
/// seed (SplitMix64 finaliser). Every schedule in the benchmark — iteration
/// seeds, reorder jitter, the serve request mix, what-if seeds, refresh
/// seeds and kill points — comes from here, so the same `--seed` always
/// produces the same work. Seeds are kept below 2^48 so they survive a JSON
/// round trip as exact integers.
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ index.wrapping_add(1).wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) & ((1 << 48) - 1)
}

/// Milliseconds elapsed since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values` (sorted here).
/// Returns NaN for an empty sample or one holding NaN (a value that could
/// not be measured), which the result line reports as a failure rather
/// than a number.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() || values.iter().any(|v| v.is_nan()) {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let h = q * (sorted.len() - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Operations attempted and failed. Every correctness gate, every request
/// and every pipeline pass is one operation; a failed one is reported on
/// stderr and makes the process exit nonzero.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one operation; `ok == false` counts it as failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED: {}", what());
        }
    }

    /// Folds in counts gathered elsewhere (client threads).
    pub fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// Named metric values in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// Whether every value is a finite number (JSON has no NaN).
    pub fn all_finite(&self) -> bool {
        self.0.iter().all(|(_, v, _)| v.is_finite())
    }

    /// Names of the values that are not finite numbers.
    pub fn non_finite(&self) -> impl Iterator<Item = &str> {
        self.0
            .iter()
            .filter(|(_, v, _)| !v.is_finite())
            .map(|(name, _, _)| name.as_str())
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn result_line(&self, tally: &Tally) -> String {
        let correct = tally.failed == 0 && self.all_finite();
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            tally.attempted.max(1),
            tally.failed
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { -1.0 };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Fixes glibc's allocation thresholds for the whole process. By default
/// glibc raises them each time a large block is freed (mmap up to 32 MiB,
/// trim up to 64 MiB), after which every thread arena may keep that much
/// freed memory resident, out of reach of `malloc_trim`. How much it keeps
/// depends on the run's history and on which arenas the scheduler's
/// threads landed in, so per-unit peaks crept upward through a run, by a
/// different amount in each run. The mmap threshold is fixed at glibc's
/// ceiling, so large blocks come from the arenas as in a long-running
/// process, and the trim threshold at glibc's default 128 KiB, so a freed
/// arena top goes back at once. Returns whether glibc accepted both; off
/// glibc there is nothing to fix.
#[must_use]
pub fn pin_malloc() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: mallopt takes no pointers and only sets allocator
        // parameters; glibc serialises it against other allocator calls.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, 128 << 10) == 1
        }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    true
}

/// Hands freed heap pages back to the kernel (glibc `malloc_trim`), so
/// every unit starts from the same kind of heap and the next
/// [`reset_peak_rss`] does not count memory earlier work freed but the
/// allocator kept.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: glibc's malloc_trim takes no pointers and may be called at
    // any time; it only returns free pages of the allocator's arenas.
    unsafe {
        malloc_trim(0);
    }
}

/// Resets this process's resident-memory high-water mark to its current
/// RSS (Linux `clear_refs` code 5), so the next [`peak_rss_mb`] reading
/// covers only what ran in between. Returns whether it was reset: when it
/// was not (no `/proc`, or `clear_refs` refused), `VmHWM` still holds the
/// peak of all earlier work and must not be reported as a unit's peak.
#[must_use]
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Runs one unit of timed work: returns `f`'s result, its wall time in ms
/// and the peak resident memory while it ran, in MiB — NaN when the
/// high-water mark could not be reset. [`trim_heap`] and [`reset_peak_rss`]
/// run first, outside the timed span.
pub fn unit<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    trim_heap();
    let reset = reset_peak_rss();
    let start = Instant::now();
    let out = f();
    let ms = ms_since(start);
    let peak = if reset { peak_rss_mb() } else { f64::NAN };
    (out, ms, peak)
}

/// Peak resident set size of this process in MiB (`VmHWM`), NaN when
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The unsigned integer following `"key":` in a JSON text (whitespace
/// tolerant) — enough to read `data_version` out of an envelope and
/// counter values out of the obs export without a JSON parser.
pub fn json_u64_after(text: &str, needle: &str) -> Option<u64> {
    let at = text.find(needle)? + needle.len();
    let rest = text[at..].trim_start_matches([' ', ':']);
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// A counter's value in a dcfail-obs JSON export (`MetricsReport::to_json`).
pub fn obs_counter(json: &str, name: &str) -> u64 {
    json_u64_after(json, &format!("{{\"name\": \"{name}\", \"value\"")).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.99), 9.9);
        assert!(median(&[]).is_nan());
        assert!(median(&[1.0, f64::NAN, 2.0]).is_nan());
    }

    #[test]
    fn derived_seeds_are_distinct_and_stable() {
        assert_eq!(derive(1, 2, 3), derive(1, 2, 3));
        assert_ne!(derive(1, 2, 3), derive(1, 2, 4));
        assert_ne!(derive(1, 2, 3), derive(1, 3, 3));
        assert!(derive(u64::MAX, 9, 9) < 1 << 48);
    }

    #[test]
    fn json_fields_are_read() {
        let env = "{\"schema_version\":1,\"experiment_id\":\"fig8\",\"data_version\":12,\"x\":0}";
        assert_eq!(json_u64_after(env, "\"data_version\""), Some(12));
        let obs = "{\n  \"counters\": [\n    {\"name\": \"toolkit.cache_hit\", \"value\": 77}]}";
        assert_eq!(obs_counter(obs, "toolkit.cache_hit"), 77);
        assert_eq!(obs_counter(obs, "toolkit.cache_miss"), 0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.5, "s");
        let line = m.result_line(&Tally {
            attempted: 3,
            failed: 0,
        });
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
