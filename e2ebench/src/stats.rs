//! Latency samples, windowed counter deltas and process memory.

use phast_obs::{MetricValue, Report};
use serde::Value;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Length of the slices a measured window is cut into. Each end-to-end
/// rate and median latency is the median over the slices of that slice's
/// figure, so a burst of interference from outside the benchmark moves one
/// slice, not the result.
pub const SLICE: Duration = Duration::from_secs(1);

/// Durations of one operation class, in milliseconds, each with the
/// instant it was recorded (the operation's completion).
#[derive(Clone, Debug, Default)]
pub struct Samples {
    ms: Vec<f64>,
    at: Vec<Instant>,
}

/// Figures of the samples inside a set of windows.
#[derive(Clone, Copy, Debug)]
pub struct Steady {
    /// Operations completed per second: median over slices.
    pub rate: f64,
    /// Median latency: median over slices of each slice's median.
    pub p50: f64,
    /// Tail percentiles: the median over slices of each slice's tail when
    /// every slice has at least ten samples beyond it, else the tail of
    /// all samples inside the windows.
    pub p95: f64,
    pub p99: f64,
}

pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[m - 1] + v[m]) / 2.0
    } else {
        v[m]
    }
}

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.ms.push(d.as_secs_f64() * 1e3);
        self.at.push(Instant::now());
    }

    pub fn extend(&mut self, other: &Samples) {
        self.ms.extend_from_slice(&other.ms);
        self.at.extend_from_slice(&other.at);
    }

    /// Rate and percentiles of the samples recorded inside `windows`; see
    /// [`Steady`] for how each is taken.
    pub fn steady(&self, windows: &[(Instant, Instant)]) -> Steady {
        let mut inside = Samples::default();
        let mut parts: Vec<(Samples, f64)> = Vec::new();
        for &(start, end) in windows {
            let n = ((end - start).as_secs_f64() / SLICE.as_secs_f64())
                .round()
                .max(1.0) as usize;
            let len = (end - start) / n as u32;
            let first = parts.len();
            parts.extend((0..n).map(|_| (Samples::default(), len.as_secs_f64())));
            for (&ms, &at) in self.ms.iter().zip(&self.at) {
                if at >= start && at < end {
                    let i = (((at - start).as_secs_f64() / len.as_secs_f64()) as usize).min(n - 1);
                    parts[first + i].0.ms.push(ms);
                    parts[first + i].0.at.push(at);
                    inside.ms.push(ms);
                    inside.at.push(at);
                }
            }
        }
        let filled: Vec<&Samples> = parts
            .iter()
            .map(|(p, _)| p)
            .filter(|p| p.len() > 0)
            .collect();
        let tail = |q: f64| {
            let supported = (10.0 / (1.0 - q)).ceil() as usize;
            if parts.iter().all(|(p, _)| p.len() >= supported) {
                median(filled.iter().map(|p| p.pct(q)).collect())
            } else {
                inside.pct(q)
            }
        };
        Steady {
            rate: median(
                parts
                    .iter()
                    .map(|(p, secs)| p.len() as f64 / secs)
                    .collect(),
            ),
            p50: median(filled.iter().map(|p| p.p50()).collect()),
            p95: tail(0.95),
            p99: tail(0.99),
        }
    }

    pub fn len(&self) -> usize {
        self.ms.len()
    }

    /// Nearest-rank percentile `q` in `[0, 1]`; `NaN` without samples.
    pub fn pct(&self, q: f64) -> f64 {
        if self.ms.is_empty() {
            return f64::NAN;
        }
        let mut v = self.ms.clone();
        v.sort_by(f64::total_cmp);
        let rank = (q * v.len() as f64).ceil() as usize;
        v[rank.clamp(1, v.len()) - 1]
    }

    pub fn p50(&self) -> f64 {
        self.pct(0.5)
    }

    pub fn p99(&self) -> f64 {
        self.pct(0.99)
    }

    /// Mean, the additive statistic a layer budget is summed from.
    pub fn mean(&self) -> f64 {
        if self.ms.is_empty() {
            return f64::NAN;
        }
        self.ms.iter().sum::<f64>() / self.ms.len() as f64
    }
}

/// A snapshot of cumulative counters (counts and nanosecond times), read
/// from a `phast-obs` report or from the wire `stats` op. Ratios are left
/// out on purpose: a cumulative ratio cannot be windowed, so every ratio
/// the benchmark reports is recomputed from windowed counts.
#[derive(Clone, Debug, Default)]
pub struct Counters(BTreeMap<String, f64>);

impl Counters {
    pub fn from_report(r: &Report) -> Counters {
        Counters(
            r.entries()
                .iter()
                .filter_map(|(name, v)| match v {
                    MetricValue::Count(c) => Some((name.clone(), *c as f64)),
                    MetricValue::Time(d) => Some((name.clone(), d.as_nanos() as f64)),
                    _ => None,
                })
                .collect(),
        )
    }

    /// Reads the `metrics` object of a wire `stats` reply, where counts and
    /// times are both integers (times in nanoseconds).
    pub fn from_stats_reply(v: &Value) -> Counters {
        let mut out = BTreeMap::new();
        if let Some(Value::Object(fields)) = v.get("metrics") {
            for (name, value) in fields {
                if let Value::Int(i) = value {
                    out.insert(name.clone(), *i as f64);
                }
            }
        }
        Counters(out)
    }

    /// `later - self` for every counter; a counter missing on either side
    /// reads as zero.
    pub fn delta(&self, later: &Counters) -> Counters {
        Counters(
            later
                .0
                .iter()
                .map(|(k, v)| (k.clone(), v - self.0.get(k).copied().unwrap_or(0.0)))
                .collect(),
        )
    }

    /// Adds `other` counter by counter (two windows read as one).
    pub fn add(&mut self, other: &Counters) {
        for (k, v) in &other.0 {
            *self.0.entry(k.clone()).or_default() += v;
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// A nanosecond counter in milliseconds.
    pub fn ms(&self, name: &str) -> f64 {
        self.get(name) / 1e6
    }
}

/// `num / den`, or zero when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut s = Samples::default();
        for ms in 1..=100 {
            s.push(Duration::from_millis(ms));
        }
        assert_eq!(s.p50(), 50.0);
        assert_eq!(s.p99(), 99.0);
        assert_eq!(s.pct(1.0), 100.0);
        assert_eq!(s.mean(), 50.5);
    }

    #[test]
    fn steady_figures_are_medians_over_slices() {
        let start = Instant::now();
        let mut s = Samples::default();
        // Two windows of one-second slices: four quiet slices and one
        // burst; samples outside both windows are ignored. The burst moves
        // no median, but the tail over all samples sees it.
        let slices = [
            (0, 10, 1.0),
            (1, 10, 1.0),
            (2, 40, 9.0),
            (5, 10, 1.0),
            (6, 10, 1.0),
            (4, 99, 50.0),
        ];
        for (second, count, ms) in slices {
            for _ in 0..count {
                s.ms.push(ms);
                s.at.push(start + Duration::from_millis(second * 1000 + 500));
            }
        }
        let secs = |a, b| {
            (
                start + Duration::from_secs(a),
                start + Duration::from_secs(b),
            )
        };
        let st = s.steady(&[secs(0, 3), secs(5, 7)]);
        assert_eq!((st.rate, st.p50, st.p95, st.p99), (10.0, 1.0, 9.0, 9.0));
    }

    #[test]
    fn tails_come_from_slices_that_support_them() {
        // Five one-second slices of 1,000 samples: enough for a p99 of
        // their own, so the burst slice moves no tail either.
        let start = Instant::now();
        let mut s = Samples::default();
        for second in 0..5u64 {
            let ms = if second == 2 { 9.0 } else { 1.0 };
            for _ in 0..1000 {
                s.ms.push(ms);
                s.at.push(start + Duration::from_millis(second * 1000 + 500));
            }
        }
        let st = s.steady(&[(start, start + Duration::from_secs(5))]);
        assert_eq!((st.p50, st.p95, st.p99), (1.0, 1.0, 1.0));
        assert_eq!(s.pct(0.99), 9.0, "the pooled tail sees the burst");
    }

    #[test]
    fn deltas_window_cumulative_counters() {
        let mut a = Report::new("a");
        a.push_count("served", 900)
            .push_ratio("mean_batch_occupancy", 2.0);
        let mut b = Report::new("b");
        b.push_count("served", 923)
            .push_time("sweep_time", Duration::from_millis(3))
            .push_ratio("mean_batch_occupancy", 2.1);
        let d = Counters::from_report(&a).delta(&Counters::from_report(&b));
        assert_eq!(d.get("served"), 23.0);
        assert_eq!(d.ms("sweep_time"), 3.0);
        assert_eq!(
            d.get("mean_batch_occupancy"),
            0.0,
            "ratios are never windowed"
        );
    }
}
