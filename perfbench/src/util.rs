//! Small helpers: digests, statistics, host time, host memory and the
//! result line.

use std::fmt::Write as _;
use std::time::Instant;

/// FNV-1a 64 of `bytes`: a stable digest of simulated output, so two
/// benchmark runs (or two commits) can be compared by one number.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Host CPU seconds this thread has run so far (`/proc/thread-self/
/// schedstat`). The end-to-end times use it rather than the wall clock:
/// the benchmark is single-threaded, and on a shared host the wall clock
/// also counts the time the hypervisor gives the CPU to someone else.
///
/// # Panics
///
/// Panics if the kernel does not provide the file: there is no time to
/// report without it.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat")
        .expect("reading /proc/thread-self/schedstat, the benchmark's clock");
    let ns: u64 = stat
        .split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .unwrap_or_else(|| panic!("no run time in schedstat {stat:?}"));
    ns as f64 / 1e9
}

/// Host time of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunTime {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// CPU seconds.
    pub cpu_s: f64,
}

impl RunTime {
    /// Times `f`.
    pub fn of<T>(f: impl FnOnce() -> T) -> (RunTime, T) {
        let (t, c) = (Instant::now(), cpu_seconds());
        let out = f();
        (RunTime { cpu_s: cpu_seconds() - c, wall_s: t.elapsed().as_secs_f64() }, out)
    }
}

/// Runs `f`, adding its host (wall-clock) seconds to `acc`.
pub fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed().as_secs_f64();
    out
}

/// Median of `values` (mean of the middle two for an even count); NaN
/// when nothing was measured.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line {line:?}: {e}"))?;
    Ok(kib / 1024.0)
}

/// Decides which calls of a hot path get timed: on average one in
/// `mean_gap`, with pseudo-random gaps so a loop whose period divides
/// the gap cannot bias which calls are seen.
#[derive(Debug)]
pub struct SpanSampler {
    mean_gap: u64,
    countdown: u64,
    rng: u64,
}

impl SpanSampler {
    /// A sampler timing about one call in `mean_gap` (at least 1).
    pub fn new(mean_gap: u64) -> SpanSampler {
        let mut s =
            SpanSampler { mean_gap: mean_gap.max(1), countdown: 0, rng: 0x9e37_79b9_7f4a_7c15 };
        s.countdown = s.next_gap();
        s
    }

    fn next_gap(&mut self) -> u64 {
        // xorshift64: gaps uniform in 1..2*mean_gap, mean `mean_gap`.
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        1 + self.rng % (2 * self.mean_gap - 1)
    }

    /// `true` if this call is to be timed.
    #[inline]
    pub fn due(&mut self) -> bool {
        self.countdown -= 1;
        if self.countdown > 0 {
            return false;
        }
        self.countdown = self.next_gap();
        true
    }
}

/// Longest span taken as the code's own cost: no sampled call takes a
/// millisecond, so a longer span means the host descheduled the process.
const SPAN_CAP_NS: u128 = 1_000_000;

/// A sampled span total: mean ns per timed call, net of the empty span.
#[derive(Debug, Default, Clone, Copy)]
pub struct SampledNs {
    /// Calls timed.
    timed: u64,
    /// Sum of their spans, ns.
    total_ns: u128,
}

impl SampledNs {
    /// Ends a span begun at `start`, if this call is timed, and returns
    /// the end as the start of the next span. An interrupted span is not
    /// counted.
    #[inline]
    pub fn lap(&mut self, start: Option<Instant>) -> Option<Instant> {
        let start = start?;
        let now = Instant::now();
        let ns = (now - start).as_nanos();
        if ns <= SPAN_CAP_NS {
            self.timed += 1;
            self.total_ns += ns;
        }
        Some(now)
    }

    /// Mean ns per timed call.
    pub fn mean(&self) -> f64 {
        ratio(self.total_ns as f64, self.timed as f64)
    }

    /// Mean ns per call net of the timer's own cost, `empty`: spans timed
    /// around nothing at the same sampled calls. Without it a component
    /// that costs less than the timer reads as the timer's cost.
    pub fn net_mean(&self, empty: &SampledNs) -> f64 {
        if self.timed == 0 {
            return 0.0;
        }
        self.mean() - empty.mean()
    }
}

/// One metric of the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Renders the result JSON object: the last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // `{:?}` prints the shortest exact representation of the f64.
        let value = if m.value.is_finite() { format!("{:?}", m.value) } else { "0.0".to_string() };
        let _ = write!(s, "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn sampler_gap_mean_is_close_to_requested() {
        let mut s = SpanSampler::new(64);
        let due = (0..640_000).filter(|_| s.due()).count();
        assert!((9_000..11_000).contains(&due), "{due}");
    }

    #[test]
    fn result_line_shape() {
        let m = [Metric { name: "wall_s", value: 1.5, unit: "s" }];
        assert_eq!(
            result_line(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }
}
