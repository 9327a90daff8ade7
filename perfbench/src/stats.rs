//! Small numeric helpers: order statistics, process memory, JSON output.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by the nearest-rank method
/// on the sorted sample; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (lower median for even sample sizes).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `(max − min) / median`: how far a counter that may legitimately vary
/// moved across iterations. 0 when the median is 0.
pub fn relative_range(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / m
}

/// Index of the sample holding the (lower) median value.
pub fn median_index(values: &[f64]) -> usize {
    let m = median(values);
    values.iter().position(|&v| v == m).unwrap_or(0)
}

/// Samples at or above the `q`-quantile: the guide's rule is to report a
/// percentile only when at least ten samples lie beyond it.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Reset the kernel's resident-set high-water mark for this process
/// (`/proc/self/clear_refs`, value 5) to the current resident set, after
/// handing freed heap pages back to the kernel so that the mark starts
/// from live data rather than from whatever earlier work left cached in
/// the allocator. Returns whether the reset worked.
pub fn reset_peak_rss() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: glibc's malloc_trim only releases free heap memory.
    unsafe {
        malloc_trim(0);
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// This process's resident-set high-water mark (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Bytes to MiB.
pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Shorthand constructor. JSON has no NaN or infinity, so a value that
/// is not finite (a ratio over an empty sample) is reported as 0.
pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// The result line: `{"correct": …, "attempted": …, "failed": …,
/// "metrics": {name: {"value": …, "unit": …}}}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Shortest round-trip decimal form ([`metric`] keeps values finite).
fn json_number(v: f64) -> String {
    let text = format!("{v:?}");
    text.strip_suffix(".0").map(str::to_string).unwrap_or(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(median(&v), 100.0);
        assert_eq!(quantile(&v, 0.95), 190.0);
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_is_json_shaped() {
        let line = result_json(
            true,
            3,
            0,
            &[metric("query_s", 1.25, "s"), metric("n", 4.0, "count")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"query_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"n\": {\"value\": 4, \"unit\": \"count\"}}}"
        );
    }
}
