//! Order statistics and process readings.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by the nearest-rank rule.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The tail percentile of `n` samples and the samples beyond its nearest
/// rank: the highest of p99.9, p99, p95 and p90 that leaves at least ten
/// samples beyond it, else p50.
pub fn tail_percentile(n: usize) -> (f64, usize) {
    [999, 990, 950, 900, 500]
        .into_iter()
        .map(|per_mille| (per_mille, n - (n * per_mille).div_ceil(1000)))
        .find(|&(per_mille, beyond)| beyond >= 10 || per_mille == 500)
        .map(|(per_mille, beyond)| (per_mille as f64 / 10.0, beyond))
        .expect("p50 always qualifies")
}

/// The process's peak resident set so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(100), (90.0, 10));
        assert_eq!(tail_percentile(200), (95.0, 10));
        assert_eq!(tail_percentile(1000), (99.0, 10));
        assert_eq!(tail_percentile(30), (50.0, 15));
    }
}
