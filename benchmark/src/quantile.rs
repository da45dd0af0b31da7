//! Percentile picker over raw samples (nearest rank, no interpolation).

/// A percentile above the median is only reported when at least this many
/// samples lie beyond it; otherwise it is the maximum in disguise.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// The `p`-th percentile (0 < p ≤ 100) of `samples`. Refuses an empty
/// sample, and refuses a percentile above 50 that has fewer than
/// [`MIN_SAMPLES_BEYOND`] samples beyond it (a p95 needs 200 samples).
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    if samples.is_empty() {
        return Err("no samples".into());
    }
    assert!(p > 0.0 && p <= 100.0, "percentile out of range: {p}");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    let beyond = sorted.len() - rank;
    if p > 50.0 && beyond < MIN_SAMPLES_BEYOND {
        return Err(format!(
            "p{p} of {} samples has only {beyond} beyond it (need {MIN_SAMPLES_BEYOND})",
            sorted.len()
        ));
    }
    Ok(sorted[rank - 1])
}

/// Median, or 0 for an empty sample (a layer the workload never crossed).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).unwrap_or(0.0)
}

/// Median of the quietest stretch of a timing series: `samples`, in the
/// order they were taken, are cut into 24 consecutive chunks (of at least 5)
/// and the lowest chunk median is returned. Host contention comes in bursts
/// and only adds time, so this is what the code costs when the host lets it
/// (see `workloads::BLOCK_S`); on a quiet host it is the median.
pub fn quiet_median(samples: &[f64]) -> f64 {
    let chunk = (samples.len() / 24).max(5);
    samples
        .chunks(chunk)
        .filter(|c| c.len() == chunk)
        .map(median)
        .reduce(f64::min)
        .unwrap_or_else(|| median(samples))
}

/// `percentile`, or 0 when the run was too short to support it (smoke
/// runs); the short sample count is printed beside the value.
pub fn percentile_or_zero(samples: &[f64], p: f64) -> f64 {
    percentile(samples, p).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_samples() {
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0).unwrap(), 100.0);
        assert_eq!(percentile(&s, 95.0).unwrap(), 190.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn quiet_median_ignores_a_disturbed_stretch() {
        // 240 samples: the first half disturbed (x1.5), the second quiet.
        let s: Vec<f64> = (0..240)
            .map(|i| if i < 120 { 15.0 } else { 10.0 })
            .collect();
        assert_eq!(quiet_median(&s), 10.0);
        let mostly_slow: Vec<f64> = (0..240)
            .map(|i| if i < 200 { 15.0 } else { 10.0 })
            .collect();
        assert_eq!(median(&mostly_slow), 15.0);
        assert_eq!(quiet_median(&mostly_slow), 10.0);
        // Too short to cut: the plain median.
        assert_eq!(quiet_median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quiet_median(&[]), 0.0);
    }

    #[test]
    fn refuses_a_p95_without_ten_samples_beyond_it() {
        let short: Vec<f64> = (1..=199).map(f64::from).collect();
        let err = percentile(&short, 95.0).unwrap_err();
        assert!(err.contains("beyond"), "{err}");
        let enough: Vec<f64> = (1..=200).map(f64::from).collect();
        assert!(percentile(&enough, 95.0).is_ok());
        // The median carries no such requirement.
        assert!(percentile(&[1.0], 50.0).is_ok());
        assert!(percentile(&[], 50.0).is_err());
    }
}
