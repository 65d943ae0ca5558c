//! Order statistics over raw latency samples.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// A percentile that the run cannot support: too few samples lie beyond it.
#[derive(Debug, PartialEq, Eq)]
pub struct ThinTail {
    pub samples: usize,
    pub beyond: usize,
}

impl std::fmt::Display for ThinTail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "only {} of {} samples lie beyond the percentile (need {MIN_TAIL_SAMPLES})",
            self.beyond, self.samples
        )
    }
}

/// The `q`-quantile (nearest rank) of ascending `sorted` samples,
/// refused unless at least [`MIN_TAIL_SAMPLES`] samples lie beyond it.
pub fn percentile(sorted: &[u64], q: f64) -> Result<u64, ThinTail> {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_TAIL_SAMPLES {
        return Err(ThinTail { samples: n, beyond });
    }
    Ok(sorted[rank - 1])
}

/// Median of a non-empty slice (sorted in place).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let samples: Vec<u64> = (1..=999).collect();
        assert_eq!(
            percentile(&samples, 0.99),
            Err(ThinTail {
                samples: 999,
                beyond: 9
            })
        );
        let samples: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&samples, 0.99), Ok(990));
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn median_of_small_sets() {
        let samples: Vec<u64> = (1..=21).collect();
        assert_eq!(percentile(&samples, 0.5), Ok(11));
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
