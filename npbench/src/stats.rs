//! Order statistics over raw samples: nearest-rank percentiles (no
//! buckets), the ten-beyond rule, quartiles, and the rule by which a run's
//! repetitions become one reported value.
//!
//! **Many short repetitions, their median.** The box the benchmark was
//! defined on is a shared virtual machine. Its speed moves with its
//! neighbours, both ways: for minutes it runs 20 % below its best with
//! bursts of a few seconds at full speed, at other times it wanders by
//! ±25 % from second to second. The median over twenty half-second
//! repetitions ignores bursts in either direction as long as they are the
//! minority; the best repetition (tried, and measured beside the median on
//! the same raw samples) halves the spread while the host wanders but turns
//! bimodal when full-speed bursts come and go, because a run either catches
//! one or does not. Repetitions too short to hold [`MIN_CHUNK_OPS`]
//! operations are merged before the median is taken, and a percentile is
//! read per chunk, never off the whole run: one stall of the host would
//! own the pooled tail.

/// A metric's value as reported: the median over `n` repetitions, and
/// their first and third quartile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// A single measurement (a count, or a figure over `n` pooled samples).
    pub fn one(value: f64, n: usize) -> Summary {
        Summary {
            value,
            q1: value,
            q3: value,
            n,
        }
    }

    /// Median and quartiles over repetitions.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn over(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary {
            value: median(values),
            q1,
            q3,
            n: values.len(),
        }
    }

    /// The inter-quartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; the mean of the two middle values for an even count.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method), so the spread computed here is the
/// one the acceptance check computes. Fewer than two samples have no spread.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` percent of the samples at or below it.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// A percentile is read off a sample only with ten samples beyond it.
pub const BEYOND: usize = 10;
/// A repetition too short to hold this many operations is merged with its
/// neighbours: a rate over a few dozen operations is mostly counting noise.
pub const MIN_CHUNK_OPS: usize = 400;

/// Consecutive repetitions are merged into chunks: the fewest repetitions
/// per chunk such that every chunk (of `sizes[i]` operations each, the
/// last, shorter chunk too) holds [`MIN_CHUNK_OPS`]. When even all of them
/// together do not, they are one chunk.
pub fn reps_per_chunk(sizes: &[usize]) -> usize {
    (1..sizes.len())
        .find(|&k| sizes.chunks(k).all(|c| c.iter().sum::<usize>() >= MIN_CHUNK_OPS))
        .unwrap_or(sizes.len().max(1))
}

/// Percentile `p` of an ascending sample, or the highest percentile that
/// still has [`BEYOND`] samples beyond it (never below the median): the tail
/// of a chunk of 500 is its 490th value, not its 495th.
pub fn supported_percentile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    let highest = n.saturating_sub(BEYOND).max(rank(n, 50.0));
    sorted[rank(n, p).min(highest) - 1]
}

/// Percentile `p` of per-repetition latency samples: the median over
/// chunks (see [`reps_per_chunk`]) of each chunk's
/// [`supported_percentile`], nearest-rank over the chunk's own samples.
///
/// # Panics
///
/// Panics if there are no samples at all.
pub fn percentile_over_reps(reps: &[&[f64]], p: f64) -> Summary {
    let sizes: Vec<usize> = reps.iter().map(|r| r.len()).collect();
    let per_chunk: Vec<f64> = reps
        .chunks(reps_per_chunk(&sizes))
        .map(|c| supported_percentile(&sorted(&c.concat()), p))
        .collect();
    Summary::over(&per_chunk)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_the_textbook_definition() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), 50.0);
        assert_eq!(nearest_rank(&v, 99.0), 99.0);
        assert_eq!(nearest_rank(&v, 100.0), 100.0);
        let five = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(nearest_rank(&five, 30.0), 20.0);
        assert_eq!(nearest_rank(&five, 40.0), 20.0);
        assert_eq!(nearest_rank(&five, 50.0), 35.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1000 leaves 10 beyond; of 999 only 9, so rank 989 stands in.
        assert_eq!(supported_percentile(&v, 99.0), 990.0);
        assert_eq!(supported_percentile(&v[..999], 99.0), 989.0);
        assert_eq!(supported_percentile(&v[..500], 99.0), 490.0);
        // The median is never given up: of 12 samples it is still the 6th.
        assert_eq!(supported_percentile(&v[..12], 99.0), 6.0);
        assert_eq!(supported_percentile(&v[..12], 50.0), 6.0);
    }

    #[test]
    fn short_repetitions_merge_before_the_median_is_taken() {
        assert_eq!(reps_per_chunk(&[500, 500, 500]), 1);
        // Three per chunk would leave a last chunk of two, 300 operations.
        assert_eq!(reps_per_chunk(&[150; 20]), 4);
        assert_eq!(reps_per_chunk(&[10, 10]), 2);
        // Four repetitions of 200: two chunks of 400, whose p99 is read at
        // rank 390 (ten beyond): 1195 and 195, and their median.
        let quiet: Vec<f64> = (1..=200).map(f64::from).collect();
        let loud: Vec<f64> = quiet.iter().map(|x| x + 1000.0).collect();
        let s = percentile_over_reps(&[&loud, &loud, &quiet, &quiet], 99.0);
        assert_eq!((s.value, s.n), (695.0, 2));
        // Repetitions of 500 stand alone.
        let long: Vec<f64> = (1..=500).map(f64::from).collect();
        assert_eq!(percentile_over_reps(&[&long, &long, &long], 50.0).n, 3);
        // A smoke run's 30 samples are one chunk, read at rank 20.
        let tiny: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(percentile_over_reps(&[&tiny], 99.0).value, 20.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3,1,4,1,5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 4.5));
        assert_eq!(median(&[3.0, 1.0, 4.0, 1.0, 5.0]), 3.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }
}
