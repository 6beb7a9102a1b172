//! Sample statistics the reports are built from: medians, percentiles,
//! geometric means, and the interval arithmetic behind span self time.

/// Percentile `p` in `[0, 1]` by linear interpolation between closest
/// ranks (the "inclusive" method: `p = 0` is the minimum, `p = 1` the
/// maximum). Returns 0 for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Median (the 0.5 percentile).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Geometric mean of strictly positive values; 0 for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values
        .iter()
        .map(|v| v.max(f64::MIN_POSITIVE).ln())
        .sum::<f64>()
        / values.len() as f64)
        .exp()
}

/// The highest of p90 / p95 / p99 / p99.9 that still has at least ten
/// samples beyond it, as `(label, p)`; `None` when even p90 does not.
pub fn supported_tail(n: usize) -> Option<(&'static str, f64)> {
    // Per mille, so that 100 samples beyond p90 count as exactly ten.
    [("p99.9", 999), ("p99", 990), ("p95", 950), ("p90", 900)]
        .into_iter()
        .find(|&(_, per_mille)| n * (1000 - per_mille) >= 10_000)
        .map(|(label, per_mille)| (label, per_mille as f64 / 1e3))
}

/// Total length covered by the union of `[start, end)` intervals.
pub fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut open: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        if e <= s {
            continue;
        }
        match &mut open {
            Some((_, oe)) if s <= *oe => *oe = (*oe).max(e),
            _ => {
                if let Some((os, oe)) = open {
                    covered += oe - os;
                }
                open = Some((s, e));
            }
        }
    }
    if let Some((os, oe)) = open {
        covered += oe - os;
    }
    covered
}

/// Self time of a span `[start, end)`: its duration minus the part of it
/// that the union of its children covers. Children are clipped to the
/// span, so a child that outlives its parent cannot drive this negative.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .collect();
    (end - start) - union_len(&mut clipped)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 4.0);
        assert_eq!(median(&s), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
        let hundred: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.95), 96.0);
    }

    #[test]
    fn geomean_is_scale_symmetric() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(99), None);
        assert_eq!(supported_tail(100), Some(("p90", 0.90)));
        assert_eq!(supported_tail(200), Some(("p95", 0.95)));
        assert_eq!(supported_tail(1_000), Some(("p99", 0.99)));
        assert_eq!(supported_tail(72_000), Some(("p99.9", 0.999)));
    }

    #[test]
    fn union_merges_overlaps_and_skips_empty() {
        assert_eq!(union_len(&mut []), 0);
        assert_eq!(
            union_len(&mut [(0, 10), (5, 15), (20, 30), (30, 31), (7, 7)]),
            26
        );
        assert_eq!(union_len(&mut [(10, 20), (0, 100)]), 100);
    }

    #[test]
    fn self_time_subtracts_the_union_of_clipped_children() {
        // Two overlapping children on different threads plus one that
        // sticks out past the parent's end.
        assert_eq!(
            self_time(100, 200, &[(110, 150), (140, 160), (190, 250)]),
            40
        );
        assert_eq!(self_time(0, 10, &[]), 10);
        assert_eq!(self_time(0, 10, &[(0, 10), (2, 3)]), 0);
    }
}
