//! Quartiles as Python's `statistics` module computes them, so the
//! steadiness report agrees with any external check of the same runs.
//! Medians and percentiles come from `regmon_stats`.

/// First and third quartiles, as `statistics.quantiles(values, n=4)`
/// computes them (the default "exclusive" method).
///
/// # Panics
///
/// With fewer than two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len() as i64;
    let m = ld + 1;
    let n = 4i64;
    let cut = |i: i64| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = i * m - j * n;
        (v[j as usize - 1] * (n - delta) as f64 + v[j as usize] * delta as f64) / n as f64
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }
}
