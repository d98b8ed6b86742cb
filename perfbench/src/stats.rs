//! Order statistics, hashing and process figures shared by the workloads.

/// The `p`-quantile (`0 < p < 1`) of `values` by the exclusive method —
/// the one Python's `statistics.quantiles` uses by default — so the
/// benchmark's own percentiles match a reader's check with the standard
/// library. Returns `NaN` for an empty slice.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        1 => v[0],
        _ => {
            let h = (p * (n + 1) as f64).clamp(1.0, n as f64);
            let lo = h.floor() as usize;
            if lo >= n {
                return v[n - 1];
            }
            v[lo - 1] + (h - lo as f64) * (v[lo] - v[lo - 1])
        }
    }
}

/// The median of `values` (`NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Samples strictly above the `p`-quantile: the guide for a reported
/// percentile is at least ten of them.
pub fn beyond(values: &[f64], p: f64) -> usize {
    let q = quantile(values, p);
    values.iter().filter(|&&v| v > q).count()
}

/// Arithmetic mean (`NaN` when empty).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// 64-bit FNV-1a over a byte string: the digest of a report or a map.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// FNV-1a over the exact bit patterns of a float slice.
pub fn hash_f32s(values: &[f32]) -> u64 {
    let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
    fnv1a(&bytes)
}

/// FNV-1a over the exact bit patterns of a float slice.
pub fn hash_f64s(values: &[f64]) -> u64 {
    let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
    fnv1a(&bytes)
}

/// The process's resident-set high-water mark in MiB (`VmHWM` from
/// `/proc/self/status`).
pub fn peak_rss_mb() -> Result<f64, String> {
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
        .map_err(|e| format!("bad VmHWM value: {e}"))?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.25), 2.75);
        assert_eq!(quantile(&v, 0.5), 5.5);
        assert_eq!(quantile(&v, 0.75), 8.25);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn hashes_see_single_bit_flips() {
        let a = [1.0f32, 2.0, 3.0];
        let mut b = a;
        b[1] = f32::from_bits(b[1].to_bits() ^ 1);
        assert_ne!(hash_f32s(&a), hash_f32s(&b));
    }
}
