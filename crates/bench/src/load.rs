//! Load generation and latency summaries shared by the closed-loop
//! serving and store benches.

use panda_core::rng::SplitRng;
use panda_core::PointSet;

/// Serving traffic with popularity skew: every request is a small
/// perturbation of one of `hotspots` popular dataset points, and each
/// client proxies many users, so *consecutive* requests of one client
/// jump between hotspots. A per-thread stream therefore has no usable
/// locality — only cross-client coalescing (a service's Morton pass over
/// each micro-batch) and shard routing can group co-located queries back
/// together.
pub fn client_queries(
    points: &PointSet,
    hotspots: usize,
    client: usize,
    requests: usize,
    seed: u64,
) -> Vec<PointSet> {
    let dims = points.dims();
    let mut rng = SplitRng::new(seed ^ (client as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (0..requests)
        .map(|_| {
            let h = (rng.next_f64() * hotspots as f64) as usize % hotspots;
            // hotspots are spread deterministically through the dataset
            let center = points.point((h * points.len() / hotspots) % points.len());
            let q: Vec<f32> = center
                .iter()
                .map(|&c| c + ((rng.next_f64() - 0.5) * 0.02) as f32)
                .collect();
            PointSet::from_coords(dims, q).expect("finite query")
        })
        .collect()
}

/// Quantile `q` of an ascending-sorted sample, rounding to the nearest
/// rank (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_picks_the_nearest_rank() {
        assert_eq!(quantile(&[], 0.5), 0.0);
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.99), 5.0);
    }
}
