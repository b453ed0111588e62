//! Pareto-frontier extraction over (runtime, area) design points
//! (paper Fig. 10).

/// A design point in the runtime/area plane, tagged with its bandwidth
/// tier and an opaque configuration index.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ParetoPoint {
    /// End-to-end runtime (ms).
    pub runtime_ms: f64,
    /// Die area (mm²).
    pub area_mm2: f64,
    /// Off-chip bandwidth (GB/s).
    pub bandwidth_gbps: f64,
    /// Index into the caller's configuration list.
    pub config_index: usize,
}

/// Extracts the Pareto-optimal subset: points not dominated in both
/// runtime and area, sorted by increasing runtime.
///
/// Points are ordered by `(runtime, area)` with ties kept in input order,
/// so among exact duplicates the first one given is the one kept.
///
/// # Panics
///
/// Panics if a runtime or an area is NaN.
pub fn pareto_front(points: Vec<ParetoPoint>) -> Vec<ParetoPoint> {
    // Sorting integer keys that order like the floats (with the input
    // position as the last key, which makes the unstable sort stable) is
    // several times faster than a float comparator chain.
    let mut keys: Vec<(u64, u64, usize)> = points
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let runtime = order_key(p.runtime_ms, "finite runtimes");
            (runtime, order_key(p.area_mm2, "finite areas"), i)
        })
        .collect();
    keys.sort_unstable();
    let mut front: Vec<ParetoPoint> = Vec::new();
    let mut best_area = f64::INFINITY;
    for (_, _, i) in keys {
        let p = points[i];
        if p.area_mm2 < best_area {
            best_area = p.area_mm2;
            front.push(p);
        }
    }
    front
}

/// An integer whose order is `x`'s numeric order: the IEEE-754 bits with
/// the sign bit flipped for positives and every bit flipped for negatives
/// (`-0.0` first becomes `+0.0`, which compares equal to it).
fn order_key(x: f64, what: &str) -> u64 {
    assert!(!x.is_nan(), "{what}");
    let bits = (x + 0.0).to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn p(runtime_ms: f64, area_mm2: f64) -> ParetoPoint {
        ParetoPoint {
            runtime_ms,
            area_mm2,
            bandwidth_gbps: 1024.0,
            config_index: 0,
        }
    }

    #[test]
    fn dominated_points_removed() {
        let front = pareto_front(vec![p(10.0, 100.0), p(20.0, 200.0), p(5.0, 300.0)]);
        // (20, 200) is dominated by (10, 100).
        assert_eq!(front.len(), 2);
        assert!(front.iter().any(|q| q.runtime_ms == 5.0));
        assert!(front.iter().any(|q| q.runtime_ms == 10.0));
    }

    #[test]
    fn frontier_is_monotone() {
        let points: Vec<ParetoPoint> = (0..100)
            .map(|i| p(100.0 - i as f64 * 0.7, 10.0 + ((i * 37) % 89) as f64))
            .collect();
        let front = pareto_front(points);
        for w in front.windows(2) {
            assert!(w[0].runtime_ms <= w[1].runtime_ms);
            assert!(w[0].area_mm2 >= w[1].area_mm2);
        }
    }

    #[test]
    fn all_nondominated_kept() {
        let front = pareto_front(vec![p(1.0, 30.0), p(2.0, 20.0), p(3.0, 10.0)]);
        assert_eq!(front.len(), 3);
    }

    #[test]
    fn empty_input() {
        assert!(pareto_front(Vec::new()).is_empty());
    }

    /// The frontier as a stable `(runtime, area)` float sort finds it.
    fn stable_sort_front(mut points: Vec<ParetoPoint>) -> Vec<ParetoPoint> {
        points.sort_by(|a, b| {
            a.runtime_ms
                .partial_cmp(&b.runtime_ms)
                .unwrap()
                .then(a.area_mm2.partial_cmp(&b.area_mm2).unwrap())
        });
        let mut front: Vec<ParetoPoint> = Vec::new();
        let mut best_area = f64::INFINITY;
        for p in points {
            if p.area_mm2 < best_area {
                best_area = p.area_mm2;
                front.push(p);
            }
        }
        front
    }

    /// A point as exact bits, so `-0.0` and `0.0` are told apart.
    fn bits(p: &ParetoPoint) -> (u64, u64, usize) {
        (p.runtime_ms.to_bits(), p.area_mm2.to_bits(), p.config_index)
    }

    #[test]
    #[should_panic(expected = "finite areas")]
    fn nan_area_panics() {
        pareto_front(vec![p(1.0, 2.0), p(1.0, f64::NAN)]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Runtimes and areas come from palettes of a few values (signed
        /// zeros, negatives, subnormals and infinities among them), so
        /// most points tie exactly in runtime, area or both; each point's
        /// `config_index` is its input position, so the front must keep
        /// the same tied point the stable sort keeps.
        #[test]
        fn front_equals_the_stable_sort_reference(
            seed in any::<u64>(),
            len in 0usize..300,
            palette in 1usize..12,
        ) {
            const VALUES: [f64; 12] = [
                3.5, 0.0, -0.0, 1.0, 5e-324, -2.25, 3.5e10, 7.0,
                f64::INFINITY, 2.0, f64::NEG_INFINITY, 1.0 + f64::EPSILON,
            ];
            let mut rng = StdRng::seed_from_u64(seed);
            let points: Vec<ParetoPoint> = (0..len)
                .map(|i| ParetoPoint {
                    runtime_ms: VALUES[rng.gen_range(0..palette)],
                    area_mm2: VALUES[rng.gen_range(0..palette)],
                    bandwidth_gbps: 1024.0,
                    config_index: i,
                })
                .collect();
            let got: Vec<_> = pareto_front(points.clone()).iter().map(bits).collect();
            let want: Vec<_> = stable_sort_front(points).iter().map(bits).collect();
            prop_assert_eq!(got, want);
        }
    }
}
