//! Multi-scalar multiplication (MSM) via Pippenger's bucket method.
//!
//! MSM is the dominant kernel of HyperPlonk's polynomial commitments
//! (paper §II-B): `S = Σ k_i · P_i`.
//!
//! * [`msm`] / [`msm_with_ops`] — the production path: **signed-digit**
//!   windows (digits in `[-2^(c-1), 2^(c-1)]`, halving the bucket count
//!   versus unsigned windows because `-P` is a free y-negation) with
//!   **batched-affine** bucket accumulation — a window's points are
//!   counting-sorted by bucket, then every bucket is collapsed by a
//!   pair-reduction tree of affine additions, in place, with all the
//!   inversions of a pass amortized through one
//!   [`zkphire_field::batch_inverse_with_scratch`] call. This is the
//!   same constant-factor structure SZKP and cuZK exploit and the shape
//!   the paper's streamed MSM unit pipelines. It runs from 2^4 buckets
//!   per window up, i.e. for every `n ≥ 2^8` — all the commit and
//!   opening MSMs of a 2^10-row prove but the last few quotients; the
//!   handful of buckets of a smaller MSM accumulate in projective
//!   coordinates (`BATCHED_AFFINE_MIN_BUCKETS` carries the measurement).
//!
//! It reports the operation counts the hardware model consumes. Zero
//! scalars are skipped, which is exactly how the accelerator's *sparse
//! MSMs* over ~90%-sparse witness MLEs gain their advantage (§IV-B1,
//! §IV-B3). Per-window work is deterministic, so [`MsmOps`] counts are
//! bit-identical regardless of the worker-thread count.

use crate::g1::{G1Affine, G1Projective};
use zkphire_field::{batch_inverse_with_scratch, Fq, Fr};
use zkphire_telemetry as tele;

/// Operation counts for one MSM, used to validate the hardware MSM model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MsmOps {
    /// Point additions performed during bucket accumulation.
    pub bucket_adds: u64,
    /// Point additions performed during bucket reduction.
    pub reduction_adds: u64,
    /// Point doublings performed during window aggregation.
    pub doublings: u64,
    /// Scalars skipped because they were zero.
    pub skipped_zeros: u64,
}

impl MsmOps {
    /// Total point additions plus doublings (the PADD-equivalent work).
    pub fn total_padds(&self) -> u64 {
        self.bucket_adds + self.reduction_adds + self.doublings
    }
}

/// Picks a window width (in bits) for a problem of `n` points.
///
/// The standard Pippenger heuristic `~ log2(n)`; the paper's design-space
/// exploration sweeps windows of 7–10 bits for its hardware (Table III).
pub fn optimal_window_bits(n: usize) -> u32 {
    match n {
        0..=3 => 1,
        4..=31 => 3,
        _ => {
            let bits = usize::BITS - n.leading_zeros() - 1;
            (bits.saturating_sub(3)).clamp(4, 16)
        }
    }
}

/// Scalar width budget for window decomposition (`Fr` is 255 bits).
const SCALAR_BITS: u32 = 255;

/// Computes `Σ scalars[i] * points[i]` with signed-digit Pippenger,
/// parallelized across windows.
///
/// # Panics
///
/// Panics if `points` and `scalars` have different lengths.
pub fn msm(points: &[G1Affine], scalars: &[Fr]) -> G1Projective {
    msm_with_ops(points, scalars).0
}

/// [`msm`] plus the operation counts incurred.
pub fn msm_with_ops(points: &[G1Affine], scalars: &[Fr]) -> (G1Projective, MsmOps) {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    msm_with_ops_threads(points, scalars, threads)
}

/// [`msm_with_ops`] with an explicit worker-thread count.
///
/// The result *and* the [`MsmOps`] counts are identical for every
/// `threads` value — windows are data-independent and each window's
/// schedule depends only on the input order.
pub fn msm_with_ops_threads(
    points: &[G1Affine],
    scalars: &[Fr],
    threads: usize,
) -> (G1Projective, MsmOps) {
    assert_eq!(
        points.len(),
        scalars.len(),
        "points and scalars must pair up"
    );
    if points.is_empty() {
        return (G1Projective::identity(), MsmOps::default());
    }

    let window_bits = optimal_window_bits(points.len());
    // One extra window absorbs the final carry of the signed recoding.
    let num_windows = SCALAR_BITS.div_ceil(window_bits) as usize + 1;
    tele::counter_add("msm/calls", 1);
    tele::counter_add("msm/windows", num_windows as u64);

    // Signed digits for every scalar, recoded once and shared by all
    // windows (scalar-major layout: digit of window `w` for scalar `i`
    // lives at `i * num_windows + w`).
    let mut digits = vec![0i32; points.len() * num_windows];
    let mut skipped_zeros = 0u64;
    for (i, s) in scalars.iter().enumerate() {
        if s.is_zero() {
            skipped_zeros += 1;
            continue; // digits stay 0: the windows skip this point entirely
        }
        let limbs = s.to_canonical_limbs();
        recode_signed(
            &limbs,
            window_bits,
            &mut digits[i * num_windows..(i + 1) * num_windows],
        );
    }

    // Each window is independent; workers take windows round-robin and
    // reuse one pre-sized scheduler arena across all of their windows.
    // Small problems run sequentially — thread spawns cost more than the
    // bucket work below ~2^10 points.
    let workers = if points.len() < (1 << 10) {
        1
    } else {
        threads.clamp(1, num_windows)
    };
    let window_results: Vec<(G1Projective, MsmOps)> = if workers <= 1 {
        let mut arena = BucketArena::new(window_bits, points.len());
        (0..num_windows)
            .map(|w| window_sum_signed(points, &digits, num_windows, w, &mut arena))
            .collect()
    } else {
        let mut results = vec![(G1Projective::identity(), MsmOps::default()); num_windows];
        let session = tele::current();
        std::thread::scope(|scope| {
            // Hand each worker a disjoint strided set of result slots.
            let mut slots: Vec<Vec<(usize, &mut (G1Projective, MsmOps))>> =
                (0..workers).map(|_| Vec::new()).collect();
            for (w, slot) in results.iter_mut().enumerate() {
                slots[w % workers].push((w, slot));
            }
            for worker_slots in slots {
                let (digits, session) = (&digits, &session);
                scope.spawn(move || {
                    let _recording = session.enter();
                    let mut arena = BucketArena::new(window_bits, points.len());
                    for (w, slot) in worker_slots {
                        *slot = window_sum_signed(points, digits, num_windows, w, &mut arena);
                    }
                });
            }
        });
        results
    };

    // Aggregate windows from most significant down.
    let mut ops = MsmOps {
        skipped_zeros,
        ..MsmOps::default()
    };
    let mut acc = G1Projective::identity();
    for (i, (w_sum, w_ops)) in window_results.iter().enumerate().rev() {
        if i != num_windows - 1 {
            for _ in 0..window_bits {
                acc = acc.double();
            }
            ops.doublings += u64::from(window_bits);
        }
        ops.bucket_adds += w_ops.bucket_adds;
        ops.reduction_adds += w_ops.reduction_adds;
        acc += *w_sum;
    }
    (acc, ops)
}

/// Recodes a canonical 255-bit scalar into signed base-`2^window_bits`
/// digits in `[-(2^(c-1) - 1), 2^(c-1)]`, one per window.
///
/// Standard carry recoding: a raw digit above `2^(c-1)` becomes
/// `raw - 2^c` and carries `1` into the next window; the last window holds
/// at most the final carry. The digit vector reconstructs the scalar
/// exactly: `Σ_w digit_w · 2^(w·c)`.
fn recode_signed(limbs: &[u64; 4], window_bits: u32, out: &mut [i32]) {
    let half = 1i64 << (window_bits - 1);
    let full = 1i64 << window_bits;
    let mut carry = 0i64;
    for (w, digit) in out.iter_mut().enumerate() {
        let raw = extract_digit(limbs, w, window_bits) as i64 + carry;
        if raw > half {
            *digit = (raw - full) as i32;
            carry = 1;
        } else {
            *digit = raw as i32;
            carry = 0;
        }
    }
    debug_assert_eq!(carry, 0, "top window must absorb the final carry");
}

/// Smallest bucket count per window at which buckets accumulate by
/// batched-affine pair-reduction (2^4 buckets ⇒ n ≥ 2^8 under
/// [`optimal_window_bits`]); narrower windows accumulate in projective
/// coordinates — still signed digits, half the buckets.
///
/// An affine add whose inversion is amortized costs ≈ 5M+1S against the
/// mixed add's 7M+4S, and a pass pays one `Fq::inverse` (≈ 55 `Fq` muls
/// since the binary-GCD inversion), so a pass breaks even at about a
/// dozen pairs. Measured single-thread, whole MSM, batched vs projective
/// (2-vCPU host, rustc 1.95; table in `docs/PERF.md`, "Bucket-path
/// crossover"): dense scalars 2^8 7.4 vs 10.3 ms, 2^9 11.7 vs 17.2,
/// 2^11 33.9 vs 52.6; ~32 %-dense witness columns 2^8 3.6 vs 4.1 ms.
/// The 8-bucket windows below (2^5 ≤ n < 2^8) are reduction-bound and
/// split: batched wins dense at 2^6–2^7 but loses sparse, and at n = 2^5
/// — the service's mu = 5 proofs — loses both (dense 2.2 vs 2.05 ms,
/// sparse 1.03 vs 0.86 ms). So they stay projective.
const BATCHED_AFFINE_MIN_BUCKETS: usize = 1 << 4;

/// Reusable per-worker buffers for one window's bucket accumulation —
/// allocated once per worker and recycled across windows instead of
/// reallocating `vec![...; bucket_count]` per window.
struct BucketArena {
    /// Whether this arena runs the batched-affine scheme (wide windows)
    /// or plain projective accumulation (narrow windows).
    batched: bool,
    /// Projective buckets for the non-batched scheme.
    proj_buckets: Vec<G1Projective>,
    /// Bucket-major (counting-sorted) window points; each bucket owns the
    /// segment `starts[b] .. starts[b] + lens[b]`, compacted in place as
    /// the pair-reduction tree collapses it.
    sorted: Vec<G1Affine>,
    /// Per-bucket segment starts (`bucket_count + 1` entries).
    starts: Vec<u32>,
    /// Per-bucket live point count within its segment.
    lens: Vec<u32>,
    /// Buckets still holding ≥ 2 points (current / next pass).
    active: Vec<u32>,
    next_active: Vec<u32>,
    /// Slope denominators of this pass's pairs, bucket-major
    /// (batch-inverted in place).
    denoms: Vec<Fq>,
    /// Prefix-product scratch for the batch inversion.
    inv_scratch: Vec<Fq>,
}

impl BucketArena {
    fn new(window_bits: u32, n_hint: usize) -> Self {
        let bucket_count = 1usize << (window_bits - 1);
        let batched = bucket_count >= BATCHED_AFFINE_MIN_BUCKETS;
        // Each scheme sizes only its own buffers, up front: a window has
        // at most `n_hint` points, hence `n_hint / 2` pairs in a pass.
        let sized = |len: usize| if batched { len } else { 0 };
        Self {
            batched,
            proj_buckets: vec![G1Projective::identity(); if batched { 0 } else { bucket_count }],
            sorted: Vec::with_capacity(sized(n_hint)),
            starts: vec![0; sized(bucket_count + 1)],
            lens: vec![0; sized(bucket_count)],
            active: Vec::with_capacity(sized(bucket_count)),
            next_active: Vec::with_capacity(sized(bucket_count)),
            denoms: Vec::with_capacity(sized(n_hint / 2)),
            inv_scratch: Vec::with_capacity(sized(n_hint / 2)),
        }
    }
}

/// Accumulates one window's buckets (batched-affine pair-reduction) and
/// reduces them.
fn window_sum_signed(
    points: &[G1Affine],
    digits: &[i32],
    num_windows: usize,
    window_index: usize,
    arena: &mut BucketArena,
) -> (G1Projective, MsmOps) {
    let mut ops = MsmOps::default();
    let digit_at = |i: usize| digits[i * num_windows + window_index];

    if !arena.batched {
        // Narrow window: accumulate directly in projective coordinates.
        arena
            .proj_buckets
            .iter_mut()
            .for_each(|b| *b = G1Projective::identity());
        let mut occupancy = if tele::is_recording() {
            vec![0u32; arena.proj_buckets.len()]
        } else {
            Vec::new()
        };
        for (i, point) in points.iter().enumerate() {
            let d = digit_at(i);
            if d == 0 || point.infinity {
                continue;
            }
            let (b, p) = if d > 0 {
                (d as usize - 1, *point)
            } else {
                ((-d) as usize - 1, -*point)
            };
            arena.proj_buckets[b] = arena.proj_buckets[b].add_mixed(&p);
            ops.bucket_adds += 1;
            if let Some(c) = occupancy.get_mut(b) {
                *c += 1;
            }
        }
        // Same histogram the batched path records: occupancy of the hit
        // buckets, window-determined and thus thread-count invariant.
        // Accumulated locally and merged in one recorder access.
        if !occupancy.is_empty() {
            let mut hist = tele::Histogram::default();
            for &c in &occupancy {
                if c > 0 {
                    hist.record(u64::from(c));
                }
            }
            tele::hist_merge("msm/bucket_occupancy", &hist);
        }
        let mut running = G1Projective::identity();
        let mut total = G1Projective::identity();
        for bucket in arena.proj_buckets.iter().rev() {
            running += *bucket;
            total += running;
            ops.reduction_adds += 2;
        }
        return (total, ops);
    }

    let bucket_count = arena.lens.len();
    let bucket_of = |d: i32| if d > 0 { d as u32 - 1 } else { (-d) as u32 - 1 };

    // Counting sort the window's non-zero digits into bucket-major order
    // (a negative digit contributes `-P`, a free affine negation).
    arena.lens.iter_mut().for_each(|l| *l = 0);
    for (i, point) in points.iter().enumerate() {
        let d = digit_at(i);
        if d != 0 && !point.infinity {
            arena.lens[bucket_of(d) as usize] += 1;
        }
    }
    arena.starts[0] = 0;
    for b in 0..bucket_count {
        arena.starts[b + 1] = arena.starts[b] + arena.lens[b];
    }
    if tele::is_recording() {
        // Occupancy of the hit buckets only — this is the distribution
        // the pair-reduction pass count is logarithmic in. The set of
        // samples is window-determined, so the merged histogram is
        // identical at every thread count. Accumulated locally and
        // merged in one recorder access per window.
        let mut hist = tele::Histogram::default();
        for &l in arena.lens.iter() {
            if l > 0 {
                hist.record(u64::from(l));
            }
        }
        tele::hist_merge("msm/bucket_occupancy", &hist);
    }
    let total_updates = arena.starts[bucket_count] as usize;
    arena.sorted.resize(total_updates, G1Affine::identity());
    {
        // Scatter; `lens` doubles as the per-bucket write cursor and is
        // recomputed from the segment bounds afterwards.
        arena.lens.iter_mut().for_each(|l| *l = 0);
        for (i, point) in points.iter().enumerate() {
            let d = digit_at(i);
            if d == 0 || point.infinity {
                continue;
            }
            let b = bucket_of(d) as usize;
            let pos = arena.starts[b] + arena.lens[b];
            arena.sorted[pos as usize] = if d > 0 { *point } else { -*point };
            arena.lens[b] += 1;
        }
    }

    // Pair-reduction tree: each pass pairs up the surviving points inside
    // every active bucket — pairs are independent affine additions, so
    // one batch inversion serves the entire pass and the pass count is
    // logarithmic in the worst bucket occupancy (robust even when every
    // update hits a single bucket, as in the recoding carry window).
    arena.active.clear();
    for b in 0..bucket_count {
        if arena.lens[b] >= 2 {
            arena.active.push(b as u32);
        }
    }
    let mut inverse_passes = 0u64;
    while !arena.active.is_empty() {
        inverse_passes += 1;
        arena.denoms.clear();
        for &b in &arena.active {
            let s = arena.starts[b as usize] as usize;
            let l = arena.lens[b as usize] as usize;
            for pair in arena.sorted[s..s + l].chunks_exact(2) {
                let (a, c) = (&pair[0], &pair[1]);
                // λ denominator: x2 - x1 for distinct x, 2y for doubling;
                // zero marks cancellation (the batch inversion skips zeros
                // and the apply step never reads the placeholder).
                arena.denoms.push(if a.x != c.x {
                    c.x - a.x
                } else if a.y == c.y {
                    a.y.double()
                } else {
                    Fq::ZERO
                });
            }
        }
        batch_inverse_with_scratch(&mut arena.denoms, &mut arena.inv_scratch);

        // Apply in the same bucket-major order, in place: pair `i` of a
        // segment lands at slot `≤ i`, behind every pair still unread, so
        // each segment compacts as it goes — sums first, odd leftover last.
        arena.next_active.clear();
        let mut inverses = arena.denoms.iter();
        for &b in &arena.active {
            let s = arena.starts[b as usize] as usize;
            let l = arena.lens[b as usize] as usize;
            let mut write = 0usize;
            for (i, inv) in inverses.by_ref().take(l / 2).enumerate() {
                ops.bucket_adds += 1;
                let (a, c) = (&arena.sorted[s + 2 * i], &arena.sorted[s + 2 * i + 1]);
                if let Some(sum) = affine_add_with_inv(a, c, inv) {
                    arena.sorted[s + write] = sum;
                    write += 1;
                }
            }
            if l % 2 == 1 {
                arena.sorted[s + write] = arena.sorted[s + l - 1];
                write += 1;
            }
            arena.lens[b as usize] = write as u32;
            if write >= 2 {
                arena.next_active.push(b);
            }
        }
        std::mem::swap(&mut arena.active, &mut arena.next_active);
    }
    if inverse_passes > 0 {
        tele::counter_add("msm/batch_inverse_passes", inverse_passes);
    }

    // Running-sum reduction: sum_j j * bucket_j with 2 * |buckets| adds.
    let mut running = G1Projective::identity();
    let mut total = G1Projective::identity();
    for b in (0..bucket_count).rev() {
        if arena.lens[b] == 1 {
            running = running.add_mixed(&arena.sorted[arena.starts[b] as usize]);
        }
        total += running;
        ops.reduction_adds += 2;
    }
    (total, ops)
}

/// Affine addition `q + p` given `inv`, the precomputed inverse of the
/// slope denominator (`1/(x_p - x_q)`, or `1/(2 y_q)` for doubling).
///
/// Returns `None` for the identity (cancellation `p = -q`, including the
/// 2-torsion case `y = 0`).
fn affine_add_with_inv(q: &G1Affine, p: &G1Affine, inv: &Fq) -> Option<G1Affine> {
    let lambda = if p.x != q.x {
        (p.y - q.y) * *inv
    } else if p.y == q.y {
        if q.y.is_zero() {
            return None; // 2-torsion: doubling lands on the identity
        }
        let x2 = q.x.square();
        (x2.double() + x2) * *inv
    } else {
        return None; // p = -q
    };
    let x3 = lambda.square() - q.x - p.x;
    let y3 = lambda * (q.x - x3) - q.y;
    Some(G1Affine {
        x: x3,
        y: y3,
        infinity: false,
    })
}

/// The pre-rewrite unsigned-window Pippenger, one projective mixed-add
/// per streamed pair: the oracle of the 2^12-point unit test, a size at
/// which [`msm_naive`] is too slow for a debug build.
#[cfg(test)]
fn msm_unsigned(points: &[G1Affine], scalars: &[Fr]) -> G1Projective {
    let window_bits = optimal_window_bits(points.len());
    let num_windows = SCALAR_BITS.div_ceil(window_bits) as usize;
    let canonical: Vec<[u64; 4]> = scalars.iter().map(|s| s.to_canonical_limbs()).collect();

    // Windows from most significant down: accumulate buckets, reduce.
    let mut acc = G1Projective::identity();
    for w in (0..num_windows).rev() {
        for _ in 0..window_bits {
            acc = acc.double();
        }
        let mut buckets = vec![G1Projective::identity(); (1usize << window_bits) - 1];
        for (point, limbs) in points.iter().zip(&canonical) {
            let digit = extract_digit(limbs, w, window_bits);
            if digit != 0 {
                buckets[digit - 1] = buckets[digit - 1].add_mixed(point);
            }
        }
        // Running-sum reduction: sum_j j * bucket_j.
        let mut running = G1Projective::identity();
        for bucket in buckets.iter().rev() {
            running += *bucket;
            acc += running;
        }
    }
    acc
}

/// Extracts the `window_index`-th base-`2^window_bits` digit of a 256-bit
/// little-endian integer.
fn extract_digit(limbs: &[u64; 4], window_index: usize, window_bits: u32) -> usize {
    let bit_offset = window_index * window_bits as usize;
    let limb_index = bit_offset / 64;
    if limb_index >= 4 {
        return 0;
    }
    let shift = (bit_offset % 64) as u32;
    let mut digit = limbs[limb_index] >> shift;
    if shift + window_bits > 64 && limb_index + 1 < 4 {
        digit |= limbs[limb_index + 1] << (64 - shift);
    }
    (digit & ((1u64 << window_bits) - 1)) as usize
}

/// Reference MSM by direct double-and-add; used to validate [`msm`].
pub fn msm_naive(points: &[G1Affine], scalars: &[Fr]) -> G1Projective {
    assert_eq!(points.len(), scalars.len());
    points.iter().zip(scalars).map(|(p, s)| p.mul_fr(s)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_inputs(n: usize, seed: u64) -> (Vec<G1Affine>, Vec<Fr>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let points: Vec<G1Affine> = (0..n).map(|_| G1Affine::random(&mut rng)).collect();
        let scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
        (points, scalars)
    }

    #[test]
    fn matches_naive_small() {
        for n in [1usize, 2, 3, 7, 16, 33] {
            let (points, scalars) = random_inputs(n, n as u64);
            assert_eq!(
                msm(&points, &scalars),
                msm_naive(&points, &scalars),
                "n={n}"
            );
        }
    }

    #[test]
    fn matches_naive_medium() {
        let (points, scalars) = random_inputs(200, 99);
        assert_eq!(msm(&points, &scalars), msm_naive(&points, &scalars));
    }

    #[test]
    fn batched_affine_path_matches_unsigned() {
        // A 2^12-point instance on the batched-affine path (every test
        // here from n = 2^8 up takes it; the crossover sweep lives in
        // `tests/tests/prover_hot_path.rs`). Points come from a generator
        // chain (cheap to build) and scalars mix dense randoms with zeros
        // and duplicates so buckets both collide and cancel.
        let n = 4096;
        let g = G1Affine::generator();
        let mut acc = G1Projective::from(g);
        let mut chain = Vec::with_capacity(n);
        for _ in 0..n {
            chain.push(acc);
            acc = acc.add_mixed(&g);
        }
        let points = crate::g1::batch_normalize(&chain);
        let mut rng = StdRng::seed_from_u64(44);
        let dup = Fr::random(&mut rng);
        let scalars: Vec<Fr> = (0..n)
            .map(|i| match i % 8 {
                0 => Fr::ZERO,
                1 | 2 => dup,
                _ => Fr::random(&mut rng),
            })
            .collect();
        let (signed, ops) = msm_with_ops_threads(&points, &scalars, 1);
        let (par, par_ops) = msm_with_ops_threads(&points, &scalars, 4);
        assert_eq!(signed, msm_unsigned(&points, &scalars));
        assert_eq!(par, signed);
        assert_eq!(par_ops, ops);
        assert_eq!(ops.skipped_zeros, (n / 8) as u64);
    }

    #[test]
    fn empty_msm_is_identity() {
        assert!(msm(&[], &[]).is_identity());
    }

    #[test]
    fn sparse_scalars_are_skipped() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 100;
        let points: Vec<G1Affine> = (0..n).map(|_| G1Affine::random(&mut rng)).collect();
        // 90% zeros, like the paper's witness MLEs.
        let scalars: Vec<Fr> = (0..n)
            .map(|_| {
                if rng.gen_ratio(9, 10) {
                    Fr::ZERO
                } else {
                    Fr::random(&mut rng)
                }
            })
            .collect();
        let (result, ops) = msm_with_ops(&points, &scalars);
        assert_eq!(result, msm_naive(&points, &scalars));
        assert!(ops.skipped_zeros > 0);
    }

    #[test]
    fn binary_scalars() {
        // Selector MLEs are 0/1-valued; the MSM must handle them exactly.
        let mut rng = StdRng::seed_from_u64(6);
        let n = 64;
        let points: Vec<G1Affine> = (0..n).map(|_| G1Affine::random(&mut rng)).collect();
        let scalars: Vec<Fr> = (0..n)
            .map(|i| if i % 2 == 0 { Fr::ONE } else { Fr::ZERO })
            .collect();
        let expected: G1Projective = points
            .iter()
            .step_by(2)
            .map(|p| G1Projective::from(*p))
            .sum();
        assert_eq!(msm(&points, &scalars), expected);
    }

    #[test]
    fn repeated_points_collide_in_buckets() {
        // Many copies of one point with one scalar force maximal bucket
        // collisions (every update targets the same bucket), exercising
        // the deferred-pass scheduler and the affine doubling path.
        let mut rng = StdRng::seed_from_u64(40);
        let p = G1Affine::random(&mut rng);
        let s = Fr::random(&mut rng);
        let n = 50;
        let points = vec![p; n];
        let scalars = vec![s; n];
        assert_eq!(msm(&points, &scalars), msm_naive(&points, &scalars));
    }

    #[test]
    fn cancelling_pairs_reach_identity_buckets() {
        // P and -P with the same scalar cancel inside one bucket; the
        // bucket must return to the empty state and accept later points.
        let mut rng = StdRng::seed_from_u64(41);
        let p = G1Affine::random(&mut rng);
        let q = G1Affine::random(&mut rng);
        let s = Fr::random(&mut rng);
        let points = vec![p, -p, q];
        let scalars = vec![s, s, s];
        assert_eq!(msm(&points, &scalars), msm_naive(&points, &scalars));
    }

    #[test]
    fn identity_points_are_skipped() {
        let (mut points, scalars) = random_inputs(10, 43);
        points[3] = G1Affine::identity();
        points[7] = G1Affine::identity();
        assert_eq!(msm(&points, &scalars), msm_naive(&points, &scalars));
    }

    #[test]
    fn digit_extraction_reassembles_scalar() {
        let mut rng = StdRng::seed_from_u64(7);
        let s = Fr::random(&mut rng);
        let limbs = s.to_canonical_limbs();
        for bits in [4u32, 7, 8, 9, 13] {
            let windows = 256u32.div_ceil(bits) as usize;
            // Σ digit_w * 2^(w*bits) should reconstruct the scalar.
            let g = G1Projective::generator();
            let mut acc = G1Projective::identity();
            for w in (0..windows).rev() {
                for _ in 0..bits {
                    acc = acc.double();
                }
                let d = extract_digit(&limbs, w, bits);
                acc += g.mul_fr(&Fr::from_u64(d as u64));
            }
            assert_eq!(acc, g.mul_fr(&s), "window bits {bits}");
        }
    }

    #[test]
    fn signed_recoding_reassembles_scalar() {
        let mut rng = StdRng::seed_from_u64(8);
        for bits in [4u32, 7, 9, 13] {
            let s = Fr::random(&mut rng);
            let limbs = s.to_canonical_limbs();
            let num_windows = SCALAR_BITS.div_ceil(bits) as usize + 1;
            let mut digits = vec![0i32; num_windows];
            recode_signed(&limbs, bits, &mut digits);
            let half = 1i32 << (bits - 1);
            assert!(digits.iter().all(|d| -half < *d && *d <= half));
            // Σ digit_w * 2^(w*bits) * G should reconstruct s * G.
            let g = G1Projective::generator();
            let mut acc = G1Projective::identity();
            for &d in digits.iter().rev() {
                for _ in 0..bits {
                    acc = acc.double();
                }
                let term = g.mul_fr(&Fr::from_u64(d.unsigned_abs() as u64));
                acc += if d < 0 { -term } else { term };
            }
            assert_eq!(acc, g.mul_fr(&s), "window bits {bits}");
        }
    }

    #[test]
    fn ops_accounting_is_consistent() {
        let (points, scalars) = random_inputs(128, 11);
        let (_, ops) = msm_with_ops(&points, &scalars);
        let window_bits = optimal_window_bits(128);
        let windows = SCALAR_BITS.div_ceil(window_bits) as u64 + 1;
        // Reduction adds: 2 per bucket per window; signed digits halve the
        // bucket count to 2^(c-1).
        assert_eq!(
            ops.reduction_adds,
            windows * 2 * (1u64 << (window_bits - 1))
        );
        // At most one bucket add per (point, window) pair.
        assert!(ops.bucket_adds <= 128 * windows);
        // Window aggregation doubles between consecutive windows.
        assert_eq!(ops.doublings, (windows - 1) * u64::from(window_bits));
    }

    #[test]
    fn ops_independent_of_thread_count() {
        let (points, scalars) = random_inputs(200, 12);
        let (r1, o1) = msm_with_ops_threads(&points, &scalars, 1);
        let (r4, o4) = msm_with_ops_threads(&points, &scalars, 4);
        let (r9, o9) = msm_with_ops_threads(&points, &scalars, 9);
        assert_eq!(r1, r4);
        assert_eq!(r1, r9);
        assert_eq!(o1, o4);
        assert_eq!(o1, o9);
    }
}
