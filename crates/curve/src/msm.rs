//! Multi-scalar multiplication (MSM) via Pippenger's bucket method.
//!
//! MSM is the dominant kernel of HyperPlonk's polynomial commitments
//! (paper §II-B): `S = Σ k_i · P_i`.
//!
//! [`msm`] / [`msm_with_ops`] run one kernel at every size: **signed-digit**
//! windows (digits in `[-(2^(c-1) - 1), 2^(c-1)]`, halving the bucket count
//! versus unsigned windows because `-P` is a free y-negation) whose
//! buckets are accumulated *and* reduced in **affine** coordinates, every
//! inversion shared through [`zkphire_field::batch_inverse_with_scratch`].
//! No digit is stored: each scalar is kept once, plus a recoding offset
//! ([`recoding_offset`]) that makes every window of the sum its signed
//! digit plus a constant, and a sort reads its window's digits off that.
//! A worker takes its windows in groups:
//!
//! * **accumulation** — a few windows at a time (as many as keep a sort
//!   within [`SORT_POINTS`] points) have their point *indices*
//!   counting-sorted by (window, bucket), the top bit marking a negated
//!   point. The first pass of a pair-reduction tree reads the points
//!   through those indices and writes only the pair sums and odd
//!   leftovers; later passes collapse what it wrote in place. One
//!   inversion per pass serves all the buckets of all those windows;
//! * **reduction** — the running sums `Σ j·B_j` of all the group's windows
//!   advance in lock-step, one inversion per bucket index for at most two
//!   additions per window (a window no digit landed in — most of a
//!   small-scalar column's — sits out);
//! * **aggregation** — the affine window sums enter the Horner chain by
//!   mixed additions.
//!
//! This is the constant-factor structure SZKP and cuZK exploit and the
//! shape the paper's streamed MSM unit pipelines: one PADD datapath kept
//! busy across windows, scalars and points streamed into the buckets.
//!
//! **Working set.** For `n` points and `B = 2^(c-1)` buckets per window,
//! a worker whose sorts take `sort_len` windows and whose groups take
//! `group_len` holds `40n` B of shifted scalars (shared by all workers),
//! `4·sort_len·n` B of sorted indices, `104·⌈sort_len·(n + B)/2⌉` B of
//! first-pass sums, `104·group_len·B` B of collapsed buckets and 96 B of
//! slope denominator and inversion scratch per pair of one pass — nothing
//! that grows with `n` times the window count. The collapsed buckets are
//! the largest term, so from [`SPAWN_POINTS`] up a group holds at most
//! half of the MSM's windows: one more inversion per bucket index, ≈ 1–2 %
//! of the MSM, for half that buffer. Below it, where an MSM is bound by
//! its inversions, groups hold up to [`GROUP_WINDOWS`].
//!
//! It reports the operation counts the hardware model consumes. Zero
//! scalars are skipped, which is exactly how the accelerator's *sparse
//! MSMs* over ~90%-sparse witness MLEs gain their advantage (§IV-B1,
//! §IV-B3). A bucket's pair order is its input order whatever the
//! grouping, so the result and [`MsmOps`] are bit-identical regardless
//! of the worker-thread count. Neither the zero-skip nor the batch
//! inversions (a variable-time binary GCD) run in constant time, which is
//! sound only because every MSM runs prover-side, over public SRS points
//! and the tables being committed (the trapdoor verifier's one MSM takes
//! τ, which that stand-in for a pairing holds anyway).

use crate::g1::{G1Affine, G1Projective};
use zkphire_field::{batch_inverse_with_scratch, Fq, Fr};
use zkphire_telemetry as tele;

/// Operation counts for one MSM, used to validate the hardware MSM model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MsmOps {
    /// Point additions performed during bucket accumulation (pair
    /// additions: a bucket's first point is free).
    pub bucket_adds: u64,
    /// Point additions of the running-sum bucket reduction, nominal:
    /// two per bucket per window, identity operands included.
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

/// Most windows whose running sums advance in lock-step: a reduction
/// step shares one inversion (≈ 55 `Fq` multiplications) among two
/// additions per window, so forty windows bring it under one
/// multiplication per addition.
const GROUP_WINDOWS: usize = 40;

/// Points from which an MSM spawns workers — below it spawns cost more
/// than the bucket work — and from which a group holds at most half of
/// the MSM's windows.
const SPAWN_POINTS: usize = 1 << 10;

/// Most points counting-sorted at a time — one window when `n` is larger.
const SORT_POINTS: usize = 256;

/// Marks a sorted point index whose digit is negative: its bucket takes
/// `-P`.
const NEGATED: u32 = 1 << 31;

/// Computes `Σ scalars[i] * points[i]` with signed-digit Pippenger,
/// parallelized across windows.
///
/// # Panics
///
/// Panics if `points` and `scalars` have different lengths, or if there
/// are more than 2^31 of them.
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
    let n = points.len();
    assert!(n <= NEGATED as usize, "at most 2^31 points per MSM");

    let window_bits = optimal_window_bits(n);
    // One extra window absorbs the final carry of the signed recoding.
    let num_windows = SCALAR_BITS.div_ceil(window_bits) as usize + 1;
    tele::counter_add("msm/calls", 1);
    tele::counter_add("msm/windows", num_windows as u64);

    // Every scalar once, shifted so that each window holds its signed
    // digit plus a constant; a zero scalar or an identity point shifts
    // nothing and so lands in no bucket.
    let offset = recoding_offset(window_bits, num_windows);
    let shifted: Vec<[u64; 5]> = scalars
        .iter()
        .zip(points)
        .map(|(s, p)| {
            if s.is_zero() || p.infinity {
                offset
            } else {
                shift_scalar(s.to_canonical_limbs(), &offset)
            }
        })
        .collect();
    let skipped_zeros = scalars.iter().filter(|s| s.is_zero()).count() as u64;

    // Windows are independent: worker `t` takes windows `t, t + workers,
    // …` and returns their sums in affine form.
    let workers = if n < SPAWN_POINTS {
        1
    } else {
        threads.clamp(1, num_windows)
    };
    let run = |first: usize| {
        WindowWorker::new(points, &shifted, window_bits, num_windows, first, workers).run()
    };
    let per_worker: Vec<(Vec<G1Affine>, u64)> = if workers == 1 {
        vec![run(0)]
    } else {
        let session = tele::current();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|first| {
                    let (run, session) = (&run, &session);
                    scope.spawn(move || {
                        let _recording = session.enter();
                        run(first)
                    })
                })
                .collect();
            let joined = handles.into_iter().map(|h| h.join());
            joined.map(|r| r.expect("MSM worker panicked")).collect()
        })
    };

    // Aggregate windows from most significant down.
    let ops = MsmOps {
        bucket_adds: per_worker.iter().map(|(_, pair_adds)| pair_adds).sum(),
        reduction_adds: num_windows as u64 * (2 << (window_bits - 1)),
        doublings: (num_windows as u64 - 1) * u64::from(window_bits),
        skipped_zeros,
    };
    let mut acc = G1Projective::identity();
    for w in (0..num_windows).rev() {
        if w != num_windows - 1 {
            for _ in 0..window_bits {
                acc = acc.double();
            }
        }
        acc = acc.add_mixed(&per_worker[w % workers].0[w / workers]);
    }
    (acc, ops)
}

/// `Σ_w h·2^(w·c)` over `windows` windows of `c = window_bits` bits, with
/// `h = 2^(c-1) - 1`, as a 320-bit integer.
///
/// Added to a scalar, it makes window `w` of the sum `d_w + h`, where
/// `d_w` is the digit `recode_signed` produces: digits in `[-h, h + 1]`
/// form a complete residue system mod `2^c`, so they are the only signed
/// digits that reassemble the scalar, and `d_w + h ∈ [0, 2^c)` are then
/// the plain base-`2^c` digits of the sum. Each `h` fits its own window,
/// so the terms are simply OR-ed in.
fn recoding_offset(window_bits: u32, windows: usize) -> [u64; 5] {
    let h = (1u128 << (window_bits - 1)) - 1;
    let mut offset = [0u64; 5];
    for w in 0..windows {
        let bit = w * window_bits as usize;
        let spread = h << (bit % 64);
        offset[bit / 64] |= spread as u64;
        if let Some(next) = offset.get_mut(bit / 64 + 1) {
            *next |= (spread >> 64) as u64;
        }
    }
    offset
}

/// A canonical scalar plus the [`recoding_offset`]; the sum of a 255-bit
/// scalar and the offset of any width fits in 272 bits.
fn shift_scalar(limbs: [u64; 4], offset: &[u64; 5]) -> [u64; 5] {
    let mut sum = *offset;
    let mut carry = false;
    for (i, out) in sum.iter_mut().enumerate() {
        let (s, c1) = out.overflowing_add(limbs.get(i).copied().unwrap_or(0));
        let (s, c2) = s.overflowing_add(u64::from(carry));
        *out = s;
        carry = c1 || c2;
    }
    debug_assert!(!carry, "a shifted scalar fits in five limbs");
    sum
}

/// Reads window `window`'s signed digit off a shifted scalar: the
/// window's `window_bits` bits, minus `h = 2^(c-1) - 1`.
fn signed_digit(window: usize, window_bits: u32) -> impl Fn(&[u64; 5]) -> i32 {
    let bit = window * window_bits as usize;
    let (low, shift) = (bit / 64, bit % 64);
    // A window ends by bit 272, so it lies in one limb or two adjacent ones
    // (in the top limb, `high` repeats `low` above anything it reads).
    let high = (low + 1).min(4);
    let mask = (1u128 << window_bits) - 1;
    let h = (1i32 << (window_bits - 1)) - 1;
    move |s| {
        let limbs = u128::from(s[low]) | u128::from(s[high]) << 64;
        ((limbs >> shift) & mask) as i32 - h
    }
}

/// Recodes a canonical 255-bit scalar into signed base-`2^window_bits`
/// digits in `[-(2^(c-1) - 1), 2^(c-1)]`, one per window: the oracle of
/// the digits the kernel reads off a shifted scalar.
///
/// Standard carry recoding: a raw digit above `2^(c-1)` becomes
/// `raw - 2^c` and carries `1` into the next window; the last window holds
/// at most the final carry. The digit vector reconstructs the scalar
/// exactly: `Σ_w digit_w · 2^(w·c)`.
#[cfg(test)]
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

/// One worker's share of an MSM — windows `first, first + stride, …`,
/// its *slots* `0, 1, …` — and the buffers it recycles across them,
/// allocated once per call.
struct WindowWorker<'a> {
    points: &'a [G1Affine],
    /// Every scalar plus the [`recoding_offset`].
    scalars: &'a [[u64; 5]],
    window_bits: u32,
    first: usize,
    stride: usize,
    slots: usize,
    /// Buckets per window.
    bucket_count: usize,
    /// Windows reduced in lock-step (the last group may be shorter).
    group_len: usize,
    /// Windows counting-sorted together (≤ `group_len`).
    sort_len: usize,
    /// Point indices of the windows being sorted, bucket-major; bucket
    /// `k` owns `starts[k] .. starts[k] + lens[k]` and [`NEGATED`] marks a
    /// point it takes negated.
    order: Vec<u32>,
    /// What the first pair-reduction pass leaves of every bucket — its
    /// pair sums, then its odd leftover — compacted in place by the later
    /// passes. From the first pass on, `starts` / `lens` index this.
    sorted: Vec<G1Affine>,
    /// Per-bucket segment starts (`sort_len * bucket_count + 1` entries).
    starts: Vec<u32>,
    /// Per-bucket live point count within its segment.
    lens: Vec<u32>,
    /// Buckets still holding ≥ 2 points (current / next pass).
    active: Vec<u32>,
    next_active: Vec<u32>,
    /// Slope denominators of one pass or reduction step, in the order the
    /// additions are applied (batch-inverted in place).
    denoms: Vec<Fq>,
    /// Prefix-product scratch for the batch inversion.
    inv_scratch: Vec<Fq>,
    /// The group's windows that hold any point at all — a small-scalar
    /// column leaves most windows empty, and they skip the reduction —
    /// with their collapsed buckets, window-major (the identity marks an
    /// empty bucket), and their running sums.
    live: Vec<u32>,
    buckets: Vec<G1Affine>,
    running: Vec<G1Affine>,
    /// Pair additions and shared inversions spent collapsing buckets.
    pair_adds: u64,
    inverse_passes: u64,
}

impl<'a> WindowWorker<'a> {
    fn new(
        points: &'a [G1Affine],
        scalars: &'a [[u64; 5]],
        window_bits: u32,
        num_windows: usize,
        first: usize,
        stride: usize,
    ) -> Self {
        let n = points.len();
        let bucket_count = 1usize << (window_bits - 1);
        let slots = (num_windows - first).div_ceil(stride);
        let most = if n < SPAWN_POINTS {
            GROUP_WINDOWS
        } else {
            GROUP_WINDOWS.min(num_windows.div_ceil(2))
        };
        // Equal groups, so no straggler pays a group's inversions alone.
        let group_len = slots.div_ceil(slots.div_ceil(most));
        let sort_len = (SORT_POINTS / n).clamp(1, group_len);
        // A sort holds at most `sort_len * n` points, hence half as many
        // pairs in a pass; a reduction step adds twice per window.
        let max_pairs = (sort_len * n / 2).max(2 * group_len);
        Self {
            points,
            scalars,
            window_bits,
            first,
            stride,
            slots,
            bucket_count,
            group_len,
            sort_len,
            order: Vec::with_capacity(sort_len * n),
            // Each bucket keeps at most half its points, rounded up.
            sorted: Vec::with_capacity((sort_len * (n + bucket_count)).div_ceil(2)),
            starts: vec![0; sort_len * bucket_count + 1],
            lens: vec![0; sort_len * bucket_count],
            active: Vec::with_capacity(sort_len * bucket_count),
            next_active: Vec::with_capacity(sort_len * bucket_count),
            denoms: Vec::with_capacity(max_pairs),
            inv_scratch: Vec::with_capacity(max_pairs),
            live: Vec::with_capacity(group_len),
            buckets: Vec::with_capacity(group_len * bucket_count),
            running: Vec::with_capacity(group_len),
            pair_adds: 0,
            inverse_passes: 0,
        }
    }

    /// The affine sums of this worker's windows, in slot order, and the
    /// pair additions spent collapsing their buckets.
    fn run(mut self) -> (Vec<G1Affine>, u64) {
        let mut sums = Vec::with_capacity(self.slots);
        for group in (0..self.slots).step_by(self.group_len) {
            let group_end = (group + self.group_len).min(self.slots);
            for sort in (group..group_end).step_by(self.sort_len) {
                let sort_end = (sort + self.sort_len).min(group_end);
                self.sort_by_bucket(sort, sort_end);
                self.collapse_buckets(sort_end - sort, sort - group);
            }
            self.reduce_group(group_end - group, &mut sums);
        }
        if self.inverse_passes > 0 {
            tele::counter_add("msm/batch_inverse_passes", self.inverse_passes);
        }
        (sums, self.pair_adds)
    }

    /// Counting-sorts the indices of the points with a non-zero digit in
    /// slots `sort .. sort_end` into (window, bucket)-major order; a
    /// negative digit is flagged [`NEGATED`], since its bucket takes `-P`.
    fn sort_by_bucket(&mut self, sort: usize, sort_end: usize) {
        let (bucket_count, stride, bits) = (self.bucket_count, self.stride, self.window_bits);
        let first_window = self.first + sort * stride;
        // The digits of the sort's window `k`, and the bucket of digit `d`
        // there.
        let digit = |k: usize| signed_digit(first_window + k * stride, bits);
        let bucket_of = |k: usize, d: i32| k * bucket_count + d.unsigned_abs() as usize - 1;

        let lens = &mut self.lens[..(sort_end - sort) * bucket_count];
        lens.fill(0);
        for k in 0..sort_end - sort {
            let digit = digit(k);
            for s in self.scalars {
                let d = digit(s);
                if d != 0 {
                    lens[bucket_of(k, d)] += 1;
                }
            }
        }
        self.starts[0] = 0;
        for (b, &len) in lens.iter().enumerate() {
            self.starts[b + 1] = self.starts[b] + len;
        }
        if tele::is_recording() {
            // Occupancy of the hit buckets only — this is the distribution
            // the pair-reduction pass count is logarithmic in. The set of
            // samples is window-determined, so the merged histogram is
            // identical at every thread count. Accumulated locally and
            // merged in one recorder access per sort.
            let mut hist = tele::Histogram::default();
            for &len in lens.iter().filter(|&&len| len > 0) {
                hist.record(u64::from(len));
            }
            tele::hist_merge("msm/bucket_occupancy", &hist);
        }
        self.order.resize(self.starts[lens.len()] as usize, 0);
        // Scatter; `lens` doubles as the per-bucket write cursor and ends
        // up holding the counts again.
        lens.fill(0);
        for k in 0..sort_end - sort {
            let digit = digit(k);
            for (i, s) in self.scalars.iter().enumerate() {
                let d = digit(s);
                if d != 0 {
                    let bucket = bucket_of(k, d);
                    let at = self.starts[bucket] + lens[bucket];
                    self.order[at as usize] = if d > 0 { i as u32 } else { i as u32 | NEGATED };
                    lens[bucket] += 1;
                }
            }
        }
    }

    /// Pair-reduction tree over the sorted segments of `windows` windows
    /// — the group's windows `into ..` — whose sums become its buckets. Each
    /// pass pairs up the surviving points inside every active bucket —
    /// pairs are independent affine additions, so one batch inversion
    /// serves the entire pass, whichever windows its buckets belong to,
    /// and the pass count is logarithmic in the worst bucket occupancy
    /// (robust even when every update hits a single bucket, as in the
    /// recoding carry window).
    fn collapse_buckets(&mut self, windows: usize, into: usize) {
        let buckets = windows * self.bucket_count;
        self.first_pass(buckets);
        self.active.clear();
        let crowded = (0..buckets as u32).filter(|&b| self.lens[b as usize] >= 2);
        self.active.extend(crowded);
        while !self.active.is_empty() {
            self.inverse_passes += 1;
            self.denoms.clear();
            for &b in &self.active {
                let s = self.starts[b as usize] as usize;
                let l = self.lens[b as usize] as usize;
                let pairs = self.sorted[s..s + l].chunks_exact(2);
                self.denoms
                    .extend(pairs.map(|pair| slope_denominator(&pair[0], &pair[1])));
            }
            batch_inverse_with_scratch(&mut self.denoms, &mut self.inv_scratch);

            // Apply in the same bucket-major order, in place: pair `i` of a
            // segment lands at slot `≤ i`, behind every pair still unread, so
            // each segment compacts as it goes — sums first, odd leftover last.
            self.next_active.clear();
            let mut inverses = self.denoms.iter();
            for &b in &self.active {
                let s = self.starts[b as usize] as usize;
                let l = self.lens[b as usize] as usize;
                let mut write = 0usize;
                self.pair_adds += (l / 2) as u64;
                for (i, inv) in inverses.by_ref().take(l / 2).enumerate() {
                    let (a, c) = (&self.sorted[s + 2 * i], &self.sorted[s + 2 * i + 1]);
                    if let Some(sum) = affine_add_with_inv(a, c, inv) {
                        self.sorted[s + write] = sum;
                        write += 1;
                    }
                }
                if l % 2 == 1 {
                    self.sorted[s + write] = self.sorted[s + l - 1];
                    write += 1;
                }
                self.lens[b as usize] = write as u32;
                if write >= 2 {
                    self.next_active.push(b);
                }
            }
            std::mem::swap(&mut self.active, &mut self.next_active);
        }
        // A collapsed bucket is the first point of its segment, if any.
        for window in 0..windows {
            let (lo, hi) = (window * self.bucket_count, (window + 1) * self.bucket_count);
            if self.starts[lo] == self.starts[hi] {
                continue;
            }
            self.live.push((into + window) as u32);
            let segments = self.lens[lo..hi].iter().zip(&self.starts[lo..hi]);
            self.buckets
                .extend(segments.map(|(&len, &start)| match len {
                    0 => G1Affine::identity(),
                    _ => self.sorted[start as usize],
                }));
        }
    }

    /// The tree's first pass, read through the sorted indices: every
    /// bucket's pair sums, then its odd leftover, land in `sorted` — at
    /// most `⌈len / 2⌉` points per bucket, fewer where a pair cancels —
    /// and `starts` / `lens` move over to index them there. A pair's
    /// first point is gathered once, into the slot its sum takes.
    fn first_pass(&mut self, buckets: usize) {
        let points = self.points;
        let point = |entry: u32| {
            let p = points[(entry & !NEGATED) as usize];
            if entry & NEGATED == 0 {
                p
            } else {
                -p
            }
        };
        self.sorted.clear();
        self.denoms.clear();
        for b in 0..buckets {
            let s = self.starts[b] as usize;
            let pairs = self.order[s..s + self.lens[b] as usize].chunks_exact(2);
            let leftover = pairs.remainder().first().copied();
            for pair in pairs {
                let a = point(pair[0]);
                // Negation leaves x alone, and only a doubling or a
                // cancellation reads y.
                let cx = points[(pair[1] & !NEGATED) as usize].x;
                self.denoms.push(if a.x != cx {
                    cx - a.x
                } else {
                    slope_denominator(&a, &point(pair[1]))
                });
                self.sorted.push(a);
            }
            self.sorted.extend(leftover.map(point));
        }
        if !self.denoms.is_empty() {
            self.inverse_passes += 1;
            batch_inverse_with_scratch(&mut self.denoms, &mut self.inv_scratch);
        }

        // Apply in the same order: pair `i` of a bucket reads its first
        // point from slot `i` and lands at slot `≤ i`.
        let mut inverses = self.denoms.iter();
        let mut at = 0usize;
        for b in 0..buckets {
            let s = self.starts[b] as usize;
            let l = self.lens[b] as usize;
            let mut write = 0usize;
            self.pair_adds += (l / 2) as u64;
            for (i, inv) in inverses.by_ref().take(l / 2).enumerate() {
                let c = point(self.order[s + 2 * i + 1]);
                if let Some(sum) = affine_add_with_inv(&self.sorted[at + i], &c, inv) {
                    self.sorted[at + write] = sum;
                    write += 1;
                }
            }
            if l % 2 == 1 {
                self.sorted[at + write] = self.sorted[at + l / 2];
                write += 1;
            }
            self.starts[b] = at as u32;
            self.lens[b] = write as u32;
            at += l.div_ceil(2);
        }
        self.starts[buckets] = at as u32;
    }

    /// Running-sum reduction `Σ_j j · bucket_j` of the group's `windows`
    /// windows in lock-step, pushing one sum per window. A step adds, per
    /// window, `total += running` and `running += bucket` for the next
    /// bucket down — both on the running sum the step found, so every
    /// addition of a step is independent and one inversion serves them
    /// all; a last step with no bucket left folds the final running sums
    /// in. An identity operand makes an addition a copy; `total ==
    /// running` (after a window's first occupied bucket) and `running ==
    /// -bucket` are the doubling and cancellation cases of
    /// [`affine_add_with_inv`].
    fn reduce_group(&mut self, windows: usize, sums: &mut Vec<G1Affine>) {
        let bucket_count = self.bucket_count;
        self.running.clear();
        self.running.resize(self.live.len(), G1Affine::identity());
        let done = sums.len();
        sums.resize(done + windows, G1Affine::identity());
        let total = &mut sums[done..];
        let none_left = G1Affine::identity();
        for step in (0..=bucket_count).rev() {
            let bucket = |live: usize| match step {
                0 => &none_left,
                _ => &self.buckets[live * bucket_count + step - 1],
            };
            self.denoms.clear();
            for (live, (&w, running)) in self.live.iter().zip(&self.running).enumerate() {
                for (a, c) in [(&total[w as usize], running), (running, bucket(live))] {
                    if !a.infinity && !c.infinity {
                        self.denoms.push(slope_denominator(a, c));
                    }
                }
            }
            batch_inverse_with_scratch(&mut self.denoms, &mut self.inv_scratch);
            let mut inverses = self.denoms.iter();
            let mut add = |a: &G1Affine, c: &G1Affine| match (a.infinity, c.infinity) {
                (true, _) => *c,
                (_, true) => *a,
                _ => {
                    let inv = inverses.next().expect("one inverse per finite pair");
                    affine_add_with_inv(a, c, inv).unwrap_or_default()
                }
            };
            for (live, (&w, running)) in self.live.iter().zip(&mut self.running).enumerate() {
                total[w as usize] = add(&total[w as usize], running);
                *running = add(running, bucket(live));
            }
        }
        self.live.clear();
        self.buckets.clear();
    }
}

/// Slope denominator of the affine addition `a + c` of two finite
/// points: `x_c - x_a` for distinct x, `2 y_a` for a doubling; zero marks
/// cancellation (the batch inversion skips zeros and
/// [`affine_add_with_inv`] never reads the placeholder).
fn slope_denominator(a: &G1Affine, c: &G1Affine) -> Fq {
    if a.x != c.x {
        c.x - a.x
    } else if a.y == c.y {
        a.y.double()
    } else {
        Fq::ZERO
    }
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
#[cfg(test)]
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
        // A 2^12-point instance, four times the spawn threshold (the size
        // sweep lives in `tests/tests/prover_hot_path.rs`). Points come
        // from a generator chain (cheap to build) and scalars mix dense
        // randoms with zeros and duplicates so buckets both collide and
        // cancel.
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
    fn window_widths_are_pinned_at_the_workload_sizes() {
        // `MsmOps` — hence the benchmark's exact `curve.msm_padds` and the
        // hardware model's calibration — follows from the width alone.
        let widths: Vec<u32> = (0..=13).map(|k| optimal_window_bits(1 << k)).collect();
        assert_eq!(widths, [1, 1, 3, 3, 3, 4, 4, 4, 5, 6, 7, 8, 9, 10]);
        let either_side = [3usize, 4, 31, 32, 255, 256].map(optimal_window_bits);
        assert_eq!(either_side, [1, 3, 3, 4, 4, 5]);
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
    fn shifted_scalar_digits_match_signed_recoding() {
        // Every width `optimal_window_bits` can return, on the scalars
        // whose carries run furthest: 0, 1, r - 1, every power of two
        // below r, scalars with the top bits set, and random ones.
        let mut rng = StdRng::seed_from_u64(26);
        let mut scalars = vec![Fr::ZERO, Fr::ONE, -Fr::ONE];
        scalars.extend((0..255).map(|k| Fr::from_u64(2).pow(&[k])));
        for _ in 0..16 {
            let top = 0x7000_0000_0000_0000 | rng.gen::<u64>() >> 8;
            let limbs = [rng.gen(), rng.gen(), rng.gen(), top];
            scalars.push(Fr::from_canonical_limbs(limbs).expect("below r"));
            scalars.push(-Fr::from_u64(rng.gen_range(1..1 << 20)));
            scalars.push(Fr::random(&mut rng));
        }
        for bits in 1..=16u32 {
            let windows = SCALAR_BITS.div_ceil(bits) as usize + 1;
            let offset = recoding_offset(bits, windows);
            let mut expected = vec![0i32; windows];
            for s in &scalars {
                let limbs = s.to_canonical_limbs();
                recode_signed(&limbs, bits, &mut expected);
                let shifted = shift_scalar(limbs, &offset);
                let digits: Vec<i32> = (0..windows)
                    .map(|w| signed_digit(w, bits)(&shifted))
                    .collect();
                assert_eq!(digits, expected, "window bits {bits}, scalar {s:?}");
                // Nothing of the sum lies above the top window.
                let above =
                    (windows * bits as usize..320).find(|b| shifted[b / 64] >> (b % 64) & 1 == 1);
                assert_eq!(above, None, "window bits {bits}, scalar {s:?}");
            }
        }
        // The widest window: 17 windows of 16 bits, and r - 1 plus their
        // offset still fits below bit 272 of the five limbs.
        let widest = shift_scalar((-Fr::ONE).to_canonical_limbs(), &recoding_offset(16, 17));
        assert!(widest[4] < 1 << 16, "{widest:x?}");
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
