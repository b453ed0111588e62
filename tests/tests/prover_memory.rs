//! Heap budgets of the streamed prover, counted by a global allocator.
//!
//! The SumChecks read their bound tables in place in round 1 and fold
//! their own half-size copies in place after that, the permutation
//! numerator / denominator tables live only from just before the PermCheck
//! into its first round, and the OpenCheck binds one combined table and
//! one `eq` table per evaluation point. All of it shows up as a bound on
//! the peak live bytes a prove adds to what was resident when it started;
//! a clone of a table set anywhere on the path breaks the bound. The MSM
//! behind every commitment is held to its own working-set formula, which
//! a digit table or a sorted copy of the points breaks.
//!
//! The allocator counts every thread, so this file holds exactly one
//! `#[test]` and proves at one thread: nothing else allocates while it
//! measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkphire_curve::{
    batch_normalize, msm_with_ops_threads, optimal_window_bits, G1Affine, G1Projective,
};
use zkphire_field::Fr;
use zkphire_hyperplonk::{prove_with_config, setup, Circuit, GateSystem, ProverConfig};
use zkphire_poly::sparsity::random_binding;
use zkphire_poly::table1_gate;
use zkphire_sumcheck::prove_with_threads;
use zkphire_transcript::Transcript;

/// Forwards to [`System`], tracking live bytes and their peak.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout`, passed through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's block, layout and size, passed through.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f`, returning its result and the most live bytes it added at any
/// moment to what was live when it started.
fn peak_growth<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let resident = LIVE.load(Ordering::Relaxed);
    PEAK.store(resident, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed) - resident)
}

/// Bytes of one `2^mu`-entry table.
fn table_bytes(mu: usize) -> usize {
    std::mem::size_of::<Fr>() << mu
}

/// Size-independent live bytes beside the tables: transcript buffers, the
/// SumCheck proofs and challenge points, the claim lists and the
/// SumChecks' compiled plans. About 19 KiB at Jellyfish µ 8, whose peak
/// is its PermCheck; an OpenCheck bound claim by claim (21 tables and a
/// 33-class plan there) overruns it.
const BOOKKEEPING: usize = 32 << 10;

/// The OpenCheck's evaluation points: it binds one combined table `G_p`
/// and one `eq` table for each.
const POINTS: usize = 3;

/// Bytes of one affine point.
const POINT: usize = std::mem::size_of::<G1Affine>();

/// A one-thread prove of a random `2^mu`-row circuit against the budget
/// below: the largest phase of the streamed dataflow in units of `T` (one
/// table) and `M` (one commitment MSM's working set, which depends on the
/// point count only and is measured here by committing a σ table), plus
/// [`BOOKKEEPING`]. With `W` witness columns and `S` selectors:
///
/// * perm commitments — ϕ, π, p1, p2 beside one MSM: `4T + M`;
/// * PermCheck round 1 — ϕ, π, p1, p2, the moved `N_i`, `D_i` and `f_r`
///   (`(5 + 2W)T`), the four borrowed tables' halves (`2T`) and the first
///   owned table's half before the table itself is freed (`T/2`):
///   `(7.5 + 2W)T`;
/// * OpenCheck round 1 — ϕ, π, p1, p2, the three `G_p` and the three
///   `eq` tables, and the first one's half: `(4 + 2·3 + ½)T`. Building the
///   last `eq` table (its last two layers, `1.5T`) peaks at the same.
///
/// The gate ZeroCheck (`f_r` plus `(S + W + 1) / 2` tables of halves) and
/// the opening (`g`, its first half and the quotient buffer beside a
/// half-size MSM) stay under these.
fn assert_prove_within_budget(system: GateSystem, mu: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (circuit, witness) = Circuit::random(system, mu, 0.5, &mut rng);
    let (pk, _vk) = setup(circuit, &mut rng);

    let (_, msm) = peak_growth(|| pk.pcs.commit_with_threads(&pk.sigma_mles[0], 1));
    let t = table_bytes(mu);
    let w = system.num_witness_columns();
    let phases = [4 * t + msm, (15 + 4 * w) * t / 2, (9 + 4 * POINTS) * t / 2];
    let budget = phases.iter().max().expect("three phases") + BOOKKEEPING;

    let (_, peak) = peak_growth(|| {
        prove_with_config(
            &pk,
            &witness,
            &mut Transcript::new(b"memory"),
            ProverConfig { threads: 1 },
        )
    });
    assert!(
        peak <= budget,
        "{system:?} µ {mu}: prove peak {peak} B above resident, budget {budget} B \
         (T = {t} B, M = {msm} B, phases {phases:?})"
    );
}

/// One-thread working set of an MSM over `n` points with dense scalars,
/// term by term as `zkphire_curve`'s MSM module lists it. With a window
/// width of `c` bits, `B = 2^(c-1)` buckets per window and `W` windows, a
/// group of `group_len` windows reduced in lock-step — at most 40, and
/// from 2^10 points at most `⌈W/2⌉`, split evenly — and sorts of
/// `sort_len` windows (as many as keep a sort within 256 points):
fn msm_working_set(n: usize) -> usize {
    let c = optimal_window_bits(n) as usize;
    let (buckets, windows) = (1 << (c - 1), 255usize.div_ceil(c) + 1);
    let most = if n < 1 << 10 { 40 } else { windows.div_ceil(2) };
    let group_len = windows.div_ceil(windows.div_ceil(most));
    let sort_len = (256 / n).clamp(1, group_len);
    let max_pairs = (sort_len * n / 2).max(2 * group_len);

    // Each scalar once, in five limbs with the signed-recoding offset.
    let shifted_scalars = 40 * n;
    // A sort's point indices, counting-sorted by bucket.
    let order = 4 * sort_len * n;
    // The first pair-reduction pass's sums and odd leftovers.
    let sorted = POINT * (sort_len * (n + buckets)).div_ceil(2);
    // The group's collapsed buckets.
    let buckets_held = POINT * group_len * buckets;
    // Slope denominators and the batch inversion's scratch, per pair.
    let denominators = 96 * max_pairs;
    // Per bucket of a sort: segment start, length and two active lists.
    let bucket_index = 4 * (4 * sort_len * buckets + 1);
    // Per window of a group: its index and running sum.
    let lock_step = (4 + POINT) * group_len;
    // The window sums, in the worker's one-entry result list.
    let results = POINT * windows + 32;
    shifted_scalars
        + order
        + sorted
        + buckets_held
        + denominators
        + bucket_index
        + lock_step
        + results
}

/// An MSM of `n` dense points at one thread, measured against
/// [`msm_working_set`].
fn assert_msm_within_working_set(n: usize) {
    let g = G1Affine::generator();
    let chain: Vec<G1Projective> =
        std::iter::successors(Some(G1Projective::from(g)), |p| Some(p.add_mixed(&g)))
            .take(n)
            .collect();
    let points = batch_normalize(&chain);
    let mut rng = StdRng::seed_from_u64(n as u64);
    let scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();

    let (_, held) = peak_growth(|| msm_with_ops_threads(&points, &scalars, 1));
    let formula = msm_working_set(n);
    assert!(
        held <= formula,
        "MSM of {n} points: working set {held} B, formula {formula} B"
    );
}

/// The owned wrapper frees each original as soon as round 1 has written
/// its half: beyond the tables it was handed, a prove never holds more
/// than one half-size copy of the binding.
fn assert_owned_sumcheck_within_half_set(mu: usize) {
    let gate = table1_gate(22);
    let mut rng = StdRng::seed_from_u64(25);
    let scalars: Vec<Fr> = (0..gate.poly.num_scalars())
        .map(|_| Fr::random(&mut rng))
        .collect();
    let poly = gate.poly.specialize(&scalars);
    let mles = random_binding(&mut rng, &gate.mle_kinds, mu);
    let half_set = mles.len() * table_bytes(mu) / 2;

    let (_, peak) =
        peak_growth(|| prove_with_threads(&poly, mles, &mut Transcript::new(b"memory"), 1));
    assert!(
        peak <= half_set,
        "owned SumCheck µ {mu}: peak {peak} B above its inputs, half-size set {half_set} B"
    );
}

#[test]
fn streamed_prover_stays_within_its_heap_budget() {
    assert_prove_within_budget(GateSystem::Jellyfish, 8, 0xb0b);
    assert_prove_within_budget(GateSystem::Vanilla, 9, 0xa11ce);
    assert_owned_sumcheck_within_half_set(10);
    assert_msm_within_working_set(1 << 5);
    assert_msm_within_working_set(1 << 11);
}
