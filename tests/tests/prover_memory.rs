//! Heap budgets of the streamed prover, counted by a global allocator.
//!
//! The SumChecks read their bound tables in place in round 1 and fold
//! their own half-size copies in place after that, and the permutation
//! numerator / denominator tables live only from just before the PermCheck
//! into its first round. Both show up as a bound on the peak live bytes a
//! prove adds to what was resident when it started; a clone of a table set
//! anywhere on the path breaks the bound.
//!
//! The allocator counts every thread, so this file holds exactly one
//! `#[test]` and proves at one thread: nothing else allocates while it
//! measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use rand::rngs::StdRng;
use rand::SeedableRng;
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
/// OpenCheck's compiled plan (one class per claim). About 37 KiB at
/// Jellyfish µ 8, where the OpenCheck reaches it.
const BOOKKEEPING: usize = 48 << 10;

/// A one-thread prove of a random `2^mu`-row circuit against the budget
/// below: the largest phase of the streamed dataflow in units of `T` (one
/// table) and `M` (one commitment MSM's working set, which depends on the
/// point count only and is measured here by committing a σ table), plus
/// [`BOOKKEEPING`]. With `W` witness columns, `S` selectors and
/// `k_p = S + 2W + 4` committed tables:
///
/// * perm commitments — ϕ, π, p1, p2 beside one MSM: `4T + M`;
/// * PermCheck round 1 — ϕ, π, p1, p2, the moved `N_i`, `D_i` and `f_r`
///   (`(5 + 2W)T`), the four borrowed tables' halves (`2T`) and the first
///   owned table's half before the table itself is freed (`T/2`):
///   `(7.5 + 2W)T`;
/// * OpenCheck round 1 — ϕ, π, p1, p2 and three `eq` tables (`7T`), the
///   `k_p` borrowed tables' halves and the first `eq` half:
///   `(7.5 + k_p / 2)T`.
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
    let (s, w) = (system.num_selectors(), system.num_witness_columns());
    let k_p = s + 2 * w + 4;
    let phases = [4 * t + msm, (15 + 4 * w) * t / 2, (15 + k_p) * t / 2];
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
}
