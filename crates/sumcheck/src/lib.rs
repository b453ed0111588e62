//! The SumCheck protocol over composite multilinear polynomials.
//!
//! This crate is the functional core of the paper (§II-C): a prover and
//! verifier for `Σ_x f(x) = C` where `f` is any sum of products of
//! multilinear polynomials — the exact generality the programmable
//! accelerator targets. It provides:
//!
//! * [`prove`] — multithreaded prover (the repository's real CPU
//!   baseline), running a round schedule compiled once per prove: each
//!   term at its own `degree + 1` points, zero lines skipped, `f_r`
//!   factored out. Round 1 reads every table once and writes a half-size
//!   copy, later rounds fold those copies in place; an owned table is
//!   freed as soon as its half is written, and [`prove_borrowed`] /
//!   [`prove_zero_check_borrowed`] take tables the caller keeps, which
//!   are never copied whole;
//! * [`prove_instrumented`] — single-threaded reference that runs the
//!   modelled per-pair dataflow and counts every field operation,
//!   validating the analytical [`count_ops`] oracle shared with the
//!   hardware model; the differential oracle of [`prove`];
//! * [`verify`] / [`verify_with_oracle`] — round and final-evaluation
//!   checks;
//! * [`zerocheck`] — the randomized `f * eq(x, r)` transformation (§III-F).
//!
//! # Examples
//!
//! ```
//! use std::borrow::Cow;
//!
//! use zkphire_field::Fr;
//! use zkphire_poly::{expr::var, Mle};
//! use zkphire_sumcheck::{prove_borrowed, verify_with_oracle};
//! use zkphire_transcript::Transcript;
//!
//! let f = (var(0) * var(1)).expand();
//! let a = Mle::new((0..8).map(Fr::from_u64).collect());
//! let b = Mle::new((8..16).map(Fr::from_u64).collect());
//! let mles = vec![a, b];
//!
//! // The prover borrows the tables, so the oracle check can read them after.
//! let mut tp = Transcript::new(b"doc");
//! let out = prove_borrowed(&f, mles.iter().map(Cow::Borrowed).collect(), &mut tp, 1);
//!
//! let mut tv = Transcript::new(b"doc");
//! verify_with_oracle(&f, &mles, &out.proof, &mut tv).expect("verifies");
//! ```

mod interp;
mod ops;
mod plan;
mod prover;
mod verifier;
pub mod zerocheck;

pub use interp::{interpolate_at, BarycentricWeights};
pub use ops::{coeff_needs_mul, count_ops, product_muls_per_pair, SumcheckOps};
pub use prover::{
    prove, prove_borrowed, prove_instrumented, prove_with_threads, ProverOutput, SumCheckProof,
};
pub use verifier::{verify, verify_with_oracle, SumCheckError, VerifiedSumCheck};
pub use zerocheck::{
    eq_eval, prove_zero_check, prove_zero_check_borrowed, prove_zero_check_with_threads,
    verify_zero_check,
};
