//! BLS12-381 G1 group arithmetic and multi-scalar multiplication.
//!
//! zkPHIRE targets the same elliptic curve as HyperPlonk — BLS12-381, with
//! 255-bit scalars and 381-bit point coordinates (paper §V). This crate
//! provides the group operations behind the paper's MSM unit: Jacobian
//! point addition/doubling (the hardware's fully pipelined PADD cores) and
//! Pippenger's bucket algorithm (§II-B), including the sparse-scalar
//! behaviour the accelerator exploits for witness commitments.
//!
//! # Examples
//!
//! ```
//! use zkphire_curve::{msm, G1Affine};
//! use zkphire_field::Fr;
//!
//! let points = vec![G1Affine::generator(); 4];
//! let scalars: Vec<Fr> = (1..=4).map(Fr::from_u64).collect();
//! // 1g + 2g + 3g + 4g == 10g
//! assert_eq!(msm(&points, &scalars), G1Affine::generator().mul_fr(&Fr::from_u64(10)));
//! ```

mod g1;
mod msm;

pub use g1::{batch_normalize, curve_b, G1Affine, G1Projective};
pub use msm::{msm, msm_naive, msm_with_ops, msm_with_ops_threads, optimal_window_bits, MsmOps};
