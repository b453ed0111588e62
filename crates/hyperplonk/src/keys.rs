//! Setup: preprocessing the circuit into proving/verifying keys.
//!
//! HyperPlonk has a *universal* setup (paper Table IX): the SRS depends
//! only on the maximum circuit size. Per-circuit preprocessing commits the
//! selector and σ polynomials so the verifier never sees them in the
//! clear.

use rand::Rng;
use zkphire_pcs::{Commitment, MultilinearKzg, TrapdoorVerifier};
use zkphire_poly::Mle;

use crate::circuit::{Circuit, GateSystem};
use crate::permutation::sigma_mles;
use crate::prover::ProverConfig;

/// Everything the prover needs: the circuit, the SRS, and preprocessed
/// wiring polynomials.
#[derive(Clone, Debug)]
pub struct ProvingKey {
    /// The constraint system.
    pub circuit: Circuit,
    /// Prover-side SRS.
    pub pcs: MultilinearKzg,
    /// Per-column σ MLEs (preprocessed).
    pub sigma_mles: Vec<Mle>,
    /// Commitments to the selector columns.
    pub selector_commitments: Vec<Commitment>,
    /// Commitments to the σ columns.
    pub sigma_commitments: Vec<Commitment>,
}

/// Everything the verifier needs (no private material beyond the
/// DESIGN.md-S1 trapdoor, which replaces the pairing check).
#[derive(Clone, Debug)]
pub struct VerifyingKey {
    /// Gate repertoire.
    pub system: GateSystem,
    /// log2 of the row count.
    pub num_vars: usize,
    /// Commitments to the selector columns.
    pub selector_commitments: Vec<Commitment>,
    /// Commitments to the σ columns.
    pub sigma_commitments: Vec<Commitment>,
    /// Opening verifier (substitution S1).
    pub pcs_verifier: TrapdoorVerifier,
}

/// Runs setup + preprocessing for a circuit, committing the selector and
/// σ columns on every available core.
pub fn setup<R: Rng + ?Sized>(circuit: Circuit, rng: &mut R) -> (ProvingKey, VerifyingKey) {
    setup_with_threads(circuit, rng, ProverConfig::default().threads)
}

/// [`setup`] with an explicit MSM worker-thread count; the keys do not
/// depend on it.
pub fn setup_with_threads<R: Rng + ?Sized>(
    circuit: Circuit,
    rng: &mut R,
    threads: usize,
) -> (ProvingKey, VerifyingKey) {
    let (pcs, pcs_verifier) = MultilinearKzg::setup(circuit.num_vars, rng);
    let sigmas = sigma_mles(
        &circuit.sigma,
        circuit.system.num_witness_columns(),
        circuit.num_vars,
    );
    let commit_all = |columns: &[Mle]| -> Vec<Commitment> {
        columns
            .iter()
            .map(|c| pcs.commit_with_threads(c, threads))
            .collect()
    };
    let selector_commitments = commit_all(&circuit.selectors);
    let sigma_commitments = commit_all(&sigmas);

    let vk = VerifyingKey {
        system: circuit.system,
        num_vars: circuit.num_vars,
        selector_commitments: selector_commitments.clone(),
        sigma_commitments: sigma_commitments.clone(),
        pcs_verifier,
    };
    let pk = ProvingKey {
        circuit,
        pcs,
        sigma_mles: sigmas,
        selector_commitments,
        sigma_commitments,
    };
    (pk, vk)
}
