//! Independent checks of the service's outputs, by dense simulation of the
//! uncompiled input.

use quclear_circuit::Circuit;
use quclear_pauli::{PauliRotation, SignedPauli};
use quclear_sim::StateVector;
use rand::rngs::StdRng;
use rand::Rng;

/// Largest register a compile output is simulated at.
pub const MAX_CHECKED_QUBITS: usize = 12;

/// A seeded random product state preparation: `Ry · Rz` on every qubit.
fn product_input(n: usize, rng: &mut StdRng) -> Circuit {
    let mut prep = Circuit::new(n);
    for q in 0..n {
        prep.ry(q, rng.gen_range(0.0..std::f64::consts::PI));
        prep.rz(
            q,
            rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI),
        );
    }
    prep
}

/// Whether `compiled` (optimized followed by the extracted Clifford)
/// implements `rotations` up to global phase on a random product input.
pub fn compile_agrees(rotations: &[PauliRotation], compiled: &Circuit, rng: &mut StdRng) -> bool {
    let prep = product_input(compiled.num_qubits(), rng);
    let mut reference = StateVector::from_circuit(&prep);
    reference.apply_rotations(rotations);
    let mut actual = StateVector::from_circuit(&prep);
    actual.apply_circuit(compiled);
    reference.approx_eq_up_to_phase(&actual, 1e-6)
}

/// Exact `⟨O⟩` of `prep` followed by the uncompiled `rotations`.
pub fn exact_expectations(
    prep: &Circuit,
    rotations: &[PauliRotation],
    observables: &[SignedPauli],
) -> Vec<f64> {
    let mut state = StateVector::from_circuit(prep);
    state.apply_rotations(rotations);
    if !observables.iter().all(|o| o.pauli().x_bits().is_zero()) {
        return observables
            .iter()
            .map(|o| state.expectation_signed(o))
            .collect();
    }
    // Z-type observables are diagonal: read every one off the probabilities.
    let probabilities = state.probabilities();
    observables
        .iter()
        .map(|o| {
            let mask = (0..o.num_qubits())
                .filter(|&q| o.pauli().z_bits().get(q))
                .fold(0usize, |m, q| m | 1 << q);
            let parity_sum: f64 = probabilities
                .iter()
                .enumerate()
                .map(|(x, p)| {
                    if (x & mask).count_ones() % 2 == 0 {
                        *p
                    } else {
                        -p
                    }
                })
                .sum();
            o.sign() * parity_sum
        })
        .collect()
}

/// The sampling gate: every estimate within `6/√shots` of the exact value.
pub fn within_sampling_bound(estimates: &[f64], exact: &[f64], shots: u64) -> Result<(), String> {
    let bound = 6.0 / (shots as f64).sqrt();
    if estimates.len() != exact.len() {
        return Err(format!(
            "{} estimates for {} observables",
            estimates.len(),
            exact.len()
        ));
    }
    for (i, (e, x)) in estimates.iter().zip(exact).enumerate() {
        let within = (e - x).abs() < bound;
        if !within {
            return Err(format!(
                "observable {i}: sampled {e} vs exact {x} (bound {bound})"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use quclear_pauli::PauliString;
    use rand::SeedableRng;

    #[test]
    fn a_wrong_compile_is_rejected() {
        let program = vec![
            PauliRotation::new("ZZI".parse::<PauliString>().unwrap(), 0.7),
            PauliRotation::new("IXY".parse::<PauliString>().unwrap(), -0.4),
        ];
        let compiled = quclear_core::compile(&program, &quclear_core::QuClearConfig::default());
        let mut rng = StdRng::seed_from_u64(3);
        assert!(compile_agrees(&program, &compiled.full_circuit(), &mut rng));
        let mut wrong = compiled.full_circuit();
        wrong.rz(0, 0.3);
        assert!(!compile_agrees(&program, &wrong, &mut rng));
    }

    #[test]
    fn the_sampling_gate_rejects_far_estimates() {
        assert!(within_sampling_bound(&[0.5], &[0.5 + 0.9 * 6.0 / 100.0], 10_000).is_ok());
        assert!(within_sampling_bound(&[0.5], &[0.5 + 1.1 * 6.0 / 100.0], 10_000).is_err());
        assert!(within_sampling_bound(&[f64::NAN], &[0.0], 10_000).is_err());
        assert!(within_sampling_bound(&[0.0, 0.0], &[0.0], 10_000).is_err());
    }
}
