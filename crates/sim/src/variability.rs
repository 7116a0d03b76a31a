//! Monte-Carlo inter-chip process variation (Fig. 5.4's methodology).
//!
//! "We have assumed that the desynchronized real average case is a normal
//! distribution between the two extreme cases, exactly like SSTA does for
//! variability factors" (§5.2.2). Each fabricated chip draws a process
//! point `t ∈ [0, 1]` (0 = best corner, 1 = worst) from a clamped
//! Gaussian; the delay elements track the same silicon as the logic they
//! match, so a desynchronized chip runs at its own `t` while a synchronous
//! design must be clocked for `t = 1`.

use drd_liberty::Corner;

use crate::SimError;

/// SplitMix64 step: the sim crate keeps its own inlined generator (it
/// cannot depend on `drd-check`, which depends on this crate) so the
/// workspace stays free of registry dependencies.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn uniform(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// One standard-normal draw from a freshly keyed stream: the stream is a
/// pure function of `key`, never of any caller iteration order.
fn gauss(key: u64) -> f64 {
    // Pre-whiten the key through one splitmix step so structured keys
    // (small chip/gate indices) land on uncorrelated streams.
    let mut whiten = key;
    let mut state = splitmix64(&mut whiten);
    let u1 = uniform(&mut state).max(1e-12);
    let u2 = uniform(&mut state);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Intra-die spread as a fraction of the inter-chip `sigma`: within one
/// die, neighbouring gates track each other far more closely than two
/// dies track each other (the SSTA assumption behind §5.2.2's normal
/// model).
const INTRA_DIE_FRACTION: f64 = 0.25;

/// Order-independent per-gate delay draws, keyed by
/// `(campaign_seed, chip_index, gate_index)`.
///
/// Each draw hashes its full coordinate into a fresh SplitMix64 stream
/// instead of advancing one sequential stream, so any iteration order —
/// and any parallel schedule, or a caller that skips chips — sees the
/// same chips and the same gates.
///
/// Factors are normalized to the typical chip: `factor` divides the
/// interpolated corner derating by the `t = 0.5` derating, so a
/// zero-sigma campaign yields *exactly* `1.0` for every gate and a
/// Monte-Carlo run at `sigma = 0` reproduces the nominal simulation
/// bit for bit (the property `crates/check` tests).
#[derive(Debug, Clone, Copy)]
pub struct GateVariability {
    campaign_seed: u64,
    sigma: f64,
}

impl GateVariability {
    /// A campaign: `sigma` is the inter-chip process spread of the
    /// clamped-Gaussian process point `t ~ N(0.5, sigma)`.
    pub fn new(campaign_seed: u64, sigma: f64) -> GateVariability {
        GateVariability {
            campaign_seed,
            sigma,
        }
    }

    /// The campaign seed.
    pub fn campaign_seed(&self) -> u64 {
        self.campaign_seed
    }

    /// The inter-chip sigma.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Checks that the draws can use the campaign's sigma: a spread must
    /// be finite and not negative. A NaN point would reach
    /// [`Corner::interpolate`], which panics, and an infinite one turns
    /// every draw into a corner (or NaN where the Gaussian draws 0).
    ///
    /// # Errors
    /// [`SimError::Handshake`] naming the sigma.
    pub(crate) fn check(&self) -> Result<(), SimError> {
        if self.sigma.is_finite() && self.sigma >= 0.0 {
            return Ok(());
        }
        Err(SimError::Handshake {
            message: format!(
                "variability sigma {} is not a finite non-negative number",
                self.sigma
            ),
        })
    }

    fn key(&self, chip_index: u64, gate_index: u64) -> u64 {
        // Distinct odd multipliers keep the two coordinates from
        // aliasing (chip 1/gate 0 vs chip 0/gate 1).
        self.campaign_seed
            ^ chip_index.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ gate_index.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
    }

    /// Chip `chip_index`'s process point `t ∈ [0, 1]` — a function of
    /// `(campaign_seed, chip_index)` only.
    pub fn chip_point(&self, chip_index: u64) -> f64 {
        let z = gauss(self.key(chip_index, u64::MAX));
        (0.5 + z * self.sigma).clamp(0.0, 1.0)
    }

    /// Gate `gate_index`'s process point on chip `chip_index`: the chip
    /// point plus a smaller intra-die deviation, clamped to `[0, 1]`.
    pub fn gate_point(&self, chip_index: u64, gate_index: u64) -> f64 {
        self.gate_point_on(self.chip_point(chip_index), chip_index, gate_index)
    }

    /// [`GateVariability::gate_point`] on a chip whose point is drawn.
    fn gate_point_on(&self, chip_point: f64, chip_index: u64, gate_index: u64) -> f64 {
        let z = gauss(self.key(chip_index, gate_index));
        (chip_point + z * self.sigma * INTRA_DIE_FRACTION).clamp(0.0, 1.0)
    }

    /// The typical-normalized delay factor of one gate on one chip:
    /// exactly `1.0` when `sigma == 0`.
    ///
    /// # Panics
    /// Panics if the sigma is NaN, or infinite where the gate's Gaussian
    /// draw is 0 (the process point is then NaN). `HandshakeNet`'s
    /// `chip_sample` and `monte_carlo` reject such a sigma with an error
    /// before drawing.
    pub fn factor(&self, chip_index: u64, gate_index: u64) -> f64 {
        let typical = Corner::interpolate(0.5).delay_factor;
        Corner::interpolate(self.gate_point(chip_index, gate_index)).delay_factor / typical
    }

    /// [`GateVariability::factor`] of gates `0..gates` on one chip, bit
    /// for bit: the chip point and the typical-corner derating are
    /// computed once per chip instead of once per gate.
    ///
    /// # Panics
    /// As [`GateVariability::factor`].
    pub(crate) fn chip_factors(&self, chip_index: u64, gates: usize) -> Vec<f64> {
        let chip_point = self.chip_point(chip_index);
        let typical = Corner::interpolate(0.5).delay_factor;
        (0..gates as u64)
            .map(|g| {
                Corner::interpolate(self.gate_point_on(chip_point, chip_index, g)).delay_factor
                    / typical
            })
            .collect()
    }

    /// The typical-normalized worst-corner factor — what a synchronous
    /// design must be clocked for regardless of its own silicon.
    pub fn worst_corner_factor() -> f64 {
        Corner::worst().delay_factor / Corner::interpolate(0.5).delay_factor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_draws_are_order_independent() {
        let var = GateVariability::new(0xC0FFEE, 0.15);
        // Visit (chip, gate) coordinates in two very different orders;
        // the draws are keyed, not streamed, so each coordinate's value
        // is identical either way.
        let mut forward = Vec::new();
        for chip in 0..16u64 {
            for gate in 0..16u64 {
                forward.push((chip, gate, var.factor(chip, gate)));
            }
        }
        for &(chip, gate, f) in forward.iter().rev() {
            assert_eq!(f.to_bits(), var.factor(chip, gate).to_bits());
        }
        // Skipping chips must not shift later chips' silicon.
        assert_eq!(
            var.factor(11, 3).to_bits(),
            GateVariability::new(0xC0FFEE, 0.15).factor(11, 3).to_bits()
        );
    }

    #[test]
    fn chip_factors_equal_the_per_gate_draws() {
        for sigma in [0.0, 0.15, 0.6] {
            let var = GateVariability::new(0xC0FFEE, sigma);
            for chip in 0..8u64 {
                let factors = var.chip_factors(chip, 64);
                assert_eq!(factors.len(), 64);
                for (gate, f) in factors.iter().enumerate() {
                    assert_eq!(f.to_bits(), var.factor(chip, gate as u64).to_bits());
                }
            }
        }
    }

    #[test]
    fn zero_sigma_factors_are_exactly_one() {
        let var = GateVariability::new(7, 0.0);
        for chip in 0..8u64 {
            for gate in 0..8u64 {
                assert_eq!(var.factor(chip, gate), 1.0);
            }
        }
    }

    #[test]
    fn gate_factors_track_the_chip_point() {
        let var = GateVariability::new(42, 0.2);
        for chip in 0..32u64 {
            let t = var.chip_point(chip);
            assert!((0.0..=1.0).contains(&t));
            // Intra-die spread is a fraction of the chip spread: gate
            // points stay near the chip point.
            let mean: f64 = (0..64u64).map(|g| var.gate_point(chip, g)).sum::<f64>() / 64.0;
            assert!((mean - t).abs() < 0.1, "chip {chip}: {mean} vs {t}");
        }
        // Factors span the corner range and stay positive.
        let worst = GateVariability::worst_corner_factor();
        for chip in 0..32u64 {
            let f = var.factor(chip, 0);
            assert!(f > 0.0 && f <= worst + 1e-9, "{f}");
        }
    }

    #[test]
    fn distinct_coordinates_get_distinct_draws() {
        let var = GateVariability::new(1, 0.15);
        // (chip 1, gate 0) and (chip 0, gate 1) must not alias.
        assert_ne!(var.factor(1, 0).to_bits(), var.factor(0, 1).to_bits());
        assert_ne!(var.factor(0, 0).to_bits(), var.factor(0, 1).to_bits());
        assert_ne!(var.factor(0, 0).to_bits(), var.factor(1, 0).to_bits());
    }
}
