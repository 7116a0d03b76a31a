//! Library facts: the constants the passes derive from the library by
//! STA on probe netlists (§3.1.4: "we implement delay elements of
//! variable logic depth … and perform STA to measure their delay
//! values"). Like the gatefile, they are library preparation, not
//! per-design work.
//!
//! [`LibraryFacts`] is the one way the passes read them: the delay of one
//! delay-element level (`control-network`, the liveness guard), the
//! guard's [`ResponseModel`], the mux-tree overhead of a multiplexed
//! element (`control-network` and the guard's deepen repair under
//! `--muxed`) and the flip-flop overhead. Each probed value is measured
//! on first use and kept in the gatefile's
//! [`MeasuredDelays`], so every run against one prepared gatefile — the
//! CLI's one run, every job of a `serve` process — measures it once. A
//! failed measurement is not kept: the next use measures again and
//! returns the same error, at the same pass as before.

use std::sync::OnceLock;

use drd_liberty::gatefile::MeasuredDelays;
use drd_liberty::Library;

use crate::liveness::{self, ResponseModel};
use crate::{delay_element, DesyncError};

/// A library with its kept probe measurements. See the module docs.
#[derive(Debug, Clone, Copy)]
pub struct LibraryFacts<'a> {
    lib: &'a Library,
    measured: &'a MeasuredDelays,
}

impl<'a> LibraryFacts<'a> {
    /// The facts of `lib`, kept in `measured` (a prepared gatefile's
    /// [`drd_liberty::gatefile::Gatefile::measured`], built from `lib`).
    pub fn new(lib: &'a Library, measured: &'a MeasuredDelays) -> Self {
        LibraryFacts { lib, measured }
    }

    /// The library.
    pub fn library(&self) -> &'a Library {
        self.lib
    }

    /// Typical-corner delay of one delay-element AND level (ns).
    ///
    /// # Errors
    /// Propagates STA errors of the probe.
    pub fn level_delay(&self) -> Result<f64, DesyncError> {
        kept(&self.measured.level_delay_ns, || {
            delay_element::level_delay_ns(self.lib)
        })
    }

    /// The liveness guard's response-bound model.
    ///
    /// # Errors
    /// [`DesyncError::UnknownCell`] when a controller gate is missing;
    /// propagates STA errors of the probes.
    pub fn response(&self) -> Result<ResponseModel, DesyncError> {
        let level_delay_ns = self.level_delay()?;
        let chain = kept(&self.measured.chain_arrival_ns, || {
            liveness::chain_arrival_ns(self.lib)
        })?;
        ResponseModel::measured(self.lib, level_delay_ns, chain)
    }

    /// AND levels the 8:1 mux tree of a multiplexed delay element is
    /// worth.
    ///
    /// # Errors
    /// Propagates STA errors of the probes.
    pub fn mux_overhead(&self) -> Result<usize, DesyncError> {
        kept(&self.measured.mux_overhead_levels, || {
            delay_element::mux_overhead_levels(self.lib)
        })
    }

    /// Flip-flop overhead of a synchronous reference period (ns); see
    /// [`crate::ff_overhead_ns`].
    pub fn ff_overhead(&self) -> f64 {
        crate::ff_overhead_ns(self.lib)
    }
}

/// `slot`'s value, measured by `measure` on first success. Two threads
/// that race both measure, and the first to finish is kept; the probes
/// are deterministic, so both measured the same value.
fn kept<T: Clone>(
    slot: &OnceLock<T>,
    measure: impl FnOnce() -> Result<T, DesyncError>,
) -> Result<T, DesyncError> {
    if let Some(value) = slot.get() {
        return Ok(value.clone());
    }
    let value = measure()?;
    Ok(slot.get_or_init(|| value).clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use drd_liberty::gatefile::Gatefile;
    use drd_liberty::vlib90;

    /// Fresh facts equal fresh probes and are kept in the gatefile.
    #[test]
    fn facts_equal_fresh_probes_and_are_kept() {
        let lib = vlib90::high_speed();
        let gatefile = Gatefile::from_library(&lib).unwrap();
        let facts = LibraryFacts::new(&lib, &gatefile.measured);
        assert!(gatefile.measured.level_delay_ns.get().is_none());
        assert_eq!(
            facts.level_delay().unwrap(),
            delay_element::level_delay_ns(&lib).unwrap()
        );
        assert_eq!(
            facts.response().unwrap(),
            ResponseModel::probe(&lib).unwrap()
        );
        assert_eq!(
            facts.mux_overhead().unwrap(),
            delay_element::mux_overhead_levels(&lib).unwrap()
        );
        let kept = &gatefile.measured;
        assert!(kept.level_delay_ns.get().is_some() && kept.chain_arrival_ns.get().is_some());
        assert!(kept.mux_overhead_levels.get().is_some());
    }

    /// A kept value is read, not measured again: a planted level delay
    /// comes back, and the response model is built on it.
    #[test]
    fn a_kept_value_is_read_not_measured() {
        let lib = vlib90::high_speed();
        let measured = MeasuredDelays::default();
        measured.level_delay_ns.set(1.25).unwrap();
        let facts = LibraryFacts::new(&lib, &measured);
        assert_eq!(facts.level_delay().unwrap(), 1.25);
        assert_eq!(facts.response().unwrap().level_delay_ns, 1.25);
    }
}
