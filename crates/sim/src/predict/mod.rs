//! Branch direction predictors (gshare and 8-component TAGE), the
//! return-address stack, and a store-set memory-dependence predictor.

mod gshare;
mod memdep;
mod ras;
mod tage;

pub use gshare::Gshare;
pub use memdep::StoreSets;
pub use ras::{Ras, RasCheckpoint};
pub use tage::Tage;

/// A conditional-branch direction predictor.
pub trait DirectionPredictor {
    /// Predicts taken/not-taken for the branch at `pc`.
    fn predict(&mut self, pc: u32) -> bool;
    /// Trains with the resolved outcome, in program order at retire.
    fn update(&mut self, pc: u32, taken: bool);
    /// Repairs speculative history after a squash.
    fn recover(&mut self);
}

/// Which predictor a machine uses (Figures 11–13 use gshare; Figure
/// 14 swaps in TAGE).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorKind {
    /// Gshare, 10-bit global history, 32 K entries (Table I).
    Gshare,
    /// 8-component CBP-TAGE (Figure 14).
    Tage,
}

/// Builds the configured predictor.
#[must_use]
pub fn build(kind: PredictorKind) -> Box<dyn DirectionPredictor> {
    match kind {
        PredictorKind::Gshare => Box::new(Gshare::new()),
        PredictorKind::Tage => Box::new(Tage::new()),
    }
}
