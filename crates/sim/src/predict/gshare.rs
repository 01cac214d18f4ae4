//! Gshare: global history XOR PC indexing a table of 2-bit counters.
//! Table I: 10-bit global history, 32 K entries.

use super::DirectionPredictor;

const TABLE_BITS: u32 = 15; // 32 K entries
const HISTORY_BITS: u32 = 10;

/// Gshare direction predictor with speculative history and
/// squash repair.
#[derive(Debug, Clone)]
pub struct Gshare {
    table: Vec<u8>,
    /// Architectural (retire-consistent) history — restored on squash.
    history: u32,
    /// Speculative history updated at predict time.
    spec_history: u32,
}

impl Gshare {
    /// Builds a weakly-not-taken-initialized predictor.
    #[must_use]
    pub fn new() -> Gshare {
        Gshare { table: vec![1; 1 << TABLE_BITS], history: 0, spec_history: 0 }
    }

    fn index(&self, pc: u32, history: u32) -> usize {
        let mask = (1u32 << TABLE_BITS) - 1;
        (((pc >> 2) ^ (history << (TABLE_BITS - HISTORY_BITS))) & mask) as usize
    }
}

impl Default for Gshare {
    fn default() -> Self {
        Gshare::new()
    }
}

impl DirectionPredictor for Gshare {
    fn predict(&mut self, pc: u32) -> bool {
        let idx = self.index(pc, self.spec_history);
        let taken = self.table[idx] >= 2;
        self.spec_history = ((self.spec_history << 1) | u32::from(taken)) & ((1 << HISTORY_BITS) - 1);
        taken
    }

    fn update(&mut self, pc: u32, taken: bool) {
        let idx = self.index(pc, self.history);
        let c = &mut self.table[idx];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
        self.history = ((self.history << 1) | u32::from(taken)) & ((1 << HISTORY_BITS) - 1);
    }

    fn recover(&mut self) {
        self.spec_history = self.history;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_a_bias() {
        let mut g = Gshare::new();
        for _ in 0..8 {
            let _ = g.predict(0x1000);
            g.update(0x1000, true);
        }
        assert!(g.predict(0x1000));
    }

    #[test]
    fn learns_alternation_through_history() {
        let mut g = Gshare::new();
        let mut correct = 0;
        let mut toggle = false;
        for i in 0..2000 {
            let p = g.predict(0x2000);
            if i >= 1000 && p == toggle {
                correct += 1;
            }
            g.update(0x2000, toggle);
            if p != toggle {
                // The pipeline squashes and repairs speculative
                // history on every mispredict; model that here.
                g.recover();
            }
            toggle = !toggle;
        }
        assert!(correct > 900, "gshare should learn a period-2 pattern, got {correct}/1000");
    }

    #[test]
    fn recover_resets_speculative_history() {
        let mut g = Gshare::new();
        let p0 = g.predict(0x1000);
        let _ = g.predict(0x1004);
        let _ = g.predict(0x1008);
        g.recover();
        assert_eq!(g.spec_history, g.history);
        g.update(0x1000, p0);
    }
}
