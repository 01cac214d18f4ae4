//! Return-address stack with checkpoint/restore for squash repair.

/// Stack depth; a power of two so the circular index is a mask.
const RAS_ENTRIES: usize = 16;

/// A small circular return-address stack. Fetch pushes on calls and
/// pops on returns speculatively; every in-flight branch checkpoints
/// `(top_index, top_value)` so a squash can repair the common
/// single-divergence case.
#[derive(Debug, Clone)]
pub struct Ras {
    stack: [u32; RAS_ENTRIES],
    top: usize,
}

/// A checkpoint of the RAS state taken at prediction time.
///
/// `Default` is the checkpoint of a freshly constructed [`Ras`]
/// (empty stack), used to pre-fill the data-oriented ROB's checkpoint
/// column before any entry is dispatched. Eight bytes: every fetched
/// instruction copies one into its front-end entry and its ROB slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RasCheckpoint {
    top: u32,
    value: u32,
}

impl Ras {
    /// A 16-entry stack (typical for the modeled core class).
    #[must_use]
    pub fn new() -> Ras {
        Ras { stack: [0; RAS_ENTRIES], top: 0 }
    }

    /// Pushes a return address (call).
    pub fn push(&mut self, addr: u32) {
        self.top = (self.top + 1) % RAS_ENTRIES;
        self.stack[self.top] = addr;
    }

    /// Pops the predicted return address (return).
    pub fn pop(&mut self) -> u32 {
        let v = self.stack[self.top];
        self.top = (self.top + RAS_ENTRIES - 1) % RAS_ENTRIES;
        v
    }

    /// Takes a checkpoint for later repair.
    #[must_use]
    pub fn checkpoint(&self) -> RasCheckpoint {
        RasCheckpoint { top: self.top as u32, value: self.stack[self.top] }
    }

    /// Restores a checkpoint after a squash.
    pub fn restore(&mut self, cp: RasCheckpoint) {
        self.top = cp.top as usize;
        self.stack[self.top] = cp.value;
    }
}

impl Default for Ras {
    fn default() -> Self {
        Ras::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_is_eight_bytes() {
        assert_eq!(std::mem::size_of::<RasCheckpoint>(), 8);
    }

    #[test]
    fn push_pop_nesting() {
        let mut r = Ras::new();
        r.push(0x100);
        r.push(0x200);
        assert_eq!(r.pop(), 0x200);
        assert_eq!(r.pop(), 0x100);
    }

    #[test]
    fn checkpoint_repairs_wrong_path_pushes() {
        let mut r = Ras::new();
        r.push(0x100);
        let cp = r.checkpoint();
        r.push(0xbad);
        r.push(0xbad2);
        r.restore(cp);
        assert_eq!(r.pop(), 0x100);
    }

    #[test]
    fn checkpoint_repairs_wrong_path_pop() {
        let mut r = Ras::new();
        r.push(0x100);
        let cp = r.checkpoint();
        let _ = r.pop(); // wrong-path return
        r.restore(cp);
        assert_eq!(r.pop(), 0x100);
    }
}
