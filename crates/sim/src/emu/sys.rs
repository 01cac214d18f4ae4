//! Shared environment-service handling (`SYS` / `ecall`).

use straight_asm::abi;

/// Captured console output and termination state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SysState {
    /// Text printed so far.
    pub stdout: String,
    /// Set when the exit service has run.
    pub exit_code: Option<i32>,
}

impl SysState {
    /// Applies one service invocation; returns the service's result
    /// value, or `None` for an unknown code. The code is a full word:
    /// RV32IM passes `a7` unchanged, so a code above `u16::MAX` is
    /// unknown rather than aliasing a small one.
    pub fn apply(&mut self, code: u32, arg: u32) -> Option<u32> {
        let Ok(code) = u16::try_from(code) else { return None };
        match code {
            abi::SYS_PRINT_INT => {
                self.stdout.push_str(&(arg as i32).to_string());
                self.stdout.push('\n');
                Some(0)
            }
            abi::SYS_PRINT_CHAR => {
                self.stdout.push(arg as u8 as char);
                Some(0)
            }
            abi::SYS_EXIT => {
                self.exit_code = Some(arg as i32);
                Some(0)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn services() {
        let mut s = SysState::default();
        assert_eq!(s.apply(abi::SYS_PRINT_INT.into(), -5i32 as u32), Some(0));
        assert_eq!(s.apply(abi::SYS_PRINT_CHAR.into(), u32::from(b'x')), Some(0));
        assert_eq!(s.stdout, "-5\nx");
        assert_eq!(s.apply(abi::SYS_EXIT.into(), 9), Some(0));
        assert_eq!(s.exit_code, Some(9));
        assert_eq!(s.apply(999, 0), None);
        // A code that only matches a known one in its low 16 bits is
        // unknown.
        assert_eq!(s.apply(0x1_0000 | u32::from(abi::SYS_PRINT_INT), 0), None);
    }
}
