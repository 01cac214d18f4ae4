//! Modules: a set of functions plus global data.

use std::fmt;

use crate::{Function, GlobalId};

/// A module-level global variable or constant (string literals become
/// anonymous globals).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Global {
    /// Symbol name.
    pub name: String,
    /// Size in bytes.
    pub size: u32,
    /// Alignment in bytes.
    pub align: u32,
    /// Initial contents; zero-filled up to `size` if shorter.
    pub init: Vec<u8>,
}

/// A compiled MinC translation unit.
#[derive(Debug, Clone, Default)]
pub struct Module {
    /// Functions, in source order.
    pub funcs: Vec<Function>,
    /// Globals, in creation order.
    pub globals: Vec<Global>,
}

impl Module {
    /// Finds a function by name.
    #[must_use]
    pub fn func(&self, name: &str) -> Option<&Function> {
        self.funcs.iter().find(|f| f.name == name)
    }

    /// Adds a global and returns its id.
    pub fn add_global(&mut self, g: Global) -> GlobalId {
        let id = GlobalId::new(self.globals.len());
        self.globals.push(g);
        id
    }

    /// Global accessor.
    #[must_use]
    pub fn global(&self, id: GlobalId) -> &Global {
        &self.globals[id.index()]
    }
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, g) in self.globals.iter().enumerate() {
            writeln!(f, "g{i}: {} ({} bytes)", g.name, g.size)?;
        }
        for fun in &self.funcs {
            writeln!(f, "{fun}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_by_name() {
        let mut m = Module::default();
        m.funcs.push(Function::new("main", 0, true));
        assert!(m.func("main").is_some());
        assert!(m.func("nope").is_none());
    }

    #[test]
    fn globals_get_sequential_ids() {
        let mut m = Module::default();
        let a = m.add_global(Global { name: "a".into(), size: 4, align: 4, init: vec![] });
        let b = m.add_global(Global { name: "b".into(), size: 8, align: 4, init: vec![1] });
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(m.global(b).init, vec![1]);
    }
}
