use crate::{analysis::Cfg, Block, Function};

/// Dominator tree computed with the Cooper–Harvey–Kennedy iterative
/// algorithm over reverse postorder.
#[derive(Debug, Clone)]
pub struct Dominators {
    /// Immediate dominator per block; `idom[entry] == entry`;
    /// `None` for unreachable blocks.
    idom: Vec<Option<Block>>,
}

impl Dominators {
    /// Computes dominators for `func` given its `cfg`.
    #[must_use]
    pub fn compute(func: &Function, cfg: &Cfg) -> Dominators {
        let n = func.blocks.len();
        let mut rpo_index = vec![usize::MAX; n];
        for (i, b) in cfg.rpo().iter().enumerate() {
            rpo_index[b.index()] = i;
        }
        let mut idom: Vec<Option<Block>> = vec![None; n];
        let entry = func.entry();
        idom[entry.index()] = Some(entry);
        let mut changed = true;
        while changed {
            changed = false;
            for &b in cfg.rpo().iter().skip(1) {
                let mut new_idom: Option<Block> = None;
                for &p in cfg.preds(b) {
                    if idom[p.index()].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => Self::intersect(&idom, &rpo_index, p, cur),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[b.index()] != Some(ni) {
                        idom[b.index()] = Some(ni);
                        changed = true;
                    }
                }
            }
        }
        Dominators { idom }
    }

    fn intersect(idom: &[Option<Block>], rpo_index: &[usize], mut a: Block, mut b: Block) -> Block {
        while a != b {
            while rpo_index[a.index()] > rpo_index[b.index()] {
                a = idom[a.index()].expect("processed block has idom");
            }
            while rpo_index[b.index()] > rpo_index[a.index()] {
                b = idom[b.index()].expect("processed block has idom");
            }
        }
        a
    }

    /// The immediate dominator of `b` (the entry dominates itself).
    #[must_use]
    pub fn idom(&self, b: Block) -> Option<Block> {
        self.idom[b.index()]
    }

    /// True when `a` dominates `b` (reflexive).
    #[must_use]
    pub fn dominates(&self, a: Block, mut b: Block) -> bool {
        loop {
            if a == b {
                return true;
            }
            match self.idom[b.index()] {
                Some(i) if i != b => b = i,
                _ => return false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InstData, Terminator};

    /// entry -> {b1, b2} -> b3; b3 -> b4 (loop back to b1? no, plain).
    #[test]
    fn diamond_dominators() {
        let mut f = crate::Function::new("d", 0, false);
        let b1 = f.create_block();
        let b2 = f.create_block();
        let b3 = f.create_block();
        let c = f.push_inst(f.entry(), InstData::Const(1));
        f.block_mut(f.entry()).term = Terminator::CondBr { cond: c, then_bb: b1, else_bb: b2 };
        f.block_mut(b1).term = Terminator::Br(b3);
        f.block_mut(b2).term = Terminator::Br(b3);
        f.block_mut(b3).term = Terminator::Ret(None);
        let cfg = Cfg::compute(&f);
        let dom = Dominators::compute(&f, &cfg);
        let entry = f.entry();
        assert_eq!(dom.idom(b1), Some(entry));
        assert_eq!(dom.idom(b2), Some(entry));
        assert_eq!(dom.idom(b3), Some(entry));
        assert!(dom.dominates(entry, b3));
        assert!(!dom.dominates(b1, b3));
        assert!(dom.dominates(b3, b3));
    }

    /// entry -> header -> body -> header; header -> exit.
    #[test]
    fn loop_dominators() {
        let mut f = crate::Function::new("l", 0, false);
        let header = f.create_block();
        let body = f.create_block();
        let exit = f.create_block();
        let c = f.push_inst(header, InstData::Const(1));
        f.block_mut(f.entry()).term = Terminator::Br(header);
        f.block_mut(header).term = Terminator::CondBr { cond: c, then_bb: body, else_bb: exit };
        f.block_mut(body).term = Terminator::Br(header);
        f.block_mut(exit).term = Terminator::Ret(None);
        let cfg = Cfg::compute(&f);
        let dom = Dominators::compute(&f, &cfg);
        assert_eq!(dom.idom(body), Some(header));
        assert_eq!(dom.idom(exit), Some(header));
        assert!(dom.dominates(header, body));
        assert!(!dom.dominates(body, exit));
    }
}
