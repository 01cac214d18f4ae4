use std::collections::HashSet;

use crate::{analysis::Cfg, Block, Function, InstData, Value};

/// Per-block live-in/live-out sets from a standard backward dataflow
/// over SSA.
///
/// Phi semantics: a phi's result is *defined at the entry* of its
/// block; a phi's `(pred, value)` operand counts as a use at the *end
/// of that predecessor*, which is exactly the program point where the
/// STRAIGHT back-end inserts the distance-fixing `RMOV`s (Figure 8c).
#[derive(Debug, Clone)]
pub struct Liveness {
    live_in: Vec<HashSet<Value>>,
    live_out: Vec<HashSet<Value>>,
}

impl Liveness {
    /// Computes liveness for `func`.
    #[must_use]
    pub fn compute(func: &Function, cfg: &Cfg) -> Liveness {
        let n = func.blocks.len();
        // Per-block upward-exposed uses and defs.
        let mut uses: Vec<HashSet<Value>> = vec![HashSet::new(); n];
        let mut defs: Vec<HashSet<Value>> = vec![HashSet::new(); n];
        for b in func.block_ids() {
            let bi = b.index();
            for &v in &func.block(b).insts {
                let inst = func.inst(v);
                if !inst.is_phi() {
                    inst.for_each_operand(|op| {
                        if !defs[bi].contains(&op) {
                            uses[bi].insert(op);
                        }
                    });
                }
                defs[bi].insert(v);
            }
            func.block(b).term.for_each_operand(|op| {
                if !defs[bi].contains(&op) {
                    uses[bi].insert(op);
                }
            });
        }

        let mut live_in: Vec<HashSet<Value>> = vec![HashSet::new(); n];
        let mut live_out: Vec<HashSet<Value>> = vec![HashSet::new(); n];
        let mut changed = true;
        while changed {
            changed = false;
            // Iterate in reverse RPO for fast convergence.
            for &b in cfg.rpo().iter().rev() {
                let bi = b.index();
                let mut out: HashSet<Value> = HashSet::new();
                for &s in cfg.succs(b) {
                    let si = s.index();
                    // live-in of successor minus its phi defs...
                    for &v in &live_in[si] {
                        out.insert(v);
                    }
                    // Remove every phi def of `s` before inserting any
                    // edge argument: one phi's argument may itself be a
                    // later phi of `s` (loop-carried rotation such as
                    // `a' = phi(.., c); c' = phi(.., ..)`), and
                    // interleaving the removal with the insertion would
                    // clobber that use.
                    for &p in &func.block(s).insts {
                        if func.inst(p).is_phi() {
                            out.remove(&p);
                        }
                    }
                    // ...plus the values its phis select from this pred.
                    for &p in &func.block(s).insts {
                        if let InstData::Phi(args) = func.inst(p) {
                            for (pred, v) in args {
                                if *pred == b {
                                    out.insert(*v);
                                }
                            }
                        }
                    }
                }
                let mut inn: HashSet<Value> = uses[bi].clone();
                for &v in &out {
                    if !defs[bi].contains(&v) {
                        inn.insert(v);
                    }
                }
                if out != live_out[bi] || inn != live_in[bi] {
                    live_out[bi] = out;
                    live_in[bi] = inn;
                    changed = true;
                }
            }
        }
        Liveness { live_in, live_out }
    }

    /// Values live at the entry of `b` (excluding `b`'s own phi
    /// results).
    #[must_use]
    pub fn live_in(&self, b: Block) -> &HashSet<Value> {
        &self.live_in[b.index()]
    }

    /// Values live at the exit of `b` (including values feeding
    /// successor phis along the `b` edge).
    #[must_use]
    pub fn live_out(&self, b: Block) -> &HashSet<Value> {
        &self.live_out[b.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BinOp, Terminator};

    /// Loop: i = phi(0, i+1); live sets must carry the phi value
    /// around the back edge.
    #[test]
    fn loop_carried_value_is_live() {
        let mut f = Function::new("l", 0, true);
        let entry = f.entry();
        let header = f.create_block();
        let body = f.create_block();
        let exit = f.create_block();
        let zero = f.push_inst(entry, InstData::Const(0));
        f.block_mut(entry).term = Terminator::Br(header);
        // header: i = phi [(entry, zero), (body, inc)]; cond = i < 10
        let phi = f.create_inst(InstData::Phi(vec![]));
        f.block_mut(header).insts.push(phi);
        let ten = f.push_inst(header, InstData::Const(10));
        let cond = f.push_inst(header, InstData::Bin { op: BinOp::SLt, a: phi, b: ten });
        f.block_mut(header).term = Terminator::CondBr { cond, then_bb: body, else_bb: exit };
        let one = f.push_inst(body, InstData::Const(1));
        let inc = f.push_inst(body, InstData::Bin { op: BinOp::Add, a: phi, b: one });
        f.block_mut(body).term = Terminator::Br(header);
        *f.inst_mut(phi) = InstData::Phi(vec![(entry, zero), (body, inc)]);
        f.block_mut(exit).term = Terminator::Ret(Some(phi));

        let cfg = Cfg::compute(&f);
        let live = Liveness::compute(&f, &cfg);
        // zero is live out of entry (feeds the phi), dead after.
        assert!(live.live_out(entry).contains(&zero));
        assert!(!live.live_out(header).contains(&zero));
        // phi is live into body (used by inc) and into exit (returned).
        assert!(live.live_in(body).contains(&phi));
        assert!(live.live_in(exit).contains(&phi));
        // inc is live out of body (feeds the phi on the back edge).
        assert!(live.live_out(body).contains(&inc));
        // phi result is not live-in to its own block.
        assert!(!live.live_in(header).contains(&phi));
    }

    /// One phi's back-edge argument is another phi of the same block
    /// (`a' = phi(.., c)` where `c` is itself a phi): the argument must
    /// stay live out of the predecessor even though the same value is
    /// also a phi *def* of the successor.
    #[test]
    fn phi_rotation_argument_stays_live() {
        let mut f = Function::new("r", 0, true);
        let entry = f.entry();
        let header = f.create_block();
        let body = f.create_block();
        let exit = f.create_block();
        let zero = f.push_inst(entry, InstData::Const(0));
        let one = f.push_inst(entry, InstData::Const(1));
        f.block_mut(entry).term = Terminator::Br(header);
        // header: a = phi [(entry, zero), (body, c)]; c = phi [(entry, one), (body, inc)]
        let a = f.create_inst(InstData::Phi(vec![]));
        f.block_mut(header).insts.push(a);
        let c = f.create_inst(InstData::Phi(vec![]));
        f.block_mut(header).insts.push(c);
        let ten = f.push_inst(header, InstData::Const(10));
        let cond = f.push_inst(header, InstData::Bin { op: BinOp::SLt, a: c, b: ten });
        f.block_mut(header).term = Terminator::CondBr { cond, then_bb: body, else_bb: exit };
        let inc = f.push_inst(body, InstData::Bin { op: BinOp::Add, a: c, b: one });
        f.block_mut(body).term = Terminator::Br(header);
        *f.inst_mut(a) = InstData::Phi(vec![(entry, zero), (body, c)]);
        *f.inst_mut(c) = InstData::Phi(vec![(entry, one), (body, inc)]);
        f.block_mut(exit).term = Terminator::Ret(Some(a));

        let cfg = Cfg::compute(&f);
        let live = Liveness::compute(&f, &cfg);
        // c feeds a's back-edge argument: live out of body despite
        // being a phi def of header.
        assert!(live.live_out(body).contains(&c));
        assert!(live.live_in(body).contains(&c));
    }

    #[test]
    fn straight_line_liveness() {
        let mut f = Function::new("s", 1, true);
        let entry = f.entry();
        let p = f.push_inst(entry, InstData::Param(0));
        let one = f.push_inst(entry, InstData::Const(1));
        let add = f.push_inst(entry, InstData::Bin { op: BinOp::Add, a: p, b: one });
        f.block_mut(entry).term = Terminator::Ret(Some(add));
        let cfg = Cfg::compute(&f);
        let live = Liveness::compute(&f, &cfg);
        assert!(live.live_in(entry).is_empty());
        assert!(live.live_out(entry).is_empty());
    }
}
