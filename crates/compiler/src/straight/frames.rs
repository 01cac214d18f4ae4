//! Block-entry frame computation: the ordered set of values every
//! predecessor of a merging block must produce at fixed positions
//! (the paper's "distance fixing on merging flow", Section IV-C2),
//! plus the RE+ analysis of values that live in the stack across
//! loops instead (Section IV-D, Figure 10c).

use std::collections::{HashMap, HashSet};

use straight_ir::analysis::{Cfg, Liveness, Loops};
use straight_ir::{Block, Function, Value};

/// One entry in a block frame: a value every predecessor must have
/// produced at the same distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotSrc {
    /// An IR value (for a phi of the merge block, each predecessor
    /// produces its edge-specific input).
    Val(Value),
    /// The function's return address (the value of the entry `JAL`).
    /// Frame member only in RAW mode; RE+ keeps it in the stack.
    RetAddr,
}

/// Per-function frame/residency analysis results.
#[derive(Debug)]
pub struct FrameInfo {
    /// Ordered frames for merge blocks (blocks with ≥ 2 predecessors).
    pub frames: HashMap<Block, Vec<SlotSrc>>,
    /// RE+ only: values that stay in the stack frame while control is
    /// inside the given block (excluded from its frame).
    pub stack_resident: HashMap<Block, HashSet<Value>>,
}

/// Computes frames for every merge block.
///
/// Frame order: `RetAddr` first (RAW only), then non-phi live-ins by
/// value id, then the block's phis by value id. Any deterministic
/// order works; this one keeps loop-carried phis nearest to the block
/// entry, matching the paper's Figure 9 shape.
pub fn compute(f: &Function, cfg: &Cfg, live: &Liveness, loops: &Loops, redundancy_elimination: bool) -> FrameInfo {
    let mut stack_resident: HashMap<Block, HashSet<Value>> = HashMap::new();

    if redundancy_elimination {
        // A value live into a loop header, neither defined nor used
        // anywhere in the loop, only transits the loop: store it in
        // the stack frame for the duration (Figure 10c).
        for l in &loops.loops {
            let defined_or_used: HashSet<Value> = {
                let mut s = HashSet::new();
                for &b in &l.blocks {
                    for &v in &f.block(b).insts {
                        s.insert(v);
                        f.inst(v).for_each_operand(|op| {
                            s.insert(op);
                        });
                    }
                    f.block(b).term.for_each_operand(|op| {
                        s.insert(op);
                    });
                }
                s
            };
            for &v in live.live_in(l.header) {
                // Constants and addresses re-materialize for free;
                // only real computed values are worth stack storage.
                let remat = matches!(
                    f.inst(v),
                    straight_ir::InstData::Const(_)
                        | straight_ir::InstData::GlobalAddr(_)
                        | straight_ir::InstData::SlotAddr(_)
                );
                if !remat && !defined_or_used.contains(&v) {
                    for &b in &l.blocks {
                        stack_resident.entry(b).or_default().insert(v);
                    }
                }
            }
        }
    }

    let mut frames = HashMap::new();
    for b in f.block_ids() {
        if cfg.preds(b).len() < 2 || !cfg.is_reachable(b) {
            continue;
        }
        let resident = stack_resident.get(&b);
        let mut members: Vec<SlotSrc> = Vec::new();
        if !redundancy_elimination {
            members.push(SlotSrc::RetAddr);
        }
        let mut live_ins: Vec<Value> = live
            .live_in(b)
            .iter()
            .copied()
            .filter(|v| resident.is_none_or(|r| !r.contains(v)))
            .collect();
        live_ins.sort_unstable();
        members.extend(live_ins.into_iter().map(SlotSrc::Val));
        let mut phis: Vec<Value> =
            f.block(b).insts.iter().copied().filter(|&v| f.inst(v).is_phi()).collect();
        phis.sort_unstable();
        members.extend(phis.into_iter().map(SlotSrc::Val));
        frames.insert(b, members);
    }
    FrameInfo { frames, stack_resident }
}

#[cfg(test)]
mod tests {
    use super::*;
    use straight_ir::analysis::Dominators;
    use straight_ir::compile_source;

    fn analyse(src: &str, re: bool) -> (Function, FrameInfo) {
        let mut m = compile_source(src).unwrap();
        for f in &mut m.funcs {
            straight_ir::passes::split_critical_edges(f);
        }
        let f = m.funcs.into_iter().next().unwrap();
        let cfg = Cfg::compute(&f);
        let live = Liveness::compute(&f, &cfg);
        let dom = Dominators::compute(&f, &cfg);
        let loops = Loops::compute(&f, &cfg, &dom);
        let info = compute(&f, &cfg, &live, &loops, re);
        (f, info)
    }

    #[test]
    fn loop_header_gets_a_frame_with_phi() {
        let (f, info) = analyse(
            "int sum(int n) { int s = 0; int i; for (i = 0; i < n; i++) s += i; return s; }",
            true,
        );
        // Some merge block must exist (loop header) and its frame must
        // contain phis.
        let has_phi_frame = info.frames.values().any(|frame| {
            frame.iter().any(|s| matches!(s, SlotSrc::Val(v) if f.inst(*v).is_phi()))
        });
        assert!(has_phi_frame, "{:?}", info.frames);
    }

    #[test]
    fn raw_frames_carry_retaddr() {
        let (_, info) = analyse(
            "int sum(int n) { int s = 0; int i; for (i = 0; i < n; i++) s += i; return s; }",
            false,
        );
        for frame in info.frames.values() {
            assert_eq!(frame[0], SlotSrc::RetAddr);
        }
    }

    #[test]
    fn re_plus_marks_loop_live_through_values_resident() {
        // `a` is computed before the loop and only used after it: it
        // transits the loop and should be stack-resident under RE+.
        let (f, info) = analyse(
            "int f(int n) {
                 int a = n * 17;
                 int s = 0;
                 int i;
                 for (i = 0; i < n; i++) s += i;
                 return s + a;
             }",
            true,
        );
        assert!(!info.stack_resident.is_empty(), "expected a resident value: {f}");
        // Resident values never appear in frames of their region.
        for (b, frame) in &info.frames {
            if let Some(res) = info.stack_resident.get(b) {
                for s in frame {
                    if let SlotSrc::Val(v) = s {
                        assert!(!res.contains(v));
                    }
                }
            }
        }
    }

    #[test]
    fn raw_mode_has_no_residents() {
        let (_, info) = analyse(
            "int f(int n) {
                 int a = n * 17;
                 int s = 0;
                 int i;
                 for (i = 0; i < n; i++) s += i;
                 return s + a;
             }",
            false,
        );
        assert!(info.stack_resident.is_empty());
    }
}
