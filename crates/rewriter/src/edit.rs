//! Instruction-stream editing with jump-target fixup.

use lxfi_machine::isa::Inst;

/// Instruction indices that start a basic block (targets of any branch);
/// one slot past the end, so `leaders[i + 1]` is defined for every `i`.
pub(crate) fn block_leaders(body: &[Inst]) -> Vec<bool> {
    let mut leaders = vec![false; body.len() + 1];
    for inst in body {
        if let Some(t) = inst.jump_target() {
            leaders[t] = true;
        }
    }
    leaders
}

/// Rebuilds a function body with `inserts` placed *before* the original
/// instruction at each index, remapping all jump targets.
///
/// `inserts` pairs `(index, instruction)`; indices refer to the original
/// stream and may repeat (multiple guards before one instruction keep
/// their given order).
pub fn insert_before(body: &[Inst], mut inserts: Vec<(usize, Inst)>) -> Vec<Inst> {
    if inserts.is_empty() {
        return body.to_vec();
    }
    inserts.sort_by_key(|(i, _)| *i);
    // new_index[i] = index of original instruction i in the new stream.
    let mut new_index = Vec::with_capacity(body.len() + 1);
    let mut out: Vec<Inst> = Vec::with_capacity(body.len() + inserts.len());
    let mut ins = inserts.into_iter().peekable();
    for (i, inst) in body.iter().enumerate() {
        // A branch that targeted instruction `i` must land on the first
        // guard inserted before it — otherwise the guard could be jumped
        // over, which would be an isolation bypass.
        new_index.push(out.len());
        while let Some((at, _)) = ins.peek() {
            if *at == i {
                let (_, g) = ins.next().unwrap();
                out.push(g);
            } else {
                break;
            }
        }
        out.push(inst.clone());
    }
    // Trailing inserts (index == body.len()) are not supported: guards
    // always precede an existing instruction.
    assert!(ins.next().is_none(), "insert index out of range");
    new_index.push(out.len());
    for inst in &mut out {
        inst.map_target(|t| new_index[t]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lxfi_machine::isa::{Operand, Reg};

    fn nop() -> Inst {
        Inst::Nop
    }

    fn guard() -> Inst {
        Inst::GuardWrite {
            base: Operand::Reg(Reg(0)),
            off: 0,
            len: Operand::Imm(8),
        }
    }

    #[test]
    fn inserts_and_remaps_targets() {
        // 0: jmp -> 2 ; 1: nop ; 2: ret
        let body = vec![Inst::Jmp { target: 2 }, nop(), Inst::Ret { val: None }];
        let out = insert_before(&body, vec![(2, guard())]);
        assert_eq!(out.len(), 4);
        // The jump must now target the guard (so the guard is not skipped).
        assert_eq!(out[0].jump_target(), Some(2));
        assert!(out[2].is_guard());
        assert!(matches!(out[3], Inst::Ret { .. }));
    }

    #[test]
    fn multiple_inserts_at_same_index_keep_order() {
        let body = vec![nop(), Inst::Ret { val: None }];
        let g2 = Inst::GuardWrite {
            base: Operand::Reg(Reg(1)),
            off: 4,
            len: Operand::Imm(4),
        };
        let out = insert_before(&body, vec![(1, guard()), (1, g2.clone())]);
        assert_eq!(out[1], guard());
        assert_eq!(out[2], g2);
    }

    #[test]
    fn backward_branch_remapped() {
        // 0: nop ; 1: br -> 0 ; 2: ret — insert before 0.
        let body = vec![nop(), Inst::Jmp { target: 0 }, Inst::Ret { val: None }];
        let out = insert_before(&body, vec![(0, guard())]);
        assert_eq!(out[2].jump_target(), Some(0), "target now the guard");
    }

    #[test]
    fn empty_inserts_is_identity() {
        let body = vec![nop(), Inst::Ret { val: None }];
        assert_eq!(insert_before(&body, vec![]), body);
    }
}
