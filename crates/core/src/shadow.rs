//! Per-thread shadow stacks (§5).
//!
//! The LXFI runtime records, for every wrapper crossing, a return token
//! and the principal context in effect before the crossing. Wrapper exit
//! validates the token (control-flow integrity on returns) and restores
//! the principal. Interrupt entry/exit uses the same mechanism so that a
//! module's privileges are saved while the interrupt handler runs (§3.1).

use crate::principal::{ModuleId, PrincipalId};
use crate::Violation;
use lxfi_machine::Word;

/// The principal context of a thread: `None` means the trusted core
/// kernel is executing.
pub type PrincipalCtx = Option<(ModuleId, PrincipalId)>;

/// One shadow-stack frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShadowFrame {
    /// Return token issued at wrapper entry and validated at exit.
    pub token: Word,
    /// Principal context saved at entry (restored at exit).
    pub saved: PrincipalCtx,
    /// True if this frame was pushed by interrupt entry.
    pub interrupt: bool,
}

/// A per-kernel-thread shadow stack plus the thread's current principal.
#[derive(Debug, Default)]
pub struct ShadowStack {
    frames: Vec<ShadowFrame>,
    current: PrincipalCtx,
    next_token: Word,
}

impl ShadowStack {
    /// Creates an empty shadow stack (thread starts in kernel context).
    pub fn new() -> Self {
        Self::default()
    }

    /// The thread's current principal context.
    #[inline]
    pub fn current(&self) -> PrincipalCtx {
        self.current
    }

    /// Sets the current principal context directly (used by the runtime's
    /// privileged principal-switch entry points, §3.4).
    pub fn set_current(&mut self, ctx: PrincipalCtx) {
        self.current = ctx;
    }

    /// Wrapper entry: saves the current context, switches to `new`, and
    /// returns the token to present at exit.
    pub fn push(&mut self, new: PrincipalCtx) -> Word {
        self.next_token += 1;
        let token = self.next_token;
        self.frames.push(ShadowFrame {
            token,
            saved: self.current,
            interrupt: false,
        });
        self.current = new;
        token
    }

    /// Wrapper exit: validates the return token and restores the saved
    /// principal context.
    pub fn pop(&mut self, token: Word) -> Result<(), Violation> {
        match self.frames.pop() {
            Some(f) if f.token == token => {
                self.current = f.saved;
                Ok(())
            }
            Some(f) => Err(Violation::ShadowStackCorrupted {
                expected: f.token,
                found: token,
            }),
            None => Err(Violation::ShadowStackCorrupted {
                expected: 0,
                found: token,
            }),
        }
    }

    /// Interrupt entry: saves the interrupted context and switches to the
    /// kernel (interrupt handlers run with kernel privilege).
    pub fn interrupt_enter(&mut self) -> Word {
        self.next_token += 1;
        let token = self.next_token;
        self.frames.push(ShadowFrame {
            token,
            saved: self.current,
            interrupt: true,
        });
        self.current = None;
        token
    }

    /// Interrupt exit: restores the interrupted principal context.
    pub fn interrupt_exit(&mut self, token: Word) -> Result<(), Violation> {
        self.pop(token)
    }

    /// Depth of the shadow stack (diagnostics).
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Corrupts the top return token (test hook used to demonstrate
    /// return-address-corruption detection).
    pub fn corrupt_top_for_test(&mut self, delta: Word) {
        if let Some(f) = self.frames.last_mut() {
            f.token = f.token.wrapping_add(delta);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(m: u32, p: u32) -> PrincipalCtx {
        Some((ModuleId(m), PrincipalId(p)))
    }

    #[test]
    fn push_pop_restores_context() {
        let mut s = ShadowStack::new();
        assert_eq!(s.current(), None);
        let t1 = s.push(ctx(0, 1));
        assert_eq!(s.current(), ctx(0, 1));
        let t2 = s.push(ctx(0, 2));
        assert_eq!(s.current(), ctx(0, 2));
        s.pop(t2).unwrap();
        assert_eq!(s.current(), ctx(0, 1));
        s.pop(t1).unwrap();
        assert_eq!(s.current(), None);
    }

    #[test]
    fn token_mismatch_is_detected() {
        let mut s = ShadowStack::new();
        let t = s.push(ctx(0, 1));
        let err = s.pop(t + 99).unwrap_err();
        assert!(matches!(err, Violation::ShadowStackCorrupted { .. }));
    }

    #[test]
    fn corruption_is_detected() {
        let mut s = ShadowStack::new();
        let t = s.push(ctx(0, 1));
        s.corrupt_top_for_test(5);
        assert!(s.pop(t).is_err());
    }

    #[test]
    fn pop_on_empty_is_detected() {
        let mut s = ShadowStack::new();
        assert!(s.pop(1).is_err());
    }

    #[test]
    fn interrupt_saves_and_restores_module_context() {
        let mut s = ShadowStack::new();
        let t = s.push(ctx(3, 7));
        assert_eq!(s.current(), ctx(3, 7));
        let it = s.interrupt_enter();
        assert_eq!(s.current(), None, "interrupt runs as kernel");
        s.interrupt_exit(it).unwrap();
        assert_eq!(s.current(), ctx(3, 7), "module principal restored");
        s.pop(t).unwrap();
    }

    #[test]
    fn nested_interrupts() {
        let mut s = ShadowStack::new();
        let t0 = s.push(ctx(1, 2));
        let i1 = s.interrupt_enter();
        let i2 = s.interrupt_enter();
        s.interrupt_exit(i2).unwrap();
        s.interrupt_exit(i1).unwrap();
        assert_eq!(s.current(), ctx(1, 2));
        s.pop(t0).unwrap();
        assert_eq!(s.depth(), 0);
    }
}
