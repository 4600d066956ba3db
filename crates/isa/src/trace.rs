//! Dynamic instruction traces and rewindable cursors.
//!
//! The simulator is *trace driven*: a workload is a finite sequence of
//! dynamic instructions (the correct execution path). The pipeline fetches
//! through a [`TraceCursor`], which supports **rewinding** — the operation a
//! checkpoint rollback performs when a mispredicted branch (or exception) is
//! discovered after its entry has left the pseudo-ROB.

use crate::inst::Instruction;
use std::ops::Index;

/// Identifier of a dynamic instruction: its position in the trace.
pub type InstId = usize;

/// A finite dynamic instruction stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    name: String,
    insts: Vec<Instruction>,
}

impl Trace {
    /// Creates an empty trace with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Trace {
            name: name.into(),
            insts: Vec::new(),
        }
    }

    /// The workload name of this trace.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends an instruction and returns its [`InstId`].
    pub fn push(&mut self, inst: Instruction) -> InstId {
        self.insts.push(inst);
        self.insts.len() - 1
    }

    /// Number of dynamic instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the trace contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Returns the instruction at `id`, if it exists.
    pub fn get(&self, id: InstId) -> Option<&Instruction> {
        self.insts.get(id)
    }

    /// Iterates over the instructions in program order.
    pub fn iter(&self) -> std::slice::Iter<'_, Instruction> {
        self.insts.iter()
    }

    /// Creates a cursor positioned at the start of the trace.
    pub fn cursor(&self) -> TraceCursor<'_> {
        TraceCursor {
            trace: self,
            pos: 0,
        }
    }

    /// Fraction of instructions of each property, handy for workload sanity checks.
    pub fn mix(&self) -> TraceMix {
        let mut mix = TraceMix::default();
        for i in &self.insts {
            mix.total += 1;
            if i.is_load() {
                mix.loads += 1;
            } else if i.is_store() {
                mix.stores += 1;
            } else if i.is_branch() {
                mix.branches += 1;
            } else if i.kind.is_fp() {
                mix.fp_ops += 1;
            } else {
                mix.int_ops += 1;
            }
        }
        mix
    }
}

impl Index<InstId> for Trace {
    type Output = Instruction;
    fn index(&self, id: InstId) -> &Instruction {
        &self.insts[id]
    }
}

impl Extend<Instruction> for Trace {
    fn extend<T: IntoIterator<Item = Instruction>>(&mut self, iter: T) {
        self.insts.extend(iter);
    }
}

impl FromIterator<Instruction> for Trace {
    fn from_iter<T: IntoIterator<Item = Instruction>>(iter: T) -> Self {
        Trace {
            name: String::new(),
            insts: iter.into_iter().collect(),
        }
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a Instruction;
    type IntoIter = std::slice::Iter<'a, Instruction>;
    fn into_iter(self) -> Self::IntoIter {
        self.insts.iter()
    }
}

/// Instruction-mix summary of a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceMix {
    /// Total dynamic instructions.
    pub total: usize,
    /// Memory loads.
    pub loads: usize,
    /// Memory stores.
    pub stores: usize,
    /// Branches.
    pub branches: usize,
    /// Floating-point arithmetic operations.
    pub fp_ops: usize,
    /// Integer arithmetic operations.
    pub int_ops: usize,
}

impl TraceMix {
    /// Fraction of instructions that are loads.
    pub fn load_fraction(&self) -> f64 {
        self.loads as f64 / self.total.max(1) as f64
    }

    /// Fraction of instructions that are branches.
    pub fn branch_fraction(&self) -> f64 {
        self.branches as f64 / self.total.max(1) as f64
    }
}

/// A rewindable fetch cursor over a [`Trace`].
///
/// Fetch advances the cursor; checkpoint rollback rewinds it to the trace
/// index recorded in the checkpoint, after which the same instructions are
/// fetched and executed again (the re-execution cost of coarse-grain
/// recovery).
#[derive(Debug, Clone)]
pub struct TraceCursor<'a> {
    trace: &'a Trace,
    pos: InstId,
}

impl<'a> TraceCursor<'a> {
    /// The trace position (the [`InstId`] of the *next* instruction to fetch).
    pub fn position(&self) -> InstId {
        self.pos
    }

    /// Whether the cursor has reached the end of the trace.
    pub fn at_end(&self) -> bool {
        self.pos >= self.trace.len()
    }

    /// Peeks at the next instruction without consuming it.
    pub fn peek(&self) -> Option<(InstId, &'a Instruction)> {
        self.trace.get(self.pos).map(|i| (self.pos, i))
    }

    /// Fetches (consumes) the next instruction.
    pub fn next_inst(&mut self) -> Option<(InstId, &'a Instruction)> {
        let out = self.peek();
        if out.is_some() {
            self.pos += 1;
        }
        out
    }

    /// Rewinds the cursor so that the next fetched instruction is `id`.
    ///
    /// # Panics
    /// Panics if `id` is beyond the end of the trace.
    pub fn rewind_to(&mut self, id: InstId) {
        assert!(
            id <= self.trace.len(),
            "rewind target {id} beyond trace end"
        );
        self.pos = id;
    }

    /// The underlying trace.
    pub fn trace(&self) -> &'a Trace {
        self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpKind;
    use crate::reg::ArchReg;

    fn tiny_trace() -> Trace {
        let mut t = Trace::new("tiny");
        t.push(Instruction::op(
            0,
            OpKind::IntAlu,
            Some(ArchReg::int(1)),
            &[],
        ));
        t.push(Instruction::load(4, ArchReg::fp(1), ArchReg::int(1), 0x100));
        t.push(Instruction::op(
            8,
            OpKind::FpAlu,
            Some(ArchReg::fp(2)),
            &[ArchReg::fp(1)],
        ));
        t.push(Instruction::store(
            12,
            ArchReg::fp(2),
            ArchReg::int(1),
            0x108,
        ));
        t.push(Instruction::branch(16, ArchReg::int(1), true, 0));
        t
    }

    #[test]
    fn push_returns_sequential_ids() {
        let mut t = Trace::new("t");
        let a = t.push(Instruction::op(0, OpKind::Nop, None, &[]));
        let b = t.push(Instruction::op(4, OpKind::Nop, None, &[]));
        assert_eq!((a, b), (0, 1));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn cursor_walks_in_program_order() {
        let t = tiny_trace();
        let mut c = t.cursor();
        let mut ids = Vec::new();
        while let Some((id, _)) = c.next_inst() {
            ids.push(id);
        }
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        assert!(c.at_end());
        assert!(c.next_inst().is_none());
    }

    #[test]
    fn cursor_rewind_replays_instructions() {
        let t = tiny_trace();
        let mut c = t.cursor();
        c.next_inst();
        c.next_inst();
        c.next_inst();
        assert_eq!(c.position(), 3);
        c.rewind_to(1);
        let (id, inst) = c.next_inst().unwrap();
        assert_eq!(id, 1);
        assert!(inst.is_load());
    }

    #[test]
    fn peek_does_not_advance() {
        let t = tiny_trace();
        let mut c = t.cursor();
        assert_eq!(c.peek().unwrap().0, 0);
        assert_eq!(c.peek().unwrap().0, 0);
        c.next_inst();
        assert_eq!(c.peek().unwrap().0, 1);
    }

    #[test]
    #[should_panic(expected = "beyond trace end")]
    fn rewind_past_end_panics() {
        let t = tiny_trace();
        let mut c = t.cursor();
        c.rewind_to(100);
    }

    #[test]
    fn mix_counts_each_category() {
        let m = tiny_trace().mix();
        assert_eq!(m.total, 5);
        assert_eq!(m.loads, 1);
        assert_eq!(m.stores, 1);
        assert_eq!(m.branches, 1);
        assert_eq!(m.fp_ops, 1);
        assert_eq!(m.int_ops, 1);
        assert!((m.load_fraction() - 0.2).abs() < 1e-12);
        assert!((m.branch_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn from_iterator_and_extend_work() {
        let base = tiny_trace();
        let mut t: Trace = base.iter().cloned().collect();
        assert_eq!(t.len(), 5);
        t.extend(base.iter().cloned());
        assert_eq!(t.len(), 10);
    }

    #[test]
    fn indexing_returns_the_instruction() {
        let t = tiny_trace();
        assert!(t[1].is_load());
        assert!(t.get(99).is_none());
    }
}
