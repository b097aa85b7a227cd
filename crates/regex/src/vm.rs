//! Pike VM: breadth-first NFA simulation with capture slots and
//! leftmost-first match semantics.
//!
//! The epsilon closure is computed with an explicit work stack (no
//! recursion, so deep split chains cannot overflow the call stack), and
//! every unit of work charges a shared step counter so callers can bound
//! worst-case latency on hostile inputs.

use crate::program::{Inst, Program};

type Slots = Vec<Option<usize>>;

/// The step budget given to [`run`] was exhausted before the search
/// finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepLimitExceeded;

/// Run `prog` on `haystack`, considering match starts at byte offset
/// `from` or later. Returns the capture slots of the leftmost-first match,
/// or `Err(StepLimitExceeded)` if the search would take more than
/// `max_steps` units of VM work (one unit per instruction visited).
pub fn run(
    prog: &Program,
    haystack: &str,
    from: usize,
    max_steps: usize,
) -> Result<Option<Slots>, StepLimitExceeded> {
    if from > haystack.len() {
        return Ok(None);
    }
    // Walk the chars at or after `from` one at a time, with one char of
    // lookahead for the threads that step past the current one. Nothing
    // is collected up front: a search that ends early (as every match
    // of `find_iter` does) costs only the chars it read, so scanning a
    // text match by match stays linear in its length.
    let hay_len = haystack.len();
    let mut rest = haystack[from..].char_indices().map(|(i, c)| (from + i, c));
    let mut prev: Option<char> = haystack[..from].chars().next_back();
    let mut here: Option<(usize, char)> = rest.next();

    let mut clist = ThreadList::new(prog.insts.len());
    let mut nlist = ThreadList::new(prog.insts.len());
    let mut matched: Option<Slots> = None;
    let mut steps = Steps {
        used: 0,
        max: max_steps,
    };

    loop {
        let ahead = rest.next();
        let cur: Option<char> = here.map(|(_, c)| c);
        let ctx = Ctx {
            at: here.map_or(hay_len, |(i, _)| i),
            cur,
            prev,
            hay_len,
        };
        // Context of the position after `cur`, for threads that consume it.
        let next = Ctx {
            at: ahead.map_or(hay_len, |(i, _)| i),
            cur: ahead.map(|(_, c)| c),
            prev: cur,
            hay_len,
        };

        // New starting thread at this position (lowest priority), unless a
        // match was already found at an earlier start.
        if matched.is_none() {
            let slots = vec![None; prog.num_slots];
            add_thread(prog, &mut clist, 0, slots, ctx, &mut steps)?;
        }
        if clist.dense.is_empty() && matched.is_some() {
            // No live threads and no new starts will be added: done.
            break;
        }

        let mut i = 0;
        while i < clist.dense.len() {
            steps.charge()?;
            let (pc, slots) = {
                let t = &clist.dense[i];
                (t.pc, t.slots.clone())
            };
            match &prog.insts[pc] {
                Inst::Match => {
                    matched = Some(slots);
                    // All later threads in clist have lower priority.
                    break;
                }
                Inst::Char(c) => {
                    if cur == Some(*c) {
                        add_thread(prog, &mut nlist, pc + 1, slots, next, &mut steps)?;
                    }
                }
                Inst::Any => {
                    if matches!(cur, Some(c) if c != '\n') {
                        add_thread(prog, &mut nlist, pc + 1, slots, next, &mut steps)?;
                    }
                }
                Inst::Class(set) => {
                    if matches!(cur, Some(c) if set.contains(c)) {
                        add_thread(prog, &mut nlist, pc + 1, slots, next, &mut steps)?;
                    }
                }
                // Zero-width instructions are resolved inside add_thread.
                _ => unreachable!("epsilon inst {pc} escaped add_thread"),
            }
            i += 1;
        }

        std::mem::swap(&mut clist, &mut nlist);
        nlist.clear();
        if cur.is_none() {
            break;
        }
        prev = cur;
        here = ahead;
    }
    Ok(matched)
}

/// Shared work counter; `charge` fails once the budget is spent.
struct Steps {
    used: usize,
    max: usize,
}

impl Steps {
    fn charge(&mut self) -> Result<(), StepLimitExceeded> {
        self.used += 1;
        if self.used > self.max {
            Err(StepLimitExceeded)
        } else {
            Ok(())
        }
    }
}

/// Position context used to evaluate zero-width assertions.
#[derive(Clone, Copy)]
struct Ctx {
    at: usize,
    cur: Option<char>,
    prev: Option<char>,
    hay_len: usize,
}

struct Thread {
    pc: usize,
    slots: Slots,
}

/// A priority-ordered list of threads with O(1) de-duplication by pc.
struct ThreadList {
    dense: Vec<Thread>,
    seen: Vec<bool>,
}

impl ThreadList {
    fn new(n: usize) -> Self {
        ThreadList {
            dense: Vec::new(),
            seen: vec![false; n],
        }
    }

    fn clear(&mut self) {
        self.dense.clear();
        self.seen.iter_mut().for_each(|s| *s = false);
    }
}

fn is_word(c: Option<char>) -> bool {
    matches!(c, Some(c) if c == '_' || c.is_alphanumeric())
}

/// Add `pc` (following epsilon transitions) to `list` in priority order.
///
/// Iterative: pending program counters sit on an explicit LIFO stack, so a
/// long chain of `Split`/`Jmp` instructions costs heap, not call stack.
/// Pushing `b` before `a` for `Split(a, b)` preserves the priority order
/// the recursive formulation had.
fn add_thread(
    prog: &Program,
    list: &mut ThreadList,
    pc: usize,
    slots: Slots,
    ctx: Ctx,
    steps: &mut Steps,
) -> Result<(), StepLimitExceeded> {
    let mut stack: Vec<(usize, Slots)> = vec![(pc, slots)];
    while let Some((pc, slots)) = stack.pop() {
        if list.seen[pc] {
            continue;
        }
        list.seen[pc] = true;
        steps.charge()?;
        match &prog.insts[pc] {
            Inst::Jmp(t) => stack.push((*t, slots)),
            Inst::Split(a, b) => {
                stack.push((*b, slots.clone()));
                stack.push((*a, slots));
            }
            Inst::Save(i) => {
                let mut slots = slots;
                slots[*i] = Some(ctx.at);
                stack.push((pc + 1, slots));
            }
            Inst::Start => {
                if ctx.at == 0 {
                    stack.push((pc + 1, slots));
                }
            }
            Inst::End => {
                if ctx.at == ctx.hay_len {
                    stack.push((pc + 1, slots));
                }
            }
            Inst::WordBoundary => {
                if is_word(ctx.prev) != is_word(ctx.cur) {
                    stack.push((pc + 1, slots));
                }
            }
            _ => list.dense.push(Thread { pc, slots }),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::Regex;

    #[test]
    fn leftmost_first_alternation() {
        let re = Regex::new("ab|abc").unwrap();
        assert_eq!(re.find("zabc").unwrap().as_str(), "ab");
        let re = Regex::new("abc|ab").unwrap();
        assert_eq!(re.find("zabc").unwrap().as_str(), "abc");
    }

    #[test]
    fn find_at_respects_offset() {
        let re = Regex::new(r"\d+").unwrap();
        let h = "12 and 34";
        assert_eq!(re.find_at(h, 2).unwrap().as_str(), "34");
    }

    #[test]
    fn anchors_with_offset() {
        let re = Regex::new(r"^\d").unwrap();
        assert!(re.find_at("1x2", 2).is_none());
    }

    #[test]
    fn word_boundary_with_offset_context() {
        // Starting mid-word: `\b` must see the char before `from`.
        let re = Regex::new(r"\bx").unwrap();
        assert!(re.find_at("ax", 1).is_none());
        assert!(re.find_at(" x", 1).is_some());
    }

    #[test]
    fn repeated_group_captures_last_iteration() {
        let re = Regex::new("(a|b)+").unwrap();
        let c = re.captures("abab").unwrap();
        assert_eq!(c.get(0).unwrap().as_str(), "abab");
        assert_eq!(c.get(1).unwrap().as_str(), "b");
    }

    #[test]
    fn no_catastrophic_backtracking() {
        // (a+)+b on a long run of 'a's with no 'b' — linear for a Pike VM.
        let re = Regex::new("(a+)+b").unwrap();
        let hay = "a".repeat(2000);
        assert!(re.find(&hay).is_none());
    }

    #[test]
    fn multibyte_haystack_offsets() {
        let re = Regex::new(r"\d+").unwrap();
        let h = "€€ 42 €€";
        let m = re.find(h).unwrap();
        assert_eq!(m.as_str(), "42");
        assert_eq!(&h[m.range()], "42");
    }

    #[test]
    fn deep_split_chain_does_not_overflow_stack() {
        // A long alternation compiles to a deep chain of Split
        // instructions; the iterative closure must handle it.
        let branches: Vec<String> = (0..5_000).map(|i| format!("x{i}")).collect();
        let re = Regex::new(&branches.join("|")).unwrap();
        assert!(re.is_match("x4999"));
        assert!(!re.is_match("y"));
    }

    #[test]
    fn step_budget_enforced() {
        use crate::Error;
        let re = Regex::new(r"(a+)+b").unwrap();
        let hay = "a".repeat(500);
        // Generous budget: completes.
        assert!(re.try_find(&hay, 10_000_000).unwrap().is_none());
        // Tiny budget: fails fast instead of scanning.
        match re.try_find(&hay, 100) {
            Err(Error::StepBudgetExceeded { max_steps: 100 }) => {}
            other => panic!("expected step budget error, got {other:?}"),
        }
    }
}
