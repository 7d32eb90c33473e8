//! Self-time attribution over collected spans.
//!
//! A span's self time is its duration minus the time its child spans on
//! the same thread cover. Spans on one thread nest strictly (a guard
//! drops before its parent's), so the children of a span are the spans
//! it contains whose nearest containing span it is.

use std::collections::BTreeMap;

/// The parts of a span record attribution needs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub thread: u64,
    /// Nesting depth at open time (0 = outermost on its thread).
    pub depth: u32,
    pub start_ns: u64,
    pub dur_ns: u64,
}

impl Span {
    fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }

    fn contains(&self, other: &Span) -> bool {
        self.start_ns <= other.start_ns && other.end_ns() <= self.end_ns()
    }
}

impl From<&trace::SpanRecord> for Span {
    fn from(r: &trace::SpanRecord) -> Span {
        Span {
            name: r.name,
            thread: r.thread,
            depth: r.depth,
            start_ns: r.start_ns,
            dur_ns: r.dur_ns,
        }
    }
}

/// Per span name: how many spans, their total and their self time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time of every span, in input order.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let (child_ns, _) = nest(spans);
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.dur_ns.saturating_sub(c))
        .collect()
}

/// For every span: the time its children cover, and the index of its
/// nearest containing span on the same thread.
fn nest(spans: &[Span]) -> (Vec<u64>, Vec<Option<usize>>) {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    // Per thread, by start; a parent sorts before a child that starts at
    // the same instant because it is at least as long.
    order.sort_by_key(|&i| {
        let s = &spans[i];
        (s.thread, s.start_ns, std::cmp::Reverse(s.dur_ns))
    });
    let mut child_ns = vec![0u64; spans.len()];
    let mut parent = vec![None; spans.len()];
    let mut stack: Vec<usize> = Vec::new();
    for &i in &order {
        let s = &spans[i];
        while let Some(&top) = stack.last() {
            if spans[top].thread == s.thread && spans[top].contains(s) {
                break;
            }
            stack.pop();
        }
        if let Some(&p) = stack.last() {
            child_ns[p] += s.dur_ns;
            parent[i] = Some(p);
        }
        stack.push(i);
    }
    (child_ns, parent)
}

/// Folds spans into per-name totals.
pub fn totals_by_name(spans: &[Span], into: &mut BTreeMap<&'static str, NameTotals>) {
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = into.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns;
        t.self_ns += self_ns;
    }
}

/// Folds spans drained batch by batch. Children close before their
/// parent, so a batch can hold the children of a span that is still
/// open; a tree whose outermost span in the batch is not at depth 0 is
/// carried to the next batch instead of being counted without its root.
#[derive(Default)]
pub struct Folder {
    carry: Vec<Span>,
    pub totals: BTreeMap<&'static str, NameTotals>,
}

impl Folder {
    pub fn add_batch(&mut self, batch: impl IntoIterator<Item = Span>) {
        let mut spans = std::mem::take(&mut self.carry);
        spans.extend(batch);
        let (_, parent) = nest(&spans);
        let root = |mut i: usize| {
            while let Some(p) = parent[i] {
                i = p;
            }
            i
        };
        let (mut done, mut open) = (Vec::new(), Vec::new());
        for (i, s) in spans.iter().enumerate() {
            if spans[root(i)].depth == 0 {
                done.push(s.clone());
            } else {
                open.push(s.clone());
            }
        }
        totals_by_name(&done, &mut self.totals);
        self.carry = open;
    }

    /// Counts whatever is still carried, without the missing roots.
    pub fn flush(&mut self) {
        let carry = std::mem::take(&mut self.carry);
        totals_by_name(&carry, &mut self.totals);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, thread: u64, start_ns: u64, end_ns: u64) -> Span {
        at(name, thread, 0, start_ns, end_ns)
    }

    fn at(name: &'static str, thread: u64, depth: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            thread,
            depth,
            start_ns,
            dur_ns: end_ns - start_ns,
        }
    }

    #[test]
    fn self_time_on_a_synthetic_tree() {
        // thread 1: a[0,100) > { b[10,40) > c[20,30), d[50,90) }
        // thread 2: e[0,50) overlaps a in time but is not its child.
        let spans = vec![
            span("c", 1, 20, 30),
            span("e", 2, 0, 50),
            span("a", 1, 0, 100),
            span("d", 1, 50, 90),
            span("b", 1, 10, 40),
        ];
        assert_eq!(self_times(&spans), vec![10, 50, 30, 40, 20]);
        let mut by_name = BTreeMap::new();
        totals_by_name(&spans, &mut by_name);
        assert_eq!(
            by_name["a"],
            NameTotals {
                count: 1,
                total_ns: 100,
                self_ns: 30
            }
        );
        // Self times partition each thread's top-level time.
        let self_sum: u64 = self_times(&spans).iter().sum();
        assert_eq!(self_sum, 100 + 50);
    }

    #[test]
    fn shared_start_and_siblings() {
        // A child starting at its parent's first instant, then a sibling
        // tree after the parent closed.
        let spans = vec![
            span("p", 1, 0, 10),
            span("k", 1, 0, 4),
            span("q", 1, 10, 20),
            span("r", 1, 12, 15),
        ];
        assert_eq!(self_times(&spans), vec![6, 4, 7, 3]);
    }

    #[test]
    fn orphans_attribute_to_nearest_container() {
        // The middle span was lost (ring overwrite): the grandchild still
        // counts against the outermost span that contains it.
        let spans = vec![span("outer", 1, 0, 100), span("leaf", 1, 30, 60)];
        assert_eq!(self_times(&spans), vec![70, 30]);
    }

    #[test]
    fn open_trees_carry_to_the_next_batch() {
        // Batch 1 holds a finished request and the children of one still
        // running; batch 2 brings the running request's root.
        let mut f = Folder::default();
        f.add_batch(vec![
            at("exec", 1, 0, 0, 10),
            at("prove", 1, 1, 2, 5),
            at("prove", 1, 1, 12, 15),
        ]);
        assert_eq!(f.totals["exec"].self_ns, 7);
        assert_eq!(f.totals["prove"].count, 1);
        f.add_batch(vec![at("prove", 1, 1, 16, 18), at("exec", 1, 0, 11, 20)]);
        assert_eq!(f.totals["exec"].self_ns, 7 + 4);
        assert_eq!(f.totals["exec"].count, 2);
        assert_eq!(f.totals["prove"].self_ns, 3 + 3 + 2);
        f.flush();
        assert_eq!(f.totals["prove"].count, 3);
    }
}
