//! Deadlock detection over a wait-for graph.
//!
//! The graph records which action is waiting for which others. Its edges
//! are lock waits, registered by the [`LockTable`](crate::LockTable)
//! while a blocking acquire is parked. The search also follows the
//! nesting tree: an ancestor counts as waiting for each of its waiting
//! descendants, since it cannot finish (and release its locks) before
//! they do. That one rule covers
//!
//! * a parent suspended while a nested action runs on its thread — e.g.
//!   a synchronously invoked independent action (the fig. 13 caveat: if
//!   the invoked action needs conflicting access to the invoker's
//!   objects, the pair deadlocks; the coloured implementation detects the
//!   cycle instead of hanging);
//! * a cycle through several suspended parents — one serializing
//!   action's fence blocking a step of another, whose fence blocks the
//!   first's next step.
//!
//! A waiter's chain of ancestors rides in its wait entry, so the search
//! answers "is this action an ancestor of that waiter" from the graph
//! alone.
//!
//! Detection is run whenever a new edge is added; the victim is the
//! youngest (highest-numbered) waiter on the cycle, on the usual grounds
//! that it has done the least work. An ancestor that waits only through
//! its descendants is never chosen: it is not parked in the table, so
//! nothing could tell it to give up.

use std::collections::{HashMap, HashSet};

use chroma_base::ActionId;

/// Outcome of a cycle search: the cycle found and the victim chosen.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeadlockReport {
    /// The actions on the cycle, in wait order starting from the victim.
    pub cycle: Vec<ActionId>,
    /// The waiter chosen to be aborted.
    pub victim: ActionId,
}

/// A wait-for graph with cycle detection and victim selection.
///
/// # Examples
///
/// ```
/// use chroma_base::ActionId;
/// use chroma_locks::WaitForGraph;
///
/// let mut g = WaitForGraph::new();
/// let (a, b) = (ActionId::from_raw(1), ActionId::from_raw(2));
/// g.add_wait(a, b, &[]);
/// let report = g.add_wait(b, a, &[]).expect("cycle");
/// assert_eq!(report.victim, b); // youngest waiter
/// ```
#[derive(Clone, Debug, Default)]
pub struct WaitForGraph {
    /// Every waiter's wait entry.
    edges: HashMap<ActionId, Waits>,
}

/// One waiter's entry in the graph.
#[derive(Clone, Debug)]
struct Waits {
    /// The waiter's proper ancestors, closest first.
    chain: Vec<ActionId>,
    /// The actions it waits for, with a count per target so that
    /// duplicate registrations (several blocking holders) are tracked
    /// correctly.
    targets: HashMap<ActionId, usize>,
}

impl WaitForGraph {
    /// Creates an empty graph.
    #[must_use]
    pub fn new() -> Self {
        WaitForGraph::default()
    }

    /// Records that `waiter`, whose proper ancestors are `chain`
    /// (closest first), now waits for `target`, and checks for a cycle
    /// through the new edge, treating every ancestor of a waiting action
    /// as waiting for it too.
    ///
    /// Returns a report if the edge closes a cycle. The caller is
    /// responsible for acting on the report and for eventually removing
    /// the edge again.
    pub fn add_wait(
        &mut self,
        waiter: ActionId,
        target: ActionId,
        chain: &[ActionId],
    ) -> Option<DeadlockReport> {
        let waits = self.edges.entry(waiter).or_insert_with(|| Waits {
            chain: chain.to_vec(),
            targets: HashMap::new(),
        });
        *waits.targets.entry(target).or_insert(0) += 1;
        self.find_cycle_through(waiter)
    }

    /// Removes one `waiter -> target` edge previously added with
    /// [`add_wait`](WaitForGraph::add_wait).
    pub fn remove_wait(&mut self, waiter: ActionId, target: ActionId) {
        let mut drop_waiter = false;
        if let Some(waits) = self.edges.get_mut(&waiter) {
            if let Some(count) = waits.targets.get_mut(&target) {
                *count -= 1;
                if *count == 0 {
                    waits.targets.remove(&target);
                }
            }
            drop_waiter = waits.targets.is_empty();
        }
        if drop_waiter {
            self.edges.remove(&waiter);
        }
    }

    /// Removes every edge from or to `action` (it terminated).
    pub fn remove_action(&mut self, action: ActionId) {
        self.edges.remove(&action);
        for waits in self.edges.values_mut() {
            waits.targets.remove(&action);
        }
        self.edges.retain(|_, waits| !waits.targets.is_empty());
    }

    /// Returns `true` if `action` currently waits for anything.
    #[must_use]
    pub fn is_waiting(&self, action: ActionId) -> bool {
        self.edges.contains_key(&action)
    }

    /// Searches for a cycle reachable from `start` and selects a victim.
    ///
    /// The victim is the youngest waiter on the cycle; returns `None` if
    /// there is no cycle.
    fn find_cycle_through(&self, start: ActionId) -> Option<DeadlockReport> {
        // Iterative DFS tracking the path, since cycles are tiny but the
        // graph can momentarily be large under heavy contention.
        let mut path: Vec<ActionId> = vec![start];
        let mut iters = vec![self.successors(start).into_iter()];
        let mut on_path: HashSet<ActionId> = HashSet::from([start]);
        let mut visited: HashSet<ActionId> = HashSet::from([start]);

        while let Some(iter) = iters.last_mut() {
            match iter.next() {
                Some(next) => {
                    if on_path.contains(&next) {
                        // Found a cycle: the suffix of `path` from `next`.
                        // Every cycle holds a waiter, since an ancestor's
                        // implied edges lead only to waiting descendants.
                        let pos = path.iter().position(|&a| a == next).expect("on path");
                        let cycle: Vec<ActionId> = path[pos..].to_vec();
                        let victim = cycle
                            .iter()
                            .copied()
                            .filter(|a| self.is_waiting(*a))
                            .max()
                            .unwrap_or(start);
                        // Rotate so the victim leads the reported cycle.
                        let vpos = cycle.iter().position(|&a| a == victim).unwrap_or(0);
                        let mut rotated = cycle[vpos..].to_vec();
                        rotated.extend_from_slice(&cycle[..vpos]);
                        return Some(DeadlockReport {
                            cycle: rotated,
                            victim,
                        });
                    }
                    if visited.insert(next) {
                        let successors = self.successors(next);
                        if !successors.is_empty() {
                            path.push(next);
                            on_path.insert(next);
                            iters.push(successors.into_iter());
                        }
                    }
                }
                None => {
                    iters.pop();
                    if let Some(done) = path.pop() {
                        on_path.remove(&done);
                    }
                }
            }
        }
        None
    }

    /// What `action` waits for: its own edges' targets, then every
    /// waiting action whose chain it is on.
    fn successors(&self, action: ActionId) -> Vec<ActionId> {
        let mut next: Vec<ActionId> = self
            .edges
            .get(&action)
            .map(|waits| waits.targets.keys().copied().collect())
            .unwrap_or_default();
        next.extend(
            self.edges
                .iter()
                .filter(|(_, waits)| waits.chain.contains(&action))
                .map(|(&waiter, _)| waiter),
        );
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(n: u64) -> ActionId {
        ActionId::from_raw(n)
    }

    #[test]
    fn no_cycle_no_report() {
        let mut g = WaitForGraph::new();
        assert!(g.add_wait(a(1), a(2), &[]).is_none());
        assert!(g.add_wait(a(2), a(3), &[]).is_none());
    }

    #[test]
    fn two_cycle_detected_with_youngest_victim() {
        let mut g = WaitForGraph::new();
        g.add_wait(a(1), a(2), &[]);
        let report = g.add_wait(a(2), a(1), &[]).expect("cycle");
        assert_eq!(report.victim, a(2));
        assert_eq!(report.cycle.len(), 2);
        assert_eq!(report.cycle[0], a(2));
    }

    #[test]
    fn three_cycle_detected() {
        let mut g = WaitForGraph::new();
        g.add_wait(a(3), a(1), &[]);
        g.add_wait(a(1), a(2), &[]);
        let report = g.add_wait(a(2), a(3), &[]).expect("cycle");
        assert_eq!(report.victim, a(3));
        assert_eq!(report.cycle.len(), 3);
    }

    #[test]
    fn suspended_ancestors_are_not_victims() {
        // Parent 9 runs nested child 1 on its thread; the child waits on
        // a lock the parent holds. The victim must be 1 even though 9 is
        // younger: 9 waits only through its child.
        let mut g = WaitForGraph::new();
        let report = g.add_wait(a(1), a(9), &[a(9)]).expect("cycle");
        assert_eq!(report.victim, a(1));
        assert_eq!(report.cycle, vec![a(1), a(9)]);
    }

    #[test]
    fn duplicate_edges_need_matching_removals() {
        let mut g = WaitForGraph::new();
        g.add_wait(a(1), a(2), &[]);
        g.add_wait(a(1), a(2), &[]);
        g.remove_wait(a(1), a(2));
        assert!(g.is_waiting(a(1)));
        g.remove_wait(a(1), a(2));
        assert!(!g.is_waiting(a(1)));
    }

    #[test]
    fn remove_action_clears_incident_edges() {
        let mut g = WaitForGraph::new();
        g.add_wait(a(1), a(2), &[]);
        g.add_wait(a(3), a(1), &[]);
        g.remove_action(a(1));
        assert!(!g.is_waiting(a(1)));
        assert!(!g.is_waiting(a(3)));
        // No stale cycle possible.
        assert!(g.add_wait(a(2), a(3), &[]).is_none());
    }

    #[test]
    fn self_wait_is_a_cycle() {
        let mut g = WaitForGraph::new();
        let report = g.add_wait(a(5), a(5), &[]).expect("self cycle");
        assert_eq!(report.victim, a(5));
        assert_eq!(report.cycle, vec![a(5)]);
    }

    #[test]
    fn cycle_through_suspended_parents_needs_nesting() {
        // Wrappers 1 and 2 fence an object each; their steps 3 and 4
        // each wait on the other wrapper's fence.
        let mut unnested = WaitForGraph::new();
        unnested.add_wait(a(3), a(2), &[]);
        assert!(unnested.add_wait(a(4), a(1), &[]).is_none());

        let mut g = WaitForGraph::new();
        assert!(g.add_wait(a(3), a(2), &[a(1)]).is_none());
        let report = g
            .add_wait(a(4), a(1), &[a(2)])
            .expect("cycle through both wrappers");
        assert_eq!(report.victim, a(4));
        assert_eq!(report.cycle.len(), 4);
    }

    #[test]
    fn diamond_without_cycle_is_clean() {
        let mut g = WaitForGraph::new();
        g.add_wait(a(1), a(2), &[]);
        g.add_wait(a(1), a(3), &[]);
        g.add_wait(a(2), a(4), &[]);
        assert!(g.add_wait(a(3), a(4), &[]).is_none());
    }
}
