//! Reachability analysis: state graphs, deadlocks, liveness, safety.

use std::collections::HashMap;

use crate::{Marking, Stg, StgError, TransId};

/// The reachability (state) graph of an STG.
#[derive(Debug, Clone)]
pub struct ReachGraph {
    states: Vec<Marking>,
    /// Edges as `(from-state, transition, to-state)`.
    edges: Vec<(usize, TransId, usize)>,
}

impl ReachGraph {
    /// Number of reachable markings — the concurrency measure of Fig. 2.4.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// The reachable markings.
    pub fn states(&self) -> &[Marking] {
        &self.states
    }

    /// Edges as `(from-state, transition, to-state)`.
    pub fn edges(&self) -> &[(usize, TransId, usize)] {
        &self.edges
    }

    /// States with no enabled transition.
    pub fn deadlocks(&self) -> Vec<usize> {
        let mut has_out = vec![false; self.states.len()];
        for &(from, _, _) in &self.edges {
            has_out[from] = true;
        }
        (0..self.states.len()).filter(|&i| !has_out[i]).collect()
    }
}

impl Stg {
    /// Explores the reachable markings (BFS), up to `limit` states.
    ///
    /// # Errors
    /// Returns [`StgError::StateLimit`] if more than `limit` states are
    /// reachable (unbounded or overly concurrent nets).
    pub fn reachability(&self, limit: usize) -> Result<ReachGraph, StgError> {
        let mut index: HashMap<Marking, usize> = HashMap::new();
        let mut states = Vec::new();
        let mut edges = Vec::new();
        let m0 = self.initial_marking();
        index.insert(m0.clone(), 0);
        states.push(m0);
        let mut frontier = vec![0usize];
        while let Some(s) = frontier.pop() {
            let marking = states[s].clone();
            for t in self.enabled(&marking) {
                let next = self.fire(&marking, t);
                let id = match index.get(&next) {
                    Some(&id) => id,
                    None => {
                        let id = states.len();
                        if id >= limit {
                            return Err(StgError::StateLimit { limit });
                        }
                        index.insert(next.clone(), id);
                        states.push(next);
                        frontier.push(id);
                        id
                    }
                };
                edges.push((s, t, id));
            }
        }
        Ok(ReachGraph { states, edges })
    }

    /// Marked-graph liveness: live iff every directed cycle carries at
    /// least one token (checked as: the token-free sub-graph is acyclic)
    /// and every transition lies on some cycle (otherwise it fires only
    /// finitely often).
    pub fn is_live(&self) -> bool {
        // 1. Token-free subgraph must be acyclic.
        let n = self.transition_count();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for arc in self.arcs() {
            if arc.initial_tokens == 0 {
                adj[arc.from.0 as usize].push(arc.to.0 as usize);
            }
        }
        if has_cycle(&adj) {
            return false;
        }
        // 2. Every connected transition must be able to fire repeatedly:
        // in a marked graph this requires each transition to have both
        // producers and consumers (closed under the flow relation).
        for tr in 0..n {
            let t = TransId(tr as u32);
            let has_in = self.arcs().iter().any(|a| a.to == t);
            let has_out = self.arcs().iter().any(|a| a.from == t);
            if has_in != has_out {
                return false;
            }
        }
        true
    }

    /// Safety: no reachable marking puts more than one token on a place.
    /// Stops exploring as soon as a 2-token place is found, so unbounded
    /// nets are classified as unsafe without exhausting the state limit.
    ///
    /// # Errors
    /// Propagates [`StgError::StateLimit`] from reachability of a safe net.
    pub fn is_safe(&self, limit: usize) -> Result<bool, StgError> {
        let mut index = std::collections::HashSet::new();
        let m0 = self.initial_marking();
        if m0.0.iter().any(|&t| t > 1) {
            return Ok(false);
        }
        index.insert(m0.clone());
        let mut frontier = vec![m0];
        while let Some(marking) = frontier.pop() {
            for t in self.enabled(&marking) {
                let next = self.fire(&marking, t);
                if next.0.iter().any(|&tokens| tokens > 1) {
                    return Ok(false);
                }
                if index.insert(next.clone()) {
                    if index.len() > limit {
                        return Err(StgError::StateLimit { limit });
                    }
                    frontier.push(next);
                }
            }
        }
        Ok(true)
    }

    /// Consistency: along every reachable firing, each signal alternates
    /// `+`/`-` starting from its initial value.
    ///
    /// # Errors
    /// Propagates [`StgError::StateLimit`]; returns
    /// [`StgError::Inconsistent`] describing the first violation.
    pub fn check_consistency(&self, limit: usize) -> Result<(), StgError> {
        // Track signal values per reachable marking; they must be a
        // function of the marking.
        let reach = self.reachability(limit)?;
        let mut values: Vec<Option<Vec<bool>>> = vec![None; reach.state_count()];
        values[0] = Some(self.initial_values().to_vec());
        // Fixed-point propagation over edges (the graph may be cyclic).
        let mut changed = true;
        while changed {
            changed = false;
            for &(from, t, to) in reach.edges() {
                let Some(v) = values[from].clone() else {
                    continue;
                };
                let (sig, pol) = self.signal_of(t);
                let expected_pre = matches!(pol, crate::Polarity::Minus);
                if v[sig] != expected_pre {
                    return Err(StgError::Inconsistent {
                        message: format!(
                            "transition `{}` fires while signal already {}",
                            self.label(t),
                            if v[sig] { "high" } else { "low" }
                        ),
                    });
                }
                let mut next = v;
                next[sig] = !expected_pre;
                match &values[to] {
                    None => {
                        values[to] = Some(next);
                        changed = true;
                    }
                    Some(existing) => {
                        if existing != &next {
                            return Err(StgError::Inconsistent {
                                message: format!(
                                    "marking reached with two different values via `{}`",
                                    self.label(t)
                                ),
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

fn has_cycle(adj: &[Vec<usize>]) -> bool {
    #[derive(Clone, Copy, PartialEq)]
    enum C {
        W,
        G,
        B,
    }
    let n = adj.len();
    let mut color = vec![C::W; n];
    for root in 0..n {
        if color[root] != C::W {
            continue;
        }
        let mut stack = vec![(root, 0usize)];
        color[root] = C::G;
        while let Some(&(node, pos)) = stack.last() {
            if pos < adj[node].len() {
                let next = adj[node][pos];
                stack.last_mut().expect("non-empty").1 += 1;
                match color[next] {
                    C::W => {
                        color[next] = C::G;
                        stack.push((next, 0));
                    }
                    C::G => return true,
                    C::B => {}
                }
            } else {
                color[node] = C::B;
                stack.pop();
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring() -> Stg {
        let mut s = Stg::new(&["a", "b"]);
        s.arc("a+", "a-", 0).unwrap();
        s.arc("a-", "b+", 0).unwrap();
        s.arc("b+", "b-", 0).unwrap();
        s.arc("b-", "a+", 1).unwrap();
        s
    }

    #[test]
    fn ring_has_four_states_and_no_deadlock() {
        let r = ring().reachability(100).unwrap();
        assert_eq!(r.state_count(), 4);
        assert!(r.deadlocks().is_empty());
    }

    #[test]
    fn tokenless_ring_is_dead() {
        let mut s = Stg::new(&["a"]);
        s.arc("a+", "a-", 0).unwrap();
        s.arc("a-", "a+", 0).unwrap();
        assert!(!s.is_live());
        let r = s.reachability(10).unwrap();
        assert_eq!(r.state_count(), 1);
        assert_eq!(r.deadlocks(), vec![0]);
    }

    #[test]
    fn live_ring() {
        assert!(ring().is_live());
    }

    #[test]
    fn safety_detects_unsafe_nets() {
        // Two tokens feeding one consumer arc chain can accumulate.
        let mut s = Stg::new(&["a", "b"]);
        s.arc("a+", "a-", 1).unwrap();
        s.arc("a-", "a+", 0).unwrap();
        s.arc("a+", "b+", 0).unwrap(); // b+ consumes slower than a produces? b+ also needs b-…
        s.arc("b+", "b-", 0).unwrap();
        s.arc("b-", "b+", 1).unwrap();
        // a+ → b+ place can accumulate: a can cycle without b consuming.
        assert!(!s.is_safe(10_000).unwrap());
    }

    #[test]
    fn consistency_of_ring() {
        ring().check_consistency(100).unwrap();
    }

    #[test]
    fn inconsistent_net_detected() {
        // a+ twice in a row: a+ → a+ is impossible to express directly with
        // one transition per edge, so build a net where `a+` refires
        // without `a-`: ring a+ → b+ → a+.
        let mut s = Stg::new(&["a", "b"]);
        s.arc("a+", "b+", 1).unwrap();
        s.arc("b+", "a+", 0).unwrap();
        // note: token placement means a+ fires, then b+, then a+ again…
        let r = s.check_consistency(100);
        assert!(matches!(r, Err(StgError::Inconsistent { .. })), "{r:?}");
    }

    #[test]
    fn state_limit_enforced() {
        let s = ring();
        assert!(matches!(
            s.reachability(2),
            Err(StgError::StateLimit { limit: 2 })
        ));
    }
}
