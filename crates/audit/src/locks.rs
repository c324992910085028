//! CIND-A008: the workspace-wide lock acquisition-order graph is acyclic,
//! and no mutex is locked again under its own guard.
//!
//! Every function body in the workspace is walked ([`crate::syntax`]);
//! whenever a lock is acquired while other guards are live, one directed
//! edge `held-class → acquired-class` is recorded, together with the first
//! witness site (file, line, and where the held guard was taken). Channel
//! endpoints and the group-commit ticket wait are acquirable resources
//! too: a blocking `send`/`recv`/`recv_timeout` becomes an edge into
//! `channel:<class>`, a `wait_durable` call an edge into `GroupCommit` —
//! they cannot themselves hold anything afterwards (the call returns or
//! blocks), so they only ever appear as edge *targets*.
//!
//! Lock classes are named by [`crate::syntax::lock_class`]: receiver-tail
//! ident, depluralized, with `self` resolving to the impl type. That makes
//! `self.slots[i].read()` in one file and `self.slots[j].write()` in
//! another the same class `slot`, which is exactly what lets a
//! `commit.rs` ↔ `sharded.rs` inversion close a cycle across files.
//!
//! A cycle fails the audit with the full witness chain, one hop per edge:
//! which file:line acquired what while holding what. Same-class nesting
//! adds no edge. A `.lock()` taken while a `.lock()` guard of its own class
//! is live is a finding of its own: a `std::sync::Mutex` is not reentrant,
//! so on one mutex it self-deadlocks, and the class cannot tell two
//! mutexes of the same name apart. Nested `read`/`write` guards of one
//! class stay unflagged: shared read guards nest.

use std::collections::{BTreeMap, BTreeSet};

use crate::syntax::{self, Event};
use crate::{Finding, SourceFile};

/// First observed witness for an acquisition-order edge.
struct Witness {
    file: String,
    line: usize,
    held_line: usize,
}

/// CIND-A008 entry point: build the graph, fail on cycles and on a mutex
/// re-locked under its own guard.
#[must_use]
pub fn lock_order(files: &[SourceFile]) -> Vec<Finding> {
    let mut edges: BTreeMap<(String, String), Witness> = BTreeMap::new();
    let mut relocks = Vec::new();
    for f in files {
        for func in syntax::functions(f) {
            for ev in syntax::events(f, &func) {
                let (line, target, held) = match &ev {
                    Event::Acquire { line, class, method, held, .. } => {
                        let relocked = held
                            .iter()
                            .find(|h| method == "lock" && h.method == "lock" && h.class == *class);
                        if let Some(h) = relocked {
                            relocks.push(Finding {
                                file: f.path.clone(),
                                line: *line,
                                rule: "CIND-A008",
                                message: format!(
                                    "`{class}` locked while its guard from line {} is live \
                                     (std::sync::Mutex is not reentrant; drop the guard first)",
                                    h.line
                                ),
                            });
                        }
                        (*line, Some(class.clone()), held)
                    }
                    Event::Call { line, name, recv_tail, empty_args, held, .. } => {
                        let target = match (name.as_str(), empty_args) {
                            ("send" | "recv_timeout", _) | ("recv", true) => {
                                Some(format!(
                                    "channel:{}",
                                    syntax::lock_class(
                                        recv_tail.as_deref(),
                                        func.impl_type.as_deref(),
                                    )
                                ))
                            }
                            ("wait_durable", _) => Some("GroupCommit".to_owned()),
                            _ => None,
                        };
                        (*line, target, held)
                    }
                    Event::PathCall { .. } => continue,
                };
                let Some(to) = target else { continue };
                for h in held {
                    if h.class == to {
                        continue;
                    }
                    edges.entry((h.class.clone(), to.clone())).or_insert(Witness {
                        file: f.path.clone(),
                        line,
                        held_line: h.line,
                    });
                }
            }
        }
    }

    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        adj.entry(from).or_default().push(to);
    }

    let mut cycles: BTreeSet<Vec<String>> = BTreeSet::new();
    for start in adj.keys() {
        let mut path = vec![(*start).to_owned()];
        dfs(start, &adj, &mut path, &mut cycles);
    }

    cycles
        .into_iter()
        .map(|cycle| {
            let mut chain = cycle.join(" -> ");
            chain.push_str(" -> ");
            chain.push_str(&cycle[0]);
            let hops: Vec<String> = (0..cycle.len())
                .map(|i| {
                    let from = &cycle[i];
                    let to = &cycle[(i + 1) % cycle.len()];
                    let w = &edges[&(from.clone(), to.clone())];
                    format!(
                        "{}:{} acquires {to} while holding {from} (line {})",
                        w.file, w.line, w.held_line
                    )
                })
                .collect();
            let first = &edges[&(cycle[0].clone(), cycle[1 % cycle.len()].clone())];
            Finding {
                file: first.file.clone(),
                line: first.line,
                rule: "CIND-A008",
                message: format!("lock-order cycle: {chain}; {}", hops.join("; ")),
            }
        })
        .chain(relocks)
        .collect()
}

/// Path-stack DFS: every simple cycle is found (the graph has a handful of
/// nodes — lock classes — so the exponential worst case is theoretical),
/// canonicalized by rotation so each cycle is reported once.
fn dfs(
    node: &str,
    adj: &BTreeMap<&str, Vec<&str>>,
    path: &mut Vec<String>,
    cycles: &mut BTreeSet<Vec<String>>,
) {
    let Some(nexts) = adj.get(node) else { return };
    for next in nexts {
        if let Some(pos) = path.iter().position(|p| p == next) {
            cycles.insert(canonical(&path[pos..]));
        } else {
            path.push((*next).to_owned());
            dfs(next, adj, path, cycles);
            path.pop();
        }
    }
}

/// Rotates the cycle so its lexicographically smallest class comes first.
fn canonical(cycle: &[String]) -> Vec<String> {
    let min = cycle
        .iter()
        .enumerate()
        .min_by_key(|&(_, c)| c)
        .map_or(0, |(i, _)| i);
    let mut out = Vec::with_capacity(cycle.len());
    out.extend_from_slice(&cycle[min..]);
    out.extend_from_slice(&cycle[..min]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(path: &str, src: &str) -> SourceFile {
        SourceFile::new(path, src)
    }

    #[test]
    fn consistent_order_is_clean() {
        let a = file(
            "crates/x/src/a.rs",
            "impl A {\nfn f(&self) {\n    let q = self.queue.lock().unwrap();\n    \
             let s = self.slots[0].read();\n    drop(s); drop(q);\n}\n}\n",
        );
        let b = file(
            "crates/x/src/b.rs",
            "impl B {\nfn g(&self) {\n    let q = self.queue.lock().unwrap();\n    \
             let s = self.slots[1].write();\n}\n}\n",
        );
        assert!(lock_order(&[a, b]).is_empty());
    }

    #[test]
    fn cross_file_inversion_is_a_cycle_with_witnesses() {
        let a = file(
            "crates/x/src/a.rs",
            "impl A {\nfn f(&self) {\n    let q = self.queue.lock().unwrap();\n    \
             let s = self.slots[0].read();\n}\n}\n",
        );
        let b = file(
            "crates/x/src/b.rs",
            "impl B {\nfn g(&self) {\n    let s = self.slots[1].write();\n    \
             let q = self.queue.lock().unwrap();\n}\n}\n",
        );
        let found = lock_order(&[a, b]);
        assert_eq!(found.len(), 1, "{found:?}");
        let f = &found[0];
        assert_eq!(f.rule, "CIND-A008");
        assert!(f.message.contains("queue -> slot -> queue"), "{}", f.message);
        assert!(f.message.contains("crates/x/src/a.rs:4"), "{}", f.message);
        assert!(f.message.contains("crates/x/src/b.rs:4"), "{}", f.message);
    }

    #[test]
    fn blocking_channel_ops_are_edge_targets() {
        let a = file(
            "crates/x/src/a.rs",
            "impl A {\nfn f(&self) {\n    let g = self.state.lock().unwrap();\n    \
             self.ready.send(1).unwrap();\n}\n\
             fn h(&self) {\n    let c = self.ready.recv();\n}\n}\n",
        );
        // state → channel:ready exists, but nothing closes a cycle.
        assert!(lock_order(&[a]).is_empty());
    }

    #[test]
    fn ticket_wait_under_a_lock_can_close_a_cycle() {
        // f: state → GroupCommit (wait_durable while holding state);
        // g: inside GroupCommit, self.lock() gives class GroupCommit, then
        // state.lock() while held → GroupCommit → state. Cycle.
        let a = file(
            "crates/x/src/a.rs",
            "impl Engine {\nfn f(&self) {\n    let g = self.state.write();\n    \
             self.commit.wait_durable(t);\n}\n}\n\
             impl GroupCommit {\nfn flush(&self) {\n    let mut st = self.lock();\n    \
             let s = self.state.lock().unwrap();\n}\n}\n",
        );
        let found = lock_order(&[a]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(
            found[0].message.contains("GroupCommit -> state -> GroupCommit")
                || found[0].message.contains("state -> GroupCommit -> state"),
            "{}",
            found[0].message
        );
    }

    #[test]
    fn nested_same_class_lock_is_a_finding() {
        let a = file(
            "crates/storage/src/buffer.rs",
            "impl P {\n\
             fn steal(&self) {\n\
                 let mut g = self.shards[0].lock().unwrap();\n\
                 let other = self.shards[1].lock().unwrap();\n\
                 g.merge(other);\n\
             }\n\
             fn relock(&self) {\n\
                 let g = self.lock();\n\
                 self.lock().len();\n\
             }\n\
             }\n",
        );
        let found = lock_order(&[a]);
        let at: Vec<(usize, &str)> = found.iter().map(|f| (f.line, f.rule)).collect();
        assert_eq!(at, [(4, "CIND-A008"), (9, "CIND-A008")], "{found:?}");
        assert!(found[0].message.starts_with("`shard` locked while its guard from line 3"));
        assert!(found[1].message.starts_with("`P` locked while its guard from line 8"));
    }

    #[test]
    fn sequential_same_class_locks_are_not_a_finding() {
        let good = file(
            "crates/storage/src/buffer.rs",
            "impl P {\n\
             fn sweep(&self) {\n\
                 for shard in self.shards.iter() {\n\
                     let g = shard.lock().unwrap();\n\
                     g.touch();\n\
                 }\n\
                 let h = self.shards[0].lock().unwrap();\n\
                 drop(h);\n\
                 let k = self.shards[1].lock().unwrap();\n\
             }\n\
             fn count(&self) -> usize {\n\
                 self.shards.iter().map(|s| s.lock().unwrap().len()).sum()\n\
             }\n\
             }\n",
        );
        let found = lock_order(&[good]);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn same_class_nesting_is_not_a_cycle() {
        let locks = file(
            "crates/x/src/a.rs",
            "impl A {\nfn f(&self) {\n    let x = self.shards[0].lock().unwrap();\n    \
             let y = self.shards[1].lock().unwrap();\n}\n}\n",
        );
        // No `shard -> shard` edge, so no cycle: the one finding is the
        // re-lock itself.
        let found = lock_order(&[locks]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(!found[0].message.contains("cycle"), "{}", found[0].message);
        assert!(found[0].message.contains("not reentrant"), "{}", found[0].message);
        // Read/write guards of one class nest without a finding.
        let rw = file(
            "crates/x/src/a.rs",
            "impl A {\nfn f(&self) {\n    let x = self.slots[0].read();\n    \
             let y = self.slots[1].write();\n}\n}\n",
        );
        assert!(lock_order(&[rw]).is_empty());
    }

    #[test]
    fn nested_locks_of_two_classes_add_an_edge_but_no_finding() {
        let nested = || {
            file(
                "crates/core/src/catalog.rs",
                "impl C {\nfn f(&self) {\n    let a = self.x.lock().unwrap();\n    \
                 let b = self.y.lock().unwrap();\n}\n}\n",
            )
        };
        // Alone, x → y closes no cycle …
        assert!(lock_order(&[nested()]).is_empty());
        // … but the edge is there: the opposite order elsewhere closes one.
        let inverted = file(
            "crates/core/src/other.rs",
            "impl D {\nfn g(&self) {\n    let b = self.y.lock().unwrap();\n    \
             let a = self.x.lock().unwrap();\n}\n}\n",
        );
        let found = lock_order(&[nested(), inverted]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.starts_with("lock-order cycle: x -> y -> x;"), "{found:?}");
    }
}
