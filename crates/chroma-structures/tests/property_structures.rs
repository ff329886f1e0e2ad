//! Property tests for the action structures: random step schedules
//! against survival oracles, and random structure trees through the
//! compiler's predict-vs-execute loop.

use chroma_core::{ActionError, Runtime};
use chroma_structures::compiler::{assign, PlanKind, Structure};
use chroma_structures::{GluedChain, SerializingAction};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Serializing actions: random step outcomes
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any schedule of succeeding/failing steps over shared
    /// objects, a step's effects are permanent iff the step succeeded —
    /// regardless of anything that happens later (the §3.1 semantics).
    #[test]
    fn serializing_steps_survive_iff_they_committed(
        outcomes in prop::collection::vec(any::<bool>(), 1..8),
        abandon in any::<bool>(),
    ) {
        let rt = Runtime::builder().build();
        let objects: Vec<_> = outcomes
            .iter()
            .map(|_| rt.create_object(&0i64).expect("create"))
            .collect();
        let sa = SerializingAction::begin(&rt).expect("begin");
        for (i, (&ok, &object)) in outcomes.iter().zip(&objects).enumerate() {
            let result = sa.step(|s| {
                s.write(object, &(i as i64 + 1))?;
                if ok {
                    Ok(())
                } else {
                    Err(ActionError::failed("step fails"))
                }
            });
            prop_assert_eq!(result.is_ok(), ok);
        }
        if abandon {
            sa.abandon();
        } else {
            sa.end().expect("end");
        }
        for (i, (&ok, &object)) in outcomes.iter().zip(&objects).enumerate() {
            let value = rt.read_committed::<i64>(object).expect("read");
            let expected = if ok { i as i64 + 1 } else { 0 };
            prop_assert_eq!(
                value, expected,
                "step {} (ok={}, abandon={})", i, ok, abandon
            );
        }
        // No leaked locks either way.
        prop_assert_eq!(rt.lock_entry_count(), 0);
    }

    /// Writes to one object across steps: the surviving value is the
    /// last *successful* step's, and intermediate failures never leak.
    #[test]
    fn serializing_single_object_last_success_wins(
        outcomes in prop::collection::vec(any::<bool>(), 1..8),
    ) {
        let rt = Runtime::builder().build();
        let object = rt.create_object(&0i64).expect("create");
        let sa = SerializingAction::begin(&rt).expect("begin");
        let mut expected = 0i64;
        for (i, &ok) in outcomes.iter().enumerate() {
            let value = i as i64 + 1;
            let _ = sa.step(|s| {
                s.write(object, &value)?;
                if ok {
                    Ok(())
                } else {
                    Err(ActionError::failed("fails"))
                }
            });
            if ok {
                expected = value;
            }
        }
        sa.end().expect("end");
        prop_assert_eq!(rt.read_committed::<i64>(object).expect("read"), expected);
    }

    /// Glued chains: objects handed over stay protected until the step
    /// after next commits; objects never handed over are free right
    /// after their step.
    #[test]
    fn glued_chain_handover_schedule(
        hand_over in prop::collection::vec(any::<bool>(), 1..6),
    ) {
        let rt = Runtime::builder().config(chroma_core::RuntimeConfig {
            lock_timeout: Some(std::time::Duration::from_millis(100)),
        }).build();
        let objects: Vec<_> = hand_over
            .iter()
            .map(|_| rt.create_object(&0u8).expect("create"))
            .collect();
        let chain = GluedChain::begin(&rt, hand_over.len()).expect("begin");
        for (i, (&keep, &object)) in hand_over.iter().zip(&objects).enumerate() {
            chain
                .step(|s| {
                    s.write(object, &(i as u8 + 1))?;
                    if keep {
                        s.hand_over(object)?;
                    }
                    Ok(())
                })
                .expect("step");
            // Previous step's handed-over object is still fenced; this
            // step's non-handed object is free.
            let probe = rt.atomic(|a| a.read::<u8>(object));
            prop_assert_eq!(probe.is_ok(), !keep, "step {}", i);
        }
        chain.end().expect("end");
        // Everything free at the end, all committed values intact.
        for (i, &object) in objects.iter().enumerate() {
            prop_assert_eq!(
                rt.atomic(|a| a.read::<u8>(object)).expect("read"),
                i as u8 + 1
            );
        }
        prop_assert_eq!(rt.lock_entry_count(), 0);
    }
}

// ---------------------------------------------------------------------
// Compiler: random structure trees, predict vs execute
// ---------------------------------------------------------------------

/// A compact generator of random structures with named actions/works.
/// The draw can give two nodes one name, so every node is numbered
/// afresh after it: the oracle below tells nodes apart by name.
fn structure_strategy() -> impl Strategy<Value = Structure> {
    let leaf = (0u32..1000).prop_map(|i| Structure::work(format!("w{i}")));
    leaf.prop_recursive(3, 12, 3, |inner| {
        let children = prop::collection::vec(inner, 1..3);
        (0u32..1000, 0usize..4, children, 0usize..4).prop_map(|(id, kind, children, levels)| {
            match kind {
                0 => Structure::action(format!("a{id}"), children),
                1 => Structure::independent(format!("i{id}"), levels.max(1), children),
                2 => Structure::glued(format!("g{id}"), children),
                _ => Structure::serializing(format!("s{id}"), children),
            }
        })
    })
    .prop_map(|mut structure| {
        number_nodes(&mut structure, &mut 0);
        structure
    })
}

/// Renames every node in pre-order, keeping its kind's letter (`a0`,
/// `w1`, `s2`, ...), so no two nodes share a name.
fn number_nodes(s: &mut Structure, next: &mut usize) {
    let (name, children) = match s {
        Structure::Work { name } => (name, None),
        Structure::Action { name, children } | Structure::Independent { name, children, .. } => {
            (name, Some(children))
        }
        Structure::Serializing { name, steps } | Structure::Glued { name, steps } => {
            (name, Some(steps))
        }
    };
    *name = format!("{}{next}", &name[..1]);
    *next += 1;
    for child in children.into_iter().flatten() {
        number_nodes(child, next);
    }
}

/// Collects the work-node names of a structure.
fn work_names(s: &Structure, out: &mut Vec<String>) {
    match s {
        Structure::Work { name } => out.push(name.clone()),
        Structure::Action { children, .. } | Structure::Independent { children, .. } => {
            for c in children {
                work_names(c, out);
            }
        }
        Structure::Serializing { steps, .. } | Structure::Glued { steps, .. } => {
            for c in steps {
                work_names(c, out);
            }
        }
    }
}

/// Collects every named node (for aborter selection).
fn node_names(s: &Structure, out: &mut Vec<String>) {
    match s {
        Structure::Work { name } => out.push(name.clone()),
        Structure::Action { name, children } | Structure::Independent { name, children, .. } => {
            out.push(name.clone());
            for c in children {
                node_names(c, out);
            }
        }
        Structure::Serializing { name, steps } | Structure::Glued { name, steps } => {
            out.push(name.clone());
            for c in steps {
                node_names(c, out);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For random structures and every single-aborter schedule, the
    /// compiler's survival prediction matches real execution. This is
    /// the deep differential: the static inheritance-chain analysis
    /// versus the live runtime's per-colour commit machinery.
    #[test]
    fn compiler_prediction_matches_execution(structure in structure_strategy()) {
        // Wrap in a root action so `Independent` levels have an anchor
        // context even at the top.
        let root = Structure::top("root", vec![structure]);
        let Ok(plan) = assign(&root) else {
            // Plans needing >64 colours are legitimately rejected.
            return Ok(());
        };
        let mut works = Vec::new();
        work_names(&root, &mut works);
        let mut names = Vec::new();
        node_names(&root, &mut names);
        // Cap the schedules to keep runtime bounded.
        for aborter in names.iter().take(6) {
            let rt = Runtime::builder().build();
            let result = plan
                .execute(&rt, &|name| name != aborter)
                .expect("execute");
            for work in &works {
                let Some(undone) = plan.undone_by(work, aborter) else {
                    continue;
                };
                let survived = *result
                    .survived
                    .get(work)
                    .expect("work present in report");
                prop_assert_eq!(
                    survived,
                    !undone,
                    "work {} aborter {}", work, aborter
                );
            }
            prop_assert_eq!(rt.lock_entry_count(), 0);
        }
    }

    /// Control nodes never have an update colour; work nodes always do;
    /// every node's fences are within its own colour set.
    #[test]
    fn plans_are_well_formed(structure in structure_strategy()) {
        let root = Structure::top("root", vec![structure]);
        let Ok(plan) = assign(&root) else { return Ok(()); };
        for node in &plan.nodes {
            match node.kind {
                PlanKind::Control => prop_assert!(node.update.is_none()),
                PlanKind::Work => prop_assert!(node.update.is_some()),
                PlanKind::Action => {}
            }
            prop_assert!(
                node.fences.is_subset_of(node.colours),
                "{}: fences outside colour set", node.name
            );
            prop_assert!(!node.colours.is_empty(), "{}: no colours", node.name);
            if let Some(update) = node.update {
                prop_assert!(node.colours.contains(update));
            }
        }
    }
}
