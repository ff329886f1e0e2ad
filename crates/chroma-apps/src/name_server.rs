//! Name server (§4 ii): directory updates as independent actions, plus
//! a replicated deployment over the simulated distributed system.
//!
//! "An application level action, upon finding out that certain objects
//! are unavailable due to a node crash, can invoke a top-level
//! independent action to update the name server asynchronously, while
//! carrying on with the main computation. There is no reason to undo
//! the name server updates should the invoking action abort."

use std::collections::BTreeMap;

use chroma_base::{NodeId, ObjectId};
use chroma_core::{ActionError, ActionScope, ColourSet, Runtime};
use chroma_dist::{ReplicatedObject, Sim};
use chroma_store::stored;
use chroma_structures::{independent_async, IndependentHandle};

stored! {
    /// The directory state: names bound to locations, in name order so
    /// equal directories encode to equal bytes on every replica.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct Directory {
        bindings: BTreeMap<String, String>,
    }
}

/// A local name server whose operations are atomic actions.
///
/// # Examples
///
/// ```
/// use chroma_core::Runtime;
/// use chroma_apps::NameServer;
///
/// # fn main() -> Result<(), chroma_core::ActionError> {
/// let rt = Runtime::builder().build();
/// let ns = NameServer::create(&rt)?;
/// ns.register("printer", "node-3")?;
/// assert_eq!(ns.lookup("printer")?, Some("node-3".to_owned()));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct NameServer {
    rt: Runtime,
    directory: ObjectId,
}

impl NameServer {
    /// Creates an empty name server.
    ///
    /// # Errors
    ///
    /// Codec failures (never occur for the empty state).
    pub fn create(rt: &Runtime) -> Result<Self, ActionError> {
        let directory = rt.create_object(&Directory::default())?;
        Ok(NameServer {
            rt: rt.clone(),
            directory,
        })
    }

    /// Binds `name` to `location` (top-level atomic action). Returns
    /// the previous binding.
    ///
    /// # Errors
    ///
    /// Lock or codec failures.
    pub fn register(&self, name: &str, location: &str) -> Result<Option<String>, ActionError> {
        let directory = self.directory;
        let (name, location) = (name.to_owned(), location.to_owned());
        self.rt.atomic(move |a| {
            a.modify(directory, |d: &mut Directory| {
                d.bindings.insert(name, location)
            })
        })
    }

    /// Removes the binding of `name`; returns it if it existed.
    ///
    /// # Errors
    ///
    /// Lock or codec failures.
    pub fn remove(&self, name: &str) -> Result<Option<String>, ActionError> {
        let directory = self.directory;
        let name = name.to_owned();
        self.rt
            .atomic(move |a| a.modify(directory, |d: &mut Directory| d.bindings.remove(&name)))
    }

    /// Looks up `name` (top-level atomic action).
    ///
    /// # Errors
    ///
    /// Lock or codec failures.
    pub fn lookup(&self, name: &str) -> Result<Option<String>, ActionError> {
        let directory = self.directory;
        let name = name.to_owned();
        self.rt
            .atomic(move |a| Ok(a.read::<Directory>(directory)?.bindings.get(&name).cloned()))
    }

    /// Re-binds `name` asynchronously from inside an application action
    /// (the §4 ii scenario: the application noticed a stale location
    /// and repairs the directory while carrying on). The update is a
    /// detached top-level independent action: it survives whatever
    /// happens to the invoker.
    #[must_use]
    pub fn update_async(&self, name: &str, location: &str) -> IndependentHandle<Option<String>> {
        let directory = self.directory;
        let (name, location) = (name.to_owned(), location.to_owned());
        independent_async(&self.rt, move |a| {
            a.modify(directory, |d: &mut Directory| {
                d.bindings.insert(name, location)
            })
        })
    }

    /// Runs `body` with a scope suitable for grouped updates (a single
    /// top-level action over the directory).
    ///
    /// # Errors
    ///
    /// Propagates the body's error after aborting.
    pub fn batch<R>(
        &self,
        body: impl FnOnce(&mut ActionScope<'_>, ObjectId) -> Result<R, ActionError>,
    ) -> Result<R, ActionError> {
        let directory = self.directory;
        let colour = self.rt.universe().fresh()?;
        let result = self
            .rt
            .run_top(ColourSet::single(colour), colour, |a| body(a, directory));
        self.rt.universe().release(colour);
        result
    }
}

/// A name server replicated across simulated nodes for availability
/// (the paper: "for the sake of availability and consistency it is
/// desirable that a name server be replicated").
///
/// Bindings live in one replicated directory object; writes go to all
/// available replicas through two-phase commit, reads are served by any
/// single up-to-date replica.
#[derive(Clone, Debug)]
pub struct ReplicatedNameServer {
    replica: ReplicatedObject,
}

impl ReplicatedNameServer {
    /// Creates a replicated name server over `members`.
    pub fn create(sim: &mut Sim, object: ObjectId, members: &[NodeId]) -> Self {
        let initial =
            chroma_store::codec::to_bytes(&Directory::default()).expect("directory encodes");
        let replica = ReplicatedObject::create(sim, object, members, &initial);
        ReplicatedNameServer { replica }
    }

    /// Binds `name` to `location`; returns `false` if no replica is
    /// available. Run the simulation to quiescence to settle the write.
    pub fn register(&self, sim: &mut Sim, name: &str, location: &str) -> bool {
        let Some((_, bytes)) = self.replica.read(sim) else {
            return false;
        };
        let mut directory: Directory = chroma_store::codec::from_bytes(&bytes).unwrap_or_default();
        directory
            .bindings
            .insert(name.to_owned(), location.to_owned());
        let encoded = chroma_store::codec::to_bytes(&directory).expect("directory encodes");
        self.replica.write(sim, &encoded).is_some()
    }

    /// Looks up `name` from any available up-to-date replica.
    #[must_use]
    pub fn lookup(&self, sim: &Sim, name: &str) -> Option<String> {
        let (_, bytes) = self.replica.read(sim)?;
        let directory: Directory = chroma_store::codec::from_bytes(&bytes).ok()?;
        directory.bindings.get(name).cloned()
    }

    /// Returns the underlying replicated object (for fault injection in
    /// tests and experiments).
    #[must_use]
    pub fn replica(&self) -> &ReplicatedObject {
        &self.replica
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directories_keep_their_bytes() {
        let mut directory = Directory::default();
        directory.bindings.insert("printer".into(), "node-3".into());
        crate::assert_stored_bytes(
            &directory,
            "010000000000000007000000000000007072696e74657206000000000000006e6f64652d33",
        );
        directory.bindings.insert("disk".into(), "node-1".into());
        crate::assert_stored_bytes(
            &directory,
            "020000000000000004000000000000006469736b06000000000000006e6f64652d31\
             07000000000000007072696e74657206000000000000006e6f64652d33",
        );
        // the `HashMap` build could also have written the pairs in the
        // other order: those bytes still decode to the same directory
        let unordered =
            "020000000000000007000000000000007072696e74657206000000000000006e6f64652d33\
             04000000000000006469736b06000000000000006e6f64652d31";
        assert_eq!(
            chroma_store::codec::from_bytes::<Directory>(&crate::unhex(unordered)).unwrap(),
            directory
        );
    }

    #[test]
    fn equal_directories_encode_to_equal_bytes() {
        let bindings: Vec<(String, String)> = (0..32)
            .map(|i| (format!("service-{i}"), format!("node-{}", i % 5)))
            .collect();
        let mut forward = Directory::default();
        for (name, location) in &bindings {
            forward.bindings.insert(name.clone(), location.clone());
        }
        let mut backward = Directory::default();
        for (name, location) in bindings.iter().rev() {
            backward.bindings.insert(name.clone(), location.clone());
        }
        assert_eq!(
            chroma_store::codec::to_bytes(&forward).unwrap(),
            chroma_store::codec::to_bytes(&backward).unwrap()
        );
    }

    #[test]
    fn register_lookup_remove() {
        let rt = Runtime::builder().build();
        let ns = NameServer::create(&rt).unwrap();
        assert_eq!(ns.register("svc", "n1").unwrap(), None);
        assert_eq!(ns.lookup("svc").unwrap(), Some("n1".to_owned()));
        assert_eq!(ns.register("svc", "n2").unwrap(), Some("n1".to_owned()));
        assert_eq!(ns.remove("svc").unwrap(), Some("n2".to_owned()));
        assert_eq!(ns.lookup("svc").unwrap(), None);
    }

    #[test]
    fn async_update_survives_invoker_abort() {
        let rt = Runtime::builder().build();
        let ns = NameServer::create(&rt).unwrap();
        ns.register("svc", "dead-node").unwrap();
        let result: Result<(), ActionError> = rt.atomic(|_a| {
            // The application discovers the stale binding and repairs it
            // asynchronously, then itself fails.
            let handle = ns.update_async("svc", "live-node");
            handle.join()?;
            Err(ActionError::failed("main computation failed"))
        });
        assert!(result.is_err());
        // "There is no reason to undo the name server updates."
        assert_eq!(ns.lookup("svc").unwrap(), Some("live-node".to_owned()));
    }

    #[test]
    fn replicated_name_server_survives_replica_crash() {
        let mut sim = Sim::new(31);
        let nodes = vec![sim.add_node(), sim.add_node(), sim.add_node()];
        let ns = ReplicatedNameServer::create(&mut sim, ObjectId::from_raw(500), &nodes);
        assert!(ns.register(&mut sim, "printer", "n9"));
        sim.run_to_quiescence();
        sim.schedule_crash(nodes[0], 0);
        sim.run_to_quiescence();
        assert_eq!(ns.lookup(&sim, "printer"), Some("n9".to_owned()));
        // Updates continue with a member down.
        assert!(ns.register(&mut sim, "scanner", "n4"));
        sim.run_to_quiescence();
        assert_eq!(ns.lookup(&sim, "scanner"), Some("n4".to_owned()));
    }

    #[test]
    fn replicated_name_server_unavailable_when_all_down() {
        let mut sim = Sim::new(32);
        let nodes = vec![sim.add_node(), sim.add_node()];
        let ns = ReplicatedNameServer::create(&mut sim, ObjectId::from_raw(500), &nodes);
        sim.schedule_crash(nodes[0], 0);
        sim.schedule_crash(nodes[1], 0);
        sim.run_to_quiescence();
        assert_eq!(ns.lookup(&sim, "anything"), None);
        assert!(!ns.register(&mut sim, "x", "y"));
    }

    #[test]
    fn recovered_replica_serves_fresh_bindings() {
        let mut sim = Sim::new(33);
        let nodes = vec![sim.add_node(), sim.add_node(), sim.add_node()];
        let ns = ReplicatedNameServer::create(&mut sim, ObjectId::from_raw(500), &nodes);
        sim.schedule_crash(nodes[2], 0);
        sim.run_to_quiescence();
        assert!(ns.register(&mut sim, "svc", "n1"));
        sim.run_to_quiescence();
        sim.schedule_recover(nodes[2], 0);
        sim.run_to_quiescence();
        // Crash the two replicas that saw the write: the recovered one
        // must have caught up.
        sim.schedule_crash(nodes[0], 0);
        sim.schedule_crash(nodes[1], 0);
        sim.run_to_quiescence();
        assert_eq!(ns.lookup(&sim, "svc"), Some("n1".to_owned()));
    }
}
