#![allow(clippy::result_unit_err)] // Registration failure carries no payload by design.

//! The termination engine's cleanup registry.
//!
//! §3.1: "We can record allocated kernel resources and their destructors
//! on-the-fly during program execution. When termination is needed, the
//! destructors of allocated resources are invoked to release the
//! resources." Crucially, the destructors live in the *trusted kernel
//! crate* — they are the enum arms of [`Resource`] below, not user code —
//! so cleanup cannot fail and needs no ABI unwinder. The registry is
//! bounded (per the paper's suggestion of pool/per-CPU storage): it holds
//! at most `capacity` entries, and a full registry refuses the
//! acquisition rather than growing past the bound. Its storage is
//! allocated as resources are registered, so a run that holds nothing
//! allocates nothing. A registry belongs to its one run, so it is a
//! `RefCell` and a `Cell`: registering a resource takes no lock.

use std::cell::{Cell, RefCell};

use ebpf::maps::{MapFd, MapRegistry};
use kernel_sim::{
    audit::EventKind, exec::ExecCtx, locks::LockId, mem::Addr, refcount::ObjId, Kernel,
};

/// A kernel resource recorded for cleanup, with its trusted destructor
/// baked into the variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resource {
    /// A refcount held on a socket.
    SocketRef(ObjId),
    /// A refcount held on a task stack.
    StackRef(ObjId),
    /// A held spinlock.
    Lock(LockId),
    /// An unsubmitted ring-buffer reservation.
    RingbufRecord {
        /// The ring-buffer map.
        fd: MapFd,
        /// The reserved record's address.
        addr: Addr,
    },
}

/// Ticket identifying a registered resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ticket(u64);

/// Default registry capacity (entries), sized like a per-CPU scratch area.
pub const DEFAULT_CAPACITY: usize = 64;

#[derive(Debug)]
struct Entry {
    ticket: Ticket,
    resource: Resource,
}

/// The bounded cleanup registry.
#[derive(Debug)]
pub struct CleanupRegistry {
    entries: RefCell<Vec<Entry>>,
    capacity: usize,
    next_ticket: Cell<u64>,
}

impl Default for CleanupRegistry {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }
}

impl CleanupRegistry {
    /// Creates a registry that holds at most `capacity` outstanding
    /// resources. Nothing is allocated here: the backing storage grows on
    /// demand, up to that limit.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            entries: RefCell::new(Vec::new()),
            capacity,
            next_ticket: Cell::new(0),
        }
    }

    /// Records an acquired resource; fails (without acquiring) when full.
    pub fn register(&self, resource: Resource) -> Result<Ticket, ()> {
        let mut entries = self.entries.borrow_mut();
        if entries.len() >= self.capacity {
            return Err(());
        }
        let ticket = Ticket(self.next_ticket.get() + 1);
        self.next_ticket.set(ticket.0);
        entries.push(Entry { ticket, resource });
        Ok(ticket)
    }

    /// Removes a resource that was released normally (by its guard).
    ///
    /// Idempotent: a second call with the same ticket is a no-op, which is
    /// what makes guard-drop and termination-cleanup compose safely.
    pub fn deregister(&self, ticket: Ticket) -> bool {
        let mut entries = self.entries.borrow_mut();
        match entries.iter().position(|e| e.ticket == ticket) {
            Some(pos) => {
                entries.remove(pos);
                true
            }
            None => false,
        }
    }

    /// Outstanding (unreleased) resources, oldest first.
    pub fn outstanding(&self) -> Vec<Resource> {
        self.entries.borrow().iter().map(|e| e.resource).collect()
    }

    /// Number of outstanding resources.
    pub fn len(&self) -> usize {
        self.entries.borrow().len()
    }

    /// Whether nothing is outstanding.
    pub fn is_empty(&self) -> bool {
        self.entries.borrow().is_empty()
    }

    /// Runs the trusted destructors for everything outstanding, newest
    /// first (LIFO, like stack unwinding — but without running any user
    /// code). Returns the released resources.
    pub fn run_destructors(
        &self,
        kernel: &Kernel,
        maps: &MapRegistry,
        exec: &ExecCtx,
    ) -> Vec<Resource> {
        let drained = self.entries.take();
        let mut released = Vec::with_capacity(drained.len());
        for entry in drained.into_iter().rev() {
            release_resource(kernel, maps, exec, entry.resource);
            released.push(entry.resource);
        }
        released
    }
}

/// The trusted destructor for one resource. Infallible by construction:
/// failures indicate simulator-level bugs and are surfaced on the audit
/// log rather than panicking mid-cleanup.
fn release_resource(kernel: &Kernel, maps: &MapRegistry, exec: &ExecCtx, resource: Resource) {
    let now = kernel.clock.now_ns();
    match resource {
        Resource::SocketRef(obj) | Resource::StackRef(obj) => {
            exec.note_released(obj);
            if kernel.refs.put(obj).is_err() {
                kernel.audit.record(
                    now,
                    EventKind::RefUnderflow,
                    format!("cleanup underflow on {obj:?}"),
                );
            }
        }
        Resource::Lock(lock) => {
            if kernel.locks.release(exec.owner(), lock).is_err() {
                kernel.audit.record(
                    now,
                    EventKind::Info,
                    format!("cleanup: lock {lock:?} already released"),
                );
            }
        }
        Resource::RingbufRecord { fd, addr } => {
            if let Some(map) = maps.get(fd) {
                // An unsubmitted record is discarded, never published.
                let _ = map.ringbuf_discard(&kernel.mem, addr);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernel_sim::refcount::ObjKind;

    #[test]
    fn register_deregister_roundtrip() {
        let reg = CleanupRegistry::default();
        let t = reg.register(Resource::SocketRef(ObjId(1))).unwrap();
        assert_eq!(reg.len(), 1);
        assert!(reg.deregister(t));
        assert!(reg.is_empty());
        // Idempotent.
        assert!(!reg.deregister(t));
    }

    #[test]
    fn capacity_is_enforced_without_allocation() {
        let reg = CleanupRegistry::with_capacity(2);
        reg.register(Resource::SocketRef(ObjId(1))).unwrap();
        reg.register(Resource::SocketRef(ObjId(2))).unwrap();
        assert!(reg.register(Resource::SocketRef(ObjId(3))).is_err());
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn destructors_run_lifo_and_release_for_real() {
        let kernel = Kernel::new();
        let maps = MapRegistry::default();
        let exec = ExecCtx::for_kernel(&kernel);
        let sock = kernel.refs.register(ObjKind::Socket, 1);
        let lock = kernel.locks.create("l");

        kernel.refs.get(sock).unwrap();
        exec.note_acquired(sock);
        kernel.locks.acquire(exec.owner(), lock).unwrap();

        let reg = CleanupRegistry::default();
        reg.register(Resource::SocketRef(sock)).unwrap();
        reg.register(Resource::Lock(lock)).unwrap();

        let released = reg.run_destructors(&kernel, &maps, &exec);
        // LIFO: the lock (registered last) is released first.
        assert_eq!(
            released,
            vec![Resource::Lock(lock), Resource::SocketRef(sock)]
        );
        assert_eq!(kernel.refs.count(sock), Some(1));
        assert!(kernel.locks.held_by(exec.owner()).is_empty());
        assert!(reg.is_empty());
    }

    #[test]
    fn ringbuf_record_discarded_on_cleanup() {
        let kernel = Kernel::new();
        let maps = MapRegistry::default();
        let exec = ExecCtx::for_kernel(&kernel);
        let fd = maps
            .create(&kernel, ebpf::maps::MapDef::ringbuf("rb", 64))
            .unwrap();
        let map = maps.get(fd).unwrap();
        let addr = map.ringbuf_reserve(&kernel.mem, 16).unwrap().unwrap();

        let reg = CleanupRegistry::default();
        reg.register(Resource::RingbufRecord { fd, addr }).unwrap();
        reg.run_destructors(&kernel, &maps, &exec);

        // Capacity was freed, nothing was published, memory unmapped.
        assert!(map.ringbuf_consume().unwrap().is_empty());
        assert!(map.ringbuf_reserve(&kernel.mem, 64).unwrap().is_some());
        assert!(kernel.mem.read_u8(addr).is_err());
    }

    #[test]
    fn deregistered_resources_are_not_double_released() {
        let kernel = Kernel::new();
        let maps = MapRegistry::default();
        let exec = ExecCtx::for_kernel(&kernel);
        let sock = kernel.refs.register(ObjKind::Socket, 1);
        kernel.refs.get(sock).unwrap();
        exec.note_acquired(sock);

        let reg = CleanupRegistry::default();
        let t = reg.register(Resource::SocketRef(sock)).unwrap();
        // Normal path: guard released it and deregistered.
        kernel.refs.put(sock).unwrap();
        exec.note_released(sock);
        reg.deregister(t);

        let released = reg.run_destructors(&kernel, &maps, &exec);
        assert!(released.is_empty());
        assert_eq!(kernel.refs.count(sock), Some(1));
    }
}
