//! Kernel objects: tasks, sockets, socket buffers.
//!
//! These are the objects the paper's example helpers traffic in:
//! `bpf_get_current_pid_tgid` reads the current [`Task`],
//! `bpf_sk_lookup_tcp` acquires a reference on a [`Socket`],
//! `bpf_get_task_stack` touches a task's stack object, and packet-path
//! programs read and write an [`SkBuff`] whose payload lives in checked
//! kernel memory.

use std::cell::RefCell;
use std::collections::HashMap;

use crate::{
    mem::{Addr, Fault, KernelMem, Perms},
    refcount::{ObjId, ObjKind, RefTable},
    table::AppendTable,
    trace::{SpanKind, TraceSlot},
};

/// Transport protocol of a socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Proto {
    /// TCP.
    Tcp,
    /// UDP.
    Udp,
}

/// An IPv4 endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SockAddr {
    /// Host-order IPv4 address.
    pub ip: u32,
    /// Port.
    pub port: u16,
}

impl SockAddr {
    /// Creates an endpoint.
    pub const fn new(ip: u32, port: u16) -> Self {
        Self { ip, port }
    }
}

/// A simulated `struct task_struct`.
#[derive(Debug, Clone)]
pub struct Task {
    /// Thread id.
    pub pid: u32,
    /// Thread-group (process) id.
    pub tgid: u32,
    /// Command name.
    pub comm: String,
    /// Refcount identity of the task itself.
    pub obj: ObjId,
    /// Refcount identity of the task's kernel stack (see
    /// `bpf_get_task_stack`'s leak bug in Table 1).
    pub stack_obj: ObjId,
}

/// A simulated `struct sock`.
#[derive(Debug, Clone)]
pub struct Socket {
    /// Transport protocol.
    pub proto: Proto,
    /// Local endpoint.
    pub src: SockAddr,
    /// Remote endpoint.
    pub dst: SockAddr,
    /// Refcount identity.
    pub obj: ObjId,
}

/// A simulated `struct sk_buff`: packet payload in checked kernel memory.
#[derive(Debug, Clone, Copy)]
pub struct SkBuff {
    /// Skb identity.
    pub id: u64,
    /// Address of the first payload byte (`data`).
    pub data: Addr,
    /// Payload length (`data_end - data`).
    pub len: u32,
}

impl SkBuff {
    /// Address one past the last payload byte (`data_end`).
    pub fn data_end(&self) -> Addr {
        self.data + self.len as u64
    }
}

#[derive(Debug, Default)]
struct ObjState {
    tasks: HashMap<u32, Task>,
    current_pid: Option<u32>,
    sockets: Vec<Socket>,
    // Ids come from `next_skb`, which only grows, and the table churns
    // once per packet run: an append table needs no hashing and no
    // tree rebalancing for this shape.
    skbs: AppendTable<SkBuff>,
    next_skb: u64,
}

/// The kernel object table.
///
/// # Examples
///
/// ```
/// use kernel_sim::{objects::{ObjectTable, Proto, SockAddr}, refcount::RefTable};
///
/// let refs = RefTable::default();
/// let objects = ObjectTable::default();
/// let task = objects.add_task(&refs, 100, 100, "nginx");
/// objects.set_current(task.pid);
/// assert_eq!(objects.current().unwrap().comm, "nginx");
/// ```
#[derive(Debug, Default)]
pub struct ObjectTable {
    state: RefCell<ObjState>,
    /// Armed at kernel boot; skb alloc/free emit [`SpanKind::SkbLife`]
    /// instants so the hook layer can observe buffer lifetimes.
    pub(crate) trace: TraceSlot,
}

impl ObjectTable {
    /// Creates a task, registering it (and its stack) with the refcount
    /// table at an initial count of 1.
    pub fn add_task(&self, refs: &RefTable, pid: u32, tgid: u32, comm: &str) -> Task {
        let task = Task {
            pid,
            tgid,
            comm: comm.to_string(),
            obj: refs.register(ObjKind::Task, 1),
            stack_obj: refs.register(ObjKind::TaskStack, 1),
        };
        self.state.borrow_mut().tasks.insert(pid, task.clone());
        task
    }

    /// Sets the current task by pid.
    pub fn set_current(&self, pid: u32) {
        self.state.borrow_mut().current_pid = Some(pid);
    }

    /// Returns the current task, if one is set.
    pub fn current(&self) -> Option<Task> {
        let st = self.state.borrow();
        st.current_pid.and_then(|pid| st.tasks.get(&pid).cloned())
    }

    /// Looks up a task by pid.
    pub fn task_by_pid(&self, pid: u32) -> Option<Task> {
        self.state.borrow().tasks.get(&pid).cloned()
    }

    /// Creates a socket registered at refcount 1.
    pub fn add_socket(
        &self,
        refs: &RefTable,
        proto: Proto,
        src: SockAddr,
        dst: SockAddr,
    ) -> Socket {
        let socket = Socket {
            proto,
            src,
            dst,
            obj: refs.register(ObjKind::Socket, 1),
        };
        self.state.borrow_mut().sockets.push(socket.clone());
        socket
    }

    /// Finds a socket by 4-tuple; does **not** touch its refcount — the
    /// helper layer decides whether to take a reference (which is exactly
    /// where the `bpf_sk_lookup` leak bug of Table 1 lives).
    pub fn lookup_socket(&self, proto: Proto, src: SockAddr, dst: SockAddr) -> Option<Socket> {
        self.state
            .borrow()
            .sockets
            .iter()
            .find(|s| s.proto == proto && s.src == src && s.dst == dst)
            .cloned()
    }

    /// Number of sockets registered.
    pub fn socket_count(&self) -> usize {
        self.state.borrow().sockets.len()
    }

    /// Allocates an skb whose payload is `payload`, backed by a fresh
    /// checked-memory region.
    pub fn create_skb(&self, mem: &KernelMem, payload: &[u8]) -> Result<SkBuff, Fault> {
        let data = if payload.is_empty() {
            mem.map("skb-data", 1, Perms::rw())?
        } else {
            mem.map_with_data("skb-data", payload, Perms::rw())?
        };
        let mut st = self.state.borrow_mut();
        st.next_skb += 1;
        let skb = SkBuff {
            id: st.next_skb,
            data,
            len: payload.len() as u32,
        };
        st.skbs.push(skb.id, skb);
        drop(st);
        // The arg is the op code (0 = alloc), not the skb id: ids are
        // per-kernel allocation order and would break shard invariance.
        if let Some(tracer) = self.trace.get() {
            tracer.instant(SpanKind::SkbLife, 0);
        }
        Ok(skb)
    }

    /// Looks up an skb by id.
    pub fn skb(&self, id: u64) -> Option<SkBuff> {
        self.state.borrow().skbs.get(id).copied()
    }

    /// Frees an skb and unmaps its payload region.
    pub fn free_skb(&self, mem: &KernelMem, id: u64) -> Result<(), Fault> {
        let skb = self
            .state
            .borrow_mut()
            .skbs
            .remove(id)
            .ok_or(Fault::Unmapped { addr: 0, len: 0 })?;
        mem.unmap(skb.data)?;
        if let Some(tracer) = self.trace.get() {
            tracer.instant(SpanKind::SkbLife, 1);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_lifecycle() {
        let refs = RefTable::default();
        let t = ObjectTable::default();
        let task = t.add_task(&refs, 7, 7, "init");
        assert_eq!(refs.count(task.obj), Some(1));
        assert_eq!(refs.count(task.stack_obj), Some(1));
        assert!(t.current().is_none());
        t.set_current(7);
        assert_eq!(t.current().unwrap().pid, 7);
        assert_eq!(t.task_by_pid(7).unwrap().comm, "init");
        assert!(t.task_by_pid(8).is_none());
    }

    #[test]
    fn socket_lookup_matches_tuple_exactly() {
        let refs = RefTable::default();
        let t = ObjectTable::default();
        let src = SockAddr::new(0x0a00_0001, 443);
        let dst = SockAddr::new(0x0a00_0002, 55555);
        t.add_socket(&refs, Proto::Tcp, src, dst);
        assert!(t.lookup_socket(Proto::Tcp, src, dst).is_some());
        assert!(t.lookup_socket(Proto::Udp, src, dst).is_none());
        assert!(t
            .lookup_socket(Proto::Tcp, src, SockAddr::new(1, 1))
            .is_none());
        assert_eq!(t.socket_count(), 1);
    }

    #[test]
    fn lookup_does_not_take_reference() {
        let refs = RefTable::default();
        let t = ObjectTable::default();
        let src = SockAddr::new(1, 1);
        let dst = SockAddr::new(2, 2);
        let sock = t.add_socket(&refs, Proto::Tcp, src, dst);
        t.lookup_socket(Proto::Tcp, src, dst).unwrap();
        assert_eq!(refs.count(sock.obj), Some(1));
    }

    #[test]
    fn skb_payload_lives_in_checked_memory() {
        let refs = RefTable::default();
        let _ = refs;
        let mem = KernelMem::new();
        let t = ObjectTable::default();
        let skb = t.create_skb(&mem, &[1, 2, 3, 4]).unwrap();
        assert_eq!(skb.len, 4);
        assert_eq!(mem.read_bytes(skb.data, 4).unwrap(), vec![1, 2, 3, 4]);
        assert_eq!(skb.data_end(), skb.data + 4);
        // Reading past data_end faults.
        assert!(mem.read_u8(skb.data_end()).is_err());
        assert_eq!(t.skb(skb.id).unwrap().len, 4);
        t.free_skb(&mem, skb.id).unwrap();
        assert!(mem.read_u8(skb.data).is_err());
        assert!(t.skb(skb.id).is_none());
    }

    #[test]
    fn freeing_a_middle_skb_leaves_its_neighbours_readable() {
        let mem = KernelMem::new();
        let t = ObjectTable::default();
        let skbs: Vec<SkBuff> = (1..=3u8)
            .map(|b| t.create_skb(&mem, &[b; 4]).unwrap())
            .collect();
        t.free_skb(&mem, skbs[1].id).unwrap();
        assert!(t.skb(skbs[1].id).is_none());
        assert!(t.free_skb(&mem, skbs[1].id).is_err());
        for (skb, b) in [(skbs[0], 1u8), (skbs[2], 3)] {
            assert_eq!(t.skb(skb.id).unwrap().data, skb.data);
            assert_eq!(mem.read_bytes(skb.data, 4).unwrap(), vec![b; 4]);
        }
    }
}
