//! The trusted "kernel crate": the interface between safe Rust extensions
//! and the kernel (§3.1).
//!
//! Extensions receive an [`ExtCtx`] and can touch the kernel **only**
//! through it. Every operation is checked (a bad packet offset is an
//! [`ExtError`], never a kernel fault), every acquired resource is RAII
//! plus registered with the cleanup registry (so even abnormal
//! termination releases it), every call charges fuel and polls the
//! watchdog. This is where the §3.2 helper surgery lives:
//!
//! * **retired** helpers have no equivalent here — plain Rust does the job
//!   (see [`crate::retired`]);
//! * **simplified** helpers become RAII guards ([`SocketGuard`],
//!   [`LockGuard`], [`RecordGuard`]) and checked accessors, killing the
//!   refcount-leak and overflow bug classes;
//! * **wrapped** helpers get sanitized, *typed* interfaces — e.g.
//!   [`SysBpfRequest`] replaces `bpf_sys_bpf`'s raw union, making the
//!   CVE-2022-2785 NULL-in-union attack inexpressible.

use std::cell::{Cell, OnceCell, RefCell};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};

use ebpf::maps::{Map, MapFd, MapKind, MapRegistry};
use kernel_sim::{
    audit::EventKind,
    exec::ExecCtx,
    locks::{LockError, LockId},
    mem::Addr,
    objects::{Proto, SkBuff, SockAddr},
    Kernel,
};

use crate::{
    cleanup::{CleanupRegistry, Resource, Ticket},
    error::ExtError,
    pool::{Pool, PoolGuard},
};

/// Poll the RCU stall detector every this many fuel charges.
const RCU_POLL_INTERVAL: u64 = 4096;
/// Maximum [`ExtCtx::frame`] nesting depth.
const MAX_STACK_DEPTH: u32 = 16;
/// Seed of each run's [`ExtCtx::prandom_u32`] sequence.
const RNG_SEED: u64 = 0x5afe_5eed;

/// Input handed to an extension run.
#[derive(Debug, Clone)]
pub enum ExtInput {
    /// Nothing.
    None,
    /// A packet.
    Packet(Vec<u8>),
    /// Kprobe register file.
    Kprobe([u64; 8]),
    /// Tracepoint record.
    Tracepoint([u64; 4]),
    /// LSM policy-hook record: `{hook, subject, attr, cookie}`.
    Lsm([u64; 4]),
    /// Sched-ext pick-next-task record: `{cpu, nr_runnable, cand0_id,
    /// cand0_vruntime, cand1_id, cand1_vruntime}`.
    Sched([u64; 6]),
}

/// Fuel/deadline accounting shared with the runtime.
#[derive(Debug)]
pub(crate) struct Meter {
    pub fuel_budget: u64,
    pub fuel_used: Cell<u64>,
    pub deadline_ns: u64,
    pub time_per_fuel_ns: u64,
    /// Set by the host watchdog thread, which borrows it for the run.
    pub terminate: AtomicBool,
    charges: Cell<u64>,
}

impl Meter {
    pub(crate) fn new(fuel_budget: u64, deadline_ns: u64, time_per_fuel_ns: u64) -> Self {
        Meter {
            fuel_budget,
            fuel_used: Cell::new(0),
            deadline_ns,
            time_per_fuel_ns,
            terminate: AtomicBool::new(false),
            charges: Cell::new(0),
        }
    }
}

/// The extension's window into the kernel.
pub struct ExtCtx<'k> {
    pub(crate) kernel: &'k Kernel,
    pub(crate) maps: &'k MapRegistry,
    pub(crate) exec: ExecCtx,
    pub(crate) cleanup: CleanupRegistry,
    pub(crate) meter: Meter,
    /// Built on the run's first [`Self::scratch`] call.
    pool: OnceCell<Pool>,
    pool_blocks: usize,
    depth: Cell<u32>,
    pub(crate) skb: Option<SkBuff>,
    kprobe: Option<[u64; 8]>,
    tracepoint: Option<[u64; 4]>,
    lsm: Option<[u64; 4]>,
    sched: Option<[u64; 6]>,
    rng: Cell<u64>,
    printk: RefCell<Vec<String>>,
}

impl<'k> ExtCtx<'k> {
    pub(crate) fn new(
        kernel: &'k Kernel,
        maps: &'k MapRegistry,
        meter: Meter,
        pool_blocks: usize,
        skb: Option<SkBuff>,
        input: &ExtInput,
    ) -> Self {
        let (kprobe, tracepoint, lsm, sched) = match input {
            ExtInput::Kprobe(regs) => (Some(*regs), None, None, None),
            ExtInput::Tracepoint(f) => (None, Some(*f), None, None),
            ExtInput::Lsm(f) => (None, None, Some(*f), None),
            ExtInput::Sched(f) => (None, None, None, Some(*f)),
            _ => (None, None, None, None),
        };
        ExtCtx {
            kernel,
            maps,
            exec: ExecCtx::for_kernel(kernel),
            cleanup: CleanupRegistry::default(),
            meter,
            pool: OnceCell::new(),
            pool_blocks,
            depth: Cell::new(0),
            skb,
            kprobe,
            tracepoint,
            lsm,
            sched,
            rng: Cell::new(RNG_SEED),
            printk: RefCell::new(Vec::new()),
        }
    }

    /// Charges `cost` fuel and polls every watchdog condition.
    ///
    /// Every kernel-crate operation funnels through here: these are the
    /// lightweight runtime mechanisms of §3.1, and (in the simulation)
    /// the preemption points standing in for a timer interrupt.
    pub fn charge(&self, cost: u64) -> Result<(), ExtError> {
        let used = self.meter.fuel_used.get() + cost;
        self.meter.fuel_used.set(used);
        self.kernel
            .clock
            .advance(cost.saturating_mul(self.meter.time_per_fuel_ns));
        let charges = self.meter.charges.get() + 1;
        self.meter.charges.set(charges);
        if charges.is_multiple_of(RCU_POLL_INTERVAL) {
            self.kernel.rcu.check_stall(&self.kernel.audit);
        }
        if self.meter.terminate.load(Ordering::Relaxed) {
            return Err(ExtError::Terminated);
        }
        if used > self.meter.fuel_budget {
            return Err(ExtError::FuelExhausted);
        }
        if self.kernel.clock.now_ns() >= self.meter.deadline_ns {
            return Err(ExtError::DeadlineExceeded);
        }
        Ok(())
    }

    /// An explicit preemption point for long computations (cost 1).
    pub fn tick(&self) -> Result<(), ExtError> {
        self.charge(1)
    }

    /// Fuel used so far.
    pub fn fuel_used(&self) -> u64 {
        self.meter.fuel_used.get()
    }

    /// Captured `printk` output.
    pub(crate) fn take_printk(&self) -> Vec<String> {
        std::mem::take(&mut self.printk.borrow_mut())
    }

    // ---- Stack-depth guard ----

    /// Runs `f` one nesting level deeper; trips the stack guard past
    /// `MAX_STACK_DEPTH` (16) levels. Recursive extension code must route
    /// recursion through this (the kernel-crate equivalent of a guard page).
    pub fn frame<R>(&self, f: impl FnOnce(&Self) -> Result<R, ExtError>) -> Result<R, ExtError> {
        let depth = self.depth.get() + 1;
        if depth > MAX_STACK_DEPTH {
            return Err(ExtError::StackGuard);
        }
        self.depth.set(depth);
        let out = f(self);
        self.depth.set(depth - 1);
        out
    }

    // ---- Expressiveness primitives (replacing retired helpers) ----

    /// Deterministic PRNG (replaces `bpf_get_prandom_u32`).
    pub fn prandom_u32(&self) -> Result<u32, ExtError> {
        self.charge(1)?;
        let mut x = self.rng.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng.set(x);
        Ok(x as u32)
    }

    /// Current virtual time in nanoseconds (replaces `bpf_ktime_get_ns`).
    pub fn ktime_ns(&self) -> Result<u64, ExtError> {
        self.charge(1)?;
        Ok(self.kernel.clock.now_ns())
    }

    /// Current CPU (replaces `bpf_get_smp_processor_id`).
    pub fn smp_processor_id(&self) -> Result<usize, ExtError> {
        self.charge(1)?;
        Ok(self.kernel.cpus.current_cpu())
    }

    /// Trace output (replaces `bpf_trace_printk`); plain Rust formatting,
    /// no format-string parsing in the kernel.
    pub fn printk(&self, msg: impl Into<String>) -> Result<(), ExtError> {
        self.charge(2)?;
        self.printk.borrow_mut().push(msg.into());
        Ok(())
    }

    // ---- Task interface ----

    /// The current task, as a non-nullable reference type.
    pub fn current_task(&self) -> Result<TaskRef, ExtError> {
        self.charge(1)?;
        let task = self.kernel.objects.current().ok_or(ExtError::NotFound)?;
        Ok(TaskRef {
            pid: task.pid,
            tgid: task.tgid,
            comm: task.comm,
            stack_obj: task.stack_obj,
        })
    }

    /// Packed `tgid << 32 | pid` (replaces `bpf_get_current_pid_tgid`).
    pub fn pid_tgid(&self) -> Result<u64, ExtError> {
        let task = self.current_task()?;
        Ok(((task.tgid as u64) << 32) | task.pid as u64)
    }

    /// Copies the (synthetic) kernel stack of `task` into `buf`, returning
    /// the number of frames written.
    ///
    /// The reference on the task stack is held RAII-style for exactly the
    /// duration of the copy — the `bpf_get_task_stack` leak bug cannot
    /// happen here because the release is in the same scope by
    /// construction, backed by the cleanup registry for abnormal exits.
    pub fn task_stack(&self, task: &TaskRef, buf: &mut [u64]) -> Result<usize, ExtError> {
        self.charge(4 + buf.len() as u64)?;
        let ticket = self
            .cleanup
            .register(Resource::StackRef(task.stack_obj))
            .map_err(|_| ExtError::CleanupOverflow)?;
        if self.kernel.refs.get(task.stack_obj).is_err() {
            // No reference was taken (e.g. injected saturation pressure):
            // the ticket must not survive, or cleanup would put a count
            // this call never got.
            self.cleanup.deregister(ticket);
            return Err(ExtError::NotFound);
        }
        self.exec.note_acquired(task.stack_obj);
        for (i, slot) in buf.iter_mut().enumerate() {
            *slot = 0xffff_8000_0000_0000 | ((i as u64) << 4);
        }
        // RAII release: same scope, trusted code.
        self.cleanup.deregister(ticket);
        self.exec.note_released(task.stack_obj);
        self.kernel
            .refs
            .put(task.stack_obj)
            .expect("stack ref was taken above");
        Ok(buf.len())
    }

    /// Per-task storage cell for `task` (replaces `bpf_task_storage_get`).
    ///
    /// The owner argument is `&TaskRef` — a reference type that the Rust
    /// compiler guarantees refers to a valid task, which is precisely the
    /// fix §3.2 describes for the NULL-owner helper bug.
    pub fn task_storage(&self, fd: MapFd, task: &TaskRef) -> Result<StorageCell<'_, 'k>, ExtError> {
        self.charge(4)?;
        // Task storage is backed by a hash map keyed on the pid, so it
        // persists across runs like the kernel's local-storage maps.
        let map = self
            .maps
            .get(fd)
            .ok_or(ExtError::Map(ebpf::maps::MapError::NotFound))?;
        if !matches!(map.def.kind, MapKind::Hash | MapKind::LruHash) || map.def.key_size != 4 {
            return Err(ExtError::Map(ebpf::maps::MapError::WrongKind));
        }
        let key = task.pid.to_le_bytes();
        let cpu = self.kernel.cpus.current_cpu();
        let addr = match map.lookup(&key, cpu).map_err(ExtError::Map)? {
            Some(addr) => addr,
            None => {
                let zero = vec![0u8; map.def.value_size as usize];
                map.update(&self.kernel.mem, &key, &zero, cpu)
                    .map_err(ExtError::Map)?;
                map.lookup(&key, cpu)
                    .map_err(ExtError::Map)?
                    .expect("just inserted")
            }
        };
        Ok(StorageCell { ctx: self, addr })
    }

    // ---- Packet interface ----

    /// A checked view of the current packet.
    pub fn packet(&self) -> Result<PacketView<'_, 'k>, ExtError> {
        self.charge(1)?;
        let skb = self.skb.ok_or(ExtError::NoPacket)?;
        Ok(PacketView { ctx: self, skb })
    }

    /// Kprobe argument register `i`.
    pub fn kprobe_arg(&self, i: usize) -> Result<u64, ExtError> {
        self.charge(1)?;
        self.kprobe
            .as_ref()
            .and_then(|regs| regs.get(i).copied())
            .ok_or(ExtError::Invalid("no such kprobe argument"))
    }

    /// Tracepoint field `i`.
    pub fn tracepoint_field(&self, i: usize) -> Result<u64, ExtError> {
        self.charge(1)?;
        self.tracepoint
            .as_ref()
            .and_then(|f| f.get(i).copied())
            .ok_or(ExtError::Invalid("no such tracepoint field"))
    }

    /// LSM policy-hook field `i` (`{hook, subject, attr, cookie}`).
    pub fn lsm_field(&self, i: usize) -> Result<u64, ExtError> {
        self.charge(1)?;
        self.lsm
            .as_ref()
            .and_then(|f| f.get(i).copied())
            .ok_or(ExtError::Invalid("no such lsm field"))
    }

    /// Sched pick-next-task field `i` (`{cpu, nr_runnable, cand0_id,
    /// cand0_vruntime, cand1_id, cand1_vruntime}`).
    pub fn sched_field(&self, i: usize) -> Result<u64, ExtError> {
        self.charge(1)?;
        self.sched
            .as_ref()
            .and_then(|f| f.get(i).copied())
            .ok_or(ExtError::Invalid("no such sched field"))
    }

    // ---- Hook-layer histograms ----

    /// Records `value` into the hook layer's per-CPU log2 histogram bank
    /// `slot` (masked into range); returns the bucket index — a pure
    /// function of `value`, mirroring the eBPF `bpf_hist_record` helper.
    pub fn hist_record(&self, slot: u64, value: u64) -> Result<u64, ExtError> {
        self.charge(2)?;
        let cpu = self.kernel.cpus.current_cpu();
        let slot = (slot as usize) % kernel_sim::hooks::HIST_SLOTS;
        Ok(self.kernel.hooks.record(cpu, slot, value))
    }

    /// The current CPU's count in `bucket` of histogram bank `slot`;
    /// shard-local, mirroring the eBPF `bpf_hist_read` helper.
    pub fn hist_read(&self, slot: u64, bucket: u64) -> Result<u64, ExtError> {
        self.charge(2)?;
        if bucket as usize >= kernel_sim::metrics::HIST_BUCKETS {
            return Err(ExtError::Invalid("histogram bucket out of range"));
        }
        let cpu = self.kernel.cpus.current_cpu();
        let slot = (slot as usize) % kernel_sim::hooks::HIST_SLOTS;
        Ok(self.kernel.hooks.read(cpu, slot, bucket as usize))
    }

    // ---- Maps ----

    fn map(&self, fd: MapFd, kind: MapKind) -> Result<Rc<Map>, ExtError> {
        let map = self
            .maps
            .get(fd)
            .ok_or(ExtError::Map(ebpf::maps::MapError::NotFound))?;
        if map.def.kind != kind {
            return Err(ExtError::Map(ebpf::maps::MapError::WrongKind));
        }
        Ok(map)
    }

    /// A checked handle onto an array map.
    pub fn array(&self, fd: MapFd) -> Result<ArrayHandle<'_, 'k>, ExtError> {
        self.charge(1)?;
        Ok(ArrayHandle {
            ctx: self,
            map: self.map(fd, MapKind::Array)?,
        })
    }

    /// A checked handle onto a per-CPU array map.
    pub fn percpu_array(&self, fd: MapFd) -> Result<ArrayHandle<'_, 'k>, ExtError> {
        self.charge(1)?;
        Ok(ArrayHandle {
            ctx: self,
            map: self.map(fd, MapKind::PerCpuArray)?,
        })
    }

    /// A checked handle onto a hash map.
    pub fn hash(&self, fd: MapFd) -> Result<HashHandle<'_, 'k>, ExtError> {
        self.charge(1)?;
        let map = self
            .maps
            .get(fd)
            .ok_or(ExtError::Map(ebpf::maps::MapError::NotFound))?;
        if !matches!(map.def.kind, MapKind::Hash | MapKind::LruHash) {
            return Err(ExtError::Map(ebpf::maps::MapError::WrongKind));
        }
        Ok(HashHandle { ctx: self, map })
    }

    /// A checked handle onto a ring buffer.
    pub fn ringbuf(&self, fd: MapFd) -> Result<RingbufHandle<'_, 'k>, ExtError> {
        self.charge(1)?;
        Ok(RingbufHandle {
            ctx: self,
            fd,
            map: self.map(fd, MapKind::RingBuf)?,
        })
    }

    // ---- Sockets ----

    /// Looks up an established TCP socket; the returned guard holds a
    /// reference released on drop (and by the cleanup registry on any
    /// abnormal exit) — the RAII pattern of §3.1 (replaces
    /// `bpf_sk_lookup_tcp` + `bpf_sk_release`).
    pub fn lookup_tcp(
        &self,
        src: SockAddr,
        dst: SockAddr,
    ) -> Result<Option<SocketGuard<'_, 'k>>, ExtError> {
        self.lookup_socket(Proto::Tcp, src, dst)
    }

    /// UDP variant of [`ExtCtx::lookup_tcp`].
    pub fn lookup_udp(
        &self,
        src: SockAddr,
        dst: SockAddr,
    ) -> Result<Option<SocketGuard<'_, 'k>>, ExtError> {
        self.lookup_socket(Proto::Udp, src, dst)
    }

    fn lookup_socket(
        &self,
        proto: Proto,
        src: SockAddr,
        dst: SockAddr,
    ) -> Result<Option<SocketGuard<'_, 'k>>, ExtError> {
        self.charge(16)?;
        let sock = match self.kernel.objects.lookup_socket(proto, src, dst) {
            Some(s) => s,
            None => return Ok(None),
        };
        let ticket = self
            .cleanup
            .register(Resource::SocketRef(sock.obj))
            .map_err(|_| ExtError::CleanupOverflow)?;
        if self.kernel.refs.get(sock.obj).is_err() {
            // Saturation pressure refused the reference: degrade to a
            // lookup miss, holding nothing.
            self.cleanup.deregister(ticket);
            return Ok(None);
        }
        self.exec.note_acquired(sock.obj);
        Ok(Some(SocketGuard {
            ctx: self,
            proto,
            src: sock.src,
            dst: sock.dst,
            obj: sock.obj,
            ticket,
            released: Cell::new(false),
        }))
    }

    // ---- Locks ----

    /// Acquires the spin lock embedded in `array_fd[index]`; returns a
    /// guard that releases on drop. A second acquisition attempt while
    /// held fails with an error instead of deadlocking the CPU.
    pub fn lock_map_value(
        &self,
        array_fd: MapFd,
        index: u32,
    ) -> Result<LockGuard<'_, 'k>, ExtError> {
        self.charge(4)?;
        let map = self.map(array_fd, MapKind::Array)?;
        let addr =
            map.elem_addr(index, self.kernel.cpus.current_cpu())
                .ok_or(ExtError::OutOfBounds {
                    offset: index as u64,
                    len: 1,
                    size: map.def.max_entries as u64,
                })?;
        // Identity shared with the baseline: the cell's kernel address.
        let lock = self
            .kernel
            .locks
            .lock_for_key(addr, &format!("bpf_spin_lock@{addr:#x}"));
        let ticket = self
            .cleanup
            .register(Resource::Lock(lock))
            .map_err(|_| ExtError::CleanupOverflow)?;
        match self.kernel.locks.acquire(self.exec.owner(), lock) {
            Ok(()) => Ok(LockGuard {
                ctx: self,
                lock,
                ticket,
                released: Cell::new(false),
            }),
            Err(LockError::SelfDeadlock(_)) => {
                self.cleanup.deregister(ticket);
                // The runtime refuses instead of spinning forever: the
                // deadlock becomes a recoverable error.
                self.kernel.audit.record(
                    self.kernel.clock.now_ns(),
                    EventKind::WrapperRejected,
                    "safe-ext: second lock acquisition refused (would deadlock)",
                );
                Err(ExtError::Invalid("lock already held (would deadlock)"))
            }
            Err(_) => {
                self.cleanup.deregister(ticket);
                Err(ExtError::Invalid("lock unavailable"))
            }
        }
    }

    // ---- Sanitized wrappers ----

    /// The sanitized `bpf_sys_bpf` replacement: a typed request instead of
    /// a raw union. There is no pointer field for an attacker to smuggle
    /// NULL through — the §2.2 exploit is inexpressible (§3.2).
    pub fn sys_bpf(&self, request: SysBpfRequest) -> Result<u64, ExtError> {
        self.charge(64)?;
        match request {
            SysBpfRequest::CreateArrayMap {
                value_size,
                max_entries,
            } => {
                if value_size == 0 || max_entries == 0 {
                    self.kernel.audit.record(
                        self.kernel.clock.now_ns(),
                        EventKind::WrapperRejected,
                        "safe-ext: sys_bpf rejected zero-sized map",
                    );
                    return Err(ExtError::Invalid("zero-sized map"));
                }
                let def = ebpf::maps::MapDef::array("sys_bpf-safe", value_size, max_entries);
                let fd = self.maps.create(self.kernel, def).map_err(ExtError::Map)?;
                Ok(fd as u64)
            }
            SysBpfRequest::MapCount => Ok(self.maps.len() as u64),
        }
    }

    /// Scratch allocation from the pre-allocated pool (§4: dynamic memory
    /// without a sleeping allocator). The run's first call builds its
    /// pool, fresh and full; a run that never asks never pays for one.
    pub fn scratch(&self, len: usize) -> Result<PoolGuard<'_>, ExtError> {
        self.charge(2)?;
        self.pool
            .get_or_init(|| Pool::new(self.pool_blocks))
            .alloc_guard(len)
            .ok_or(ExtError::PoolExhausted)
    }
}

/// A non-nullable task reference (§3.2: "the Rust compiler will ensure the
/// program always has to borrow the reference from a valid object").
#[derive(Debug, Clone)]
pub struct TaskRef {
    /// Thread id.
    pub pid: u32,
    /// Process id.
    pub tgid: u32,
    /// Command name.
    pub comm: String,
    pub(crate) stack_obj: kernel_sim::refcount::ObjId,
}

/// A typed request for the sanitized `sys_bpf` wrapper — deliberately
/// *not* a union.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SysBpfRequest {
    /// Create an array map.
    CreateArrayMap {
        /// Value size in bytes.
        value_size: u32,
        /// Number of elements.
        max_entries: u32,
    },
    /// Count live maps.
    MapCount,
}

/// Bounds-checked packet accessor.
pub struct PacketView<'a, 'k> {
    ctx: &'a ExtCtx<'k>,
    skb: SkBuff,
}

impl PacketView<'_, '_> {
    /// Packet length in bytes.
    pub fn len(&self) -> u32 {
        self.skb.len
    }

    /// Whether the packet is empty.
    pub fn is_empty(&self) -> bool {
        self.skb.len == 0
    }

    fn check(&self, off: u64, len: u64) -> Result<Addr, ExtError> {
        self.ctx.charge(1)?;
        if off + len > self.skb.len as u64 {
            // A checked failure — not a kernel fault.
            return Err(ExtError::OutOfBounds {
                offset: off,
                len,
                size: self.skb.len as u64,
            });
        }
        Ok(self.skb.data + off)
    }

    /// Reads one byte at `off`.
    pub fn load_u8(&self, off: u64) -> Result<u8, ExtError> {
        let addr = self.check(off, 1)?;
        Ok(self.ctx.kernel.mem.read_u8(addr).expect("bounds checked"))
    }

    /// Reads a little-endian u16 at `off`.
    pub fn load_u16(&self, off: u64) -> Result<u16, ExtError> {
        let addr = self.check(off, 2)?;
        Ok(self.ctx.kernel.mem.read_u16(addr).expect("bounds checked"))
    }

    /// Reads a little-endian u32 at `off`.
    pub fn load_u32(&self, off: u64) -> Result<u32, ExtError> {
        let addr = self.check(off, 4)?;
        Ok(self.ctx.kernel.mem.read_u32(addr).expect("bounds checked"))
    }

    /// Reads a big-endian u16 at `off` (network order).
    pub fn load_be16(&self, off: u64) -> Result<u16, ExtError> {
        Ok(self.load_u16(off)?.swap_bytes())
    }

    /// Copies `buf.len()` bytes from `off` into `buf`.
    pub fn load_bytes(&self, off: u64, buf: &mut [u8]) -> Result<(), ExtError> {
        let addr = self.check(off, buf.len() as u64)?;
        self.ctx
            .kernel
            .mem
            .read_into(addr, buf)
            .expect("bounds checked");
        Ok(())
    }

    /// Writes one byte at `off`.
    pub fn store_u8(&self, off: u64, v: u8) -> Result<(), ExtError> {
        let addr = self.check(off, 1)?;
        self.ctx
            .kernel
            .mem
            .write_u8(addr, v)
            .expect("bounds checked");
        Ok(())
    }

    /// Writes `data` at `off`.
    pub fn store_bytes(&self, off: u64, data: &[u8]) -> Result<(), ExtError> {
        let addr = self.check(off, data.len() as u64)?;
        self.ctx
            .kernel
            .mem
            .write_from(addr, data)
            .expect("bounds checked");
        Ok(())
    }
}

/// Checked array-map handle.
pub struct ArrayHandle<'a, 'k> {
    ctx: &'a ExtCtx<'k>,
    map: Rc<Map>,
}

impl ArrayHandle<'_, '_> {
    /// Number of elements.
    pub fn len(&self) -> u32 {
        self.map.def.max_entries
    }

    /// Whether the map has no elements (never, post-creation).
    pub fn is_empty(&self) -> bool {
        self.map.def.max_entries == 0
    }

    fn addr(&self, index: u32, off: u64, len: u64) -> Result<Addr, ExtError> {
        self.ctx.charge(2)?;
        let cpu = self.ctx.kernel.cpus.current_cpu();
        // The checked-arithmetic boundary of §3.2: index validation and
        // offset computation happen in safe Rust *before* touching kernel
        // memory, so the 32-bit-overflow bug class cannot reach it.
        let base = self
            .map
            .elem_addr(index, cpu)
            .ok_or(ExtError::OutOfBounds {
                offset: index as u64,
                len: 1,
                size: self.map.def.max_entries as u64,
            })?;
        if off + len > self.map.def.value_size as u64 {
            return Err(ExtError::OutOfBounds {
                offset: off,
                len,
                size: self.map.def.value_size as u64,
            });
        }
        Ok(base + off)
    }

    /// Reads a u64 at byte offset `off` of element `index`.
    pub fn get_u64(&self, index: u32, off: u64) -> Result<u64, ExtError> {
        let addr = self.addr(index, off, 8)?;
        Ok(self.ctx.kernel.mem.read_u64(addr).expect("bounds checked"))
    }

    /// Writes a u64 at byte offset `off` of element `index`.
    pub fn set_u64(&self, index: u32, off: u64, v: u64) -> Result<(), ExtError> {
        let addr = self.addr(index, off, 8)?;
        self.ctx
            .kernel
            .mem
            .write_u64(addr, v)
            .expect("bounds checked");
        Ok(())
    }

    /// Adds `delta` to the u64 at offset `off` of element `index`,
    /// returning the new value.
    pub fn fetch_add_u64(&self, index: u32, off: u64, delta: u64) -> Result<u64, ExtError> {
        let addr = self.addr(index, off, 8)?;
        let old = self
            .ctx
            .kernel
            .mem
            .fetch_update(addr, 8, |v| v.wrapping_add(delta))
            .expect("bounds checked");
        Ok(old.wrapping_add(delta))
    }

    /// Copies element `index` into `buf` (which must be value-sized).
    pub fn read(&self, index: u32, buf: &mut [u8]) -> Result<(), ExtError> {
        if buf.len() != self.map.def.value_size as usize {
            return Err(ExtError::Invalid("buffer size != value size"));
        }
        let addr = self.addr(index, 0, buf.len() as u64)?;
        self.ctx
            .kernel
            .mem
            .read_into(addr, buf)
            .expect("bounds checked");
        Ok(())
    }

    /// Overwrites element `index` from `data` (which must be value-sized).
    pub fn write(&self, index: u32, data: &[u8]) -> Result<(), ExtError> {
        if data.len() != self.map.def.value_size as usize {
            return Err(ExtError::Invalid("buffer size != value size"));
        }
        let addr = self.addr(index, 0, data.len() as u64)?;
        self.ctx
            .kernel
            .mem
            .write_from(addr, data)
            .expect("bounds checked");
        Ok(())
    }
}

/// Checked hash-map handle.
pub struct HashHandle<'a, 'k> {
    ctx: &'a ExtCtx<'k>,
    map: Rc<Map>,
}

impl HashHandle<'_, '_> {
    /// Looks up `key`, returning the value bytes.
    pub fn lookup(&self, key: &[u8]) -> Result<Option<Vec<u8>>, ExtError> {
        self.ctx.charge(8)?;
        let cpu = self.ctx.kernel.cpus.current_cpu();
        match self.map.lookup(key, cpu)? {
            Some(addr) => {
                let bytes = self
                    .ctx
                    .kernel
                    .mem
                    .read_bytes(addr, self.map.def.value_size as u64)
                    .expect("map entry is mapped");
                Ok(Some(bytes))
            }
            None => Ok(None),
        }
    }

    /// Inserts or updates `key -> value`.
    pub fn insert(&self, key: &[u8], value: &[u8]) -> Result<(), ExtError> {
        self.ctx.charge(12)?;
        let cpu = self.ctx.kernel.cpus.current_cpu();
        self.map.update(&self.ctx.kernel.mem, key, value, cpu)?;
        Ok(())
    }

    /// Removes `key`; `Ok(false)` when absent.
    pub fn remove(&self, key: &[u8]) -> Result<bool, ExtError> {
        self.ctx.charge(10)?;
        match self.map.delete(&self.ctx.kernel.mem, key) {
            Ok(()) => Ok(true),
            Err(ebpf::maps::MapError::NotFound) => Ok(false),
            Err(e) => Err(e.into()),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates over a snapshot of the entries — the retirement of
    /// `bpf_for_each_map_elem` (§3.2): a native closure instead of a
    /// helper taking a verified callback. Returning `false` stops early;
    /// the iteration count is returned. Each visit charges fuel, so the
    /// watchdog still covers huge maps.
    pub fn for_each(
        &self,
        mut f: impl FnMut(&[u8], &[u8]) -> Result<bool, ExtError>,
    ) -> Result<u64, ExtError> {
        self.ctx.charge(4)?;
        let keys = self.map.keys().map_err(ExtError::Map)?;
        let mut visited = 0;
        for key in keys {
            self.ctx.charge(4)?;
            // The entry may have been removed by the closure itself.
            let value = match self.lookup(&key)? {
                Some(v) => v,
                None => continue,
            };
            visited += 1;
            if !f(&key, &value)? {
                break;
            }
        }
        Ok(visited)
    }
}

/// Checked ring-buffer handle.
pub struct RingbufHandle<'a, 'k> {
    ctx: &'a ExtCtx<'k>,
    fd: MapFd,
    map: Rc<Map>,
}

impl<'a, 'k> RingbufHandle<'a, 'k> {
    /// One-shot publish.
    pub fn output(&self, data: &[u8]) -> Result<(), ExtError> {
        self.ctx.charge(8 + data.len() as u64 / 8)?;
        self.map.ringbuf_output(data)?;
        Ok(())
    }

    /// Reserves `size` bytes; the guard publishes on [`RecordGuard::submit`]
    /// and *discards* on drop — an unsubmitted record can never leak or be
    /// published half-written.
    pub fn reserve(&self, size: u32) -> Result<Option<RecordGuard<'a, 'k>>, ExtError> {
        self.ctx.charge(8)?;
        let addr = match self.map.ringbuf_reserve(&self.ctx.kernel.mem, size)? {
            Some(addr) => addr,
            None => return Ok(None),
        };
        let ticket = match self
            .ctx
            .cleanup
            .register(Resource::RingbufRecord { fd: self.fd, addr })
        {
            Ok(t) => t,
            Err(()) => {
                let _ = self.map.ringbuf_discard(&self.ctx.kernel.mem, addr);
                return Err(ExtError::CleanupOverflow);
            }
        };
        Ok(Some(RecordGuard {
            ctx: self.ctx,
            map: self.map.clone(),
            addr,
            size,
            ticket,
            done: Cell::new(false),
        }))
    }
}

/// RAII socket reference (the §3.1 RAII pattern in the flesh).
pub struct SocketGuard<'a, 'k> {
    ctx: &'a ExtCtx<'k>,
    proto: Proto,
    src: SockAddr,
    dst: SockAddr,
    obj: kernel_sim::refcount::ObjId,
    ticket: Ticket,
    released: Cell<bool>,
}

impl SocketGuard<'_, '_> {
    /// Protocol.
    pub fn proto(&self) -> Proto {
        self.proto
    }

    /// Local endpoint.
    pub fn src(&self) -> SockAddr {
        self.src
    }

    /// Remote endpoint.
    pub fn dst(&self) -> SockAddr {
        self.dst
    }
}

impl Drop for SocketGuard<'_, '_> {
    fn drop(&mut self) {
        if self.released.replace(true) {
            return;
        }
        // Deregister first: if the registry already drained (termination
        // cleanup), the reference was released there and we must not
        // double-put.
        if self.ctx.cleanup.deregister(self.ticket) {
            self.ctx.exec.note_released(self.obj);
            let _ = self.ctx.kernel.refs.put(self.obj);
        }
    }
}

/// RAII spin-lock guard.
pub struct LockGuard<'a, 'k> {
    ctx: &'a ExtCtx<'k>,
    lock: LockId,
    ticket: Ticket,
    released: Cell<bool>,
}

impl LockGuard<'_, '_> {
    /// The underlying lock id (for tests).
    pub fn lock_id(&self) -> LockId {
        self.lock
    }
}

impl Drop for LockGuard<'_, '_> {
    fn drop(&mut self) {
        if self.released.replace(true) {
            return;
        }
        if self.ctx.cleanup.deregister(self.ticket) {
            let _ = self
                .ctx
                .kernel
                .locks
                .release(self.ctx.exec.owner(), self.lock);
        }
    }
}

/// RAII ring-buffer record: submit to publish, drop to discard.
pub struct RecordGuard<'a, 'k> {
    ctx: &'a ExtCtx<'k>,
    map: Rc<Map>,
    addr: Addr,
    size: u32,
    ticket: Ticket,
    done: Cell<bool>,
}

impl RecordGuard<'_, '_> {
    /// Record size in bytes.
    pub fn len(&self) -> u32 {
        self.size
    }

    /// Whether the record is zero-sized (never, post-reserve).
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// Writes `data` at `off` within the record.
    pub fn write(&self, off: u64, data: &[u8]) -> Result<(), ExtError> {
        self.ctx.charge(1)?;
        if off + data.len() as u64 > self.size as u64 {
            return Err(ExtError::OutOfBounds {
                offset: off,
                len: data.len() as u64,
                size: self.size as u64,
            });
        }
        self.ctx
            .kernel
            .mem
            .write_from(self.addr + off, data)
            .expect("bounds checked");
        Ok(())
    }

    /// Publishes the record.
    pub fn submit(self) -> Result<(), ExtError> {
        self.ctx.charge(4)?;
        self.done.set(true);
        if self.ctx.cleanup.deregister(self.ticket) {
            self.map
                .ringbuf_submit(&self.ctx.kernel.mem, self.addr)
                .map_err(ExtError::Map)?;
        }
        Ok(())
    }

    /// Explicitly discards the record without publishing it (the
    /// `bpf_ringbuf_discard` analogue). Dropping the guard does the same
    /// implicitly — either way the reservation ends exactly once, which
    /// is the whole lifetime discipline the eBPF verifier has to prove
    /// path-by-path and the borrow checker gets for free.
    pub fn discard(self) -> Result<(), ExtError> {
        self.ctx.charge(2)?;
        self.done.set(true);
        if self.ctx.cleanup.deregister(self.ticket) {
            self.map
                .ringbuf_discard(&self.ctx.kernel.mem, self.addr)
                .map_err(ExtError::Map)?;
        }
        Ok(())
    }
}

impl Drop for RecordGuard<'_, '_> {
    fn drop(&mut self) {
        if self.done.replace(true) {
            return;
        }
        if self.ctx.cleanup.deregister(self.ticket) {
            let _ = self.map.ringbuf_discard(&self.ctx.kernel.mem, self.addr);
        }
    }
}

/// Checked per-task storage cell.
pub struct StorageCell<'a, 'k> {
    ctx: &'a ExtCtx<'k>,
    addr: Addr,
}

impl StorageCell<'_, '_> {
    /// Reads the cell.
    pub fn get(&self) -> Result<u64, ExtError> {
        self.ctx.charge(1)?;
        Ok(self
            .ctx
            .kernel
            .mem
            .read_u64(self.addr)
            .expect("cell is mapped"))
    }

    /// Writes the cell.
    pub fn set(&self, v: u64) -> Result<(), ExtError> {
        self.ctx.charge(1)?;
        self.ctx
            .kernel
            .mem
            .write_u64(self.addr, v)
            .expect("cell is mapped");
        Ok(())
    }
}
