//! eBPF maps.
//!
//! Maps are the shared-state mechanism of the baseline framework. Value
//! storage lives in checked kernel memory ([`kernel_sim::mem::KernelMem`]),
//! so a map lookup hands the program a *real simulated kernel pointer* —
//! which is exactly the surface the verifier's pointer tracking exists to
//! police, and the surface the injected CVE replicas abuse.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use kernel_sim::{
    mem::{Addr, Fault, KernelMem, Perms},
    Kernel,
};

/// Map kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MapKind {
    /// Fixed-size array indexed by `u32`.
    Array,
    /// Per-CPU array: one value per (index, cpu).
    PerCpuArray,
    /// Hash map with arbitrary fixed-size keys.
    Hash,
    /// Hash map that evicts the least-recently-updated entry when full.
    LruHash,
    /// Program array for tail calls.
    ProgArray,
    /// Byte ring buffer with reserve/submit semantics.
    RingBuf,
}

/// Map definition: the shape a map is created with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapDef {
    /// Kind.
    pub kind: MapKind,
    /// Key size in bytes (4 for arrays; record alignment for ring buffers).
    pub key_size: u32,
    /// Value size in bytes.
    pub value_size: u32,
    /// Maximum entries (capacity in bytes for ring buffers).
    pub max_entries: u32,
    /// Display name.
    pub name: String,
}

impl MapDef {
    /// An array map of `max_entries` values of `value_size` bytes.
    pub fn array(name: &str, value_size: u32, max_entries: u32) -> Self {
        Self {
            kind: MapKind::Array,
            key_size: 4,
            value_size,
            max_entries,
            name: name.to_string(),
        }
    }

    /// A per-CPU array map.
    pub fn percpu_array(name: &str, value_size: u32, max_entries: u32) -> Self {
        Self {
            kind: MapKind::PerCpuArray,
            ..Self::array(name, value_size, max_entries)
        }
    }

    /// A hash map.
    pub fn hash(name: &str, key_size: u32, value_size: u32, max_entries: u32) -> Self {
        Self {
            kind: MapKind::Hash,
            key_size,
            value_size,
            max_entries,
            name: name.to_string(),
        }
    }

    /// An LRU hash map.
    pub fn lru_hash(name: &str, key_size: u32, value_size: u32, max_entries: u32) -> Self {
        Self {
            kind: MapKind::LruHash,
            ..Self::hash(name, key_size, value_size, max_entries)
        }
    }

    /// A program array for tail calls.
    pub fn prog_array(name: &str, max_entries: u32) -> Self {
        Self {
            kind: MapKind::ProgArray,
            key_size: 4,
            value_size: 4,
            max_entries,
            name: name.to_string(),
        }
    }

    /// A ring buffer of `capacity` bytes.
    ///
    /// As in the kernel, `capacity` must be a power of two: the producer
    /// offset is masked, not range-checked, so any other size corrupts the
    /// accounting on wraparound. `MapRegistry::create` rejects other sizes
    /// with [`MapError::BadDef`].
    pub fn ringbuf(name: &str, capacity: u32) -> Self {
        Self {
            kind: MapKind::RingBuf,
            key_size: 0,
            value_size: 0,
            max_entries: capacity,
            name: name.to_string(),
        }
    }
}

/// Errors from map operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapError {
    /// Key length does not match `key_size`.
    BadKeySize,
    /// Value length does not match `value_size`.
    BadValueSize,
    /// Array index or prog-array slot out of range.
    IndexOutOfRange,
    /// Map is full.
    NoSpace,
    /// Key not present.
    NotFound,
    /// Operation not supported for this map kind.
    WrongKind,
    /// Invalid definition at creation time.
    BadDef,
    /// Underlying memory fault.
    Fault(Fault),
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapError::BadKeySize => write!(f, "bad key size"),
            MapError::BadValueSize => write!(f, "bad value size"),
            MapError::IndexOutOfRange => write!(f, "index out of range"),
            MapError::NoSpace => write!(f, "map full"),
            MapError::NotFound => write!(f, "key not found"),
            MapError::WrongKind => write!(f, "operation unsupported for map kind"),
            MapError::BadDef => write!(f, "invalid map definition"),
            MapError::Fault(fault) => write!(f, "memory fault: {fault}"),
        }
    }
}

impl std::error::Error for MapError {}

impl From<Fault> for MapError {
    fn from(f: Fault) -> Self {
        MapError::Fault(f)
    }
}

#[derive(Debug)]
enum MapInner {
    Array {
        base: Addr,
    },
    PerCpu {
        base: Addr,
        nr_cpus: usize,
    },
    Hash {
        entries: HashMap<Vec<u8>, Addr>,
        /// Present for LRU maps: update order, oldest first.
        lru: Option<VecDeque<Vec<u8>>>,
    },
    Prog {
        slots: Vec<Option<u32>>,
    },
    Ring {
        used: u32,
        /// Outstanding reservations: record address -> size.
        reserved: HashMap<Addr, u32>,
        committed: VecDeque<Vec<u8>>,
    },
}

/// A map instance.
#[derive(Debug)]
pub struct Map {
    /// The definition the map was created with.
    pub def: MapDef,
    /// The memory accounting domain the map's storage is charged to
    /// (0 = unaccounted). Per-entry allocations made after creation
    /// (hash entries, ring records) are charged to the same domain, so
    /// a tenant's byte quota covers growth at runtime, not just the
    /// create-time footprint.
    domain: u32,
    inner: RefCell<MapInner>,
}

impl Map {
    fn create(kernel: &Kernel, def: MapDef, domain: u32) -> Result<Self, MapError> {
        let inner = match def.kind {
            MapKind::Array => {
                if def.key_size != 4 || def.value_size == 0 || def.max_entries == 0 {
                    return Err(MapError::BadDef);
                }
                let base = kernel.mem.map_in_domain(
                    format_args!("map:{}", def.name),
                    def.value_size as u64 * def.max_entries as u64,
                    Perms::rw(),
                    domain,
                )?;
                MapInner::Array { base }
            }
            MapKind::PerCpuArray => {
                if def.key_size != 4 || def.value_size == 0 || def.max_entries == 0 {
                    return Err(MapError::BadDef);
                }
                let nr_cpus = kernel.cpus.nr_cpus();
                let base = kernel.mem.map_in_domain(
                    format_args!("map:{}", def.name),
                    def.value_size as u64 * def.max_entries as u64 * nr_cpus as u64,
                    Perms::rw(),
                    domain,
                )?;
                MapInner::PerCpu { base, nr_cpus }
            }
            MapKind::Hash | MapKind::LruHash => {
                if def.key_size == 0 || def.value_size == 0 || def.max_entries == 0 {
                    return Err(MapError::BadDef);
                }
                MapInner::Hash {
                    entries: HashMap::new(),
                    lru: (def.kind == MapKind::LruHash).then(VecDeque::new),
                }
            }
            MapKind::ProgArray => {
                if def.max_entries == 0 {
                    return Err(MapError::BadDef);
                }
                MapInner::Prog {
                    slots: vec![None; def.max_entries as usize],
                }
            }
            MapKind::RingBuf => {
                // Kernel ring buffers require a power-of-two size: the
                // producer offset wraps by masking, and a non-power-of-two
                // capacity silently corrupts the free-space accounting the
                // first time the offset wraps. Reject rather than replicate.
                if def.max_entries == 0 || !def.max_entries.is_power_of_two() {
                    return Err(MapError::BadDef);
                }
                MapInner::Ring {
                    used: 0,
                    reserved: HashMap::new(),
                    committed: VecDeque::new(),
                }
            }
        };
        Ok(Self {
            def,
            domain,
            inner: RefCell::new(inner),
        })
    }

    /// Releases every kernel-memory region backing this map: the array /
    /// per-CPU base, live hash entries, and outstanding ring reservations.
    ///
    /// Called by [`MapRegistry::destroy`] once the fd is revoked. Pointers
    /// obtained from the map before destruction fault in checked memory
    /// afterwards — a use-after-free is an error here, never silent
    /// aliasing of a later tenant's allocation.
    fn teardown(&self, mem: &KernelMem) -> Result<(), MapError> {
        match &mut *self.inner.borrow_mut() {
            MapInner::Array { base } | MapInner::PerCpu { base, .. } => {
                mem.unmap(*base)?;
            }
            MapInner::Hash { entries, lru } => {
                for addr in entries.values() {
                    mem.unmap(*addr)?;
                }
                entries.clear();
                if let Some(order) = lru {
                    order.clear();
                }
            }
            MapInner::Prog { slots } => slots.clear(),
            MapInner::Ring {
                used,
                reserved,
                committed,
            } => {
                for addr in reserved.keys() {
                    mem.unmap(*addr)?;
                }
                reserved.clear();
                committed.clear();
                *used = 0;
            }
        }
        Ok(())
    }

    /// The checked element address of array index `index` on `cpu`.
    ///
    /// Returns `None` when the index is out of range.
    pub fn elem_addr(&self, index: u32, cpu: usize) -> Option<Addr> {
        let inner = self.inner.borrow();
        match &*inner {
            MapInner::Array { base } => (index < self.def.max_entries)
                .then(|| base + index as u64 * self.def.value_size as u64),
            MapInner::PerCpu { base, nr_cpus } => (index < self.def.max_entries && cpu < *nr_cpus)
                .then(|| {
                    base + (cpu as u64 * self.def.max_entries as u64 + index as u64)
                        * self.def.value_size as u64
                }),
            _ => None,
        }
    }

    /// The element address computed with **32-bit** offset arithmetic and
    /// no range re-check, replicating the ARRAY-map overflow bug the paper
    /// cites from Table 1 (\[36\], fixed July 2022).
    ///
    /// With a large `index`, `index * value_size` wraps in 32 bits and the
    /// resulting address escapes the element range; on a real kernel that
    /// is an out-of-bounds kernel access. Here it faults in checked memory.
    ///
    /// Only compiled for bug-reproduction builds (`bug-replicas` feature)
    /// and this crate's own tests, so production consumers of `lookup` /
    /// `update` / `elem_addr` cannot reach it.
    #[cfg(any(test, feature = "bug-replicas"))]
    pub fn elem_addr_overflow_bug(&self, index: u32) -> Option<Addr> {
        let inner = self.inner.borrow();
        match &*inner {
            MapInner::Array { base } => {
                // BUG (replica): 32-bit multiply, checked only against a
                // 32-bit bound that the wrap can satisfy.
                let offset32 = index.wrapping_mul(self.def.value_size);
                Some(base + offset32 as u64)
            }
            _ => None,
        }
    }

    /// Looks up `key`, returning the address of the value (a real pointer
    /// into kernel memory) or `None` when absent.
    pub fn lookup(&self, key: &[u8], cpu: usize) -> Result<Option<Addr>, MapError> {
        if key.len() != self.def.key_size as usize {
            return Err(MapError::BadKeySize);
        }
        let max_entries = self.def.max_entries;
        let value_size = self.def.value_size as u64;
        match &mut *self.inner.borrow_mut() {
            MapInner::Array { base } => {
                let index = u32::from_le_bytes(key.try_into().expect("key_size is 4"));
                Ok((index < max_entries).then(|| *base + index as u64 * value_size))
            }
            MapInner::PerCpu { base, nr_cpus } => {
                let index = u32::from_le_bytes(key.try_into().expect("key_size is 4"));
                Ok((index < max_entries && cpu < *nr_cpus)
                    .then(|| *base + (cpu as u64 * max_entries as u64 + index as u64) * value_size))
            }
            MapInner::Hash { entries, lru } => {
                let addr = entries.get(key).copied();
                if addr.is_some() {
                    if let Some(order) = lru {
                        touch_lru(order, key);
                    }
                }
                Ok(addr)
            }
            MapInner::Prog { .. } | MapInner::Ring { .. } => Err(MapError::WrongKind),
        }
    }

    /// Inserts or updates `key -> value`; for array maps `key` is the
    /// little-endian index.
    pub fn update(
        &self,
        mem: &KernelMem,
        key: &[u8],
        value: &[u8],
        cpu: usize,
    ) -> Result<(), MapError> {
        if key.len() != self.def.key_size as usize {
            return Err(MapError::BadKeySize);
        }
        if value.len() != self.def.value_size as usize {
            return Err(MapError::BadValueSize);
        }
        let name = &self.def.name;
        let max_entries = self.def.max_entries;
        match &mut *self.inner.borrow_mut() {
            MapInner::Array { base } => {
                let index = u32::from_le_bytes(key.try_into().expect("key_size is 4"));
                if index >= max_entries {
                    return Err(MapError::IndexOutOfRange);
                }
                mem.write_from(*base + index as u64 * value.len() as u64, value)?;
                Ok(())
            }
            MapInner::PerCpu { base, nr_cpus } => {
                let index = u32::from_le_bytes(key.try_into().expect("key_size is 4"));
                if index >= max_entries || cpu >= *nr_cpus {
                    return Err(MapError::IndexOutOfRange);
                }
                let addr =
                    *base + (cpu as u64 * max_entries as u64 + index as u64) * value.len() as u64;
                mem.write_from(addr, value)?;
                Ok(())
            }
            MapInner::Hash { entries, lru } => {
                if let Some(addr) = entries.get(key) {
                    mem.write_from(*addr, value)?;
                    if let Some(order) = lru {
                        touch_lru(order, key);
                    }
                    return Ok(());
                }
                if entries.len() as u32 >= max_entries {
                    match lru {
                        Some(order) => {
                            // Evict the least-recently-used entry.
                            if let Some(victim) = order.pop_front() {
                                if let Some(addr) = entries.remove(&victim) {
                                    mem.unmap(addr)?;
                                }
                            }
                        }
                        None => return Err(MapError::NoSpace),
                    }
                }
                let addr = mem.map_in_domain(
                    format_args!("map:{name}:entry"),
                    value.len() as u64,
                    Perms::rw(),
                    self.domain,
                )?;
                mem.write_from(addr, value)?;
                entries.insert(key.to_vec(), addr);
                if let Some(order) = lru {
                    order.push_back(key.to_vec());
                }
                Ok(())
            }
            MapInner::Prog { slots } => {
                let index = u32::from_le_bytes(key.try_into().expect("key_size is 4")) as usize;
                let prog =
                    u32::from_le_bytes(value.try_into().map_err(|_| MapError::BadValueSize)?);
                if index >= slots.len() {
                    return Err(MapError::IndexOutOfRange);
                }
                slots[index] = Some(prog);
                Ok(())
            }
            MapInner::Ring { .. } => Err(MapError::WrongKind),
        }
    }

    /// Deletes `key`; array maps do not support delete (as in the kernel).
    pub fn delete(&self, mem: &KernelMem, key: &[u8]) -> Result<(), MapError> {
        if key.len() != self.def.key_size as usize {
            return Err(MapError::BadKeySize);
        }
        match &mut *self.inner.borrow_mut() {
            MapInner::Hash { entries, lru } => {
                let addr = entries.remove(key).ok_or(MapError::NotFound)?;
                if let Some(order) = lru {
                    order.retain(|k| k != key);
                }
                mem.unmap(addr)?;
                Ok(())
            }
            MapInner::Prog { slots } => {
                let index = u32::from_le_bytes(key.try_into().expect("key_size is 4")) as usize;
                if index >= slots.len() {
                    return Err(MapError::IndexOutOfRange);
                }
                slots[index] = None;
                Ok(())
            }
            _ => Err(MapError::WrongKind),
        }
    }

    /// Snapshot of the keys of a hash-like map (unspecified order).
    pub fn keys(&self) -> Result<Vec<Vec<u8>>, MapError> {
        match &*self.inner.borrow() {
            MapInner::Hash { entries, .. } => Ok(entries.keys().cloned().collect()),
            _ => Err(MapError::WrongKind),
        }
    }

    /// Reads a prog-array slot.
    pub fn prog_slot(&self, index: u32) -> Result<Option<u32>, MapError> {
        match &*self.inner.borrow() {
            MapInner::Prog { slots } => Ok(slots.get(index as usize).copied().flatten()),
            _ => Err(MapError::WrongKind),
        }
    }

    /// Reserves `size` bytes in a ring buffer, returning the record address
    /// or `None` when the buffer is full (as `bpf_ringbuf_reserve` does).
    pub fn ringbuf_reserve(&self, mem: &KernelMem, size: u32) -> Result<Option<Addr>, MapError> {
        if size == 0 {
            return Err(MapError::BadValueSize);
        }
        let name = &self.def.name;
        let capacity = self.def.max_entries;
        match &mut *self.inner.borrow_mut() {
            MapInner::Ring { used, reserved, .. } => {
                // Widen before adding: `used + size` in u32 wraps for sizes
                // near u32::MAX, which made oversized reservations look like
                // they fit.
                if *used as u64 + size as u64 > capacity as u64 {
                    return Ok(None);
                }
                let addr = mem.map_in_domain(
                    format_args!("map:{name}:rec"),
                    size as u64,
                    Perms::rw(),
                    self.domain,
                )?;
                *used += size;
                reserved.insert(addr, size);
                Ok(Some(addr))
            }
            _ => Err(MapError::WrongKind),
        }
    }

    /// Submits a previously reserved record.
    pub fn ringbuf_submit(&self, mem: &KernelMem, addr: Addr) -> Result<(), MapError> {
        match &mut *self.inner.borrow_mut() {
            MapInner::Ring {
                reserved,
                committed,
                ..
            } => {
                let size = reserved.remove(&addr).ok_or(MapError::NotFound)?;
                let data = mem.read_bytes(addr, size as u64)?;
                mem.unmap(addr)?;
                committed.push_back(data);
                Ok(())
            }
            _ => Err(MapError::WrongKind),
        }
    }

    /// Discards a previously reserved record without publishing it
    /// (`bpf_ringbuf_discard`), freeing its capacity.
    pub fn ringbuf_discard(&self, mem: &KernelMem, addr: Addr) -> Result<(), MapError> {
        match &mut *self.inner.borrow_mut() {
            MapInner::Ring { used, reserved, .. } => {
                let size = reserved.remove(&addr).ok_or(MapError::NotFound)?;
                mem.unmap(addr)?;
                *used -= size.min(*used);
                Ok(())
            }
            _ => Err(MapError::WrongKind),
        }
    }

    /// Copies `data` into the ring buffer in one step (`bpf_ringbuf_output`).
    pub fn ringbuf_output(&self, data: &[u8]) -> Result<(), MapError> {
        if data.is_empty() {
            return Err(MapError::BadValueSize);
        }
        let capacity = self.def.max_entries;
        match &mut *self.inner.borrow_mut() {
            MapInner::Ring {
                used, committed, ..
            } => {
                // Same widening as `ringbuf_reserve`: the u32 sum wraps for
                // data lengths near u32::MAX.
                if *used as u64 + data.len() as u64 > capacity as u64 {
                    return Err(MapError::NoSpace);
                }
                *used += data.len() as u32;
                committed.push_back(data.to_vec());
                Ok(())
            }
            _ => Err(MapError::WrongKind),
        }
    }

    /// Consumes all committed ring-buffer records (the userspace side),
    /// freeing their capacity.
    pub fn ringbuf_consume(&self) -> Result<Vec<Vec<u8>>, MapError> {
        match &mut *self.inner.borrow_mut() {
            MapInner::Ring {
                used, committed, ..
            } => {
                let records: Vec<Vec<u8>> = committed.drain(..).collect();
                let freed: u32 = records.iter().map(|r| r.len() as u32).sum();
                *used -= freed.min(*used);
                Ok(records)
            }
            _ => Err(MapError::WrongKind),
        }
    }

    /// Number of live entries (hash-like maps only).
    pub fn len(&self) -> usize {
        match &*self.inner.borrow() {
            MapInner::Hash { entries, .. } => entries.len(),
            MapInner::Prog { slots } => slots.iter().filter(|s| s.is_some()).count(),
            MapInner::Ring { committed, .. } => committed.len(),
            MapInner::Array { .. } | MapInner::PerCpu { .. } => self.def.max_entries as usize,
        }
    }

    /// Whether the map has no live entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn touch_lru(order: &mut VecDeque<Vec<u8>>, key: &[u8]) {
    order.retain(|k| k != key);
    order.push_back(key.to_vec());
}

/// A map file descriptor, as referenced from bytecode via
/// [`crate::insn::BPF_PSEUDO_MAP_FD`] loads.
///
/// An fd packs a slot index in its low [`FD_INDEX_BITS`] bits (as
/// `index + 1`, so 0 is never a valid fd) and a slot generation in the
/// bits above. A slot's generation bumps every time its map is destroyed,
/// so an fd held across an unload stops resolving instead of silently
/// aliasing whatever map reuses the slot. First-generation fds have a zero
/// tag and are numerically identical to the sequential fds the table
/// handed out before slots were reclaimable, which keeps fds embedded in
/// existing bytecode fixtures valid.
pub type MapFd = u32;

/// Low bits of a [`MapFd`] that carry the slot index (as `index + 1`).
pub const FD_INDEX_BITS: u32 = 20;

const FD_INDEX_MASK: u32 = (1 << FD_INDEX_BITS) - 1;

/// The per-kernel map registry (the fd table).
#[derive(Debug, Default)]
pub struct MapRegistry {
    state: RefCell<RegistryState>,
}

/// One fd-table slot: the map (if live) plus the generation tag that
/// revoked fds are checked against.
#[derive(Debug, Default)]
struct Slot {
    gen: u32,
    map: Option<Rc<Map>>,
}

#[derive(Debug, Default)]
struct RegistryState {
    /// Slots indexed by `(fd & FD_INDEX_MASK) - 1`. `get`, the hottest
    /// helper-path operation, stays an index plus one generation compare.
    slots: Vec<Slot>,
    /// Indexes of vacated slots, reused LIFO by the next `create`.
    free: Vec<u32>,
}

impl MapRegistry {
    /// Creates a map and returns its fd.
    pub fn create(&self, kernel: &Kernel, def: MapDef) -> Result<MapFd, MapError> {
        self.create_in_domain(kernel, def, 0)
    }

    /// Creates a map whose backing memory — including entry allocations
    /// made later at runtime — is charged to memory-accounting `domain`
    /// (0 = unaccounted). A domain over its byte quota surfaces here and
    /// on hash updates as [`MapError::Fault`] with
    /// [`kernel_sim::mem::Fault::QuotaExceeded`].
    pub fn create_in_domain(
        &self,
        kernel: &Kernel,
        def: MapDef,
        domain: u32,
    ) -> Result<MapFd, MapError> {
        let map = Rc::new(Map::create(kernel, def, domain)?);
        let mut st = self.state.borrow_mut();
        if let Some(index) = st.free.pop() {
            let slot = &mut st.slots[index as usize];
            slot.map = Some(map);
            return Ok((slot.gen << FD_INDEX_BITS) | (index + 1));
        }
        if st.slots.len() as u32 >= FD_INDEX_MASK {
            return Err(MapError::NoSpace);
        }
        st.slots.push(Slot {
            gen: 0,
            map: Some(map),
        });
        Ok(st.slots.len() as MapFd)
    }

    /// Looks up a map by fd. Stale fds — revoked by [`Self::destroy`], or
    /// from a prior generation of a reused slot — return `None`.
    pub fn get(&self, fd: MapFd) -> Option<Rc<Map>> {
        let st = self.state.borrow();
        let index = (fd & FD_INDEX_MASK).checked_sub(1)?;
        let slot = st.slots.get(index as usize)?;
        if slot.gen != fd >> FD_INDEX_BITS {
            return None;
        }
        slot.map.clone()
    }

    /// Destroys the map behind `fd`: revokes the fd (bumping the slot's
    /// generation so stale copies error out), releases the map's backing
    /// kernel memory, and recycles the slot for the next `create`.
    ///
    /// Errors with [`MapError::NotFound`] when `fd` is already stale —
    /// destroying a map twice is a caller bug, not a no-op.
    pub fn destroy(&self, mem: &KernelMem, fd: MapFd) -> Result<(), MapError> {
        let map = {
            let mut st = self.state.borrow_mut();
            let index = (fd & FD_INDEX_MASK)
                .checked_sub(1)
                .ok_or(MapError::NotFound)?;
            let slot = st.slots.get_mut(index as usize).ok_or(MapError::NotFound)?;
            if slot.gen != fd >> FD_INDEX_BITS {
                return Err(MapError::NotFound);
            }
            let map = slot.map.take().ok_or(MapError::NotFound)?;
            slot.gen = slot.gen.wrapping_add(1) & (u32::MAX >> FD_INDEX_BITS);
            st.free.push(index);
            map
        };
        // The fd is already revoked, so a failed teardown leaves no live
        // fd behind.
        map.teardown(mem)
    }

    /// Number of live maps.
    pub fn len(&self) -> usize {
        let st = self.state.borrow();
        st.slots.iter().filter(|s| s.map.is_some()).count()
    }

    /// Whether no maps exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel_and_registry() -> (Kernel, MapRegistry) {
        (Kernel::new(), MapRegistry::default())
    }

    #[test]
    fn array_map_lookup_update() {
        let (kernel, reg) = kernel_and_registry();
        let fd = reg.create(&kernel, MapDef::array("counts", 8, 4)).unwrap();
        let map = reg.get(fd).unwrap();
        let key = 2u32.to_le_bytes();
        map.update(&kernel.mem, &key, &77u64.to_le_bytes(), 0)
            .unwrap();
        let addr = map.lookup(&key, 0).unwrap().unwrap();
        assert_eq!(kernel.mem.read_u64(addr).unwrap(), 77);
        // Out-of-range index: lookup returns None, update errors.
        assert_eq!(map.lookup(&4u32.to_le_bytes(), 0).unwrap(), None);
        assert_eq!(
            map.update(&kernel.mem, &4u32.to_le_bytes(), &0u64.to_le_bytes(), 0),
            Err(MapError::IndexOutOfRange)
        );
    }

    #[test]
    fn array_lookup_pointer_is_writable_kernel_memory() {
        let (kernel, reg) = kernel_and_registry();
        let fd = reg.create(&kernel, MapDef::array("vals", 4, 2)).unwrap();
        let map = reg.get(fd).unwrap();
        let addr = map.lookup(&0u32.to_le_bytes(), 0).unwrap().unwrap();
        kernel.mem.write_u32(addr, 0xabcd).unwrap();
        assert_eq!(kernel.mem.read_u32(addr).unwrap(), 0xabcd);
        // Writing past the whole map region faults.
        let last = map.lookup(&1u32.to_le_bytes(), 0).unwrap().unwrap();
        assert!(kernel.mem.write_u32(last + 4, 0).is_err());
    }

    #[test]
    fn percpu_array_slots_are_disjoint() {
        let (kernel, reg) = kernel_and_registry();
        let fd = reg
            .create(&kernel, MapDef::percpu_array("pc", 8, 2))
            .unwrap();
        let map = reg.get(fd).unwrap();
        let key = 1u32.to_le_bytes();
        map.update(&kernel.mem, &key, &1u64.to_le_bytes(), 0)
            .unwrap();
        map.update(&kernel.mem, &key, &2u64.to_le_bytes(), 3)
            .unwrap();
        let a0 = map.lookup(&key, 0).unwrap().unwrap();
        let a3 = map.lookup(&key, 3).unwrap().unwrap();
        assert_ne!(a0, a3);
        assert_eq!(kernel.mem.read_u64(a0).unwrap(), 1);
        assert_eq!(kernel.mem.read_u64(a3).unwrap(), 2);
        // CPU out of range.
        assert_eq!(map.lookup(&key, 8).unwrap(), None);
    }

    #[test]
    fn hash_map_crud() {
        let (kernel, reg) = kernel_and_registry();
        let fd = reg.create(&kernel, MapDef::hash("h", 4, 8, 2)).unwrap();
        let map = reg.get(fd).unwrap();
        let k1 = [1, 0, 0, 0];
        let k2 = [2, 0, 0, 0];
        assert_eq!(map.lookup(&k1, 0).unwrap(), None);
        map.update(&kernel.mem, &k1, &10u64.to_le_bytes(), 0)
            .unwrap();
        map.update(&kernel.mem, &k2, &20u64.to_le_bytes(), 0)
            .unwrap();
        assert_eq!(map.len(), 2);
        // Full: a third distinct key is rejected.
        assert_eq!(
            map.update(&kernel.mem, &[3, 0, 0, 0], &0u64.to_le_bytes(), 0),
            Err(MapError::NoSpace)
        );
        // In-place update of an existing key is fine.
        map.update(&kernel.mem, &k1, &11u64.to_le_bytes(), 0)
            .unwrap();
        let addr = map.lookup(&k1, 0).unwrap().unwrap();
        assert_eq!(kernel.mem.read_u64(addr).unwrap(), 11);
        map.delete(&kernel.mem, &k1).unwrap();
        assert_eq!(map.lookup(&k1, 0).unwrap(), None);
        assert_eq!(map.delete(&kernel.mem, &k1), Err(MapError::NotFound));
        // The deleted entry's memory is unmapped: a stale pointer faults.
        assert!(kernel.mem.read_u64(addr).is_err());
    }

    #[test]
    fn failed_hash_insert_audits_the_entry_region_name() {
        let (kernel, reg) = kernel_and_registry();
        let fd = reg
            .create(&kernel, MapDef::hash("flows", 4, 24, 4))
            .unwrap();
        let map = reg.get(fd).unwrap();
        kernel.arm_fault_plan(kernel_sim::FaultPlan::with_config(
            0,
            kernel_sim::FaultPlanConfig {
                alloc_fail_burst: 1,
                ..kernel_sim::FaultPlanConfig::quiet()
            },
        ));
        assert_eq!(
            map.update(&kernel.mem, &[1, 0, 0, 0], &[0; 24], 0),
            Err(MapError::Fault(Fault::AllocFailed { len: 24 }))
        );
        let events = kernel
            .audit
            .of_kind(kernel_sim::audit::EventKind::FaultInjected);
        let details: Vec<&str> = events.iter().map(|e| e.detail.as_str()).collect();
        assert_eq!(
            details,
            ["inject: transient allocation failure for region `map:flows:entry` (len 24)"]
        );
        // The burst is spent: the retry maps the entry.
        map.update(&kernel.mem, &[1, 0, 0, 0], &[0; 24], 0).unwrap();
    }

    #[test]
    fn lru_hash_evicts_oldest() {
        let (kernel, reg) = kernel_and_registry();
        let fd = reg.create(&kernel, MapDef::lru_hash("l", 4, 4, 2)).unwrap();
        let map = reg.get(fd).unwrap();
        let (k1, k2, k3) = ([1, 0, 0, 0], [2, 0, 0, 0], [3, 0, 0, 0]);
        map.update(&kernel.mem, &k1, &[1; 4], 0).unwrap();
        map.update(&kernel.mem, &k2, &[2; 4], 0).unwrap();
        // Touch k1 so k2 becomes the LRU victim.
        map.lookup(&k1, 0).unwrap();
        map.update(&kernel.mem, &k3, &[3; 4], 0).unwrap();
        assert!(map.lookup(&k1, 0).unwrap().is_some());
        assert!(map.lookup(&k2, 0).unwrap().is_none());
        assert!(map.lookup(&k3, 0).unwrap().is_some());
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn key_and_value_sizes_enforced() {
        let (kernel, reg) = kernel_and_registry();
        let fd = reg.create(&kernel, MapDef::hash("h", 4, 8, 4)).unwrap();
        let map = reg.get(fd).unwrap();
        assert_eq!(map.lookup(&[0; 3], 0), Err(MapError::BadKeySize));
        assert_eq!(
            map.update(&kernel.mem, &[0; 4], &[0; 7], 0),
            Err(MapError::BadValueSize)
        );
    }

    #[test]
    fn prog_array_slots() {
        let (kernel, reg) = kernel_and_registry();
        let fd = reg.create(&kernel, MapDef::prog_array("tail", 4)).unwrap();
        let map = reg.get(fd).unwrap();
        map.update(&kernel.mem, &1u32.to_le_bytes(), &7u32.to_le_bytes(), 0)
            .unwrap();
        assert_eq!(map.prog_slot(1).unwrap(), Some(7));
        assert_eq!(map.prog_slot(0).unwrap(), None);
        assert_eq!(map.prog_slot(9).unwrap(), None);
        map.delete(&kernel.mem, &1u32.to_le_bytes()).unwrap();
        assert_eq!(map.prog_slot(1).unwrap(), None);
    }

    #[test]
    fn ringbuf_reserve_submit_consume() {
        let (kernel, reg) = kernel_and_registry();
        let fd = reg.create(&kernel, MapDef::ringbuf("rb", 64)).unwrap();
        let map = reg.get(fd).unwrap();
        let rec = map.ringbuf_reserve(&kernel.mem, 16).unwrap().unwrap();
        kernel.mem.write_u64(rec, 42).unwrap();
        kernel.mem.write_u64(rec + 8, 43).unwrap();
        map.ringbuf_submit(&kernel.mem, rec).unwrap();
        // The record region is unmapped after submit.
        assert!(kernel.mem.read_u64(rec).is_err());
        map.ringbuf_output(&[9u8; 8]).unwrap();
        let records = map.ringbuf_consume().unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(&records[0][..8], &42u64.to_le_bytes());
        assert_eq!(records[1], vec![9u8; 8]);
        // Consumption freed capacity.
        assert!(map.ringbuf_reserve(&kernel.mem, 64).unwrap().is_some());
    }

    #[test]
    fn ringbuf_reserve_fails_when_full() {
        let (kernel, reg) = kernel_and_registry();
        let fd = reg.create(&kernel, MapDef::ringbuf("rb", 32)).unwrap();
        let map = reg.get(fd).unwrap();
        assert!(map.ringbuf_reserve(&kernel.mem, 32).unwrap().is_some());
        assert!(map.ringbuf_reserve(&kernel.mem, 1).unwrap().is_none());
        assert_eq!(map.ringbuf_output(&[0; 4]), Err(MapError::NoSpace));
    }

    #[test]
    fn elem_addr_overflow_bug_escapes_element_range() {
        let (kernel, reg) = kernel_and_registry();
        let fd = reg.create(&kernel, MapDef::array("a", 8, 4)).unwrap();
        let map = reg.get(fd).unwrap();
        // index chosen so that index * 8 wraps in 32 bits: 0x2000_0001 * 8
        // = 0x1_0000_0008 -> wraps to 8, but a correct implementation
        // rejects the index outright.
        let index = 0x2000_0001u32;
        assert_eq!(map.elem_addr(index, 0), None);
        let buggy = map.elem_addr_overflow_bug(index).unwrap();
        // The wrapped offset silently aliases element 1.
        assert_eq!(buggy, map.elem_addr(1, 0).unwrap());
        // And a non-wrapping large index escapes the region entirely.
        let buggy_oob = map.elem_addr_overflow_bug(0x10_000).unwrap();
        assert!(kernel.mem.read_u64(buggy_oob).is_err());
    }

    #[test]
    fn ringbuf_rejects_non_power_of_two_capacity() {
        let (kernel, reg) = kernel_and_registry();
        for capacity in [3u32, 48, 100, 4095] {
            assert_eq!(
                reg.create(&kernel, MapDef::ringbuf("rb", capacity)),
                Err(MapError::BadDef),
                "capacity {capacity} must be rejected"
            );
        }
        assert!(reg.create(&kernel, MapDef::ringbuf("rb", 4096)).is_ok());
    }

    #[test]
    fn ringbuf_reserve_size_cannot_wrap_free_space_check() {
        let (kernel, reg) = kernel_and_registry();
        let fd = reg.create(&kernel, MapDef::ringbuf("rb", 64)).unwrap();
        let map = reg.get(fd).unwrap();
        // Occupy part of the buffer so `used` is nonzero, then ask for a
        // size whose u32 sum with `used` wraps past the capacity check.
        assert!(map.ringbuf_reserve(&kernel.mem, 16).unwrap().is_some());
        assert!(map
            .ringbuf_reserve(&kernel.mem, u32::MAX - 8)
            .unwrap()
            .is_none());
        let huge = vec![0u8; 80];
        assert_eq!(map.ringbuf_output(&huge), Err(MapError::NoSpace));
    }

    #[test]
    fn bounds_checked_lookups_reject_out_of_range_indexes() {
        let (kernel, reg) = kernel_and_registry();
        let fd = reg.create(&kernel, MapDef::array("a", 8, 4)).unwrap();
        let map = reg.get(fd).unwrap();
        let pfd = reg
            .create(&kernel, MapDef::percpu_array("p", 8, 4))
            .unwrap();
        let pmap = reg.get(pfd).unwrap();
        // Every production entry point rejects index >= max_entries,
        // including the wrap-prone indexes the overflow replica mishandles.
        for index in [4u32, 5, 0x10_000, 0x2000_0001, u32::MAX] {
            let key = index.to_le_bytes();
            assert_eq!(map.lookup(&key, 0).unwrap(), None);
            assert_eq!(map.elem_addr(index, 0), None);
            assert_eq!(
                map.update(&kernel.mem, &key, &[0; 8], 0),
                Err(MapError::IndexOutOfRange)
            );
            assert_eq!(pmap.lookup(&key, 0).unwrap(), None);
            assert_eq!(pmap.elem_addr(index, 0), None);
            assert_eq!(
                pmap.update(&kernel.mem, &key, &[0; 8], 0),
                Err(MapError::IndexOutOfRange)
            );
        }
        assert!(map.lookup(&3u32.to_le_bytes(), 0).unwrap().is_some());
    }

    #[test]
    fn registry_hands_out_unique_fds() {
        let (kernel, reg) = kernel_and_registry();
        let a = reg.create(&kernel, MapDef::array("a", 4, 1)).unwrap();
        let b = reg.create(&kernel, MapDef::array("b", 4, 1)).unwrap();
        assert_ne!(a, b);
        assert_eq!(reg.len(), 2);
        assert!(reg.get(a).is_some());
        assert!(reg.get(999).is_none());
    }

    #[test]
    fn first_generation_fds_stay_sequential() {
        // Back-compat: until a slot is destroyed, fds are the same small
        // sequential integers the pre-freelist table handed out, so fds
        // baked into bytecode fixtures keep resolving.
        let (kernel, reg) = kernel_and_registry();
        for expect in 1..=4u32 {
            let fd = reg.create(&kernel, MapDef::array("m", 4, 1)).unwrap();
            assert_eq!(fd, expect);
        }
    }

    #[test]
    fn stale_fd_errors_out_instead_of_aliasing_reused_slot() {
        let (kernel, reg) = kernel_and_registry();
        let old = reg.create(&kernel, MapDef::array("victim", 8, 4)).unwrap();
        let addr = reg
            .get(old)
            .unwrap()
            .lookup(&0u32.to_le_bytes(), 0)
            .unwrap()
            .unwrap();
        reg.destroy(&kernel.mem, old).unwrap();
        // The slot is recycled for the next tenant's map...
        let new = reg.create(&kernel, MapDef::array("next", 8, 4)).unwrap();
        assert_eq!(old & FD_INDEX_MASK, new & FD_INDEX_MASK, "slot reused");
        assert_ne!(old, new, "generation tag distinguishes the fds");
        // ...but the stale fd resolves to nothing rather than to it.
        assert!(reg.get(old).is_none());
        assert!(reg.get(new).is_some());
        // And the old map's backing memory is gone: stale pointers fault.
        assert!(kernel.mem.read_u64(addr).is_err());
        // Destroying through the stale fd again is an error, not a no-op
        // (it must never tear down the slot's new occupant).
        assert_eq!(reg.destroy(&kernel.mem, old), Err(MapError::NotFound));
        assert!(reg.get(new).is_some());
    }

    #[test]
    fn destroy_releases_hash_entries_and_ring_reservations() {
        let (kernel, reg) = kernel_and_registry();
        let hfd = reg.create(&kernel, MapDef::hash("h", 4, 8, 8)).unwrap();
        let hmap = reg.get(hfd).unwrap();
        hmap.update(&kernel.mem, &[1, 0, 0, 0], &7u64.to_le_bytes(), 0)
            .unwrap();
        let entry = hmap.lookup(&[1, 0, 0, 0], 0).unwrap().unwrap();
        let rfd = reg.create(&kernel, MapDef::ringbuf("rb", 64)).unwrap();
        let rmap = reg.get(rfd).unwrap();
        let rec = rmap.ringbuf_reserve(&kernel.mem, 16).unwrap().unwrap();
        reg.destroy(&kernel.mem, hfd).unwrap();
        reg.destroy(&kernel.mem, rfd).unwrap();
        assert!(kernel.mem.read_u64(entry).is_err());
        assert!(kernel.mem.read_u64(rec).is_err());
        assert_eq!(reg.len(), 0);
        assert!(reg.is_empty());
    }

    #[test]
    fn domain_charged_maps_hit_quota_and_credit_on_destroy() {
        let (kernel, reg) = kernel_and_registry();
        let domain = 7u32;
        kernel.mem.set_domain_quota(domain, 64);
        // Create-time enforcement: an array bigger than the quota is
        // rejected at load.
        assert!(matches!(
            reg.create_in_domain(&kernel, MapDef::array("big", 8, 16), domain),
            Err(MapError::Fault(Fault::QuotaExceeded { .. }))
        ));
        // Runtime enforcement: hash entries allocated on update are
        // charged to the same domain.
        let fd = reg
            .create_in_domain(&kernel, MapDef::hash("h", 4, 32, 8), domain)
            .unwrap();
        let map = reg.get(fd).unwrap();
        map.update(&kernel.mem, &[1, 0, 0, 0], &[0; 32], 0).unwrap();
        map.update(&kernel.mem, &[2, 0, 0, 0], &[0; 32], 0).unwrap();
        assert!(matches!(
            map.update(&kernel.mem, &[3, 0, 0, 0], &[0; 32], 0),
            Err(MapError::Fault(Fault::QuotaExceeded { .. }))
        ));
        assert_eq!(kernel.mem.domain_bytes(domain), 64);
        // Destroy credits the domain back in full.
        reg.destroy(&kernel.mem, fd).unwrap();
        assert_eq!(kernel.mem.domain_bytes(domain), 0);
    }

    #[test]
    fn bad_defs_rejected() {
        let (kernel, reg) = kernel_and_registry();
        assert!(reg.create(&kernel, MapDef::array("z", 0, 4)).is_err());
        assert!(reg.create(&kernel, MapDef::array("z", 4, 0)).is_err());
        assert!(reg.create(&kernel, MapDef::hash("z", 0, 4, 4)).is_err());
        assert!(reg.create(&kernel, MapDef::ringbuf("z", 0)).is_err());
    }
}
