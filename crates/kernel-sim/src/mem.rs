//! Checked kernel memory.
//!
//! All memory that extensions (and simulated helpers) can touch lives in a
//! [`KernelMem`] address space: program stacks, contexts, map values, packet
//! data, helper scratch buffers. Every access is bounds- and
//! permission-checked, so the class of violations the eBPF verifier exists
//! to prevent — NULL dereference, out-of-bounds access, writes to read-only
//! data — becomes an observable [`Fault`] value instead of undefined
//! behaviour, exactly what the reproduction needs to demonstrate §2.2's
//! "verified program crashes the kernel" experiment safely.

use std::collections::BTreeMap;
use std::fmt::Display;

use parking_lot::Mutex;

use crate::table::AppendTable;

/// A virtual kernel address.
pub type Addr = u64;

/// A memory protection key (0 = unkeyed; 1..=15 usable), modelling the
/// lightweight hardware protection the paper's §4 points to (PKS/MPK
/// \[27\]\[30\]\[33\]): per-region keys plus a fast thread-local rights
/// register that software flips when crossing a trust boundary.
pub type Pkey = u8;

/// Number of protection keys (hardware exposes 16).
pub const NR_PKEYS: u8 = 16;

/// Base of the simulated kernel virtual address range (vmalloc-style).
pub const KERNEL_VA_BASE: Addr = 0xffff_c900_0000_0000;

/// Size of the always-unmapped NULL guard page region.
pub const NULL_GUARD: Addr = 0x1000;

/// Guard gap left between consecutively mapped regions.
const REGION_GUARD: u64 = 0x1000;

/// A detected memory-safety violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Access through the NULL page (`addr < NULL_GUARD`).
    NullDeref {
        /// The faulting address.
        addr: Addr,
    },
    /// Access to an address not covered by any mapped region.
    Unmapped {
        /// The faulting address.
        addr: Addr,
        /// The access length in bytes.
        len: u64,
    },
    /// Access beginning inside a region but running past its end.
    OutOfBounds {
        /// The faulting address.
        addr: Addr,
        /// The access length in bytes.
        len: u64,
        /// Base of the region the access started in.
        region_base: Addr,
        /// Length of that region.
        region_len: u64,
    },
    /// Write to a read-only region.
    WriteToReadOnly {
        /// The faulting address.
        addr: Addr,
    },
    /// Zero-length or overflowing address range.
    BadRange {
        /// The faulting address.
        addr: Addr,
        /// The access length in bytes.
        len: u64,
    },
    /// Access denied by the region's protection key (the §4 PKS/MPK
    /// model: lightweight hardware memory protection).
    PkeyDenied {
        /// The faulting address.
        addr: Addr,
        /// The region's protection key.
        pkey: Pkey,
        /// Whether the denied access was a write.
        write: bool,
    },
    /// Transient allocation failure (memory pressure; injected by the
    /// fault plane). Unlike the other variants this is not a safety
    /// violation — retrying later may succeed.
    AllocFailed {
        /// The requested allocation length in bytes.
        len: u64,
    },
    /// Allocation refused because it would push an accounting domain
    /// past its byte quota (see [`KernelMem::set_domain_quota`]). Like
    /// [`Fault::AllocFailed`] this is a policy outcome, not a safety
    /// violation: freeing domain memory makes the allocation viable.
    QuotaExceeded {
        /// The accounting domain that is over budget.
        domain: u32,
        /// The requested allocation length in bytes.
        len: u64,
        /// The domain's configured byte limit.
        limit: u64,
    },
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Fault::NullDeref { addr } => write!(f, "NULL dereference at {addr:#x}"),
            Fault::Unmapped { addr, len } => {
                write!(f, "access to unmapped memory at {addr:#x} (len {len})")
            }
            Fault::OutOfBounds {
                addr,
                len,
                region_base,
                region_len,
            } => write!(
                f,
                "out-of-bounds access at {addr:#x} (len {len}) past region {region_base:#x}+{region_len:#x}"
            ),
            Fault::WriteToReadOnly { addr } => write!(f, "write to read-only memory at {addr:#x}"),
            Fault::BadRange { addr, len } => write!(f, "bad access range {addr:#x} (len {len})"),
            Fault::PkeyDenied { addr, pkey, write } => write!(
                f,
                "protection key {pkey} denied {} at {addr:#x}",
                if write { "write" } else { "read" }
            ),
            Fault::AllocFailed { len } => {
                write!(f, "transient allocation failure (len {len})")
            }
            Fault::QuotaExceeded { domain, len, limit } => {
                write!(
                    f,
                    "domain {domain} quota exceeded (len {len}, limit {limit})"
                )
            }
        }
    }
}

impl std::error::Error for Fault {}

/// Region access permissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Perms {
    /// Reads allowed.
    pub read: bool,
    /// Writes allowed.
    pub write: bool,
}

impl Perms {
    /// Read-write permissions.
    pub const fn rw() -> Self {
        Self {
            read: true,
            write: true,
        }
    }

    /// Read-only permissions.
    pub const fn ro() -> Self {
        Self {
            read: true,
            write: false,
        }
    }
}

#[derive(Debug)]
struct Region {
    base: Addr,
    perms: Perms,
    pkey: Pkey,
    /// Accounting domain the region's bytes are charged to (0 = the
    /// unaccounted kernel domain).
    domain: u32,
    data: Vec<u8>,
}

impl Region {
    fn len(&self) -> u64 {
        self.data.len() as u64
    }

    fn contains(&self, addr: Addr) -> bool {
        addr >= self.base && addr < self.base + self.len()
    }
}

/// How many unmapped regions are kept around for allocation reuse.
const SPARE_REGIONS: usize = 8;

#[derive(Debug, Default)]
struct MemState {
    /// Regions keyed by base address. Bases come from `next_base`, which
    /// only grows, so regions are pushed in address order.
    regions: AppendTable<Region>,
    next_base: Addr,
    bytes_mapped: u64,
    peak_bytes_mapped: u64,
    /// PKRU model: bit k set = reads through key k denied.
    pkey_access_disable: u16,
    /// PKRU model: bit k set = writes through key k denied.
    pkey_write_disable: u16,
    /// Recycled region shells: short-lived mappings (per-run contexts,
    /// skb payloads, stack frames) reuse these data allocations
    /// instead of round-tripping the allocator on every packet. Purely
    /// an allocation cache — fresh mappings still get fresh base
    /// addresses and zeroed contents.
    spare: Vec<Region>,
    /// Bytes currently mapped per accounting domain (domain 0 is never
    /// tracked here).
    domain_used: BTreeMap<u32, u64>,
    /// Byte quota per accounting domain; absent = unlimited.
    domain_limits: BTreeMap<u32, u64>,
}

/// The simulated kernel address space.
///
/// Thread-safe via interior locking; shared through the [`crate::Kernel`]
/// façade.
///
/// # Examples
///
/// ```
/// use kernel_sim::mem::{Fault, KernelMem, Perms};
///
/// let mem = KernelMem::new();
/// let a = mem.map("scratch", 16, Perms::rw()).unwrap();
/// mem.write_u32(a + 4, 7).unwrap();
/// assert_eq!(mem.read_u32(a + 4).unwrap(), 7);
/// assert!(matches!(mem.read_u64(a + 12), Err(Fault::OutOfBounds { .. })));
/// ```
#[derive(Debug)]
pub struct KernelMem {
    state: Mutex<MemState>,
    pub(crate) inject: crate::inject::InjectSlot,
}

impl Default for KernelMem {
    fn default() -> Self {
        Self::new()
    }
}

impl KernelMem {
    /// Creates an empty address space.
    pub fn new() -> Self {
        Self {
            inject: crate::inject::InjectSlot::default(),
            state: Mutex::new(MemState {
                regions: AppendTable::default(),
                next_base: KERNEL_VA_BASE,
                bytes_mapped: 0,
                peak_bytes_mapped: 0,
                pkey_access_disable: 0,
                pkey_write_disable: 0,
                spare: Vec::new(),
                domain_used: BTreeMap::new(),
                domain_limits: BTreeMap::new(),
            }),
        }
    }

    /// Maps a zero-initialized region of `len` bytes and returns its base
    /// address.
    ///
    /// Regions are separated by unmapped guard gaps so that a linear overrun
    /// of one region faults instead of silently entering a neighbour.
    ///
    /// The region keeps no name: `name` identifies the allocation to the
    /// fault plane and is rendered only when an injected failure fires.
    pub fn map(&self, name: impl Display, len: u64, perms: Perms) -> Result<Addr, Fault> {
        self.map_with_pkey(name, len, perms, 0)
    }

    /// Maps a region tagged with protection key `pkey` (see [`Pkey`]).
    ///
    /// Accesses additionally honour the per-key rights set with
    /// [`KernelMem::set_pkey_rights`]; key 0 is never restricted.
    pub fn map_with_pkey(
        &self,
        name: impl Display,
        len: u64,
        perms: Perms,
        pkey: Pkey,
    ) -> Result<Addr, Fault> {
        self.map_inner(&name, len, perms, pkey, 0, None, 0)
    }

    /// Maps a region pre-initialized with `data` — equivalent to
    /// [`KernelMem::map`] followed by a full-region write, in one
    /// address-space transaction.
    pub fn map_with_data(
        &self,
        name: impl Display,
        data: &[u8],
        perms: Perms,
    ) -> Result<Addr, Fault> {
        self.map_inner(&name, data.len() as u64, perms, 0, 0, Some(data), 0)
    }

    /// Maps a region whose bytes are charged to accounting `domain`.
    ///
    /// Domain 0 is the unaccounted kernel domain; any other domain may
    /// carry a byte quota ([`KernelMem::set_domain_quota`]), in which
    /// case an allocation that would exceed it fails with
    /// [`Fault::QuotaExceeded`]. The charge is credited back when the
    /// region is unmapped.
    pub fn map_in_domain(
        &self,
        name: impl Display,
        len: u64,
        perms: Perms,
        domain: u32,
    ) -> Result<Addr, Fault> {
        self.map_inner(&name, len, perms, 0, domain, None, 0)
    }

    /// Maps a `len`-byte region at a `len`-aligned base address, charged
    /// to accounting `domain`.
    ///
    /// `len` must be a nonzero power of two (else [`Fault::BadRange`]).
    /// The alignment guarantee is what makes the region usable as an
    /// SFI-maskable protection domain (see [`crate::domain::SandboxDomain`]):
    /// `base | (addr & (len - 1))` cannot escape a size-aligned region.
    pub fn map_aligned_in_domain(
        &self,
        name: impl Display,
        len: u64,
        perms: Perms,
        domain: u32,
    ) -> Result<Addr, Fault> {
        if !len.is_power_of_two() {
            return Err(Fault::BadRange { addr: 0, len });
        }
        self.map_inner(&name, len, perms, 0, domain, None, len)
    }

    #[allow(clippy::too_many_arguments)]
    fn map_inner(
        &self,
        name: &dyn Display,
        len: u64,
        perms: Perms,
        pkey: Pkey,
        domain: u32,
        init: Option<&[u8]>,
        align: u64,
    ) -> Result<Addr, Fault> {
        if len == 0 {
            return Err(Fault::BadRange { addr: 0, len });
        }
        if pkey >= NR_PKEYS {
            return Err(Fault::BadRange {
                addr: 0,
                len: pkey as u64,
            });
        }
        if let Some(plane) = self.inject.get() {
            if plane.alloc_should_fail(name, len) {
                return Err(Fault::AllocFailed { len });
            }
        }
        let mut st = self.state.lock();
        if domain != 0 {
            let used = st.domain_used.get(&domain).copied().unwrap_or(0);
            if let Some(&limit) = st.domain_limits.get(&domain) {
                if used + len > limit {
                    return Err(Fault::QuotaExceeded { domain, len, limit });
                }
            }
            st.domain_used.insert(domain, used + len);
        }
        let base = if align > 1 {
            (st.next_base + align - 1) & !(align - 1)
        } else {
            st.next_base
        };
        st.next_base = base + len + REGION_GUARD;
        st.bytes_mapped += len;
        st.peak_bytes_mapped = st.peak_bytes_mapped.max(st.bytes_mapped);
        let mut region = match st.spare.pop() {
            Some(mut r) => {
                r.base = base;
                r.perms = perms;
                r.pkey = pkey;
                r.domain = domain;
                r.data.clear();
                r
            }
            None => Region {
                base,
                perms,
                pkey,
                domain,
                data: Vec::new(),
            },
        };
        match init {
            Some(bytes) => region.data.extend_from_slice(bytes),
            None => region.data.resize(len as usize, 0),
        }
        st.regions.push(base, region);
        Ok(base)
    }

    /// Sets the PKRU-style rights registers: bit `k` of
    /// `access_disable` denies all access through key `k`; bit `k` of
    /// `write_disable` denies writes. Key 0 bits are ignored.
    pub fn set_pkey_rights(&self, access_disable: u16, write_disable: u16) {
        let mut st = self.state.lock();
        st.pkey_access_disable = access_disable & !1;
        st.pkey_write_disable = write_disable & !1;
    }

    /// Unmaps the region based at `base`; subsequent accesses fault.
    pub fn unmap(&self, base: Addr) -> Result<(), Fault> {
        let mut st = self.state.lock();
        match st.regions.remove(base) {
            Some(r) => {
                st.bytes_mapped -= r.len();
                if r.domain != 0 {
                    if let Some(used) = st.domain_used.get_mut(&r.domain) {
                        *used = used.saturating_sub(r.len());
                    }
                }
                if st.spare.len() < SPARE_REGIONS {
                    st.spare.push(r);
                }
                Ok(())
            }
            None => Err(Fault::Unmapped { addr: base, len: 0 }),
        }
    }

    /// Sets the byte quota for accounting `domain` (ignored for domain
    /// 0, which is always unlimited). Lowering a quota below current
    /// usage does not fail existing regions; it only refuses further
    /// allocations until usage drops under the limit.
    pub fn set_domain_quota(&self, domain: u32, limit: u64) {
        if domain == 0 {
            return;
        }
        self.state.lock().domain_limits.insert(domain, limit);
    }

    /// Removes the byte quota for `domain`, making it unlimited again.
    pub fn clear_domain_quota(&self, domain: u32) {
        self.state.lock().domain_limits.remove(&domain);
    }

    /// Bytes currently mapped in accounting `domain` (0 for domain 0:
    /// the kernel domain is not tracked).
    pub fn domain_bytes(&self, domain: u32) -> u64 {
        self.state
            .lock()
            .domain_used
            .get(&domain)
            .copied()
            .unwrap_or(0)
    }

    /// Returns the `(base, len, perms)` of the region containing `addr`,
    /// if any.
    pub fn region_of(&self, addr: Addr) -> Option<(Addr, u64, Perms)> {
        let st = self.state.lock();
        st.regions
            .floor(addr)
            .filter(|r| r.contains(addr))
            .map(|r| (r.base, r.len(), r.perms))
    }

    /// Total bytes currently mapped.
    pub fn bytes_mapped(&self) -> u64 {
        self.state.lock().bytes_mapped
    }

    /// High-water mark of mapped bytes.
    pub fn peak_bytes_mapped(&self) -> u64 {
        self.state.lock().peak_bytes_mapped
    }

    fn check(
        st: &mut MemState,
        addr: Addr,
        len: u64,
        write: bool,
    ) -> Result<(&mut Region, usize), Fault> {
        if len == 0 || addr.checked_add(len).is_none() {
            return Err(Fault::BadRange { addr, len });
        }
        if addr < NULL_GUARD {
            return Err(Fault::NullDeref { addr });
        }
        let st_pkey_access_disable = st.pkey_access_disable;
        let st_pkey_write_disable = st.pkey_write_disable;
        // A tombstone in the floor slot means unmapped: regions do not
        // overlap, so no earlier region can reach `addr`.
        let region = match st.regions.floor_mut(addr).filter(|r| r.contains(addr)) {
            Some(r) => r,
            None => return Err(Fault::Unmapped { addr, len }),
        };
        let offset = addr - region.base;
        if offset + len > region.len() {
            return Err(Fault::OutOfBounds {
                addr,
                len,
                region_base: region.base,
                region_len: region.len(),
            });
        }
        if write && !region.perms.write {
            return Err(Fault::WriteToReadOnly { addr });
        }
        if !write && !region.perms.read {
            return Err(Fault::Unmapped { addr, len });
        }
        let key = region.pkey;
        if key != 0 {
            let bit = 1u16 << key;
            if st_pkey_access_disable & bit != 0 || (write && st_pkey_write_disable & bit != 0) {
                return Err(Fault::PkeyDenied {
                    addr,
                    pkey: key,
                    write,
                });
            }
        }
        Ok((region, offset as usize))
    }

    /// Copies `buf.len()` bytes starting at `addr` into `buf`.
    pub fn read_into(&self, addr: Addr, buf: &mut [u8]) -> Result<(), Fault> {
        let mut st = self.state.lock();
        let (region, off) = Self::check(&mut st, addr, buf.len() as u64, false)?;
        buf.copy_from_slice(&region.data[off..off + buf.len()]);
        Ok(())
    }

    /// Returns `len` bytes starting at `addr` as a new vector.
    pub fn read_bytes(&self, addr: Addr, len: u64) -> Result<Vec<u8>, Fault> {
        let mut buf = vec![0u8; len as usize];
        self.read_into(addr, &mut buf)?;
        Ok(buf)
    }

    /// Writes `buf` starting at `addr`.
    pub fn write_from(&self, addr: Addr, buf: &[u8]) -> Result<(), Fault> {
        let mut st = self.state.lock();
        let (region, off) = Self::check(&mut st, addr, buf.len() as u64, true)?;
        region.data[off..off + buf.len()].copy_from_slice(buf);
        Ok(())
    }

    /// Fills `len` bytes starting at `addr` with `byte`.
    pub fn fill(&self, addr: Addr, len: u64, byte: u8) -> Result<(), Fault> {
        let mut st = self.state.lock();
        let (region, off) = Self::check(&mut st, addr, len, true)?;
        region.data[off..off + len as usize].fill(byte);
        Ok(())
    }

    /// Reads a little-endian `u8` at `addr`.
    pub fn read_u8(&self, addr: Addr) -> Result<u8, Fault> {
        let mut b = [0u8; 1];
        self.read_into(addr, &mut b)?;
        Ok(b[0])
    }

    /// Reads a little-endian `u16` at `addr`.
    pub fn read_u16(&self, addr: Addr) -> Result<u16, Fault> {
        let mut b = [0u8; 2];
        self.read_into(addr, &mut b)?;
        Ok(u16::from_le_bytes(b))
    }

    /// Reads a little-endian `u32` at `addr`.
    pub fn read_u32(&self, addr: Addr) -> Result<u32, Fault> {
        let mut b = [0u8; 4];
        self.read_into(addr, &mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Reads a little-endian `u64` at `addr`.
    pub fn read_u64(&self, addr: Addr) -> Result<u64, Fault> {
        let mut b = [0u8; 8];
        self.read_into(addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Writes a little-endian `u8` at `addr`.
    pub fn write_u8(&self, addr: Addr, v: u8) -> Result<(), Fault> {
        self.write_from(addr, &[v])
    }

    /// Writes a little-endian `u16` at `addr`.
    pub fn write_u16(&self, addr: Addr, v: u16) -> Result<(), Fault> {
        self.write_from(addr, &v.to_le_bytes())
    }

    /// Writes a little-endian `u32` at `addr`.
    pub fn write_u32(&self, addr: Addr, v: u32) -> Result<(), Fault> {
        self.write_from(addr, &v.to_le_bytes())
    }

    /// Writes a little-endian `u64` at `addr`.
    pub fn write_u64(&self, addr: Addr, v: u64) -> Result<(), Fault> {
        self.write_from(addr, &v.to_le_bytes())
    }

    /// Reads a sized little-endian value (`size` in {1,2,4,8}),
    /// zero-extended to `u64`.
    pub fn read_sized(&self, addr: Addr, size: u8) -> Result<u64, Fault> {
        match size {
            1 => self.read_u8(addr).map(u64::from),
            2 => self.read_u16(addr).map(u64::from),
            4 => self.read_u32(addr).map(u64::from),
            8 => self.read_u64(addr),
            _ => Err(Fault::BadRange {
                addr,
                len: size as u64,
            }),
        }
    }

    /// Writes the low `size` bytes (`size` in {1,2,4,8}) of `v` at `addr`.
    pub fn write_sized(&self, addr: Addr, size: u8, v: u64) -> Result<(), Fault> {
        match size {
            1 => self.write_u8(addr, v as u8),
            2 => self.write_u16(addr, v as u16),
            4 => self.write_u32(addr, v as u32),
            8 => self.write_u64(addr, v),
            _ => Err(Fault::BadRange {
                addr,
                len: size as u64,
            }),
        }
    }

    /// Atomically applies `op` to the sized value at `addr`, returning the
    /// old value.
    ///
    /// The simulator holds the address-space lock across the read-modify-
    /// write, which is what makes it "atomic" with respect to other accessors.
    pub fn fetch_update(
        &self,
        addr: Addr,
        size: u8,
        op: impl FnOnce(u64) -> u64,
    ) -> Result<u64, Fault> {
        let mut st = self.state.lock();
        let (region, off) = Self::check(&mut st, addr, size as u64, true)?;
        let old = match size {
            1 => region.data[off] as u64,
            2 => u16::from_le_bytes(region.data[off..off + 2].try_into().unwrap()) as u64,
            4 => u32::from_le_bytes(region.data[off..off + 4].try_into().unwrap()) as u64,
            8 => u64::from_le_bytes(region.data[off..off + 8].try_into().unwrap()),
            _ => {
                return Err(Fault::BadRange {
                    addr,
                    len: size as u64,
                })
            }
        };
        let new = op(old);
        match size {
            1 => region.data[off] = new as u8,
            2 => region.data[off..off + 2].copy_from_slice(&(new as u16).to_le_bytes()),
            4 => region.data[off..off + 4].copy_from_slice(&(new as u32).to_le_bytes()),
            8 => region.data[off..off + 8].copy_from_slice(&new.to_le_bytes()),
            _ => unreachable!(),
        }
        Ok(old)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_read_write_roundtrip() {
        let mem = KernelMem::new();
        let a = mem.map("r", 32, Perms::rw()).unwrap();
        mem.write_u64(a, u64::MAX).unwrap();
        mem.write_u32(a + 8, 0x1234_5678).unwrap();
        mem.write_u16(a + 12, 0xbeef).unwrap();
        mem.write_u8(a + 14, 0x7f).unwrap();
        assert_eq!(mem.read_u64(a).unwrap(), u64::MAX);
        assert_eq!(mem.read_u32(a + 8).unwrap(), 0x1234_5678);
        assert_eq!(mem.read_u16(a + 12).unwrap(), 0xbeef);
        assert_eq!(mem.read_u8(a + 14).unwrap(), 0x7f);
    }

    #[test]
    fn null_page_faults() {
        let mem = KernelMem::new();
        assert!(matches!(mem.read_u8(0), Err(Fault::NullDeref { addr: 0 })));
        assert!(matches!(
            mem.write_u64(8, 1),
            Err(Fault::NullDeref { addr: 8 })
        ));
        assert!(matches!(
            mem.read_u8(NULL_GUARD - 1),
            Err(Fault::NullDeref { .. })
        ));
    }

    #[test]
    fn unmapped_faults() {
        let mem = KernelMem::new();
        assert!(matches!(
            mem.read_u8(KERNEL_VA_BASE),
            Err(Fault::Unmapped { .. })
        ));
        let a = mem.map("r", 8, Perms::rw()).unwrap();
        // The guard gap between regions is unmapped.
        assert!(matches!(
            mem.read_u8(a + 8 + 64),
            Err(Fault::Unmapped { .. })
        ));
    }

    #[test]
    fn out_of_bounds_faults() {
        let mem = KernelMem::new();
        let a = mem.map("r", 8, Perms::rw()).unwrap();
        assert!(matches!(
            mem.read_u64(a + 1),
            Err(Fault::OutOfBounds { .. })
        ));
        assert!(mem.read_u64(a).is_ok());
        assert!(matches!(
            mem.write_u32(a + 5, 0),
            Err(Fault::OutOfBounds { .. })
        ));
    }

    #[test]
    fn read_only_rejects_writes() {
        let mem = KernelMem::new();
        let a = mem.map("ro", 8, Perms::ro()).unwrap();
        assert!(mem.read_u64(a).is_ok());
        assert!(matches!(
            mem.write_u8(a, 1),
            Err(Fault::WriteToReadOnly { .. })
        ));
    }

    #[test]
    fn unmap_then_access_faults() {
        let mem = KernelMem::new();
        let a = mem.map("r", 8, Perms::rw()).unwrap();
        mem.unmap(a).unwrap();
        assert!(matches!(mem.read_u8(a), Err(Fault::Unmapped { .. })));
        assert!(mem.unmap(a).is_err());
    }

    #[test]
    fn zero_len_map_rejected() {
        let mem = KernelMem::new();
        assert!(matches!(
            mem.map("z", 0, Perms::rw()),
            Err(Fault::BadRange { .. })
        ));
    }

    #[test]
    fn sized_access_roundtrip() {
        let mem = KernelMem::new();
        let a = mem.map("r", 16, Perms::rw()).unwrap();
        for &size in &[1u8, 2, 4, 8] {
            let v = 0xa5a5_a5a5_a5a5_a5a5u64;
            mem.write_sized(a, size, v).unwrap();
            let mask = if size == 8 {
                u64::MAX
            } else {
                (1u64 << (size * 8)) - 1
            };
            assert_eq!(mem.read_sized(a, size).unwrap(), v & mask);
        }
        assert!(mem.read_sized(a, 3).is_err());
        assert!(mem.write_sized(a, 5, 0).is_err());
    }

    #[test]
    fn fetch_update_returns_old_value() {
        let mem = KernelMem::new();
        let a = mem.map("r", 8, Perms::rw()).unwrap();
        mem.write_u64(a, 10).unwrap();
        let old = mem.fetch_update(a, 8, |v| v + 5).unwrap();
        assert_eq!(old, 10);
        assert_eq!(mem.read_u64(a).unwrap(), 15);
    }

    #[test]
    fn fetch_update_32bit_wraps_within_width() {
        let mem = KernelMem::new();
        let a = mem.map("r", 8, Perms::rw()).unwrap();
        mem.write_u32(a, u32::MAX).unwrap();
        mem.fetch_update(a, 4, |v| v.wrapping_add(1)).unwrap();
        assert_eq!(mem.read_u32(a).unwrap(), 0);
    }

    #[test]
    fn accounting_tracks_mapped_bytes() {
        let mem = KernelMem::new();
        let a = mem.map("a", 100, Perms::rw()).unwrap();
        let _b = mem.map("b", 50, Perms::rw()).unwrap();
        assert_eq!(mem.bytes_mapped(), 150);
        mem.unmap(a).unwrap();
        assert_eq!(mem.bytes_mapped(), 50);
        assert_eq!(mem.peak_bytes_mapped(), 150);
    }

    #[test]
    fn region_of_reports_metadata() {
        let mem = KernelMem::new();
        let a = mem.map("meta", 40, Perms::ro()).unwrap();
        let (base, len, perms) = mem.region_of(a + 10).unwrap();
        assert_eq!(base, a);
        assert_eq!(len, 40);
        assert_eq!(perms, Perms::ro());
        assert!(mem.region_of(a + 40).is_none());
    }

    #[test]
    fn domain_quota_enforced_and_credited() {
        let mem = KernelMem::new();
        mem.set_domain_quota(7, 100);
        let a = mem.map_in_domain("a", 60, Perms::rw(), 7).unwrap();
        assert_eq!(mem.domain_bytes(7), 60);
        // 60 + 50 > 100: refused with the typed quota fault.
        assert!(matches!(
            mem.map_in_domain("b", 50, Perms::rw(), 7),
            Err(Fault::QuotaExceeded {
                domain: 7,
                len: 50,
                limit: 100
            })
        ));
        // Freeing credits the domain, making the allocation viable.
        mem.unmap(a).unwrap();
        assert_eq!(mem.domain_bytes(7), 0);
        let b = mem.map_in_domain("b", 50, Perms::rw(), 7).unwrap();
        assert_eq!(mem.domain_bytes(7), 50);
        mem.unmap(b).unwrap();
    }

    #[test]
    fn domains_are_independent_and_zero_is_unlimited() {
        let mem = KernelMem::new();
        mem.set_domain_quota(1, 8);
        // Domain 2 has no quota; domain 0 never has one.
        mem.map_in_domain("two", 1000, Perms::rw(), 2).unwrap();
        mem.map("zero", 1000, Perms::rw()).unwrap();
        assert_eq!(mem.domain_bytes(2), 1000);
        assert_eq!(mem.domain_bytes(0), 0);
        assert!(mem.map_in_domain("one", 16, Perms::rw(), 1).is_err());
        mem.clear_domain_quota(1);
        assert!(mem.map_in_domain("one", 16, Perms::rw(), 1).is_ok());
    }

    #[test]
    fn spare_region_reuse_does_not_leak_domain_charge() {
        let mem = KernelMem::new();
        // Unmap a domain-tagged region so its shell lands in the spare
        // pool, then reuse the shell for a domain-0 mapping: the old
        // domain must not be charged again.
        let a = mem.map_in_domain("a", 32, Perms::rw(), 3).unwrap();
        mem.unmap(a).unwrap();
        let b = mem.map("plain", 32, Perms::rw()).unwrap();
        assert_eq!(mem.domain_bytes(3), 0);
        mem.unmap(b).unwrap();
        assert_eq!(mem.domain_bytes(3), 0);
    }

    #[test]
    fn overflowing_range_is_bad() {
        let mem = KernelMem::new();
        assert!(matches!(
            mem.read_bytes(u64::MAX - 2, 8),
            Err(Fault::BadRange { .. })
        ));
    }
}

#[cfg(test)]
mod pkey_tests {
    use super::*;

    #[test]
    fn unkeyed_regions_ignore_pkru() {
        let mem = KernelMem::new();
        let a = mem.map("plain", 8, Perms::rw()).unwrap();
        mem.set_pkey_rights(u16::MAX, u16::MAX);
        // Key 0 is never restricted.
        mem.write_u64(a, 1).unwrap();
        assert_eq!(mem.read_u64(a).unwrap(), 1);
    }

    #[test]
    fn write_disable_blocks_writes_not_reads() {
        let mem = KernelMem::new();
        let a = mem.map_with_pkey("ext-state", 8, Perms::rw(), 3).unwrap();
        mem.write_u64(a, 42).unwrap();
        mem.set_pkey_rights(0, 1 << 3);
        assert!(matches!(
            mem.write_u64(a, 7),
            Err(Fault::PkeyDenied {
                pkey: 3,
                write: true,
                ..
            })
        ));
        assert_eq!(mem.read_u64(a).unwrap(), 42);
        // Re-enable: writes work again (the fast trust-boundary flip).
        mem.set_pkey_rights(0, 0);
        mem.write_u64(a, 7).unwrap();
    }

    #[test]
    fn access_disable_blocks_everything() {
        let mem = KernelMem::new();
        let a = mem.map_with_pkey("secret", 8, Perms::rw(), 5).unwrap();
        mem.set_pkey_rights(1 << 5, 0);
        assert!(matches!(
            mem.read_u64(a),
            Err(Fault::PkeyDenied {
                pkey: 5,
                write: false,
                ..
            })
        ));
        assert!(mem.write_u64(a, 0).is_err());
    }

    #[test]
    fn keys_are_independent() {
        let mem = KernelMem::new();
        let a = mem.map_with_pkey("a", 8, Perms::rw(), 1).unwrap();
        let b = mem.map_with_pkey("b", 8, Perms::rw(), 2).unwrap();
        mem.set_pkey_rights(0, 1 << 1);
        assert!(mem.write_u64(a, 1).is_err());
        mem.write_u64(b, 1).unwrap();
    }

    #[test]
    fn invalid_key_rejected_at_map_time() {
        let mem = KernelMem::new();
        assert!(mem.map_with_pkey("x", 8, Perms::rw(), 16).is_err());
    }

    #[test]
    fn atomic_ops_honour_pkeys() {
        let mem = KernelMem::new();
        let a = mem.map_with_pkey("ctr", 8, Perms::rw(), 2).unwrap();
        mem.set_pkey_rights(0, 1 << 2);
        assert!(matches!(
            mem.fetch_update(a, 8, |v| v + 1),
            Err(Fault::PkeyDenied { .. })
        ));
    }
}
