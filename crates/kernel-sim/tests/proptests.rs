//! Property tests for the kernel substrate: the checked address space
//! behaves like a byte-array oracle, and refcounts never go negative.

use std::collections::HashMap;

use proptest::prelude::*;

use kernel_sim::mem::{Fault, KernelMem, Perms, KERNEL_VA_BASE};
use kernel_sim::refcount::{ObjKind, RefTable};

#[derive(Debug, Clone)]
enum MemOp {
    Write {
        target: usize,
        off: u16,
        data: Vec<u8>,
    },
    Read {
        target: usize,
        off: u16,
        len: u8,
    },
    Fill {
        target: usize,
        off: u16,
        len: u8,
        byte: u8,
    },
    FetchAdd {
        target: usize,
        off: u16,
        delta: u32,
    },
    Map {
        len: u64,
        aligned: bool,
    },
    Unmap {
        idx: usize,
    },
}

fn mem_op() -> impl Strategy<Value = MemOp> {
    prop_oneof![
        (
            any::<usize>(),
            0u16..512,
            prop::collection::vec(any::<u8>(), 1..16)
        )
            .prop_map(|(target, off, data)| MemOp::Write { target, off, data }),
        (any::<usize>(), 0u16..512, 1u8..16).prop_map(|(target, off, len)| MemOp::Read {
            target,
            off,
            len
        }),
        (any::<usize>(), 0u16..512, 1u8..32, any::<u8>()).prop_map(|(target, off, len, byte)| {
            MemOp::Fill {
                target,
                off,
                len,
                byte,
            }
        }),
        (any::<usize>(), 0u16..512, any::<u32>())
            .prop_map(|(target, off, delta)| MemOp::FetchAdd { target, off, delta }),
        (1u64..256, any::<bool>()).prop_map(|(len, aligned)| MemOp::Map { len, aligned }),
        any::<usize>().prop_map(|idx| MemOp::Unmap { idx }),
    ]
}

/// The address-space model: `next_base` arithmetic plus every region
/// ever mapped, in mapping order, with its bytes while it is live.
struct MemModel {
    next_base: u64,
    regions: Vec<(u64, Option<Vec<u8>>)>,
}

impl MemModel {
    /// Guard gap the model leaves after each region.
    const GUARD: u64 = 0x1000;

    fn map(&mut self, len: u64, aligned: bool) -> u64 {
        let base = if aligned {
            (self.next_base + len - 1) & !(len - 1)
        } else {
            self.next_base
        };
        self.next_base = base + len + Self::GUARD;
        self.regions.push((base, Some(vec![0; len as usize])));
        base
    }

    /// `target` picks a region ever mapped (live or dead), or, one slot
    /// past them, the never-mapped space from `next_base` up.
    fn addr(&self, target: usize, off: u16) -> u64 {
        let slot = target % (self.regions.len() + 1);
        self.regions.get(slot).map_or(self.next_base, |r| r.0) + off as u64
    }

    /// The bytes `[addr, addr + len)` if they lie in one live region,
    /// else the fault `KernelMem` must report.
    fn bytes(&mut self, addr: u64, len: u64) -> Result<&mut [u8], Fault> {
        let Some((base, Some(data))) = self.regions.iter_mut().find(|(base, data)| {
            data.as_ref()
                .is_some_and(|d| addr >= *base && addr < *base + d.len() as u64)
        }) else {
            return Err(Fault::Unmapped { addr, len });
        };
        let off = (addr - *base) as usize;
        if off + len as usize > data.len() {
            return Err(Fault::OutOfBounds {
                addr,
                len,
                region_base: *base,
                region_len: data.len() as u64,
            });
        }
        Ok(&mut data[off..off + len as usize])
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every operation, mapping and unmapping included, matches a model
    /// of `next_base` arithmetic and the live regions: the same bases
    /// (so no address is ever reused), the same bytes, and the same
    /// `Ok` or `Fault` with equal fields on live addresses, dead ones,
    /// guard gaps and addresses never mapped.
    #[test]
    fn checked_memory_matches_oracle(sizes in prop::collection::vec(8u64..256, 4),
                                     ops in prop::collection::vec(mem_op(), 1..80)) {
        let mem = KernelMem::new();
        let mut model = MemModel { next_base: KERNEL_VA_BASE, regions: Vec::new() };
        for (i, size) in sizes.iter().enumerate() {
            let base = mem.map(format_args!("r{i}"), *size, Perms::rw());
            prop_assert_eq!(base, Ok(model.map(*size, false)));
        }
        for op in ops {
            match op {
                MemOp::Write { target, off, data } => {
                    let addr = model.addr(target, off);
                    let want = model
                        .bytes(addr, data.len() as u64)
                        .map(|b| b.copy_from_slice(&data));
                    prop_assert_eq!(mem.write_from(addr, &data), want);
                }
                MemOp::Read { target, off, len } => {
                    let addr = model.addr(target, off);
                    let want = model.bytes(addr, len as u64).map(|b| b.to_vec());
                    prop_assert_eq!(mem.read_bytes(addr, len as u64), want);
                }
                MemOp::Fill { target, off, len, byte } => {
                    let addr = model.addr(target, off);
                    let want = model.bytes(addr, len as u64).map(|b| b.fill(byte));
                    prop_assert_eq!(mem.fill(addr, len as u64, byte), want);
                }
                MemOp::FetchAdd { target, off, delta } => {
                    let addr = model.addr(target, off);
                    let want = model.bytes(addr, 4).map(|b| {
                        let old = u32::from_le_bytes((&*b).try_into().unwrap());
                        b.copy_from_slice(&old.wrapping_add(delta).to_le_bytes());
                        old as u64
                    });
                    let got = mem.fetch_update(addr, 4, |v| (v as u32).wrapping_add(delta) as u64);
                    prop_assert_eq!(got, want);
                }
                MemOp::Map { len, aligned } => {
                    let n = model.regions.len();
                    let (got, want) = if aligned {
                        let len = len.next_power_of_two();
                        let got = mem.map_aligned_in_domain(format_args!("m{n}"), len, Perms::rw(), 0);
                        (got, model.map(len, true))
                    } else {
                        (mem.map(format_args!("m{n}"), len, Perms::rw()), model.map(len, false))
                    };
                    prop_assert_eq!(got, Ok(want));
                }
                MemOp::Unmap { idx } => {
                    let n = model.regions.len();
                    let (base, data) = &mut model.regions[idx % n];
                    let want = match data.take() {
                        Some(_) => Ok(()),
                        None => Err(Fault::Unmapped { addr: *base, len: 0 }),
                    };
                    prop_assert_eq!(mem.unmap(*base), want);
                }
            }
        }
        // Final state identical everywhere: live regions hold the
        // model's bytes, and every dead base faults.
        for (base, data) in &model.regions {
            match data {
                Some(d) => prop_assert_eq!(&mem.read_bytes(*base, d.len() as u64).unwrap(), d),
                None => prop_assert_eq!(
                    mem.read_u8(*base),
                    Err(Fault::Unmapped { addr: *base, len: 1 })
                ),
            }
        }
    }

    /// Regions never alias: a write to one region is invisible to others.
    #[test]
    fn regions_are_disjoint(sizes in prop::collection::vec(1u64..128, 2..6),
                            target in any::<prop::sample::Index>(),
                            byte in any::<u8>()) {
        let mem = KernelMem::new();
        let bases: Vec<_> = sizes
            .iter()
            .enumerate()
            .map(|(i, s)| mem.map(format_args!("r{i}"), *s, Perms::rw()).unwrap())
            .collect();
        let t = target.index(bases.len());
        mem.fill(bases[t], sizes[t], byte).unwrap();
        for (i, base) in bases.iter().enumerate() {
            if i == t {
                continue;
            }
            let bytes = mem.read_bytes(*base, sizes[i]).unwrap();
            prop_assert!(bytes.iter().all(|b| *b == 0), "region {i} corrupted");
        }
    }

    /// Refcount get/put sequences match an integer oracle; underflow is
    /// always detected and state-preserving.
    #[test]
    fn refcounts_match_oracle(ops in prop::collection::vec(any::<bool>(), 1..200)) {
        let table = RefTable::default();
        let obj = table.register(ObjKind::Socket, 1);
        let mut oracle: u64 = 1;
        for is_get in ops {
            if is_get {
                prop_assert_eq!(table.get(obj).unwrap(), oracle + 1);
                oracle += 1;
            } else if oracle == 0 {
                prop_assert!(table.put(obj).is_err());
            } else {
                prop_assert_eq!(table.put(obj).unwrap(), oracle - 1);
                oracle -= 1;
            }
            prop_assert_eq!(table.count(obj), Some(oracle));
        }
    }
}

/// A case `checked_memory_matches_oracle` once shrank to: regions of 77,
/// 161, 130 and 91 bytes, each followed by a 4 KiB guard gap, put region
/// 3's base exactly 12,656 bytes past region 0's. A read at that offset
/// from region 0 lands in region 3, and the byte before it in the guard
/// gap after region 2.
#[test]
fn an_offset_past_region_0_reads_the_region_it_lands_in() {
    let mem = KernelMem::new();
    let bases: Vec<u64> = [77, 161, 130, 91]
        .iter()
        .enumerate()
        .map(|(i, len)| mem.map(format_args!("r{i}"), *len, Perms::rw()).unwrap())
        .collect();
    let addr = bases[0] + 12_656;
    assert_eq!(addr, bases[3]);
    mem.fill(bases[3], 1, 0x5a).unwrap();
    assert_eq!(mem.read_bytes(addr, 1), Ok(vec![0x5a]));
    assert_eq!(
        mem.read_bytes(addr - 1, 1),
        Err(Fault::Unmapped {
            addr: addr - 1,
            len: 1
        })
    );
}

/// Many regions mapped and unmapped in arbitrary order never confuse the
/// allocator: live regions stay readable, dead ones fault.
#[test]
fn map_unmap_interleaving() {
    let mem = KernelMem::new();
    let mut live: HashMap<u64, u64> = HashMap::new();
    let mut dead: Vec<u64> = Vec::new();
    for round in 0..50u64 {
        let base = mem
            .map(format_args!("r{round}"), 16 + round % 32, Perms::rw())
            .unwrap();
        live.insert(base, 16 + round % 32);
        if round % 3 == 0 {
            let victim = *live.keys().next().unwrap();
            mem.unmap(victim).unwrap();
            live.remove(&victim);
            dead.push(victim);
        }
    }
    for (base, len) in &live {
        assert!(mem.read_bytes(*base, *len).is_ok());
    }
    for base in &dead {
        assert!(mem.read_u8(*base).is_err());
    }
}
