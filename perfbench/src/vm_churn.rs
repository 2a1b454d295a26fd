//! `vm_churn`: tenant lifecycles and address-space churn on `SmpKernel`
//! with node replication and incremental auditing on.
//!
//! Four simulated CPUs each run a manager thread and the tenant threads
//! it spawns (`NewContainer` → `NewProcess` → `NewThread`) and later
//! reclaims (`TerminateContainer`, which also tears down the tenant's
//! IOMMU domains). Tenant threads `Mmap`/`Munmap` regions of 1–64 pages
//! — now and then a 2 MiB-aligned 512-page run eligible for superpage
//! promotion — and create IOMMU domains and pin/unpin pages in them.
//! Replicated reads (`Getpid`, `VmResolve`, `ThreadLookup`) make up about
//! four in five calls; `Yield` rotates a CPU's threads. An op is one
//! syscall. `audit_incremental` runs every `AUDIT_INCREMENTAL_EVERY` ops
//! and `audit_total_wf` every `AUDIT_FULL_EVERY` ops.
//!
//! The CPUs run as a discrete-event loop from one host thread: the CPU
//! with the smallest modeled clock issues next. No call here blocks, so
//! each CPU's current thread is known from `Yield`'s answer.
//!
//! Every `VmResolve` answer is checked against the generator's own page
//! map. A 512-page run is mapped by one 2 MiB-aligned `Mmap`, so the
//! kernel may promote it to a 2 MiB superpage, and `VmResolve` reads only
//! 4 KiB entries (both the locked path and the replica's `MemView`), so
//! it answers `[0, 0]` ("unmapped") for every page of a promoted run.
//! That one answer, and only inside such a run, is counted as
//! `kernel.vm.resolve_mismatches_in_huge_runs` instead of failing the op
//! (see [`check_resolve`]). A run answers the same for all its pages
//! until an `IommuMap` into it demotes it to 4 KiB entries, and the runs
//! seen promoted never outnumber the kernel's own promotion count; every
//! other wrong answer fails.

use atmo_kernel::{Kernel, KernelConfig, SmpKernel, SyscallArgs, SyscallReturn};
use atmo_spec::XorShift64Star;

use crate::harness::{Clock, Workload};
use crate::metrics::{export_snapshot, kind_of, Counters, SysStats};
use crate::spans::{Layer, Spans};

const NCPUS: usize = 4;
/// Live tenants per CPU are kept within this range.
const MIN_TENANTS: usize = 2;
const MAX_TENANTS: usize = 3;
/// Page quota of one tenant container.
const TENANT_QUOTA: usize = 1024;
/// Pages one tenant keeps mapped at most.
const MAX_MAPPED: usize = 640;
/// IOMMU domains per tenant, and pins per domain.
const MAX_DOMAINS: usize = 2;
const MAX_PINS: usize = 32;
/// Promotion-eligible run length (one 2 MiB superpage of 4 KiB pages).
const HUGE_RUN: usize = 512;
const PAGE: usize = 0x1000;
const HUGE: usize = 0x20_0000;
/// First tenant virtual address; first IOVA of a domain.
const VA_BASE: usize = 0x4000_0000;
const IOVA_BASE: usize = 0x1000_0000;
/// Audit cadences, in ops.
const AUDIT_INCREMENTAL_EVERY: u64 = 256;
const AUDIT_FULL_EVERY: u64 = 8_192;

struct Region {
    va: usize,
    len: usize,
    /// What `VmResolve` answers for the region's pages.
    resolves: Resolves,
}

/// What `VmResolve` is known to answer for the pages of a mapped region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Resolves {
    /// A 512-page run not resolved or pinned since it was mapped: the
    /// kernel may have promoted it.
    Unknown,
    /// A run the kernel promoted: `[0, 0]`, the known defect.
    Promoted,
    /// 4 KiB entries: `[1, 1]` (mapped, writable).
    Mapped,
}

/// Checks a `VmResolve` answer `v` for a mapped page of a region whose
/// pages answered `state` so far, and updates `state`. Returns whether
/// the answer is the promoted-superpage defect: `[0, 0]` is accepted only
/// in a 512-page run that has not answered `[1, 1]`, and `[1, 1]` only in
/// a region that has not answered `[0, 0]`.
pub fn check_resolve(state: &mut Resolves, v: [u64; 2]) -> Result<bool, String> {
    match (v, *state) {
        ([1, 1], Resolves::Unknown | Resolves::Mapped) => {
            *state = Resolves::Mapped;
            Ok(false)
        }
        ([0, 0], Resolves::Unknown | Resolves::Promoted) => {
            *state = Resolves::Promoted;
            Ok(true)
        }
        _ => Err(format!(
            "answered {v:?} for a mapped page of a region that answered {state:?}"
        )),
    }
}

struct Domain {
    id: u32,
    /// Pinned IOVAs.
    pins: Vec<usize>,
    next_iova: usize,
}

struct Tenant {
    cntr: usize,
    proc: usize,
    thread: usize,
    regions: Vec<Region>,
    mapped: usize,
    domains: Vec<Domain>,
    /// Bump pointer: every address at or above it is unmapped.
    next_va: usize,
    /// Base of the last unmapped region (unmapped since).
    freed_va: Option<usize>,
}

enum Spawn {
    Idle,
    Process { cntr: usize },
    Thread { cntr: usize, proc: usize },
}

struct Cpu {
    id: usize,
    rng: XorShift64Star,
    /// The manager's thread, process and container.
    manager: (usize, usize, usize),
    current: usize,
    tenants: Vec<Tenant>,
    spawn: Spawn,
}

/// The `vm_churn` workload state.
pub struct VmChurn {
    k: SmpKernel,
    cpus: Vec<Cpu>,
    sys: SysStats,
    ops: u64,
    reads: u64,
    writes: u64,
    /// `VmResolve` answers of `[0, 0]` inside promoted 512-page runs.
    huge_mismatches: u64,
    /// 512-page runs seen answering `[0, 0]` (each one a promotion).
    promoted_runs: u64,
}

/// What a generated call expects back.
enum Expect {
    /// A `VmResolve` of a page of the current tenant's region at this
    /// index, or (`None`) of an address known unmapped.
    Resolve(Option<usize>),
    /// `[proc, cntr]` of a `Getpid`/`ThreadLookup`.
    Owner(usize, usize),
    Spawned,
    Terminated(usize),
    Mapped(Region),
    Unmapped(usize),
    DomainCreated,
    /// Domain index, IOVA and the region the pinned page lies in.
    Pinned(usize, usize, usize),
    Unpinned(usize, usize),
    Yielded,
}

fn setup_call(k: &mut Kernel, args: SyscallArgs) -> usize {
    let r = k.syscall(0, args.clone());
    assert!(r.is_ok(), "set-up {args:?}: {r:?}");
    r.val0() as usize
}

impl Cpu {
    fn tenant_of(&self, thread: usize) -> Option<usize> {
        self.tenants.iter().position(|t| t.thread == thread)
    }

    /// The next call of the manager thread.
    fn manager_call(&mut self) -> (SyscallArgs, Expect) {
        match self.spawn {
            Spawn::Process { cntr } => return (SyscallArgs::NewProcess { cntr }, Expect::Spawned),
            Spawn::Thread { proc, .. } => {
                let args = SyscallArgs::NewThread { proc, cpu: self.id };
                return (args, Expect::Spawned);
            }
            Spawn::Idle => {}
        }
        let (_, proc, cntr) = self.manager;
        let n = self.tenants.len();
        let r = self.rng.below(100);
        if n < MIN_TENANTS || (r < 8 && n < MAX_TENANTS) {
            let args = SyscallArgs::NewContainer {
                quota: TENANT_QUOTA,
                cpus: vec![],
            };
            return (args, Expect::Spawned);
        }
        if r < 16 && n > MIN_TENANTS {
            let cntr = self.tenants[0].cntr;
            return (
                SyscallArgs::TerminateContainer { cntr },
                Expect::Terminated(cntr),
            );
        }
        if r < 30 {
            return (SyscallArgs::Yield, Expect::Yielded);
        }
        if r < 65 {
            return (SyscallArgs::Getpid, Expect::Owner(proc, cntr));
        }
        let t = &self.tenants[self.rng.below(n)];
        (
            SyscallArgs::ThreadLookup { thread: t.thread },
            Expect::Owner(t.proc, t.cntr),
        )
    }

    /// The next call of tenant `i`'s thread.
    fn tenant_call(&mut self, i: usize) -> (SyscallArgs, Expect) {
        let rng = &mut self.rng;
        let t = &mut self.tenants[i];
        let r = rng.below(100);
        if r < 50 {
            // A mapped page of a live region, or an address known unmapped.
            if !t.regions.is_empty() && rng.below(3) > 0 {
                let idx = rng.below(t.regions.len());
                let reg = &t.regions[idx];
                let va = reg.va + rng.below(reg.len) * PAGE;
                return (SyscallArgs::VmResolve { va }, Expect::Resolve(Some(idx)));
            }
            let va = match t.freed_va {
                Some(va) if rng.below(2) == 0 => va,
                _ => t.next_va,
            };
            return (SyscallArgs::VmResolve { va }, Expect::Resolve(None));
        }
        if r < 65 {
            return (SyscallArgs::Getpid, Expect::Owner(t.proc, t.cntr));
        }
        if r < 79 {
            return (
                SyscallArgs::ThreadLookup { thread: t.thread },
                Expect::Owner(t.proc, t.cntr),
            );
        }
        let want_map = r < 86;
        if (want_map || t.regions.is_empty()) && t.mapped + 64 <= MAX_MAPPED {
            let huge = rng.below(40) == 0 && t.mapped + HUGE_RUN <= MAX_MAPPED;
            let len = if huge { HUGE_RUN } else { 1 + rng.below(64) };
            let va = if huge {
                t.next_va.next_multiple_of(HUGE)
            } else {
                t.next_va
            };
            // One unmapped guard page after every region.
            t.next_va = va + (len + 1) * PAGE;
            let args = SyscallArgs::Mmap {
                va_base: va,
                len,
                writable: true,
            };
            let resolves = if huge {
                Resolves::Unknown
            } else {
                Resolves::Mapped
            };
            return (args, Expect::Mapped(Region { va, len, resolves }));
        }
        if r < 93 && !t.regions.is_empty() {
            let idx = rng.below(t.regions.len());
            let reg = &t.regions[idx];
            let args = SyscallArgs::Munmap {
                va_base: reg.va,
                len: reg.len,
            };
            return (args, Expect::Unmapped(idx));
        }
        if r < 94 && t.domains.len() < MAX_DOMAINS {
            return (SyscallArgs::IommuCreateDomain, Expect::DomainCreated);
        }
        if r < 98 && !t.domains.is_empty() {
            let d = rng.below(t.domains.len());
            let dom = &mut t.domains[d];
            if dom.pins.len() < MAX_PINS && !t.regions.is_empty() && rng.below(2) == 0 {
                let r = rng.below(t.regions.len());
                let reg = &t.regions[r];
                let va = reg.va + rng.below(reg.len) * PAGE;
                let iova = dom.next_iova;
                dom.next_iova += PAGE;
                let args = SyscallArgs::IommuMap {
                    domain: dom.id,
                    iova,
                    va,
                };
                return (args, Expect::Pinned(d, iova, r));
            }
            if !dom.pins.is_empty() {
                let p = rng.below(dom.pins.len());
                let args = SyscallArgs::IommuUnmap {
                    domain: dom.id,
                    iova: dom.pins[p],
                };
                return (args, Expect::Unpinned(d, p));
            }
        }
        (SyscallArgs::Yield, Expect::Yielded)
    }
}

impl VmChurn {
    /// Applies a successful return to the shadow state, or explains why
    /// the answer is wrong.
    fn apply(
        &mut self,
        cpu: usize,
        args: &SyscallArgs,
        expect: Expect,
        v: [u64; 4],
    ) -> Result<(), String> {
        let c = &mut self.cpus[cpu];
        let cur = c.tenant_of(c.current);
        match expect {
            Expect::Resolve(Some(idx)) => {
                let t = &mut c.tenants[cur.expect("tenant call")];
                let state = &mut t.regions[idx].resolves;
                let was = *state;
                if check_resolve(state, [v[0], v[1]]).map_err(|e| format!("{args:?} {e}"))? {
                    self.huge_mismatches += 1;
                    if was == Resolves::Unknown {
                        self.promoted_runs += 1;
                    }
                }
            }
            Expect::Resolve(None) => {
                if v[..2] != [0, 0] {
                    return Err(format!(
                        "{args:?} answered {:?} for an unmapped address",
                        &v[..2]
                    ));
                }
            }
            Expect::Owner(proc, cntr) => {
                if [v[0], v[1]] != [proc as u64, cntr as u64] {
                    return Err(format!("{args:?} answered {:?}", &v[..2]));
                }
            }
            Expect::Spawned => {
                c.spawn = match c.spawn {
                    Spawn::Idle => Spawn::Process {
                        cntr: v[0] as usize,
                    },
                    Spawn::Process { cntr } => Spawn::Thread {
                        cntr,
                        proc: v[0] as usize,
                    },
                    Spawn::Thread { cntr, proc } => {
                        c.tenants.push(Tenant {
                            cntr,
                            proc,
                            thread: v[0] as usize,
                            regions: Vec::new(),
                            mapped: 0,
                            domains: Vec::new(),
                            next_va: VA_BASE,
                            freed_va: None,
                        });
                        Spawn::Idle
                    }
                };
            }
            Expect::Terminated(cntr) => c.tenants.retain(|t| t.cntr != cntr),
            Expect::Mapped(reg) => {
                let t = &mut c.tenants[cur.expect("tenant call")];
                t.mapped += reg.len;
                t.regions.push(reg);
            }
            Expect::Unmapped(idx) => {
                let t = &mut c.tenants[cur.expect("tenant call")];
                let reg = t.regions.swap_remove(idx);
                t.mapped -= reg.len;
                t.freed_va = Some(reg.va);
            }
            Expect::DomainCreated => {
                let t = &mut c.tenants[cur.expect("tenant call")];
                t.domains.push(Domain {
                    id: v[0] as u32,
                    pins: Vec::new(),
                    next_iova: IOVA_BASE,
                });
            }
            Expect::Pinned(d, iova, r) => {
                let t = &mut c.tenants[cur.expect("tenant call")];
                t.domains[d].pins.push(iova);
                // Pinning a page of a promoted run demotes the run to 4 KiB
                // entries.
                t.regions[r].resolves = Resolves::Mapped;
            }
            Expect::Unpinned(d, p) => {
                c.tenants[cur.expect("tenant call")].domains[d]
                    .pins
                    .swap_remove(p);
            }
            Expect::Yielded => {
                let next = v[0] as usize;
                if next != c.manager.0 && c.tenant_of(next).is_none() {
                    return Err(format!("cpu {cpu} yielded to unknown thread {next}"));
                }
                c.current = next;
            }
        }
        Ok(())
    }

    fn sys(&mut self, sp: &mut Spans, cpu: usize, args: SyscallArgs) -> (SyscallReturn, u64) {
        let kind = kind_of(&args, true);
        if args.nr_read() {
            self.reads += 1;
        } else {
            self.writes += 1;
        }
        let before = self.k.cycles(cpu);
        let k = &self.k;
        let r = sp.time(Layer::Syscall, kind, || k.syscall(cpu, args));
        let d = self.k.cycles(cpu) - before;
        self.sys.record(kind, d);
        (r, d)
    }
}

impl Workload for VmChurn {
    const WARMUP_OPS: u64 = 20_000;
    const WINDOW_OPS: u64 = 24 * Self::BLOCK_OPS;
    const BLOCK_OPS: u64 = AUDIT_FULL_EVERY;

    fn boot(seed: u64) -> Self {
        let mut k = Kernel::boot(KernelConfig {
            mem_mib: 128,
            ncpus: NCPUS,
            root_quota: 24_000,
        });
        let mut managers = vec![(k.init_thread, k.init_proc, k.root_container)];
        for cpu in 1..NCPUS {
            let quota = MAX_TENANTS * (TENANT_QUOTA + 8) + 64;
            let cntr = setup_call(
                &mut k,
                SyscallArgs::NewContainer {
                    quota,
                    cpus: vec![cpu],
                },
            );
            let proc = setup_call(&mut k, SyscallArgs::NewProcess { cntr });
            let thread = setup_call(&mut k, SyscallArgs::NewThread { proc, cpu });
            k.pm.timer_tick(cpu);
            managers.push((thread, proc, cntr));
        }
        let smp = SmpKernel::new(k);
        smp.enable_nr();
        smp.enable_incremental_audit();
        let cpus = managers
            .into_iter()
            .enumerate()
            .map(|(cpu, m)| Cpu {
                id: cpu,
                rng: XorShift64Star::new(
                    seed ^ (cpu as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                ),
                manager: m,
                current: m.0,
                tenants: Vec::new(),
                spawn: Spawn::Idle,
            })
            .collect();
        VmChurn {
            k: smp,
            cpus,
            sys: SysStats::default(),
            ops: 0,
            reads: 0,
            writes: 0,
            huge_mismatches: 0,
            promoted_runs: 0,
        }
    }

    fn op(&mut self, sp: &mut Spans, done: &mut Vec<u64>) -> Result<(), String> {
        let cpu = (0..NCPUS)
            .min_by_key(|&c| self.k.cycles(c))
            .expect("at least one CPU");
        let c = &mut self.cpus[cpu];
        let (args, expect) = match c.tenant_of(c.current) {
            Some(i) => c.tenant_call(i),
            None => c.manager_call(),
        };
        self.ops += 1;
        let (r, cycles) = self.sys(sp, cpu, args.clone());
        done.push(cycles);
        match r.result {
            Ok(v) => self.apply(cpu, &args, expect, v),
            Err(e) => {
                // A failed spawn step abandons the half-built tenant.
                if matches!(expect, Expect::Spawned) {
                    self.cpus[cpu].spawn = Spawn::Idle;
                }
                Err(format!("cpu {cpu}: {args:?} failed: {e:?}"))
            }
        }
    }

    fn background(&mut self, sp: &mut Spans) -> Result<(), String> {
        if self.ops.is_multiple_of(AUDIT_INCREMENTAL_EVERY) {
            let k = &self.k;
            sp.time(Layer::AuditIncremental, u8::MAX, || k.audit_incremental())
                .map_err(|e| format!("audit_incremental: {e}"))?;
        }
        if self.ops.is_multiple_of(AUDIT_FULL_EVERY) {
            let k = &self.k;
            sp.time(Layer::AuditFull, u8::MAX, || k.audit_total_wf())
                .map_err(|e| format!("audit_total_wf: {e}"))?;
        }
        Ok(())
    }

    fn clock(&self) -> Clock {
        let cycles: Vec<u64> = (0..NCPUS).map(|c| self.k.cycles(c)).collect();
        Clock {
            busy: cycles.iter().sum(),
            span: cycles.iter().copied().max().unwrap_or(0),
        }
    }

    fn counters(&self) -> Counters {
        let mut out = Counters::new();
        export_snapshot(&self.k.trace_snapshot(), &mut out);
        self.sys.export(&mut out);
        let mut cache = [0u64; 4];
        for cpu in 0..NCPUS {
            let s = self.k.cache_stats(cpu);
            for (acc, v) in cache
                .iter_mut()
                .zip([s.fast_allocs, s.fast_frees, s.refills, s.drains])
            {
                *acc += v;
            }
        }
        for (k, v) in [
            "cache.fast_allocs",
            "cache.fast_frees",
            "cache.refills",
            "cache.drains",
        ]
        .into_iter()
        .zip(cache)
        {
            out.insert(k.to_string(), v);
        }
        out.insert("ops.reads".to_string(), self.reads);
        out.insert("ops.writes".to_string(), self.writes);
        out.insert(
            "vm.huge_resolve_mismatches".to_string(),
            self.huge_mismatches,
        );
        out
    }

    fn verify(&mut self) -> Result<u64, String> {
        self.k
            .audit_incremental()
            .map_err(|e| format!("final audit_incremental: {e}"))?;
        self.k
            .audit_total_wf()
            .map_err(|e| format!("final audit_total_wf: {e}"))?;
        self.k
            .nr()
            .ok_or("node replication is off")?
            .nr_wf()
            .map_err(|e| format!("nr_wf: {e}"))?;
        let promotions = self.k.trace_snapshot().counters.vm.superpage_promotions;
        if self.promoted_runs > promotions {
            return Err(format!(
                "{} 512-page runs answered VmResolve as promoted, the kernel promoted {promotions}",
                self.promoted_runs
            ));
        }
        if self.huge_mismatches > 0 {
            eprintln!(
                "perfbench: vm_churn: {} VmResolve answers in {} promoted 512-page runs said \
                 \"unmapped\" for a mapped page",
                self.huge_mismatches, self.promoted_runs
            );
        }
        Ok(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_check_admits_only_the_promoted_run_defect() {
        // 4 KiB regions answer [1, 1] and nothing else.
        let mut plain = Resolves::Mapped;
        assert_eq!(check_resolve(&mut plain, [1, 1]), Ok(false));
        assert!(check_resolve(&mut plain, [0, 0]).is_err());
        assert!(check_resolve(&mut Resolves::Mapped, [1, 0]).is_err());
        // A lost writable bit is wrong in a 512-page run too.
        assert!(check_resolve(&mut Resolves::Unknown, [1, 0]).is_err());
        assert!(check_resolve(&mut Resolves::Promoted, [1, 0]).is_err());
        // A run answers [0, 0] throughout once promoted ...
        let mut run = Resolves::Unknown;
        assert_eq!(check_resolve(&mut run, [0, 0]), Ok(true));
        assert_eq!(run, Resolves::Promoted);
        assert!(check_resolve(&mut run, [1, 1]).is_err());
        // ... and [1, 1] throughout once it answered so.
        let mut run = Resolves::Unknown;
        assert_eq!(check_resolve(&mut run, [1, 1]), Ok(false));
        assert!(check_resolve(&mut run, [0, 0]).is_err());
    }
}
