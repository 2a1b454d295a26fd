//! `ipc_rpc`: the paper's A/B/V shape as a closed loop on `Kernel`.
//!
//! Six client threads in tenant containers A and B — two of each on
//! simulated CPU 0, one of each on CPU 1 — `Call` one shared-service
//! thread in container V on CPU 0, which answers every request with
//! `ReplyRecv`. CPU 0 clients do a `Getpid` or `Yield` after about one
//! RPC in four; CPU 1 clients do 3–8 such local calls between RPCs.
//! Every `SNAPSHOT_EVERY` RPCs the next thread to run issues
//! `TraceSnapshot` as the monitor. An op is one RPC, from the client's
//! `Call` to its `TakeMsg` of the reply.
//!
//! Same-CPU clients mostly take the direct-handoff fast path; the
//! handoff budget and requests queued by the cross-CPU clients force the
//! slow rendezvous, so the fastpath hit ratio sits below 1 and a
//! fastpath change shows.
//!
//! The simulated CPUs run as a discrete-event loop from one host thread:
//! the CPU with the smallest modeled clock runs its current thread's
//! next step. A simulated thread's code knows which thread it is, so the
//! loop reads the scheduler's current thread for the chosen CPU; every
//! state change goes through `Kernel::syscall`.

use atmo_kernel::{Kernel, KernelConfig, SyscallArgs, SyscallReturn};
use atmo_spec::XorShift64Star;

use crate::harness::{Clock, Workload};
use crate::metrics::{export_snapshot, kind_of, Counters, SysStats};
use crate::spans::{Layer, Spans};

const NCPUS: usize = 2;
/// Client threads per tenant on each CPU.
const CLIENTS_PER_CPU: [usize; NCPUS] = [2, 1];
/// A monitor `TraceSnapshot` after every this many completed RPCs.
const SNAPSHOT_EVERY: u64 = 512;
/// DES steps one op may take before the workload counts as stuck.
const MAX_STEPS_PER_OP: usize = 10_000;

/// The shared service's function of a request.
pub fn serve(client: u64, x: u64) -> [u64; 2] {
    [client, x.rotate_left(17) ^ 0x5bd1_e995_5bd1_e995]
}

/// Checks a reply taken by `client` for request `x`.
pub fn check_reply(client: u64, x: u64, reply: &[u64; 4]) -> Result<(), String> {
    let want = serve(client, x);
    if reply[..2] == want {
        Ok(())
    } else {
        Err(format!(
            "client {client}: reply {:?} to request {x} is not {want:?}",
            &reply[..2]
        ))
    }
}

struct Client {
    cpu: usize,
    proc: u64,
    cntr: u64,
    /// Outstanding request and the client CPU's modeled clock at `Call`.
    waiting: Option<(u64, u64)>,
    /// `Getpid`/`Yield` calls to make before the next `Call`.
    local_ops: u32,
}

#[derive(Clone, Copy)]
enum Role {
    /// The boot thread: it only yields.
    Init,
    Server,
    Client(usize),
}

/// The `ipc_rpc` workload state.
pub struct IpcRpc {
    k: Kernel,
    rng: XorShift64Star,
    roles: Vec<(usize, Role)>,
    server: usize,
    clients: Vec<Client>,
    /// A request the server already holds (`ReplyRecv` received it).
    server_req: Option<[u64; 2]>,
    /// Idle cycles per CPU: a CPU with no runnable thread waits for the
    /// CPU that wakes it.
    idle: [u64; NCPUS],
    sys: SysStats,
    completed: u64,
    snapshot_due: bool,
}

impl IpcRpc {
    fn vclock(&self, cpu: usize) -> u64 {
        self.k.cycles(cpu) + self.idle[cpu]
    }

    fn role(&self, t: usize) -> Option<Role> {
        self.roles.iter().find(|(x, _)| *x == t).map(|(_, r)| *r)
    }

    /// Runs one syscall on `cpu`, recording its kind, modeled cycles and
    /// span, and starting any CPU it woke from idle at the waker's clock.
    fn sys(&mut self, sp: &mut Spans, cpu: usize, args: SyscallArgs) -> SyscallReturn {
        let kind = kind_of(&args, false);
        let layer = if args == SyscallArgs::TraceSnapshot {
            Layer::TraceSnapshot
        } else {
            Layer::Syscall
        };
        let was_idle: [bool; NCPUS] = std::array::from_fn(|c| self.k.pm.sched.current(c).is_none());
        let before = self.k.cycles(cpu);
        let k = &mut self.k;
        let r = sp.time(layer, kind, || k.syscall(cpu, args));
        self.sys.record(kind, self.k.cycles(cpu) - before);
        let now = self.vclock(cpu);
        for (c, idle) in was_idle.into_iter().enumerate() {
            if idle && self.k.pm.sched.current(c).is_some() && self.vclock(c) < now {
                self.idle[c] += now - self.vclock(c);
            }
        }
        r
    }

    /// Local calls a client on `cpu` makes after an RPC.
    fn local_ops(&mut self, cpu: usize) -> u32 {
        if cpu == 0 {
            u32::from(self.rng.below(4) == 0)
        } else {
            3 + self.rng.below(6) as u32
        }
    }

    /// The CPU whose current thread runs next: smallest modeled clock.
    fn next_cpu(&self) -> Option<usize> {
        (0..NCPUS)
            .filter(|&c| self.k.pm.sched.current(c).is_some())
            .min_by_key(|&c| self.vclock(c))
    }

    fn server_step(&mut self, sp: &mut Spans, cpu: usize) -> Result<(), String> {
        let req = match self.server_req.take() {
            Some(r) => r,
            None => {
                let r = self.sys(sp, cpu, SyscallArgs::TakeMsg);
                let v = r.result.map_err(|e| format!("server TakeMsg: {e:?}"))?;
                [v[0], v[1]]
            }
        };
        let reply = serve(req[0], req[1]);
        let r = self.sys(
            sp,
            cpu,
            SyscallArgs::ReplyRecv {
                slot: 0,
                scalars: [reply[0], reply[1], 0, 0],
            },
        );
        let v = r.result.map_err(|e| format!("server ReplyRecv: {e:?}"))?;
        // Still running: the slow path received the next queued request,
        // which the return carries.
        if self.k.pm.sched.current(cpu) == Some(self.server) {
            self.server_req = Some([v[0], v[1]]);
        }
        Ok(())
    }

    /// One step of client `i`; `Some(latency)` when it completed an RPC.
    fn client_step(&mut self, sp: &mut Spans, cpu: usize, i: usize) -> Result<Option<u64>, String> {
        let id = i as u64;
        if let Some((x, issued)) = self.clients[i].waiting.take() {
            let r = self.sys(sp, cpu, SyscallArgs::TakeMsg);
            let reply = r.result.map_err(|e| format!("client {i} TakeMsg: {e:?}"))?;
            check_reply(id, x, &reply)?;
            self.clients[i].local_ops = self.local_ops(cpu);
            return Ok(Some(self.vclock(cpu) - issued));
        }
        if self.clients[i].local_ops > 0 {
            self.clients[i].local_ops -= 1;
            if self.rng.below(4) < 2 + cpu {
                let r = self.sys(sp, cpu, SyscallArgs::Getpid);
                let v = r.result.map_err(|e| format!("client {i} Getpid: {e:?}"))?;
                let c = &self.clients[i];
                if [v[0], v[1]] != [c.proc, c.cntr] {
                    return Err(format!("client {i} Getpid answered {:?}", &v[..2]));
                }
            } else {
                self.sys(sp, cpu, SyscallArgs::Yield)
                    .result
                    .map_err(|e| format!("client {i} Yield: {e:?}"))?;
            }
            return Ok(None);
        }
        let x = self.rng.next_u64();
        let issued = self.vclock(cpu);
        self.sys(
            sp,
            cpu,
            SyscallArgs::Call {
                slot: 0,
                scalars: [id, x, 0, 0],
            },
        )
        .result
        .map_err(|e| format!("client {i} Call: {e:?}"))?;
        self.clients[i].waiting = Some((x, issued));
        Ok(None)
    }
}

fn setup_call(k: &mut Kernel, args: SyscallArgs) -> u64 {
    let r = k.syscall(0, args.clone());
    assert!(r.is_ok(), "set-up {args:?}: {r:?}");
    r.val0()
}

impl Workload for IpcRpc {
    const WARMUP_OPS: u64 = 20_000;
    const WINDOW_OPS: u64 = 3 * Self::BLOCK_OPS;
    const BLOCK_OPS: u64 = 64 * SNAPSHOT_EVERY;

    fn boot(seed: u64) -> Self {
        let mut k = Kernel::boot(KernelConfig {
            mem_mib: 64,
            ncpus: NCPUS,
            root_quota: 4096,
        });
        let new_cntr = |k: &mut Kernel| {
            setup_call(
                k,
                SyscallArgs::NewContainer {
                    quota: 64,
                    cpus: vec![],
                },
            )
        };
        let v = new_cntr(&mut k) as usize;
        let tenants = [new_cntr(&mut k) as usize, new_cntr(&mut k) as usize];
        let sproc = setup_call(&mut k, SyscallArgs::NewProcess { cntr: v }) as usize;
        let server = setup_call(
            &mut k,
            SyscallArgs::NewThread {
                proc: sproc,
                cpu: 0,
            },
        ) as usize;
        let e = setup_call(&mut k, SyscallArgs::NewEndpoint { slot: 0 }) as usize;
        k.pm.install_descriptor(server, 0, e)
            .expect("server descriptor");
        let mut roles = vec![(k.init_thread, Role::Init), (server, Role::Server)];
        let mut clients = Vec::new();
        for (cpu, &per_tenant) in CLIENTS_PER_CPU.iter().enumerate() {
            for &cntr in &tenants {
                for _ in 0..per_tenant {
                    let proc = setup_call(&mut k, SyscallArgs::NewProcess { cntr }) as usize;
                    let thread = setup_call(&mut k, SyscallArgs::NewThread { proc, cpu }) as usize;
                    k.pm.install_descriptor(thread, 0, e)
                        .expect("client descriptor");
                    roles.push((thread, Role::Client(clients.len())));
                    clients.push(Client {
                        cpu,
                        proc: proc as u64,
                        cntr: cntr as u64,
                        waiting: None,
                        local_ops: 0,
                    });
                }
            }
        }
        // CPU 1 starts running its first client; on CPU 0 the boot thread
        // yields to the server, which parks as the endpoint's receiver.
        k.pm.timer_tick(1);
        while k.pm.sched.current(0) != Some(server) {
            setup_call(&mut k, SyscallArgs::Yield);
        }
        let r = k.syscall(0, SyscallArgs::Recv { slot: 0 });
        assert!(r.is_ok(), "server parks: {r:?}");
        let mut w = IpcRpc {
            k,
            rng: XorShift64Star::new(seed),
            server,
            roles,
            clients,
            server_req: None,
            idle: [0; NCPUS],
            sys: SysStats::default(),
            completed: 0,
            snapshot_due: false,
        };
        for i in 0..w.clients.len() {
            w.clients[i].local_ops = w.local_ops(w.clients[i].cpu);
        }
        w
    }

    fn op(&mut self, sp: &mut Spans, done: &mut Vec<u64>) -> Result<(), String> {
        for _ in 0..MAX_STEPS_PER_OP {
            let cpu = self.next_cpu().ok_or("no CPU has a runnable thread")?;
            if self.snapshot_due {
                self.snapshot_due = false;
                self.sys(sp, cpu, SyscallArgs::TraceSnapshot)
                    .result
                    .map_err(|e| format!("TraceSnapshot: {e:?}"))?;
                self.k.take_trace_snapshot();
                continue;
            }
            let t = self
                .k
                .pm
                .sched
                .current(cpu)
                .expect("chosen CPU runs a thread");
            match self
                .role(t)
                .ok_or_else(|| format!("unknown thread {t} running"))?
            {
                Role::Init => {
                    self.sys(sp, cpu, SyscallArgs::Yield)
                        .result
                        .map_err(|e| format!("boot thread Yield: {e:?}"))?;
                }
                Role::Server => self.server_step(sp, cpu)?,
                Role::Client(i) => {
                    if let Some(lat) = self.client_step(sp, cpu, i)? {
                        done.push(lat);
                        self.completed += 1;
                        self.snapshot_due = self.completed.is_multiple_of(SNAPSHOT_EVERY);
                        return Ok(());
                    }
                }
            }
        }
        Err("no RPC completed".to_string())
    }

    fn clock(&self) -> Clock {
        Clock {
            busy: (0..NCPUS).map(|c| self.k.cycles(c)).sum(),
            span: (0..NCPUS).map(|c| self.vclock(c)).max().unwrap_or(0),
        }
    }

    fn counters(&self) -> Counters {
        let mut out = Counters::new();
        export_snapshot(&self.k.trace_snapshot(), &mut out);
        self.sys.export(&mut out);
        out
    }

    fn verify(&mut self) -> Result<u64, String> {
        atmo_trace::trace_wf(&self.k.trace).map_err(|e| format!("trace_wf: {e}"))?;
        Ok(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_reply_is_rejected() {
        let good = serve(3, 42);
        assert!(check_reply(3, 42, &[good[0], good[1], 0, 0]).is_ok());
        assert!(check_reply(3, 42, &[good[0], good[1] ^ 1, 0, 0]).is_err());
        assert!(check_reply(3, 42, &[2, good[1], 0, 0]).is_err());
    }
}
