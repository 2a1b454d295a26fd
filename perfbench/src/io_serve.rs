//! `io_serve`: an open loop of web and key-value requests on `SmpKernel`.
//!
//! Requests arrive on a seeded Poisson schedule at `OFFERED_RPS` per
//! modeled second (below the modeled capacity). Three kinds:
//!
//! * GET of a static page (75%): a request frame for a fresh flow, RSS
//!   steered to one of two `EventHttpd` shards (one per simulated CPU),
//!   each over a kernel-arena `ConnTable` and a `PktPool` built from
//!   `Mmap`'d frames. Page sizes run from 128 B to 256 KiB, so large
//!   responses outgrow the 16-slot pool and park their connection until
//!   TX frees slots. The GET/PUT/kv-GET split is synthetic. Requests say `Connection: close`; a GET completes
//!   when its connection closes after the last response segment.
//! * PUT to the `LogKv` on CPU 0 (15%): applied, then its record is
//!   persisted through `BlkSubmitBatch`/`BlkReapBatch` from a `BlkPool`
//!   pinned through the IOMMU. PUTs group-commit: staged records are
//!   submitted as one batch when CPU 0 would otherwise go idle, or once
//!   `MAX_BATCH` are staged; a PUT completes when its write is reaped.
//! * GET from the `LogKv` (10%), answered at once and checked against a
//!   `BTreeMap` oracle.
//!
//! An op is one request. The simulated CPUs advance as a discrete-event
//! loop from one host thread: before an arrival is handled every CPU
//! with unfinished work runs up to the arrival time, and a request is
//! timed from its due time, so a stall delays the requests behind it.

use std::collections::{BTreeMap, VecDeque};

use atmo_apps::event::{EV_RX_FRAME_COST, HTTP_PAYLOAD_OFFSET};
use atmo_apps::httpd::MAX_HEAD_LEN;
use atmo_apps::kvstore::kv_app_cost;
use atmo_apps::{ConnTable, EventCoreConfig, EventHttpd, HttpResponse, KvRequest, LogKv};
use atmo_drivers::{
    queue_for_seq, write_udp64, BlkBuf, BlkPool, DriverCosts, IxgbeDevice, IxgbeDriver, PktPool,
    PKT_SLOT_SIZE,
};
use atmo_hw::CycleMeter;
use atmo_kernel::{
    BlkOp, Kernel, KernelConfig, SmpKernel, SyscallArgs, SyscallReturn, BLK_DEVICE_ID,
};
use atmo_mem::{DmaWindow, PagePtr};
use atmo_spec::harness::Invariant;
use atmo_spec::XorShift64Star;

use crate::harness::{Clock, Workload, FREQ_HZ};
use crate::metrics::{export_snapshot, kind_of, Counters, SysStats};
use crate::spans::{Layer, Spans};

/// Offered load: requests per modeled second, both CPUs together.
pub const OFFERED_RPS: f64 = 400_000.0;
/// Simulated CPUs, one httpd shard each.
const NQ: usize = 2;
/// Arena pages per shard: connection slab and packet pool.
const CONN_PAGES: usize = 4;
const PKT_PAGES: usize = 8;
/// Block-pool pages, DMA-pinned for the block device.
const BLK_PAGES: usize = 32;
const PAGE: usize = 0x1000;
const ARENA_VA: usize = 0x4000_0000;
const BLK_VA: usize = 0x5000_0000;
const BLK_IOVA: usize = 0x10_0000;
/// PUTs staged before a commit is forced (below `BLK_PAGES`).
const MAX_BATCH: usize = 16;
/// Distinct kv keys.
const KEYS: usize = 1024;
/// Static page sizes (bytes) and their request weights (percent): the
/// long-tail object mix of `repro-httpd-mconn` (60% tiny, 30% small, 9%
/// medium, 1% huge), so both benchmarks judge the event core on one mix.
const PAGE_SIZES: [usize; 4] = [128, 2048, 16 * 1024, 256 * 1024];
const PAGE_WEIGHTS: [usize; 4] = [60, 30, 9, 1];
/// Event-loop ticks one catch-up may take before the shard counts as
/// stuck.
const MAX_TICKS: usize = 100_000;

/// The body of static page `i`.
fn page_body(i: usize) -> Vec<u8> {
    (0..PAGE_SIZES[i])
        .map(|j| b'a' + ((j * 7 + i) % 26) as u8)
        .collect()
}

/// The full response to a GET of page `i`: serialized head plus body.
fn page_response(i: usize) -> Vec<u8> {
    let body = page_body(i);
    let mut head = [0u8; MAX_HEAD_LEN];
    let n = HttpResponse::write_head(200, body.len(), &mut head);
    let mut out = head[..n].to_vec();
    out.extend_from_slice(&body);
    out
}

/// The GET request for page `i`.
fn page_request(i: usize) -> Vec<u8> {
    format!("GET /p{i} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n").into_bytes()
}

/// Checks the response bytes read back for page `i`.
pub fn check_response(i: usize, got: &[u8]) -> Result<(), String> {
    let want = page_response(i);
    if got == want {
        return Ok(());
    }
    let at = got.iter().zip(&want).position(|(a, b)| a != b);
    Err(format!(
        "page {i}: {} response bytes differ from the {} expected (first at {at:?})",
        got.len(),
        want.len()
    ))
}

/// Checks the store's contents against the oracle.
pub fn check_kv(
    entries: &[(Vec<u8>, Vec<u8>)],
    oracle: &BTreeMap<Vec<u8>, Vec<u8>>,
) -> Result<(), String> {
    let mut got = entries.to_vec();
    got.sort();
    let want: Vec<(Vec<u8>, Vec<u8>)> =
        oracle.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    if got == want {
        return Ok(());
    }
    let bad = got.iter().zip(&want).find(|(a, b)| a != b);
    Err(format!(
        "LogKv holds {} entries, oracle {}; first difference {bad:?}",
        got.len(),
        want.len()
    ))
}

/// An outstanding GET.
struct Get {
    flow: u64,
    due: u64,
}

/// A PUT waiting for its write.
struct Put {
    due: u64,
    cookie: u64,
    buf: BlkBuf,
}

struct Shard {
    ev: EventHttpd,
    drv: IxgbeDriver,
    pool: PktPool,
    meter: CycleMeter,
    idle: u64,
    gets: Vec<Get>,
    /// TX frames the served GETs must have produced.
    tx_expected: u64,
    served: u64,
}

/// The `io_serve` workload state.
pub struct IoServe {
    k: SmpKernel,
    shards: Vec<Shard>,
    kv: LogKv,
    oracle: BTreeMap<Vec<u8>, Vec<u8>>,
    blk: BlkPool,
    staged: Vec<Put>,
    rng: XorShift64Star,
    /// Due time of the next arrival (modeled cycles).
    next_due: f64,
    next_flow: u64,
    next_cookie: u64,
    /// Completion cookies read back from the kernel, in order.
    reaped: u64,
    ops: u64,
    sys: SysStats,
    requests: u64,
    frames: u64,
    /// Lateness of the most recent `WINDOW_OPS` arrivals.
    lateness: VecDeque<u64>,
    /// Per page: request bytes and response TX frames.
    page_gets: Vec<(Vec<u8>, u64)>,
    keys: Vec<Vec<u8>>,
}

fn setup_ok(k: &SmpKernel, args: SyscallArgs) -> u64 {
    let r = k.syscall(0, args.clone());
    assert!(r.is_ok(), "set-up {args:?}: {r:?}");
    r.val0()
}

/// The frames backing `len` pages mapped at `va` in the boot process.
fn frames_at(k: &SmpKernel, va: usize, len: usize) -> Vec<PagePtr> {
    k.with_kernel(|k| {
        let as_id = k.pm.proc(k.init_proc).addr_space;
        let table = k.mem.vm.table(as_id).expect("boot process has a space");
        (0..len)
            .map(|i| {
                table
                    .map_4k
                    .index(&(va + i * PAGE))
                    .expect("arena page mapped")
                    .frame
            })
            .collect()
    })
}

impl Shard {
    fn busy(&self) -> bool {
        !self.gets.is_empty()
    }

    /// One event-loop iteration; records finished GETs.
    fn tick(&mut self, sp: &mut Spans, done: &mut Vec<u64>) {
        let Shard {
            ev,
            drv,
            pool,
            meter,
            ..
        } = self;
        sp.time(Layer::EventTick, u8::MAX, || ev.tick(meter, drv, pool));
        let now = self.meter.now();
        let table = self.ev.table();
        let before = self.gets.len();
        self.gets.retain(|g| {
            let open = table.lookup(g.flow).is_some();
            if !open {
                done.push(now - g.due);
            }
            open
        });
        self.served += (before - self.gets.len()) as u64;
    }

    /// Writes one request frame for `flow` and ingests it.
    fn ingest(&mut self, sp: &mut Spans, flow: u64, payload: &[u8]) -> Result<(), String> {
        let Shard {
            ev, pool, meter, ..
        } = self;
        let buf = sp.time(Layer::PktPool, u8::MAX, || {
            let mut buf = pool.try_acquire()?;
            let frame = pool.slot_mut(&buf);
            write_udp64(frame, flow);
            frame[HTTP_PAYLOAD_OFFSET..HTTP_PAYLOAD_OFFSET + payload.len()]
                .copy_from_slice(payload);
            buf.set_len(HTTP_PAYLOAD_OFFSET + payload.len());
            Some(buf)
        });
        let buf = buf.ok_or("packet pool exhausted between ticks")?;
        let mut bufs = vec![buf];
        sp.time(Layer::EventIngest, u8::MAX, || {
            ev.ingest(meter, pool, &mut bufs)
        });
        Ok(())
    }
}

impl IoServe {
    fn sys(&mut self, sp: &mut Spans, args: SyscallArgs) -> SyscallReturn {
        let kind = kind_of(&args, false);
        let before = self.k.cycles(0);
        let k = &self.k;
        let r = sp.time(Layer::Syscall, kind, || k.syscall(0, args));
        let d = self.k.cycles(0) - before;
        self.sys.record(kind, d);
        // The kernel runs on CPU 0's timeline.
        self.shards[0].meter.charge(d);
        r
    }

    /// Submits every staged PUT as one batch and reaps them all.
    fn commit(&mut self, sp: &mut Spans, done: &mut Vec<u64>) -> Result<(), String> {
        if self.staged.is_empty() {
            return Ok(());
        }
        let ops: Vec<BlkOp> = self
            .staged
            .iter()
            .map(|p| BlkOp {
                cookie: p.cookie,
                iova: self.blk.iova_of(&p.buf),
                lba: p.cookie % 4096,
                write: true,
            })
            .collect();
        let n = ops.len() as u64;
        let r = self.sys(sp, SyscallArgs::BlkSubmitBatch { queue: 0, ops });
        match r.result {
            Ok(v) if v[0] == n => {}
            other => return Err(format!("BlkSubmitBatch of {n}: {other:?}")),
        }
        let mut inflight: VecDeque<Put> = self.staged.drain(..).collect();
        while !inflight.is_empty() {
            let r = self.sys(
                sp,
                SyscallArgs::BlkReapBatch {
                    queue: 0,
                    max: inflight.len(),
                    wait: true,
                },
            );
            let reaped = r.result.map_err(|e| format!("BlkReapBatch: {e:?}"))?[0] as usize;
            if reaped == 0 || reaped > inflight.len() {
                return Err(format!(
                    "BlkReapBatch reaped {reaped} of {}",
                    inflight.len()
                ));
            }
            // Writes complete in submission order.
            let now = self.shards[0].meter.now();
            for p in inflight.drain(..reaped) {
                done.push(now - p.due);
                let blk = &mut self.blk;
                sp.time(Layer::BlkPool, u8::MAX, || blk.release(p.buf));
            }
        }
        Ok(())
    }

    /// Runs shard `q` up to modeled time `due` while it has work.
    fn catch_up(
        &mut self,
        sp: &mut Spans,
        q: usize,
        due: u64,
        done: &mut Vec<u64>,
    ) -> Result<(), String> {
        let mut ticks = 0;
        loop {
            let now = self.shards[q].meter.now();
            if q == 0 && !self.staged.is_empty() && now < due && !self.shards[0].busy() {
                // About to go idle: group-commit what is staged.
                self.commit(sp, done)?;
                continue;
            }
            if now >= due || !self.shards[q].busy() {
                return Ok(());
            }
            self.shards[q].tick(sp, done);
            ticks += 1;
            if ticks > MAX_TICKS {
                return Err(format!("shard {q} made no progress"));
            }
        }
    }

    /// Handles a kv request frame on CPU 0.
    fn kv_request(
        &mut self,
        sp: &mut Spans,
        req: KvRequest,
        due: u64,
        done: &mut Vec<u64>,
    ) -> Result<(), String> {
        // The request arrives as a frame in CPU 0's packet pool; the kv
        // app decodes it in place and releases the slot.
        let flow = self.next_flow;
        self.next_flow += 1;
        let wire = req.encode();
        let s = &mut self.shards[0];
        let Shard { pool, meter, .. } = s;
        let decoded = sp.time(Layer::PktPool, u8::MAX, || {
            let mut buf = pool.try_acquire()?;
            let frame = pool.slot_mut(&buf);
            write_udp64(frame, flow);
            frame[HTTP_PAYLOAD_OFFSET..HTTP_PAYLOAD_OFFSET + wire.len()].copy_from_slice(&wire);
            buf.set_len(HTTP_PAYLOAD_OFFSET + wire.len());
            let req = KvRequest::decode(&pool.data(&buf)[HTTP_PAYLOAD_OFFSET..]);
            pool.release(buf);
            req
        });
        let req = decoded.ok_or("kv request did not decode")?;
        meter.charge(EV_RX_FRAME_COST + kv_app_cost(self.kv.len(), wire.len()));
        match req {
            KvRequest::Set(key, value) => {
                let kv = &mut self.kv;
                if !sp.time(Layer::KvSet, u8::MAX, || kv.set(&key, &value)) {
                    return Err("LogKv refused a SET".to_string());
                }
                self.oracle.insert(key.clone(), value.clone());
                // At most `MAX_BATCH` records are staged, well below the
                // pool's slot count.
                let blk = &mut self.blk;
                let buf = sp
                    .time(Layer::BlkPool, u8::MAX, || {
                        let mut buf = blk.try_acquire()?;
                        blk.slot_mut(&buf)[..wire.len()].copy_from_slice(&wire);
                        buf.set_len(wire.len());
                        Some(buf)
                    })
                    .ok_or("block pool exhausted")?;
                let cookie = self.next_cookie;
                self.next_cookie += 1;
                self.staged.push(Put { due, cookie, buf });
                if self.staged.len() >= MAX_BATCH {
                    self.commit(sp, done)?;
                }
                Ok(())
            }
            KvRequest::Get(key) => {
                let kv = &self.kv;
                let got = sp.time(Layer::KvGet, u8::MAX, || kv.get(&key).map(<[u8]>::to_vec));
                done.push(self.shards[0].meter.now() - due);
                if got.as_deref() == self.oracle.get(&key).map(Vec::as_slice) {
                    Ok(())
                } else {
                    Err(format!("LogKv GET {key:?} answered {got:?}"))
                }
            }
            KvRequest::Delete(_) => Err("unexpected DELETE".to_string()),
        }
    }

    /// Reads the completion cookies the kernel reaped since the last call;
    /// they must continue the submission order.
    fn drain_completions(&mut self) -> Result<(), String> {
        let cookies = self.k.with_kernel(|k| k.mem.blk.queues[0].drain_reaped());
        for c in cookies {
            if c != self.reaped {
                return Err(format!(
                    "block completion {c} arrived where {} was due",
                    self.reaped
                ));
            }
            self.reaped += 1;
        }
        Ok(())
    }

    /// Serves one more GET of page `i` on shard `q` alone and reads the
    /// response back: the simulated NIC keeps no TX payload, but the
    /// pool's LIFO free stack hands the just-transmitted slots back last
    /// first, with their bytes intact.
    fn read_back(&mut self, q: usize, i: usize) -> Result<Vec<u8>, String> {
        let flow = (self.next_flow..)
            .find(|&f| queue_for_seq(f, NQ) == q)
            .expect("some flow steers to every queue");
        self.next_flow = flow + 1;
        let total = page_response(i).len();
        let s = &mut self.shards[q];
        s.ingest(&mut Spans::off(), flow, &page_request(i))?;
        let mut out = Vec::with_capacity(total);
        for _ in 0..MAX_TICKS {
            let before = s.drv.device.tx_count();
            s.ev.tick(&mut s.meter, &mut s.drv, &mut s.pool);
            let n = (s.drv.device.tx_count() - before) as usize;
            let mut bufs: Vec<_> = (0..n).filter_map(|_| s.pool.try_acquire()).collect();
            if bufs.len() != n {
                return Err("read-back could not reclaim the TX slots".to_string());
            }
            bufs.reverse();
            for b in bufs {
                let take = (total - out.len()).min(PKT_SLOT_SIZE);
                out.extend_from_slice(&s.pool.slot_mut(&b)[..take]);
                s.pool.release(b);
            }
            if s.ev.table().lookup(flow).is_none() {
                s.tx_expected += (total.div_ceil(PKT_SLOT_SIZE)) as u64;
                return Ok(out);
            }
        }
        Err(format!("read-back of page {i} on shard {q} never finished"))
    }
}

impl Workload for IoServe {
    const WARMUP_OPS: u64 = 10_000;
    const WINDOW_OPS: u64 = 12 * Self::BLOCK_OPS;
    const BLOCK_OPS: u64 = 32_768;

    fn boot(seed: u64) -> Self {
        let k = SmpKernel::new(Kernel::boot(KernelConfig {
            mem_mib: 64,
            ncpus: NQ,
            root_quota: 2048,
        }));
        let per_shard = CONN_PAGES + PKT_PAGES;
        setup_ok(
            &k,
            SyscallArgs::Mmap {
                va_base: ARENA_VA,
                len: NQ * per_shard,
                writable: true,
            },
        );
        let arena = frames_at(&k, ARENA_VA, NQ * per_shard);
        // The block pool: mapped, pinned for the block device, then
        // unmapped — the IOMMU pin alone keeps the frames alive.
        setup_ok(
            &k,
            SyscallArgs::Mmap {
                va_base: BLK_VA,
                len: BLK_PAGES,
                writable: true,
            },
        );
        let dom = setup_ok(&k, SyscallArgs::IommuCreateDomain) as u32;
        setup_ok(
            &k,
            SyscallArgs::IommuAttach {
                domain: dom,
                device: BLK_DEVICE_ID,
            },
        );
        for i in 0..BLK_PAGES {
            setup_ok(
                &k,
                SyscallArgs::IommuMap {
                    domain: dom,
                    iova: BLK_IOVA + i * PAGE,
                    va: BLK_VA + i * PAGE,
                },
            );
        }
        let blk_frames = frames_at(&k, BLK_VA, BLK_PAGES);
        setup_ok(
            &k,
            SyscallArgs::Munmap {
                va_base: BLK_VA,
                len: BLK_PAGES,
            },
        );
        let sink = k.trace().clone();
        let mut blk = BlkPool::from_window(DmaWindow::new(BLK_IOVA, blk_frames));
        blk.attach_trace(sink.clone());
        let shards = arena
            .chunks(per_shard)
            .enumerate()
            .map(|(q, frames)| {
                let table = ConnTable::from_frames(frames[..CONN_PAGES].to_vec(), q, NQ);
                let mut ev = EventHttpd::new(EventCoreConfig::new(q, NQ), table);
                for i in 0..PAGE_SIZES.len() {
                    ev.add_page(&format!("/p{i}"), &page_body(i));
                }
                ev.attach_trace(sink.clone());
                let mut pool = PktPool::from_frames(frames[CONN_PAGES..].to_vec());
                pool.attach_trace(sink.clone());
                Shard {
                    ev,
                    drv: IxgbeDriver::new(
                        IxgbeDevice::steered(FREQ_HZ as u64, NQ, q),
                        DriverCosts::atmosphere(),
                    ),
                    pool,
                    meter: CycleMeter::new(),
                    idle: 0,
                    gets: Vec::new(),
                    tx_expected: 0,
                    served: 0,
                }
            })
            .collect();
        IoServe {
            k,
            shards,
            kv: LogKv::new(4 * KEYS, 4096),
            oracle: BTreeMap::new(),
            blk,
            staged: Vec::new(),
            rng: XorShift64Star::new(seed),
            next_due: 0.0,
            next_flow: 0,
            next_cookie: 0,
            reaped: 0,
            ops: 0,
            sys: SysStats::default(),
            requests: 0,
            frames: 0,
            lateness: VecDeque::with_capacity(Self::WINDOW_OPS as usize),
            page_gets: (0..PAGE_SIZES.len())
                .map(|i| {
                    let frames = page_response(i).len().div_ceil(PKT_SLOT_SIZE) as u64;
                    (page_request(i), frames)
                })
                .collect(),
            keys: (0..KEYS)
                .map(|i| format!("key-{i:04}").into_bytes())
                .collect(),
        }
    }

    fn op(&mut self, sp: &mut Spans, done: &mut Vec<u64>) -> Result<(), String> {
        // The next arrival: exponential gap, then its kind.
        let u = (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.next_due += -(1.0 - u).ln() * FREQ_HZ / OFFERED_RPS;
        let due = self.next_due as u64;
        let r = self.rng.below(100);
        let (q, flow) = if r < 75 {
            let flow = self.next_flow;
            self.next_flow += 1;
            (queue_for_seq(flow, NQ), Some(flow))
        } else {
            (0, None)
        };
        for s in 0..NQ {
            self.catch_up(sp, s, due, done)?;
        }
        let s = &mut self.shards[q];
        let now = s.meter.now();
        if now < due {
            s.meter.charge(due - now);
            s.idle += due - now;
        }
        if self.lateness.len() == Self::WINDOW_OPS as usize {
            self.lateness.pop_front();
        }
        self.lateness.push_back(now.saturating_sub(due));
        match flow {
            Some(flow) => {
                let mut roll = self.rng.below(100);
                let i = PAGE_WEIGHTS
                    .iter()
                    .position(|&w| {
                        let hit = roll < w;
                        roll = roll.saturating_sub(w);
                        hit
                    })
                    .expect("weights sum to 100");
                let (req, frames) = &self.page_gets[i];
                let s = &mut self.shards[q];
                s.ingest(sp, flow, req)?;
                s.gets.push(Get { flow, due });
                s.tx_expected += frames;
                self.requests += 1;
                self.frames += 1;
                self.shards[q].tick(sp, done);
                Ok(())
            }
            None => {
                let key = self.keys[self.rng.below(KEYS)].clone();
                let req = if r < 90 {
                    let len = 1 + self.rng.below(32);
                    let value = (0..len).map(|_| self.rng.below(256) as u8).collect();
                    KvRequest::Set(key, value)
                } else {
                    KvRequest::Get(key)
                };
                self.kv_request(sp, req, due, done)
            }
        }
    }

    fn clock(&self) -> Clock {
        Clock {
            busy: self.shards.iter().map(|s| s.meter.now() - s.idle).sum(),
            span: self.shards.iter().map(|s| s.meter.now()).max().unwrap_or(0),
        }
    }

    fn counters(&self) -> Counters {
        let mut out = Counters::new();
        export_snapshot(&self.k.trace_snapshot(), &mut out);
        self.sys.export(&mut out);
        out.insert("event.requests".to_string(), self.requests);
        out.insert("event.frames".to_string(), self.frames);
        out.insert("kv.compactions".to_string(), self.kv.compactions());
        out
    }

    fn background(&mut self, _sp: &mut Spans) -> Result<(), String> {
        // Drain the kernel's completion ring once per block, as the app
        // would read its CQ, checking the cookies arrive in order.
        self.ops += 1;
        if self.ops.is_multiple_of(Self::BLOCK_OPS) {
            self.drain_completions()?;
        }
        Ok(())
    }

    fn lateness(&self) -> Vec<u64> {
        self.lateness.iter().copied().collect()
    }

    fn verify(&mut self) -> Result<u64, String> {
        // Drain: every CPU finishes its outstanding work.
        let mut done = Vec::new();
        let mut sp = Spans::off();
        for q in 0..NQ {
            self.catch_up(&mut sp, q, u64::MAX, &mut done)?;
        }
        let unserved: u64 =
            self.shards.iter().map(|s| s.gets.len() as u64).sum::<u64>() + self.staged.len() as u64;
        for q in 0..NQ {
            let s = &self.shards[q];
            if s.served != s.ev.served() {
                return Err(format!(
                    "shard {q} closed {} connections but served {} responses",
                    s.served,
                    s.ev.served()
                ));
            }
        }
        for q in 0..NQ {
            for i in 0..PAGE_SIZES.len() {
                let got = self.read_back(q, i)?;
                check_response(i, &got)?;
            }
            let s = &self.shards[q];
            if s.drv.device.tx_count() != s.tx_expected {
                return Err(format!(
                    "shard {q} transmitted {} frames, the responses need {}",
                    s.drv.device.tx_count(),
                    s.tx_expected
                ));
            }
            if s.pool.in_flight() != 0 {
                return Err(format!(
                    "shard {q} pool has {} slots in flight",
                    s.pool.in_flight()
                ));
            }
            s.ev.wf()
                .map_err(|e| format!("shard {q} EventHttpd wf: {e}"))?;
        }
        if self.blk.in_flight() != 0 {
            return Err(format!(
                "block pool has {} slots in flight",
                self.blk.in_flight()
            ));
        }
        check_kv(&self.kv.entries(), &self.oracle)?;
        self.drain_completions()?;
        if self.reaped != self.next_cookie {
            return Err(format!(
                "{} block writes submitted, {} reaped",
                self.next_cookie, self.reaped
            ));
        }
        self.k
            .audit_total_wf()
            .map_err(|e| format!("audit_total_wf: {e}"))?;
        Ok(unserved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_response_is_rejected() {
        let mut r = page_response(3);
        assert!(check_response(3, &r).is_ok());
        let mid = r.len() / 2;
        r[mid] ^= 1;
        assert!(check_response(3, &r).is_err());
        assert!(check_response(3, &page_response(3)[1..]).is_err());
    }

    #[test]
    fn corrupted_kv_entry_is_rejected() {
        let mut oracle = BTreeMap::new();
        let mut kv = LogKv::new(64, 4096);
        for i in 0..10u8 {
            kv.set(&[b'k', i], &[i; 4]);
            oracle.insert(vec![b'k', i], vec![i; 4]);
        }
        assert!(check_kv(&kv.entries(), &oracle).is_ok());
        let mut entries = kv.entries();
        entries[4].1[0] ^= 0x80;
        assert!(check_kv(&entries, &oracle).is_err());
        entries = kv.entries();
        entries.pop();
        assert!(check_kv(&entries, &oracle).is_err());
    }
}
