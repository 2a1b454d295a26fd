//! Steady-state allocation discipline: once warmed up, the event-driven
//! httpd loop — ingest, parse, serve, TX flush, timers — performs zero
//! heap allocations. All buffers (ready ring, TX queue, RX scratch,
//! parked queue, expiry scratch, wheel slab) are preallocated and
//! recycled; responses serialize straight into pool slots.
//!
//! Lives in its own test binary, and the counting global allocator
//! counts only the thread that is measuring, so neither other tests nor
//! the test harness's own threads can add to the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use atmosphere::apps::event::HTTP_PAYLOAD_OFFSET;
use atmosphere::apps::{ConnTable, EventCoreConfig, EventHttpd};
use atmosphere::drivers::{
    queue_for_seq, write_udp64, DriverCosts, IxgbeDevice, IxgbeDriver, PktBuf, PktPool,
};
use atmosphere::hw::cycles::CycleMeter;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set while this thread is inside the measured window. `const`
    /// and drop-free, so reading it from the allocator never allocates.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if MEASURING.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const FREQ: u64 = 2_200_000_000;
const NQ: usize = 4;

/// The first `n` flows that RSS-steer to queue 0, precomputed so the
/// measured loop below never touches the heap for flow enumeration.
fn flows(n: usize) -> Vec<u64> {
    (0..)
        .filter(|&r| queue_for_seq(r, NQ) == 0)
        .take(n)
        .collect()
}

/// One request/response round for `flow`, reusing `bufs` as the ingest
/// scratch vector so the round itself allocates nothing.
fn round(
    ev: &mut EventHttpd,
    drv: &mut IxgbeDriver,
    pool: &mut PktPool,
    meter: &mut CycleMeter,
    bufs: &mut Vec<PktBuf>,
    flow: u64,
    req: &[u8],
) {
    let mut buf = pool.try_acquire().expect("pool has slots");
    let frame = pool.slot_mut(&buf);
    write_udp64(frame, flow);
    frame[HTTP_PAYLOAD_OFFSET..HTTP_PAYLOAD_OFFSET + req.len()].copy_from_slice(req);
    buf.set_len(HTTP_PAYLOAD_OFFSET + req.len());
    bufs.push(buf);
    ev.ingest(meter, pool, bufs);
    let served = ev.served();
    while ev.served() == served {
        ev.tick(meter, drv, pool);
    }
}

#[test]
fn steady_state_event_loop_allocates_nothing() {
    let table = ConnTable::anonymous(256, 0, NQ);
    let mut ev = EventHttpd::new(EventCoreConfig::new(0, NQ), table);
    ev.add_page("/index.html", &vec![b'x'; 2048]);
    ev.add_page("/big", &vec![b'y'; 9 * 1024]);
    let mut drv = IxgbeDriver::new(IxgbeDevice::steered(FREQ, NQ, 0), DriverCosts::atmosphere());
    let mut pool = PktPool::anonymous(64);
    let mut meter = CycleMeter::new();
    let mut bufs: Vec<PktBuf> = Vec::with_capacity(8);
    let req_small = b"GET /index.html HTTP/1.1\r\nHost: a\r\n\r\n";
    let req_big = b"GET /big HTTP/1.1\r\nHost: a\r\n\r\n";
    let flows = flows(32);

    // Warm-up: open every flow the measured loop will touch and drive
    // both response sizes through, so every internal Vec has grown to
    // its steady-state capacity.
    for &flow in &flows {
        round(
            &mut ev, &mut drv, &mut pool, &mut meter, &mut bufs, flow, req_small,
        );
        round(
            &mut ev, &mut drv, &mut pool, &mut meter, &mut bufs, flow, req_big,
        );
    }
    assert_eq!(ev.live(), 32);

    // Measured steady state: the same shapes, zero allocations.
    let before = ALLOCS.load(Ordering::Relaxed);
    MEASURING.set(true);
    for rep in 0..16 {
        for (i, &flow) in flows.iter().enumerate() {
            let req: &[u8] = if (rep + i) % 3 == 0 {
                req_big
            } else {
                req_small
            };
            round(
                &mut ev, &mut drv, &mut pool, &mut meter, &mut bufs, flow, req,
            );
        }
    }
    MEASURING.set(false);
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "steady-state event loop must not allocate"
    );
    assert_eq!(ev.served(), 64 + 16 * 32);
    assert_eq!(pool.in_flight(), 0);
}
