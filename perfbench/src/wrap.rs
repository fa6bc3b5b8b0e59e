//! Timing wrappers at the library's public trait seams, and the
//! benchmark's own send-only UDP transport.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io;
use std::net::{Ipv4Addr, SocketAddrV4, UdpSocket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sdalloc_core::{Addr, AddrSpace, AllocOutcome, Allocator, View};
use sdalloc_sap::wire::SapPacket;
use sdalloc_sap::SapTransport;
use sdalloc_sim::SimRng;

use crate::trace;

/// Which library layer a transport belongs to; names its spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `runtime::bus` (in-process loopback bus).
    Bus,
    /// `sap::net` (kernel UDP socket).
    Net,
}

impl Layer {
    fn names(self) -> [&'static str; 4] {
        match self {
            Layer::Bus => ["bus.send", "bus.wait", "bus.recv", "bus.recv_empty"],
            Layer::Net => ["net.send", "net.wait", "net.recv", "net.recv_empty"],
        }
    }
}

/// Packet counts a [`Wire`] keeps; shared with the thread that built it.
#[derive(Debug, Default)]
pub struct WireCounts {
    /// Packets handed to `send` (muted sends included).
    pub sent: AtomicU64,
    /// Packets `recv` returned.
    pub received: AtomicU64,
}

impl WireCounts {
    /// Packets sent so far.
    pub fn sent(&self) -> u64 {
        self.sent.load(Ordering::SeqCst)
    }

    /// Packets received so far.
    pub fn received(&self) -> u64 {
        self.received.load(Ordering::SeqCst)
    }
}

/// A [`SapTransport`] wrapper that counts packets and, when tracing is
/// on, records a span around every call.  A blocking receive is a
/// `*.wait` span; a non-blocking drain receive is `*.recv` when it
/// returned a packet.
pub struct Wire {
    inner: Box<dyn SapTransport>,
    layer: Layer,
    counts: Arc<WireCounts>,
    /// Drop sends instead of transmitting them (a receive-only site);
    /// they are still counted, and the run treats any as a failure.
    mute: bool,
}

impl Wire {
    /// Wrap `inner`; returns the wrapper and its shared counters.
    pub fn new(inner: Box<dyn SapTransport>, layer: Layer, mute: bool) -> (Wire, Arc<WireCounts>) {
        let counts = Arc::new(WireCounts::default());
        let wire = Wire {
            inner,
            layer,
            counts: Arc::clone(&counts),
            mute,
        };
        (wire, counts)
    }
}

/// Span id of a packet: its source and message-id hash, so a send and
/// the `on_packet` it causes share one id.
pub fn packet_id(pkt: &SapPacket) -> u64 {
    u64::from(u32::from(pkt.source)) << 16 | u64::from(pkt.msg_id_hash)
}

impl SapTransport for Wire {
    fn send(&self, pkt: &SapPacket) -> io::Result<usize> {
        let _s = trace::span(self.layer.names()[0], packet_id(pkt));
        self.counts.sent.fetch_add(1, Ordering::SeqCst);
        if self.mute {
            return Ok(0);
        }
        self.inner.send(pkt)
    }

    fn recv(&self, timeout: Duration) -> io::Result<Option<SapPacket>> {
        let [_, wait, got, empty] = self.layer.names();
        let s = trace::span(if timeout.is_zero() { empty } else { wait }, 0);
        let r = self.inner.recv(timeout)?;
        if r.is_some() {
            self.counts.received.fetch_add(1, Ordering::SeqCst);
            if timeout.is_zero() {
                s.rename(got);
            }
        }
        Ok(r)
    }

    fn take_rx_predecode_drops(&self) -> u64 {
        self.inner.take_rx_predecode_drops()
    }
}

/// A UDP socket that transmits SAP packets to a multicast group.  It
/// is not bound to the group's port, so it never receives anything.
/// Sends use TTL 0: the kernel loops them back to local members and
/// never puts them on a link.
pub struct UdpSender {
    sock: UdpSocket,
    dest: SocketAddrV4,
}

impl UdpSender {
    /// A sender to `group:port`.
    pub fn open(group: Ipv4Addr, port: u16) -> io::Result<UdpSender> {
        let sock = UdpSocket::bind(SocketAddrV4::new(Ipv4Addr::UNSPECIFIED, 0))?;
        sock.set_multicast_ttl_v4(0)?;
        sock.set_multicast_loop_v4(true)?;
        Ok(UdpSender {
            sock,
            dest: SocketAddrV4::new(group, port),
        })
    }
}

impl SapTransport for UdpSender {
    fn send(&self, pkt: &SapPacket) -> io::Result<usize> {
        self.sock.send_to(&pkt.encode(), self.dest)
    }

    fn recv(&self, _timeout: Duration) -> io::Result<Option<SapPacket>> {
        Ok(None)
    }
}

/// A site that transmits but hears nothing: whatever reaches its
/// transport is discarded, and `recv` waits out its budget.
pub struct SendOnly(pub Box<dyn SapTransport>);

impl SapTransport for SendOnly {
    fn send(&self, pkt: &SapPacket) -> io::Result<usize> {
        self.0.send(pkt)
    }

    fn recv(&self, timeout: Duration) -> io::Result<Option<SapPacket>> {
        while self.0.recv(Duration::ZERO)?.is_some() {}
        std::thread::sleep(timeout);
        Ok(None)
    }
}

/// An [`Allocator`] wrapper that records an `alloc.allocate` span per
/// call and counts widened allocations.
pub struct TimedAlloc {
    inner: Box<dyn Allocator>,
    widened: Arc<AtomicU64>,
}

impl TimedAlloc {
    /// Wrap `inner`; returns the wrapper and its widened-allocation count.
    pub fn new(inner: Box<dyn Allocator>) -> (TimedAlloc, Arc<AtomicU64>) {
        let widened = Arc::new(AtomicU64::new(0));
        let alloc = TimedAlloc {
            inner,
            widened: Arc::clone(&widened),
        };
        (alloc, widened)
    }
}

impl Allocator for TimedAlloc {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn allocate(
        &self,
        space: &AddrSpace,
        ttl: u8,
        view: &View<'_>,
        rng: &mut SimRng,
    ) -> Option<Addr> {
        let _s = trace::span("alloc.allocate", u64::from(ttl));
        self.inner.allocate(space, ttl, view, rng)
    }

    fn partition_range(&self, space: &AddrSpace, ttl: u8, view: &View<'_>) -> (u32, u32) {
        self.inner.partition_range(space, ttl, view)
    }

    fn allocate_or_widen(
        &self,
        space: &AddrSpace,
        ttl: u8,
        view: &View<'_>,
        rng: &mut SimRng,
    ) -> Option<AllocOutcome> {
        let _s = trace::span("alloc.allocate", u64::from(ttl));
        let out = self.inner.allocate_or_widen(space, ttl, view, rng);
        if out.is_some_and(|o| o.widened) {
            self.widened.fetch_add(1, Ordering::SeqCst);
        }
        out
    }
}

/// Global allocator that counts allocations made while the current
/// thread is inside a reader operation (see [`reader_section`]).
pub struct CountingAlloc;

static READER_ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static IN_READER: Cell<bool> = const { Cell::new(false) };
}

fn note_alloc() {
    if IN_READER.try_with(Cell::get).unwrap_or(false) {
        READER_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the added bookkeeping touches only a
// const-initialised thread-local flag and an atomic counter, neither of
// which allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: `ptr` came from `System`; the caller upholds the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Run `f` as a reader operation: allocations it makes are counted.
pub fn reader_section<R>(f: impl FnOnce() -> R) -> R {
    IN_READER.with(|c| c.set(true));
    let r = f();
    IN_READER.with(|c| c.set(false));
    r
}

/// Allocations counted inside reader operations so far.
pub fn reader_allocs() -> u64 {
    READER_ALLOCS.load(Ordering::Relaxed)
}
