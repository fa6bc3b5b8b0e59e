//! The two agents under test, run either threaded through
//! [`Runtime::spawn`] (end-to-end numbers) or as the benchmark's own
//! stepped loops that make the same public calls as
//! [`AgentDriver::step`] inside spans (per-layer numbers).
//!
//! Agent A (index 0) creates sessions; agent B (index 1) is the site
//! whose published snapshots the readers query.  Where the workload
//! says so, A hears the generator too; otherwise A is a send-only site
//! (over UDP it has to be: two kernel sockets cannot share the SAP
//! port), allocating from a space of its own.

use std::io;
use std::net::Ipv4Addr;
use std::sync::atomic::AtomicU64;
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sdalloc_core::{AdaptiveIpr, Allocator, InformedRandomAllocator};
use sdalloc_runtime::{
    AgentDriver, Clock, DriverConfig, LoopbackBus, Runtime, SnapshotCadence, SnapshotHandle,
    SnapshotPublisher, WallClock,
};
use sdalloc_sap::sdp::Media;
use sdalloc_sap::wire::SapPacket;
use sdalloc_sap::{CacheUpdate, SessionDirectory};
use sdalloc_sap::{CreateError, DirectoryConfig, DirectoryEvent, SapSocket, SapTransport};
use sdalloc_sim::{FaultPlan, SimDuration, SimRng, SimTime};

use crate::trace;
use crate::workload::{deaf_space, shared_space, Spec, HOST_A, HOST_B};
use crate::wrap::{packet_id, Layer, SendOnly, TimedAlloc, UdpSender, Wire, WireCounts};

/// Index of the creating agent.
pub const A: usize = 0;
/// Index of the observed agent.
pub const B: usize = 1;

/// Multicast group of the UDP workload (organisation-local scope).
const UDP_GROUP: Ipv4Addr = Ipv4Addr::new(239, 255, 94, 17);

fn media() -> Vec<Media> {
    vec![Media {
        kind: "audio".into(),
        port: 5004,
        proto: "RTP/AVP".into(),
        format: 0,
    }]
}

/// Driver settings.  A has no local readers, so it publishes rarely;
/// it creates sessions on command, so it listens in short slices to
/// keep command latency low while idle.
fn driver_config(agent: usize, spec: &Spec) -> DriverConfig {
    let d = DriverConfig::default();
    if agent == A {
        DriverConfig {
            idle_wait: Duration::from_millis(2),
            cadence: SnapshotCadence {
                min_interval: SimDuration::from_secs(60),
                max_pending: u64::MAX,
            },
            ..d
        }
    } else {
        DriverConfig {
            cadence: SnapshotCadence {
                min_interval: SimDuration::from_nanos(spec.cadence.as_nanos() as u64),
                ..d.cadence
            },
            ..d
        }
    }
}

fn directory_config(agent: usize, spec: &Spec) -> DirectoryConfig {
    let mut cfg = DirectoryConfig::new(if agent == A { HOST_A } else { HOST_B });
    cfg.space = if agent == A && !spec.a_hears {
        deaf_space()
    } else {
        shared_space()
    };
    cfg.exhaustion_fallback = true;
    cfg
}

/// What one agent reports when it stops.
#[derive(Debug, Default)]
pub struct AgentReport {
    pub error: Option<String>,
    /// The rest is filled in by stepped runs only.  Directory
    /// telemetry counters, over the agent's life:
    pub heard_new: u64,
    pub heard_refreshed: u64,
    pub heard_modified: u64,
    pub moved: u64,
    /// Counted while tracing is on, i.e. over the traced pass:
    pub steps: u64,
    pub polls: u64,
    pub timers_fired: u64,
    pub publishes: u64,
    pub rows_published: u64,
    pub changes_published: u64,
    pub retired_peak: u64,
    /// `current_view` timings on A's final directory, ms.
    pub view_ms: Vec<f64>,
}

/// One running pair of agents plus the generator's transport.
pub struct Agents {
    pub service: Service,
    pub handles: [SnapshotHandle; 2],
    pub wires: [Arc<WireCounts>; 2],
    pub gen: Wire,
    pub gen_counts: Arc<WireCounts>,
    pub bus: Option<LoopbackBus>,
    pub widened: Arc<AtomicU64>,
}

/// How the agents run.
pub enum Service {
    Threaded(Runtime),
    Stepped(Vec<StepHandle>),
}

/// A stepped agent's thread and command channel.
pub struct StepHandle {
    cmd: Sender<Cmd>,
    thread: JoinHandle<Stepped>,
}

enum Cmd {
    Create {
        name: String,
        ttl: u8,
        reply: Sender<(Result<u64, CreateError>, Duration)>,
    },
    Withdraw(u64),
    Publish,
    Stop,
}

/// Open B's socket on the first free port from a process-specific base.
fn open_udp() -> io::Result<(SapSocket, u16)> {
    let base = 20_000 + (std::process::id() % 20_000) as u16;
    let mut last = None;
    for port in base..base + 32 {
        match SapSocket::open(UDP_GROUP, port, 1) {
            Ok(s) => return Ok((s, port)),
            Err(e) => last = Some(e),
        }
    }
    Err(last.unwrap_or_else(|| io::Error::other("no UDP port")))
}

/// Build and start both agents.
pub fn start(spec: &Spec, stepped: bool) -> io::Result<Agents> {
    let clock = Arc::new(WallClock::new());
    let mut bus = None;
    let (transports, gen): ([Box<dyn SapTransport>; 2], Box<dyn SapTransport>) = if spec.udp {
        let (sock, port) = open_udp()?;
        (
            [Box::new(UdpSender::open(UDP_GROUP, port)?), Box::new(sock)],
            Box::new(UdpSender::open(UDP_GROUP, port)?),
        )
    } else {
        let b = LoopbackBus::new(clock.clone(), 0, FaultPlan::new());
        let gen = Box::new(b.endpoint());
        let ts: [Box<dyn SapTransport>; 2] = [Box::new(b.endpoint()), Box::new(b.endpoint())];
        bus = Some(b);
        (ts, gen)
    };
    let [ta, tb] = transports;
    let ta: Box<dyn SapTransport> = if spec.a_hears {
        ta
    } else {
        Box::new(SendOnly(ta))
    };
    let layer = if spec.udp { Layer::Net } else { Layer::Bus };
    let (gen, gen_counts) = Wire::new(gen, layer, false);
    // Over UDP, B is receive-only: nothing it sends may leave the host.
    let (wa, ca) = Wire::new(ta, layer, false);
    let (wb, cb) = Wire::new(tb, layer, spec.udp);
    let (alloc_a, widened) = TimedAlloc::new(Box::new(AdaptiveIpr::aipr1()));
    let allocs: [Box<dyn Allocator>; 2] = [Box::new(alloc_a), Box::new(InformedRandomAllocator)];
    let mut handles = Vec::new();
    let service = if stepped {
        let mut steps = Vec::new();
        for (i, (wire, alloc)) in [wa, wb].into_iter().zip(allocs).enumerate() {
            let ag = Stepped::new(i, spec, alloc, wire, clock.clone());
            handles.push(ag.publisher.handle());
            let (tx, rx) = mpsc::channel();
            let thread = std::thread::Builder::new()
                .name(format!("step-agent-{i}"))
                .spawn(move || ag.run(&rx))?;
            steps.push(StepHandle { cmd: tx, thread });
        }
        Service::Stepped(steps)
    } else {
        let drivers: Vec<AgentDriver<Wire>> = [wa, wb]
            .into_iter()
            .zip(allocs)
            .enumerate()
            .map(|(i, (wire, alloc))| {
                AgentDriver::new(
                    i as u32,
                    i as u64 + 1,
                    directory_config(i, spec),
                    alloc,
                    wire,
                    clock.clone(),
                    driver_config(i, spec),
                )
            })
            .collect();
        let rt = Runtime::spawn(drivers)?;
        handles = vec![rt.snapshot_handle(A), rt.snapshot_handle(B)];
        Service::Threaded(rt)
    };
    let handles: [SnapshotHandle; 2] = handles
        .try_into()
        .map_err(|_| io::Error::other("expected two agents"))?;
    Ok(Agents {
        service,
        handles,
        wires: [ca, cb],
        gen,
        gen_counts,
        bus,
        widened,
    })
}

impl Service {
    /// Create a session on `agent`; also returns the agent-side time of
    /// `create_session` when the agents are stepped.
    pub fn create(
        &self,
        agent: usize,
        name: &str,
        ttl: u8,
    ) -> (Result<u64, CreateError>, Option<Duration>) {
        match self {
            Service::Threaded(rt) => (rt.create_session(agent, name, ttl, media()), None),
            Service::Stepped(s) => {
                let (tx, rx) = mpsc::channel();
                let sent = s[agent].cmd.send(Cmd::Create {
                    name: name.to_string(),
                    ttl,
                    reply: tx,
                });
                match sent.ok().and_then(|()| rx.recv().ok()) {
                    Some((r, took)) => (r, Some(took)),
                    None => (Err(CreateError::SpaceFull), None),
                }
            }
        }
    }

    /// Withdraw a session on `agent` (fire and forget).
    pub fn withdraw(&self, agent: usize, id: u64) {
        match self {
            Service::Threaded(rt) => rt.withdraw(agent, id),
            Service::Stepped(s) => {
                let _ = s[agent].cmd.send(Cmd::Withdraw(id));
            }
        }
    }

    /// Ask `agent` to publish a snapshot now, out of cadence.
    pub fn publish_now(&self, agent: usize) {
        match self {
            Service::Threaded(rt) => rt.publish_now(agent),
            Service::Stepped(s) => {
                let _ = s[agent].cmd.send(Cmd::Publish);
            }
        }
    }

    /// Stop every agent (each publishes a final snapshot) and collect
    /// their reports, A first.
    pub fn shutdown(self) -> Vec<AgentReport> {
        match self {
            Service::Threaded(rt) => rt
                .shutdown()
                .into_iter()
                .map(|exit| AgentReport {
                    error: exit.error,
                    ..AgentReport::default()
                })
                .collect(),
            Service::Stepped(s) => {
                for h in &s {
                    let _ = h.cmd.send(Cmd::Stop);
                }
                s.into_iter()
                    .map(|h| match h.thread.join() {
                        Ok(ag) => ag.report(),
                        Err(_) => AgentReport {
                            error: Some("stepped agent panicked".into()),
                            ..AgentReport::default()
                        },
                    })
                    .collect()
            }
        }
    }
}

/// The benchmark's stepped agent: the calls of [`AgentDriver::step`],
/// in its order, each inside a span.
struct Stepped {
    node: usize,
    cfg: DriverConfig,
    dir: SessionDirectory,
    transport: Wire,
    clock: Arc<WallClock>,
    rng: SimRng,
    publisher: SnapshotPublisher,
    report: AgentReport,
    /// Changes ingested since the last publication.
    unpublished_changes: u64,
}

impl Stepped {
    fn new(
        node: usize,
        spec: &Spec,
        alloc: Box<dyn Allocator>,
        transport: Wire,
        clock: Arc<WallClock>,
    ) -> Stepped {
        let cfg = driver_config(node, spec);
        let seed = node as u64 + 1;
        let mut dir = SessionDirectory::new(directory_config(node, spec), alloc);
        dir.set_telemetry_identity(node as u32, seed);
        Stepped {
            node,
            cfg,
            dir,
            transport,
            clock,
            rng: SimRng::new(seed ^ (node as u64).rotate_left(32)),
            publisher: SnapshotPublisher::new(cfg.cadence),
            report: AgentReport::default(),
            unpublished_changes: 0,
        }
    }

    /// The worker loop of [`Runtime`]: serve one command, step, repeat.
    fn run(mut self, cmds: &Receiver<Cmd>) -> Stepped {
        trace::label_thread(&format!("agent-{}", self.node));
        loop {
            match cmds.try_recv() {
                Ok(Cmd::Stop) | Err(TryRecvError::Disconnected) => break,
                Ok(Cmd::Create { name, ttl, reply }) => {
                    let t0 = Instant::now();
                    let r = self.create(&name, ttl);
                    let _ = reply.send((r, t0.elapsed()));
                }
                Ok(Cmd::Withdraw(id)) => {
                    if let Err(e) = self.withdraw(id) {
                        self.report.error = Some(e.to_string());
                        break;
                    }
                }
                Ok(Cmd::Publish) => {
                    self.publisher.publish(self.clock.now(), &self.dir);
                    self.unpublished_changes = 0;
                }
                Err(TryRecvError::Empty) => {}
            }
            if let Err(e) = self.step() {
                self.report.error = Some(e.to_string());
                break;
            }
        }
        self.publisher.publish(self.clock.now(), &self.dir);
        trace::finish_thread();
        self
    }

    fn create(&mut self, name: &str, ttl: u8) -> Result<u64, CreateError> {
        let _s = trace::span("dir.create", u64::from(ttl));
        let now = self.clock.now();
        let id = self
            .dir
            .create_session(now, name, ttl, media(), &mut self.rng)?;
        self.publisher.note_updates(1);
        self.unpublished_changes += 1;
        Ok(id)
    }

    fn withdraw(&mut self, id: u64) -> io::Result<()> {
        let pkt = {
            let _s = trace::span("dir.withdraw", id);
            self.dir.withdraw_session(id)
        };
        if let Some(pkt) = pkt {
            self.transport.send(&pkt)?;
            self.publisher.note_updates(1);
            self.unpublished_changes += 1;
        }
        Ok(())
    }

    fn maybe_publish(&mut self, now: SimTime) {
        let s = trace::span("snap.check", 0);
        if self.publisher.maybe_publish(now, &self.dir) {
            s.rename("snap.publish");
            let changes = std::mem::take(&mut self.unpublished_changes);
            if trace::enabled() {
                let r = &mut self.report;
                r.publishes += 1;
                r.rows_published += self.publisher.stats().last_rows as u64;
                r.changes_published += changes;
                r.retired_peak = r.retired_peak.max(self.publisher.retired_len() as u64);
            }
        }
    }

    fn ingest(&mut self, now: SimTime, pkt: &SapPacket) -> io::Result<()> {
        let (replies, events) = {
            let s = trace::span("dir.on_packet", packet_id(pkt));
            let out = self.dir.on_packet(now, pkt, &mut self.rng);
            let refresh = out
                .1
                .iter()
                .any(|e| matches!(e, DirectoryEvent::Heard(CacheUpdate::Refreshed)));
            s.rename(if refresh {
                "dir.on_packet.refresh"
            } else {
                "dir.on_packet.change"
            });
            out
        };
        if !events
            .iter()
            .any(|e| matches!(e, DirectoryEvent::Heard(CacheUpdate::Refreshed)))
        {
            self.unpublished_changes += 1;
        }
        self.publisher.note_updates(1);
        for reply in replies {
            self.transport.send(&reply)?;
        }
        Ok(())
    }

    fn step(&mut self) -> io::Result<()> {
        let _step = trace::span("driver.step", 0);
        let now = self.clock.now();
        let due = {
            let _s = trace::span("dir.poll", 0);
            self.dir.poll(now)
        };
        if trace::enabled() {
            self.report.steps += 1;
            self.report.polls += 1;
            self.report.timers_fired += due.len() as u64;
        }
        for pkt in due {
            self.transport.send(&pkt)?;
        }
        self.maybe_publish(now);
        let wait = {
            let _s = trace::span("dir.next_deadline", 0);
            match self.dir.next_deadline() {
                Some(d) => Duration::from_nanos(d.saturating_since(now).as_nanos())
                    .clamp(self.cfg.min_wait, self.cfg.idle_wait),
                None => self.cfg.idle_wait,
            }
        };
        if let Some(pkt) = self.transport.recv(wait)? {
            self.ingest(self.clock.now(), &pkt)?;
            for _ in 0..self.cfg.drain_batch {
                match self.transport.recv(Duration::ZERO)? {
                    Some(p) => self.ingest(self.clock.now(), &p)?,
                    None => break,
                }
            }
            self.maybe_publish(self.clock.now());
        }
        let drops = self.transport.take_rx_predecode_drops();
        for _ in 0..drops {
            self.dir.note_rx_dropped(now);
        }
        Ok(())
    }

    fn report(mut self) -> AgentReport {
        let t = &self.dir.telemetry().metrics;
        self.report.heard_new = t.counter_by_name("cache.heard_new");
        self.report.heard_refreshed = t.counter_by_name("cache.heard_refreshed");
        self.report.heard_modified = t.counter_by_name("cache.heard_modified");
        self.report.moved = t.counter_by_name("dir.moved");
        // Replay: the allocator's view over the final directory, timed
        // on its own, off the agent's loop.
        if self.node == A {
            self.report.view_ms = (0..5)
                .map(|_| {
                    let t0 = Instant::now();
                    std::hint::black_box(self.dir.current_view());
                    t0.elapsed().as_secs_f64() * 1e3
                })
                .collect();
        }
        self.report
    }
}
