//! The agent driver and the threaded multi-agent runtime.
//!
//! [`AgentDriver`] owns one [`SessionDirectory`] plus its transport and
//! pumps the protocol: sleep until the directory's `next_deadline` or a
//! packet arrives, dispatch timers/packets, and publish snapshots at the
//! configured cadence.  The same driver runs in three modes:
//!
//! * **threaded** — [`Runtime::spawn`] gives each driver its own thread
//!   plus a command channel, the production shape;
//! * **stepped** — call [`AgentDriver::step`] from your own loop;
//! * **deterministic** — [`AgentDriver::run_deterministic_until`] over a
//!   [`VirtualClock`] and a quiet loopback bus replays the exact
//!   wake-on-deadline discipline of the discrete-event testbed, which is
//!   what the differential fingerprint tests rely on.
//!
//! The driver keeps its `runtime.*` telemetry in its *own*
//! [`Telemetry`] instance (same node/seed identity as the directory's):
//! the directory's telemetry stream stays byte-comparable with the
//! simulator's, while the driver layer still gets per-thread counters.

use std::io;
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{bounded, Receiver, Sender, TryRecvError};
use sdalloc_core::Allocator;
use sdalloc_sap::net::SapTransport;
use sdalloc_sap::{CreateError, DirectoryConfig, Media, SessionDirectory};
use sdalloc_sim::{FaultPlan, SimRng, SimTime};
use sdalloc_telemetry::{CounterId, Telemetry};

use crate::clock::{Clock, VirtualClock};
use crate::snapshot::{SnapshotCadence, SnapshotHandle, SnapshotPublisher, SnapshotStats};

/// Pump-loop knobs.
#[derive(Debug, Clone, Copy)]
pub struct DriverConfig {
    /// Shortest listen budget per step (keeps a deadline-crowded driver
    /// from busy-spinning on the socket).
    pub min_wait: Duration,
    /// Listen budget when nothing is due (also the command-latency
    /// ceiling for a threaded agent).
    pub idle_wait: Duration,
    /// After a blocking receive, drain at most this many further queued
    /// packets without waiting before re-checking timers.
    pub drain_batch: usize,
    /// Snapshot publication cadence.
    pub cadence: SnapshotCadence,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            min_wait: Duration::from_millis(1),
            idle_wait: Duration::from_millis(50),
            drain_batch: 64,
            cadence: SnapshotCadence::default(),
        }
    }
}

/// Everything a worker thread hands back when it exits.
#[derive(Debug)]
pub struct AgentExit {
    /// The agent's node index.
    pub node: u32,
    /// Sessions cached at exit.
    pub cached_sessions: usize,
    /// The directory's telemetry snapshot (protocol counters).
    pub directory_telemetry: String,
    /// The driver's own `runtime.*` telemetry snapshot.
    pub runtime_telemetry: String,
    /// Flight-recorder post-mortem, always captured at exit.
    pub flight_dump: String,
    /// Snapshot publication counters.
    pub snapshot_stats: SnapshotStats,
    /// The I/O error that killed the pump, if it did not exit cleanly.
    pub error: Option<String>,
}

/// One directory agent bound to a transport and a clock.
pub struct AgentDriver<T: SapTransport> {
    node: u32,
    cfg: DriverConfig,
    directory: SessionDirectory,
    transport: T,
    clock: Arc<dyn Clock>,
    rng: SimRng,
    publisher: SnapshotPublisher,
    telemetry: Telemetry,
    c_steps: CounterId,
    c_rx: CounterId,
    c_tx: CounterId,
    c_snapshots: CounterId,
    c_restarts: CounterId,
    c_rx_dropped: CounterId,
    c_commands: CounterId,
    /// Crash windows emulated by the driver itself (soak scenarios):
    /// while "down" the agent discards traffic and mutates nothing;
    /// coming back up runs [`SessionDirectory::restart`].
    faults: Option<FaultPlan>,
    crashed: bool,
}

impl<T: SapTransport> AgentDriver<T> {
    /// Build a driver; `node`/`seed` become both the directory's and the
    /// driver's telemetry identity.
    pub fn new(
        node: u32,
        seed: u64,
        dir_cfg: DirectoryConfig,
        allocator: Box<dyn Allocator>,
        transport: T,
        clock: Arc<dyn Clock>,
        cfg: DriverConfig,
    ) -> AgentDriver<T> {
        let mut directory = SessionDirectory::new(dir_cfg, allocator);
        directory.set_telemetry_identity(node, seed);
        let mut telemetry = Telemetry::new(node, seed);
        let c_steps = telemetry.counter("runtime.steps");
        let c_rx = telemetry.counter("runtime.rx");
        let c_tx = telemetry.counter("runtime.tx");
        let c_snapshots = telemetry.counter("runtime.snapshots");
        let c_restarts = telemetry.counter("runtime.restarts");
        let c_rx_dropped = telemetry.counter("runtime.rx_predecode_dropped");
        let c_commands = telemetry.counter("runtime.commands");
        AgentDriver {
            node,
            cfg,
            directory,
            transport,
            clock,
            rng: SimRng::new(seed ^ u64::from(node).rotate_left(32)),
            publisher: SnapshotPublisher::new(cfg.cadence),
            telemetry,
            c_steps,
            c_rx,
            c_tx,
            c_snapshots,
            c_restarts,
            c_rx_dropped,
            c_commands,
            faults: None,
            crashed: false,
        }
    }

    /// Install driver-emulated crash windows (soak scenarios).  Only the
    /// crash windows are consulted here; link faults belong to the bus.
    pub fn with_faults(mut self, plan: FaultPlan) -> AgentDriver<T> {
        self.faults = Some(plan);
        self
    }

    /// This agent's node index.
    pub fn node(&self) -> u32 {
        self.node
    }

    /// The engine (e.g. to create sessions before spawning).
    pub fn directory_mut(&mut self) -> &mut SessionDirectory {
        &mut self.directory
    }

    /// The engine, read-only.
    pub fn directory(&self) -> &SessionDirectory {
        &self.directory
    }

    /// The clock this driver maps protocol time onto.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Readers attach here; cloneable and thread-safe.
    pub fn snapshot_handle(&self) -> SnapshotHandle {
        self.publisher.handle()
    }

    /// Snapshot publication counters.
    pub fn snapshot_stats(&self) -> SnapshotStats {
        self.publisher.stats()
    }

    /// The driver's `runtime.*` telemetry snapshot.
    pub fn runtime_telemetry_json(&self) -> String {
        self.telemetry.snapshot_json()
    }

    /// Create a session now, with the driver's own RNG.
    pub fn create_session(
        &mut self,
        name: &str,
        ttl: u8,
        media: Vec<Media>,
    ) -> Result<u64, CreateError> {
        let now = self.clock.now();
        let id = self
            .directory
            .create_session(now, name, ttl, media, &mut self.rng)?;
        self.publisher.note_updates(1);
        Ok(id)
    }

    /// Withdraw a session, sending its deletion packet.
    pub fn withdraw_session(&mut self, id: u64) -> io::Result<()> {
        if let Some(pkt) = self.directory.withdraw_session(id) {
            self.transport.send(&pkt)?;
            self.telemetry.inc(self.c_tx);
            self.publisher.note_updates(1);
        }
        Ok(())
    }

    /// Publish a snapshot right now, regardless of cadence.
    pub fn publish_now(&mut self) {
        self.publisher.publish(self.clock.now(), &self.directory);
        self.telemetry.inc(self.c_snapshots);
    }

    /// Feed one received packet to the engine and send any replies.
    fn ingest(&mut self, now: SimTime, pkt: &sdalloc_sap::SapPacket) -> io::Result<()> {
        self.telemetry.inc(self.c_rx);
        let (replies, _events) = self.directory.on_packet(now, pkt, &mut self.rng);
        self.publisher.note_updates(1);
        for reply in replies {
            self.transport.send(&reply)?;
            self.telemetry.inc(self.c_tx);
        }
        Ok(())
    }

    /// Account pre-decode datagram deaths the transport observed.
    fn drain_predecode_drops(&mut self, now: SimTime) {
        let drops = self.transport.take_rx_predecode_drops();
        for _ in 0..drops {
            self.directory.note_rx_dropped(now);
        }
        self.telemetry.inc_by(self.c_rx_dropped, drops);
    }

    /// Emulated crash handling; returns true when the step is consumed
    /// (the agent is down).
    fn crash_window_step(&mut self, now: SimTime) -> io::Result<bool> {
        let Some(plan) = &self.faults else {
            return Ok(false);
        };
        if plan.node_up(now, self.node as usize) {
            if self.crashed {
                self.crashed = false;
                self.directory.restart(self.clock.now());
                self.telemetry.inc(self.c_restarts);
                // Readers must see the wiped cache immediately: the
                // crash exposure window is measured off this snapshot.
                self.publish_now();
            }
            return Ok(false);
        }
        self.crashed = true;
        // Down: the socket is gone — discard anything queued and idle.
        while self.transport.recv(Duration::ZERO)?.is_some() {}
        let _ = self.transport.take_rx_predecode_drops();
        std::thread::sleep(self.cfg.min_wait);
        Ok(true)
    }

    /// How long the next receive may block: until the directory's next
    /// deadline or, while updates wait unpublished, the publisher's next
    /// due time — whichever comes first — within `[min_wait, idle_wait]`.
    fn listen_budget(&mut self, now: SimTime) -> Duration {
        let wake = match (self.directory.next_deadline(), self.publisher.next_due()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        match wake {
            Some(at) => Duration::from_nanos(at.saturating_since(now).as_nanos())
                .clamp(self.cfg.min_wait, self.cfg.idle_wait),
            None => self.cfg.idle_wait,
        }
    }

    /// One pump iteration: run due timers, publish if due, listen until
    /// the next deadline or publication (capped), ingest what arrives.
    pub fn step(&mut self) -> io::Result<()> {
        self.telemetry.inc(self.c_steps);
        let now = self.clock.now();
        if self.crash_window_step(now)? {
            return Ok(());
        }
        for pkt in self.directory.poll(now) {
            self.transport.send(&pkt)?;
            self.telemetry.inc(self.c_tx);
        }
        if self.publisher.maybe_publish(now, &self.directory) {
            self.telemetry.inc(self.c_snapshots);
        }
        let wait = self.listen_budget(now);
        if let Some(pkt) = self.transport.recv(wait)? {
            let rnow = self.clock.now();
            self.ingest(rnow, &pkt)?;
            for _ in 0..self.cfg.drain_batch {
                match self.transport.recv(Duration::ZERO)? {
                    Some(p) => self.ingest(self.clock.now(), &p)?,
                    None => break,
                }
            }
            let pnow = self.clock.now();
            if self.publisher.maybe_publish(pnow, &self.directory) {
                self.telemetry.inc(self.c_snapshots);
            }
        }
        self.drain_predecode_drops(self.clock.now());
        Ok(())
    }

    /// Drive deterministically over a [`VirtualClock`]: ingest whatever
    /// is queued, then jump the clock straight to the directory's next
    /// deadline and run it — the identical wake-on-deadline discipline
    /// the discrete-event testbed applies, so a single agent on a quiet
    /// loopback bus produces a byte-identical packet trace.
    ///
    /// `vclock` must be the same clock this driver was built with.
    pub fn run_deterministic_until(
        &mut self,
        vclock: &VirtualClock,
        horizon: SimTime,
    ) -> io::Result<()> {
        loop {
            while let Some(pkt) = self.transport.recv(Duration::ZERO)? {
                self.ingest(vclock.now(), &pkt)?;
            }
            self.drain_predecode_drops(vclock.now());
            let Some(deadline) = self.directory.next_deadline() else {
                break;
            };
            if deadline > horizon {
                break;
            }
            vclock.advance_to(deadline);
            let now = vclock.now();
            for pkt in self.directory.poll(now) {
                self.transport.send(&pkt)?;
                self.telemetry.inc(self.c_tx);
            }
            if self.publisher.maybe_publish(now, &self.directory) {
                self.telemetry.inc(self.c_snapshots);
            }
        }
        vclock.advance_to(horizon);
        Ok(())
    }

    /// Consume the driver into its exit report.
    pub fn into_exit(self, error: Option<String>) -> AgentExit {
        AgentExit {
            node: self.node,
            cached_sessions: self.directory.cached_sessions(),
            directory_telemetry: self.directory.telemetry_snapshot_json(),
            runtime_telemetry: self.telemetry.snapshot_json(),
            flight_dump: self.directory.flight_dump_json("runtime agent exit"),
            snapshot_stats: self.publisher.stats(),
            error,
        }
    }
}

/// Commands a threaded agent accepts.
enum Command {
    Create {
        name: String,
        ttl: u8,
        media: Vec<Media>,
        reply: Sender<Result<u64, CreateError>>,
    },
    Withdraw {
        id: u64,
    },
    Publish,
    Stop,
}

struct Worker {
    node: u32,
    cmd: Sender<Command>,
    snapshots: SnapshotHandle,
    thread: Option<std::thread::JoinHandle<AgentExit>>,
}

/// A set of agent threads, one per driver, plus their command channels.
///
/// Dropping the runtime without [`Runtime::shutdown`] detaches the
/// threads' command channels, which stops them on their next loop turn.
pub struct Runtime {
    workers: Vec<Worker>,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("agents", &self.workers.len())
            .finish()
    }
}

impl Runtime {
    /// Spawn one thread per driver.  Thread `i` serves drivers[i]; its
    /// command latency is bounded by the driver's `idle_wait`.
    pub fn spawn<T>(drivers: Vec<AgentDriver<T>>) -> io::Result<Runtime>
    where
        T: SapTransport + 'static,
    {
        let mut workers = Vec::with_capacity(drivers.len());
        for mut driver in drivers {
            let node = driver.node;
            let snapshots = driver.snapshot_handle();
            let (cmd_tx, cmd_rx): (Sender<Command>, Receiver<Command>) = bounded(16);
            let spawned = std::thread::Builder::new()
                .name(format!("sd-agent-{node}"))
                .spawn(move || worker_loop(&mut driver, &cmd_rx))
                .map(|t| Worker {
                    node,
                    cmd: cmd_tx,
                    snapshots,
                    thread: Some(t),
                });
            match spawned {
                Ok(w) => workers.push(w),
                Err(e) => {
                    // Stop what already started before surfacing.
                    let _ = Runtime { workers }.shutdown();
                    return Err(e);
                }
            }
        }
        Ok(Runtime { workers })
    }

    /// Number of agent threads.
    pub fn agents(&self) -> usize {
        self.workers.len()
    }

    // lint:allow(panic-reach): orchestration API: agent indices are dense and caller-issued
    fn worker(&self, agent: usize) -> &Worker {
        &self.workers[agent]
    }

    /// The snapshot handle of agent `agent` (cloneable; hand to readers).
    pub fn snapshot_handle(&self, agent: usize) -> SnapshotHandle {
        self.worker(agent).snapshots.clone()
    }

    /// Create a session on a running agent (blocking round-trip).
    pub fn create_session(
        &self,
        agent: usize,
        name: &str,
        ttl: u8,
        media: Vec<Media>,
    ) -> Result<u64, CreateError> {
        let (reply_tx, reply_rx) = bounded(1);
        self.worker(agent)
            .cmd
            .send(Command::Create {
                name: name.to_string(),
                ttl,
                media,
                reply: reply_tx,
            })
            .map_err(|_| CreateError::SpaceFull)?;
        reply_rx.recv().unwrap_or(Err(CreateError::SpaceFull))
    }

    /// Withdraw a session on a running agent (fire and forget).
    pub fn withdraw(&self, agent: usize, id: u64) {
        let _ = self.worker(agent).cmd.send(Command::Withdraw { id });
    }

    /// Ask an agent to publish a snapshot out of cadence.
    pub fn publish_now(&self, agent: usize) {
        let _ = self.worker(agent).cmd.send(Command::Publish);
    }

    /// Stop every agent and collect their exit reports, node order.
    pub fn shutdown(mut self) -> Vec<AgentExit> {
        for w in &self.workers {
            let _ = w.cmd.send(Command::Stop);
        }
        let mut exits = Vec::with_capacity(self.workers.len());
        for w in &mut self.workers {
            if let Some(t) = w.thread.take() {
                match t.join() {
                    Ok(exit) => exits.push(exit),
                    Err(_) => exits.push(AgentExit {
                        node: w.node,
                        cached_sessions: 0,
                        directory_telemetry: String::new(),
                        runtime_telemetry: String::new(),
                        flight_dump: String::new(),
                        snapshot_stats: SnapshotStats::default(),
                        error: Some("agent thread panicked".to_string()),
                    }),
                }
            }
        }
        exits
    }
}

/// The worker thread body: serve commands, pump the driver, report.
fn worker_loop<T: SapTransport>(
    driver: &mut AgentDriver<T>,
    cmd_rx: &Receiver<Command>,
) -> AgentExit {
    let error = loop {
        match cmd_rx.try_recv() {
            Ok(Command::Stop) | Err(TryRecvError::Disconnected) => break None,
            Ok(Command::Create {
                name,
                ttl,
                media,
                reply,
            }) => {
                driver.telemetry.inc(driver.c_commands);
                let _ = reply.send(driver.create_session(&name, ttl, media));
            }
            Ok(Command::Withdraw { id }) => {
                driver.telemetry.inc(driver.c_commands);
                if let Err(e) = driver.withdraw_session(id) {
                    break Some(e.to_string());
                }
            }
            Ok(Command::Publish) => {
                driver.telemetry.inc(driver.c_commands);
                driver.publish_now();
            }
            Err(TryRecvError::Empty) => {}
        }
        if let Err(e) = driver.step() {
            break Some(e.to_string());
        }
    };
    // One last snapshot so readers see the final state.
    driver.publish_now();
    driver_exit(driver, error)
}

/// Build an exit report from a borrowed driver (the thread owns it but
/// the loop only has `&mut`).
fn driver_exit<T: SapTransport>(driver: &mut AgentDriver<T>, error: Option<String>) -> AgentExit {
    AgentExit {
        node: driver.node,
        cached_sessions: driver.directory.cached_sessions(),
        directory_telemetry: driver.directory.telemetry_snapshot_json(),
        runtime_telemetry: driver.telemetry.snapshot_json(),
        flight_dump: driver.directory.flight_dump_json("runtime agent exit"),
        snapshot_stats: driver.publisher.stats(),
        error,
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;
    use std::net::Ipv4Addr;
    use std::sync::Mutex;

    use sdalloc_core::InformedRandomAllocator;
    use sdalloc_sap::{Origin, SapPacket, SessionDescription};
    use sdalloc_sim::SimDuration;

    use super::*;

    /// A transport that hands out scripted packets and records every
    /// receive budget it is asked to wait, without ever blocking.
    #[derive(Default)]
    struct Script {
        inbox: VecDeque<SapPacket>,
        waits: Vec<Duration>,
    }

    struct Scripted(Arc<Mutex<Script>>);

    impl SapTransport for Scripted {
        fn send(&self, _pkt: &SapPacket) -> io::Result<usize> {
            Ok(0)
        }

        fn recv(&self, timeout: Duration) -> io::Result<Option<SapPacket>> {
            let mut s = self.0.lock().expect("script lock");
            s.waits.push(timeout);
            Ok(s.inbox.pop_front())
        }
    }

    fn announcement() -> SapPacket {
        let origin = Ipv4Addr::new(10, 0, 0, 2);
        let desc = SessionDescription {
            origin: Origin {
                username: "-".into(),
                session_id: 7,
                version: 1,
                address: origin,
            },
            name: "seminar".into(),
            info: None,
            group: Ipv4Addr::new(224, 2, 128, 9),
            ttl: 63,
            start: 0,
            stop: 0,
            media: vec![],
        };
        SapPacket::announce(origin, 7, desc.format())
    }

    #[test]
    fn quiet_agent_wakes_for_its_publish_deadline() {
        let script = Arc::new(Mutex::new(Script::default()));
        script
            .lock()
            .expect("script lock")
            .inbox
            .push_back(announcement());
        let vclock = VirtualClock::new();
        let cfg = DriverConfig {
            min_wait: Duration::from_millis(1),
            idle_wait: Duration::from_secs(10),
            drain_batch: 4,
            cadence: SnapshotCadence {
                min_interval: SimDuration::from_millis(100),
                max_pending: 1_000,
            },
        };
        let mut driver = AgentDriver::new(
            0,
            1,
            DirectoryConfig::new(Ipv4Addr::new(10, 0, 0, 1)),
            Box::new(InformedRandomAllocator),
            Scripted(Arc::clone(&script)),
            Arc::new(vclock.clone()),
            cfg,
        );
        let last_wait = |script: &Mutex<Script>| {
            let s = script.lock().expect("script lock");
            s.waits.iter().rev().copied().find(|w| !w.is_zero())
        };
        // t = 0: the first publication goes out at once; then the
        // announcement arrives and leaves one update pending.
        driver.step().expect("step");
        assert_eq!(driver.snapshot_stats().published, 1);
        // t = 30 ms: nothing else arrives, so the receive must give up
        // when the publication falls due (t = 100 ms), not after the
        // 10 s idle budget.
        vclock.advance_to(SimTime::from_millis(30));
        driver.step().expect("step");
        assert_eq!(driver.snapshot_stats().published, 1, "not yet due");
        assert_eq!(last_wait(&script), Some(Duration::from_millis(70)));
        vclock.advance_to(SimTime::from_millis(100));
        driver.step().expect("step");
        assert_eq!(driver.snapshot_stats().published, 2);
        let snap = driver.snapshot_handle().load_slow();
        assert!(snap.get(Ipv4Addr::new(10, 0, 0, 2), 7).is_some());
        // Nothing pending any more: the budget is no longer clamped.
        assert!(last_wait(&script).is_some_and(|w| w > Duration::from_secs(1)));
    }
}
