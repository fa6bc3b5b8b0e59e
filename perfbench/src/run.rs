//! One measured pass over a workload: populate the resident set, run
//! the paced sender and the observer against the agents, then check
//! the outputs.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::time::{Duration, Instant};

use sdalloc_runtime::SnapshotReader;
use sdalloc_sap::wire::SapPacket;
use sdalloc_sap::SapTransport;

use crate::service::{start, AgentReport, Agents, Service, A, B};
use crate::stats::OpenLoop;
use crate::trace;
use crate::workload::{topic_keyword, Input, Spec, HOST_A, LIFETIME, TAIL, TOPICS};
use crate::wrap::{reader_allocs, reader_section, Wire};

/// How long the observer keeps waiting for pending changes after the
/// sender's tail before it counts them as never visible.
const GRACE: Duration = Duration::from_secs(5);

/// Longest the observer sleeps while anything is pending: bounds how
/// late it notices a new snapshot.
const TICK: Duration = Duration::from_micros(100);

/// Why operations failed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Failures {
    /// Bus deliveries refused by a full endpoint queue.
    pub dropped_full: u64,
    /// Datagrams the kernel dropped before B read them.
    pub kernel_dropped: u64,
    /// Creates A refused.
    pub refused_creates: u64,
    /// Changes, creates or withdrawals B never showed.
    pub never_visible: u64,
    /// Corrupt rows seen in loaded snapshots.
    pub corrupt_rows: u64,
    /// Lookups or searches whose answer disagreed with the model.
    pub wrong_answers: u64,
    /// Final-snapshot rows that disagree with the generator's model.
    pub model_mismatches: u64,
    /// Packets B tried to send (it has no reason to).
    pub b_sends: u64,
    /// Agents that stopped on an I/O error.
    pub agent_errors: u64,
}

impl Failures {
    /// Fold another pass's failures into these.
    pub fn add(&mut self, o: &Failures) {
        self.dropped_full += o.dropped_full;
        self.kernel_dropped += o.kernel_dropped;
        self.refused_creates += o.refused_creates;
        self.never_visible += o.never_visible;
        self.corrupt_rows += o.corrupt_rows;
        self.wrong_answers += o.wrong_answers;
        self.model_mismatches += o.model_mismatches;
        self.b_sends += o.b_sends;
        self.agent_errors += o.agent_errors;
    }

    pub fn total(&self) -> u64 {
        self.dropped_full
            + self.kernel_dropped
            + self.refused_creates
            + self.never_visible
            + self.corrupt_rows
            + self.wrong_answers
            + self.model_mismatches
            + self.b_sends
            + self.agent_errors
    }
}

/// Everything one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    pub visible_ms: Vec<f64>,
    pub lookup_us: Vec<f64>,
    pub search_ms: Vec<f64>,
    pub create_ms: Vec<f64>,
    pub propagate_ms: Vec<f64>,
    /// Start lateness of every generated operation, ms.
    pub late_ms: Vec<f64>,
    pub reader_load_ns: Vec<f64>,
    pub reader_lookup_ns: Vec<f64>,
    pub reader_search_ms: Vec<f64>,
    /// Agent-side `create_session` time and the rest of the round trip
    /// (stepped runs only).
    pub agent_create_ms: Vec<f64>,
    pub cmd_wait_ms: Vec<f64>,
    pub attempted: u64,
    pub failures: Failures,
    pub reader_allocs: u64,
    pub gen_sent: u64,
    pub bus_delivered: u64,
    pub widened: u64,
    pub agents: Vec<AgentReport>,
}

/// Start the agents and populate B's resident set through the
/// transport, until B publishes a snapshot holding all of it.  Returns
/// the agents and the seconds this took.
pub fn setup(spec: &Spec, stepped: bool, announce: &[SapPacket]) -> Result<(Agents, f64), String> {
    let t0 = Instant::now();
    let agents = start(spec, stepped).map_err(|e| format!("starting agents: {e}"))?;
    // Keep the backlog well inside B's receive buffer (UDP) or queue.
    let window = if spec.udp { 64 } else { 1_000 };
    let listeners: &[usize] = if spec.a_hears { &[A, B] } else { &[B] };
    let heard = |agents: &Agents| {
        listeners
            .iter()
            .map(|&i| agents.wires[i].received())
            .min()
            .unwrap_or(0)
    };
    let deadline = t0 + Duration::from_secs(60);
    for (i, pkt) in announce.iter().enumerate() {
        while i as u64 >= heard(&agents) + window {
            drain(&agents.gen).map_err(|e| format!("generator recv: {e}"))?;
            if Instant::now() > deadline {
                return Err("set-up stalled: agents stopped reading".into());
            }
            std::thread::sleep(Duration::from_micros(50));
        }
        agents
            .gen
            .send(pkt)
            .map_err(|e| format!("generator send: {e}"))?;
    }
    // Once every listener has taken in the whole set, B publishes at
    // once instead of at its next cadence tick, so set-up time does not
    // jump by the cadence.
    while heard(&agents) < announce.len() as u64 {
        drain(&agents.gen).map_err(|e| format!("generator recv: {e}"))?;
        if Instant::now() > deadline {
            return Err("set-up stalled: agents stopped reading".into());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    agents.service.publish_now(B);
    let mut reader = agents.handles[B].reader();
    while reader.load().len() < announce.len() {
        drain(&agents.gen).map_err(|e| format!("generator recv: {e}"))?;
        if Instant::now() > deadline {
            return Err(format!(
                "set-up stalled: B published {} of {} sessions",
                reader.load().len(),
                announce.len()
            ));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Ok((agents, t0.elapsed().as_secs_f64()))
}

/// Empty the generator's own receive queue (the bus delivers every
/// agent's announcements to it).
fn drain(gen: &Wire) -> std::io::Result<()> {
    while gen.recv(Duration::ZERO)?.is_some() {}
    Ok(())
}

/// What the paced sender measured.
#[derive(Debug, Default)]
struct SenderOut {
    late_ms: Vec<f64>,
    lookup_us: Vec<f64>,
    load_ns: Vec<f64>,
    lookup_ns: Vec<f64>,
    wrong_answers: u64,
}

/// The paced sender: every announcement and point lookup at its due
/// time, timed from it.  Lookups ride on this thread rather than the
/// observer's so they never queue behind a search or a blocking create
/// of the load generator itself.
fn send_loop(
    gen: &Wire,
    mut reader: SnapshotReader,
    announce: &[SapPacket],
    input: &Input,
    ol: OpenLoop,
) -> std::io::Result<SenderOut> {
    trace::label_thread("generator");
    // Sessions whose version changed, at their latest version; the rest
    // still announce their set-up packet.
    let mut changed: HashMap<u32, SapPacket> = HashMap::new();
    let mut out = SenderOut {
        late_ms: Vec::with_capacity(input.sends.len() + input.lookups.len()),
        ..SenderOut::default()
    };
    let (mut k, mut li) = (0, 0);
    while k < input.sends.len() || li < input.lookups.len() {
        let send_due = input.sends.get(k).map_or(u64::MAX, |s| s.due);
        let lookup_due = input.lookups.get(li).map_or(u64::MAX, |l| l.0);
        ol.wait_until(send_due.min(lookup_due));
        // A due lookup goes first, even ahead of the rest of a burst
        // that fell due earlier: the reader is a user of its own and
        // must not queue behind the generator's sends.
        let now = ol.now_ns();
        let lookup = lookup_due <= now;
        let due = if lookup { lookup_due } else { send_due };
        out.late_ms
            .push(OpenLoop::lateness_ns(due, now) as f64 / 1e6);
        if lookup {
            let session = input.lookups[li].1;
            let s = &input.sessions[session as usize];
            li += 1;
            let span = trace::span("reader.lookup", u64::from(session));
            let (ok, load, query) = reader_section(|| {
                let t0 = Instant::now();
                let snap = reader.load();
                let t1 = Instant::now();
                let row = snap.get(s.origin, s.session_id);
                let used = snap.group_in_use(s.group);
                let ok = row.is_some_and(|r| r.group == s.group) && used;
                (ok, t1 - t0, t1.elapsed())
            });
            drop(span);
            out.lookup_us.push(OpenLoop::latency(due, ol.now_ns(), 1e3));
            out.load_ns.push(load.as_nanos() as f64);
            out.lookup_ns.push(query.as_nanos() as f64);
            out.wrong_answers += u64::from(!ok);
            continue;
        }
        let send = input.sends[k];
        let i = send.session;
        if send.change {
            changed.insert(i, input.sessions[i as usize].packet(send.version));
        }
        gen.send(changed.get(&i).unwrap_or(&announce[i as usize]))?;
        if k % 64 == 0 {
            drain(gen)?;
        }
        k += 1;
    }
    drain(gen)?;
    trace::finish_thread();
    Ok(out)
}

/// A change, create or withdrawal waiting to show in B's snapshot.
#[derive(Debug, Clone, Copy)]
struct Pending {
    due: u64,
    key: (std::net::Ipv4Addr, u64),
    /// Version to reach; 0 means "absent" (a withdrawal).
    version: u64,
}

/// The observer: searches, creates and withdrawals at their due times,
/// and visibility tracking of every change.
struct Observer<'a> {
    input: &'a Input,
    service: &'a Service,
    ol: OpenLoop,
    /// End of the measured window, ns from the start.
    window_ns: u64,
    reader: SnapshotReader,
    keywords: Vec<String>,
    seen_version: u64,
    snapshots_seen: u64,
    changes: Vec<Pending>,
    next_change: usize,
    pending: Vec<Pending>,
    pending_creates: Vec<Pending>,
    withdraws: VecDeque<(u64, u64)>,
    live: BTreeSet<u64>,
    withdrawn: Vec<u64>,
    pass: Pass,
}

impl Observer<'_> {
    /// Check pending items against B's current snapshot if it changed.
    fn check_visibility(&mut self) {
        let now = self.ol.now_ns();
        let Observer {
            reader,
            seen_version,
            snapshots_seen,
            pending,
            pending_creates,
            pass,
            ..
        } = self;
        reader_section(|| {
            let snap = reader.load();
            if snap.version() == *seen_version {
                return;
            }
            *seen_version = snap.version();
            *snapshots_seen += 1;
            if *snapshots_seen % 16 == 0 {
                pass.failures.corrupt_rows += snap.corrupt_rows() as u64;
            }
            let shows = |p: &Pending| match snap.get(p.key.0, p.key.1) {
                Some(row) => p.version != 0 && row.version >= p.version,
                None => p.version == 0,
            };
            pending.retain(|p| {
                let vis = shows(p);
                if vis && p.version != 0 {
                    pass.visible_ms.push(OpenLoop::latency(p.due, now, 1e6));
                }
                !vis
            });
            pending_creates.retain(|p| {
                let vis = shows(p);
                if vis {
                    pass.propagate_ms.push(OpenLoop::latency(p.due, now, 1e6));
                }
                !vis
            });
        });
    }

    fn search(&mut self, due: u64, topic: usize) {
        let keyword = self.keywords[topic].as_str();
        let reader = &mut self.reader;
        let span = trace::span("reader.search", topic as u64);
        let (found, scan) = reader_section(|| {
            let t0 = Instant::now();
            (reader.load().matching(keyword).count(), t0.elapsed())
        });
        drop(span);
        let p = &mut self.pass;
        p.search_ms
            .push(OpenLoop::latency(due, self.ol.now_ns(), 1e6));
        p.reader_search_ms.push(scan.as_secs_f64() * 1e3);
        p.failures.wrong_answers += u64::from(found != self.input.topic_counts[topic]);
    }

    fn create(&mut self, due: u64, ttl: u8, seq: usize) {
        let name = format!("created {seq}");
        let called = self.ol.now_ns();
        let span = trace::span("cmd.create", seq as u64);
        let (res, agent_side) = self.service.create(A, &name, ttl);
        drop(span);
        let done = self.ol.now_ns();
        let p = &mut self.pass;
        p.create_ms.push(OpenLoop::latency(due, done, 1e6));
        if let Some(took) = agent_side {
            let took_ms = took.as_secs_f64() * 1e3;
            p.agent_create_ms.push(took_ms);
            p.cmd_wait_ms
                .push(((done - called) as f64 / 1e6 - took_ms).max(0.0));
        }
        match res {
            Ok(id) => {
                self.pending_creates.push(Pending {
                    due,
                    key: (HOST_A, id),
                    version: 1,
                });
                self.live.insert(id);
                let at = due + LIFETIME.as_nanos() as u64;
                if at < self.window_ns {
                    self.withdraws.push_back((at, id));
                }
            }
            Err(_) => p.failures.refused_creates += 1,
        }
    }

    fn withdraw(&mut self, due: u64, id: u64) {
        self.service.withdraw(A, id);
        self.live.remove(&id);
        self.withdrawn.push(id);
        self.pending.push(Pending {
            due,
            key: (HOST_A, id),
            version: 0,
        });
    }

    /// Run until every operation is done and everything pending shows,
    /// or the grace period after the sender's tail runs out.
    fn run(&mut self) {
        trace::label_thread("observer");
        let end = self.window_ns + TAIL.as_nanos() as u64;
        let hard_end = end + GRACE.as_nanos() as u64;
        let (mut si, mut ci) = (0, 0);
        let input = self.input;
        let (searches, creates) = (&input.searches, &input.creates);
        loop {
            let now = self.ol.now_ns();
            while let Some(c) = self.changes.get(self.next_change) {
                if c.due > now {
                    break;
                }
                self.pending.push(*c);
                self.next_change += 1;
            }
            self.check_visibility();
            // The earliest due operation, if one is due.
            let heads = [
                searches.get(si).map(|s| s.0),
                creates.get(ci).map(|c| c.0),
                self.withdraws.front().map(|w| w.0),
            ];
            let next = heads
                .iter()
                .enumerate()
                .filter_map(|(k, d)| d.map(|d| (d, k)))
                .min();
            if let Some((due, kind)) = next.filter(|&(d, _)| d <= now) {
                self.pass
                    .late_ms
                    .push(OpenLoop::lateness_ns(due, now) as f64 / 1e6);
                match kind {
                    0 => {
                        self.search(due, searches[si].1);
                        si += 1;
                    }
                    1 => {
                        self.create(due, creates[ci].1, ci);
                        ci += 1;
                    }
                    _ => {
                        if let Some((d, id)) = self.withdraws.pop_front() {
                            self.withdraw(d, id);
                        }
                    }
                }
                continue;
            }
            let settled = next.is_none()
                && self.next_change == self.changes.len()
                && self.pending.is_empty()
                && self.pending_creates.is_empty();
            if (now >= end && settled) || now >= hard_end {
                break;
            }
            let wake = next.map_or(u64::MAX, |(d, _)| d);
            let tick = now + TICK.as_nanos() as u64;
            self.ol.wait_until(wake.min(tick).max(now + 1));
        }
        self.pass.failures.never_visible += (self.pending.len()
            + self.pending_creates.len()
            + (self.changes.len() - self.next_change))
            as u64;
        self.pass.attempted += (si + ci + self.withdrawn.len()) as u64;
        trace::finish_thread();
    }
}

/// One measured pass over running agents; consumes them.
pub fn measure(
    spec: &Spec,
    input: &Input,
    announce: &[SapPacket],
    agents: Agents,
    window: Duration,
) -> Result<Pass, String> {
    let allocs_before = reader_allocs();
    let sent_before = agents.gen_counts.sent();
    let delivered_before = agents.bus.as_ref().map_or(0, |b| b.stats().delivered);
    let ol = OpenLoop::new(Instant::now() + Duration::from_millis(5));
    let changes: Vec<Pending> = input
        .sends
        .iter()
        .filter(|s| s.change)
        .map(|s| {
            let ses = &input.sessions[s.session as usize];
            Pending {
                due: s.due,
                key: (ses.origin, ses.session_id),
                version: s.version,
            }
        })
        .collect();
    let Agents {
        service,
        handles,
        wires,
        gen,
        gen_counts,
        bus,
        widened,
    } = agents;
    let mut obs = Observer {
        input,
        service: &service,
        ol,
        window_ns: window.as_nanos() as u64,
        reader: handles[B].reader(),
        keywords: (0..TOPICS).map(topic_keyword).collect(),
        seen_version: 0,
        snapshots_seen: 0,
        pending: Vec::with_capacity(changes.len() + input.creates.len()),
        pending_creates: Vec::with_capacity(input.creates.len()),
        changes,
        next_change: 0,
        withdraws: VecDeque::new(),
        live: BTreeSet::new(),
        withdrawn: Vec::new(),
        pass: Pass::default(),
    };
    let p = &mut obs.pass;
    p.visible_ms
        .reserve(obs.changes.len() + input.creates.len());
    p.propagate_ms.reserve(input.creates.len());
    let lookup_reader = handles[B].reader();
    let sent = std::thread::scope(|sc| {
        let sender = sc.spawn(|| {
            let gen = gen;
            send_loop(&gen, lookup_reader, announce, input, ol)
        });
        obs.run();
        sender.join()
    });
    let sender = sent
        .map_err(|_| "sender thread panicked".to_string())?
        .map_err(|e| format!("generator send: {e}"))?;
    let Observer {
        mut pass,
        live,
        withdrawn,
        ..
    } = obs;
    pass.late_ms.extend(sender.late_ms);
    pass.lookup_us = sender.lookup_us;
    pass.reader_load_ns = sender.load_ns;
    pass.reader_lookup_ns = sender.lookup_ns;
    pass.failures.wrong_answers += sender.wrong_answers;
    pass.gen_sent = gen_counts.sent() - sent_before;
    pass.attempted += (input.sends.len() + input.lookups.len()) as u64;

    if spec.udp {
        // Whatever B has not read once the sockets go quiet, the kernel
        // dropped.
        let expected = gen_counts.sent() + wires[A].sent();
        let quiet = Instant::now() + Duration::from_secs(2);
        while wires[B].received() < expected && Instant::now() < quiet {
            std::thread::sleep(Duration::from_millis(1));
        }
        pass.failures.kernel_dropped = expected.saturating_sub(wires[B].received());
    }
    if let Some(bus) = &bus {
        let s = bus.stats();
        pass.failures.dropped_full = s.dropped_full;
        pass.bus_delivered = s.delivered - delivered_before;
    }
    pass.failures.b_sends = wires[B].sent();
    pass.widened = widened.load(std::sync::atomic::Ordering::SeqCst);
    pass.agents = service.shutdown();
    pass.failures.agent_errors = pass.agents.iter().filter(|a| a.error.is_some()).count() as u64;

    // The final snapshot against the generator's model: every resident
    // session at its last version, live creates present, withdrawn
    // ones absent, nothing else.
    let last = handles[B].load_slow();
    let f = &mut pass.failures;
    f.corrupt_rows += last.corrupt_rows() as u64;
    for (s, &v) in input.sessions.iter().zip(&input.final_versions) {
        let ok = last
            .get(s.origin, s.session_id)
            .is_some_and(|r| r.version == v && r.group == s.group && r.ttl == s.ttl);
        f.model_mismatches += u64::from(!ok);
    }
    f.model_mismatches += live
        .iter()
        .filter(|&&id| last.get(HOST_A, id).is_none())
        .count() as u64;
    f.model_mismatches += withdrawn
        .iter()
        .filter(|&&id| last.get(HOST_A, id).is_some())
        .count() as u64;
    let expected_rows = input.sessions.len() + live.len();
    f.model_mismatches += last.len().abs_diff(expected_rows) as u64;
    pass.reader_allocs = reader_allocs() - allocs_before;
    Ok(pass)
}
