//! Conservative window-synchronized parallel DES: the lane runtime, and
//! the only event-dispatch loop of the mesh simulator.
//!
//! The machine is split into contiguous node blocks ("lanes", one per
//! group of mesh rows — [`LaneMap`]). Each lane owns an event calendar,
//! an executor ([`LaneTasks`]) and the futures of its node programs.
//! Lanes are synchronized with the classic bounded-lag (CMB/YAWNS-style)
//! rule:
//!
//! 1. `T` = minimum next-event time across all lanes,
//! 2. every lane processes its local events in `[T, T + L)` where `L`
//!    is the network's cross-lane lookahead
//!    ([`crate::machine::NetModel::lookahead`]) — a message sent at `t`
//!    can never arrive in another lane before `t + L`, so no event in
//!    the window can be invalidated by a peer lane,
//! 3. cross-lane messages buffered during the window are exchanged
//!    through a per-(destination, source) mailbox and scheduled into the
//!    destination calendars, and the next window begins.
//!
//! A single-lane run ([`crate::sim::Machine::run`] and every other entry
//! point at one lane) has no peer to wait for, so its window is
//! unbounded: it drains its calendar in one window, in time order with
//! FIFO tie-breaking, until every program has finished. Only a
//! single-lane run carries the caller's recorder; multi-lane runs are
//! unrecorded.
//!
//! ## Determinism contract
//!
//! A sharded run is a pure function of (machine config, fault plan,
//! program, lane count) — thread scheduling cannot change results:
//! lanes only interact at window boundaries, each mailbox slot carries
//! messages from exactly one source lane in that lane's deterministic
//! send order, and every lane drains slots in source-lane order, so the
//! destination calendar's tie-breaking sequence numbers are assigned
//! identically on every run. Remote failure checks read a crash
//! schedule precomputed from the fault plan instead of shared mutable
//! state. The inline (single-thread) and threaded modes produce the
//! same answer; `HPCC_LANE_MODE=threads|inline` forces one for testing.
//!
//! Changing the lane *count* changes cross-lane message timing (see
//! below), so only final results of timing-insensitive programs are
//! lane-count-invariant, not per-event timestamps.
//!
//! ## Modelling concession
//!
//! Intra-lane messages keep the full link-occupancy contention model.
//! Cross-lane messages are timed analytically (sender overhead plus the
//! uncontended transfer time) and ignore link outages: boundary traffic
//! sees no channel contention. With row-block lanes and XY routing,
//! every route between same-lane nodes stays on same-lane channels, so
//! the concession applies exactly to the traffic that crosses a lane
//! boundary and to nothing else.

use crate::machine::MachineConfig;
use crate::partition::LaneMap;
use crate::sim::{Counters, Event, Msg, Node, RunReport, ShardState, SimCore};
use crate::topology::Topology;
use des::faults::{FaultKind, FaultPlan};
use des::time::{Dur, SimTime};
use des::{EventQueue, LaneTasks, TaskId};
use hpcc_trace::{names, NullRecorder, Recorder, TrackId};
use std::cell::RefCell;
use std::future::Future;
use std::ops::Range;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};

#[derive(Clone, Copy, Debug, PartialEq)]
enum LaneMode {
    /// All lanes round-robin on the calling thread. Deterministic and
    /// barrier-free; the right choice on a single-CPU host where OS
    /// threads would only add context switches.
    Inline,
    /// One OS thread per lane, three barriers per window.
    Threads,
}

/// The lane mode for an `HPCC_LANE_MODE` value (`None` = unset) on a
/// host with `cores` CPUs: threads when there is more than one CPU,
/// unless the variable says otherwise. Any value other than `inline`
/// or `threads` panics — a silent fallback would let a typo measure
/// the wrong mode.
fn lane_mode(var: Option<&str>, cores: usize) -> LaneMode {
    match var {
        Some("inline") => LaneMode::Inline,
        Some("threads") => LaneMode::Threads,
        Some(other) => panic!("HPCC_LANE_MODE={other:?}: expected \"inline\" or \"threads\""),
        None if cores > 1 => LaneMode::Threads,
        None => LaneMode::Inline,
    }
}

fn pick_mode() -> LaneMode {
    let var = std::env::var_os("HPCC_LANE_MODE").map(|v| v.to_string_lossy().into_owned());
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    lane_mode(var.as_deref(), cores)
}

/// First crash instant per node (`SimTime::MAX` = never). Crashes are
/// fail-stop and scripted, so the schedule is known before the run
/// starts — this is what lets a lane answer "is that remote node dead?"
/// without asking the lane that owns it.
fn crash_times(n: usize, plan: &FaultPlan) -> Arc<[SimTime]> {
    let mut t = vec![SimTime::MAX; n];
    for e in plan.events() {
        if let FaultKind::NodeCrash { node } = e.kind {
            t[node] = t[node].min(e.at);
        }
    }
    t.into()
}

/// Lane owning each directed channel: the lane of the channel's source
/// node. Only built when the plan contains link faults.
fn link_owners(topo: &Topology, map: &LaneMap) -> Vec<usize> {
    let mut owner = vec![0usize; topo.links()];
    let mut nbrs = Vec::new();
    for node in 0..topo.nodes() {
        nbrs.clear();
        topo.neighbours(node, &mut nbrs);
        for &(_, link) in &nbrs {
            owner[link] = map.lane_of(node);
        }
    }
    owner
}

/// One mailbox slot: messages bound for a single destination lane from
/// a single source lane, each tagged with the receiving node's rank.
type MailSlot = Mutex<Vec<(usize, Msg)>>;

/// Cross-lane coordination state. Everything here is only touched at
/// window boundaries; the hot path never takes a lock.
struct Shared {
    /// `mail[dst][src]`: messages from lane `src` to lane `dst`, in
    /// `src`'s send order. Sharded mutexes — no two writers contend on
    /// a slot, and readers drain after the barrier.
    mail: Vec<Vec<MailSlot>>,
    /// Each lane's next local event time (`u64::MAX` = nothing pending).
    next: Vec<AtomicU64>,
    /// Each lane's count of unfinished node programs.
    live: Vec<AtomicUsize>,
    /// Some lane has applied a hardware fault (orphaned survivors are
    /// then casualties, not deadlocks).
    faulted: AtomicBool,
    /// Synchronization rounds (windows) executed — a diagnostic for the
    /// window/event ratio, surfaced through [`LaneStats`].
    rounds: AtomicU64,
    /// Cross-lane messages exchanged through the mailboxes — boundary
    /// traffic volume, surfaced through [`LaneStats`].
    mail_msgs: AtomicU64,
    /// Blocked-node diagnostics, filled only on the deadlock path.
    stuck: Mutex<Vec<String>>,
}

impl Shared {
    fn new(lanes: usize) -> Shared {
        Shared {
            mail: (0..lanes)
                .map(|_| (0..lanes).map(|_| Mutex::new(Vec::new())).collect())
                .collect(),
            next: (0..lanes).map(|_| AtomicU64::new(u64::MAX)).collect(),
            live: (0..lanes).map(|_| AtomicUsize::new(0)).collect(),
            faulted: AtomicBool::new(false),
            rounds: AtomicU64::new(0),
            mail_msgs: AtomicU64::new(0),
            stuck: Mutex::new(Vec::new()),
        }
    }
}

/// What every lane decides (identically) at a window boundary.
enum Decision {
    /// Process local events strictly below this horizon (`SimTime::MAX`:
    /// every event).
    Run(SimTime),
    /// Calendars are empty but programs survive a faulted run: abort
    /// them as orphans and finish.
    Orphans,
    Done,
    Deadlock,
}

fn deadlock_panic(machine: &str, live: usize, stuck: &[String]) -> ! {
    panic!(
        "deadlock on {machine}: {live} tasks parked, no events\n{}",
        stuck.join("\n")
    )
}

/// What every lane of one run shares, read-only apart from the
/// window-boundary state in [`Shared`].
struct RunCtx<'a> {
    cfg: &'a MachineConfig,
    plan: &'a FaultPlan,
    map: LaneMap,
    crash: Arc<[SimTime]>,
    link_owner: Vec<usize>,
    /// Window width: the network's cross-lane lookahead, or unbounded
    /// for a lone lane, which has no peer to wait for.
    lookahead: Dur,
    shared: Shared,
}

impl<'a> RunCtx<'a> {
    fn new(cfg: &'a MachineConfig, lanes: usize, plan: &'a FaultPlan) -> RunCtx<'a> {
        let map = LaneMap::new(&cfg.topology, lanes);
        let lookahead = if map.lanes() > 1 {
            cfg.net.lookahead()
        } else {
            Dur(u64::MAX)
        };
        let link_owner = if plan
            .events()
            .iter()
            .any(|e| matches!(e.kind, FaultKind::LinkDown { .. }))
        {
            link_owners(&cfg.topology, &map)
        } else {
            Vec::new()
        };
        RunCtx {
            cfg,
            plan,
            crash: crash_times(cfg.nodes(), plan),
            link_owner,
            lookahead,
            shared: Shared::new(map.lanes()),
            map,
        }
    }

    fn lanes(&self) -> usize {
        self.map.lanes()
    }

    fn decide(&self) -> Decision {
        let shared = &self.shared;
        let t = shared
            .next
            .iter()
            .map(|a| a.load(Ordering::SeqCst))
            .min()
            .expect("at least one lane");
        if t != u64::MAX {
            return Decision::Run(SimTime(t) + self.lookahead);
        }
        let live: usize = shared.live.iter().map(|a| a.load(Ordering::SeqCst)).sum();
        if live == 0 {
            Decision::Done
        } else if shared.faulted.load(Ordering::SeqCst) {
            Decision::Orphans
        } else {
            Decision::Deadlock
        }
    }

    /// Build lane `lane`: its core (on `cfg`, recording into `rec`), its
    /// share of the fault plan, and one spawned task per owned node,
    /// run up to their first suspension.
    fn setup<T, F, Fut>(
        &self,
        lane: usize,
        cfg: Rc<MachineConfig>,
        rec: Rc<dyn Recorder>,
        program: &F,
    ) -> Lane<T>
    where
        T: 'static,
        F: Fn(Node) -> Fut,
        Fut: Future<Output = T> + 'static,
    {
        let n = self.cfg.nodes();
        let nlinks = self.cfg.topology.links();
        let range = self.map.range(lane);
        // Registered ahead of the core's tracks: a recorded run's
        // tracks are the executor, then every node, then every channel.
        let sampler = rec.is_enabled().then(|| Sampler {
            track: rec.track(names::DES, "executor"),
            rec: Rc::clone(&rec),
            dispatches: 0,
        });
        let shard = ShardState {
            map: self.map.clone(),
            owned: range.clone(),
            crash_time: Arc::clone(&self.crash),
            outbox: Vec::new(),
        };
        let core = Rc::new(RefCell::new(SimCore::for_lane(cfg, rec, shard)));
        let mut tasks = LaneTasks::with_capacity(range.len());
        let results: Rc<RefCell<Vec<Option<T>>>> =
            Rc::new(RefCell::new((0..range.len()).map(|_| None).collect()));

        // This lane's share of the fault plan: node faults by owner
        // lane, link faults by the channel's source-node lane. Faults at
        // t=0 take effect before any program instruction runs (the
        // machine was already broken at boot); later ones become
        // calendar events racing the programs.
        let mut boot = Vec::new();
        {
            let mut c = core.borrow_mut();
            for e in self.plan.events() {
                let owner = match e.kind {
                    FaultKind::NodeCrash { node } | FaultKind::NodeSlow { node, .. } => {
                        assert!(node < n, "fault plan targets node {node} of {n}");
                        self.map.lane_of(node)
                    }
                    FaultKind::LinkDown { link, .. } => {
                        assert!(link < nlinks, "fault plan targets link {link} of {nlinks}");
                        self.link_owner[link]
                    }
                };
                if owner != lane {
                    continue;
                }
                if e.at == SimTime::ZERO {
                    if let Some(node) = c.apply_fault(e.kind) {
                        boot.push(node);
                    }
                } else {
                    c.q.schedule(e.at, Event::Fault(e.kind));
                }
            }
        }

        let mut task_of = Vec::with_capacity(range.len());
        for rank in range.clone() {
            let node = Node::new_in(Rc::clone(&core), rank, n);
            let fut = program(node);
            let sink = Rc::clone(&results);
            let slot = rank - range.start;
            task_of.push(tasks.spawn(async move {
                let out = fut.await;
                sink.borrow_mut()[slot] = Some(out);
            }));
        }
        for node in boot {
            tasks.abort(task_of[node - range.start]);
        }
        tasks.run_ready();
        Lane {
            lane,
            range,
            core,
            tasks,
            task_of,
            results,
            sampler,
        }
    }

    /// Merge the lanes' outcomes into per-node results, the machine-wide
    /// report and the lane diagnostics.
    fn finish<T>(self, outs: Vec<LaneOut<T>>) -> (Vec<Option<T>>, RunReport, LaneStats) {
        let cfg = self.cfg;
        let n = cfg.nodes();
        let nlinks = cfg.topology.links();
        let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
        let mut counters = Counters::default();
        let mut end = SimTime::ZERO;
        let mut per_lane_events = Vec::with_capacity(outs.len());
        for out in outs {
            let start = out.range.start;
            for (i, r) in out.results.into_iter().enumerate() {
                results[start + i] = r;
            }
            counters.absorb(&out.counters);
            end = end.max(out.now);
            per_lane_events.push(out.events);
        }
        let events = per_lane_events.iter().sum();
        let elapsed = end - SimTime::ZERO;
        let denom = elapsed.as_secs_f64().max(1e-30);
        let report = RunReport {
            machine: cfg.name.clone(),
            nodes: n,
            elapsed,
            messages: counters.messages,
            bytes: counters.bytes,
            flops: counters.flops,
            events,
            compute_fraction: counters.compute_time.as_secs_f64() / (n as f64 * denom),
            link_utilization: counters.link_busy.as_secs_f64() / (nlinks.max(1) as f64 * denom),
            unexpected_messages: counters.unexpected,
            faults: counters.faults,
        };
        let stats = LaneStats {
            lanes: self.lanes(),
            rounds: self.shared.rounds.load(Ordering::Relaxed),
            events,
            mail_msgs: self.shared.mail_msgs.load(Ordering::Relaxed),
            per_lane_events,
        };
        (results, report, stats)
    }
}

/// Executor and event-queue depth sampled onto the recorder's
/// `des`/`executor` track every [`Sampler::EVERY`] dispatches —
/// frequent enough to see backlog build up, sparse enough not to
/// dominate the trace.
struct Sampler {
    rec: Rc<dyn Recorder>,
    track: TrackId,
    dispatches: u64,
}

impl Sampler {
    const EVERY: u64 = 64;

    fn tick(&mut self, q: &EventQueue<Event>, tasks: &LaneTasks) {
        self.dispatches += 1;
        if self.dispatches.is_multiple_of(Self::EVERY) {
            let ts = q.now().nanos();
            let rec = &self.rec;
            rec.counter(self.track, "event_queue_depth", ts, q.len() as f64);
            rec.counter(self.track, "ready_tasks", ts, tasks.ready_len() as f64);
            rec.counter(self.track, "live_tasks", ts, tasks.live() as f64);
            rec.counter(self.track, "task_polls", ts, tasks.polls() as f64);
        }
    }
}

/// One lane: a lane-configured [`SimCore`], its executor, and the task
/// handles of the node programs it owns.
struct Lane<T> {
    lane: usize,
    range: Range<usize>,
    core: Rc<RefCell<SimCore>>,
    tasks: LaneTasks,
    task_of: Vec<TaskId>,
    results: Rc<RefCell<Vec<Option<T>>>>,
    /// Present only when the lane records (a single-lane run with an
    /// enabled recorder).
    sampler: Option<Sampler>,
}

impl<T> Lane<T> {
    /// Process every local event strictly below `horizon`
    /// (`SimTime::MAX`: every event), running the executor after each.
    /// Completion is checked *before* each pop: once every program on
    /// this lane has finished, leftover calendar entries (pending
    /// faults, stale timers) are abandoned.
    fn process_window(&mut self, horizon: SimTime) {
        while !self.tasks.all_done() {
            let ev = {
                let mut core = self.core.borrow_mut();
                if horizon == SimTime::MAX {
                    core.q.pop()
                } else {
                    core.q.pop_before(horizon)
                }
            };
            let Some((_, ev)) = ev else { break };
            match ev {
                Event::Deliver { dst, msg } => self.core.borrow_mut().deliver(dst, msg),
                Event::Wake(c) => c.fulfil(()),
                Event::Fault(kind) => {
                    let crashed = self.core.borrow_mut().apply_fault(kind);
                    if let Some(node) = crashed {
                        self.tasks.abort(self.task_of[node - self.range.start]);
                    }
                }
                Event::LinkUp { link } => self.core.borrow_mut().link_up(link),
                Event::RecvDeadline { dst, token, after } => {
                    self.core.borrow_mut().deadline(dst, token, after);
                }
            }
            if let Some(s) = &mut self.sampler {
                s.tick(&self.core.borrow().q, &self.tasks);
            }
            self.tasks.run_ready();
        }
    }

    /// Hand this window's cross-lane sends to their destination slots.
    fn flush(&mut self, shared: &Shared) {
        let mut core = self.core.borrow_mut();
        let sh = &mut core.shard;
        if sh.outbox.is_empty() {
            return;
        }
        shared
            .mail_msgs
            .fetch_add(sh.outbox.len() as u64, Ordering::Relaxed);
        for (dst, msg) in sh.outbox.drain(..) {
            let dlane = sh.map.lane_of(dst);
            shared.mail[dlane][self.lane]
                .lock()
                .expect("mail slot")
                .push((dst, msg));
        }
    }

    /// Schedule everything other lanes sent us; arrivals land at or past
    /// the horizon by the lookahead argument, so the calendar never sees
    /// a past timestamp.
    fn drain(&mut self, shared: &Shared) {
        let mut core = self.core.borrow_mut();
        for src in 0..shared.mail.len() {
            let mut slot = shared.mail[self.lane][src].lock().expect("mail slot");
            for (dst, msg) in slot.drain(..) {
                let at = msg.arrived_at;
                core.q.schedule(at, Event::Deliver { dst, msg });
            }
        }
    }

    fn publish(&self, shared: &Shared) {
        let core = self.core.borrow();
        // A finished lane reports an empty calendar even if events are
        // still queued — dispatch stops the moment its last task
        // completes, and the abandoned events must not keep dragging
        // the global horizon (or the elapsed clock) forward. An event
        // at the end of time is published one tick early so it does not
        // read as the empty sentinel; the window it opens is unbounded.
        let next = if self.tasks.all_done() {
            u64::MAX
        } else {
            core.q
                .peek_time()
                .map_or(u64::MAX, |t| t.0.min(u64::MAX - 1))
        };
        shared.next[self.lane].store(next, Ordering::SeqCst);
        shared.live[self.lane].store(self.tasks.live(), Ordering::SeqCst);
        if core.counters.faults.any() {
            shared.faulted.store(true, Ordering::SeqCst);
        }
    }

    /// Abort every unfinished program on this lane (fault aftermath).
    fn abort_orphans(&mut self) {
        let mut orphans = 0;
        for &t in &self.task_of {
            if self.tasks.abort(t) {
                orphans += 1;
            }
        }
        self.core.borrow_mut().counters.faults.orphaned_tasks += orphans;
    }

    fn into_out(self) -> LaneOut<T> {
        // Drop the executor first: completed/aborted futures are gone, so
        // the result sink is uniquely held again.
        drop(self.tasks);
        let results = Rc::try_unwrap(self.results)
            .unwrap_or_else(|_| unreachable!("lane tasks done"))
            .into_inner();
        let core = self.core.borrow();
        LaneOut {
            range: self.range,
            results,
            counters: core.counters.clone(),
            now: core.q.now(),
            events: core.q.events_processed(),
        }
    }

    fn stuck_report(&self) -> Vec<String> {
        self.core
            .borrow()
            .blocked
            .iter()
            .enumerate()
            .filter_map(|(r, b)| b.as_ref().map(|s| format!("  node {r}: {s}")))
            .collect()
    }
}

/// Per-lane scalar outcome, merged by [`RunCtx::finish`].
struct LaneOut<T> {
    range: Range<usize>,
    results: Vec<Option<T>>,
    counters: Counters,
    now: SimTime,
    events: u64,
}

/// Lane-runtime diagnostics for one run: window count, event
/// throughput per lane, and cross-lane mailbox traffic — returned by
/// [`crate::sim::Machine::run_sharded_stats`] and exportable as
/// [`hpcc_trace::names::DES_LANES`] track counters via
/// [`LaneStats::emit`].
#[derive(Debug, Clone, PartialEq)]
pub struct LaneStats {
    /// Lanes the machine was split into (1 = every node on one lane).
    pub lanes: usize,
    /// Synchronization windows executed. A single-lane run has one
    /// unbounded window (none if no event was ever pending).
    pub rounds: u64,
    /// Events processed, summed over lanes.
    pub events: u64,
    /// Messages exchanged through the cross-lane mailboxes.
    pub mail_msgs: u64,
    /// Events processed by each lane, in lane order.
    pub per_lane_events: Vec<u64>,
}

impl LaneStats {
    /// Mean events per synchronization window — the conservative-parallel
    /// efficiency figure (higher = less barrier overhead per event).
    pub fn events_per_round(&self) -> f64 {
        self.events as f64 / self.rounds.max(1) as f64
    }

    /// Record the lane diagnostics as counters at `at_ns`: an aggregate
    /// `engine` track (rounds, events, mailbox traffic, events/round)
    /// plus one track per lane, all under
    /// [`hpcc_trace::names::DES_LANES`].
    pub fn emit(&self, rec: &dyn hpcc_trace::Recorder, at_ns: u64) {
        if !rec.is_enabled() {
            return;
        }
        let agg = rec.track(hpcc_trace::names::DES_LANES, "engine");
        rec.counter(agg, "lanes", at_ns, self.lanes as f64);
        rec.counter(agg, "rounds", at_ns, self.rounds as f64);
        rec.counter(agg, "events", at_ns, self.events as f64);
        rec.counter(agg, "mail_msgs", at_ns, self.mail_msgs as f64);
        rec.counter(agg, "events_per_round", at_ns, self.events_per_round());
        for (lane, &ev) in self.per_lane_events.iter().enumerate() {
            let t = rec.track(hpcc_trace::names::DES_LANES, &format!("lane {lane}"));
            rec.counter(t, "events", at_ns, ev as f64);
        }
    }
}

/// A single-lane run: every node on one lane with one unbounded window,
/// recording into `rec`. Used by [`crate::sim::Machine::run_recorded`]
/// and everything that routes through it; it has no `Send`/`Sync`
/// bounds because nothing leaves the calling thread.
pub(crate) fn run_one<T, F, Fut>(
    cfg: &Rc<MachineConfig>,
    plan: &FaultPlan,
    rec: Rc<dyn Recorder>,
    program: &F,
) -> (Vec<Option<T>>, RunReport, LaneStats)
where
    T: 'static,
    F: Fn(Node) -> Fut,
    Fut: Future<Output = T> + 'static,
{
    let ctx = RunCtx::new(cfg, 1, plan);
    let outs = run_inline(&ctx, Rc::clone(cfg), rec, program);
    ctx.finish(outs)
}

/// Entry point used by [`crate::sim::Machine::run_sharded_stats`]: run
/// `program` on every node across `lanes` unrecorded lanes, on threads
/// or inline ([`pick_mode`]). One lane is [`run_one`] without a
/// recorder.
pub(crate) fn run<T, F, Fut>(
    cfg: &Rc<MachineConfig>,
    lanes: usize,
    plan: &FaultPlan,
    program: &F,
) -> (Vec<Option<T>>, RunReport, LaneStats)
where
    T: Send + 'static,
    F: Fn(Node) -> Fut + Sync,
    Fut: Future<Output = T> + 'static,
{
    let ctx = RunCtx::new(cfg, lanes, plan);
    let outs = if ctx.lanes() > 1 && pick_mode() == LaneMode::Threads {
        run_threads(&ctx, program)
    } else {
        run_inline(&ctx, Rc::clone(cfg), Rc::new(NullRecorder), program)
    };
    ctx.finish(outs)
}

/// All lanes round-robin on the calling thread, sharing one config and
/// one recorder.
fn run_inline<T, F, Fut>(
    ctx: &RunCtx,
    cfg: Rc<MachineConfig>,
    rec: Rc<dyn Recorder>,
    program: &F,
) -> Vec<LaneOut<T>>
where
    T: 'static,
    F: Fn(Node) -> Fut,
    Fut: Future<Output = T> + 'static,
{
    let shared = &ctx.shared;
    let mut ls: Vec<Lane<T>> = (0..ctx.lanes())
        .map(|l| ctx.setup(l, Rc::clone(&cfg), Rc::clone(&rec), program))
        .collect();
    for l in &mut ls {
        l.flush(shared);
    }
    for l in &mut ls {
        l.drain(shared);
        l.publish(shared);
    }
    loop {
        match ctx.decide() {
            Decision::Done => break,
            Decision::Deadlock => {
                let stuck: Vec<String> = ls.iter().flat_map(|l| l.stuck_report()).collect();
                let live = ls.iter().map(|l| l.tasks.live()).sum();
                deadlock_panic(&ctx.cfg.name, live, &stuck);
            }
            Decision::Orphans => {
                for l in &mut ls {
                    l.abort_orphans();
                    l.publish(shared);
                }
            }
            Decision::Run(horizon) => {
                shared.rounds.fetch_add(1, Ordering::Relaxed);
                for l in &mut ls {
                    l.process_window(horizon);
                    l.flush(shared);
                }
                for l in &mut ls {
                    l.drain(shared);
                    l.publish(shared);
                }
            }
        }
    }
    ls.into_iter().map(Lane::into_out).collect()
}

/// One OS thread per lane. Each thread builds its own lane (`Rc` state
/// never crosses threads) on a private copy of the config.
fn run_threads<T, F, Fut>(ctx: &RunCtx, program: &F) -> Vec<LaneOut<T>>
where
    T: Send + 'static,
    F: Fn(Node) -> Fut + Sync,
    Fut: Future<Output = T> + 'static,
{
    let shared = &ctx.shared;
    let barrier = Barrier::new(ctx.lanes());
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..ctx.lanes())
            .map(|lane| {
                let barrier = &barrier;
                s.spawn(move || {
                    let cfg = Rc::new(ctx.cfg.clone());
                    let mut l: Lane<T> = ctx.setup(lane, cfg, Rc::new(NullRecorder), program);
                    // Round structure: work -> flush -> barrier ->
                    // drain + publish -> barrier -> decide. Writes to
                    // `shared` happen strictly between the two barriers,
                    // reads strictly after the second, so every lane
                    // decides on the same snapshot.
                    l.flush(shared);
                    barrier.wait();
                    l.drain(shared);
                    l.publish(shared);
                    barrier.wait();
                    loop {
                        match ctx.decide() {
                            Decision::Done => break,
                            Decision::Deadlock => {
                                shared
                                    .stuck
                                    .lock()
                                    .expect("stuck list")
                                    .extend(l.stuck_report());
                                let leader = barrier.wait().is_leader();
                                if leader {
                                    let stuck =
                                        std::mem::take(&mut *shared.stuck.lock().expect("stuck"));
                                    let live =
                                        shared.live.iter().map(|a| a.load(Ordering::SeqCst)).sum();
                                    deadlock_panic(&ctx.cfg.name, live, &stuck);
                                }
                                break;
                            }
                            Decision::Orphans => {
                                l.abort_orphans();
                                barrier.wait();
                                l.publish(shared);
                                barrier.wait();
                            }
                            Decision::Run(horizon) => {
                                if lane == 0 {
                                    shared.rounds.fetch_add(1, Ordering::Relaxed);
                                }
                                l.process_window(horizon);
                                l.flush(shared);
                                barrier.wait();
                                l.drain(shared);
                                l.publish(shared);
                                barrier.wait();
                            }
                        }
                    }
                    l.into_out()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(out) => out,
                Err(e) => std::panic::resume_unwind(e),
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_mode_follows_the_variable_then_the_core_count() {
        assert_eq!(lane_mode(Some("inline"), 8), LaneMode::Inline);
        assert_eq!(lane_mode(Some("threads"), 1), LaneMode::Threads);
        assert_eq!(lane_mode(None, 2), LaneMode::Threads);
        assert_eq!(lane_mode(None, 1), LaneMode::Inline);
    }

    #[test]
    #[should_panic(expected = "HPCC_LANE_MODE=\"thread\": expected \"inline\" or \"threads\"")]
    fn lane_mode_rejects_a_typo() {
        lane_mode(Some("thread"), 2);
    }
}
