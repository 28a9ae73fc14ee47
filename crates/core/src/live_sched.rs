//! The live-node scheduler: thousands of unmodified [`TeechainNode`]s
//! sharing a fixed pool of worker threads.
//!
//! Every node is a [`Cell`] — an inbox, a ready flag and the node state —
//! and `W` workers pop ready nodes from one shared run queue, drain a
//! bounded batch of their inputs through the [`drive`] bridge, and move
//! on. Total thread count is `W + 2` (workers + the reactor poller + one
//! timer thread) regardless of node count.
//!
//! Readiness has three sources:
//!
//! * **Inbound messages** — the reactor transport runs in sink mode
//!   ([`ReactorNet::localhost_sink`]), so its poller enqueues frames
//!   straight into the destination cell's inbox and marks it ready. No
//!   pump threads.
//! * **Harness requests** — submissions, observability snapshots and
//!   dead-op resolution enter the same inbox, so they serialize with
//!   message handling per node (the single-event-loop invariant the
//!   protocol handlers assume).
//! * **Timers** — one *shared* wall-clock timer heap for the whole
//!   cluster, serviced by a dedicated thread that sleeps until the
//!   earliest deadline and re-enqueues the owning node when it fires —
//!   the live analogue of the engine's global timer queue.
//!
//! Exclusivity: a cell's `queued` flag guarantees a node is in the run
//! queue at most once, and its state mutex guarantees at most one worker
//! drives it at a time — together they preserve per-node handler
//! serialization while different nodes run genuinely in parallel. The
//! flag is cleared *before* re-checking the inbox so a racing enqueue
//! can never strand input (the re-check re-queues, possibly spuriously,
//! never silently drops).

use crate::live::{Input, LiveConfig, LiveReq};
use crate::node::TeechainNode;
use crate::ops::{Completion, OpError, OpId, OpOutput};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use teechain_net::live::drive;
use teechain_net::live::reactor::{ReactorHandle, ReactorNet, ReactorTx, POOL};
use teechain_net::{NodeAction, NodeId, TransportTx};
use teechain_util::rng::Xoshiro256;

/// Most inputs one scheduling turn drains from a node's inbox before
/// the worker re-queues it and moves on — keeps one chatty node from
/// starving the rest of its shard.
const TURN_BUDGET: usize = 64;

/// Longest the timer thread sleeps with an empty heap (a new timer
/// notifies it immediately; this only bounds stop-flag latency).
const TIMER_IDLE: Duration = Duration::from_millis(25);

/// One node's scheduling state.
struct Cell {
    /// Unified input queue: network frames, harness requests, timer
    /// fires.
    inbox: Mutex<VecDeque<Input>>,
    /// True while the node is in the run queue (or being drained):
    /// guarantees at most one run-queue entry per node.
    queued: AtomicBool,
    /// The node itself plus its transport sender and RNG lane. `None`
    /// only after shutdown extracts the node.
    state: Mutex<Option<NodeState>>,
    /// Published completion stream (shared with the harness).
    done: Arc<Published>,
}

/// A node's published completion stream and its completion signal. The
/// worker that drives the node appends; harness threads read, drain, or
/// wait for one operation's completion.
pub(crate) struct Published {
    stream: Mutex<Stream>,
    /// Notified after an append that found a waiter.
    signal: Condvar,
}

struct Stream {
    done: Vec<Completion>,
    /// Threads parked on `signal`. Counted under the stream mutex, so an
    /// append that reads zero makes no system call and wakes nobody who
    /// has not yet looked at the stream.
    waiters: usize,
}

impl Published {
    fn new() -> Published {
        Published {
            stream: Mutex::new(Stream {
                done: Vec::new(),
                waiters: 0,
            }),
            signal: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Stream> {
        self.stream.lock().expect("completion stream")
    }

    /// Appends fresh completions and wakes the threads waiting, if any.
    fn publish(&self, fresh: Vec<Completion>) {
        let mut stream = self.lock();
        stream.done.extend(fresh);
        let wake = stream.waiters > 0;
        drop(stream);
        if wake {
            self.signal.notify_all();
        }
    }

    /// The stream so far, in resolution order.
    pub(crate) fn snapshot(&self) -> Vec<Completion> {
        self.lock().done.clone()
    }

    /// Drains the stream.
    pub(crate) fn take(&self) -> Vec<Completion> {
        std::mem::take(&mut self.lock().done)
    }

    /// The published outcome of `op`, if it has resolved. Scans newest
    /// first: a resolver usually asks for what just completed.
    pub(crate) fn outcome(&self, op: OpId) -> Option<Result<OpOutput, OpError>> {
        find(&self.lock().done, op)
    }

    /// Waits until `op`'s completion is published or `deadline` passes;
    /// `None` on the deadline. An outcome already published returns at
    /// once, without parking.
    pub(crate) fn wait(&self, op: OpId, deadline: Instant) -> Option<Result<OpOutput, OpError>> {
        let mut stream = self.lock();
        loop {
            if let Some(outcome) = find(&stream.done, op) {
                return Some(outcome);
            }
            let left = deadline.checked_duration_since(Instant::now())?;
            stream.waiters += 1;
            stream = self
                .signal
                .wait_timeout(stream, left)
                .expect("completion stream wait")
                .0;
            stream.waiters -= 1;
        }
    }
}

fn find(done: &[Completion], op: OpId) -> Option<Result<OpOutput, OpError>> {
    done.iter()
        .rev()
        .find(|c| c.op == op)
        .map(|c| c.outcome.clone())
}

/// The mutable per-node state a worker owns while driving the node.
struct NodeState {
    node: TeechainNode,
    tx: ReactorTx,
    rng: Xoshiro256,
    sent_msgs: u64,
    sent_bytes: u64,
}

/// State shared by workers, the timer thread and the reactor sink.
struct Shared {
    cells: Vec<Cell>,
    /// Ready nodes, FIFO. Workers block on `runq_cv` when it is empty.
    runq: Mutex<VecDeque<u32>>,
    runq_cv: Condvar,
    /// The cluster-wide wall-clock timer heap:
    /// `Reverse((fire_at_ns, node, token))`.
    timers: Mutex<BinaryHeap<Reverse<(u64, u32, u64)>>>,
    timer_cv: Condvar,
    stop: AtomicBool,
    epoch: Instant,
}

impl Shared {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Queues `input` for `node` and marks it ready.
    fn enqueue(&self, node: usize, input: Input) {
        self.cells[node]
            .inbox
            .lock()
            .expect("inbox")
            .push_back(input);
        self.mark_ready(node);
    }

    /// Puts `node` on the run queue unless it is already there.
    fn mark_ready(&self, node: usize) {
        if !self.cells[node].queued.swap(true, Ordering::AcqRel) {
            self.runq.lock().expect("run queue").push_back(node as u32);
            self.runq_cv.notify_one();
        }
    }

    /// One worker's scheduling turn on `node`: drain up to
    /// [`TURN_BUDGET`] inputs, then yield the node back.
    fn run_node(&self, node: usize) {
        let cell = &self.cells[node];
        {
            let mut slot = cell.state.lock().expect("node state");
            if let Some(st) = slot.as_mut() {
                for _ in 0..TURN_BUDGET {
                    let Some(input) = cell.inbox.lock().expect("inbox").pop_front() else {
                        break;
                    };
                    self.dispatch(node, st, input);
                }
            }
        }
        // Clear-then-recheck: an enqueue racing this clear either saw
        // `queued == true` (we re-queue below) or set it itself.
        cell.queued.store(false, Ordering::Release);
        if !cell.inbox.lock().expect("inbox").is_empty() {
            self.mark_ready(node);
        }
    }

    /// Executes one input on the node through the [`drive`] bridge and
    /// performs the emitted actions (real sends, shared-heap timers).
    fn dispatch(&self, node: usize, st: &mut NodeState, input: Input) {
        let now = self.now_ns();
        let id = NodeId(node as u32);
        let actions = match input {
            Input::Net(from, msg) => {
                let ((), actions) = drive(&mut st.node, id, now, &mut st.rng, |n, ctx| {
                    n.handle_wire(ctx, from, msg)
                });
                actions
            }
            Input::TimerFired(token) => {
                let ((), actions) = drive(&mut st.node, id, now, &mut st.rng, |n, ctx| {
                    n.handle_timer(ctx, token)
                });
                actions
            }
            Input::Req(req) => match req {
                LiveReq::Submit {
                    req,
                    deadline_ns,
                    reply,
                } => {
                    let (op, actions) = drive(&mut st.node, id, now, &mut st.rng, |n, ctx| {
                        n.submit_op(ctx, req, deadline_ns)
                    });
                    let _ = reply.send(op);
                    actions
                }
                LiveReq::ResolveDead { op, reply } => {
                    let resolved = st.node.resolve_dead_op(op, now).is_some();
                    let _ = reply.send(resolved);
                    Vec::new()
                }
                LiveReq::Observe { reply } => {
                    let mut reg = st.node.registry();
                    reg.counter("live.sent_msgs", st.sent_msgs);
                    reg.counter("live.sent_bytes", st.sent_bytes);
                    let _ = reply.send(reg);
                    Vec::new()
                }
                LiveReq::DrainTrace { reply } => {
                    let _ = reply.send(st.node.tracer.drain());
                    Vec::new()
                }
            },
        };
        for action in actions {
            match action {
                NodeAction::Send { to, msg } => {
                    st.sent_msgs += 1;
                    st.sent_bytes += msg.len() as u64;
                    // Backpressure from the reactor's bounded command
                    // queue blocks this worker — the live analogue of a
                    // full NIC queue. Dead-peer errors drop traffic like
                    // the simulator's offline handling.
                    let _ = st.tx.send(to, msg);
                }
                NodeAction::Timer { delay_ns, token } => {
                    self.timers.lock().expect("timer heap").push(Reverse((
                        now + delay_ns,
                        node as u32,
                        token,
                    )));
                    self.timer_cv.notify_one();
                }
                NodeAction::Busy { .. } => {}
            }
        }
        let fresh = std::mem::take(&mut st.node.completions);
        if !fresh.is_empty() {
            self.cells[node].done.publish(fresh);
        }
    }

    /// Worker thread body: pop ready nodes until stop.
    fn worker(&self) {
        loop {
            let node = {
                let mut q = self.runq.lock().expect("run queue");
                loop {
                    if self.stop.load(Ordering::Relaxed) {
                        return;
                    }
                    if let Some(n) = q.pop_front() {
                        break n as usize;
                    }
                    q = self.runq_cv.wait(q).expect("run queue wait");
                }
            };
            self.run_node(node);
        }
    }

    /// Timer thread body: fire due timers by re-enqueuing their nodes,
    /// sleep until the next deadline (or a new, earlier timer arrives).
    fn timer_loop(&self) {
        let mut due: Vec<(u32, u64)> = Vec::new();
        loop {
            {
                let mut heap = self.timers.lock().expect("timer heap");
                if self.stop.load(Ordering::Relaxed) {
                    return;
                }
                let now = self.now_ns();
                while let Some(&Reverse((at, node, token))) = heap.peek() {
                    if at > now {
                        break;
                    }
                    heap.pop();
                    due.push((node, token));
                }
                if due.is_empty() {
                    let wait = heap
                        .peek()
                        .map(|&Reverse((at, _, _))| Duration::from_nanos(at.saturating_sub(now)))
                        .unwrap_or(TIMER_IDLE)
                        .min(TIMER_IDLE);
                    let (h, _timeout) = self.timer_cv.wait_timeout(heap, wait).expect("timer wait");
                    drop(h);
                }
            }
            for (node, token) in due.drain(..) {
                self.enqueue(node as usize, Input::TimerFired(token));
            }
        }
    }
}

/// The running scheduler: owns the worker pool, the timer thread and
/// the reactor poller. Built by [`Sched::launch`], torn down by
/// [`Sched::shutdown`].
pub(crate) struct Sched {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    timer: Option<JoinHandle<()>>,
    reactor: Option<ReactorHandle>,
    /// Worker-pool size actually launched (after the `0 = auto`
    /// default resolution).
    pub(crate) worker_count: usize,
}

impl Sched {
    /// Launches the scheduler: builds the sink-mode reactor net, seats
    /// every node in a cell, and starts `W` workers plus the timer
    /// thread. `cfg.workers == 0` resolves to the host's available
    /// parallelism.
    pub(crate) fn launch(
        cfg: &LiveConfig,
        nodes: Vec<TeechainNode>,
        epoch: Instant,
    ) -> std::io::Result<Sched> {
        let n = nodes.len();
        let workers = if cfg.workers == 0 {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        } else {
            cfg.workers
        };
        let shared = Arc::new(Shared {
            cells: (0..n)
                .map(|_| Cell {
                    inbox: Mutex::new(VecDeque::new()),
                    queued: AtomicBool::new(false),
                    state: Mutex::new(None),
                    done: Arc::new(Published::new()),
                })
                .collect(),
            runq: Mutex::new(VecDeque::new()),
            runq_cv: Condvar::new(),
            timers: Mutex::new(BinaryHeap::new()),
            timer_cv: Condvar::new(),
            stop: AtomicBool::new(false),
            epoch,
        });
        // The reactor delivers inbound frames straight into cell
        // inboxes from its poller thread — readiness without pumps.
        let sink_shared = shared.clone();
        let (txs, reactor) = ReactorNet::localhost_sink(
            n,
            POOL,
            Box::new(move |to, from, payload| {
                sink_shared.enqueue(to.0 as usize, Input::Net(from, payload));
            }),
        )?;
        // Seat the nodes before any worker runs: a cell whose state is
        // `None` would drop its turn on the floor.
        for ((i, mut node), tx) in nodes.into_iter().enumerate().zip(txs) {
            if cfg.tracing {
                node.tracer.configure(true, None);
            }
            *shared.cells[i].state.lock().expect("node state") = Some(NodeState {
                node,
                tx,
                rng: Xoshiro256::new(cfg.seed ^ (0x11FE << 16) ^ i as u64),
                sent_msgs: 0,
                sent_bytes: 0,
            });
        }
        let worker_handles = (0..workers)
            .map(|w| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("teechain-sched-w{w}"))
                    .spawn(move || shared.worker())
                    .expect("spawn scheduler worker")
            })
            .collect();
        let timer_shared = shared.clone();
        let timer = std::thread::Builder::new()
            .name("teechain-sched-timer".into())
            .spawn(move || timer_shared.timer_loop())
            .expect("spawn scheduler timer");
        Ok(Sched {
            shared,
            workers: worker_handles,
            timer: Some(timer),
            reactor: Some(reactor),
            worker_count: workers,
        })
    }

    /// Queues an input for `node` and marks it ready.
    pub(crate) fn enqueue(&self, node: usize, input: Input) {
        self.shared.enqueue(node, input);
    }

    /// The per-node published completion streams (shared handles).
    pub(crate) fn completion_handles(&self) -> Vec<Arc<Published>> {
        self.shared.cells.iter().map(|c| c.done.clone()).collect()
    }

    /// Stops workers, timer and poller, joins them all, and returns the
    /// final nodes in id order.
    pub(crate) fn shutdown(mut self) -> Vec<TeechainNode> {
        // A waiter checks `stop` and then parks while holding its mutex, so
        // the flag must change with that mutex held: stored without it, the
        // store and the notify can both fall between a worker's check and
        // its wait, and the worker sleeps through the only wake-up.
        {
            let _runq = self.shared.runq.lock().expect("run queue");
            self.shared.stop.store(true, Ordering::Relaxed);
        }
        self.shared.runq_cv.notify_all();
        // The timer thread checks under the heap mutex: passing through it
        // orders this notify after any check that still read `false`.
        drop(self.shared.timers.lock().expect("timer heap"));
        self.shared.timer_cv.notify_all();
        for w in self.workers.drain(..) {
            w.join().expect("scheduler worker panicked");
        }
        if let Some(t) = self.timer.take() {
            t.join().expect("scheduler timer panicked");
        }
        if let Some(r) = self.reactor.take() {
            r.shutdown();
        }
        self.shared
            .cells
            .iter()
            .map(|cell| {
                cell.state
                    .lock()
                    .expect("node state")
                    .take()
                    .expect("node already extracted")
                    .node
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::enclave::Command;
    use crate::live::{LiveCluster, LiveConfig};
    use crate::ops::OpError;
    use crate::testkit::Harness;
    use crate::types::ProtocolError;

    #[test]
    fn sharded_payment_over_reactor() {
        let net = LiveCluster::over_reactor(LiveConfig {
            n: 2,
            workers: 2,
            ..LiveConfig::default()
        })
        .expect("bind reactor listener");
        let mut h = &net;
        let chan = h.standard_channel(0, 1, "sched-unit", 1_000, 1);
        let receipt = h.pay(0, chan, 250).expect("payment completes");
        assert_eq!(receipt.amount, 250);
        let err = h.pay(0, chan, 10_000).expect_err("overspend refused");
        assert_eq!(err, OpError::Rejected(ProtocolError::InsufficientBalance));
        let nodes = net.shutdown();
        let c = nodes[0]
            .enclave
            .program()
            .and_then(|p| p.channel(&chan))
            .expect("channel exists");
        assert_eq!((c.my_bal, c.remote_bal), (750, 250));
    }

    /// Regression: `shutdown` used to set the stop flag and notify without
    /// the run-queue mutex, so a worker between its check and its wait
    /// slept forever and the join never returned (the repo benchmark saw it
    /// about once in 150 shutdowns). The window is a few instructions wide,
    /// so this is a tripwire with a deadline, not a proof.
    #[test]
    fn immediate_shutdown_never_loses_the_wakeup() {
        const CYCLES: usize = 500;
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let cycler = std::thread::spawn(move || {
            for cycle in 0..CYCLES {
                // Workers are still racing towards their first park when
                // shutdown runs: the window the lost wake-up needed.
                LiveCluster::over_reactor(LiveConfig {
                    n: 2,
                    workers: 2,
                    ..LiveConfig::default()
                })
                .expect("bind reactor listener")
                .shutdown();
                done_tx.send(cycle).expect("test thread alive");
            }
        });
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        for expected in 0..CYCLES {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            match done_rx.recv_timeout(left) {
                Ok(cycle) => assert_eq!(cycle, expected),
                Err(e) => panic!("launch/shutdown cycle {expected} of {CYCLES} hung: {e}"),
            }
        }
        cycler.join().expect("cycler panicked");
    }

    #[test]
    fn identities_do_not_depend_on_worker_count() {
        let launch = |workers| {
            LiveCluster::over_reactor(LiveConfig {
                n: 3,
                seed: 42,
                workers,
                ..LiveConfig::default()
            })
            .expect("bind reactor listener")
        };
        let one = launch(1);
        let four = launch(4);
        assert_eq!(one.ids, four.ids);
        four.shutdown();
        one.shutdown();
    }

    #[test]
    fn thread_count_is_constant_in_cluster_size() {
        let small = LiveCluster::over_reactor(LiveConfig {
            n: 4,
            workers: 2,
            ..LiveConfig::default()
        })
        .expect("bind reactor listener");
        let big = LiveCluster::over_reactor(LiveConfig {
            n: 64,
            workers: 2,
            ..LiveConfig::default()
        })
        .expect("bind reactor listener");
        // Workers + poller + timer, independent of n — the property that
        // lets the scheduler host thousands of nodes.
        assert_eq!(small.runtime_threads(), 4);
        assert_eq!(big.runtime_threads(), 4);
        big.shutdown();
        small.shutdown();
    }

    #[test]
    fn deadline_timers_fire_through_the_shared_heap() {
        let net = LiveCluster::over_reactor(LiveConfig {
            n: 2,
            workers: 1,
            ..LiveConfig::default()
        })
        .expect("bind reactor listener");
        // An op whose deadline is already in the past dies on the shared
        // timer heap (or legitimately wins the race on a fast box).
        let mut h = &net;
        let session = Command::StartSession { remote: net.ids[1] };
        let op = h.submit_request(0, session.into(), Some(1));
        match h.resolve(op) {
            Err(OpError::Timeout { .. }) | Ok(_) => {}
            other => panic!("unexpected outcome: {other:?}"),
        }
        assert_eq!(
            net.completions(0).iter().filter(|c| c.op == op).count(),
            1,
            "exactly one completion"
        );
        net.shutdown();
    }

    #[test]
    fn multihop_payment_crosses_the_scheduler() {
        let net = LiveCluster::over_reactor(LiveConfig {
            n: 3,
            workers: 2,
            ..LiveConfig::default()
        })
        .expect("bind reactor listener");
        let mut h = &net;
        let ab = h.standard_channel(0, 1, "sched-ab", 10_000, 1);
        let bc = h.standard_channel(1, 2, "sched-bc", 10_000, 1);
        let delivered = h
            .pay_multihop(&[0, 1, 2], &[ab, bc], 700, "sched-route")
            .expect("multihop completes");
        assert_eq!(delivered.amount, 700);
        net.shutdown();
    }
}
