//! A cooperative, single-threaded task executor for simulated processes.
//!
//! Simulated node programs are ordinary `async fn`s. Awaiting a simulator
//! operation parks the task; the embedding simulator fulfils a
//! [`Completion`] when the operation's event fires, which re-queues the
//! task. Exactly one task runs at a time and the ready queue is FIFO, so
//! execution is deterministic.
//!
//! This is the mechanism that lets the Touchstone Delta simulator run 528
//! "node programs" without 528 OS threads.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};

/// Identifies a spawned task within one [`LaneTasks`] executor.
pub type TaskId = usize;

#[derive(Default)]
struct ReadyQueue {
    queue: Mutex<VecDeque<TaskId>>,
}

struct TaskWaker {
    ready: Arc<ReadyQueue>,
    id: TaskId,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.ready.queue.lock().unwrap().push_back(self.id);
    }
}

type BoxedTask = Pin<Box<dyn Future<Output = ()> + 'static>>;

/// The task set: spawn futures, then alternate `run_ready()` with event
/// processing in the embedding simulator's dispatch loop. The mesh
/// simulator runs one `LaneTasks` per event lane, so lanes never contend
/// on a shared ready queue.
///
/// Each task's [`Waker`] is built once at spawn and reused for every
/// poll: at millions of polls per simulated second, a per-poll waker
/// allocation would be a measurable share of the dispatch loop.
#[derive(Default)]
pub struct LaneTasks {
    slots: Vec<Option<BoxedTask>>,
    wakers: Vec<Waker>,
    ready: Arc<ReadyQueue>,
    scratch: VecDeque<TaskId>,
    live: usize,
    polls: u64,
}

impl LaneTasks {
    /// A lane pre-sized for `cap` tasks (one per node it owns).
    pub fn with_capacity(cap: usize) -> LaneTasks {
        LaneTasks {
            slots: Vec::with_capacity(cap),
            wakers: Vec::with_capacity(cap),
            ready: Arc::new(ReadyQueue::default()),
            scratch: VecDeque::with_capacity(cap),
            live: 0,
            polls: 0,
        }
    }

    /// Spawn a task; it will run on the next `run_ready()`. Ids are local
    /// to this lane.
    pub fn spawn(&mut self, fut: impl Future<Output = ()> + 'static) -> TaskId {
        let id = self.slots.len();
        self.slots.push(Some(Box::pin(fut)));
        self.wakers.push(Waker::from(Arc::new(TaskWaker {
            ready: Arc::clone(&self.ready),
            id,
        })));
        self.live += 1;
        self.ready.queue.lock().unwrap().push_back(id);
        id
    }

    /// Number of tasks that have not yet completed.
    #[inline]
    pub fn live(&self) -> usize {
        self.live
    }

    /// True once every spawned task has run to completion.
    #[inline]
    pub fn all_done(&self) -> bool {
        self.live == 0
    }

    /// Total poll calls — a progress/diagnostic counter.
    #[inline]
    pub fn polls(&self) -> u64 {
        self.polls
    }

    /// Number of tasks queued to run — the executor's ready-queue depth,
    /// sampled by the trace layer alongside the event-queue depth.
    pub fn ready_len(&self) -> usize {
        self.ready.queue.lock().unwrap().len()
    }

    /// Abort a live task: drop its future without running it further.
    /// Returns true if the task was live. Stale wakes already queued for
    /// the id are drained here so later `run_ready` passes never touch
    /// them. This is how the embedding simulator kills the program of a
    /// crashed node.
    pub fn abort(&mut self, id: TaskId) -> bool {
        match self.slots.get_mut(id).and_then(Option::take) {
            Some(_fut) => {
                self.live -= 1;
                self.ready.queue.lock().unwrap().retain(|&q| q != id);
                self.scratch.retain(|&q| q != id);
                true
            }
            None => false,
        }
    }

    /// Poll every ready task until the ready queue drains. Returns the
    /// number of polls performed. Tasks woken while running are processed
    /// in the same call (FIFO), so this returns only at a quiescent point
    /// where every live task is parked on a simulator event.
    ///
    /// The shared queue is swapped into a local batch once per pass — one
    /// lock acquisition per batch, not one per poll. Processing a drained
    /// batch in order and then re-draining keeps the global FIFO order.
    pub fn run_ready(&mut self) -> u64 {
        let start = self.polls;
        loop {
            {
                let mut q = self.ready.queue.lock().unwrap();
                if q.is_empty() {
                    break;
                }
                std::mem::swap(&mut *q, &mut self.scratch);
            }
            while let Some(id) = self.scratch.pop_front() {
                // A task may be woken after it finished; skip silently.
                let Some(mut fut) = self.slots[id].take() else {
                    continue;
                };
                let mut cx = Context::from_waker(&self.wakers[id]);
                self.polls += 1;
                match fut.as_mut().poll(&mut cx) {
                    Poll::Ready(()) => {
                        self.live -= 1;
                    }
                    Poll::Pending => {
                        self.slots[id] = Some(fut);
                    }
                }
            }
        }
        self.polls - start
    }
}

struct CompletionInner<T> {
    value: Option<T>,
    waker: Option<Waker>,
}

/// A single-shot rendezvous between a parked task and the simulator.
///
/// The task side awaits [`Completion::wait`]; the simulator side calls
/// [`Completion::fulfil`] when the corresponding event fires. Cloning
/// shares the same cell.
pub struct Completion<T> {
    inner: Rc<RefCell<CompletionInner<T>>>,
}

impl<T> Clone for Completion<T> {
    fn clone(&self) -> Self {
        Completion {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<T> Default for Completion<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Completion<T> {
    pub fn new() -> Completion<T> {
        Completion {
            inner: Rc::new(RefCell::new(CompletionInner {
                value: None,
                waker: None,
            })),
        }
    }

    /// Deliver the value and wake the waiting task (if it is parked).
    /// Fulfilling twice before the value is consumed is a logic error.
    pub fn fulfil(&self, value: T) {
        let mut inner = self.inner.borrow_mut();
        assert!(inner.value.is_none(), "Completion fulfilled twice");
        inner.value = Some(value);
        if let Some(w) = inner.waker.take() {
            w.wake();
        }
    }

    /// True once a value has been delivered but not yet consumed.
    pub fn is_fulfilled(&self) -> bool {
        self.inner.borrow().value.is_some()
    }

    /// Await the value.
    pub fn wait(&self) -> CompletionFuture<T> {
        CompletionFuture {
            inner: Rc::clone(&self.inner),
        }
    }
}

pub struct CompletionFuture<T> {
    inner: Rc<RefCell<CompletionInner<T>>>,
}

impl<T> Future for CompletionFuture<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut inner = self.inner.borrow_mut();
        if let Some(v) = inner.value.take() {
            Poll::Ready(v)
        } else {
            inner.waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

/// Yield control back to the executor once (the task is immediately
/// re-queued). Useful for fairness in tight simulated loops.
pub fn yield_now() -> YieldNow {
    YieldNow { yielded: false }
}

pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_runs_to_completion() {
        let mut tasks = LaneTasks::default();
        let hit = Rc::new(RefCell::new(false));
        let h = Rc::clone(&hit);
        tasks.spawn(async move {
            *h.borrow_mut() = true;
        });
        assert_eq!(tasks.live(), 1);
        tasks.run_ready();
        assert!(*hit.borrow());
        assert!(tasks.all_done());
    }

    #[test]
    fn completion_parks_and_resumes() {
        let mut tasks = LaneTasks::default();
        let c: Completion<u32> = Completion::new();
        let out = Rc::new(RefCell::new(0u32));
        let (c2, o2) = (c.clone(), Rc::clone(&out));
        tasks.spawn(async move {
            let v = c2.wait().await;
            *o2.borrow_mut() = v;
        });
        tasks.run_ready();
        assert!(!tasks.all_done(), "task parked on completion");
        assert_eq!(*out.borrow(), 0);
        c.fulfil(99);
        tasks.run_ready();
        assert!(tasks.all_done());
        assert_eq!(*out.borrow(), 99);
    }

    #[test]
    fn fulfil_before_wait_is_immediate() {
        let mut tasks = LaneTasks::default();
        let c: Completion<&str> = Completion::new();
        c.fulfil("early");
        let out = Rc::new(RefCell::new(""));
        let (c2, o2) = (c.clone(), Rc::clone(&out));
        tasks.spawn(async move {
            *o2.borrow_mut() = c2.wait().await;
        });
        tasks.run_ready();
        assert!(tasks.all_done());
        assert_eq!(*out.borrow(), "early");
    }

    #[test]
    fn many_tasks_fifo_deterministic() {
        let mut tasks = LaneTasks::default();
        let log = Rc::new(RefCell::new(Vec::new()));
        for i in 0..10 {
            let l = Rc::clone(&log);
            tasks.spawn(async move {
                l.borrow_mut().push(i);
            });
        }
        tasks.run_ready();
        assert_eq!(*log.borrow(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn yield_now_interleaves() {
        let mut tasks = LaneTasks::default();
        let log = Rc::new(RefCell::new(Vec::new()));
        for name in ["a", "b"] {
            let l = Rc::clone(&log);
            tasks.spawn(async move {
                l.borrow_mut().push(format!("{name}1"));
                yield_now().await;
                l.borrow_mut().push(format!("{name}2"));
            });
        }
        tasks.run_ready();
        assert_eq!(*log.borrow(), ["a1", "b1", "a2", "b2"]);
    }

    #[test]
    fn fulfilling_a_dropped_waiter_is_harmless() {
        // A task may abandon a Completion (e.g. an irecv it never waits
        // on); the simulator still fulfils it later.
        let mut tasks = LaneTasks::default();
        let c: Completion<u32> = Completion::new();
        let c2 = c.clone();
        tasks.spawn(async move {
            let _abandoned = c2; // dropped at task end without waiting
        });
        tasks.run_ready();
        assert!(tasks.all_done());
        c.fulfil(7); // must not panic or wake anything
        assert!(c.is_fulfilled());
    }

    #[test]
    fn wake_after_completion_is_ignored() {
        let mut tasks = LaneTasks::default();
        let c: Completion<()> = Completion::new();
        let c2 = c.clone();
        let id = tasks.spawn(async move {
            c2.wait().await;
        });
        tasks.run_ready();
        c.fulfil(());
        tasks.run_ready();
        assert!(tasks.all_done());
        // Late spurious wake of a finished task: silently skipped.
        let _ = id;
        assert_eq!(tasks.run_ready(), 0, "no polls for spurious wake");
    }

    #[test]
    fn thousands_of_tasks() {
        // The Delta needs 528; make sure an order of magnitude more is fine.
        let mut tasks = LaneTasks::default();
        let done = Rc::new(RefCell::new(0usize));
        let gate: Completion<()> = Completion::new();
        for _ in 0..5000 {
            let d = Rc::clone(&done);
            let g = gate.clone();
            tasks.spawn(async move {
                // All tasks park on one shared gate...
                while !g.is_fulfilled() {
                    yield_now().await;
                }
                *d.borrow_mut() += 1;
            });
        }
        gate.fulfil(());
        tasks.run_ready();
        assert!(tasks.all_done());
        assert_eq!(*done.borrow(), 5000);
    }

    #[test]
    fn abort_drops_a_parked_task() {
        let mut tasks = LaneTasks::default();
        let c: Completion<()> = Completion::new();
        let c2 = c.clone();
        let out = Rc::new(RefCell::new(false));
        let o2 = Rc::clone(&out);
        let id = tasks.spawn(async move {
            c2.wait().await;
            *o2.borrow_mut() = true;
        });
        tasks.run_ready();
        assert!(tasks.abort(id), "task was live");
        assert!(tasks.all_done());
        assert!(!tasks.abort(id), "second abort is a no-op");
        // The fulfilment after death must be harmless and never run the body.
        c.fulfil(());
        tasks.run_ready();
        assert!(!*out.borrow());
    }

    #[test]
    fn abort_drains_stale_ready_ids() {
        // A freshly spawned task's id sits in the ready queue; aborting
        // it must remove the stale id so the queue is truly empty and a
        // later pass never polls a dead slot.
        let mut tasks = LaneTasks::default();
        let keep = tasks.spawn(async {});
        let id = tasks.spawn(async {
            panic!("aborted task must never run");
        });
        assert!(tasks.abort(id));
        assert_eq!(tasks.ready_len(), 1, "stale id drained on abort");
        assert_eq!(tasks.run_ready(), 1, "only the surviving task polls");
        let _ = keep;
        assert!(tasks.all_done());
    }

    #[test]
    fn lane_tasks_abort_and_completion() {
        let mut lane = LaneTasks::default();
        let c: Completion<u32> = Completion::new();
        let out = Rc::new(RefCell::new(0u32));
        let (c2, o2) = (c.clone(), Rc::clone(&out));
        let id = lane.spawn(async move {
            *o2.borrow_mut() = c2.wait().await;
        });
        lane.run_ready();
        assert_eq!(lane.live(), 1, "parked on completion");
        assert!(lane.abort(id));
        assert!(lane.all_done());
        c.fulfil(9); // wake of an aborted task is harmless
        assert_eq!(lane.run_ready(), 0);
        assert_eq!(*out.borrow(), 0, "aborted body never ran");
        assert!(!lane.abort(id), "second abort is a no-op");
    }

    #[test]
    #[should_panic(expected = "twice")]
    fn double_fulfil_panics() {
        let c: Completion<()> = Completion::new();
        c.fulfil(());
        c.fulfil(());
    }

    #[test]
    fn chained_completions() {
        // Task A fulfils task B's completion: wake during run_ready drains
        // in the same call.
        let mut tasks = LaneTasks::default();
        let c1: Completion<u32> = Completion::new();
        let c2: Completion<u32> = Completion::new();
        let out = Rc::new(RefCell::new(0));
        let (c1a, c2a) = (c1.clone(), c2.clone());
        tasks.spawn(async move {
            let v = c1a.wait().await;
            c2a.fulfil(v + 1);
        });
        let (c2b, ob) = (c2.clone(), Rc::clone(&out));
        tasks.spawn(async move {
            *ob.borrow_mut() = c2b.wait().await;
        });
        tasks.run_ready();
        assert!(!tasks.all_done());
        c1.fulfil(41);
        tasks.run_ready();
        assert!(tasks.all_done());
        assert_eq!(*out.borrow(), 42);
    }
}
