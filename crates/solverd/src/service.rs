//! The solver service: a fixed worker pool behind a bounded admission queue.
//!
//! Lifecycle of a request line:
//!
//! 1. **Decode + validate at admission** ([`Service::submit`]): parse failures,
//!    unknown problem keys and invalid warm starts are answered immediately
//!    with structured rejects — a worker never sees a request that could make
//!    the engine panic.
//! 2. **Admission control**: the queue is bounded; a request arriving at a
//!    full queue is rejected with `"queue-full"` (backpressure: the client
//!    retries, the service never buffers unboundedly and never blocks the
//!    reader thread on solver progress).
//! 3. **Execution** on one of `workers` pool threads.  The fan-out policy
//!    (below) decides between a single engine and a multi-walk race; the
//!    request's deadline is anchored at *admission*, so time spent queued
//!    counts against it — a deadline that expires in the queue is answered
//!    `"deadline"` without burning a single iteration.
//! 4. **Response** — one line, sent to the connection's reply channel in
//!    completion order.
//!
//! ## Fan-out policy
//!
//! An explicit `"walks"` field always wins.  Otherwise a request fans out to
//! [`ServiceConfig::fanout_walks`] racing walks exactly when the instance is
//! at or beyond the registry's bench size for that model (the size class the
//! paper's multi-walk race targets); smaller instances run single-engine.  A
//! request with a warm start always runs single-engine: the warm start is a
//! handover to one engine, and racing fresh random walks against it would
//! silently discard the caller's candidate on every rank but one.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use adaptive_search::problems;
use adaptive_search::request::{remaining_deadline, SolveOutcome, SolveRequest, Termination};
use adaptive_search::CancelToken;
use multiwalk::{RunControls, ThreadRunner, WalkSpec};

use crate::proto::{self, OkMeta, Reject, RejectReason, WireMessage, WireRequest};

/// Static configuration of one service instance.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Pool threads executing requests.
    pub workers: usize,
    /// Admission-queue capacity; requests beyond it are rejected, not buffered.
    pub queue_capacity: usize,
    /// Fan-out width for large instances (see the module docs).
    pub fanout_walks: usize,
    /// Per-connection socket read timeout (TCP mode; `None` = wait forever).
    /// A client that goes silent mid-line cannot pin a connection thread.
    pub read_timeout: Option<Duration>,
    /// Per-line byte cap on the read path; a longer line is answered with a
    /// typed `"oversized"` reject and dropped, bounding reader memory.
    pub max_line_bytes: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_capacity: 64,
            fanout_walks: 4,
            read_timeout: Some(Duration::from_secs(120)),
            max_line_bytes: 256 * 1024,
        }
    }
}

/// One admitted unit of work.
struct Job {
    wire: WireRequest,
    admitted: Instant,
    /// Deadline anchored at admission (queue time counts against it).
    deadline: Option<Instant>,
    /// Cancellation token, registered under the request id at admission and
    /// polled by the engine while the request is queued or in flight.
    cancel: CancelToken,
    reply: Sender<String>,
}

/// Queue shared between submitters and the worker pool.
struct Shared {
    state: Mutex<QueueState>,
    /// Signalled when a job is pushed or shutdown begins.
    available: Condvar,
    /// Live cancellation tokens, keyed by request id (admission → response).
    /// Locked strictly *after* `state` when both are held.
    cancels: Mutex<HashMap<String, CancelToken>>,
    /// Workers respawned by the supervisor after a worker-thread death.
    respawned: AtomicUsize,
    /// Fault injection: each claim kills one worker thread (tests only).
    kill_next: AtomicUsize,
}

/// Poison-tolerant lock: a panicking worker must never take the service down
/// with it — the protected state is a queue of plain data, valid regardless
/// of where some other thread died.
fn lock_clean<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poison| poison.into_inner())
}

struct QueueState {
    jobs: VecDeque<Job>,
    shutting_down: bool,
}

/// A running solver service.  Dropping it drains the queue (every admitted
/// request is answered) and joins the worker pool.
pub struct Service {
    config: ServiceConfig,
    shared: Arc<Shared>,
    /// Worker handles, shared with the supervisor so it can replace the dead.
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    supervisor: Option<JoinHandle<()>>,
}

impl Service {
    /// Start the worker pool and its supervisor.
    ///
    /// # Panics
    /// Panics if `workers == 0` or `queue_capacity == 0`.
    pub fn start(config: ServiceConfig) -> Self {
        assert!(config.workers > 0, "at least one worker is required");
        assert!(config.queue_capacity > 0, "queue capacity must be positive");
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                shutting_down: false,
            }),
            available: Condvar::new(),
            cancels: Mutex::new(HashMap::new()),
            respawned: AtomicUsize::new(0),
            kill_next: AtomicUsize::new(0),
        });
        let workers = Arc::new(Mutex::new(
            (0..config.workers)
                .map(|_| spawn_worker(&shared, config.fanout_walks))
                .collect::<Vec<_>>(),
        ));
        let supervisor = {
            let shared = Arc::clone(&shared);
            let workers = Arc::clone(&workers);
            let fanout_walks = config.fanout_walks;
            std::thread::spawn(move || supervise(&shared, &workers, fanout_walks))
        };
        Self {
            config,
            shared,
            workers,
            supervisor: Some(supervisor),
        }
    }

    /// The configuration this service runs under.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Current admission-queue depth (racy; for observability only).
    pub fn queue_depth(&self) -> usize {
        lock_clean(&self.shared.state).jobs.len()
    }

    /// Workers the supervisor has respawned after a worker-thread death
    /// (racy; for observability only).
    pub fn workers_respawned(&self) -> usize {
        self.shared.respawned.load(Ordering::Relaxed)
    }

    /// Cancel the live request with this id.  Returns `true` when a queued or
    /// in-flight request was found (its own response line — with
    /// `"termination":"cancelled"` — still arrives through its channel).
    pub fn cancel(&self, id: &str) -> bool {
        let token = lock_clean(&self.shared.cancels).get(id).cloned();
        match token {
            Some(token) => {
                token.cancel();
                true
            }
            None => false,
        }
    }

    /// Fault injection for the chaos tests: the next `n` workers to look at
    /// the queue panic instead (outside any job, so no response is lost).
    /// The supervisor respawns them; see [`Service::workers_respawned`].
    #[doc(hidden)]
    pub fn inject_worker_death(&self, n: usize) {
        self.shared.kill_next.fetch_add(n, Ordering::Relaxed);
        self.shared.available.notify_all();
    }

    /// Submit one request line.  Every line produces exactly one response line
    /// on `reply` — either immediately (parse error, validation reject,
    /// cancel-ack, queue-full backpressure) or once a worker completes the
    /// solve.
    ///
    /// Returns `true` when the request was admitted to the queue.
    pub fn submit(&self, line: &str, reply: &Sender<String>) -> bool {
        let wire = match proto::parse_message(line) {
            Ok(WireMessage::Solve(wire)) => wire,
            Ok(WireMessage::Cancel { target }) => {
                let found = self.cancel(&target);
                let _ = reply.send(proto::render_cancel_ack(&target, found));
                return false;
            }
            Err(reject) => {
                let _ = reply.send(reject.render());
                return false;
            }
        };
        // Validate *before* taking a queue slot: a worker must never receive a
        // request that the engine would panic on, and an invalid request must
        // not consume capacity.
        if let Err(err) = wire.request.validate() {
            let _ = reply.send(Reject::from((wire.id, err)).render());
            return false;
        }
        let admitted = Instant::now();
        let deadline = wire.request.deadline.and_then(|d| admitted.checked_add(d));
        let job = Job {
            wire,
            admitted,
            deadline,
            cancel: CancelToken::new(),
            reply: reply.clone(),
        };
        // Register the token *before* the job is visible to workers, so a
        // cancel that races admission can never miss a live request.
        if !job.wire.id.is_empty() {
            lock_clean(&self.shared.cancels).insert(job.wire.id.clone(), job.cancel.clone());
        }
        let mut state = lock_clean(&self.shared.state);
        if state.jobs.len() >= self.config.queue_capacity {
            let reject = Reject {
                id: job.wire.id.clone(),
                reason: RejectReason::QueueFull,
                detail: format!(
                    "admission queue at capacity ({}); retry later",
                    self.config.queue_capacity
                ),
            };
            drop(state);
            deregister_cancel(&self.shared, &job.wire.id, &job.cancel);
            let _ = reply.send(reject.render());
            return false;
        }
        state.jobs.push_back(job);
        drop(state);
        self.shared.available.notify_one();
        true
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        {
            let mut state = lock_clean(&self.shared.state);
            state.shutting_down = true;
        }
        self.shared.available.notify_all();
        // Supervisor first: once it exits, the worker set is stable to join.
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
        let workers = std::mem::take(&mut *lock_clean(&self.workers));
        for handle in workers {
            let _ = handle.join();
        }
    }
}

fn spawn_worker(shared: &Arc<Shared>, fanout_walks: usize) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::spawn(move || worker_loop(&shared, fanout_walks))
}

/// The supervisor: polls the pool and replaces dead worker threads, so a
/// worker death (injected or real) degrades capacity for milliseconds rather
/// than forever.  Exits when the service begins shutting down.
fn supervise(shared: &Arc<Shared>, workers: &Mutex<Vec<JoinHandle<()>>>, fanout_walks: usize) {
    loop {
        std::thread::sleep(Duration::from_millis(10));
        if lock_clean(&shared.state).shutting_down {
            return;
        }
        let mut pool = lock_clean(workers);
        for slot in pool.iter_mut() {
            if slot.is_finished() {
                // Workers only exit normally during shutdown (checked above),
                // so a finished handle here is a dead worker: reap + replace.
                let corpse = std::mem::replace(slot, spawn_worker(shared, fanout_walks));
                let _ = corpse.join();
                shared.respawned.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Drop a request's token from the registry — but only *its own* token, so a
/// later request reusing the id is never deregistered by its predecessor.
fn deregister_cancel(shared: &Shared, id: &str, token: &CancelToken) {
    if id.is_empty() {
        return;
    }
    let mut cancels = lock_clean(&shared.cancels);
    if cancels.get(id).is_some_and(|live| live.same_token(token)) {
        cancels.remove(id);
    }
}

/// Claim one pending kill (fault injection); `true` means "this thread dies".
fn claim_kill(shared: &Shared) -> bool {
    shared
        .kill_next
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1))
        .is_ok()
}

/// Worker thread: pop admitted jobs until shutdown *and* the queue is drained
/// (shutdown is graceful — every admitted request gets its answer).
///
/// Job execution runs under `catch_unwind`: a panicking cost model costs the
/// request (answered with a typed `"worker-panicked"` failure), never the
/// worker, never the service.  The only way this thread dies is the
/// fault-injection kill, taken *between* jobs so no admitted request is ever
/// holding a dead worker.
fn worker_loop(shared: &Shared, fanout_walks: usize) {
    loop {
        let job = {
            let mut state = lock_clean(&shared.state);
            loop {
                if claim_kill(shared) {
                    drop(state);
                    panic!("injected worker death (Service::inject_worker_death)");
                }
                if let Some(job) = state.jobs.pop_front() {
                    break job;
                }
                if state.shutting_down {
                    return;
                }
                state = shared
                    .available
                    .wait(state)
                    .unwrap_or_else(|poison| poison.into_inner());
            }
        };
        let line = catch_unwind(AssertUnwindSafe(|| {
            execute(
                &job.wire,
                job.admitted,
                job.deadline,
                &job.cancel,
                fanout_walks,
            )
        }))
        .unwrap_or_else(|_| {
            proto::render_worker_panicked(
                &job.wire.id,
                &format!(
                    "execution of {:?} n={} panicked; the worker recovered",
                    job.wire.request.problem, job.wire.request.n
                ),
            )
        });
        deregister_cancel(shared, &job.wire.id, &job.cancel);
        // A send failure means the client hung up; the work is simply dropped.
        let _ = job.reply.send(line);
    }
}

/// Execute one admitted request and render its response line.
fn execute(
    wire: &WireRequest,
    admitted: Instant,
    deadline: Option<Instant>,
    cancel: &CancelToken,
    fanout_walks: usize,
) -> String {
    let queue = admitted.elapsed();
    let meta = |walks, winner| OkMeta {
        id: wire.id.clone(),
        queue,
        walks,
        winner,
    };

    // Cancelled while queued: answer honestly without work.
    if cancel.is_cancelled() {
        let outcome = no_work_outcome(&wire.request, Termination::Cancelled);
        return proto::render_ok(&meta(0, None), &outcome);
    }
    // Deadline spent entirely in the queue: same.
    let Some(remaining) = remaining_deadline(deadline) else {
        let outcome = no_work_outcome(&wire.request, Termination::DeadlineExpired);
        return proto::render_ok(&meta(0, None), &outcome);
    };

    let walks = effective_walks(&wire.request, wire.walks, fanout_walks);
    if walks <= 1 {
        let request = SolveRequest {
            deadline: remaining,
            ..wire.request.clone()
        };
        match request.run_with_cancel(Some(cancel)) {
            Ok(outcome) => proto::render_ok(&meta(1, None), &outcome),
            // Admission validated the request, so this is unreachable in
            // practice — but a service answers, it never panics.
            Err(err) => Reject::from((wire.id.clone(), err)).render(),
        }
    } else {
        match run_fanout(&wire.request, walks, deadline, cancel) {
            Ok(fanout) if fanout.all_panicked => proto::render_worker_panicked(
                &wire.id,
                &format!("all {walks} racing walks panicked"),
            ),
            Ok(fanout) => proto::render_ok(&meta(walks, fanout.winner), &fanout.outcome),
            Err(err) => Reject::from((wire.id.clone(), err)).render(),
        }
    }
}

/// Fan-out width for a request (see the module docs for the policy).
fn effective_walks(request: &SolveRequest, explicit: Option<usize>, fanout_walks: usize) -> usize {
    if request.warm_start.is_some() {
        return 1;
    }
    if let Some(walks) = explicit {
        return walks.clamp(1, proto::MAX_WALKS);
    }
    match problems::find(&request.problem) {
        Some(info) if request.n >= info.bench_size => fanout_walks.max(1),
        _ => 1,
    }
}

/// The answer for a request terminated before any work ran (deadline expired
/// in the queue, or cancelled while queued).
fn no_work_outcome(request: &SolveRequest, termination: Termination) -> SolveOutcome {
    let problem = problems::find(&request.problem).map_or("unknown", |info| info.key);
    SolveOutcome {
        problem,
        n: request.n,
        termination,
        solution: None,
        final_cost: u64::MAX,
        best_cost: u64::MAX,
        stats: Default::default(),
        elapsed: Duration::ZERO,
    }
}

/// The folded result of one multi-walk race.
struct FanoutOutcome {
    outcome: SolveOutcome,
    winner: Option<usize>,
    /// Every racing walk died — there is no search result at all, only the
    /// typed failure response.
    all_panicked: bool,
}

/// Multi-walk race over the request, folded back into one [`SolveOutcome`]
/// (stats merged across walks; the winner's solution, verified against the
/// registry's independent optimum predicate).  Panicking walks cost only
/// themselves; the cancel token and deadline are polled by every walk.
fn run_fanout(
    request: &SolveRequest,
    walks: usize,
    deadline: Option<Instant>,
    cancel: &CancelToken,
) -> Result<FanoutOutcome, adaptive_search::RequestError> {
    let spec = WalkSpec::from_request(request)?;
    let info = problems::find(&request.problem).expect("from_request resolved the key");
    let runner = ThreadRunner::new(spec, walks);
    let controls = RunControls {
        deadline,
        cancel: Some(cancel.clone()),
        replay: false,
    };
    let result = runner.run(request.seed, &controls);
    let all_panicked = result.panicked_walks() == walks;

    let mut stats = adaptive_search::SearchStats::default();
    for walk in &result.walk_results {
        stats.merge(&walk.stats);
    }
    let solution = result
        .solution
        .filter(|candidate| (info.is_optimum)(candidate));
    let termination = if solution.is_some() {
        Termination::Solved
    } else if cancel.is_cancelled() {
        Termination::Cancelled
    } else if deadline.is_some_and(|at| Instant::now() >= at) {
        Termination::DeadlineExpired
    } else {
        Termination::BudgetExhausted
    };
    let best_cost = result
        .walk_results
        .iter()
        .map(|walk| walk.best_cost)
        .min()
        .unwrap_or(u64::MAX);
    let final_cost = if solution.is_some() { 0 } else { best_cost };
    let winner = result.winner.filter(|_| solution.is_some());
    Ok(FanoutOutcome {
        outcome: SolveOutcome {
            problem: info.key,
            n: request.n,
            termination,
            solution,
            final_cost,
            best_cost,
            stats,
            elapsed: result.elapsed,
        },
        winner,
        all_panicked,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn drain_one(rx: &mpsc::Receiver<String>) -> runtime_stats::json::Json {
        let line = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("response arrives");
        runtime_stats::json::Json::parse(&line).expect("response is valid JSON")
    }

    #[test]
    fn solves_a_small_request_end_to_end() {
        let service = Service::start(ServiceConfig::default());
        let (tx, rx) = mpsc::channel();
        assert!(service.submit(r#"{"id":"a","problem":"costas","n":10,"seed":42}"#, &tx));
        let doc = drain_one(&rx);
        assert_eq!(doc.get("status").and_then(|v| v.as_str()), Some("ok"));
        assert_eq!(
            doc.get("termination").and_then(|v| v.as_str()),
            Some("solved")
        );
        assert_eq!(doc.get("id").and_then(|v| v.as_str()), Some("a"));
    }

    #[test]
    fn invalid_and_unknown_requests_never_reach_the_pool() {
        let service = Service::start(ServiceConfig::default());
        let (tx, rx) = mpsc::channel();
        assert!(!service.submit(r#"{"id":"u","problem":"zzz","n":5}"#, &tx));
        let doc = drain_one(&rx);
        assert_eq!(doc.get("status").and_then(|v| v.as_str()), Some("rejected"));
        assert_eq!(
            doc.get("reason").and_then(|v| v.as_str()),
            Some("unknown-problem")
        );
        assert!(!service.submit(
            r#"{"id":"w","problem":"costas","n":5,"warm_start":[1,1,2,3,4]}"#,
            &tx
        ));
        let doc = drain_one(&rx);
        assert_eq!(
            doc.get("reason").and_then(|v| v.as_str()),
            Some("invalid-request")
        );
        assert_eq!(service.queue_depth(), 0);
    }

    #[test]
    fn warm_start_requests_run_single_engine_even_at_bench_size() {
        let request = SolveRequest::new("costas", 18, 1).with_warm_start((1..=18).collect());
        assert_eq!(effective_walks(&request, Some(8), 4), 1);
        let cold = SolveRequest::new("costas", 18, 1);
        assert_eq!(effective_walks(&cold, None, 4), 4);
        let small = SolveRequest::new("costas", 10, 1);
        assert_eq!(effective_walks(&small, None, 4), 1);
        assert_eq!(effective_walks(&small, Some(3), 4), 3);
    }

    #[test]
    fn fanout_race_solves_and_reports_walks() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            queue_capacity: 4,
            fanout_walks: 2,
            ..ServiceConfig::default()
        });
        let (tx, rx) = mpsc::channel();
        // n = 18 is the costas bench size → automatic fan-out.
        assert!(service.submit(r#"{"id":"f","problem":"costas","n":18,"seed":7}"#, &tx));
        let doc = drain_one(&rx);
        assert_eq!(doc.get("status").and_then(|v| v.as_str()), Some("ok"));
        assert_eq!(doc.get("walks").and_then(|v| v.as_u64()), Some(2));
        if doc.get("termination").and_then(|v| v.as_str()) == Some("solved") {
            assert!(doc.get("winner").and_then(|v| v.as_u64()).is_some());
            let sol: Vec<usize> = doc
                .get("solution")
                .and_then(|v| v.as_array())
                .expect("solution present")
                .iter()
                .map(|v| v.as_u64().unwrap() as usize)
                .collect();
            let info = problems::find("costas").unwrap();
            assert!((info.is_optimum)(&sol));
        }
    }

    #[test]
    fn deadline_expired_in_queue_is_answered_without_work() {
        let request = SolveRequest::new("costas", 12, 0);
        let outcome = no_work_outcome(&request, Termination::DeadlineExpired);
        assert_eq!(outcome.termination, Termination::DeadlineExpired);
        assert_eq!(outcome.stats.iterations, 0);
        assert_eq!(outcome.problem, "costas");
        let cancelled = no_work_outcome(&request, Termination::Cancelled);
        assert_eq!(cancelled.termination, Termination::Cancelled);
    }

    #[test]
    fn cancelling_a_queued_request_answers_it_without_work() {
        // One worker pinned on a slow request; the second request waits in the
        // queue, where the cancel reaches it before any iteration runs.
        let service = Service::start(ServiceConfig {
            workers: 1,
            queue_capacity: 4,
            fanout_walks: 1,
            ..ServiceConfig::default()
        });
        let (tx, rx) = mpsc::channel();
        let slow = r#"{"id":"slow","problem":"costas","n":22,"budget":18446744073709551615,"deadline_ms":1500}"#;
        assert!(service.submit(slow, &tx));
        assert!(service.submit(r#"{"id":"victim","problem":"costas","n":16,"seed":3}"#, &tx));
        assert!(!service.submit(r#"{"cancel":"victim"}"#, &tx));
        let ack = drain_one(&rx);
        assert_eq!(
            ack.get("status").and_then(|v| v.as_str()),
            Some("cancel-ack")
        );
        assert_eq!(ack.get("found").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(ack.get("id").and_then(|v| v.as_str()), Some("victim"));
        // The cancelled request still gets its own typed answer.
        let mut by_id = std::collections::HashMap::new();
        for _ in 0..2 {
            let doc = drain_one(&rx);
            let id = doc.get("id").and_then(|v| v.as_str()).unwrap().to_string();
            by_id.insert(id, doc);
        }
        let victim = &by_id["victim"];
        assert_eq!(
            victim.get("termination").and_then(|v| v.as_str()),
            Some("cancelled")
        );
        assert_eq!(victim.get("iterations").and_then(|v| v.as_u64()), Some(0));
        // A cancel for a request that already answered is found:false.
        assert!(!service.submit(r#"{"cancel":"victim"}"#, &tx));
        let ack = drain_one(&rx);
        assert_eq!(ack.get("found").and_then(|v| v.as_bool()), Some(false));
    }

    #[test]
    fn injected_worker_death_is_respawned_and_the_service_keeps_answering() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            queue_capacity: 4,
            fanout_walks: 1,
            ..ServiceConfig::default()
        });
        service.inject_worker_death(1);
        let deadline = Instant::now() + Duration::from_secs(10);
        while service.workers_respawned() < 1 {
            assert!(Instant::now() < deadline, "supervisor must respawn");
            std::thread::sleep(Duration::from_millis(5));
        }
        // The respawned worker serves requests as if nothing happened.
        let (tx, rx) = mpsc::channel();
        assert!(service.submit(r#"{"id":"r","problem":"costas","n":10,"seed":42}"#, &tx));
        let doc = drain_one(&rx);
        assert_eq!(
            doc.get("termination").and_then(|v| v.as_str()),
            Some("solved")
        );
        assert_eq!(service.workers_respawned(), 1);
    }

    #[test]
    fn drop_drains_admitted_requests() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            queue_capacity: 8,
            fanout_walks: 1,
            ..ServiceConfig::default()
        });
        let (tx, rx) = mpsc::channel();
        for i in 0..3 {
            assert!(service.submit(
                &format!(r#"{{"id":"d{i}","problem":"n-queens","n":16,"seed":{i}}}"#),
                &tx
            ));
        }
        drop(service); // graceful: joins workers only after the queue drains
        drop(tx);
        let answered: Vec<_> = rx.iter().collect();
        assert_eq!(answered.len(), 3);
    }
}
