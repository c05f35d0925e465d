//! `solverd-mix`: a closed loop over one TCP connection into `solverd`.
//!
//! An in-process `Service` (1 worker, fan-out width 2) serves one localhost
//! connection through `solverd::serve_connection`, behind an accept loop
//! set up as the `solverd --tcp` binary sets up its own, plus TCP_NODELAY
//! (see [`session`]).  The client keeps at
//! most [`OUTSTANDING`] requests in flight, sending the next as each
//! response arrives.  The fixed request list repeats four tiny solves (the
//! six registry models in turn, each at its smallest solvable size) and one
//! budget-capped Costas order-40 request, which the service fans out to two
//! walks that always spend their whole budget — so the work is fixed even
//! though the walks race.  An op is one request; it fails on any response
//! but `"status":"ok"`, a solution the registry's `is_optimum` rejects, or a
//! missing response.  Exactly one response per request is required.
//!
//! Tiny requests set `op_p50_ms` (wire parse and render, admission queue,
//! connection threads); the fan-outs and the requests queued behind them set
//! `op_p90_ms` (`ThreadRunner` fan-out, the multi-word order-40 probe).

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use adaptive_search::problems::{self, ProblemInfo};
use adaptive_search::SolveRequest;
use multiwalk::WalkSpec;
use runtime_stats::json::Json;
use solverd::{serve_connection, Service, ServiceConfig};
use xrand::Rng64;

use crate::report::{op_count, Op, Run};
use crate::traced::{timer_floor_ns, Budget, Profile};
use crate::Args;

const FANOUT_N: usize = 40;
/// Per-walk budget of the order-40 requests; never enough to solve.
const FANOUT_BUDGET: u64 = 4_000;
/// Tiny requests between consecutive fan-outs.
const TINY_PER_FANOUT: usize = 4;
/// Budget of the tiny requests; each solves in a few hundred steps at most.
const TINY_BUDGET: u64 = 200_000;
const OUTSTANDING: usize = 2;
/// Requests per second of `--seconds` (sized on a 2-vCPU x86-64 VM).
const OPS_PER_SECOND: f64 = 37.0;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Fan-outs whose walks a traced run replays through the model wrapper.
const REPLAYED_FANOUTS: usize = 4;
const IO_TIMEOUT: Duration = Duration::from_secs(60);

struct Request {
    info: &'static ProblemInfo,
    n: usize,
    budget: u64,
    seed: u64,
    line: String,
}

impl Request {
    fn fanout(&self) -> bool {
        self.n == FANOUT_N
    }
}

fn requests(seed: u64, count: usize) -> Vec<Request> {
    let mut rng = xrand::default_rng(seed ^ 0x501_7E4D);
    let registry = problems::registry();
    let mut tiny = 0;
    (0..count)
        .map(|i| {
            let (info, n, budget) = if i % (TINY_PER_FANOUT + 1) == TINY_PER_FANOUT {
                let costas = problems::find("costas").expect("costas is registered");
                (costas, FANOUT_N, FANOUT_BUDGET)
            } else {
                tiny += 1;
                let info = &registry[(tiny - 1) % registry.len()];
                (info, info.solvable_sizes[0], TINY_BUDGET)
            };
            let seed = rng.next_u64();
            let line = format!(
                r#"{{"id":"r{i}","problem":"{}","n":{n},"budget":{budget},"seed":{seed}}}"#,
                info.key
            );
            Request {
                info,
                n,
                budget,
                seed,
                line,
            }
        })
        .collect()
}

fn config() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        queue_capacity: 8,
        fanout_walks: 2,
        read_timeout: Some(IO_TIMEOUT),
        ..ServiceConfig::default()
    }
}

fn io<T>(what: &str, result: std::io::Result<T>) -> Result<T, String> {
    result.map_err(|e| format!("{what}: {e}"))
}

/// Start a service, a listener and one client connection (the set-up), run
/// `client` on the connection, then shut everything down.
fn session<T>(
    client: impl FnOnce(TcpStream) -> Result<T, String>,
) -> Result<(Duration, T), String> {
    let start = Instant::now();
    let service = Service::start(config());
    let listener = io("bind", TcpListener::bind("127.0.0.1:0"))?;
    let addr = io("local_addr", listener.local_addr())?;
    let result = std::thread::scope(|scope| {
        let server = scope.spawn(|| -> Result<(), String> {
            let (stream, _) = io("accept", listener.accept())?;
            io(
                "timeout",
                stream.set_read_timeout(service.config().read_timeout),
            )?;
            // `serve_connection` writes each response line and its newline
            // separately; without TCP_NODELAY the newline waits for the
            // client's delayed ACK (about 40 ms, in some runs and not others).
            io("nodelay", stream.set_nodelay(true))?;
            let reader = BufReader::new(io("clone", stream.try_clone())?);
            serve_connection(&service, reader, &stream);
            let _ = stream.shutdown(Shutdown::Both);
            Ok(())
        });
        let connected = TcpStream::connect(addr);
        let setup = start.elapsed();
        let result = match connected {
            Ok(stream) => client(stream),
            Err(e) => {
                // Unblock the accept so the scope can end.
                drop(TcpStream::connect(addr));
                Err(format!("connect: {e}"))
            }
        };
        let served = server
            .join()
            .map_err(|_| "server thread panicked".to_string())?;
        served.and(result).map(|value| (setup, value))
    });
    drop(service);
    result
}

/// One response as the client saw it.
struct Response {
    latency: Duration,
    line: String,
}

/// The closed loop: keep [`OUTSTANDING`] requests in flight until every
/// request has its response, then check that no extra response follows.
fn drive(stream: TcpStream, requests: &[Request]) -> Result<Vec<Response>, String> {
    io("nodelay", stream.set_nodelay(true))?;
    io("timeout", stream.set_read_timeout(Some(IO_TIMEOUT)))?;
    let mut writer = io("clone", stream.try_clone())?;
    let mut reader = BufReader::new(stream);
    let mut sent_at: Vec<Option<Instant>> = vec![None; requests.len()];
    let mut responses: Vec<Option<Response>> = (0..requests.len()).map(|_| None).collect();
    let mut send = |i: usize, sent_at: &mut Vec<Option<Instant>>| {
        sent_at[i] = Some(Instant::now());
        io(
            "send",
            writer.write_all(format!("{}\n", requests[i].line).as_bytes()),
        )
    };
    let mut next = 0;
    while next < OUTSTANDING.min(requests.len()) {
        send(next, &mut sent_at)?;
        next += 1;
    }
    let mut line = String::new();
    for received in 0..requests.len() {
        line.clear();
        if io("receive", reader.read_line(&mut line))? == 0 {
            return Err(format!(
                "connection closed with {} responses missing",
                requests.len() - received
            ));
        }
        let arrived = Instant::now();
        let doc = Json::parse(line.trim()).map_err(|e| format!("bad response {line:?}: {e:?}"))?;
        let index = doc
            .get("id")
            .and_then(Json::as_str)
            .and_then(|id| id.strip_prefix('r'))
            .and_then(|i| i.parse::<usize>().ok())
            .filter(|&i| i < next && responses[i].is_none())
            .ok_or_else(|| format!("response to no outstanding request: {line:?}"))?;
        let sent = sent_at[index].expect("outstanding requests were sent");
        responses[index] = Some(Response {
            latency: arrived - sent,
            line: line.trim().to_string(),
        });
        if next < requests.len() {
            send(next, &mut sent_at)?;
            next += 1;
        }
    }
    io("shutdown", writer.shutdown(Shutdown::Write))?;
    line.clear();
    if io("receive", reader.read_line(&mut line))? != 0 {
        return Err(format!("extra response after the last request: {line:?}"));
    }
    Ok(responses
        .into_iter()
        .map(|r| r.expect("every request was answered"))
        .collect())
}

/// Fields of one `"ok"` response.
struct Answer {
    iterations: u64,
    solution: Option<Vec<usize>>,
    solve_ms: f64,
    queue_ms: f64,
}

fn answer(doc: &Json) -> Option<Answer> {
    if doc.get("status")?.as_str()? != "ok" {
        return None;
    }
    let solution = match doc.get("solution")? {
        Json::Null => None,
        values => Some(
            values
                .as_array()?
                .iter()
                .map(|v| v.as_u64().map(|v| v as usize))
                .collect::<Option<Vec<_>>>()?,
        ),
    };
    Some(Answer {
        iterations: doc.get("iterations")?.as_u64()?,
        solution,
        solve_ms: doc.get("elapsed_ms")?.as_f64()?,
        queue_ms: doc.get("queue_ms")?.as_f64()?,
    })
}

/// Mean time of one call of `f` on each item, repeated to at least 20k calls.
fn mean_call_us<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let rounds = 20_000usize.div_ceil(items.len().max(1));
    let start = Instant::now();
    for _ in 0..rounds {
        items.iter().for_each(&mut f);
    }
    start.elapsed().as_secs_f64() * 1e6 / (rounds * items.len()) as f64
}

pub fn run(args: &Args) -> Run {
    let count = op_count(args.seconds, OPS_PER_SECOND);
    let requests = requests(args.seed, count);
    let mut run = Run::default();
    for _ in 1..SETUP_REPS {
        match session(|stream| {
            drop(stream);
            Ok(())
        }) {
            Ok((setup, ())) => run.setup.push(setup),
            Err(e) => run.errors.push(format!("set-up: {e}")),
        }
    }
    let mut wall = Duration::ZERO;
    let responses = session(|stream| {
        let phase = Instant::now();
        let responses = drive(stream, &requests);
        wall = phase.elapsed();
        responses
    });
    run.wall = wall;
    let responses = match responses {
        Ok((setup, responses)) => {
            run.setup.push(setup);
            responses
        }
        Err(e) => {
            run.errors.push(e);
            run.setup.push(Duration::ZERO);
            run.wall = run.wall.max(Duration::from_nanos(1));
            run.ops = requests
                .iter()
                .map(|_| Op {
                    latency: run.wall,
                    iterations: 0,
                    ok: false,
                })
                .collect();
            return run;
        }
    };

    let mut answers = Vec::with_capacity(requests.len());
    for (request, response) in requests.iter().zip(&responses) {
        let parsed = Json::parse(&response.line).ok();
        let answer = parsed.as_ref().and_then(answer);
        let valid = answer.as_ref().is_some_and(|a| {
            a.solution
                .as_deref()
                .is_none_or(|s| (request.info.is_optimum)(s))
        });
        run.check(valid, || {
            format!("request {:?}: bad answer {:?}", request.line, response.line)
        });
        let iterations = answer.as_ref().map_or(0, |a| a.iterations);
        run.ops.push(Op {
            latency: response.latency,
            iterations,
            ok: valid,
        });
        run.fingerprint.op(
            iterations,
            answer.as_ref().and_then(|a| a.solution.as_deref()),
        );
        answers.push(answer);
    }

    if args.trace {
        run.layers = layers(&requests, &responses, &answers, &run);
        let mut profile = Profile::new(timer_floor_ns());
        let fanouts = requests.iter().zip(&answers).filter(|(r, _)| r.fanout());
        for (request, answer) in fanouts.take(REPLAYED_FANOUTS) {
            let solve = SolveRequest::new(request.info.key, request.n, request.seed)
                .with_budget(request.budget);
            let spec = WalkSpec::from_request(&solve).expect("costas is registered");
            let mut iterations = 0;
            for rank in 0..config().fanout_walks {
                let seed = spec.seeder(request.seed).seed_for_rank(rank as u64);
                match profile.replay_both(
                    || spec.build_problem(),
                    &spec.config,
                    seed,
                    Budget::Solve,
                ) {
                    Ok(outcome) => iterations += outcome.stats.iterations,
                    Err(e) => run.errors.push(e),
                }
            }
            let served = answer.as_ref().map_or(0, |a| a.iterations);
            run.check(iterations == served, || {
                format!(
                    "fan-out seed {}: replayed {iterations} iterations, served {served}",
                    request.seed
                )
            });
        }
        run.layers.extend(profile.metrics());
    }
    run
}

/// The service-side and wire-layer metrics of a traced run.
fn layers(
    requests: &[Request],
    responses: &[Response],
    answers: &[Option<Answer>],
    run: &Run,
) -> Vec<(&'static str, f64)> {
    let ok: Vec<(&Response, &Answer)> = responses
        .iter()
        .zip(answers)
        .filter_map(|(r, a)| a.as_ref().map(|a| (r, a)))
        .collect();
    let count = ok.len().max(1) as f64;
    let queue: f64 = ok.iter().map(|(_, a)| a.queue_ms).sum::<f64>() / count;
    let solve: f64 = ok.iter().map(|(_, a)| a.solve_ms).sum::<f64>() / count;
    let latency: f64 = ok
        .iter()
        .map(|(r, _)| r.latency.as_secs_f64() * 1e3)
        .sum::<f64>()
        / count;
    let fanout_ms: Vec<f64> = requests
        .iter()
        .zip(answers)
        .filter(|(r, _)| r.fanout())
        .filter_map(|(_, a)| a.as_ref().map(|a| a.solve_ms))
        .collect();
    let lines: Vec<&str> = requests.iter().map(|r| r.line.as_str()).collect();
    let replies: Vec<&str> = responses.iter().map(|r| r.line.as_str()).collect();
    vec![
        ("solverd.queue_ms", queue),
        ("solverd.solve_ms", solve),
        ("solverd.overhead_ms", latency - queue - solve),
        (
            "proto.parse_us",
            mean_call_us(&lines, |line| {
                std::hint::black_box(solverd::proto::parse_message(line).is_ok());
            }),
        ),
        (
            "json.parse_us",
            mean_call_us(&replies, |line| {
                std::hint::black_box(Json::parse(line).is_ok());
            }),
        ),
        (
            "multiwalk.fanout_ms",
            fanout_ms.iter().sum::<f64>() / fanout_ms.len().max(1) as f64,
        ),
        (
            "engine.iters_per_op",
            run.fingerprint.iterations as f64 / requests.len() as f64,
        ),
    ]
}
