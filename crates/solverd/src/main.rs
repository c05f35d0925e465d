//! `solverd` — the solver service binary.
//!
//! Default mode serves line-delimited JSON on stdin/stdout (one request per
//! line, one response per request, completion order); EOF drains the queue
//! and exits.  `--tcp ADDR` binds a localhost TCP listener instead and serves
//! each connection with the same protocol (port `0` picks a free port; the
//! bound address is printed on stdout so drivers can connect).
//!
//! ```text
//! solverd [--workers N] [--queue N] [--fanout-walks N] [--tcp ADDR]
//! ```

use std::io::{BufReader, Write};
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;

use solverd::{serve_connection, Service, ServiceConfig};

fn main() -> ExitCode {
    let mut config = ServiceConfig::default();
    let mut tcp_addr: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value_of = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        let result: Result<(), String> = match arg.as_str() {
            "--workers" => value_of("--workers").and_then(|v| {
                config.workers = parse_positive(&v, "--workers")?;
                Ok(())
            }),
            "--queue" => value_of("--queue").and_then(|v| {
                config.queue_capacity = parse_positive(&v, "--queue")?;
                Ok(())
            }),
            "--fanout-walks" => value_of("--fanout-walks").and_then(|v| {
                config.fanout_walks = parse_positive(&v, "--fanout-walks")?;
                Ok(())
            }),
            "--tcp" => value_of("--tcp").map(|v| {
                tcp_addr = Some(v);
            }),
            "--help" | "-h" => {
                println!(
                    "usage: solverd [--workers N] [--queue N] [--fanout-walks N] [--tcp ADDR]"
                );
                return ExitCode::SUCCESS;
            }
            other => Err(format!("unknown flag {other:?} (try --help)")),
        };
        if let Err(message) = result {
            eprintln!("solverd: {message}");
            return ExitCode::FAILURE;
        }
    }

    match tcp_addr {
        None => {
            let service = Service::start(config);
            let stdin = std::io::stdin();
            serve_connection(&service, stdin.lock(), std::io::stdout());
            // Dropping the service drains the queue and joins the pool.
            ExitCode::SUCCESS
        }
        Some(addr) => match serve_tcp(&addr, config) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("solverd: {e}");
                ExitCode::FAILURE
            }
        },
    }
}

fn parse_positive(value: &str, flag: &str) -> Result<usize, String> {
    match value.parse::<usize>() {
        Ok(v) if v > 0 => Ok(v),
        _ => Err(format!("{flag} expects a positive integer, got {value:?}")),
    }
}

/// Accept loop: one thread per connection, all sharing one worker pool — the
/// admission queue is the *global* backpressure point, not per-connection.
fn serve_tcp(addr: &str, config: ServiceConfig) -> std::io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    // Printed (and flushed) before the first accept so a driver that spawned
    // us can read the port from our stdout.
    println!("listening on {local}");
    std::io::stdout().flush()?;

    let service = Arc::new(Service::start(config));
    for stream in listener.incoming() {
        let stream = match stream {
            Ok(s) => s,
            Err(e) => {
                eprintln!("solverd: accept failed: {e}");
                continue;
            }
        };
        // A client that goes silent cannot pin this connection thread: the
        // timeout surfaces as a read error and the connection winds down like
        // EOF (admitted work still completes).
        if let Err(e) = stream.set_read_timeout(service.config().read_timeout) {
            eprintln!("solverd: set_read_timeout failed: {e}");
        }
        // Responses are small, one write each: send them at once rather than
        // waiting on the client's ACK of the previous one.
        if let Err(e) = stream.set_nodelay(true) {
            eprintln!("solverd: set_nodelay failed: {e}");
        }
        let service = Arc::clone(&service);
        std::thread::spawn(move || {
            let reader = match stream.try_clone() {
                Ok(clone) => BufReader::new(clone),
                Err(e) => {
                    eprintln!("solverd: connection split failed: {e}");
                    return;
                }
            };
            serve_connection(&service, reader, &stream);
            let _ = stream.shutdown(std::net::Shutdown::Both);
        });
    }
    Ok(())
}
