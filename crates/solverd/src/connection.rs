//! Pumping one byte stream through a [`Service`].
//!
//! Each connection gets two threads: the caller's (reading request lines and
//! submitting them) and a writer (draining the response channel).  Decoupling
//! them is what makes backpressure honest — a slow solve never blocks the
//! reader, so a burst that overruns the admission queue is *rejected* (the
//! client finds out immediately) instead of silently buffered in the pipe.
//!
//! The read path is hardened against misbehaving clients:
//!
//! * **Line cap** ([`crate::ServiceConfig::max_line_bytes`]): a line that
//!   exceeds the cap is answered with a typed `"oversized"` reject, the rest
//!   of the line is drained, and the connection continues — reader memory is
//!   bounded no matter what arrives.
//! * **Read timeout** ([`crate::ServiceConfig::read_timeout`], applied by the
//!   TCP accept loop): a client that goes silent mid-line surrenders its
//!   connection thread instead of pinning it forever.  The timeout surfaces
//!   here as a read error, which ends the connection like EOF — admitted work
//!   still completes and outstanding responses are still written.
//!
//! The response channel closes when every sender is gone: the reader's handle
//! drops at EOF, and each admitted job's clone drops when its response is
//! sent.  The writer therefore drains exactly the responses owed to this
//! connection and then returns — no sentinel messages, no polling.

use std::io::{BufRead, Write};
use std::sync::mpsc;

use crate::proto::Reject;
use crate::service::Service;

/// One bounded read off the stream.
enum LineRead {
    /// A complete line (without its terminator), within the byte cap.
    Line(String),
    /// The line exceeded the cap; it has been drained through its newline.
    Oversized,
    /// End of stream (EOF, or a read error such as a socket timeout).
    Closed,
}

/// Read one `\n`-terminated line, holding at most `max_bytes` of it in
/// memory.  An overlong line is consumed (to its newline or EOF) and reported
/// as [`LineRead::Oversized`] so the caller can answer and move on.
fn read_line_bounded<R: BufRead>(reader: &mut R, max_bytes: usize) -> LineRead {
    let mut line: Vec<u8> = Vec::new();
    let mut oversized = false;
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(_) => return LineRead::Closed, // timeout or hard error: hang up
        };
        if chunk.is_empty() {
            // EOF.  A non-empty partial line without a newline is still a
            // line (matching `BufRead::lines` semantics).
            return match (oversized, line.is_empty()) {
                (true, _) => LineRead::Oversized,
                (false, true) => LineRead::Closed,
                (false, false) => LineRead::Line(String::from_utf8_lossy(&line).into_owned()),
            };
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.map_or(chunk.len(), |pos| pos + 1);
        if !oversized {
            let body = &chunk[..newline.unwrap_or(take)];
            if line.len() + body.len() > max_bytes {
                oversized = true;
                line.clear(); // stop buffering: the line is already condemned
            } else {
                line.extend_from_slice(body);
            }
        }
        reader.consume(take);
        if newline.is_some() {
            return if oversized {
                LineRead::Oversized
            } else {
                LineRead::Line(String::from_utf8_lossy(&line).into_owned())
            };
        }
    }
}

/// Serve one connection to completion: read request lines from `reader` until
/// EOF (or a read timeout), write one response line per request to `writer`
/// in completion order.  Returns the number of request lines processed
/// (oversized lines count: they are answered too).
pub fn serve_connection<R, W>(service: &Service, reader: R, writer: W) -> usize
where
    R: BufRead,
    W: Write + Send,
{
    let max_line_bytes = service.config().max_line_bytes;
    let (tx, rx) = mpsc::channel::<String>();
    let mut submitted = 0usize;
    std::thread::scope(|scope| {
        let writer_handle = scope.spawn(move || {
            let mut writer = writer;
            for mut line in rx {
                // One write per response: split writes (line, then newline)
                // let Nagle's algorithm hold the newline back until the
                // client's delayed ACK, stalling every response after the first.
                line.push('\n');
                if writer.write_all(line.as_bytes()).is_err() {
                    // Client hung up: stop writing, keep draining so job
                    // threads never block on a full channel (mpsc is
                    // unbounded, but exiting early would be a silent drop of
                    // accounting for the lines below).
                    break;
                }
                let _ = writer.flush();
            }
        });
        let mut reader = reader;
        loop {
            match read_line_bounded(&mut reader, max_line_bytes) {
                LineRead::Closed => break,
                LineRead::Oversized => {
                    let _ = tx.send(Reject::oversized(max_line_bytes).render());
                    submitted += 1;
                }
                LineRead::Line(line) => {
                    if line.trim().is_empty() {
                        continue;
                    }
                    service.submit(&line, &tx);
                    submitted += 1;
                }
            }
        }
        // EOF: no more requests from this connection.  Outstanding jobs still
        // hold channel clones, so the writer keeps running until the last
        // response for this connection is out.
        drop(tx);
        let _ = writer_handle.join();
    });
    submitted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use runtime_stats::json::Json;

    #[test]
    fn pumps_a_batch_and_answers_every_line() {
        let service = Service::start(ServiceConfig::default());
        let input = concat!(
            r#"{"id":"a","problem":"costas","n":10,"seed":1}"#,
            "\n\n", // blank lines are ignored
            r#"{"id":"b","problem":"zzz","n":5}"#,
            "\n",
            "garbage\n",
        );
        let mut output = Vec::new();
        let n = serve_connection(&service, input.as_bytes(), &mut output);
        assert_eq!(n, 3);
        let lines: Vec<&str> = std::str::from_utf8(&output).unwrap().lines().collect();
        assert_eq!(lines.len(), 3);
        let mut statuses: Vec<String> = lines
            .iter()
            .map(|l| {
                Json::parse(l)
                    .expect("valid JSON")
                    .get("status")
                    .and_then(|v| v.as_str())
                    .expect("status present")
                    .to_string()
            })
            .collect();
        statuses.sort();
        assert_eq!(statuses, ["error", "ok", "rejected"]);
    }

    #[test]
    fn an_oversized_line_is_rejected_and_the_connection_continues() {
        let service = Service::start(ServiceConfig {
            max_line_bytes: 64,
            ..ServiceConfig::default()
        });
        // A line far beyond the cap (no valid JSON needed: it must be dropped
        // unparsed), followed by a perfectly good request on the same stream.
        let mut input = vec![b'x'; 10_000];
        input.push(b'\n');
        input.extend_from_slice(br#"{"id":"after","problem":"costas","n":10,"seed":1}"#);
        input.push(b'\n');
        let mut output = Vec::new();
        let n = serve_connection(&service, &input[..], &mut output);
        assert_eq!(n, 2, "the oversized line is processed (and answered) too");
        let lines: Vec<Json> = std::str::from_utf8(&output)
            .unwrap()
            .lines()
            .map(|l| Json::parse(l).expect("valid JSON"))
            .collect();
        assert_eq!(lines.len(), 2);
        let oversized = lines
            .iter()
            .find(|doc| doc.get("reason").and_then(Json::as_str) == Some("oversized"))
            .expect("typed oversized reject");
        assert_eq!(
            oversized.get("status").and_then(Json::as_str),
            Some("rejected")
        );
        let after = lines
            .iter()
            .find(|doc| doc.get("id").and_then(Json::as_str) == Some("after"))
            .expect("the request after the oversized line is served");
        assert_eq!(
            after.get("termination").and_then(Json::as_str),
            Some("solved")
        );
    }

    /// Records the bytes of every `write` call separately.
    #[derive(Default)]
    struct WriteLog(Vec<Vec<u8>>);

    impl Write for WriteLog {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_response_is_one_write_of_one_line() {
        let service = Service::start(ServiceConfig::default());
        let input = concat!(
            r#"{"id":"a","problem":"costas","n":8,"seed":1}"#,
            "\n",
            r#"{"id":"b","problem":"n-queens","n":8,"seed":2}"#,
            "\n",
            "garbage\n",
        );
        let mut log = WriteLog::default();
        assert_eq!(serve_connection(&service, input.as_bytes(), &mut log), 3);
        assert_eq!(log.0.len(), 3, "one write per response");
        for write in &log.0 {
            let text = std::str::from_utf8(write).expect("UTF-8");
            assert!(text.ends_with('\n'), "{text:?}");
            assert_eq!(text.matches('\n').count(), 1, "{text:?}");
            Json::parse(text.trim_end()).expect("a whole response line");
        }
    }

    #[test]
    fn bounded_reader_matches_lines_semantics_on_ordinary_input() {
        let mut input: &[u8] = b"alpha\nbeta\ngamma"; // no trailing newline
        let mut got = Vec::new();
        loop {
            match read_line_bounded(&mut input, 1024) {
                LineRead::Line(l) => got.push(l),
                LineRead::Closed => break,
                LineRead::Oversized => panic!("nothing oversized here"),
            }
        }
        assert_eq!(got, ["alpha", "beta", "gamma"]);
    }
}
