//! The `sketchd` wire protocol: the ingest envelope and the line-based
//! query dialect.
//!
//! ## Connection handshake
//!
//! Every connection opens with one text line. `INGEST <tenant>` switches
//! the connection to the binary ingest stream; anything else is treated
//! as the first command of a query session.
//!
//! ## Ingest stream (binary)
//!
//! After the handshake line the agent writes a standard `DDSF` frame
//! stream ([`ddsketch::codec::FrameWriter`] layout). Each frame body is
//! a routing envelope around one encoded sketch payload:
//!
//! | field    | encoding                                       |
//! |----------|------------------------------------------------|
//! | metric   | varint length + UTF-8 bytes                    |
//! | ts_secs  | varint                                         |
//! | payload  | `DDS1`/`DDS2`/`DDS3` sketch bytes to frame end |
//!
//! Integer (`DDS1`/`DDS2`) payloads feed the exact `u64` plane: the
//! shard's aggregator and its windowed time-series store. Weighted
//! (`DDS3`) payloads feed the shard's weighted-plane aggregator.
//!
//! The ingest direction is fire-and-forget: the server never writes on
//! an ingest connection, so an agent's send path is a single
//! `write_all` per frame — which is also what makes reconnect-and-resend
//! atomic (a failed `write_all` means the server saw at most a strict
//! prefix of the frame, which it discards as a truncated frame).
//!
//! ## Query session (text lines, one binary escape)
//!
//! Requests are space-separated lines; responses are a single line
//! starting `+` on success or `-ERR <message>` on failure. Floats are
//! rendered with Rust's shortest-round-trip formatting, so a parsed
//! response is bit-identical to the server's `f64`. `DUMP` alone
//! follows its response line with raw binary: `+DUMP <n>` and then
//! exactly `n` bytes of [`pipeline::TimeSeriesStore::checkpoint`]
//! stream.

use std::io::{self, Read};

use ddsketch::codec::varint::{get_varint, put_varint};
use ddsketch::SketchError;

/// Ceiling on one request line the server reads (handshake or query),
/// in bytes — the terminating `\n` is not counted. Longer lines are a
/// protocol error; the connection is closed. Response lines are not
/// bound by it: the client reads them under
/// [`ddsketch::codec::DEFAULT_MAX_FRAME_LEN`].
pub const MAX_LINE: usize = 8192;

/// Ceiling on a metric or tenant name, in bytes.
pub const MAX_NAME: usize = 256;

/// Whether `name` is a valid tenant or metric name: 1..=[`MAX_NAME`]
/// bytes of `[A-Za-z0-9._:-]`. The charset deliberately excludes
/// whitespace (names travel on space-separated lines), `@` (used as the
/// tenant/shard separator in checkpoint filenames), and path
/// separators.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= MAX_NAME
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b':' | b'-'))
}

/// Append one ingest envelope (metric, timestamp, payload) to `out`.
pub(crate) fn encode_envelope(out: &mut Vec<u8>, metric: &str, ts_secs: u64, payload: &[u8]) {
    put_varint(out, metric.len() as u64);
    out.extend_from_slice(metric.as_bytes());
    put_varint(out, ts_secs);
    out.extend_from_slice(payload);
}

/// Decode an ingest envelope into `(metric, ts_secs, payload_bytes)`.
pub(crate) fn decode_envelope(frame: &[u8]) -> Result<(&str, u64, &[u8]), SketchError> {
    let mut buf = frame;
    let len = usize::try_from(get_varint(&mut buf)?)
        .ok()
        .filter(|&len| len <= MAX_NAME && len <= buf.len())
        .ok_or_else(|| SketchError::Malformed("envelope metric length out of range".into()))?;
    let (name, rest) = buf.split_at(len);
    let metric = std::str::from_utf8(name)
        .map_err(|_| SketchError::Malformed("envelope metric is not UTF-8".into()))?;
    if !valid_name(metric) {
        return Err(SketchError::Malformed(format!(
            "invalid metric name {metric:?}"
        )));
    }
    let mut buf = rest;
    let ts_secs = get_varint(&mut buf)?;
    Ok((metric, ts_secs, buf))
}

/// Byte-at-a-time line reader that is resumable across
/// `WouldBlock`/`TimedOut`: a stalled read keeps the partial line and
/// the next [`LineReader::poll_line`] call continues it. `Interrupted`
/// is retried internally.
///
/// Both ends hand it a buffered source: the server's query and
/// handshake reads come through the connection's `BufReader`, the
/// client's responses through its own. The syscalls are the buffer's;
/// the reader takes one byte at a time from it and so never consumes
/// past the `\n` — the bytes after it stay in the buffer for whoever
/// reads next (the binary frames after an `INGEST` handshake, the body
/// after a `+DUMP n` header).
#[derive(Debug)]
pub(crate) struct LineReader {
    partial: Vec<u8>,
    max_line: usize,
}

impl LineReader {
    /// A reader that rejects lines longer than `max_line` bytes: the
    /// server reads requests under [`MAX_LINE`], the client reads
    /// responses under a ceiling of its own.
    pub(crate) fn new(max_line: usize) -> Self {
        Self {
            partial: Vec::new(),
            max_line,
        }
    }

    /// Read up to the next `\n`. `Ok(Some(line))` strips the newline
    /// (and one optional preceding `\r`); `Ok(None)` is clean EOF before
    /// any byte of a new line; EOF mid-line, an over-long line, or
    /// non-UTF-8 bytes are `InvalidData`; `WouldBlock`/`TimedOut`
    /// surface with the partial line retained.
    pub(crate) fn poll_line(&mut self, source: &mut impl Read) -> io::Result<Option<String>> {
        let mut byte = [0u8; 1];
        loop {
            match source.read(&mut byte) {
                Ok(0) => {
                    return if self.partial.is_empty() {
                        Ok(None)
                    } else {
                        Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            "EOF in the middle of a protocol line",
                        ))
                    };
                }
                Ok(_) => {
                    if byte[0] == b'\n' {
                        let mut line = std::mem::take(&mut self.partial);
                        if line.last() == Some(&b'\r') {
                            line.pop();
                        }
                        return String::from_utf8(line).map(Some).map_err(|_| {
                            io::Error::new(io::ErrorKind::InvalidData, "protocol line is not UTF-8")
                        });
                    }
                    if self.partial.len() >= self.max_line {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            "protocol line exceeds the length ceiling",
                        ));
                    }
                    self.partial.push(byte[0]);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

/// A parsed query command.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Command {
    Ping,
    Stats,
    Tenants,
    Shards(String),
    Metrics(String),
    Count(String),
    WCount(String),
    Quantile(String, Vec<f64>),
    WQuantile(String, Vec<f64>),
    Series {
        tenant: String,
        metric: String,
        q: f64,
    },
    Dump {
        tenant: String,
        shard: usize,
    },
    Sync,
    Checkpoint,
    Shutdown,
    Quit,
}

/// Parse one query line. Errors carry the message to send as `-ERR`.
pub(crate) fn parse_command(line: &str) -> Result<Command, String> {
    let mut parts = line.split_ascii_whitespace();
    let verb = parts.next().ok_or("empty command")?;
    let mut name_arg = |what: &str| -> Result<String, String> {
        let name = parts.next().ok_or_else(|| format!("missing {what}"))?;
        if !valid_name(name) {
            return Err(format!("invalid {what} {name:?}"));
        }
        Ok(name.to_string())
    };
    let command = match verb.to_ascii_uppercase().as_str() {
        "PING" => Command::Ping,
        "STATS" => Command::Stats,
        "TENANTS" => Command::Tenants,
        "SHARDS" => Command::Shards(name_arg("tenant")?),
        "METRICS" => Command::Metrics(name_arg("tenant")?),
        "COUNT" => Command::Count(name_arg("tenant")?),
        "WCOUNT" => Command::WCount(name_arg("tenant")?),
        "QUANTILE" | "WQUANTILE" => {
            let tenant = name_arg("tenant")?;
            let qs: Vec<f64> = parts
                .by_ref()
                .map(|tok| {
                    tok.parse::<f64>()
                        .map_err(|_| format!("bad quantile {tok:?}"))
                })
                .collect::<Result<_, _>>()?;
            if qs.is_empty() {
                return Err(format!(
                    "{} needs at least one q",
                    verb.to_ascii_uppercase()
                ));
            }
            if verb.eq_ignore_ascii_case("WQUANTILE") {
                Command::WQuantile(tenant, qs)
            } else {
                Command::Quantile(tenant, qs)
            }
        }
        "SERIES" => {
            let tenant = name_arg("tenant")?;
            let metric = name_arg("metric")?;
            let q = parts
                .next()
                .ok_or("missing q")?
                .parse::<f64>()
                .map_err(|_| "bad q".to_string())?;
            Command::Series { tenant, metric, q }
        }
        "DUMP" => {
            let tenant = name_arg("tenant")?;
            let shard = parts
                .next()
                .ok_or("missing shard index")?
                .parse::<usize>()
                .map_err(|_| "bad shard index".to_string())?;
            Command::Dump { tenant, shard }
        }
        "SYNC" => Command::Sync,
        "CHECKPOINT" => Command::Checkpoint,
        "SHUTDOWN" => Command::Shutdown,
        "QUIT" => Command::Quit,
        other => return Err(format!("unknown command {other:?}")),
    };
    if parts.next().is_some() {
        return Err(format!("trailing arguments after {verb}"));
    }
    Ok(command)
}

/// Render an `f64` so that parsing the text back yields the identical
/// bits (Rust's `{:?}` is shortest-round-trip).
pub(crate) fn fmt_f64(v: f64) -> String {
    format!("{v:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_validated() {
        assert!(valid_name("api.latency-p99_v2:prod"));
        assert!(!valid_name(""));
        assert!(!valid_name("has space"));
        assert!(!valid_name("has@at"));
        assert!(!valid_name("has/slash"));
        assert!(!valid_name(&"x".repeat(MAX_NAME + 1)));
    }

    #[test]
    fn envelope_roundtrip() {
        let mut frame = Vec::new();
        encode_envelope(&mut frame, "api.latency", 1234, b"payload-bytes");
        let (metric, ts, payload) = decode_envelope(&frame).unwrap();
        assert_eq!(metric, "api.latency");
        assert_eq!(ts, 1234);
        assert_eq!(payload, b"payload-bytes");

        // Hostile envelopes: truncation and oversized claimed lengths.
        assert!(decode_envelope(&frame[..3]).is_err());
        assert!(decode_envelope(b"").is_err());
        let mut hostile = Vec::new();
        put_varint(&mut hostile, u64::MAX);
        assert!(decode_envelope(&hostile).is_err());
    }

    #[test]
    fn commands_parse() {
        assert_eq!(parse_command("PING").unwrap(), Command::Ping);
        assert_eq!(
            parse_command("quantile acme 0.5 0.99").unwrap(),
            Command::Quantile("acme".into(), vec![0.5, 0.99])
        );
        assert_eq!(
            parse_command("SERIES acme api.latency 0.99").unwrap(),
            Command::Series {
                tenant: "acme".into(),
                metric: "api.latency".into(),
                q: 0.99
            }
        );
        assert_eq!(
            parse_command("DUMP acme 3").unwrap(),
            Command::Dump {
                tenant: "acme".into(),
                shard: 3
            }
        );
        assert_eq!(
            parse_command("WCOUNT acme").unwrap(),
            Command::WCount("acme".into())
        );
        assert_eq!(
            parse_command("wquantile acme 0.5 0.99").unwrap(),
            Command::WQuantile("acme".into(), vec![0.5, 0.99])
        );
        assert!(parse_command("").is_err());
        assert!(parse_command("QUANTILE acme").is_err());
        assert!(parse_command("QUANTILE acme zero.five").is_err());
        assert!(parse_command("WQUANTILE acme").is_err());
        assert!(parse_command("WCOUNT").is_err());
        assert!(parse_command("BOGUS").is_err());
        assert!(parse_command("PING extra").is_err());
        assert!(parse_command("COUNT bad name").is_err());
    }

    #[test]
    fn f64_text_roundtrip_is_bit_identical() {
        for v in [
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            1.7976931348623157e308,
            -42.42,
        ] {
            let parsed: f64 = fmt_f64(v).parse().unwrap();
            assert_eq!(parsed.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn line_reader_handles_fragmented_and_stalled_sources() {
        struct OneByte<'a>(&'a [u8], usize, bool);
        impl Read for OneByte<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.2 = !self.2;
                if self.2 {
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "stall"));
                }
                if self.1 == self.0.len() || buf.is_empty() {
                    return Ok(0);
                }
                buf[0] = self.0[self.1];
                self.1 += 1;
                Ok(1)
            }
        }
        let mut source = OneByte(b"INGEST acme\r\nsecond line\n", 0, false);
        let mut reader = LineReader::new(MAX_LINE);
        let mut lines = Vec::new();
        loop {
            match reader.poll_line(&mut source) {
                Ok(Some(line)) => lines.push(line),
                Ok(None) => break,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => continue,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(lines, ["INGEST acme", "second line"]);
    }
}
