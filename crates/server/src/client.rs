//! [`QueryClient`]: the text-protocol client for a `sketchd` server —
//! quantiles, metric listings, health/stats, checkpoint dumps.
//!
//! Each request goes out as one `write_all`; each response comes back
//! through one read buffer, so an answer shorter than the buffer costs
//! one `read(2)`, not one per byte. Floats travel as shortest-round-trip
//! decimal text, so a value parsed from a response is bit-identical to
//! the `f64` the server computed.

use std::io::{BufReader, Read, Write};

use ddsketch::codec::DEFAULT_MAX_FRAME_LEN;
use pipeline::TimeSeriesStore;

use crate::error::ServerError;
use crate::net::{Conn, Endpoint};
use crate::protocol::LineReader;
use crate::state::{StatsSnapshot, TenantStats};

/// A connected query session.
///
/// The socket's read side sits behind a `BufReader` (8 KiB): a response
/// line is scanned out of the buffer, and each refill is one `read(2)`
/// of whatever the kernel holds, up to the buffer's size. The body that
/// follows a `+DUMP n` header is read through the same buffer, so bytes
/// that arrived together with the header are not lost. Response lines
/// may run up to [`DEFAULT_MAX_FRAME_LEN`] bytes — far above the
/// server's [`crate::MAX_LINE`] request ceiling, which long `SERIES`,
/// `STATS` and `METRICS` answers exceed.
#[derive(Debug)]
pub struct QueryClient {
    conn: BufReader<Conn>,
    lines: LineReader,
}

impl QueryClient {
    /// Dial `endpoint` and start a query session.
    pub fn connect(endpoint: &Endpoint) -> Result<Self, ServerError> {
        Ok(Self {
            conn: BufReader::new(endpoint.connect()?),
            lines: LineReader::new(DEFAULT_MAX_FRAME_LEN),
        })
    }

    fn read_line(&mut self) -> Result<String, ServerError> {
        loop {
            match self.lines.poll_line(&mut self.conn) {
                Ok(Some(line)) => return Ok(line),
                Ok(None) => {
                    return Err(ServerError::Protocol("server closed the connection".into()))
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    continue
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Send one raw command line and return the response with its `+OK `
    /// / `+` marker stripped; a `-ERR` response becomes
    /// [`ServerError::Protocol`] carrying the server's message.
    pub fn command(&mut self, line: &str) -> Result<String, ServerError> {
        let mut request = String::with_capacity(line.len() + 1);
        request.push_str(line);
        request.push('\n');
        self.conn.get_mut().write_all(request.as_bytes())?;
        let response = self.read_line()?;
        if let Some(message) = response.strip_prefix("-ERR ") {
            return Err(ServerError::Protocol(message.to_string()));
        }
        if let Some(rest) = response.strip_prefix("+OK") {
            return Ok(rest.trim_start().to_string());
        }
        if let Some(rest) = response.strip_prefix('+') {
            return Ok(rest.to_string());
        }
        Err(ServerError::Protocol(format!(
            "unparseable response {response:?}"
        )))
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ServerError> {
        let pong = self.command("PING")?;
        if pong == "PONG" {
            Ok(())
        } else {
            Err(ServerError::Protocol(format!(
                "expected PONG, got {pong:?}"
            )))
        }
    }

    /// The server's counters.
    pub fn stats(&mut self) -> Result<StatsSnapshot, ServerError> {
        let body = self.command("STATS")?;
        let mut snapshot = StatsSnapshot::default();
        for pair in body.split_ascii_whitespace() {
            let Some((key, value)) = pair.split_once('=') else {
                return Err(ServerError::Protocol(format!("bad stats pair {pair:?}")));
            };
            // The per-shard depth vector and the per-tenant totals are
            // the non-scalar keys.
            if key == "staging_depth" {
                snapshot.staging_depth = value
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::parse)
                    .collect::<Result<_, _>>()
                    .map_err(|_| ServerError::Protocol(format!("bad stats value {pair:?}")))?;
                continue;
            }
            if key == "tenants" {
                // `name:frames:weight` per tenant; names may contain
                // `:` but not `,`, so fields split from the right.
                snapshot.tenants = value
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|entry| {
                        let mut fields = entry.rsplitn(3, ':');
                        let weight = fields.next()?.parse().ok()?;
                        let frames = fields.next()?.parse().ok()?;
                        Some(TenantStats {
                            name: fields.next()?.to_string(),
                            frames_absorbed: frames,
                            weighted_total: weight,
                        })
                    })
                    .collect::<Option<_>>()
                    .ok_or_else(|| ServerError::Protocol(format!("bad stats value {pair:?}")))?;
                continue;
            }
            let value: u64 = value
                .parse()
                .map_err(|_| ServerError::Protocol(format!("bad stats value {pair:?}")))?;
            match key {
                "frames_ingested" => snapshot.frames_ingested = value,
                "frames_rejected" => snapshot.frames_rejected = value,
                "bytes_ingested" => snapshot.bytes_ingested = value,
                "connections_total" => snapshot.connections_total = value,
                "connections_rejected" => snapshot.connections_rejected = value,
                "open_connections" => snapshot.open_connections = value,
                "ingest_disconnects" => snapshot.ingest_disconnects = value,
                "queries_served" => snapshot.queries_served = value,
                "backpressure_waits" => snapshot.backpressure_waits = value,
                "ingest_suspensions" => snapshot.ingest_suspensions = value,
                "reactor_wakeups" => snapshot.reactor_wakeups = value,
                "reactor_events" => snapshot.reactor_events = value,
                "checkpoints_completed" => snapshot.checkpoints_completed = value,
                "query_cache_hits" => snapshot.query_cache_hits = value,
                "query_cache_misses" => snapshot.query_cache_misses = value,
                "snapshot_rebuilds" => snapshot.snapshot_rebuilds = value,
                "snapshot_staleness_max" => snapshot.snapshot_staleness_max = value,
                "evicted_cells" => snapshot.evicted_cells = value,
                "tenants_refused" => snapshot.tenants_refused = value,
                _ => {}
            }
        }
        Ok(snapshot)
    }

    /// All tenant names, sorted.
    pub fn tenants(&mut self) -> Result<Vec<String>, ServerError> {
        Ok(self
            .command("TENANTS")?
            .split_ascii_whitespace()
            .map(str::to_string)
            .collect())
    }

    /// All metric names of a tenant, sorted.
    pub fn metrics(&mut self, tenant: &str) -> Result<Vec<String>, ServerError> {
        Ok(self
            .command(&format!("METRICS {tenant}"))?
            .split_ascii_whitespace()
            .map(str::to_string)
            .collect())
    }

    /// Total observation count across a tenant (absorbed frames only;
    /// `SYNC` first for a barrier against in-flight ingest).
    pub fn count(&mut self, tenant: &str) -> Result<u64, ServerError> {
        let body = self.command(&format!("COUNT {tenant}"))?;
        body.trim()
            .parse()
            .map_err(|_| ServerError::Protocol(format!("bad count {body:?}")))
    }

    /// Total resident observation weight across a tenant — integer
    /// counts at weight 1 plus `DDS3` frame weights (`SYNC` first for a
    /// barrier against in-flight ingest).
    pub fn weighted_count(&mut self, tenant: &str) -> Result<f64, ServerError> {
        let body = self.command(&format!("WCOUNT {tenant}"))?;
        body.trim()
            .parse()
            .map_err(|_| ServerError::Protocol(format!("bad weighted count {body:?}")))
    }

    /// Tenant-wide quantile estimates — exact over everything absorbed,
    /// bit-identical to a from-scratch union sketch.
    pub fn quantiles(&mut self, tenant: &str, qs: &[f64]) -> Result<Vec<f64>, ServerError> {
        self.quantiles_command("QUANTILE", tenant, qs)
    }

    /// Tenant-wide **weighted** quantile estimates over both count
    /// planes: integer frames enter at weight 1, `DDS3` frames at their
    /// `f64` weights.
    pub fn weighted_quantiles(
        &mut self,
        tenant: &str,
        qs: &[f64],
    ) -> Result<Vec<f64>, ServerError> {
        self.quantiles_command("WQUANTILE", tenant, qs)
    }

    fn quantiles_command(
        &mut self,
        verb: &str,
        tenant: &str,
        qs: &[f64],
    ) -> Result<Vec<f64>, ServerError> {
        let mut line = format!("{verb} {tenant}");
        for q in qs {
            line.push_str(&format!(" {q:?}"));
        }
        let body = self.command(&line)?;
        let values: Vec<f64> = body
            .split_ascii_whitespace()
            .map(|tok| {
                tok.parse::<f64>()
                    .map_err(|_| ServerError::Protocol(format!("bad quantile {tok:?}")))
            })
            .collect::<Result<_, _>>()?;
        if values.len() != qs.len() {
            return Err(ServerError::Protocol(format!(
                "asked {} quantiles, got {}",
                qs.len(),
                values.len()
            )));
        }
        Ok(values)
    }

    /// Convenience: one tenant-wide quantile.
    pub fn quantile(&mut self, tenant: &str, q: f64) -> Result<f64, ServerError> {
        Ok(self.quantiles(tenant, std::slice::from_ref(&q))?[0])
    }

    /// Convenience: one tenant-wide weighted quantile.
    pub fn weighted_quantile(&mut self, tenant: &str, q: f64) -> Result<f64, ServerError> {
        Ok(self.weighted_quantiles(tenant, std::slice::from_ref(&q))?[0])
    }

    /// The per-window quantile series of one metric:
    /// `(window_start, estimate)` pairs.
    pub fn series(
        &mut self,
        tenant: &str,
        metric: &str,
        q: f64,
    ) -> Result<Vec<(u64, f64)>, ServerError> {
        let body = self.command(&format!("SERIES {tenant} {metric} {q:?}"))?;
        body.split_ascii_whitespace()
            .map(|pair| {
                let (window, value) = pair
                    .split_once('=')
                    .ok_or_else(|| ServerError::Protocol(format!("bad series pair {pair:?}")))?;
                Ok((
                    window.parse().map_err(|_| {
                        ServerError::Protocol(format!("bad series window {pair:?}"))
                    })?,
                    value
                        .parse()
                        .map_err(|_| ServerError::Protocol(format!("bad series value {pair:?}")))?,
                ))
            })
            .collect()
    }

    /// Per-shard staging depth as `(current, high watermark)` pairs.
    pub fn shards(&mut self, tenant: &str) -> Result<Vec<(usize, usize)>, ServerError> {
        let body = self.command(&format!("SHARDS {tenant}"))?;
        let mut parts = body.split_ascii_whitespace();
        let declared: usize = parts
            .next()
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| ServerError::Protocol(format!("bad shard count in {body:?}")))?;
        let depths: Vec<(usize, usize)> = parts
            .map(|pair| {
                let (depth, high) = pair
                    .split_once(':')
                    .ok_or_else(|| ServerError::Protocol(format!("bad shard pair {pair:?}")))?;
                Ok((
                    depth
                        .parse()
                        .map_err(|_| ServerError::Protocol(format!("bad shard depth {pair:?}")))?,
                    high.parse()
                        .map_err(|_| ServerError::Protocol(format!("bad shard high {pair:?}")))?,
                ))
            })
            .collect::<Result<_, ServerError>>()?;
        if depths.len() != declared {
            return Err(ServerError::Protocol(format!(
                "shard count mismatch in {body:?}"
            )));
        }
        Ok(depths)
    }

    /// Barrier: returns once every frame staged before the call has been
    /// absorbed into tenant state.
    pub fn sync(&mut self) -> Result<(), ServerError> {
        self.command("SYNC").map(|_| ())
    }

    /// Trigger an on-demand checkpoint sweep; returns the file count.
    pub fn checkpoint(&mut self) -> Result<usize, ServerError> {
        let body = self.command("CHECKPOINT")?;
        body.trim()
            .parse()
            .map_err(|_| ServerError::Protocol(format!("bad checkpoint count {body:?}")))
    }

    /// Fetch one shard's raw checkpoint stream (`+DUMP <len>` followed
    /// by exactly `len` binary bytes). The body is read through the
    /// same buffer as the header, starting with whatever part of it
    /// arrived alongside the header line.
    pub fn dump(&mut self, tenant: &str, shard: usize) -> Result<Vec<u8>, ServerError> {
        let mut request = format!("DUMP {tenant} {shard}");
        request.push('\n');
        self.conn.get_mut().write_all(request.as_bytes())?;
        let response = self.read_line()?;
        if let Some(message) = response.strip_prefix("-ERR ") {
            return Err(ServerError::Protocol(message.to_string()));
        }
        let len: usize = response
            .strip_prefix("+DUMP ")
            .and_then(|n| n.trim().parse().ok())
            .ok_or_else(|| ServerError::Protocol(format!("bad dump response {response:?}")))?;
        let mut bytes = vec![0u8; len];
        self.conn.read_exact(&mut bytes)?;
        Ok(bytes)
    }

    /// Fetch one shard's store as a restored [`TimeSeriesStore`] — the
    /// length-delimited dump composes with the until-EOF `restore` via
    /// an exact-length read.
    pub fn fetch_store(
        &mut self,
        tenant: &str,
        shard: usize,
    ) -> Result<TimeSeriesStore, ServerError> {
        let bytes = self.dump(tenant, shard)?;
        Ok(TimeSeriesStore::restore(bytes.as_slice())?)
    }

    /// Request server shutdown (the owning process completes it via
    /// [`crate::ServerHandle::shutdown`]).
    pub fn shutdown_server(&mut self) -> Result<(), ServerError> {
        self.command("SHUTDOWN").map(|_| ())
    }

    /// End the session cleanly.
    pub fn quit(mut self) -> Result<(), ServerError> {
        self.command("QUIT").map(|_| ())
    }
}
