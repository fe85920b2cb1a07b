//! The pusher side of push-mode ingestion: what runs *inside* an
//! instance (or the `leakprofd push` client) to deliver goroutine
//! profiles to a daemon's `POST /api/push`.
//!
//! Three pieces:
//!
//! * [`WatermarkTrigger`] — decides *when* to push: immediately when
//!   the instance's blocked-goroutine count crosses a watermark (the
//!   paper's "surface within one collection interval" requirement
//!   becomes sub-interval), plus an optional heartbeat so quiet
//!   instances still report.
//! * [`backoff_schedule`] / [`backoff_delay`] — capped exponential
//!   backoff with deterministic per-(seed, instance, attempt) jitter,
//!   honoring the server's `Retry-After` hint when one arrives. The
//!   schedule is a pure function, pinned byte-for-byte in tests.
//! * [`PushClient`] — the retry loop over a kept-alive connection:
//!   backpressure statuses (`429`/`503`) sleep out the schedule and
//!   retry; permanent rejections (`400`/`413`) fail fast; transport
//!   errors redial.

use std::net::SocketAddr;
use std::time::Duration;

use gosim::rng::SplitMix64;
use gosim::GoroutineProfile;
use obs::{stage, TraceContext, Tracer};
use serde::{Deserialize, Serialize};
use shardmap::fnv1a;

use crate::http::{http_post_with, HttpConnection, HttpError, ResponseMeta};

/// The path pushers POST profiles to.
pub const PUSH_PATH: &str = "/api/push";

/// Pusher tuning knobs.
#[derive(Debug, Clone)]
pub struct PushConfig {
    /// TCP connect deadline per attempt.
    pub connect_timeout: Duration,
    /// Read deadline per attempt.
    pub read_timeout: Duration,
    /// Attempts per profile (first try + retries).
    pub max_attempts: u32,
    /// Base backoff; attempt `k`'s delay grows as `base * 2^(k-1)`.
    pub backoff_base: Duration,
    /// Backoff ceiling — no delay (hinted or computed) exceeds this.
    pub backoff_cap: Duration,
    /// Seed for the deterministic backoff jitter.
    pub jitter_seed: u64,
    /// Reuse one kept-alive connection across pushes.
    pub keepalive: bool,
}

impl Default for PushConfig {
    fn default() -> Self {
        PushConfig {
            connect_timeout: Duration::from_millis(250),
            read_timeout: Duration::from_millis(500),
            max_attempts: 5,
            backoff_base: Duration::from_millis(100),
            backoff_cap: Duration::from_secs(5),
            jitter_seed: 0,
            keepalive: true,
        }
    }
}

/// The pure backoff function: delay before retry number `attempt`
/// (1-based — `attempt = 1` is the delay after the first failure).
///
/// `base * 2^(attempt-1)` plus deterministic jitter in `[0, step)`
/// drawn from a [`SplitMix64`] keyed on (seed, instance, attempt), all
/// capped at `backoff_cap`. When the server sent a `Retry-After` hint,
/// the delay honors it as a floor (never retry earlier than the server
/// asked) while keeping the cap.
pub fn backoff_delay(
    config: &PushConfig,
    instance: &str,
    attempt: u32,
    retry_after_ms: Option<u64>,
) -> Duration {
    let step = config
        .backoff_base
        .saturating_mul(1u32 << attempt.saturating_sub(1).min(16));
    let mut rng = SplitMix64::new(
        config.jitter_seed
            ^ fnv1a(instance.as_bytes())
            ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    let jitter = Duration::from_micros(rng.next_below(step.as_micros().max(1) as u64));
    let mut delay = step + jitter;
    if let Some(ms) = retry_after_ms {
        delay = delay.max(Duration::from_millis(ms));
    }
    delay.min(config.backoff_cap)
}

/// The hintless backoff schedule for `attempts` consecutive failures —
/// a pure function of (config, instance), pinned byte-for-byte in
/// tests so the retry behavior can never drift silently.
pub fn backoff_schedule(config: &PushConfig, instance: &str, attempts: u32) -> Vec<Duration> {
    (1..=attempts)
        .map(|a| backoff_delay(config, instance, a, None))
        .collect()
}

/// Why a push ultimately failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PushError {
    /// Transport-level failure on the final attempt.
    Transport(HttpError),
    /// The server rejected the profile permanently (`400`/`413`);
    /// retrying the same bytes cannot succeed.
    Rejected {
        /// The rejecting status code.
        status: u16,
        /// The server's explanation.
        detail: String,
    },
    /// Every attempt was shed (`429`/`503`); the queue never admitted
    /// the profile within the attempt budget.
    Exhausted {
        /// Attempts made.
        attempts: u32,
        /// Status of the final shed.
        last_status: u16,
    },
}

impl std::fmt::Display for PushError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PushError::Transport(e) => write!(f, "push transport failed: {e}"),
            PushError::Rejected { status, detail } => {
                write!(f, "push rejected with {status}: {detail}")
            }
            PushError::Exhausted {
                attempts,
                last_status,
            } => write!(
                f,
                "push shed on all {attempts} attempts (last {last_status})"
            ),
        }
    }
}

/// What an eventually-admitted push went through.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PushReceipt {
    /// Attempts spent (1 = admitted first try).
    pub attempts: u32,
    /// Backpressure responses absorbed along the way.
    pub sheds: u32,
}

/// Lifetime pusher counters.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PushStats {
    /// Profiles admitted by the daemon.
    pub pushed: u64,
    /// Backpressure responses (each slept out a backoff step).
    pub sheds: u64,
    /// Transport errors (each redialed).
    pub transport_errors: u64,
    /// Profiles that exhausted every attempt.
    pub failed: u64,
}

/// A pushing client bound to one daemon address, retrying with the
/// deterministic capped-backoff schedule and reusing a kept-alive
/// connection when configured.
pub struct PushClient {
    addr: SocketAddr,
    config: PushConfig,
    conn: Option<HttpConnection>,
    stats: PushStats,
    tracer: Tracer,
    pushes: u64,
}

impl PushClient {
    /// Creates a client pushing to `addr`.
    pub fn new(addr: SocketAddr, config: PushConfig) -> PushClient {
        PushClient {
            addr,
            config,
            conn: None,
            stats: PushStats::default(),
            tracer: Tracer::default(),
            pushes: 0,
        }
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &PushStats {
        &self.stats
    }

    /// Records spans on `tracer` from now on: one PUSH root per push,
    /// a TARGET child per attempt (carrying the hop id sent as
    /// `traceparent`), and a BACKOFF child per backoff/Retry-After
    /// sleep. When a daemon response carries a `traceparent` header,
    /// the *next* push adopts it — a pusher behind a traced daemon
    /// joins the fleet-wide trace one push later.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The pusher's tracer (for `--trace-out` snapshots).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Pushes one profile, sleeping out the backoff schedule across
    /// shed responses.
    ///
    /// # Errors
    ///
    /// [`PushError::Rejected`] on a permanent rejection,
    /// [`PushError::Exhausted`] when every attempt was shed, and
    /// [`PushError::Transport`] when the final attempt failed below
    /// HTTP.
    pub fn push(&mut self, profile: &GoroutineProfile) -> Result<PushReceipt, PushError> {
        let body = serde_json::to_string(profile)
            .expect("profile serializes")
            .into_bytes();
        self.pushes += 1;
        // Each push is one trace cycle. An adopted daemon context (from
        // the previous push's response) parents this push under the
        // daemon's — usually the fleet's — distributed trace.
        self.tracer.begin_cycle();
        let mut root = self.tracer.start(stage::PUSH, &profile.instance);
        let root_id = root.id();
        let result = self.push_attempts(profile, &body, root_id);
        match &result {
            Ok(receipt) => {
                root.attr("attempts", receipt.attempts);
                root.attr("sheds", receipt.sheds);
            }
            Err(e) => root.attr("error", e),
        }
        root.finish();
        let flagged = match &result {
            Ok(receipt) => receipt.sheds > 0,
            Err(_) => true,
        };
        self.tracer.finish_cycle_flagged(self.pushes, flagged);
        result
    }

    /// The retry loop behind [`PushClient::push`], spans included.
    fn push_attempts(
        &mut self,
        profile: &GoroutineProfile,
        body: &[u8],
        root_id: u64,
    ) -> Result<PushReceipt, PushError> {
        let mut receipt = PushReceipt::default();
        let mut last_status = 0u16;
        for attempt in 1..=self.config.max_attempts.max(1) {
            receipt.attempts = attempt;
            let mut span = self
                .tracer
                .start_with(stage::TARGET, &profile.instance, root_id);
            span.attr("attempt", attempt);
            let traceparent = self.tracer.hop(&mut span).map(|c| c.to_header());
            let outcome = self.send(body, traceparent.as_deref());
            if let Ok(meta) = &outcome {
                span.attr("status", meta.status);
                // The daemon told us which trace it is in; the next
                // push joins it.
                if let Some(ctx) = meta.traceparent.as_deref().and_then(TraceContext::parse) {
                    self.tracer.adopt_remote(&ctx);
                }
            }
            match outcome {
                Ok(meta) if meta.status == 200 => {
                    span.finish();
                    self.stats.pushed += 1;
                    self.stats.sheds += u64::from(receipt.sheds);
                    return Ok(receipt);
                }
                Ok(meta) if meta.status == 429 || meta.status == 503 => {
                    span.finish();
                    receipt.sheds += 1;
                    last_status = meta.status;
                    if attempt < self.config.max_attempts {
                        self.backoff_sleep(profile, attempt, meta.retry_after_ms, root_id);
                    }
                }
                Ok(meta) => {
                    span.finish();
                    self.stats.failed += 1;
                    return Err(PushError::Rejected {
                        status: meta.status,
                        detail: String::from_utf8_lossy(&meta.body).into_owned(),
                    });
                }
                Err(e) => {
                    span.attr("error", &e);
                    span.finish();
                    // The connection is suspect after any transport
                    // error; drop it so the next attempt redials.
                    self.conn = None;
                    self.stats.transport_errors += 1;
                    if attempt == self.config.max_attempts.max(1) {
                        self.stats.failed += 1;
                        return Err(PushError::Transport(e));
                    }
                    self.backoff_sleep(profile, attempt, None, root_id);
                }
            }
        }
        self.stats.sheds += u64::from(receipt.sheds);
        self.stats.failed += 1;
        Err(PushError::Exhausted {
            attempts: receipt.attempts,
            last_status,
        })
    }

    /// Sleeps out one backoff step under a BACKOFF span, so shed storms
    /// show up as visible idle bars in the stitched timeline.
    fn backoff_sleep(
        &self,
        profile: &GoroutineProfile,
        attempt: u32,
        retry_after_ms: Option<u64>,
        root_id: u64,
    ) {
        let delay = backoff_delay(&self.config, &profile.instance, attempt, retry_after_ms);
        let mut span = self
            .tracer
            .start_with(stage::BACKOFF, &profile.instance, root_id);
        span.attr("delay_ms", delay.as_millis() as u64);
        if let Some(ms) = retry_after_ms {
            span.attr("retry_after_ms", ms);
        }
        std::thread::sleep(delay);
        span.finish();
    }

    /// One POST, over the pooled connection when keep-alive is on.
    fn send(&mut self, body: &[u8], traceparent: Option<&str>) -> Result<ResponseMeta, HttpError> {
        if !self.config.keepalive {
            return http_post_with(
                self.addr,
                PUSH_PATH,
                "application/json",
                body,
                self.config.connect_timeout,
                self.config.read_timeout,
                traceparent,
            );
        }
        if self.conn.is_none() {
            self.conn = Some(HttpConnection::connect(
                self.addr,
                self.config.connect_timeout,
                self.config.read_timeout,
            )?);
        }
        let conn = self.conn.as_mut().expect("connection just ensured");
        match conn.post_with(PUSH_PATH, "application/json", body, traceparent) {
            Ok(meta) => Ok(meta),
            Err(e) => {
                self.conn = None;
                Err(e)
            }
        }
    }
}

/// Decides when an instance should push: immediately when its blocked
/// count reaches the watermark, else on a heartbeat every
/// `heartbeat_every` polls (0 disables the heartbeat).
#[derive(Debug, Clone)]
pub struct WatermarkTrigger {
    watermark: u64,
    heartbeat_every: u64,
    polls_since_push: u64,
}

impl WatermarkTrigger {
    /// Creates a trigger firing at `watermark` blocked goroutines, with
    /// an optional heartbeat.
    pub fn new(watermark: u64, heartbeat_every: u64) -> WatermarkTrigger {
        WatermarkTrigger {
            watermark,
            heartbeat_every,
            polls_since_push: 0,
        }
    }

    /// Observes one poll of the instance's blocked count and returns
    /// whether to push now.
    pub fn should_push(&mut self, blocked: u64) -> bool {
        self.polls_since_push += 1;
        let fire = blocked >= self.watermark
            || (self.heartbeat_every > 0 && self.polls_since_push >= self.heartbeat_every);
        if fire {
            self.polls_since_push = 0;
        }
        fire
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pinned_config() -> PushConfig {
        PushConfig {
            backoff_base: Duration::from_millis(100),
            backoff_cap: Duration::from_secs(5),
            jitter_seed: 7,
            ..PushConfig::default()
        }
    }

    #[test]
    fn backoff_schedule_is_pinned_byte_for_byte() {
        // The full retry behavior for (seed 7, instance "pay-0"), as a
        // frozen artifact: capped exponential growth with deterministic
        // jitter. If this string ever changes, the pusher's production
        // retry behavior changed — which must be a deliberate decision,
        // not a drive-by.
        let schedule = backoff_schedule(&pinned_config(), "pay-0", 8);
        assert_eq!(
            format!("{schedule:?}"),
            "[132.222ms, 338.729ms, 795.498ms, 1.130636s, 2.671973s, 4.873363s, 5s, 5s]"
        );
        // And it is a pure function: same inputs, same bytes.
        let again = backoff_schedule(&pinned_config(), "pay-0", 8);
        assert_eq!(format!("{schedule:?}"), format!("{again:?}"));
    }

    #[test]
    fn backoff_honors_retry_after_as_floor_and_cap_as_ceiling() {
        let cfg = pinned_config();
        // A hint above the computed delay becomes the delay...
        let hinted = backoff_delay(&cfg, "pay-0", 1, Some(3_000));
        assert_eq!(hinted, Duration::from_millis(3_000));
        // ...a hint below it is already covered by the backoff...
        let low_hint = backoff_delay(&cfg, "pay-0", 1, Some(1));
        assert_eq!(low_hint, backoff_delay(&cfg, "pay-0", 1, None));
        // ...and nothing pierces the cap, hint or not.
        assert_eq!(
            backoff_delay(&cfg, "pay-0", 1, Some(60_000)),
            Duration::from_secs(5)
        );
        assert_eq!(
            backoff_delay(&cfg, "pay-0", 30, None),
            Duration::from_secs(5)
        );
    }

    #[test]
    fn jitter_decorrelates_instances() {
        let cfg = pinned_config();
        let a = backoff_schedule(&cfg, "pay-0", 4);
        let b = backoff_schedule(&cfg, "pay-1", 4);
        assert_ne!(
            format!("{a:?}"),
            format!("{b:?}"),
            "two instances must not retry in lockstep"
        );
    }

    #[test]
    fn watermark_trigger_fires_on_crossing_and_heartbeat() {
        let mut t = WatermarkTrigger::new(10, 3);
        assert!(!t.should_push(2));
        assert!(t.should_push(10), "watermark crossing fires immediately");
        assert!(!t.should_push(1));
        assert!(!t.should_push(1));
        assert!(t.should_push(1), "third quiet poll is the heartbeat");
        // Heartbeat disabled: only the watermark fires.
        let mut t = WatermarkTrigger::new(5, 0);
        for _ in 0..50 {
            assert!(!t.should_push(4));
        }
        assert!(t.should_push(5));
    }
}
