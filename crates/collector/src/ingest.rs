//! Push-mode ingestion: the tier behind `POST /api/push` that lets
//! instances send their own goroutine profiles instead of waiting to be
//! scraped, and lets one daemon survive a 200K-instance stampede.
//!
//! The pipeline is built to shed load without ever corrupting the
//! ranking:
//!
//! 1. **Admission control** — the HTTP handler does O(parse) work, then
//!    either enqueues the profile on a bounded MPSC queue or, when the
//!    queue is at its high watermark, sheds with `429` + a
//!    deterministically jittered `Retry-After` hint. Every shed is
//!    counted; nothing is dropped silently.
//! 2. **Shard absorbers** — per-shard worker threads drain the queue
//!    off the hot path into per-instance *newest-wins* maps: a newer
//!    profile for an instance replaces the older pending one
//!    (drop-oldest-per-sender), a stale arrival never overwrites a
//!    newer one (never drop-newest). Overload therefore costs
//!    freshness, not correctness: once an instance's newest profile
//!    lands, the cycle ingests exactly that profile. Each absorber also
//!    runs [`leakprof::analyze_profile`] on the profiles it keeps, so
//!    the expensive per-goroutine stack walk is paid as pushes arrive,
//!    not at cycle end.
//! 3. **Cycle-end fold** — [`IngestTier::drain_sorted`] hands the
//!    coalesced, pre-analyzed profiles to the daemon, which
//!    deduplicates them against the pull tier ([`dedupe_newest_wins`]),
//!    WALs the combined set, and folds it into the fleet accumulator
//!    via [`leakprof::FleetAccumulator::merge_profile_sites`] — exactly
//!    what `ingest` does after its own analysis, so push and pull land
//!    in one ranking and a post-overload daemon converges
//!    byte-identically to a never-overloaded one over the same final
//!    profiles (pinned in `tests/push.rs`). The fold a 10K-instance
//!    cycle pays is count merges only, sub-linear in wall time because
//!    the stack walks already happened in the absorbers.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gosim::rng::SplitMix64;
use gosim::GoroutineProfile;
use obs::{EventLog, LatencyHistogram};
use serde::{Deserialize, Serialize};
use shardmap::fnv1a;

use crate::http::Response;

/// Push-ingest tuning knobs.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Absorber shards (worker threads + per-instance maps); 0 means 4.
    pub shards: usize,
    /// Ingest-queue high watermark: pushes arriving while this many
    /// profiles are queued-but-unabsorbed are shed with `429`.
    pub queue_capacity: usize,
    /// Base retry hint for shed pushes; the hint is jittered over
    /// `[base, 2*base)` so 10K shed pushers don't re-stampede in sync.
    pub retry_base_ms: u64,
    /// Upper bound on the retry hint.
    pub retry_cap_ms: u64,
    /// Seed for the deterministic shed-hint jitter.
    pub jitter_seed: u64,
    /// Largest accepted push body in bytes; larger bodies get `413`.
    pub max_body_bytes: usize,
    /// Pending-connection bound for the daemon's endpoint server when
    /// push is enabled (the accept pool then sheds with `503` +
    /// `Retry-After` instead of queueing without bound); 0 = unbounded.
    pub accept_pending: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            shards: 4,
            queue_capacity: 4096,
            retry_base_ms: 250,
            retry_cap_ms: 5_000,
            jitter_seed: 0,
            max_body_bytes: 4 * 1024 * 1024,
            accept_pending: 1024,
        }
    }
}

/// Point-in-time push-tier counters (served in `/status`, rendered at
/// `/metrics`).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IngestSummary {
    /// Pushes received (every `POST /api/push`, whatever its fate).
    pub push_total: u64,
    /// Pushes admitted onto the ingest queue.
    pub admitted_total: u64,
    /// Pushes shed with `429` at the queue high watermark.
    pub shed_total: u64,
    /// Admitted profiles that replaced an older pending profile from
    /// the same instance (drop-oldest-per-sender).
    pub coalesced_total: u64,
    /// Admitted profiles dropped on absorption because a newer profile
    /// from the same instance was already pending (never drop-newest).
    pub stale_dropped_total: u64,
    /// Pushes rejected as unparseable (`400`) or oversized (`413`).
    pub bad_request_total: u64,
    /// Connections answered `503` by the saturated accept pool.
    pub http_rejected_total: u64,
    /// Profiles handed to the analysis fold by cycle-end drains.
    pub drained_total: u64,
    /// Current ingest-queue depth (queued, not yet absorbed).
    pub queue_depth: usize,
    /// Instances with a coalesced profile pending for the next cycle.
    pub pending_instances: usize,
    /// Median observed queue depth at admission time.
    pub queue_depth_p50: u64,
    /// p99 observed queue depth at admission time.
    pub queue_depth_p99: u64,
}

/// A profile ready for the cycle-end fold. `sites` carries the
/// [`leakprof::analyze_profile`] output when an absorber already
/// computed it off the cycle path; `None` means the cycle analyzes the
/// profile itself (the pull tier's scrapes). Either way the fold lands
/// in the accumulator through the same per-profile merge, so the
/// ranking is byte-identical regardless of which tier delivered the
/// profile.
pub struct AbsorbedProfile {
    /// The profile itself (WALed and observed as-is).
    pub profile: GoroutineProfile,
    /// Pre-computed per-site analysis, when an absorber paid for it.
    pub sites: Option<leakprof::ProfileSites>,
}

impl AbsorbedProfile {
    /// Wraps a profile whose analysis the cycle will run itself.
    pub fn raw(profile: GoroutineProfile) -> AbsorbedProfile {
        AbsorbedProfile {
            profile,
            sites: None,
        }
    }
}

/// State shared between the HTTP hot path, the absorbers, and the
/// daemon's cycle loop.
struct IngestShared {
    maps: Vec<Mutex<HashMap<String, (GoroutineProfile, leakprof::ProfileSites)>>>,
    depth: AtomicUsize,
    paused: AtomicBool,
    push_total: AtomicU64,
    admitted_total: AtomicU64,
    shed_total: AtomicU64,
    coalesced_total: AtomicU64,
    stale_dropped_total: AtomicU64,
    bad_request_total: AtomicU64,
    http_rejected_total: Arc<AtomicU64>,
    drained_total: AtomicU64,
    depth_hist: Mutex<LatencyHistogram>,
}

impl IngestShared {
    /// Folds one admitted profile into its shard map, newest wins. The
    /// per-goroutine stack analysis runs here, in the absorber thread —
    /// by drain time the cycle only has count maps left to merge.
    fn absorb(&self, shard: usize, profile: GoroutineProfile) {
        let sites = leakprof::analyze_profile(&profile);
        {
            let mut map = self.maps[shard].lock().expect("shard map poisoned");
            match map.entry(profile.instance.clone()) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    // Ties go to the later arrival: queue order within a
                    // shard preserves per-instance send order.
                    if profile.captured_at >= e.get().0.captured_at {
                        e.insert((profile, sites));
                        self.coalesced_total.fetch_add(1, Ordering::Relaxed);
                    } else {
                        self.stale_dropped_total.fetch_add(1, Ordering::Relaxed);
                    }
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert((profile, sites));
                }
            }
        }
        self.depth.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The push-mode ingestion tier. Create with [`IngestTier::start`],
/// share via `Arc` between the endpoint server (hot path:
/// [`IngestTier::handle_push`]) and the daemon (cycle end:
/// [`IngestTier::drain_sorted`]). Dropping the tier stops the absorber
/// threads.
pub struct IngestTier {
    config: IngestConfig,
    shared: Arc<IngestShared>,
    senders: Vec<Sender<GoroutineProfile>>,
    absorbers: Vec<std::thread::JoinHandle<()>>,
    events: EventLog,
}

impl IngestTier {
    /// Starts the absorber shards and returns the tier.
    pub fn start(config: IngestConfig) -> IngestTier {
        let shards = if config.shards == 0 { 4 } else { config.shards };
        let shared = Arc::new(IngestShared {
            maps: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            depth: AtomicUsize::new(0),
            paused: AtomicBool::new(false),
            push_total: AtomicU64::new(0),
            admitted_total: AtomicU64::new(0),
            shed_total: AtomicU64::new(0),
            coalesced_total: AtomicU64::new(0),
            stale_dropped_total: AtomicU64::new(0),
            bad_request_total: AtomicU64::new(0),
            http_rejected_total: Arc::new(AtomicU64::new(0)),
            drained_total: AtomicU64::new(0),
            depth_hist: Mutex::new(LatencyHistogram::new()),
        });
        let mut senders = Vec::with_capacity(shards);
        let mut absorbers = Vec::with_capacity(shards);
        for shard in 0..shards {
            let (tx, rx) = std::sync::mpsc::channel::<GoroutineProfile>();
            senders.push(tx);
            let shared = Arc::clone(&shared);
            absorbers.push(std::thread::spawn(move || absorber_loop(shard, rx, shared)));
        }
        IngestTier {
            config,
            shared,
            senders,
            absorbers,
            events: EventLog::default(),
        }
    }

    /// Installs the structured event log bad-request rejections are
    /// reported to. Call before sharing the tier; sheds are *not*
    /// logged per-occurrence (they are the hot path, and counted in
    /// `shed_total`), only malformed bodies are.
    pub fn set_events(&mut self, events: EventLog) {
        self.events = events;
    }

    /// The tier's configuration (the daemon reads the accept-pool and
    /// fold settings from here).
    pub fn config(&self) -> &IngestConfig {
        &self.config
    }

    /// The `503` counter the endpoint server's accept loop bumps; wired
    /// into [`crate::http::ServerOptions::overload_rejected`].
    pub fn http_rejected_counter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.shared.http_rejected_total)
    }

    /// Handles one `POST /api/push` body: parse, admit-or-shed, route
    /// to the owning shard. This is the HTTP hot path — no daemon
    /// mutex, no analysis work, one bounded queue send.
    pub fn handle_push(&self, body: &[u8]) -> Response {
        self.shared.push_total.fetch_add(1, Ordering::Relaxed);
        if body.len() > self.config.max_body_bytes {
            self.shared
                .bad_request_total
                .fetch_add(1, Ordering::Relaxed);
            self.events.warn(
                "ingest",
                format!(
                    "rejected push: body {} bytes exceeds cap {}",
                    body.len(),
                    self.config.max_body_bytes
                ),
            );
            return Response::error(413, "profile body too large");
        }
        let text = match std::str::from_utf8(body) {
            Ok(t) => t,
            Err(_) => {
                self.shared
                    .bad_request_total
                    .fetch_add(1, Ordering::Relaxed);
                self.events
                    .warn("ingest", "rejected push: body is not UTF-8");
                return Response::error(400, "profile body is not UTF-8");
            }
        };
        let profile: GoroutineProfile = match serde_json::from_str(text) {
            Ok(p) => p,
            Err(e) => {
                self.shared
                    .bad_request_total
                    .fetch_add(1, Ordering::Relaxed);
                self.events
                    .warn("ingest", format!("rejected push: unparseable profile: {e}"));
                return Response::error(400, &format!("unparseable profile: {e}"));
            }
        };
        if profile.instance.is_empty() {
            self.shared
                .bad_request_total
                .fetch_add(1, Ordering::Relaxed);
            self.events
                .warn("ingest", "rejected push: profile missing instance id");
            return Response::error(400, "profile missing instance id");
        }
        // Admission: the queue depth is the watermark. Replacement
        // happens downstream in the shard maps, so the queue only grows
        // when pushes outrun the absorbers — the definition of
        // overload.
        let depth = self.shared.depth.load(Ordering::Relaxed);
        if depth >= self.config.queue_capacity {
            let shed = self.shared.shed_total.fetch_add(1, Ordering::Relaxed);
            let hint = self.retry_hint(&profile.instance, shed);
            return Response::retry_after(429, hint, "ingest queue at high watermark");
        }
        self.shared.depth.fetch_add(1, Ordering::Relaxed);
        self.shared
            .depth_hist
            .lock()
            .expect("depth hist poisoned")
            .record_us(depth as u64);
        let shard = shard_of(&profile.instance, self.senders.len());
        if self.senders[shard].send(profile).is_err() {
            // Absorbers only exit when the tier is dropping.
            self.shared.depth.fetch_sub(1, Ordering::Relaxed);
            return Response::error(503, "ingest tier shutting down");
        }
        self.shared.admitted_total.fetch_add(1, Ordering::Relaxed);
        Response::json(format!("{{\"status\":\"ok\",\"queued\":{}}}", depth + 1))
    }

    /// The deterministic shed hint: jittered over `[base, 2*base)` by a
    /// [`SplitMix64`] stream keyed on (seed, instance, shed ordinal),
    /// capped at `retry_cap_ms`. Same seed + same shed sequence = same
    /// hints, byte for byte — which is what makes the overload chaos
    /// tests replayable.
    fn retry_hint(&self, instance: &str, shed_ordinal: u64) -> u64 {
        let base = self.config.retry_base_ms.max(1);
        let mut rng = SplitMix64::new(
            self.config.jitter_seed
                ^ fnv1a(instance.as_bytes())
                ^ shed_ordinal.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        (base + rng.next_below(base)).min(self.config.retry_cap_ms.max(base))
    }

    /// Current ingest-queue depth (admitted, not yet absorbed).
    pub fn queue_depth(&self) -> usize {
        self.shared.depth.load(Ordering::Relaxed)
    }

    /// Instances with a coalesced profile pending for the next cycle.
    pub fn pending_instances(&self) -> usize {
        self.shared
            .maps
            .iter()
            .map(|m| m.lock().expect("shard map poisoned").len())
            .sum()
    }

    /// Takes every pending coalesced profile with its pre-computed
    /// analysis, sorted by instance — called by the daemon at cycle
    /// end. Pushes still in the queue (or arriving during the drain)
    /// land in the next cycle.
    pub fn drain_sorted(&self) -> Vec<AbsorbedProfile> {
        let mut out: Vec<AbsorbedProfile> = Vec::new();
        for map in &self.shared.maps {
            let taken = std::mem::take(&mut *map.lock().expect("shard map poisoned"));
            out.extend(taken.into_values().map(|(profile, sites)| AbsorbedProfile {
                profile,
                sites: Some(sites),
            }));
        }
        out.sort_by(|a, b| a.profile.instance.cmp(&b.profile.instance));
        self.shared
            .drained_total
            .fetch_add(out.len() as u64, Ordering::Relaxed);
        out
    }

    /// Blocks until the queue is fully absorbed (or `timeout` passes).
    /// Tests and benches use this to make cycle contents deterministic;
    /// the daemon itself never waits.
    pub fn quiesce(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while self.queue_depth() > 0 {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    /// Pauses (or resumes) the absorbers. With absorbers paused the
    /// queue fills and admission control sheds — the deterministic
    /// overload switch the chaos tests flip.
    pub fn pause_absorbers(&self, paused: bool) {
        self.shared.paused.store(paused, Ordering::Relaxed);
    }

    /// Point-in-time counters.
    pub fn summary(&self) -> IngestSummary {
        let (p50, p99) = {
            let h = self.shared.depth_hist.lock().expect("depth hist poisoned");
            (h.p50_us(), h.p99_us())
        };
        IngestSummary {
            push_total: self.shared.push_total.load(Ordering::Relaxed),
            admitted_total: self.shared.admitted_total.load(Ordering::Relaxed),
            shed_total: self.shared.shed_total.load(Ordering::Relaxed),
            coalesced_total: self.shared.coalesced_total.load(Ordering::Relaxed),
            stale_dropped_total: self.shared.stale_dropped_total.load(Ordering::Relaxed),
            bad_request_total: self.shared.bad_request_total.load(Ordering::Relaxed),
            http_rejected_total: self.shared.http_rejected_total.load(Ordering::Relaxed),
            drained_total: self.shared.drained_total.load(Ordering::Relaxed),
            queue_depth: self.queue_depth(),
            pending_instances: self.pending_instances(),
            queue_depth_p50: p50,
            queue_depth_p99: p99,
        }
    }
}

impl Drop for IngestTier {
    fn drop(&mut self) {
        self.senders.clear(); // disconnects every shard channel
        self.shared.paused.store(false, Ordering::Relaxed);
        for t in self.absorbers.drain(..) {
            let _ = t.join();
        }
    }
}

/// One shard's absorber: drains its queue into the shard map. While
/// paused it leaves the queue untouched so depth (and shedding) build
/// up deterministically.
fn absorber_loop(shard: usize, rx: Receiver<GoroutineProfile>, shared: Arc<IngestShared>) {
    loop {
        if shared.paused.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }
        match rx.recv_timeout(Duration::from_millis(5)) {
            Ok(profile) => {
                // A pause can land while this thread sits in `recv`.
                // Hold the in-flight item until unpaused — depth only
                // decrements inside `absorb`, so a paused tier's
                // watermark stays exact.
                while shared.paused.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                shared.absorb(shard, profile);
            }
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
}

/// Stable shard routing so one instance's pushes stay ordered within a
/// single shard queue.
fn shard_of(instance: &str, shards: usize) -> usize {
    (fnv1a(instance.as_bytes()) % shards as u64) as usize
}

/// Merges the pull tier's scraped profiles with the push tier's drained
/// profiles into one per-instance-deduplicated, instance-sorted set:
/// the newest `captured_at` wins, pushes winning ties (they observed
/// the instance later in the cycle). This is the only place the two
/// tiers meet, so "same instance reachable via both tiers contributes
/// exactly once per cycle" holds by construction. Push winners keep
/// their absorber-computed analysis; pull winners carry `None` and are
/// analyzed by the cycle fold.
pub fn dedupe_newest_wins(
    pulled: Vec<GoroutineProfile>,
    pushed: Vec<AbsorbedProfile>,
) -> Vec<AbsorbedProfile> {
    if pushed.is_empty() {
        return pulled.into_iter().map(AbsorbedProfile::raw).collect();
    }
    if pulled.is_empty() {
        // A drain is already one profile per instance (the shard of an
        // instance is a pure function of its name, so no instance
        // spans two shard maps) and `drain_sorted` ordered it — the
        // re-keying below would rebuild the same set.
        return pushed;
    }
    let mut by_instance: HashMap<String, AbsorbedProfile> = HashMap::new();
    for p in pulled {
        by_instance.insert(p.instance.clone(), AbsorbedProfile::raw(p));
    }
    for a in pushed {
        match by_instance.entry(a.profile.instance.clone()) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                if a.profile.captured_at >= e.get().profile.captured_at {
                    e.insert(a);
                }
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(a);
            }
        }
    }
    let mut out: Vec<AbsorbedProfile> = by_instance.into_values().collect();
    out.sort_by(|a, b| a.profile.instance.cmp(&b.profile.instance));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(instance: &str, captured_at: u64) -> GoroutineProfile {
        GoroutineProfile {
            instance: instance.into(),
            captured_at,
            goroutines: vec![],
        }
    }

    fn push(tier: &IngestTier, p: &GoroutineProfile) -> Response {
        tier.handle_push(serde_json::to_string(p).unwrap().as_bytes())
    }

    #[test]
    fn admits_coalesces_and_drains_newest_per_instance() {
        let tier = IngestTier::start(IngestConfig {
            shards: 2,
            queue_capacity: 64,
            ..IngestConfig::default()
        });
        // Out-of-order pushes for one instance plus one other instance.
        for (inst, at) in [("pay-0", 1), ("pay-0", 3), ("pay-0", 2), ("auth-1", 5)] {
            let resp = push(&tier, &profile(inst, at));
            assert_eq!(
                resp.status,
                200,
                "{:?}",
                String::from_utf8_lossy(&resp.body)
            );
        }
        assert!(tier.quiesce(Duration::from_secs(2)), "absorbers must drain");
        let drained = tier.drain_sorted();
        assert!(
            drained.iter().all(|a| a.sites.is_some()),
            "absorbers must pre-analyze everything they keep"
        );
        let got: Vec<(String, u64)> = drained
            .iter()
            .map(|a| (a.profile.instance.clone(), a.profile.captured_at))
            .collect();
        assert_eq!(
            got,
            vec![("auth-1".to_string(), 5), ("pay-0".to_string(), 3)],
            "one contribution per instance, newest captured_at wins"
        );
        let s = tier.summary();
        assert_eq!(s.push_total, 4);
        assert_eq!(s.admitted_total, 4);
        assert_eq!(s.shed_total, 0);
        assert_eq!(s.coalesced_total, 1, "3 replaced 1");
        assert_eq!(s.stale_dropped_total, 1, "2 arrived after 3, dropped");
        assert_eq!(s.drained_total, 2);
        // A second drain starts empty.
        assert!(tier.drain_sorted().is_empty());
    }

    #[test]
    fn watermark_sheds_with_deterministic_jittered_hints() {
        let tier = IngestTier::start(IngestConfig {
            shards: 1,
            queue_capacity: 2,
            retry_base_ms: 100,
            retry_cap_ms: 1_000,
            jitter_seed: 42,
            ..IngestConfig::default()
        });
        tier.pause_absorbers(true);
        // Two fit, the rest shed.
        let mut sheds = Vec::new();
        for i in 0..6 {
            let resp = push(&tier, &profile(&format!("svc-{i}"), 1));
            if resp.status == 429 {
                let ms: u64 = resp
                    .headers
                    .iter()
                    .find(|(k, _)| k == "retry-after-ms")
                    .expect("shed must carry retry-after-ms")
                    .1
                    .parse()
                    .unwrap();
                assert!((100..200).contains(&ms), "hint {ms} outside [base, 2*base)");
                sheds.push(ms);
            }
        }
        assert_eq!(sheds.len(), 4);
        assert_eq!(tier.summary().shed_total, 4);
        assert_eq!(tier.queue_depth(), 2);
        // Determinism: an identically-seeded tier sheds with identical
        // hints for the same push sequence.
        let twin = IngestTier::start(IngestConfig {
            shards: 1,
            queue_capacity: 2,
            retry_base_ms: 100,
            retry_cap_ms: 1_000,
            jitter_seed: 42,
            ..IngestConfig::default()
        });
        twin.pause_absorbers(true);
        let mut twin_sheds = Vec::new();
        for i in 0..6 {
            let resp = push(&twin, &profile(&format!("svc-{i}"), 1));
            if resp.status == 429 {
                let ms: u64 = resp
                    .headers
                    .iter()
                    .find(|(k, _)| k == "retry-after-ms")
                    .unwrap()
                    .1
                    .parse()
                    .unwrap();
                twin_sheds.push(ms);
            }
        }
        assert_eq!(sheds, twin_sheds);
        // Unpause: the queued two absorb and the next push is admitted.
        tier.pause_absorbers(false);
        assert!(tier.quiesce(Duration::from_secs(2)));
        let resp = push(&tier, &profile("late-1", 9));
        assert_eq!(resp.status, 200);
    }

    #[test]
    fn rejects_garbage_and_oversized_bodies() {
        let tier = IngestTier::start(IngestConfig {
            max_body_bytes: 64,
            ..IngestConfig::default()
        });
        assert_eq!(tier.handle_push(b"not json").status, 400);
        assert_eq!(tier.handle_push(&[b'x'; 65]).status, 413);
        let no_instance = serde_json::to_string(&profile("", 1)).unwrap();
        assert_eq!(tier.handle_push(no_instance.as_bytes()).status, 400);
        let s = tier.summary();
        assert_eq!(s.bad_request_total, 3);
        assert_eq!(s.admitted_total, 0);
    }

    #[test]
    fn dedupe_prefers_newest_and_breaks_ties_toward_push() {
        let absorbed = |p: GoroutineProfile| AbsorbedProfile {
            sites: Some(leakprof::analyze_profile(&p)),
            profile: p,
        };
        let pulled = vec![profile("a", 10), profile("b", 10), profile("c", 10)];
        let pushed = vec![
            absorbed(profile("a", 9)),  // older: pull wins
            absorbed(profile("b", 11)), // newer: push wins
            absorbed(profile("c", 10)), // tie: push wins
            absorbed(profile("d", 1)),  // push-only instance
        ];
        let merged = dedupe_newest_wins(pulled.clone(), pushed);
        let got: Vec<(String, u64, bool)> = merged
            .iter()
            .map(|a| {
                (
                    a.profile.instance.clone(),
                    a.profile.captured_at,
                    a.sites.is_some(),
                )
            })
            .collect();
        assert_eq!(
            got,
            vec![
                // Pull winners carry no pre-analysis; push winners do.
                ("a".to_string(), 10, false),
                ("b".to_string(), 11, true),
                ("c".to_string(), 10, true),
                ("d".to_string(), 1, true),
            ]
        );
        // Pull-only cycles pass through in order (exact legacy path).
        let untouched = dedupe_newest_wins(pulled.clone(), vec![]);
        assert_eq!(untouched.len(), 3);
        assert_eq!(untouched[0].profile.instance, "a");
        assert!(untouched.iter().all(|a| a.sites.is_none()));
    }
}
