//! Live fleet aggregator (`leakprofd fleet`): polls N shard daemons'
//! `/api/snapshot` endpoints over keep-alive connections, folds them
//! into one fleet-wide accumulator + ledger, and serves merged
//! `/status`, `/health`, `/metrics`, and `/api/snapshot`.
//!
//! Shard outages are absorbed the same way scrape-target outages are:
//! each peer sits behind a circuit breaker ([`crate::breaker`]). A dark
//! shard's **last good snapshot keeps contributing** to the merged view
//! (marked stale in `/status`), and when a shard map is loaded the
//! aggregator emits a rebalanced map version reassigning the dead
//! seat's instances to the survivors — failover is a map rollout, not
//! an operator scramble.

use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use leakprof::{FleetAccumulator, LeakProf, Report};
use serde::{Deserialize, Serialize};
use shardmap::{ShardIdentity, ShardMap};
use timeseries::{StoreConfig, TrendConfig, TsStore};

use obs::{EventConfig, EventLog, TraceConfig, TraceSnapshot, Tracer};

use crate::adaptive::{AdaptiveConfig, AdaptiveController};
use crate::breaker::{BreakerConfig, BreakerSet, BreakerState, Decision};
use crate::daemon::{site_points, top_sites, TopSite};
use crate::health::{classify_sites, FleetHealth};
use crate::http::{http_get, HttpConnection, HttpServer, Request, Response};
use crate::ledger::{LedgerConfig, LedgerSummary, ReportLedger};
use crate::merge::{fold_order, fold_snapshot};
use crate::shard::{ApiSnapshot, API_SNAPSHOT_VERSION};
use crate::stats::PromText;

/// Fleet aggregator configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The shard daemons' endpoint addresses.
    pub peers: Vec<SocketAddr>,
    /// Per-peer circuit-breaker tuning (poll counts as a cycle).
    pub breaker: BreakerConfig,
    /// The fleet's shard map, enabling failover rebalancing. `None`
    /// still merges; it just cannot reassign a dead shard's slice.
    pub map: Option<ShardMap>,
    /// Telemetry store layout for merged site trend series.
    pub ts: StoreConfig,
    /// Trend tuning for merged `/health` verdicts.
    pub trend: TrendConfig,
    /// Ledger tuning for the merged fleet ledger.
    pub ledger: LedgerConfig,
    /// Poll tracing (FLEET/MERGE stages).
    pub trace: TraceConfig,
    /// Structured event log tuning (`/logs`).
    pub events: EventConfig,
    /// Peer connect timeout.
    pub connect_timeout: Duration,
    /// Peer read timeout.
    pub read_timeout: Duration,
}

impl FleetConfig {
    /// A config polling `peers` with default tuning.
    pub fn new(peers: Vec<SocketAddr>) -> FleetConfig {
        FleetConfig {
            peers,
            breaker: BreakerConfig::default(),
            map: None,
            ts: StoreConfig::default(),
            trend: TrendConfig::default(),
            ledger: LedgerConfig::default(),
            trace: TraceConfig::default(),
            events: EventConfig::default(),
            connect_timeout: Duration::from_millis(500),
            read_timeout: Duration::from_millis(1000),
        }
    }
}

/// One polled shard daemon.
struct Peer {
    addr: SocketAddr,
    conn: Option<HttpConnection>,
    last: Option<ApiSnapshot>,
    consecutive_failures: u32,
    polls_ok: u64,
}

/// One peer's row in [`FleetStatus`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PeerStatus {
    /// The peer's endpoint address.
    pub addr: String,
    /// The peer's shard identity, once a snapshot has been seen.
    pub shard: Option<ShardIdentity>,
    /// The peer's completed cycle at its last good snapshot.
    pub cycle: u64,
    /// Targets the peer scrapes (its slice size).
    pub targets: usize,
    /// Profiles the peer has ingested.
    pub profiles_ingested: usize,
    /// The peer's circuit-breaker state (`closed`/`open`/`half-open`).
    pub breaker: String,
    /// Consecutive failed polls.
    pub consecutive_failures: u32,
    /// Whether this slice of the merged view is stale (breaker not
    /// closed, or no snapshot ever fetched).
    pub stale: bool,
}

/// The fleet aggregator's `/status` document: per-shard rows above the
/// merged fleet view.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetStatus {
    /// Completed poll rounds.
    pub polls: u64,
    /// Per-shard rows, in poll order.
    pub shards: Vec<PeerStatus>,
    /// How many slices are currently stale.
    pub stale_shards: usize,
    /// The current shard-map version (`None` without a map).
    pub map_version: Option<u64>,
    /// Rebalanced map versions emitted over this aggregator's lifetime.
    pub rebalances: u64,
    /// Profiles ingested across the merged fleet.
    pub profiles_ingested: usize,
    /// Goroutines seen across the merged fleet.
    pub goroutines_seen: u64,
    /// The merged ranked top sites.
    pub top: Vec<TopSite>,
    /// The merged (deduplicated) fleet ledger counts.
    pub ledger: LedgerSummary,
}

/// The live merge tier: poll, fold, serve.
pub struct FleetAggregator {
    lp: LeakProf,
    peers: Vec<Peer>,
    breakers: BreakerSet,
    map: Option<ShardMap>,
    rebalances: u64,
    polls: u64,
    acc: FleetAccumulator,
    ledger: ReportLedger,
    ledger_config: LedgerConfig,
    ts: TsStore,
    trend: TrendConfig,
    last_report: Option<Report>,
    last_health: Option<FleetHealth>,
    controller: AdaptiveController,
    tracer: Tracer,
    events: EventLog,
    connect_timeout: Duration,
    read_timeout: Duration,
}

impl FleetAggregator {
    /// Creates an aggregator polling `config.peers` and ranking with
    /// `lp` (the same analysis config the shard daemons use).
    pub fn new(config: FleetConfig, lp: LeakProf) -> FleetAggregator {
        let tracer = Tracer::new(&config.trace);
        tracer.set_service("fleet", env!("CARGO_PKG_VERSION"));
        FleetAggregator {
            lp,
            peers: config
                .peers
                .into_iter()
                .map(|addr| Peer {
                    addr,
                    conn: None,
                    last: None,
                    consecutive_failures: 0,
                    polls_ok: 0,
                })
                .collect(),
            breakers: BreakerSet::new(config.breaker),
            map: config.map,
            rebalances: 0,
            polls: 0,
            acc: FleetAccumulator::new(),
            ledger: ReportLedger::new(config.ledger.clone()),
            ledger_config: config.ledger,
            ts: TsStore::in_memory(config.ts),
            trend: config.trend,
            last_report: None,
            last_health: None,
            controller: AdaptiveController::new(AdaptiveConfig::default()),
            tracer,
            events: EventLog::new(config.events),
            connect_timeout: config.connect_timeout,
            read_timeout: config.read_timeout,
        }
    }

    /// The aggregator's tracer (for `/trace` and exemplars).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The aggregator's structured event log (`/logs`).
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// Runs one poll round: fetch every reachable peer's
    /// `/api/snapshot` (keep-alive, circuit-broken), refresh the shard
    /// map's alive set from the breakers, and fold the freshest
    /// snapshot of **every** peer — live or stale — into the merged
    /// accumulator, ledger, and trend series. Returns the number of
    /// peers that answered this round.
    pub fn poll_once(&mut self) -> usize {
        self.polls += 1;
        // The fleet tier is the authoritative trace root: every poll
        // mints a fresh context, and the traceparent each peer receives
        // parents that shard's next cycle under this poll.
        let ctx = self.tracer.begin_cycle();
        let mut root = self.tracer.start(obs::stage::FLEET, "");
        root.attr("poll", self.polls);
        self.events.set_context(ctx.map(|c| c.trace_id), root.id());
        self.tracer.set_ambient(root.id());
        let tracer = self.tracer.clone();
        let mut answered = 0;
        for i in 0..self.peers.len() {
            let addr = self.peers[i].addr;
            let key = addr.to_string();
            match self.breakers.decide(&key) {
                Decision::Skip => continue,
                Decision::Scrape | Decision::Probe => {}
            }
            let mut span = tracer.start_with(obs::stage::TARGET, &key, root.id());
            let traceparent = tracer.hop(&mut span).map(|c| c.to_header());
            let ok = match Self::fetch(
                &mut self.peers[i],
                self.connect_timeout,
                self.read_timeout,
                traceparent.as_deref(),
            ) {
                Ok(snap) => {
                    self.peers[i].last = Some(snap);
                    self.peers[i].consecutive_failures = 0;
                    self.peers[i].polls_ok += 1;
                    answered += 1;
                    true
                }
                Err(e) => {
                    self.events
                        .warn("fleet", format!("poll of shard {key} failed: {e}"));
                    self.peers[i].conn = None;
                    self.peers[i].consecutive_failures += 1;
                    false
                }
            };
            span.attr("ok", ok);
            span.finish();
            self.breakers.record(&key, ok);
        }
        self.refresh_map();
        self.fold();
        root.attr("answered", answered);
        self.tracer.set_ambient(0);
        drop(root);
        // A round where any peer went unanswered is worth full detail.
        self.tracer
            .finish_cycle_flagged(self.polls, answered < self.peers.len());
        self.events.set_context(None, 0);
        answered
    }

    /// Fetches one peer's `/api/snapshot`, reusing its keep-alive
    /// connection when possible.
    fn fetch(
        peer: &mut Peer,
        connect_timeout: Duration,
        read_timeout: Duration,
        traceparent: Option<&str>,
    ) -> std::io::Result<ApiSnapshot> {
        let io_err = |m: String| std::io::Error::other(m);
        if peer.conn.is_none() {
            peer.conn = Some(
                HttpConnection::connect(peer.addr, connect_timeout, read_timeout)
                    .map_err(|e| io_err(e.to_string()))?,
            );
        }
        let conn = peer.conn.as_mut().expect("connection just ensured");
        let body = conn
            .get_with("/api/snapshot", traceparent)
            .map_err(|e| io_err(e.to_string()))?;
        let text = std::str::from_utf8(&body)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        let snap: ApiSnapshot = serde_json::from_str(text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        if snap.version != API_SNAPSHOT_VERSION {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("unsupported api snapshot version {}", snap.version),
            ));
        }
        Ok(snap)
    }

    /// Whether a peer's slice of the merged view is stale: its breaker
    /// is not closed, or it has never delivered a snapshot.
    fn peer_stale(&self, peer: &Peer) -> bool {
        peer.last.is_none() || self.breakers.state(&peer.addr.to_string()) != BreakerState::Closed
    }

    /// Reconciles the shard map's alive set with the breakers: a peer
    /// whose shard went dark gets its seat marked dead (instances
    /// reassigned to survivors by rendezvous weights), a recovered one
    /// gets its seat back. Each change emits a new map version.
    fn refresh_map(&mut self) {
        let Some(map) = &self.map else {
            return;
        };
        let mut dark: BTreeSet<u32> = BTreeSet::new();
        let mut lit: BTreeSet<u32> = BTreeSet::new();
        for peer in &self.peers {
            let Some(shard) = peer.last.as_ref().and_then(|s| s.shard.as_ref()) else {
                continue;
            };
            if self.peer_stale(peer) {
                dark.insert(shard.shard);
            } else {
                lit.insert(shard.shard);
            }
        }
        let to_kill: Vec<u32> = dark.iter().copied().filter(|s| map.is_alive(*s)).collect();
        let to_revive: Vec<u32> = lit.iter().copied().filter(|s| !map.is_alive(*s)).collect();
        if to_kill.is_empty() && to_revive.is_empty() {
            return;
        }
        let mut next = map.clone();
        if !to_revive.is_empty() {
            next = next.revived(&to_revive);
        }
        if !to_kill.is_empty() {
            next = next.rebalanced(&to_kill);
        }
        self.rebalances += 1;
        self.map = Some(next);
    }

    /// Folds the freshest snapshot of every peer into the merged state,
    /// in [`fold_order`] with ties by address.
    fn fold(&mut self) {
        let mut span = self.tracer.start(obs::stage::MERGE, "");
        let mut order: Vec<(&Peer, &ApiSnapshot)> = self
            .peers
            .iter()
            .filter_map(|p| Some((p, p.last.as_ref()?)))
            .collect();
        order.sort_by_key(|(peer, snap)| fold_order(snap.shard.as_ref(), peer.addr.to_string()));
        span.attr("shards", order.len());
        let mut acc = FleetAccumulator::new();
        let mut ledger = ReportLedger::new(self.ledger_config.clone());
        for (peer, snap) in order {
            if let Err(e) = fold_snapshot(&mut acc, &mut ledger, snap) {
                self.events
                    .error("fleet", format!("bad snapshot from {}: {e}", peer.addr));
            }
        }
        let report = self.lp.report_from_accumulator(&acc);
        let points = site_points(&report, &acc);
        let borrowed: Vec<(&str, f64)> = points.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        if let Err(e) = self.ts.append(self.polls, &borrowed) {
            self.events
                .error("fleet", format!("telemetry append failed: {e}"));
        }
        let fps: Vec<String> = report
            .suspects
            .iter()
            .map(|s| leakprof::series::site_fingerprint(&s.stats))
            .collect();
        span.attr("suspects", report.suspects.len());
        self.last_health = Some(FleetHealth {
            cycle: self.polls,
            sites: classify_sites(&self.ts, &self.trend, &fps),
            adaptive: self.controller.status(),
        });
        self.acc = acc;
        self.ledger = ledger;
        self.last_report = Some(report);
    }

    /// Re-points peer `index` at a new address (a shard daemon
    /// restarted elsewhere). Drops the stale connection and failure
    /// streak; the breaker's history for the old address is left to
    /// age out and a fresh breaker entry tracks the new address.
    pub fn set_peer_addr(&mut self, index: usize, addr: SocketAddr) {
        let peer = &mut self.peers[index];
        peer.addr = addr;
        peer.conn = None;
        peer.consecutive_failures = 0;
    }

    /// The merged ranked report from the latest poll.
    pub fn last_report(&self) -> Option<&Report> {
        self.last_report.as_ref()
    }

    /// The merged fleet health verdicts from the latest poll.
    pub fn fleet_health(&self) -> Option<&FleetHealth> {
        self.last_health.as_ref()
    }

    /// The merged accumulator from the latest poll.
    pub fn accumulator(&self) -> &FleetAccumulator {
        &self.acc
    }

    /// The aggregator's telemetry store: merged site trend series,
    /// appended once per poll (the fleet's time axis).
    pub fn ts(&self) -> &TsStore {
        &self.ts
    }

    /// The current shard map (rebalanced as peers die and recover).
    pub fn map(&self) -> Option<&ShardMap> {
        self.map.as_ref()
    }

    /// Builds the `/status` document: one row per shard, then the
    /// merged view.
    pub fn status(&self) -> FleetStatus {
        let shards: Vec<PeerStatus> = self
            .peers
            .iter()
            .map(|p| PeerStatus {
                addr: p.addr.to_string(),
                shard: p.last.as_ref().and_then(|s| s.shard.clone()),
                cycle: p.last.as_ref().map_or(0, |s| s.cycle),
                targets: p.last.as_ref().map_or(0, |s| s.targets),
                profiles_ingested: p.last.as_ref().map_or(0, |s| s.acc.instances.len()),
                breaker: self.breakers.state(&p.addr.to_string()).to_string(),
                consecutive_failures: p.consecutive_failures,
                stale: self.peer_stale(p),
            })
            .collect();
        let stale_shards = shards.iter().filter(|s| s.stale).count();
        FleetStatus {
            polls: self.polls,
            stale_shards,
            map_version: self.map.as_ref().map(|m| m.version),
            rebalances: self.rebalances,
            profiles_ingested: self.acc.profiles_ingested(),
            goroutines_seen: self.acc.goroutines_seen(),
            top: self.last_report.as_ref().map(top_sites).unwrap_or_default(),
            ledger: self.ledger.summary(),
            shards,
        }
    }

    /// The merged fleet as one `/api/snapshot` document (`shard: None`
    /// — the fleet view is the whole), so `leakprofd status`/`top` can
    /// point at a fleet aggregator exactly like at a daemon.
    pub fn api_snapshot(&self) -> ApiSnapshot {
        let lasts = || self.peers.iter().filter_map(|p| p.last.as_ref());
        ApiSnapshot {
            version: API_SNAPSHOT_VERSION,
            cycle: lasts().map(|s| s.cycle).max().unwrap_or(0),
            shard: None,
            targets: lasts().map(|s| s.targets).sum(),
            acc: self.acc.snapshot(),
            ledger: self.ledger.entries().cloned().collect(),
        }
    }

    /// Fetches every peer's `/trace` snapshot and stitches it together
    /// with the aggregator's own spans into one Chrome/Perfetto export:
    /// the fleet's `/trace` answers with the whole distributed timeline,
    /// one process lane per shard plus the fleet lane, flow arrows on
    /// every hop. Peers that fail to answer (or answer with something
    /// unparseable) are skipped with a warning event — a dark shard
    /// costs its lane, never the export.
    pub fn stitched_trace(&self) -> String {
        let mut snaps = vec![self.tracer.snapshot()];
        for peer in &self.peers {
            match http_get(peer.addr, "/trace", self.connect_timeout, self.read_timeout) {
                Ok(body) => {
                    match std::str::from_utf8(&body)
                        .map_err(|e| e.to_string())
                        .and_then(|s| {
                            serde_json::from_str::<TraceSnapshot>(s).map_err(|e| e.to_string())
                        }) {
                        Ok(snap) => snaps.push(snap),
                        Err(e) => self.events.warn(
                            "fleet",
                            format!("bad trace snapshot from {}: {e}", peer.addr),
                        ),
                    }
                }
                Err(e) => self.events.warn(
                    "fleet",
                    format!("trace fetch from {} failed: {e}", peer.addr),
                ),
            }
        }
        obs::to_chrome_stitched(&snaps)
    }

    /// Prometheus exposition for the aggregator's own `/metrics`.
    pub fn metrics_text(&self) -> String {
        let status = self.status();
        let mut p = PromText::new();
        p.family(
            "leakprofd_fleet_polls_total",
            "counter",
            "Completed fleet poll rounds.",
        );
        p.sample("leakprofd_fleet_polls_total", &[], status.polls);
        p.family(
            "leakprofd_fleet_shards",
            "gauge",
            "Polled shard daemons by slice freshness.",
        );
        p.sample(
            "leakprofd_fleet_shards",
            &[("state", "fresh")],
            status.shards.len() - status.stale_shards,
        );
        p.sample(
            "leakprofd_fleet_shards",
            &[("state", "stale")],
            status.stale_shards,
        );
        p.family(
            "leakprofd_fleet_rebalances_total",
            "counter",
            "Rebalanced shard-map versions emitted on failover.",
        );
        p.sample("leakprofd_fleet_rebalances_total", &[], status.rebalances);
        if let Some(v) = status.map_version {
            p.family(
                "leakprofd_fleet_map_version",
                "gauge",
                "Current shard-map version.",
            );
            p.sample("leakprofd_fleet_map_version", &[], v);
        }
        p.family(
            "leakprofd_fleet_profiles_ingested",
            "gauge",
            "Profiles ingested across the merged fleet.",
        );
        p.sample(
            "leakprofd_fleet_profiles_ingested",
            &[],
            status.profiles_ingested,
        );
        p.suspect_rms(self.last_report.as_ref());
        p.process_info("fleet", None, &self.tracer, &self.events);
        p.finish()
    }
}

/// Every route [`serve_fleet_endpoints`] answers (also its 404 body).
pub fn fleet_routes() -> Vec<String> {
    vec![
        "/metrics".into(),
        "/status".into(),
        "/health".into(),
        "/flame?from=&to=".into(),
        "/flame.txt?from=&to=".into(),
        "/trace".into(),
        "/trace/self".into(),
        "/logs?level=&limit=".into(),
        "/api/snapshot".into(),
        "/api/shardmap".into(),
    ]
}

/// Serves a shared fleet aggregator's endpoints on `addr`; a driver
/// loop keeps calling [`FleetAggregator::poll_once`] through the mutex.
///
/// * `/status` — [`FleetStatus`]: per-shard freshness rows above the
///   merged view.
/// * `/health` — merged per-site trend verdicts.
/// * `/metrics` — aggregator Prometheus exposition.
/// * `/trace` — the stitched fleet-wide Chrome export: the aggregator's
///   own spans plus every reachable shard's `/trace`, one process lane
///   each, flow arrows across the hops.
/// * `/trace/self` — the aggregator's own raw [`TraceSnapshot`] (what a
///   daemon serves at `/trace`), so `leakprofd trace --addr <fleet>`
///   can restitch the fleet lane together with explicitly listed
///   processes such as push clients.
/// * `/flame` + `/flame.txt` — the merged blocked-goroutine flamegraph
///   (SVG/HTML and collapsed folded-stack text); `?from=&to=` renders
///   the differential over a poll window instead of the live view.
/// * `/logs?level=&limit=` — the aggregator's structured event log,
///   filterable by severity and capped to the newest N.
/// * `/api/snapshot` — the merged fleet as one [`ApiSnapshot`], making
///   aggregators composable with `leakprofd status`/`top`.
/// * `/api/shardmap` — the current (possibly rebalanced) map, for
///   shard daemons and operators to pick up; 404 without a map.
///
/// # Errors
///
/// Returns the bind error if the address is unavailable.
pub fn serve_fleet_endpoints(
    fleet: Arc<Mutex<FleetAggregator>>,
    addr: &str,
) -> std::io::Result<HttpServer> {
    let not_found = format!("try {}", fleet_routes().join(", "));
    HttpServer::serve(addr, 2, move |req: &Request| {
        let f = fleet.lock().expect("fleet poisoned");
        match req.path.as_str() {
            "/metrics" => Response::text(f.metrics_text()),
            "/status" => Response::json(
                serde_json::to_string_pretty(&f.status()).expect("fleet status serializes"),
            ),
            "/health" => {
                let health = match f.fleet_health() {
                    Some(h) => h.clone(),
                    None => FleetHealth {
                        cycle: 0,
                        sites: Vec::new(),
                        adaptive: f.controller.status(),
                    },
                };
                Response::json(serde_json::to_string_pretty(&health).expect("health serializes"))
            }
            p if matches!(crate::daemon::parse_query(p).0, "/flame" | "/flame.txt") => {
                let (path, params) = crate::daemon::parse_query(p);
                crate::flame::serve_flame(
                    &f.accumulator().snapshot(),
                    f.fleet_health(),
                    f.ts(),
                    &params,
                    path == "/flame",
                    "fleet — blocked goroutines (merged)",
                    "poll",
                )
            }
            "/trace" => Response::json(f.stitched_trace()),
            "/trace/self" => Response::json(
                serde_json::to_string(&f.tracer().snapshot()).expect("trace serializes"),
            ),
            p if crate::daemon::parse_query(p).0 == "/logs" => {
                let (_, params) = crate::daemon::parse_query(p);
                crate::daemon::serve_logs(f.events(), &params)
            }
            "/api/snapshot" => Response::json(
                serde_json::to_string_pretty(&f.api_snapshot()).expect("snapshot serializes"),
            ),
            "/api/shardmap" => match f.map() {
                Some(map) => Response::json(map.to_json()),
                None => Response::error(404, "no shard map loaded"),
            },
            _ => Response::error(404, &not_found),
        }
    })
}
