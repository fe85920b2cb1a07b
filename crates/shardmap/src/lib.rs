//! # shardmap — deterministic fleet sharding for collector daemons
//!
//! The paper's LEAKPROF sweeps ~200K service instances; one collector
//! cannot scrape that alone. This crate splits a fleet across N
//! collector shards with **rendezvous (highest-random-weight) hashing**
//! on the instance id: every node that evaluates
//! [`ShardMap::owner`] for the same map gets the same answer with no
//! coordination, so shard daemons can be launched independently — each
//! scrapes exactly its slice and the union covers the fleet with no
//! overlap.
//!
//! Rendezvous hashing was chosen over a modulo split for its stability
//! property: when a shard dies, *only the dead shard's instances* move
//! (each survivor keeps every instance it already won, because removing
//! a loser never changes a contest's winner). [`ShardMap::rebalanced`]
//! exploits this for failover — the merge tier marks the dark shard's
//! seat dead and publishes a new map version; survivors pick up the
//! orphaned slice without reshuffling their own.
//!
//! Maps are versioned and serializable so a topology can be pinned to a
//! file, shipped to every daemon, and audited: state dirs are tagged
//! with the [`ShardIdentity`] they were collected under, and a daemon
//! refuses to reuse a state dir tagged for a different seat.

#![warn(missing_docs)]

use std::path::Path;

use serde::{Deserialize, Serialize};

/// Current [`ShardMap`] serialization format version.
/// [`ShardMap::from_json`] rejects other formats so a daemon never
/// silently scrapes the wrong slice after a layout change.
pub const SHARDMAP_FORMAT: u32 = 1;

/// One shard seat in the map. Seats keep their index forever — a dead
/// seat stays in the vector (marked `!alive`) so shard ids are stable
/// across rebalances and state dirs never change owner retroactively.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Seat {
    /// Shard index; equals the seat's position in [`ShardMap::seats`].
    pub id: u32,
    /// Whether this seat currently owns a slice. Dead seats lose every
    /// contest, so their instances spill to the survivors.
    pub alive: bool,
}

/// A versioned, deterministic assignment of fleet instances to N
/// collector shards.
///
/// The assignment is a pure function of `(seats, instance)` — no node
/// state, no RPC — so any two processes holding the same map agree on
/// every instance. Serialize with [`ShardMap::to_json`] /
/// [`ShardMap::save`] to pin a topology to a file.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardMap {
    /// Serialization format; see [`SHARDMAP_FORMAT`].
    pub format: u32,
    /// Map version; bumped by every [`ShardMap::rebalanced`] /
    /// [`ShardMap::revived`] so daemons and the merge tier can detect a
    /// topology change.
    pub version: u64,
    /// The shard seats, indexed by shard id.
    pub seats: Vec<Seat>,
}

/// The shard identity a daemon stamps into its state dir (`shard.json`)
/// and reports in `/status`: which seat of which map version collected
/// this state.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardIdentity {
    /// This daemon's shard index.
    pub shard: u32,
    /// Total seats in the map (alive or dead).
    pub of: u32,
    /// The map version the slice was computed from.
    pub map_version: u64,
}

impl std::fmt::Display for ShardIdentity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{} (map v{})", self.shard, self.of, self.map_version)
    }
}

/// Incremental 64-bit FNV-1a — stable across platforms and runs
/// (unlike `std`'s `DefaultHasher`, which is seeded per-process). The
/// repo's one cheap stable hash: shard routing, rendezvous weights and
/// source-content fingerprints all use it.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    #[inline]
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Folds `bytes` into the hash.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of everything written so far.
    #[inline]
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// One-shot [`Fnv1a`] over a byte slice.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.write(bytes);
    h.finish()
}

/// SplitMix64 finalizer: FNV output is well-distributed in the low bits
/// but weak in avalanche; one mixing round makes the (seat, instance)
/// weights behave like independent uniform draws, which is what keeps
/// rendezvous slices balanced.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The rendezvous weight of `(seat, instance)`: the contest score the
/// highest of which wins ownership.
fn weight(seat: u32, instance: &str) -> u64 {
    let mut buf = Vec::with_capacity(instance.len() + 5);
    buf.extend_from_slice(&seat.to_le_bytes());
    buf.push(0xff); // domain separator: seat id vs instance bytes
    buf.extend_from_slice(instance.as_bytes());
    mix(fnv1a(&buf))
}

impl ShardMap {
    /// Creates a fresh map with `n` alive seats (version 1).
    pub fn new(n: u32) -> ShardMap {
        ShardMap {
            format: SHARDMAP_FORMAT,
            version: 1,
            seats: (0..n).map(|id| Seat { id, alive: true }).collect(),
        }
    }

    /// Total seats in the map, alive or dead.
    pub fn total(&self) -> u32 {
        self.seats.len() as u32
    }

    /// Ids of the seats currently alive.
    pub fn alive(&self) -> Vec<u32> {
        self.seats
            .iter()
            .filter(|s| s.alive)
            .map(|s| s.id)
            .collect()
    }

    /// Whether seat `shard` is alive.
    pub fn is_alive(&self, shard: u32) -> bool {
        self.seats
            .get(shard as usize)
            .map(|s| s.alive)
            .unwrap_or(false)
    }

    /// The shard that owns `instance`: the alive seat with the highest
    /// rendezvous weight. `None` only when no seat is alive.
    ///
    /// Pure and deterministic: every node holding an equal map computes
    /// the same owner for every instance.
    pub fn owner(&self, instance: &str) -> Option<u32> {
        self.seats
            .iter()
            .filter(|s| s.alive)
            .map(|s| (weight(s.id, instance), s.id))
            .max()
            .map(|(_, id)| id)
    }

    /// Whether `instance` belongs to seat `shard` under this map.
    pub fn owns(&self, shard: u32, instance: &str) -> bool {
        self.owner(instance) == Some(shard)
    }

    /// This daemon's identity under the map, for state-dir tagging.
    pub fn identity(&self, shard: u32) -> ShardIdentity {
        ShardIdentity {
            shard,
            of: self.total(),
            map_version: self.version,
        }
    }

    /// A new map version with `dead` seats marked dead. Rendezvous
    /// stability guarantees only the dead seats' instances are
    /// reassigned; every surviving seat keeps its slice.
    pub fn rebalanced(&self, dead: &[u32]) -> ShardMap {
        let mut next = self.clone();
        next.version += 1;
        for seat in &mut next.seats {
            if dead.contains(&seat.id) {
                seat.alive = false;
            }
        }
        next
    }

    /// A new map version with `back` seats marked alive again (shard
    /// recovery). The revived seats win back exactly the instances they
    /// owned before going dark.
    pub fn revived(&self, back: &[u32]) -> ShardMap {
        let mut next = self.clone();
        next.version += 1;
        for seat in &mut next.seats {
            if back.contains(&seat.id) {
                seat.alive = true;
            }
        }
        next
    }

    /// Serializes the map as pretty JSON (deterministic: field order is
    /// fixed, seats are in id order).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("shardmap serializes")
    }

    /// Parses a map from JSON, rejecting unknown formats.
    ///
    /// # Errors
    ///
    /// Returns a message for malformed JSON, a format other than
    /// [`SHARDMAP_FORMAT`], or seats whose ids don't match their index.
    pub fn from_json(json: &str) -> Result<ShardMap, String> {
        serde_json::from_str::<ShardMap>(json)
            .map_err(|e| format!("malformed shard map: {e}"))?
            .validated()
    }

    /// Rejects formats other than [`SHARDMAP_FORMAT`] and seats whose
    /// ids don't match their index.
    fn validated(self) -> Result<ShardMap, String> {
        if self.format != SHARDMAP_FORMAT {
            return Err(format!(
                "unsupported shard map format {} (expected {})",
                self.format, SHARDMAP_FORMAT
            ));
        }
        for (i, seat) in self.seats.iter().enumerate() {
            if seat.id != i as u32 {
                return Err(format!(
                    "seat id {} at position {i}: ids must equal their index",
                    seat.id
                ));
            }
        }
        Ok(self)
    }

    /// Writes the map to `path` atomically.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        durable::write_atomic(path, self.to_json().as_bytes())
    }

    /// Loads and validates a map from `path` (the checks of
    /// [`ShardMap::from_json`]).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (a missing file is
    /// [`std::io::ErrorKind::NotFound`]); malformed or invalid maps
    /// surface as [`std::io::ErrorKind::InvalidData`].
    pub fn load(path: &Path) -> std::io::Result<ShardMap> {
        let map = durable::read_json::<ShardMap>(path)?.ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("{}: no such shard map", path.display()),
            )
        })?;
        map.validated()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("svc-{}.pod-{i}", i % 7)).collect()
    }

    #[test]
    fn every_instance_has_exactly_one_owner() {
        let map = ShardMap::new(3);
        for inst in fleet(200) {
            let owner = map.owner(&inst).expect("alive seats exist");
            assert!(owner < 3);
            assert_eq!(
                (0..3).filter(|&s| map.owns(s, &inst)).count(),
                1,
                "instance {inst} owned by exactly one shard"
            );
        }
    }

    /// The differential guarantee: two independently constructed maps
    /// (and a serialization round-trip) assign every instance
    /// identically — the property that lets shard daemons launch with
    /// no coordination.
    #[test]
    fn assignment_is_identical_on_every_node() {
        for n in [1u32, 2, 3, 5, 8] {
            let here = ShardMap::new(n);
            let there = ShardMap::new(n);
            let wire = ShardMap::from_json(&here.to_json()).expect("roundtrip");
            for inst in fleet(150) {
                assert_eq!(here.owner(&inst), there.owner(&inst), "n={n} inst={inst}");
                assert_eq!(here.owner(&inst), wire.owner(&inst), "n={n} wire {inst}");
            }
        }
    }

    /// The union of N slices is the fleet and the slices are disjoint —
    /// any partition into N shards covers everything exactly once.
    #[test]
    fn slices_partition_the_fleet() {
        let map = ShardMap::new(4);
        let fleet = fleet(300);
        let mut seen = 0usize;
        for shard in 0..4 {
            let slice: Vec<&String> = fleet.iter().filter(|i| map.owns(shard, i)).collect();
            seen += slice.len();
        }
        assert_eq!(seen, fleet.len(), "slices cover the fleet exactly once");
    }

    #[test]
    fn slices_are_roughly_balanced() {
        let map = ShardMap::new(4);
        let fleet = fleet(4000);
        for shard in 0..4 {
            let got = fleet.iter().filter(|i| map.owns(shard, i)).count();
            // Expected 1000 per shard; allow a generous ±35% band.
            assert!(
                (650..=1350).contains(&got),
                "shard {shard} owns {got} of 4000 — badly unbalanced"
            );
        }
    }

    /// Rendezvous stability: killing one seat moves only that seat's
    /// instances; every survivor keeps its slice bit-for-bit.
    #[test]
    fn rebalance_moves_only_the_dead_shards_instances() {
        let map = ShardMap::new(3);
        let fleet = fleet(500);
        let dead = 1u32;
        let next = map.rebalanced(&[dead]);
        assert_eq!(next.version, map.version + 1);
        assert!(!next.is_alive(dead));
        for inst in &fleet {
            let before = map.owner(inst).unwrap();
            let after = next.owner(inst).unwrap();
            if before != dead {
                assert_eq!(before, after, "{inst} moved despite its owner surviving");
            } else {
                assert_ne!(after, dead, "{inst} still assigned to the dead shard");
            }
        }
        // Revival restores the original assignment exactly.
        let back = next.revived(&[dead]);
        assert_eq!(back.version, next.version + 1);
        for inst in &fleet {
            assert_eq!(map.owner(inst), back.owner(inst), "{inst} after revival");
        }
    }

    #[test]
    fn no_alive_seats_means_no_owner() {
        let map = ShardMap::new(2).rebalanced(&[0, 1]);
        assert_eq!(map.owner("anything"), None);
        assert!(map.alive().is_empty());
    }

    #[test]
    fn format_and_seat_validation() {
        let mut map = ShardMap::new(2);
        map.format = SHARDMAP_FORMAT + 1;
        let err = ShardMap::from_json(&map.to_json()).unwrap_err();
        assert!(err.contains("unsupported"), "{err}");

        let mut bad = ShardMap::new(2);
        bad.seats[1].id = 7;
        let err = ShardMap::from_json(&bad.to_json()).unwrap_err();
        assert!(err.contains("ids must equal their index"), "{err}");
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = std::env::temp_dir().join(format!("shardmap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("map.json");
        let map = ShardMap::new(5).rebalanced(&[2]);
        map.save(&path).unwrap();
        let loaded = ShardMap::load(&path).unwrap();
        assert_eq!(map, loaded);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn identity_renders_for_operators() {
        let map = ShardMap::new(3);
        let id = map.identity(1);
        assert_eq!(id.to_string(), "1/3 (map v1)");
    }
}
