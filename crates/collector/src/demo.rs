//! Demo fleet wiring: spins up a real [`fleet::Fleet`] with known leaky
//! services, publishes its profiles into a [`ProfileHub`], and returns
//! everything a daemon needs to scrape it — used by `leakprofd
//! scrape-once`, the benches, and the end-to-end tests.

use fleet::{default_service, handlers, Fleet, FleetConfig, HandlerArg};
use gosim::GoroutineProfile;

use crate::endpoints::ProfileHub;
use crate::scrape::ScrapeTarget;

/// A fleet simulation plus the hub serving its profiles.
pub struct DemoFleet {
    /// The running simulation (step it for more days, then republish).
    pub fleet: Fleet,
    /// Hub holding the latest published profiles.
    pub hub: ProfileHub,
    /// Handler sources, for LeakProf's criterion-2 filter.
    pub sources: Vec<(String, String)>,
    /// Ground-truth leak sites `(file, line)` injected into the fleet.
    pub leak_sites: Vec<(String, u32)>,
}

impl DemoFleet {
    /// Builds a fleet totaling roughly `instances` instances across the
    /// paper's three leak archetypes plus a healthy service, runs it for
    /// `days`, and publishes the resulting profiles.
    pub fn build(instances: usize, days: u32, seed: u64) -> DemoFleet {
        // Small ticks keep a 100-instance demo under a second while still
        // exercising real runtimes per instance.
        let mut f = Fleet::new(FleetConfig {
            seed,
            ticks_per_day: 12,
            rt_ticks_per_tick: 40,
        });
        let per_service = (instances / 4).max(1);
        let mut leak_sites = Vec::new();

        let specs = [
            (
                handlers::timeout_leak("pay", 2_000),
                handlers::timeout_fixed("pay", 2_000),
                HandlerArg::NilCtx,
                0.5,
            ),
            (
                handlers::premature_return_leak("geo", 2_000),
                handlers::premature_return_fixed("geo", 2_000),
                HandlerArg::True,
                0.2,
            ),
            (
                handlers::contract_leak("msg", 2_000),
                handlers::contract_fixed("msg", 2_000),
                HandlerArg::False,
                0.7,
            ),
        ];
        for (i, (leaky, fixed, arg, activation)) in specs.into_iter().enumerate() {
            leak_sites.push((leaky.path.clone(), leaky.leak_line.expect("leaky handler")));
            let mut spec = default_service(&format!("svc{i}"), per_service, leaky, fixed);
            spec.arg = arg;
            spec.leak_activation = activation;
            f.add_service(spec);
        }
        // Healthy remainder so the fleet reaches the requested size.
        let rest = instances.saturating_sub(3 * per_service).max(1);
        let mut healthy = default_service(
            "ok",
            rest,
            handlers::timeout_fixed("ok", 2_000),
            handlers::timeout_fixed("ok", 2_000),
        );
        healthy.fix_day = Some(0);
        f.add_service(healthy);

        f.run_days(days);
        let sources = f.handler_sources();
        let hub = ProfileHub::new();
        let profiles = f.collect_profiles();
        hub.publish_all(&profiles);
        DemoFleet {
            fleet: f,
            hub,
            sources,
            leak_sites,
        }
    }

    /// Advances the simulation by `days` and republishes fresh profiles.
    /// Returns the newly published profile set.
    pub fn advance_and_republish(&mut self, days: u32) -> Vec<GoroutineProfile> {
        self.fleet.run_days(days);
        let profiles = self.fleet.collect_profiles();
        self.hub.publish_all(&profiles);
        profiles
    }

    /// Builds scrape targets for every published instance against the
    /// hub server at `addr`.
    pub fn targets(&self, addr: std::net::SocketAddr) -> Vec<ScrapeTarget> {
        self.hub
            .instances()
            .into_iter()
            .map(|id| ScrapeTarget {
                path: ProfileHub::profile_path(&id),
                instance: id,
                addr,
            })
            .collect()
    }

    /// Writes the fleet's handler sources under `root` so a daemon's
    /// static tier (or any on-disk tool) can analyze the same tree the
    /// profiles reference — each `(src, path)` pair lands at
    /// `root/<path>`.
    ///
    /// # Errors
    ///
    /// Returns the first IO error encountered while writing.
    pub fn write_sources(&self, root: &std::path::Path) -> std::io::Result<()> {
        for (src, path) in &self.sources {
            let dest = root.join(path);
            if let Some(parent) = dest.parent() {
                std::fs::create_dir_all(parent)?;
            }
            std::fs::write(dest, src)?;
        }
        Ok(())
    }

    /// A LeakProf configured for this demo fleet (scaled threshold, AST
    /// filter on, sources indexed).
    pub fn leakprof(&self, threshold: u64, top_n: usize) -> leakprof::LeakProf {
        let mut lp = leakprof::LeakProf::new(leakprof::Config {
            threshold,
            ast_filter: true,
            top_n,
        });
        for (src, path) in &self.sources {
            lp.index_source(src, path).expect("handler sources parse");
        }
        lp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_fleet_publishes_requested_instance_count() {
        let demo = DemoFleet::build(12, 1, 11);
        let ids = demo.hub.instances();
        assert!(ids.len() >= 12, "got {} instances", ids.len());
        assert_eq!(demo.leak_sites.len(), 3);
        assert!(!demo.sources.is_empty());
    }
}
