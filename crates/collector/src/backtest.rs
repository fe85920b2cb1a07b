//! Offline backtest: replay the persisted telemetry store into weekly
//! per-site trend tables (the paper's Fig. 5/6 shape: impact per site
//! per week, with a verdict column).
//!
//! The verdicts come from [`crate::health::classify_sites`], the exact
//! function the live daemon serves at `/health`. Because the store's
//! time axis is the cycle counter (not wall clock) and every append is
//! WAL-durable, a backtest over a recovered store reproduces the online
//! classification byte-for-byte — including across a `kill -9`.

use serde::{Deserialize, Serialize};
use timeseries::{TrendConfig, TsStore};

use crate::health::{classify_sites, SiteHealth};

use leakprof::series as sid;

/// Backtest tuning.
#[derive(Debug, Clone)]
pub struct BacktestConfig {
    /// Cycles per "week" bucket in the report (the demo fleet runs one
    /// cycle per simulated day, so 7 matches the paper's weekly grain).
    pub week_len: u64,
    /// Trend classification tuning — use the daemon's values to
    /// reproduce its verdicts.
    pub trend: TrendConfig,
    /// Sites kept in the report (worst first); 0 = all.
    pub top: usize,
}

impl Default for BacktestConfig {
    fn default() -> Self {
        BacktestConfig {
            week_len: 7,
            trend: TrendConfig::default(),
            top: 0,
        }
    }
}

/// One site's row in the weekly table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WeeklySite {
    /// Site fingerprint (rendered blocking op + location).
    pub fingerprint: String,
    /// Final verdict over the full series (`improving`/`flat`/
    /// `regressing`) — identical to the live `/health` verdict at the
    /// last recorded cycle.
    pub class: String,
    /// One-line explanation of the verdict.
    pub why: String,
    /// Newest RMS value.
    pub rms: f64,
    /// Mean RMS per week bucket, oldest first; `None` where the site
    /// has no points that week (queries never fabricate).
    pub weekly_mean_rms: Vec<Option<f64>>,
}

/// The backtest result: a weekly per-site trend table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BacktestReport {
    /// First cycle with data.
    pub first_cycle: u64,
    /// Last cycle with data.
    pub last_cycle: u64,
    /// Cycles per week bucket.
    pub week_len: u64,
    /// Number of week buckets.
    pub weeks: usize,
    /// Per-site rows, worst verdict first.
    pub sites: Vec<WeeklySite>,
    /// Sites dropped by the `top` limit.
    pub truncated: usize,
}

/// Replays a telemetry store into the weekly report.
pub fn backtest_store(ts: &TsStore, config: &BacktestConfig) -> BacktestReport {
    let week_len = config.week_len.max(1);
    let fps: Vec<String> = ts
        .series_ids()
        .into_iter()
        .filter_map(|id| id.strip_prefix("site_rms:").map(str::to_string))
        .collect();
    let verdicts: Vec<SiteHealth> = classify_sites(ts, &config.trend, &fps);
    let mut first = u64::MAX;
    let mut last = 0u64;
    for fp in &fps {
        let id = sid::site_rms_id(fp);
        if let Some(t) = ts.first_t(&id) {
            first = first.min(t);
        }
        if let Some(t) = ts.last_t(&id) {
            last = last.max(t);
        }
    }
    if first == u64::MAX {
        return BacktestReport {
            first_cycle: 0,
            last_cycle: 0,
            week_len,
            weeks: 0,
            sites: Vec::new(),
            truncated: 0,
        };
    }
    let weeks = ((last - first) / week_len + 1) as usize;
    let mut sites: Vec<WeeklySite> = verdicts
        .into_iter()
        .map(|v| {
            let id = sid::site_rms_id(&v.fingerprint);
            let weekly_mean_rms = (0..weeks)
                .map(|w| {
                    let from = first + w as u64 * week_len;
                    let to = from + week_len - 1;
                    let buckets = ts.query(&id, from, to, None);
                    let count: u64 = buckets.iter().map(|p| p.count).sum();
                    if count == 0 {
                        None
                    } else {
                        Some(buckets.iter().map(|p| p.sum).sum::<f64>() / count as f64)
                    }
                })
                .collect();
            WeeklySite {
                fingerprint: v.fingerprint,
                class: v.class,
                why: v.why,
                rms: v.rms,
                weekly_mean_rms,
            }
        })
        .collect();
    let truncated = if config.top > 0 && sites.len() > config.top {
        let t = sites.len() - config.top;
        sites.truncate(config.top);
        t
    } else {
        0
    };
    BacktestReport {
        first_cycle: first,
        last_cycle: last,
        week_len,
        weeks,
        sites,
        truncated,
    }
}

/// Renders the weekly table as aligned text (stdout / report.txt).
pub fn render_table(report: &BacktestReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "backtest: cycles {}..{} ({} week(s) of {} cycles)",
        report.first_cycle, report.last_cycle, report.weeks, report.week_len
    );
    if report.sites.is_empty() {
        let _ = writeln!(out, "no site series recorded");
        return out;
    }
    let width = report
        .sites
        .iter()
        .map(|s| s.fingerprint.len())
        .max()
        .unwrap_or(4)
        .max(4);
    let _ = write!(out, "{:<width$}  {:<10}", "site", "verdict");
    for w in 0..report.weeks {
        let _ = write!(out, "  {:>8}", format!("w{w}"));
    }
    let _ = writeln!(out);
    for s in &report.sites {
        let _ = write!(out, "{:<width$}  {:<10}", s.fingerprint, s.class);
        for mean in &s.weekly_mean_rms {
            match mean {
                Some(v) => {
                    let _ = write!(out, "  {v:>8.1}");
                }
                None => {
                    let _ = write!(out, "  {:>8}", "-");
                }
            }
        }
        let _ = writeln!(out, "    {}", s.why);
    }
    if report.truncated > 0 {
        let _ = writeln!(out, "... {} more site(s) truncated", report.truncated);
    }
    out
}

/// Renders the weekly means as CSV (`weekly_rms.csv`): one row per
/// site, one column per week; absent weeks are empty cells.
pub fn render_weekly_csv(report: &BacktestReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = write!(out, "site,verdict");
    for w in 0..report.weeks {
        let _ = write!(out, ",week_{w}_mean_rms");
    }
    let _ = writeln!(out);
    for s in &report.sites {
        let _ = write!(out, "{},{}", csv_field(&s.fingerprint), s.class);
        for mean in &s.weekly_mean_rms {
            match mean {
                Some(v) => {
                    let _ = write!(out, ",{v}");
                }
                None => {
                    let _ = write!(out, ",");
                }
            }
        }
        let _ = writeln!(out);
    }
    out
}

/// Renders the final verdicts as CSV (`verdicts.csv`) — the file the
/// kill-and-recover acceptance test compares byte-for-byte.
pub fn render_verdicts_csv(report: &BacktestReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "site,verdict,rms,why");
    for s in &report.sites {
        let _ = writeln!(
            out,
            "{},{},{},{}",
            csv_field(&s.fingerprint),
            s.class,
            s.rms,
            csv_field(&s.why)
        );
    }
    out
}

/// Quotes a CSV field when it contains a delimiter, quote, or newline.
fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Writes the three report artifacts into `out_dir` (`report.txt`,
/// `weekly_rms.csv`, `verdicts.csv`).
///
/// # Errors
///
/// IO errors creating the directory or writing the files.
pub fn write_report(report: &BacktestReport, out_dir: &std::path::Path) -> std::io::Result<()> {
    std::fs::create_dir_all(out_dir)?;
    std::fs::write(out_dir.join("report.txt"), render_table(report))?;
    std::fs::write(out_dir.join("weekly_rms.csv"), render_weekly_csv(report))?;
    std::fs::write(out_dir.join("verdicts.csv"), render_verdicts_csv(report))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use timeseries::StoreConfig;

    #[test]
    fn weekly_buckets_and_verdicts() {
        // 21 cycles = 3 weeks; "leaky" ramps, "quiet" stays flat.
        let mut ts = TsStore::in_memory(StoreConfig::default());
        let (leaky, quiet) = (sid::site_rms_id("leaky"), sid::site_rms_id("quiet"));
        for c in 1..=21u64 {
            ts.append(
                c,
                &[(leaky.as_str(), (c * 10) as f64), (quiet.as_str(), 50.0)],
            )
            .unwrap();
        }
        let report = backtest_store(&ts, &BacktestConfig::default());
        assert_eq!(report.weeks, 3);
        assert_eq!(report.sites.len(), 2);
        assert_eq!(report.sites[0].fingerprint, "leaky");
        assert_eq!(report.sites[0].class, "regressing");
        assert_eq!(report.sites[1].class, "flat");
        // Week 0 covers cycles 1..=7: mean of 10,20,...,70 = 40.
        assert_eq!(report.sites[0].weekly_mean_rms[0], Some(40.0));
        assert_eq!(report.sites[1].weekly_mean_rms[2], Some(50.0));
        let table = render_table(&report);
        assert!(table.contains("leaky"), "{table}");
        assert!(table.contains("regressing"), "{table}");
        let csv = render_weekly_csv(&report);
        assert!(csv.starts_with("site,verdict,week_0_mean_rms"), "{csv}");
        assert!(csv.contains("leaky,regressing,40"), "{csv}");
    }

    #[test]
    fn empty_store_yields_empty_report() {
        let ts = TsStore::in_memory(StoreConfig::default());
        let report = backtest_store(&ts, &BacktestConfig::default());
        assert_eq!(report.weeks, 0);
        assert!(render_table(&report).contains("no site series"));
    }

    #[test]
    fn csv_fields_with_commas_are_quoted() {
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }
}
