//! A campaign: a named batch of jobs run through cache + executor.
//!
//! `Campaign` is the high-level entry point the experiments use: push
//! [`SimJob`]s, call [`Campaign::run`], get payloads back in submission
//! order plus a [`CampaignStats`] record of how much work the cache saved.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

use crate::cache::ResultCache;
use crate::files::write_if_changed;
use crate::job::SimJob;
use crate::json::Obj;
use crate::pool::Executor;

/// Options controlling how a campaign executes.
#[derive(Debug, Clone)]
pub struct CampaignOpts {
    /// Worker threads (0 → one per available core). Any value but 1 also
    /// prints per-job progress lines to stderr.
    pub jobs: usize,
    /// Result-cache directory; `None` disables caching.
    pub cache: Option<PathBuf>,
    /// File to append the run's [`CampaignStats`] JSON line to (JSONL
    /// trajectory across invocations); `None` disables it.
    pub summary: Option<PathBuf>,
    /// Shard filter `(index, count)` with `index < count`: a cache-**miss**
    /// job is executed only when `key % count == index`; out-of-shard
    /// misses are *skipped* — their output slot is filled with
    /// [`skipped_payload`] and nothing is stored in the cache. Cache hits
    /// are always used regardless of shard, so shards share whatever work
    /// is already done. Because job keys are stable content hashes, the
    /// shards partition the job set deterministically across machines: run
    /// shard `i/n` on `n` machines against the same spec, merge the
    /// `results/.cache/` directories, then re-run unsharded for complete
    /// reports (~every job a hit). `None` disables sharding.
    pub shard: Option<(u32, u32)>,
}

impl Default for CampaignOpts {
    fn default() -> Self {
        Self {
            jobs: 1,
            cache: None,
            summary: None,
            shard: None,
        }
    }
}

/// Number of zero floats in a skipped job's placeholder payload — sized
/// past every float index a *fixed-length* decoder reads, so sharded runs
/// produce partial-but-well-formed reports instead of panicking.
pub const SKIPPED_PAYLOAD_FLOATS: usize = 16;

/// The placeholder payload a sharded campaign stores in the output slot of
/// an out-of-shard job: [`SKIPPED_PAYLOAD_FLOATS`] zeros, encoded with
/// [`crate::payload::encode_floats`].
///
/// Decoder contract: a decoder that indexes a fixed number of floats (at
/// most [`SKIPPED_PAYLOAD_FLOATS`]) may index directly. A payload whose
/// length varies with the sweep — a binned timeline, a set of per-window
/// samples — can be longer than the placeholder, so its decoder must be
/// total instead: read through [`crate::payload::float_at`] (missing values
/// read as 0) or [`crate::payload::decode_float_sets`] (the placeholder
/// decodes as empty sets).
pub fn skipped_payload() -> String {
    crate::payload::encode_floats(&[0.0; SKIPPED_PAYLOAD_FLOATS])
}

/// A named batch of [`SimJob`]s.
pub struct Campaign {
    name: String,
    opts: CampaignOpts,
    jobs: Vec<SimJob>,
    /// Job key → submission index, for [`Campaign::push_dedup`].
    seen: HashMap<u64, usize>,
}

/// What a finished campaign produced.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Job payloads, in submission order (index-aligned with `push` calls).
    pub outputs: Vec<String>,
    /// Execution accounting.
    pub stats: CampaignStats,
}

/// Execution accounting for one campaign run.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignStats {
    /// Campaign name.
    pub name: String,
    /// Total jobs submitted.
    pub total: usize,
    /// Jobs answered from the result cache.
    pub cached: usize,
    /// Jobs actually executed.
    pub executed: usize,
    /// Cache-miss jobs skipped by the shard filter (always 0 unsharded).
    pub skipped: usize,
    /// Wall-clock seconds for the whole run (lookup + execute + store).
    pub wall_secs: f64,
    /// Worker threads used.
    pub workers: usize,
}

impl CampaignStats {
    /// Renders the stats as a one-line JSON object.
    pub fn to_json(&self) -> String {
        let mut o = Obj::new();
        o.str("campaign", &self.name)
            .int("total", self.total as u64)
            .int("cached", self.cached as u64)
            .int("executed", self.executed as u64)
            .int("skipped", self.skipped as u64)
            .num("wall_secs", self.wall_secs)
            .int("workers", self.workers as u64);
        o.render()
    }
}

/// Process-wide log of every campaign finished since the last
/// [`take_session_stats`] call. Lets a driver binary that runs many
/// experiments (each constructing its own [`Campaign`]) report aggregate
/// cache hit/miss accounting at the end without threading state through
/// every experiment function.
static SESSION_STATS: Mutex<Vec<CampaignStats>> = Mutex::new(Vec::new());

/// Drains and returns the stats of every campaign completed in this process
/// since the previous drain, in completion order.
pub fn take_session_stats() -> Vec<CampaignStats> {
    std::mem::take(&mut *SESSION_STATS.lock().unwrap_or_else(|e| e.into_inner()))
}

impl Campaign {
    /// Creates an empty campaign.
    pub fn new(name: impl Into<String>, opts: CampaignOpts) -> Self {
        Self {
            name: name.into(),
            opts,
            jobs: Vec::new(),
            seen: HashMap::new(),
        }
    }

    /// Adds a job and returns its submission index (its slot in
    /// [`CampaignResult::outputs`]). Results come back in push order.
    pub fn push(&mut self, job: SimJob) -> usize {
        let index = self.jobs.len();
        self.seen.insert(job.key().0, index);
        self.jobs.push(job);
        index
    }

    /// Adds a job unless one with an identical descriptor is already
    /// queued; returns the submission index whose output slot holds (or
    /// will hold) this descriptor's payload. Experiments use this to share
    /// baseline runs (e.g. "primary alone") across several tables without
    /// simulating them twice.
    pub fn push_dedup(&mut self, job: SimJob) -> usize {
        match self.seen.get(&job.key().0) {
            Some(&index) => index,
            None => self.push(job),
        }
    }

    /// Number of jobs queued so far.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the campaign has no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Runs the campaign: answers what it can from the cache, executes the
    /// rest on the pool, stores fresh results back, and returns payloads in
    /// submission order.
    pub fn run(self) -> CampaignResult {
        let start = Instant::now();
        let workers = if self.opts.jobs == 0 {
            Executor::default_workers()
        } else {
            self.opts.jobs
        };
        let total = self.jobs.len();

        let cache = self
            .opts
            .cache
            .as_ref()
            .and_then(|dir| ResultCache::at(dir).ok());

        // Partition into cache hits and jobs that must run, remembering
        // each job's submission slot so order survives the split. A job
        // with declared artifacts only counts as a hit when the payload
        // *and* every artifact are stored: then the artifacts are replayed
        // (rewritten to their declared paths); otherwise the job is forced
        // to re-execute so it regenerates them.
        if let Some((index, count)) = self.opts.shard {
            assert!(
                count > 0 && index < count,
                "invalid shard {index}/{count}: need index < count, count > 0"
            );
        }

        let mut outputs: Vec<Option<String>> = (0..total).map(|_| None).collect();
        let mut to_run: Vec<(usize, SimJob)> = Vec::new();
        let mut skipped = 0usize;
        for (index, job) in self.jobs.into_iter().enumerate() {
            let hit = cache.as_ref().and_then(|c| {
                let payload = c.get(job.key(), job.descriptor())?;
                let artifacts: Vec<String> = job
                    .artifacts()
                    .iter()
                    .enumerate()
                    .map(|(i, _)| c.get_artifact(job.key(), job.descriptor(), i))
                    .collect::<Option<_>>()?;
                Some((payload, artifacts))
            });
            match hit {
                Some((payload, artifacts)) => {
                    for (path, content) in job.artifacts().iter().zip(&artifacts) {
                        Self::replay_artifact(path, content);
                    }
                    outputs[index] = Some(payload);
                }
                None => match self.opts.shard {
                    Some((shard_index, shard_count))
                        if job.key().0 % shard_count as u64 != shard_index as u64 =>
                    {
                        // Out-of-shard miss: another shard owns this job.
                        // Fill the slot with the placeholder (not stored in
                        // the cache) so reports stay well-formed.
                        outputs[index] = Some(skipped_payload());
                        skipped += 1;
                    }
                    _ => to_run.push((index, job)),
                },
            }
        }
        let cached = total - to_run.len() - skipped;
        let executed = to_run.len();

        let progress = self.opts.jobs != 1;
        if progress && total > 0 {
            eprintln!(
                "[{}] {} job(s): {} cached, {} skipped (shard), {} to run on {} worker(s)",
                self.name, total, cached, skipped, executed, workers
            );
        }

        if !to_run.is_empty() {
            // Keep (slot, key, descriptor, artifact paths) aside: SimJob is
            // consumed by the executor, but we still need its identity to
            // store the result.
            let identities: Vec<(usize, crate::hash::JobKey, String, Vec<PathBuf>)> = to_run
                .iter()
                .map(|(slot, job)| {
                    (
                        *slot,
                        job.key(),
                        job.descriptor().to_string(),
                        job.artifacts().to_vec(),
                    )
                })
                .collect();
            let jobs: Vec<SimJob> = to_run.into_iter().map(|(_, job)| job).collect();

            let name = self.name.clone();
            let cb = move |done: usize, run_total: usize, label: &str| {
                if progress {
                    eprintln!("[{name}] {done}/{run_total} {label}");
                }
            };
            let payloads = Executor::new(workers).run(jobs, Some(&cb));

            for ((slot, key, descriptor, artifacts), payload) in
                identities.into_iter().zip(payloads)
            {
                if let Some(c) = cache.as_ref() {
                    c.put(key, &descriptor, &payload);
                    // Store whichever artifacts the job actually produced.
                    // A missing file leaves the stored set incomplete, which
                    // future lookups treat as a miss — never a silent hit
                    // with absent side effects.
                    for (i, path) in artifacts.iter().enumerate() {
                        if let Ok(content) = std::fs::read_to_string(path) {
                            c.put_artifact(key, &descriptor, i, &content);
                        }
                    }
                }
                outputs[slot] = Some(payload);
            }
        }

        let outputs: Vec<String> = outputs
            .into_iter()
            .map(|o| o.expect("every job slot filled by cache or executor"))
            .collect();

        let stats = CampaignStats {
            name: self.name,
            total,
            cached,
            executed,
            skipped,
            wall_secs: start.elapsed().as_secs_f64(),
            workers,
        };
        if let Some(path) = &self.opts.summary {
            Self::append_summary(path, &stats);
        }
        SESSION_STATS
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(stats.clone());
        CampaignResult { outputs, stats }
    }

    /// Restores one cached artifact to its declared path, leaving a file
    /// that already holds it untouched ([`write_if_changed`]). Write
    /// failures are ignored like cache-store failures: replay is
    /// best-effort, and a reader that needs the file will see it missing
    /// and re-run without a cache (`--no-cache`) to regenerate it.
    fn replay_artifact(path: &std::path::Path, content: &str) {
        let _ = write_if_changed(path, content.as_bytes());
    }

    /// Appends one stats line to the JSONL trajectory file. I/O errors are
    /// ignored: accounting must never fail a campaign.
    fn append_summary(path: &std::path::Path, stats: &CampaignStats) {
        use std::io::Write;
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
        {
            let _ = writeln!(f, "{}", stats.to_json());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("proteus-runner-campaign-test-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn counted_jobs(n: usize, counter: &Arc<AtomicUsize>) -> Vec<SimJob> {
        (0..n)
            .map(|i| {
                let counter = Arc::clone(counter);
                SimJob::new(format!("test/campaign/{i}"), format!("j{i}"), move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                    format!("{}", i * 10)
                })
            })
            .collect()
    }

    #[test]
    fn uncached_campaign_runs_everything() {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut c = Campaign::new("t", CampaignOpts::default());
        for j in counted_jobs(5, &counter) {
            c.push(j);
        }
        let r = c.run();
        assert_eq!(r.outputs, vec!["0", "10", "20", "30", "40"]);
        assert_eq!(r.stats.total, 5);
        assert_eq!(r.stats.cached, 0);
        assert_eq!(r.stats.executed, 5);
        assert_eq!(counter.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn warm_cache_executes_nothing() {
        let dir = tmp_dir("warm");
        let opts = CampaignOpts {
            cache: Some(dir.clone()),
            ..CampaignOpts::default()
        };
        let counter = Arc::new(AtomicUsize::new(0));

        let mut first = Campaign::new("t", opts.clone());
        for j in counted_jobs(4, &counter) {
            first.push(j);
        }
        let r1 = first.run();
        assert_eq!(r1.stats.executed, 4);
        assert_eq!(counter.load(Ordering::Relaxed), 4);

        let mut second = Campaign::new("t", opts);
        for j in counted_jobs(4, &counter) {
            second.push(j);
        }
        let r2 = second.run();
        assert_eq!(r2.stats.cached, 4);
        assert_eq!(r2.stats.executed, 0);
        assert_eq!(counter.load(Ordering::Relaxed), 4, "no job re-ran");
        assert_eq!(r1.outputs, r2.outputs);
    }

    #[test]
    fn partial_cache_runs_only_new_jobs() {
        let dir = tmp_dir("partial");
        let opts = CampaignOpts {
            cache: Some(dir.clone()),
            ..CampaignOpts::default()
        };
        let counter = Arc::new(AtomicUsize::new(0));

        let mut first = Campaign::new("t", opts.clone());
        for j in counted_jobs(3, &counter) {
            first.push(j);
        }
        first.run();

        // Same three jobs plus one with a new descriptor.
        let mut second = Campaign::new("t", opts);
        for j in counted_jobs(3, &counter) {
            second.push(j);
        }
        second.push(SimJob::new("test/campaign/extra", "extra", || {
            "99".to_string()
        }));
        let r = second.run();
        assert_eq!(r.stats.cached, 3);
        assert_eq!(r.stats.executed, 1);
        assert_eq!(r.outputs, vec!["0", "10", "20", "99"]);
        assert_eq!(
            counter.load(Ordering::Relaxed),
            3,
            "cached jobs never re-ran"
        );
    }

    fn artifact_job(dir: &std::path::Path, counter: &Arc<AtomicUsize>) -> SimJob {
        let out = dir.join("sub").join("trace.jsonl");
        let out2 = out.clone();
        let counter = Arc::clone(counter);
        SimJob::new("test/artifact/0", "a0", move || {
            counter.fetch_add(1, Ordering::Relaxed);
            std::fs::create_dir_all(out2.parent().unwrap()).unwrap();
            std::fs::write(&out2, "{\"event\":\"mi_close\"}\n").unwrap();
            "payload".to_string()
        })
        .with_artifact(out)
    }

    #[test]
    fn cached_job_replays_artifacts() {
        let dir = tmp_dir("artifact-replay");
        let opts = CampaignOpts {
            cache: Some(dir.join("cache")),
            ..CampaignOpts::default()
        };
        let counter = Arc::new(AtomicUsize::new(0));
        let artifact = dir.join("sub").join("trace.jsonl");

        let mut first = Campaign::new("t", opts.clone());
        first.push(artifact_job(&dir, &counter));
        assert_eq!(first.run().stats.executed, 1);
        assert!(artifact.is_file());

        // Delete the artifact; a warm-cache run must restore it without
        // re-executing the job.
        std::fs::remove_file(&artifact).unwrap();
        let mut second = Campaign::new("t", opts);
        second.push(artifact_job(&dir, &counter));
        let r = second.run();
        assert_eq!(r.stats.cached, 1);
        assert_eq!(r.stats.executed, 0);
        assert_eq!(counter.load(Ordering::Relaxed), 1, "job must not re-run");
        assert_eq!(
            std::fs::read_to_string(&artifact).unwrap(),
            "{\"event\":\"mi_close\"}\n"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_stored_artifact_forces_re_execution() {
        let dir = tmp_dir("artifact-force");
        let opts = CampaignOpts {
            cache: Some(dir.join("cache")),
            ..CampaignOpts::default()
        };
        let counter = Arc::new(AtomicUsize::new(0));

        // Seed the cache with a payload-only entry (as if the job had been
        // run without artifacts declared — e.g. before a flag flip).
        let mut plain = Campaign::new("t", opts.clone());
        plain.push(SimJob::new("test/artifact/0", "a0", || {
            "payload".to_string()
        }));
        plain.run();

        // The artifact-declaring variant of the same descriptor must treat
        // the artifact-less entry as a miss and execute.
        let mut declared = Campaign::new("t", opts.clone());
        declared.push(artifact_job(&dir, &counter));
        let r = declared.run();
        assert_eq!(r.stats.cached, 0);
        assert_eq!(r.stats.executed, 1);
        assert_eq!(counter.load(Ordering::Relaxed), 1);

        // And now the stored set is complete: next run replays.
        let mut warm = Campaign::new("t", opts);
        warm.push(artifact_job(&dir, &counter));
        assert_eq!(warm.run().stats.cached, 1);
        assert_eq!(counter.load(Ordering::Relaxed), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_cache_entries_re_execute() {
        let dir = tmp_dir("damaged");
        let cache_dir = dir.join("cache");
        let opts = CampaignOpts {
            cache: Some(cache_dir.clone()),
            ..CampaignOpts::default()
        };
        let counter = Arc::new(AtomicUsize::new(0));
        let key = SimJob::new("test/artifact/0", "a0", String::new)
            .key()
            .hex();
        let run = |expect_executed: usize| {
            let mut c = Campaign::new("t", opts.clone());
            c.push(artifact_job(&dir, &counter));
            let r = c.run();
            assert_eq!(r.stats.executed, expect_executed);
            assert_eq!(r.stats.cached, 1 - expect_executed);
            assert_eq!(r.outputs, vec!["payload"]);
        };
        let cut_tail = |name: String| {
            let path = cache_dir.join(name);
            let text = std::fs::read_to_string(&path).unwrap();
            std::fs::write(&path, &text[..text.len() - 2]).unwrap();
        };
        run(1);
        run(0);

        // Truncated payload, truncated artifact, entry of the previous
        // format: each is a miss that re-executes and heals the entry.
        cut_tail(format!("{key}.job"));
        run(1);
        run(0);
        cut_tail(format!("{key}.a0"));
        run(1);
        run(0);
        std::fs::write(
            cache_dir.join(format!("{key}.job")),
            "proteus-runner-cache v1\ntest/artifact/0\n---\npayload",
        )
        .unwrap();
        run(1);
        run(0);
        assert_eq!(counter.load(Ordering::Relaxed), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn jobs_zero_means_all_cores() {
        let c = Campaign::new(
            "t",
            CampaignOpts {
                jobs: 0,
                ..CampaignOpts::default()
            },
        );
        let r = c.run();
        assert_eq!(r.stats.workers, Executor::default_workers());
        assert!(r.outputs.is_empty());
    }

    #[test]
    fn parallel_equals_serial_with_cache() {
        let mk = |jobs: usize, tag: &str| {
            let mut c = Campaign::new(
                "t",
                CampaignOpts {
                    jobs,
                    cache: Some(tmp_dir(tag)),
                    ..CampaignOpts::default()
                },
            );
            for i in 0..17u64 {
                c.push(SimJob::new(
                    format!("test/par/{i}"),
                    format!("p{i}"),
                    move || crate::payload::encode_floats(&[(i * i) as f64, 1.0 / i.max(1) as f64]),
                ));
            }
            c.run()
        };
        let serial = mk(1, "serial");
        let parallel = mk(8, "parallel");
        assert_eq!(serial.outputs, parallel.outputs);
    }

    #[test]
    fn push_dedup_shares_slots() {
        let mut c = Campaign::new("t", CampaignOpts::default());
        let mk = |d: &str, out: &'static str| {
            let out = out.to_string();
            SimJob::new(d, "j", move || out)
        };
        assert_eq!(c.push_dedup(mk("a", "1")), 0);
        assert_eq!(c.push_dedup(mk("b", "2")), 1);
        assert_eq!(
            c.push_dedup(mk("a", "1")),
            0,
            "duplicate descriptor reuses slot"
        );
        assert_eq!(c.len(), 2);
        let r = c.run();
        assert_eq!(r.outputs, vec!["1", "2"]);
    }

    #[test]
    fn summary_file_accumulates_one_line_per_run() {
        let dir = tmp_dir("summary");
        let path = dir.join("campaigns.jsonl");
        for round in 0..2 {
            let mut c = Campaign::new(
                "s",
                CampaignOpts {
                    summary: Some(path.clone()),
                    ..CampaignOpts::default()
                },
            );
            c.push(SimJob::new("test/summary/0", "j", || "1".to_string()));
            let r = c.run();
            let text = std::fs::read_to_string(&path).unwrap();
            assert_eq!(text.lines().count(), round + 1);
            assert_eq!(text.lines().last().unwrap(), r.stats.to_json());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn session_registry_records_completed_campaigns() {
        // Other tests run campaigns concurrently, so only assert on our own
        // uniquely named entries rather than on the registry as a whole.
        let mut c = Campaign::new("session-registry-probe", CampaignOpts::default());
        c.push(SimJob::new("test/registry/0", "j", || "1".to_string()));
        c.push(SimJob::new("test/registry/1", "j", || "2".to_string()));
        let r = c.run();

        let mine: Vec<CampaignStats> = take_session_stats()
            .into_iter()
            .filter(|s| s.name == "session-registry-probe")
            .collect();
        assert_eq!(mine, vec![r.stats]);
    }

    #[test]
    fn stats_json_shape() {
        let s = CampaignStats {
            name: "fig8".to_string(),
            total: 10,
            cached: 4,
            executed: 5,
            skipped: 1,
            wall_secs: 1.25,
            workers: 2,
        };
        assert_eq!(
            s.to_json(),
            "{\"campaign\":\"fig8\",\"total\":10,\"cached\":4,\"executed\":5,\"skipped\":1,\"wall_secs\":1.25,\"workers\":2}"
        );
    }

    #[test]
    fn shards_partition_the_miss_set() {
        let dir = tmp_dir("shard-partition");
        let opts = |shard| CampaignOpts {
            cache: Some(dir.clone()),
            shard,
            ..CampaignOpts::default()
        };
        let counter = Arc::new(AtomicUsize::new(0));
        let n = 16;

        // Run every shard of a 3-way split on the same cache.
        let mut total_executed = 0;
        let mut total_skipped = 0;
        for i in 0..3 {
            let mut c = Campaign::new("t", opts(Some((i, 3))));
            for j in counted_jobs(n, &counter) {
                c.push(j);
            }
            let r = c.run();
            // Earlier shards' results are cache hits here, never skips.
            assert_eq!(r.stats.total, n);
            total_executed += r.stats.executed;
            total_skipped += r.stats.skipped;
            for (slot, out) in r.outputs.iter().enumerate() {
                assert!(
                    *out == format!("{}", slot * 10) || *out == skipped_payload(),
                    "slot {slot} holds neither real payload nor placeholder"
                );
            }
        }
        // The three shards exactly cover the job set, with no double work
        // (later shards see earlier shards' output as cache hits, so some
        // of their out-of-shard jobs are hits rather than skips).
        assert_eq!(total_executed, n);
        assert_eq!(counter.load(Ordering::Relaxed), n);
        assert!(total_skipped > 0, "a 3-way shard must skip something");

        // After the shards ran (caches merged — here they shared one), an
        // unsharded pass is pure replay with complete outputs.
        let mut merged = Campaign::new("t", opts(None));
        for j in counted_jobs(n, &counter) {
            merged.push(j);
        }
        let r = merged.run();
        assert_eq!(r.stats.cached, n);
        assert_eq!(r.stats.executed, 0);
        assert_eq!(r.stats.skipped, 0);
        assert_eq!(counter.load(Ordering::Relaxed), n, "no job re-ran");
        let expect: Vec<String> = (0..n).map(|i| format!("{}", i * 10)).collect();
        assert_eq!(r.outputs, expect);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn skipped_jobs_leave_no_cache_entry() {
        let dir = tmp_dir("shard-nocache");
        let counter = Arc::new(AtomicUsize::new(0));
        // Single shard of a 64-way split: almost everything is skipped.
        let mut c = Campaign::new(
            "t",
            CampaignOpts {
                cache: Some(dir.clone()),
                shard: Some((0, 64)),
                ..CampaignOpts::default()
            },
        );
        for j in counted_jobs(8, &counter) {
            c.push(j);
        }
        let r = c.run();
        assert_eq!(r.stats.executed + r.stats.skipped, 8);
        assert!(r.stats.skipped > 0, "64-way shard must skip something");

        // A warm unsharded run re-executes exactly the skipped jobs: the
        // placeholders were never stored as results.
        let mut again = Campaign::new(
            "t",
            CampaignOpts {
                cache: Some(dir.clone()),
                ..CampaignOpts::default()
            },
        );
        for j in counted_jobs(8, &counter) {
            again.push(j);
        }
        let r2 = again.run();
        assert_eq!(r2.stats.cached, r.stats.executed);
        assert_eq!(r2.stats.executed, r.stats.skipped);
        let expect: Vec<String> = (0..8).map(|i| format!("{}", i * 10)).collect();
        assert_eq!(r2.outputs, expect);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "invalid shard")]
    fn invalid_shard_panics() {
        let c = Campaign::new(
            "t",
            CampaignOpts {
                shard: Some((3, 3)),
                ..CampaignOpts::default()
            },
        );
        c.run();
    }
}
