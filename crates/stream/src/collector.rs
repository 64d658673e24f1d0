//! The streaming collector: polls a router's monitoring feed through any
//! [`LgTransport`] until quiescent, maintaining a [`RouterState`].
//!
//! Every poll goes through the snapshot collector's own request loop
//! ([`request_with_retry`]: paced requests, bounded retries with
//! backoff, every wait routed through the [`Clock`] trait), so the same
//! chaos transports and virtual-clock campaigns drive both paths.
//! `TraceContext` propagation comes with the transport: a poll is an
//! ordinary [`LgRequest`], so the TCP framing wraps it in a
//! `TracedRequest` and the server adopts the caller's span exactly as it
//! does for summary/routes requests.

use looking_glass::api::{LgError, LgRequest, LgResponse};
use looking_glass::client::{
    request_with_retry, with_pacing_clock, Attempt, LgTransport, RetryPolicy,
};
use looking_glass::clock::Clock;

use crate::metrics;
use crate::state::RouterState;

/// Stream-collector pacing, retry, and dedup configuration.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Milliseconds between consecutive polls (pacing).
    pub poll_interval_ms: u64,
    /// Retries per failed poll.
    pub max_retries: u32,
    /// Backoff after a failure or rate-limit response.
    pub retry_backoff_ms: u64,
    /// Skip replayed frames at or below the applied high-water mark.
    /// The defended default; disable only to demonstrate the duplicate
    /// application the chaos update-conservation oracle catches.
    pub dedup_replays: bool,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            poll_interval_ms: 60,
            max_retries: 3,
            retry_backoff_ms: 500,
            dedup_replays: true,
        }
    }
}

/// Result of draining one feed to quiescence.
#[derive(Debug, Clone, Copy, Default)]
pub struct DrainReport {
    /// Poll requests issued (retries included).
    pub polls: u64,
    /// Polls that failed (transient or final).
    pub failures: u64,
    /// Frames received (before dedup).
    pub frames: u64,
    /// Events applied to the state store.
    pub applied: u64,
    /// Session resyncs observed during this drain.
    pub resyncs: u64,
    /// Simulated duration of the drain, ms.
    pub duration_ms: u64,
}

/// The streaming collector.
#[derive(Debug, Clone, Default)]
pub struct StreamCollector {
    config: StreamConfig,
}

impl StreamCollector {
    /// Collector with explicit configuration.
    pub fn new(config: StreamConfig) -> Self {
        StreamCollector { config }
    }

    /// Drain `state`'s feed through `transport` until the server reports
    /// an empty backlog. Picks the clock from the transport, like the
    /// snapshot collector does ([`with_pacing_clock`]).
    pub fn drain<T: LgTransport>(
        &self,
        state: &mut RouterState,
        transport: &mut T,
        start_ms: u64,
    ) -> Result<DrainReport, LgError> {
        with_pacing_clock(transport.is_real_time(), start_ms, |clock| {
            self.drain_with_clock(state, transport, clock)
        })
    }

    /// Drain the feed with every wait routed through `clock`.
    pub fn drain_with_clock<T: LgTransport>(
        &self,
        state: &mut RouterState,
        transport: &mut T,
        clock: &dyn Clock,
    ) -> Result<DrainReport, LgError> {
        self.drain_with_clock_into(state, transport, clock, &mut ())
    }

    /// [`StreamCollector::drain_with_clock`], forwarding every applied
    /// event's [`crate::state::RouteDelta`] to `consumer` — the hook an
    /// incremental analysis attaches to so derived aggregates advance in
    /// lockstep with the store.
    pub fn drain_with_clock_into<T: LgTransport>(
        &self,
        state: &mut RouterState,
        transport: &mut T,
        clock: &dyn Clock,
        consumer: &mut dyn crate::state::DeltaConsumer,
    ) -> Result<DrainReport, LgError> {
        let _span = obs::span!(obs::names::STREAM_DRAIN);
        let start_ms = clock.now_ms();
        let before = state.stats();
        let mut report = DrainReport::default();
        loop {
            let req = LgRequest::StreamPoll {
                session: state.session(),
                after: state.cursor(),
            };
            let resp = self.poll(transport, &req, clock, &mut report)?;
            let LgResponse::StreamEvents {
                session,
                frames,
                backlog,
                resync,
            } = resp
            else {
                return Err(LgError::Transport("stream: wrong response type".into()));
            };
            if resync && state.session() != 0 {
                // the server reset the monitoring session and is replaying
                // the feed; dedup (by original seq) absorbs the replay
                state.note_resync();
            }
            state.session = session;
            report.frames += frames.len() as u64;
            for frame in &frames {
                state.ingest_with(frame, self.config.dedup_replays, consumer);
            }
            if backlog == 0 {
                break;
            }
        }
        report.duration_ms = clock.now_ms().saturating_sub(start_ms);
        let after = state.stats();
        let m = metrics::handles();
        m.updates.add(after.applied - before.applied);
        m.dupes_dropped
            .add(after.dupes_dropped - before.dupes_dropped);
        m.synth_withdraws
            .add(after.synth_withdraws - before.synth_withdraws);
        m.resyncs.add(after.resyncs - before.resyncs);
        report.applied = after.applied - before.applied;
        report.resyncs = after.resyncs - before.resyncs;
        Ok(report)
    }

    /// [`request_with_retry`] under this collector's policy, counting
    /// attempts into `report` and the `stream.polls` metric.
    fn poll<T: LgTransport>(
        &self,
        transport: &mut T,
        req: &LgRequest,
        clock: &dyn Clock,
        report: &mut DrainReport,
    ) -> Result<LgResponse, LgError> {
        let policy = RetryPolicy {
            interval_ms: self.config.poll_interval_ms,
            max_retries: self.config.max_retries,
            backoff_ms: self.config.retry_backoff_ms,
        };
        let m = metrics::handles();
        request_with_retry(transport, req, clock, policy, |attempt| match attempt {
            Attempt::Sent => {
                report.polls += 1;
                m.polls.inc();
            }
            Attempt::Failed => report.failures += 1,
        })
    }
}
