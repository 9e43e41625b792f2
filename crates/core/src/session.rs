//! End-to-end streaming session simulation — the engine behind every
//! number in the paper's evaluation section.
//!
//! A session runs one game on one device over one link with one of the two
//! pipelines ([`Pipeline::GameStreamSr`] or [`Pipeline::Nemo`]) and records,
//! per frame: the upscaling critical path, the full MTP breakdown, bytes on
//! the wire, energy per stage, and (optionally) PSNR/perceptual quality
//! against the native render.
//!
//! # One step, two drivers
//!
//! The per-frame pipeline — faults, crash recovery, NACK, encode, the
//! freeze and deadline verdicts, SLO and the degradation ladder — lives in
//! the crate's shared session step, which the
//! [`fleet`](crate::fleet) simulator drives too. [`run_session`] injects
//! only what a lone session owns: its private downlink (a one-flow
//! [`SharedLink`] whose bottleneck follows the session's fault plan), the
//! energy meter, and the pixel path (decode, upscale, quality metrics),
//! which runs after the step lands a frame and before it closes it.
//!
//! # Canvas scaling
//!
//! The *data path* (render → codec → SR → metrics) may run on a reduced
//! canvas for tractability (e.g. 640×360 → 1280×720 instead of
//! 1280×720 → 2560×1440); quality trends are unaffected because both
//! pipelines see the same canvas. The *timing and energy models* always
//! evaluate at the paper's deployment scale (720p → 1440p): pixel counts
//! and byte volumes are rescaled to full scale before entering the platform
//! models, so latency/energy figures are canvas-independent.

use crate::client::GameStreamClient;
use crate::mtp::{MtpBreakdown, FULL_LR};
use crate::nemo::NemoClient;
use crate::recovery::RecoverySummary;
use crate::roi::plan_roi_window;
use crate::step::{InFlight, SessionStep};
use crate::GssError;
use gss_codec::FrameType;
use gss_frame::Frame;
use gss_metrics::{perceptual_distance, psnr, region_weighted_psnr};
use gss_net::{DropCause, FaultPlan, LinkProfile, SharedLink};
use gss_platform::{DeviceProfile, EnergyBreakdown, EnergyMeter, Rail, Stage};
use gss_render::GameId;
use gss_telemetry::{Counter, SinkHandle, TelemetrySummary};
use serde::{Deserialize, Serialize};

/// Which client pipeline a session runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Pipeline {
    /// This paper's RoI-assisted design.
    GameStreamSr,
    /// The NEMO baseline (SOTA).
    Nemo,
}

impl Pipeline {
    /// Report label.
    pub const fn label(self) -> &'static str {
        match self {
            Pipeline::GameStreamSr => "GameStreamSR",
            Pipeline::Nemo => "NEMO (SOTA)",
        }
    }
}

/// Full configuration of one simulated session.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Game workload.
    pub game: GameId,
    /// Client device model.
    pub device: DeviceProfile,
    /// Downlink profile.
    pub link: LinkProfile,
    /// Link RNG seed (same seed ⇒ same channel for both pipelines).
    pub link_seed: u64,
    /// Frames to stream.
    pub frames: usize,
    /// GOP length (keyframe interval in frames).
    pub gop_size: usize,
    /// Low-resolution canvas the data path runs on (even dimensions).
    pub lr_size: (usize, usize),
    /// Upscale factor.
    pub scale: usize,
    /// Compute PSNR/perceptual metrics per frame (the expensive part).
    pub evaluate_quality: bool,
    /// Intra quality of the codec.
    pub encoder_quality: u8,
    /// Optional temporal RoI stabilization (extension; `None` = raw
    /// per-frame detections, as in the paper).
    pub tracker: Option<crate::roi::TrackerConfig>,
    /// Optional closed-loop bitrate control (extension; `None` = fixed
    /// quantizers). The target is in *deployment-scale* bytes per frame
    /// (e.g. from [`gss_codec::RateControlConfig::for_bitrate_mbps`]); the
    /// session rescales it to the evaluation canvas internally.
    pub rate_control: Option<gss_codec::RateControlConfig>,
    /// Model packet loss end-to-end (extension): dropped frames are not
    /// decoded, the client freezes the last displayed frame, a NACK forces
    /// the server to code the next frame intra, and decoding resumes at
    /// that keyframe. `false` (default) assumes lossless delivery, like the
    /// paper's evaluation.
    pub loss_recovery: bool,
    /// Optional sink receiving the per-frame telemetry event stream
    /// ([`gss_telemetry::Event`]). Aggregates (stage percentiles, counters,
    /// deadline misses) are collected either way and land on
    /// [`SessionReport::telemetry`]; the sink only adds the raw events.
    pub telemetry: Option<SinkHandle>,
    /// Scripted fault timeline (extension): bandwidth collapses, outages
    /// and jitter spikes shape the link; NPU thermal-throttle ramps slow
    /// the SR pass; decoder stalls add decode latency. All deterministic —
    /// the same seed and plan replay the same session. The default empty
    /// plan reproduces the paper's fault-free channel.
    pub fault_plan: FaultPlan,
    /// Adaptive resilience controller (extension; shapes the GameStreamSR
    /// pipeline only): a rolling window of deadline misses and drops walks
    /// the degradation ladder ([`crate::degrade::LADDER`]) — shrinking the
    /// RoI window, swapping in cheaper SR tiers, cutting the rate target —
    /// and climbs back with hysteresis (the tuning is the constants in
    /// [`crate::degrade`]). `false` disables adaptation (the paper's
    /// fixed configuration).
    pub degradation: bool,
    /// Worker-pool capacity, captured once at construction and bound to
    /// the stepping thread for the whole run. Threading the handle through
    /// the config (instead of reading the process-wide knob at every use
    /// site) keeps concurrent sessions in one process from clobbering each
    /// other via [`gss_platform::pool::set_workers`].
    pub pool: gss_platform::pool::PoolHandle,
}

impl SessionConfig {
    /// A quality-evaluating session on the reduced 640×360 canvas —
    /// the default experimental configuration.
    pub fn new(game: GameId, device: DeviceProfile) -> Self {
        SessionConfig {
            game,
            device,
            link: LinkProfile::wifi(),
            link_seed: 0x6a6e,
            frames: 60,
            gop_size: 60,
            lr_size: (640, 360),
            scale: 2,
            evaluate_quality: true,
            encoder_quality: 75,
            tracker: None,
            rate_control: None,
            loss_recovery: false,
            telemetry: None,
            fault_plan: FaultPlan::default(),
            degradation: false,
            pool: gss_platform::pool::PoolHandle::current(),
        }
    }

    /// Disables quality metrics (latency/energy experiments).
    pub fn without_quality(mut self) -> Self {
        self.evaluate_quality = false;
        self
    }

    /// Sets the frame count.
    pub fn with_frames(mut self, frames: usize) -> Self {
        self.frames = frames;
        self
    }

    /// Streams telemetry events into `sink` (aggregation is always on;
    /// this adds the raw per-frame event stream, e.g. for a JSONL trace).
    pub fn with_telemetry(mut self, sink: SinkHandle) -> Self {
        self.telemetry = Some(sink);
        self
    }

    /// Injects a scripted fault timeline into the session.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Enables the adaptive degradation controller and, with it, loss
    /// recovery (NACK-paced keyframe resync after a dropped frame).
    pub fn with_degradation(mut self) -> Self {
        self.degradation = true;
        self.loss_recovery = true;
        self
    }

    /// Checks what [`run_session`] needs before it streams a frame: a
    /// nonzero GOP and scale, an even, nonempty canvas, and a canvas large
    /// enough for the device's planned RoI window.
    ///
    /// # Errors
    ///
    /// [`GssError::InvalidConfig`] naming the first offending field, or
    /// [`GssError::WindowTooLarge`] when the RoI window does not fit.
    pub(crate) fn validate(&self) -> Result<(), GssError> {
        let invalid = |field, reason| Err(GssError::InvalidConfig { field, reason });
        if self.gop_size == 0 {
            return invalid("gop_size", "must be nonzero");
        }
        if self.scale == 0 {
            return invalid("scale", "must be nonzero");
        }
        let (w, h) = self.lr_size;
        if w == 0 || h == 0 || w % 2 != 0 || h % 2 != 0 {
            return invalid("lr_size", "must be even and nonzero");
        }
        let plan = plan_roi_window(&self.device, self.scale, FULL_LR.width(), FULL_LR.height());
        let window = plan.scaled_to_canvas(w, FULL_LR.width());
        if window.0 > w || window.1 > h {
            return Err(GssError::WindowTooLarge {
                window,
                frame: self.lr_size,
            });
        }
        Ok(())
    }
}

/// Per-frame measurements.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FrameRecord {
    /// Frame index.
    pub index: usize,
    /// Reference (intra) or non-reference (inter).
    pub frame_type: FrameType,
    /// Upscaling-stage critical path, ms (deployment scale). For the
    /// GameStreamSR pipeline the NPU and GPU legs overlap, so this is
    /// `max(upscale_npu_ms, upscale_gpu_ms) + upscale_merge_ms`.
    pub upscale_ms: f64,
    /// NPU leg of the upscale stage (patch SR), ms. Runs concurrently
    /// with the GPU leg; zero on CPU-only paths and frozen frames.
    pub upscale_npu_ms: f64,
    /// GPU leg of the upscale stage (full-frame interpolation), ms.
    pub upscale_gpu_ms: f64,
    /// Patch-merge cost paid after the slower leg completes, ms.
    pub upscale_merge_ms: f64,
    /// Decode latency, ms (deployment scale).
    pub decode_ms: f64,
    /// Full MTP breakdown.
    pub mtp: MtpBreakdown,
    /// Transmitted bytes (deployment scale).
    pub bytes: usize,
    /// Whether the link dropped the frame (latency uses the queue-limit
    /// bound; with [`SessionConfig::loss_recovery`] the frame is also not
    /// decoded).
    pub dropped: bool,
    /// Why the link dropped the frame (`None` when delivered): queue
    /// overflow under congestion, or a scripted outage window.
    pub drop_cause: Option<DropCause>,
    /// Degradation-ladder rung in effect while this frame was processed
    /// (0 = full quality). Without a controller this is the rung that
    /// capability negotiation pinned the session to.
    pub rung: usize,
    /// Whether the client displayed a stale (frozen) frame because of loss
    /// recovery.
    pub frozen: bool,
    /// Whether the upscaling stage fit the 16.66 ms real-time budget — the
    /// per-frame deadline a 60 FPS pipeline must hold (end-to-end MTP is
    /// longer but pipelined). Frozen frames consume no upscale time and
    /// trivially meet it.
    pub deadline_met: bool,
    /// Luma PSNR against the native render, dB (when evaluated).
    pub psnr_db: Option<f64>,
    /// Foveated PSNR: squared error inside the detected RoI weighted 4x
    /// (quality where the player looks; when evaluated).
    pub foveated_psnr_db: Option<f64>,
    /// Perceptual distance against the native render (when evaluated).
    pub perceptual: Option<f64>,
}

/// A completed session.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionReport {
    /// Which pipeline ran.
    pub pipeline: Pipeline,
    /// Game workload.
    pub game: GameId,
    /// Device name.
    pub device: String,
    /// Per-frame records.
    pub frames: Vec<FrameRecord>,
    /// Session energy breakdown (deployment scale).
    pub energy: EnergyBreakdown,
    /// Aggregated telemetry: per-stage latency percentiles, counters,
    /// gauges and deadline-miss accounting for the whole session.
    pub telemetry: TelemetrySummary,
    /// Root-cause attribution of every deadline miss and frozen stall,
    /// judged frame by frame as the session streamed.
    pub attribution: gss_telemetry::SessionAttribution,
    /// Service-level-objective standings: breaches and worst burn rates
    /// for the standard objectives ([`gss_telemetry::SloEngine::standard`]).
    pub slo: gss_telemetry::SloSummary,
    /// Decoder-crash recovery history (`None` when the fault plan scripts
    /// no crash — the recovery machine is only armed when needed, so
    /// crash-free sessions replay byte-identically to earlier builds).
    pub recovery: Option<RecoverySummary>,
}

impl SessionReport {
    fn frames_of(&self, ty: FrameType) -> impl Iterator<Item = &FrameRecord> {
        self.frames.iter().filter(move |f| f.frame_type == ty)
    }

    /// Mean upscaling latency for a frame class, ms.
    pub fn mean_upscale_ms(&self, ty: FrameType) -> f64 {
        mean(self.frames_of(ty).map(|f| f.upscale_ms))
    }

    /// Mean upscaling latency over all frames (GOP average), ms.
    pub fn mean_upscale_ms_all(&self) -> f64 {
        mean(self.frames.iter().map(|f| f.upscale_ms))
    }

    /// Output frame rate implied by the upscaling stage for a frame class.
    pub fn upscale_fps(&self, ty: FrameType) -> f64 {
        1000.0 / self.mean_upscale_ms(ty)
    }

    /// Mean end-to-end MTP latency for a frame class, ms.
    pub fn mean_mtp_ms(&self, ty: FrameType) -> f64 {
        mean(self.frames_of(ty).map(|f| f.mtp.total_ms()))
    }

    /// Maximum MTP latency across all frames, ms.
    pub fn max_mtp_ms(&self) -> f64 {
        self.frames
            .iter()
            .map(|f| f.mtp.total_ms())
            .fold(0.0, f64::max)
    }

    /// Fraction of frames whose upscaling met the 16.66 ms budget.
    pub fn realtime_fraction(&self) -> f64 {
        let ok = self.frames.iter().filter(|f| f.deadline_met).count();
        ok as f64 / self.frames.len().max(1) as f64
    }

    /// Effective display rate: the 60 FPS source rate times the fraction
    /// of frames that met the real-time deadline — a frame that misses its
    /// slot is a repeat from the display's point of view.
    pub fn fps_effective(&self) -> f64 {
        60.0 * self.realtime_fraction()
    }

    /// Session mean PSNR (dB) when quality was evaluated.
    pub fn mean_psnr_db(&self) -> Option<f64> {
        let vals: Vec<f64> = self.frames.iter().filter_map(|f| f.psnr_db).collect();
        if vals.is_empty() {
            None
        } else {
            Some(mean(vals.into_iter()))
        }
    }

    /// Session mean foveated PSNR (dB) when quality was evaluated.
    pub fn mean_foveated_psnr_db(&self) -> Option<f64> {
        let vals: Vec<f64> = self
            .frames
            .iter()
            .filter_map(|f| f.foveated_psnr_db)
            .collect();
        if vals.is_empty() {
            None
        } else {
            Some(mean(vals.into_iter()))
        }
    }

    /// Session mean perceptual distance when quality was evaluated.
    pub fn mean_perceptual(&self) -> Option<f64> {
        let vals: Vec<f64> = self.frames.iter().filter_map(|f| f.perceptual).collect();
        if vals.is_empty() {
            None
        } else {
            Some(mean(vals.into_iter()))
        }
    }

    /// Per-frame PSNR series (NaN where not evaluated).
    pub fn psnr_series(&self) -> Vec<f64> {
        self.frames
            .iter()
            .map(|f| f.psnr_db.unwrap_or(f64::NAN))
            .collect()
    }

    /// Total bytes on the wire.
    pub fn total_bytes(&self) -> usize {
        self.frames.iter().map(|f| f.bytes).sum()
    }

    /// Mean stream bitrate in Mbps at 60 FPS.
    pub fn mean_bitrate_mbps(&self) -> f64 {
        let bytes_per_frame = self.total_bytes() as f64 / self.frames.len().max(1) as f64;
        bytes_per_frame * 8.0 * 60.0 / 1e6
    }

    /// Longest run of consecutive frozen frames — the worst stall a viewer
    /// sat through, in frames (÷60 for seconds).
    pub fn longest_frozen_run(&self) -> usize {
        let mut best = 0;
        let mut run = 0;
        for f in &self.frames {
            if f.frozen {
                run += 1;
                best = best.max(run);
            } else {
                run = 0;
            }
        }
        best
    }

    /// Deepest degradation-ladder rung the session visited (0 = never
    /// degraded).
    pub fn max_rung(&self) -> usize {
        self.frames.iter().map(|f| f.rung).max().unwrap_or(0)
    }

    /// Frames dropped by the link for a given cause.
    pub fn drops_with_cause(&self, cause: DropCause) -> usize {
        self.frames
            .iter()
            .filter(|f| f.drop_cause == Some(cause))
            .count()
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        f64::NAN
    } else {
        sum / n as f64
    }
}

/// Runs one session with one pipeline.
///
/// # Errors
///
/// Returns [`GssError::InvalidConfig`] for a zero GOP or scale or an odd
/// or empty canvas, and [`GssError::WindowTooLarge`] for a canvas smaller
/// than the device's RoI window, before streaming anything. Propagates
/// codec failures (which would indicate a bug — the simulated stream is
/// delivered losslessly to the decoder).
pub fn run_session(config: &SessionConfig, pipeline: Pipeline) -> Result<SessionReport, GssError> {
    config.validate()?;
    // Pin the pool capacity captured at construction to this stepping
    // thread: a concurrent session flipping the global worker knob must
    // not reconfigure this session's kernels mid-frame.
    let _pool = config.pool.bind();
    let label = format!(
        "{} | {} | {}",
        pipeline.label(),
        config.device.name,
        config.link.name
    );
    let mut step = SessionStep::new(config, pipeline, label);
    let mut link = SharedLink::with_faults(
        config.link.clone(),
        config.link_seed,
        config.fault_plan.clone(),
    );
    let flow = link.add_flow(FaultPlan::default());
    let mut meter = EnergyMeter::new(&config.device);
    let mut ours_client = GameStreamClient::new(config.scale);
    let mut nemo_client = NemoClient::new(config.scale);
    let mut last_displayed: Option<Frame> = None;
    let mut frames = Vec::with_capacity(config.frames);
    for i in 0..config.frames {
        let send_time = i as f64 * 1000.0 / 60.0;
        let (staged, packet) = step.open(send_time)?;
        let mut frame = step.deliver(staged, &mut link, flow, 1.0);
        charge_energy(&mut meter, pipeline, &frame);

        // ---- data path + quality (between deliver and seal, so the
        // client's counters land inside the frame) ------------------------
        if config.evaluate_quality {
            let displayed = if frame.record.frozen {
                last_displayed.clone()
            } else {
                let out = match pipeline {
                    Pipeline::GameStreamSr => {
                        ours_client.set_model_tier(step.sr_tier());
                        ours_client.process(&packet.encoded, packet.roi)?.frame
                    }
                    Pipeline::Nemo => nemo_client.process(&packet.encoded)?.frame,
                };
                // an inter frame is rebuilt from motion and residual;
                // GameStreamSR upscales every frame, NEMO only keyframes
                let inter = packet.frame_type == FrameType::Inter;
                if inter {
                    step.rec().incr(Counter::FramesReconstructed);
                }
                if !inter || pipeline == Pipeline::GameStreamSr {
                    step.rec().incr(Counter::FramesUpscaled);
                }
                Some(out)
            };
            // scoring `displayed` while `last_displayed` holds a copy looks
            // redundant, but it fixes the order of the HR frame allocations:
            // scoring from `last_displayed` alone measured ~12% lower peak
            // RSS for GameStreamSR and ~11% higher for NEMO (perfbench,
            // glibc malloc with one arena)
            last_displayed = displayed.clone();
            // nothing is scored before the first displayed frame
            if let Some(out) = &displayed {
                let truth = &packet.ground_truth_hr;
                let (hw, hh) = truth.size();
                // the shipped RoI is even-aligned at lr scale; keep the HR
                // evaluation window on even luma coordinates too so the
                // weighted-PSNR region matches what a 4:2:0 merge touched
                let roi_hr = packet
                    .roi
                    .scaled(config.scale)
                    .aligned_even()
                    .clamp_to(hw, hh);
                let record = &mut frame.record;
                record.psnr_db = Some(psnr(truth, out)?);
                record.foveated_psnr_db = Some(region_weighted_psnr(truth, out, roi_hr, 4.0)?);
                record.perceptual = Some(perceptual_distance(truth, out)?);
            }
        }

        step.seal(&mut frame);
        step.adapt(&frame);
        frames.push(frame.record);
    }

    let done = step.finish();
    Ok(SessionReport {
        pipeline,
        game: config.game,
        device: config.device.name.to_owned(),
        frames,
        energy: meter.breakdown(),
        telemetry: done.telemetry,
        attribution: done.attribution,
        slo: done.slo,
        recovery: done.recovery,
    })
}

/// Charges one frame to the energy meter: the radio always, the decode and
/// upscale rails only when the frame was not frozen.
fn charge_energy(meter: &mut EnergyMeter, pipeline: Pipeline, frame: &InFlight) {
    let (f, t) = (&frame.record, &frame.upscale);
    meter.add_network_bytes(f.bytes);
    if !f.frozen {
        match pipeline {
            Pipeline::GameStreamSr => {
                meter.add_busy(Stage::Decode, Rail::HwDecoder, f.decode_ms);
                meter.add_busy(Stage::Upscale, Rail::Npu, t.npu_ms);
                meter.add_busy(Stage::Upscale, Rail::Gpu, t.gpu_ms + t.merge_ms);
            }
            Pipeline::Nemo => {
                meter.add_busy(Stage::Decode, Rail::CpuHeavy, f.decode_ms);
                match f.frame_type {
                    FrameType::Intra => meter.add_busy(Stage::Upscale, Rail::Npu, t.npu_ms),
                    FrameType::Inter => meter.add_busy(Stage::Upscale, Rail::CpuLight, t.cpu_ms),
                }
            }
        }
    }
    meter.add_display_frame();
}

/// Paired run of both pipelines on identical streams/channels.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ComparisonReport {
    /// GameStreamSR session.
    pub ours: SessionReport,
    /// NEMO session.
    pub sota: SessionReport,
}

/// Runs both pipelines with the same configuration (same game frames, same
/// codec stream, same channel trace) and pairs the reports.
///
/// # Errors
///
/// Propagates session errors.
pub fn run_comparison(config: &SessionConfig) -> Result<ComparisonReport, GssError> {
    Ok(ComparisonReport {
        ours: run_session(config, Pipeline::GameStreamSr)?,
        sota: run_session(config, Pipeline::Nemo)?,
    })
}

impl ComparisonReport {
    /// Reference-frame upscaling speedup (paper Fig. 10a: ≈13–14×).
    pub fn ref_upscale_speedup(&self) -> f64 {
        self.sota.mean_upscale_ms(FrameType::Intra) / self.ours.mean_upscale_ms(FrameType::Intra)
    }

    /// Non-reference-frame upscaling speedup (paper: ≥1.5×).
    pub fn nonref_upscale_speedup(&self) -> f64 {
        self.sota.mean_upscale_ms(FrameType::Inter) / self.ours.mean_upscale_ms(FrameType::Inter)
    }

    /// Whole-GOP upscaling speedup (paper: ≈2×).
    pub fn gop_upscale_speedup(&self) -> f64 {
        self.sota.mean_upscale_ms_all() / self.ours.mean_upscale_ms_all()
    }

    /// Reference-frame MTP improvement (paper Fig. 10b: ≈3.8–4×).
    pub fn ref_mtp_improvement(&self) -> f64 {
        self.sota.mean_mtp_ms(FrameType::Intra) / self.ours.mean_mtp_ms(FrameType::Intra)
    }

    /// Overall energy savings versus SOTA (paper Fig. 11: 26–33%).
    pub fn energy_savings(&self) -> f64 {
        1.0 - self.ours.energy.total_mj / self.sota.energy.total_mj
    }

    /// Mean PSNR gain over SOTA in dB (paper Fig. 14a: ≈2 dB).
    pub fn psnr_gain_db(&self) -> Option<f64> {
        Some(self.ours.mean_psnr_db()? - self.sota.mean_psnr_db()?)
    }

    /// Perceptual-distance improvement (SOTA − ours; positive is better,
    /// paper Fig. 14b: ≈0.2).
    pub fn perceptual_improvement(&self) -> Option<f64> {
        Some(self.sota.mean_perceptual()? - self.ours.mean_perceptual()?)
    }

    /// Foveated-PSNR gain over SOTA in dB (quality where the player looks,
    /// RoI weighted 4x; extension metric).
    pub fn foveated_psnr_gain_db(&self) -> Option<f64> {
        Some(self.ours.mean_foveated_psnr_db()? - self.sota.mean_foveated_psnr_db()?)
    }

    /// Both pipelines' telemetry summaries, ours first.
    pub fn telemetry(&self) -> (&TelemetrySummary, &TelemetrySummary) {
        (&self.ours.telemetry, &self.sota.telemetry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degrade::LADDER;

    fn tiny_config() -> SessionConfig {
        SessionConfig {
            frames: 6,
            gop_size: 3,
            lr_size: (128, 72),
            ..SessionConfig::new(GameId::G3, DeviceProfile::s8_tab())
        }
    }

    #[test]
    fn session_produces_one_record_per_frame() {
        let r = run_session(&tiny_config(), Pipeline::GameStreamSr).unwrap();
        assert_eq!(r.frames.len(), 6);
        assert_eq!(
            r.frames
                .iter()
                .filter(|f| f.frame_type == FrameType::Intra)
                .count(),
            2
        );
    }

    #[test]
    fn frame_records_carry_the_npu_gpu_overlap_breakdown() {
        let cfg = tiny_config().without_quality();
        let r = run_session(&cfg, Pipeline::GameStreamSr).unwrap();
        for f in &r.frames {
            if f.frozen {
                assert_eq!(f.upscale_ms, 0.0);
                continue;
            }
            // NPU and GPU legs overlap: the critical path is the slower
            // leg plus the merge, never the sum of the legs
            assert_eq!(
                f.upscale_ms,
                f.upscale_npu_ms.max(f.upscale_gpu_ms) + f.upscale_merge_ms,
                "frame {}",
                f.index
            );
            assert!(f.upscale_npu_ms > 0.0 && f.upscale_gpu_ms > 0.0);
            assert!(f.upscale_ms < f.upscale_npu_ms + f.upscale_gpu_ms + f.upscale_merge_ms);
        }
    }

    #[test]
    fn ours_meets_realtime_sota_does_not() {
        let cfg = tiny_config().without_quality();
        let ours = run_session(&cfg, Pipeline::GameStreamSr).unwrap();
        let sota = run_session(&cfg, Pipeline::Nemo).unwrap();
        assert_eq!(ours.realtime_fraction(), 1.0);
        assert_eq!(sota.realtime_fraction(), 0.0);
    }

    #[test]
    fn comparison_headline_shapes_hold() {
        // a full 60-frame GOP so the reference/non-reference energy mix
        // matches the deployment (paper Fig. 11 band: 26-33%)
        let cfg = SessionConfig {
            gop_size: 60,
            lr_size: (128, 72),
            ..SessionConfig::new(GameId::G3, DeviceProfile::s8_tab())
        }
        .without_quality()
        .with_frames(60);
        let cmp = run_comparison(&cfg).unwrap();
        let ref_speedup = cmp.ref_upscale_speedup();
        assert!((12.0..15.0).contains(&ref_speedup), "{ref_speedup:.2}");
        assert!(cmp.nonref_upscale_speedup() > 1.5);
        let gop = cmp.gop_upscale_speedup();
        assert!((1.5..2.5).contains(&gop), "gop {gop:.2}");
        let savings = cmp.energy_savings();
        assert!((0.20..0.40).contains(&savings), "savings {savings:.3}");
    }

    #[test]
    fn quality_metrics_present_when_enabled() {
        // the pixel path also counts its work: GameStreamSR upscales every
        // frame, NEMO only the two keyframes, and both rebuild the four
        // inter frames
        for (pipeline, upscaled) in [(Pipeline::GameStreamSr, 6), (Pipeline::Nemo, 2)] {
            let r = run_session(&tiny_config(), pipeline).unwrap();
            assert!(r.mean_psnr_db().is_some());
            assert!(r.mean_perceptual().is_some());
            let t = &r.telemetry;
            assert_eq!(t.counter(Counter::FramesUpscaled), upscaled, "{pipeline:?}");
            assert_eq!(t.counter(Counter::FramesReconstructed), 4, "{pipeline:?}");
        }
        let r2 = run_session(&tiny_config().without_quality(), Pipeline::GameStreamSr).unwrap();
        assert!(r2.mean_psnr_db().is_none());
    }

    #[test]
    fn mtp_under_budget_for_ours() {
        let cfg = tiny_config().without_quality();
        let ours = run_session(&cfg, Pipeline::GameStreamSr).unwrap();
        assert!(ours.max_mtp_ms() < 100.0, "{:.1}", ours.max_mtp_ms());
    }

    #[test]
    fn loss_recovery_freezes_then_recovers() {
        // strangle the link mid-session so frames drop; with recovery on,
        // unusable frames freeze and a forced keyframe resumes decoding
        let mut cfg = SessionConfig {
            frames: 16,
            gop_size: 16,
            lr_size: (128, 72),
            loss_recovery: true,
            ..SessionConfig::new(GameId::G3, DeviceProfile::s8_tab())
        };
        cfg.link.bandwidth_mbps = 14.0; // tight: some frames will drop
        cfg.link.bandwidth_cv = 0.6;
        let r = run_session(&cfg, Pipeline::GameStreamSr).unwrap();
        let dropped: Vec<usize> = r
            .frames
            .iter()
            .filter(|f| f.dropped)
            .map(|f| f.index)
            .collect();
        assert!(!dropped.is_empty(), "link never dropped — tighten the test");
        // every dropped frame is frozen
        for f in &r.frames {
            if f.dropped {
                assert!(f.frozen, "frame {} dropped but not frozen", f.index);
            }
        }
        // a keyframe follows each drop within a few frames (NACK recovery)
        let first_drop = dropped[0];
        let recovered = r.frames[first_drop + 1..]
            .iter()
            .find(|f| !f.frozen)
            .expect("stream never recovered");
        assert!(
            recovered.frame_type == FrameType::Intra || !r.frames[first_drop + 1].frozen,
            "recovery frame {} should be a keyframe",
            recovered.index
        );
        // frozen frames consume no decode/upscale time
        let frozen = r.frames.iter().find(|f| f.frozen).unwrap();
        assert_eq!(frozen.decode_ms, 0.0);
        assert_eq!(frozen.upscale_ms, 0.0);
    }

    #[test]
    fn telemetry_summary_is_consistent_with_frame_records() {
        use gss_telemetry::{Gauge, Stage};
        let cfg = tiny_config().without_quality();
        let r = run_session(&cfg, Pipeline::GameStreamSr).unwrap();
        let t = &r.telemetry;
        assert_eq!(t.frames as usize, r.frames.len());
        assert_eq!(
            t.deadline_misses as usize,
            r.frames.iter().filter(|f| !f.deadline_met).count()
        );
        assert_eq!(t.counter(Counter::BytesOnWire) as usize, r.total_bytes());
        assert_eq!(t.counter(Counter::FramesEncoded) as usize, r.frames.len());
        // every stage of the ours pipeline shows up with full percentiles
        for stage in [
            Stage::Render,
            Stage::DepthCapture,
            Stage::RoiDetect,
            Stage::Encode,
            Stage::LinkTransfer,
            Stage::Decode,
            Stage::NpuSr,
            Stage::GpuInterp,
            Stage::Merge,
            Stage::Display,
        ] {
            let s = t
                .stage(stage)
                .unwrap_or_else(|| panic!("{} missing", stage.label()));
            assert!(s.dist.p50 > 0.0 && s.dist.p50 <= s.dist.p95 && s.dist.p95 <= s.dist.p99);
        }
        // whole-frame MTP distribution covers every frame and matches the
        // per-record extremes to bucket resolution
        let mtp = t.mtp_ms.expect("mtp histogram");
        assert_eq!(mtp.count as usize, r.frames.len());
        assert!((mtp.max - r.max_mtp_ms()).abs() < 1e-9);
        // the RoI pipeline gauges the detected area every frame
        let roi = t.gauge(Gauge::RoiAreaPx).expect("roi area gauged");
        assert_eq!(roi.count as usize, r.frames.len());
    }

    #[test]
    fn fps_effective_follows_the_deadline_ledger() {
        let cfg = tiny_config().without_quality();
        let ours = run_session(&cfg, Pipeline::GameStreamSr).unwrap();
        let sota = run_session(&cfg, Pipeline::Nemo).unwrap();
        assert_eq!(ours.fps_effective(), 60.0);
        assert_eq!(sota.fps_effective(), 0.0);
        assert_eq!(ours.telemetry.deadline_misses, 0);
        assert_eq!(sota.telemetry.deadline_misses, sota.telemetry.frames);
    }

    #[test]
    fn memory_sink_sees_the_event_stream() {
        use gss_telemetry::{Event, MemorySink, SinkHandle};
        let mem = MemorySink::new();
        let cfg = tiny_config()
            .without_quality()
            .with_telemetry(SinkHandle::new(mem.clone()));
        run_session(&cfg, Pipeline::GameStreamSr).unwrap();
        let events = mem.events();
        assert!(matches!(events[0], Event::SessionStart { .. }));
        assert!(matches!(
            events.last(),
            Some(Event::SessionEnd { frames: 6, .. })
        ));
        let frame_ends = events
            .iter()
            .filter(|e| matches!(e, Event::FrameEnd { .. }))
            .count();
        assert_eq!(frame_ends, 6);
    }

    #[test]
    fn lossless_default_never_freezes() {
        let cfg = tiny_config().without_quality();
        let r = run_session(&cfg, Pipeline::GameStreamSr).unwrap();
        assert!(r.frames.iter().all(|f| !f.frozen));
    }

    #[test]
    fn decoder_crash_freezes_then_recovers_with_a_summary() {
        use gss_net::{FaultEvent, FaultKind};
        // one crash at 150 ms in an otherwise clean 60-frame session; the
        // machine must be armed implicitly (no loss_recovery flag set)
        let plan = FaultPlan::new(vec![FaultEvent {
            start_ms: 150.0,
            end_ms: 250.0,
            kind: FaultKind::DecoderCrash,
        }]);
        let cfg = SessionConfig {
            frames: 60,
            lr_size: (128, 72),
            ..SessionConfig::new(GameId::G3, DeviceProfile::s8_tab())
        }
        .without_quality()
        .with_faults(plan);
        let r = run_session(&cfg, Pipeline::GameStreamSr).unwrap();
        let rec = r.recovery.as_ref().expect("machine was armed");
        assert_eq!(rec.crashes, 1);
        assert_eq!(rec.recovery_frames.len(), 1, "the episode must complete");
        assert!(!rec.safe_profile_fallback);
        assert!(rec.frozen_frames > 0, "recovery frames freeze the display");
        // the client discarded delivered frames while the decoder was down
        assert!(r.drops_with_cause(DropCause::DecoderDown) > 0);
        assert!(r.telemetry.counter(Counter::DecoderCrashes) == 1);
        assert!(r.telemetry.counter(Counter::DropsDecoderDown) > 0);
        // no permanent freeze: the tail of the session streams normally
        assert!(r.frames[50..].iter().all(|f| !f.frozen));
        // frozen repeats trivially meet the deadline, so the episode must
        // not stall the session beyond its budgets (drain 2 + reconfigure
        // 3 + resync ≤ await 8)
        assert!(r.longest_frozen_run() <= 13, "{}", r.longest_frozen_run());
    }

    #[test]
    fn crash_storm_backs_off_into_the_safe_profile_fallback() {
        // the canonical storm at 0.2x: five crashes, the last four inside
        // one stability window — strikes 2..4 grow the backoff and the
        // 4th crosses max_strikes into the permanent ladder floor
        let scale = 0.2;
        let frames = (FaultPlan::crash_storm_duration_ms(scale) * 60.0 / 1000.0).ceil() as usize;
        let cfg = SessionConfig {
            frames,
            gop_size: 60,
            lr_size: (128, 72),
            rate_control: Some(gss_codec::RateControlConfig::for_bitrate_mbps(12.0)),
            ..SessionConfig::new(GameId::G3, DeviceProfile::s8_tab())
        }
        .without_quality()
        .with_faults(FaultPlan::crash_storm_scaled(scale))
        .with_degradation();
        let r = run_session(&cfg, Pipeline::GameStreamSr).unwrap();
        let rec = r.recovery.as_ref().expect("machine was armed");
        assert_eq!(rec.crashes, 5, "every scripted crash must be sampled");
        assert!(rec.safe_profile_fallback, "repeat offences must trip it");
        assert!(rec.reconfigures >= 5);
        // every burst eventually recovered (at this compressed clock the
        // rapid-fire crashes merge into one long episode, but it ends):
        // a crash never became a permanent freeze
        assert!(rec.recovery_frames.len() >= 2, "{:?}", rec.recovery_frames);
        assert!(!r.frames.last().unwrap().frozen);
        // the fallback pins the ladder to its floor for the rest of the run
        assert_eq!(r.frames.last().unwrap().rung, LADDER.len() - 1);
        // deterministic replay: the same plan reproduces the same session
        let r2 = run_session(&cfg, Pipeline::GameStreamSr).unwrap();
        assert_eq!(format!("{:?}", r.frames), format!("{:?}", r2.frames));
        assert_eq!(r.recovery, r2.recovery);
    }

    #[test]
    fn capability_negotiation_clamps_the_weak_tier() {
        // same weak NPU, once with its honest capability set and once
        // claiming flagship capabilities: the honest run negotiates the
        // EDSR-16 rung and its upscale path must be strictly cheaper
        let run = |device: DeviceProfile| {
            let cfg = SessionConfig {
                frames: 12,
                lr_size: (128, 72),
                ..SessionConfig::new(GameId::G3, device)
            }
            .without_quality();
            run_session(&cfg, Pipeline::GameStreamSr).unwrap()
        };
        let honest = run(DeviceProfile::tier_low());
        let lying = run(DeviceProfile {
            capabilities: gss_platform::DeviceCapabilities::flagship(),
            ..DeviceProfile::tier_low()
        });
        assert!(
            honest.mean_upscale_ms_all() < lying.mean_upscale_ms_all(),
            "negotiated clamp must shed NPU load: {:.2} vs {:.2}",
            honest.mean_upscale_ms_all(),
            lying.mean_upscale_ms_all()
        );
        // without a controller every honest frame reports the rung that
        // negotiation pinned, as a one-session fleet does
        let offer = crate::negotiate::StreamOffer {
            lr_size: (128, 72),
            scale_factor: 2,
            decode_pixels: crate::mtp::FULL_LR.pixels(),
            codec_profile: gss_platform::CodecProfile::High,
        };
        let top =
            crate::negotiate::negotiate(&offer, &DeviceProfile::tier_low().capabilities).top_rung;
        assert!(top > 0, "the weak tier must be clamped");
        for f in &honest.frames {
            assert_eq!(f.rung, top, "frame {} reports the wrong rung", f.index);
        }
        assert_eq!(lying.max_rung(), 0);
        // flagship reference devices negotiate the identity — nothing in
        // their session may change (guards byte-compat of old baselines)
        let s8 = run(DeviceProfile::s8_tab());
        assert_eq!(s8.recovery, None);
        assert_eq!(s8.max_rung(), 0);
    }

    /// The field `run_session` names when it refuses `config`.
    fn refused_field(config: SessionConfig) -> &'static str {
        match run_session(&config, Pipeline::GameStreamSr) {
            Err(GssError::InvalidConfig { field, .. }) => field,
            Err(e) => panic!("refused with the wrong error: {e}"),
            Ok(_) => panic!("ran an invalid config"),
        }
    }

    #[test]
    fn a_zero_gop_is_refused() {
        let cfg = SessionConfig {
            gop_size: 0,
            ..tiny_config()
        };
        assert_eq!(refused_field(cfg), "gop_size");
    }

    #[test]
    fn a_zero_scale_is_refused() {
        let cfg = SessionConfig {
            scale: 0,
            ..tiny_config()
        };
        assert_eq!(refused_field(cfg), "scale");
    }

    #[test]
    fn an_odd_canvas_is_refused() {
        let cfg = SessionConfig {
            lr_size: (128, 71),
            ..tiny_config()
        };
        assert_eq!(refused_field(cfg), "lr_size");
    }

    #[test]
    fn an_empty_canvas_is_refused() {
        let cfg = SessionConfig {
            lr_size: (0, 72),
            ..tiny_config()
        };
        assert_eq!(refused_field(cfg), "lr_size");
    }

    #[test]
    fn a_canvas_smaller_than_the_roi_window_is_refused() {
        let cfg = SessionConfig {
            lr_size: (2, 2),
            ..tiny_config()
        };
        match run_session(&cfg, Pipeline::Nemo) {
            Err(GssError::WindowTooLarge { window, frame }) => {
                assert_eq!(frame, (2, 2));
                assert!(window.0 > 2, "{window:?}");
            }
            Err(e) => panic!("refused with the wrong error: {e}"),
            Ok(_) => panic!("ran a canvas the RoI window cannot fit"),
        }
    }

    #[test]
    fn bitrate_is_plausible_for_720p() {
        // deployment GOP mix (one keyframe per 12 frames here; a 3-frame
        // GOP would treble the intra share and inflate the bitrate)
        let cfg = SessionConfig {
            gop_size: 12,
            lr_size: (128, 72),
            ..SessionConfig::new(GameId::G3, DeviceProfile::s8_tab())
        }
        .without_quality()
        .with_frames(12);
        let r = run_session(&cfg, Pipeline::GameStreamSr).unwrap();
        // same order of magnitude as real 720p60 game streams; this codec
        // lacks intra prediction and arithmetic coding, so it sits ~2-3x
        // above deployed encoders (documented in DESIGN.md)
        let mbps = r.mean_bitrate_mbps();
        assert!((5.0..60.0).contains(&mbps), "bitrate {mbps:.2} Mbps");
    }
}
