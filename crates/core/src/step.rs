//! One session's per-frame pipeline, shared by both drivers.
//!
//! [`SessionStep`] owns everything that decides a frame's fate between the
//! server and the display: the recorder and its attribution tee, the
//! server, capability negotiation, the degradation ladder, the NACK
//! manager, the crash-recovery machine, the SLO engine and the active RoI
//! window / SR tier. Two drivers step it and inject only what differs:
//!
//! * [`run_session`](crate::session::run_session) crosses a private
//!   [`gss_net::Link`], charges the energy meter and, when quality is
//!   evaluated, runs the pixel path (decode, upscale, metrics) between
//!   [`SessionStep::deliver`] and [`SessionStep::seal`];
//! * [`FleetSim`](crate::fleet::FleetSim) crosses a
//!   [`gss_net::SharedLink`] flow, caps the rate through
//!   [`SessionStep::set_alloc_scale`], stretches server stages by its
//!   consolidation factor, and runs its flap/starvation detectors between
//!   [`SessionStep::seal`] and [`SessionStep::adapt`].
//!
//! Per frame a driver calls [`SessionStep::open`] (fault telemetry,
//! recovery frame-open, NACK, encode — the fleet's parallel phase), sends
//! the staged bytes over its link, then hands the transfer and the link's
//! goodput to [`SessionStep::deliver`] and calls [`SessionStep::seal`] and
//! [`SessionStep::adapt`]; [`SessionStep::finish`] closes the session. A
//! server factor and a rate cap of `1.0` multiply exactly, so a private
//! link reproduces the uncontended fleet bit for bit.
//!
//! The step is the pipeline's telemetry writer: the server, the codec and
//! the links only compute, and the step records what each call produced.
//! A driver records through [`SessionStep::rec`] only what it alone runs:
//! `run_session` the clients' counters, the fleet its detectors.

use crate::degrade::{
    DegradationController, LadderRung, LadderStep, NackManager, NackSignal, LADDER,
};
use crate::mtp::{self, MtpBreakdown, UpscaleTiming, FULL_LR};
use crate::negotiate::negotiate;
use crate::recovery::{RecoveryConfig, RecoveryEvent, RecoveryMachine, RecoverySummary};
use crate::roi::plan_roi_window;
use crate::server::{GameStreamServer, ServerConfig, ServerPacket};
use crate::session::{FrameRecord, Pipeline, SessionConfig};
use crate::GssError;
use gss_codec::{EncoderConfig, FrameType};
use gss_net::{DropCause, FaultPlan, Transfer};
use gss_platform::{DeviceProfile, ServerModel, REALTIME_BUDGET_MS};
use gss_sr::ModelTier;
use gss_telemetry::{
    Attributor, Counter, FrameHealth, Gauge, InstantKind, Level, Recorder, SessionAttribution,
    SinkHandle, SloEngine, SloSummary, Stage, TelemetrySummary,
};

/// Factor rescaling coded byte counts measured on an `lr_size` canvas to
/// deployment scale. Coded size grows *sublinearly* with resolution at
/// fixed quality (detail density falls as resolution rises); the exponent
/// 0.835 was fitted to this codec's measured bits-per-pixel across
/// canvases from 128x72 to 1280x720 (see DESIGN.md), making byte volumes
/// canvas-independent to within ~5%.
fn canvas_to_full(lr_size: (usize, usize)) -> f64 {
    let ratio = FULL_LR.pixels() as f64 / (lr_size.0 * lr_size.1) as f64;
    ratio.powf(0.835)
}

/// What [`SessionStep::open`] hands to the driver's transport: the
/// deployment-scale byte count plus the frame-open facts the rest of the
/// step needs. Deliberately small — the fleet holds one per session
/// between its phases, and must not hold the server packet.
pub(crate) struct Staged {
    /// Bytes on the wire, deployment scale.
    pub bytes: usize,
    now_ms: f64,
    frame_type: FrameType,
    rung: usize,
    slowdown: f64,
    stall_ms: f64,
}

/// A frame past [`SessionStep::deliver`]: its record (with
/// `deadline_met` settled by [`SessionStep::seal`]) and its modeled
/// upscale timing.
pub(crate) struct InFlight {
    /// The frame's record; the driver fills in quality metrics.
    pub record: FrameRecord,
    /// Modeled upscale timing, including the CPU leg the record omits.
    pub upscale: UpscaleTiming,
    upscale_start_ms: f64,
    /// When the frame completes on the session clock.
    end_ms: f64,
}

/// Everything [`SessionStep::finish`] hands back.
pub(crate) struct Finished {
    pub telemetry: TelemetrySummary,
    pub slo: SloSummary,
    pub attribution: SessionAttribution,
    pub recovery: Option<RecoverySummary>,
}

/// One session's per-frame state. See the module docs for the call order.
pub(crate) struct SessionStep {
    pipeline: Pipeline,
    device: DeviceProfile,
    faults: FaultPlan,
    lr_size: (usize, usize),
    server_model: ServerModel,
    /// Downlink latency charged to a dropped frame: it would have waited
    /// out the full queue.
    drop_bound_ms: f64,
    byte_scale: f64,
    server: GameStreamServer,
    rec: Recorder,
    attributor: Attributor,
    slo: SloEngine,
    controller: Option<DegradationController>,
    /// The negotiated rung a session without a controller is pinned to.
    pinned_rung: usize,
    nack: NackManager,
    recovery: Option<RecoveryMachine>,
    loss_recovery: bool,
    decode_pixels: usize,
    base_side: usize,
    active_side: usize,
    active_cost: f64,
    sr_tier: Option<ModelTier>,
    /// The fleet allocator's rate cap, composed with the rung's rate
    /// scale (1.0 on a private link).
    alloc_scale: f64,
    active_faults: Vec<&'static str>,
    frame: usize,
}

impl SessionStep {
    /// Builds the session's server and recorder and negotiates the
    /// stream with the device before the first frame. `config.telemetry`
    /// is tee'd with an [`Attributor`], which judges every frame as it
    /// closes.
    pub(crate) fn new(config: &SessionConfig, pipeline: Pipeline, label: String) -> Self {
        let plan = plan_roi_window(
            &config.device,
            config.scale,
            FULL_LR.width(),
            FULL_LR.height(),
        );
        let byte_scale = canvas_to_full(config.lr_size);
        let server = GameStreamServer::new(ServerConfig {
            game: config.game,
            lr_size: config.lr_size,
            scale: config.scale,
            encoder: EncoderConfig {
                quality: config.encoder_quality,
                gop_size: config.gop_size,
                ..EncoderConfig::default()
            },
            detector: config.detector,
            roi_window: plan.scaled_to_canvas(config.lr_size.0, FULL_LR.width()),
            time_stride: (FULL_LR.width() / config.lr_size.0.max(1)).max(1),
            tracker: config.tracker,
            // the controller sees canvas-scale byte counts: rescale the
            // deployment-scale target accordingly
            rate_control: config.rate_control.map(|mut rc| {
                rc.target_bytes_per_frame =
                    ((rc.target_bytes_per_frame as f64 / byte_scale) as usize).max(1);
                rc
            }),
        });
        let attributor = Attributor::new(REALTIME_BUDGET_MS);
        let tee = SinkHandle::new(attributor.clone());
        let rec = Recorder::new(label, REALTIME_BUDGET_MS).with_sink(match &config.telemetry {
            Some(sink) => SinkHandle::fanout(vec![sink.clone(), tee]),
            None => tee,
        });
        // the ladder controller adapts the GameStreamSR pipeline only; the
        // NACK manager paces keyframe requests whenever loss recovery is on
        let controller = match (pipeline, config.degradation) {
            (Pipeline::GameStreamSr, Some(cfg)) => Some(DegradationController::new(cfg)),
            _ => None,
        };
        let nack_cfg = config.degradation.unwrap_or_default();
        // decoder crash recovery: the machine is armed only when the plan
        // scripts a crash, and arming it implies loss recovery — a
        // recovering decoder freezes the display and resyncs on a NACKed
        // keyframe
        let recovery = config
            .fault_plan
            .has_decoder_crashes()
            .then(|| RecoveryMachine::new(RecoveryConfig::default()));
        let mut step = SessionStep {
            pipeline,
            device: config.device.clone(),
            faults: config.fault_plan.clone(),
            lr_size: config.lr_size,
            server_model: config.server_model.clone(),
            drop_bound_ms: config.link.queue_limit_ms + config.link.rtt_ms / 2.0,
            byte_scale,
            server,
            rec,
            attributor,
            slo: SloEngine::standard(REALTIME_BUDGET_MS),
            controller,
            pinned_rung: 0,
            nack: NackManager::new(
                nack_cfg.nack_timeout_frames,
                nack_cfg.nack_backoff_max_frames,
            ),
            loss_recovery: config.loss_recovery || recovery.is_some(),
            recovery,
            decode_pixels: 0,
            base_side: plan.chosen_side,
            active_side: plan.chosen_side,
            active_cost: 1.0,
            sr_tier: LADDER[0].tier,
            alloc_scale: 1.0,
            active_faults: Vec::new(),
            frame: 0,
        };
        step.negotiate();
        step
    }

    /// Capability negotiation (step 0): the server's offer meets the
    /// client's capability set. For the calibrated reference devices the
    /// result is the identity, which keeps their sessions byte-identical.
    fn negotiate(&mut self) {
        let negotiated = negotiate(&self.server.offer(), &self.device.capabilities);
        if negotiated.clamped {
            self.rec.log(Level::Info, negotiated.describe());
        }
        self.decode_pixels = negotiated.decode_pixels;
        let top = negotiated.top_rung;
        if self.pipeline != Pipeline::GameStreamSr || top == 0 {
            return;
        }
        match &mut self.controller {
            // the controller may never climb above the negotiated rung
            Some(ctl) => {
                if !ctl.clamp_ceiling(top) {
                    return;
                }
            }
            // no controller: pin the pipeline statically to the best rung
            // the client's NPU supports
            None => self.pinned_rung = top,
        }
        let rung = self.rung_params();
        self.apply_rung(&rung);
    }

    /// The recorder, for the driver's client counters and detectors.
    pub(crate) fn rec(&mut self) -> &mut Recorder {
        &mut self.rec
    }

    /// The SR model tier of the rung in effect, for the pixel path.
    pub(crate) fn sr_tier(&self) -> Option<ModelTier> {
        self.sr_tier
    }

    /// The fleet allocator's current rate cap.
    pub(crate) fn alloc_scale(&self) -> f64 {
        self.alloc_scale
    }

    /// The SLO engine, for the fleet's burn-rate series.
    pub(crate) fn slo(&self) -> &SloEngine {
        &self.slo
    }

    /// The ladder rung in effect: the controller's, or the negotiated pin.
    fn rung(&self) -> usize {
        self.controller
            .as_ref()
            .map_or(self.pinned_rung, |c| c.rung())
    }

    fn rung_params(&self) -> LadderRung {
        self.controller
            .as_ref()
            .map_or(LADDER[self.pinned_rung], |c| c.rung_params())
    }

    /// Applies one ladder rung to the live pipeline: the RoI window
    /// shipped to the server, the client's SR tier and cost, and the
    /// encoder's rate target composed with the allocator's cap. Every
    /// path — controller steps, the negotiated clamp, the crash-recovery
    /// floor and a new allocation — renegotiates through here.
    fn apply_rung(&mut self, rung: &LadderRung) {
        self.active_side = rung.roi_side(&self.device, self.base_side);
        self.active_cost = rung.tier.map_or(1.0, |t| t.cost_ratio());
        self.sr_tier = rung.tier;
        self.server
            .set_rate_target_scale(rung.rate_scale * self.alloc_scale);
        // the server keeps detecting an RoI (coordinates still ship with
        // every packet), so its window floors at 8 px even on the bilinear
        // rung
        let (w, h) = self.lr_size;
        let canvas_side = ((self.active_side * w) / FULL_LR.width())
            .max(8)
            .min(w.min(h));
        self.server.set_roi_window((canvas_side, canvas_side));
    }

    /// Sets the fleet allocator's rate cap, re-applying the current rung
    /// when it changed.
    pub(crate) fn set_alloc_scale(&mut self, scale: f64) {
        if (self.alloc_scale - scale).abs() > 1e-12 {
            self.alloc_scale = scale;
            let rung = self.rung_params();
            self.apply_rung(&rung);
        }
    }

    /// Folds the recovery machine's transitions into the live session: a
    /// trace instant per event, crash/reconfigure counters, the ladder
    /// floor while the decoder is down, the permanent ceiling on
    /// safe-profile fallback, and a fresh NACK resync cycle the moment the
    /// machine starts waiting for its keyframe.
    fn apply_recovery(&mut self, events: &[RecoveryEvent], now_ms: f64) {
        let floor = LADDER.len() - 1;
        for ev in events {
            self.rec.instant(InstantKind::Recovery, now_ms, ev.detail());
            let renegotiated = match ev {
                RecoveryEvent::CrashDetected { .. } => {
                    self.rec.incr(Counter::DecoderCrashes);
                    self.rec.log(Level::Warn, ev.detail());
                    // graceful degradation: ride out the recovery on the
                    // bilinear floor; the controller climbs back with its
                    // usual hysteresis once frames flow again
                    self.controller
                        .as_mut()
                        .is_some_and(|c| c.force_rung(floor))
                }
                RecoveryEvent::Reconfiguring { .. } => {
                    self.rec.incr(Counter::DecoderReconfigures);
                    false
                }
                RecoveryEvent::AwaitingKeyframe => {
                    // restart the NACK cycle from scratch: the machine needs
                    // a keyframe *now*, and any backoff accumulated while
                    // the decoder was down would only delay the resync
                    self.nack.on_keyframe_delivered();
                    self.nack.on_loss();
                    false
                }
                RecoveryEvent::AttemptFailed { .. } => {
                    self.rec.log(Level::Warn, ev.detail());
                    false
                }
                RecoveryEvent::SafeProfileFallback => {
                    self.rec.log(Level::Error, ev.detail());
                    self.controller
                        .as_mut()
                        .is_some_and(|c| c.clamp_ceiling(floor))
                }
                RecoveryEvent::Recovered { .. } => {
                    self.rec.log(Level::Info, ev.detail());
                    false
                }
            };
            if renegotiated {
                let rung = self.rung_params();
                self.apply_rung(&rung);
            }
        }
    }

    /// Opens frame `now_ms`: fault telemetry, the recovery machine's
    /// frame-open transitions, any NACK, then render + detect + encode.
    /// Touches only this session, so the fleet runs it in parallel.
    ///
    /// # Errors
    ///
    /// Propagates codec failures.
    pub(crate) fn open(&mut self, now_ms: f64) -> Result<(Staged, ServerPacket), GssError> {
        self.rec.begin_frame(self.frame as u64);
        // structured fault telemetry: one log event per active-set change
        let faults_now = self.faults.active_labels(now_ms);
        if faults_now != self.active_faults {
            let msg = if faults_now.is_empty() {
                "faults cleared".to_owned()
            } else {
                format!("faults active: {}", faults_now.join("+"))
            };
            self.rec.log(Level::Warn, msg.clone());
            self.rec.instant(InstantKind::Fault, now_ms, msg);
            self.active_faults = faults_now;
        }
        let slowdown = self.faults.npu_slowdown(now_ms);
        if slowdown > 1.0 {
            self.rec.gauge(Gauge::NpuSlowdown, slowdown);
        }
        // sample the crash signal at send time and walk the state machine;
        // its transitions renegotiate the pipeline before this frame's
        // packet is cut
        if let Some(rm) = self.recovery.as_mut() {
            let events = rm.begin_frame(self.faults.decoder_crashed(now_ms));
            let state = rm.state().gauge_value();
            self.apply_recovery(&events, now_ms);
            self.rec.gauge(Gauge::RecoveryState, state);
        }
        let rung = self.rung();
        if self.controller.is_some() {
            self.rec.gauge(Gauge::LadderRung, rung as f64);
        }
        let mut keyframe_forced = false;
        if self.loss_recovery {
            if let Some(signal) = self.nack.begin_frame() {
                self.server.request_keyframe();
                keyframe_forced = true;
                self.rec.incr(Counter::Nacks);
                self.rec.instant(
                    InstantKind::Nack,
                    now_ms,
                    if signal == NackSignal::Retry {
                        "keyframe re-request (retry)"
                    } else {
                        "keyframe request"
                    },
                );
                if signal == NackSignal::Retry {
                    self.rec.incr(Counter::NackRetries);
                }
            }
        }
        let packet = self.server.next_frame()?;
        self.rec.gauge(Gauge::RoiAreaPx, packet.roi.area() as f64);
        self.rec.incr(Counter::FramesEncoded);
        // a requested keyframe is always coded intra
        if keyframe_forced {
            self.rec.incr(Counter::KeyframesForced);
        }
        if let Some((quality, residual_step)) = self.server.rate_quantizers() {
            self.rec.gauge(Gauge::EncodeQuality, f64::from(quality));
            self.rec
                .gauge(Gauge::EncodeResidualStep, f64::from(residual_step));
        }
        let staged = Staged {
            bytes: (packet.encoded.size_bytes() as f64 * self.byte_scale) as usize,
            now_ms,
            frame_type: packet.frame_type,
            rung,
            slowdown,
            stall_ms: self.faults.decoder_stall_ms(now_ms),
        };
        Ok((staged, packet))
    }

    /// Lands the staged frame given the driver's transport outcome and the
    /// link's goodput after the send: the link telemetry, the decoder-down
    /// drop, the freeze verdict, the NACK and recovery frame-close, the
    /// modeled decode and upscale, and the MTP spans. Server-side stages
    /// stretch by `server_factor`.
    pub(crate) fn deliver(
        &mut self,
        staged: Staged,
        uplink_ms: f64,
        transfer: &Transfer,
        link_mbps: f64,
        server_factor: f64,
    ) -> InFlight {
        let now_ms = staged.now_ms;
        let is_intra = staged.frame_type == FrameType::Intra;
        self.rec.gauge(Gauge::LinkBandwidthMbps, link_mbps);
        self.rec.add(Counter::BytesOnWire, staged.bytes as u64);
        let (mut dropped, downlink_ms) = match transfer.drop_cause {
            None => {
                self.rec
                    .record_span(Stage::LinkTransfer, now_ms, transfer.transit_ms);
                (false, transfer.transit_ms)
            }
            Some(cause) => {
                self.record_drop(cause, now_ms);
                (true, self.drop_bound_ms)
            }
        };
        let mut drop_cause = transfer.drop_cause;
        // a delivered frame is still unusable while the decoder is down:
        // the client discards it. The drop is charged to the decoder, not
        // the link — a distinct cause in the counters and the stall ledger
        if let Some(rm) = &self.recovery {
            if !dropped && !rm.can_decode(is_intra) {
                dropped = true;
                drop_cause = Some(DropCause::DecoderDown);
                self.record_drop(DropCause::DecoderDown, now_ms);
            }
        }
        // a frame is unusable when it was dropped, or when it depends on a
        // reference the client never received (judged before this frame's
        // loss is folded into the NACK state)
        let frozen = self.loss_recovery
            && (dropped || (self.nack.awaiting() && staged.frame_type == FrameType::Inter));
        if frozen {
            self.rec.incr(Counter::FramesFrozen);
        }
        if self.loss_recovery {
            if dropped {
                self.nack.on_loss();
            } else if is_intra {
                self.nack.on_keyframe_delivered();
            }
        }
        // a keyframe that was delivered *and* decoded completes the
        // resync; an expired keyframe window fails the attempt and
        // re-reconfigures
        if let Some(rm) = self.recovery.as_mut() {
            if frozen && rm.in_recovery() {
                rm.note_frozen();
            }
            let events = rm.end_frame(!dropped && !frozen && is_intra);
            self.apply_recovery(&events, now_ms);
        }

        // decode + upscale, modeled at deployment scale; a frozen frame
        // has nothing to decode: the display repeats the last one
        let device = &self.device;
        let (decode_ms, upscale) = if frozen {
            (0.0, UpscaleTiming::default())
        } else {
            match self.pipeline {
                Pipeline::GameStreamSr => (
                    device.hw_decode_ms(self.decode_pixels) + staged.stall_ms,
                    mtp::ours_upscale_degraded(
                        device,
                        self.active_side,
                        self.active_cost,
                        staged.slowdown,
                    ),
                ),
                Pipeline::Nemo => (
                    device.sw_decode_ms(self.decode_pixels) + staged.stall_ms,
                    if is_intra {
                        mtp::sota_ref_upscale_throttled(device, staged.slowdown)
                    } else {
                        mtp::sota_nonref_upscale(device)
                    },
                ),
            }
        };

        let with_roi = self.pipeline == Pipeline::GameStreamSr;
        let sm = &self.server_model;
        let mtp = MtpBreakdown {
            input_uplink_ms: uplink_ms,
            engine_ms: sm.engine_tick_ms * server_factor,
            render_ms: sm.render_ms(FULL_LR) * server_factor,
            roi_extra_ms: if with_roi {
                (sm.roi_detect_ms(FULL_LR) - sm.encode_ms(FULL_LR)).max(0.0) * server_factor
            } else {
                0.0
            },
            encode_ms: sm.encode_ms(FULL_LR) * server_factor,
            downlink_ms,
            decode_ms,
            upscale_ms: upscale.critical_ms,
            display_ms: device.display_present_ms,
        };
        // Anchor the frame's MTP timeline so its downlink segment coincides
        // with the link span recorded at `now_ms`: the controller input
        // behind this frame left the client `server_side_ms` before the
        // packet hit the wire.
        let server_side_ms =
            uplink_ms + mtp.engine_ms + mtp.render_ms + mtp.roi_extra_ms + mtp.encode_ms;
        let upscale_start_ms = mtp.record_spans(&mut self.rec, now_ms - server_side_ms);
        if with_roi {
            // depth capture then RoI search, pipelined against the encode
            // (the breakdown only carries their excess beyond the encode)
            let render_end = now_ms - mtp.roi_extra_ms - mtp.encode_ms;
            let depth_ms = sm.depth_capture_ms(FULL_LR) * server_factor;
            self.rec
                .record_span(Stage::DepthCapture, render_end, depth_ms);
            self.rec.record_span(
                Stage::RoiDetect,
                render_end + depth_ms,
                sm.roi_search_ms(FULL_LR) * server_factor,
            );
        }
        upscale.record_spans(&mut self.rec, upscale_start_ms);

        InFlight {
            record: FrameRecord {
                index: self.frame,
                frame_type: staged.frame_type,
                upscale_ms: upscale.critical_ms,
                upscale_npu_ms: upscale.npu_ms,
                upscale_gpu_ms: upscale.gpu_ms,
                upscale_merge_ms: upscale.merge_ms,
                decode_ms,
                mtp,
                bytes: staged.bytes,
                dropped,
                drop_cause,
                rung: staged.rung,
                frozen,
                deadline_met: false,
                psnr_db: None,
                foveated_psnr_db: None,
                perceptual: None,
            },
            upscale,
            upscale_start_ms,
            end_ms: now_ms - server_side_ms + mtp.total_ms(),
        }
    }

    /// Counts a dropped frame under its cause and marks it in the trace.
    fn record_drop(&mut self, cause: DropCause, now_ms: f64) {
        self.rec.incr(Counter::FramesDropped);
        self.rec.incr(match cause {
            DropCause::QueueOverflow => Counter::DropsQueueOverflow,
            DropCause::DecoderDown => Counter::DropsDecoderDown,
            DropCause::Outage => Counter::DropsOutage,
        });
        self.rec.instant(
            InstantKind::Drop,
            now_ms,
            format!("frame dropped: {}", cause.label()),
        );
    }

    /// Closes the frame: the deadline-miss instant and SLO breach markers
    /// land first (end_frame closes the frame for the trace sink), then
    /// the recorder judges the same critical path the record exposes.
    pub(crate) fn seal(&mut self, frame: &mut InFlight) {
        let critical_ms = frame.upscale.critical_ms;
        let budget_ms = self.rec.budget_ms();
        let met_now = gss_telemetry::deadline_met(critical_ms, budget_ms);
        if !met_now {
            self.rec.instant(
                InstantKind::DeadlineMiss,
                frame.upscale_start_ms + critical_ms,
                format!("critical path {critical_ms:.2} ms > budget {budget_ms:.2} ms"),
            );
        }
        for ev in self.slo.observe(&FrameHealth {
            critical_ms,
            deadline_met: met_now,
            frozen: frame.record.frozen,
        }) {
            self.rec
                .instant(InstantKind::SloBreach, frame.end_ms, ev.detail);
        }
        let record = &mut frame.record;
        record.deadline_met =
            self.rec
                .end_frame(record.mtp.total_ms(), critical_ms, record.bytes as u64);
        self.frame += 1;
    }

    /// Lets the controller see the closed frame's health and renegotiate
    /// the pipeline (RoI window, SR tier, rate target) for the next one.
    pub(crate) fn adapt(&mut self, frame: &InFlight) {
        let bad = frame.record.dropped || !frame.record.deadline_met;
        let Some((step, rung, to)) = self.controller.as_mut().and_then(|ctl| {
            let step = ctl.observe(bad)?;
            Some((step, ctl.rung_params(), ctl.rung()))
        }) else {
            return;
        };
        let (counter, dir, level) = match step {
            LadderStep::Downgrade => (Counter::LadderDowngrades, "down", Level::Warn),
            LadderStep::Upgrade => (Counter::LadderUpgrades, "up", Level::Info),
        };
        self.rec.incr(counter);
        self.apply_rung(&rung);
        let msg = format!(
            "ladder {dir}: rung {} -> {to} ({}, roi {} px, rate x{:.2})",
            frame.record.rung,
            rung.tier_label(),
            self.active_side,
            rung.rate_scale
        );
        self.rec.log(level, msg.clone());
        // the controller decides after the frame completes; the trace sink
        // attaches this post-frame instant to the frame just closed
        self.rec
            .instant(InstantKind::LadderShift, frame.end_ms, msg);
    }

    /// Closes the session and collects its aggregates, SLO standings and
    /// the attributor's verdict on every deadline miss and stall.
    pub(crate) fn finish(mut self) -> Finished {
        let telemetry = self.rec.finish();
        Finished {
            telemetry,
            slo: self.slo.summary(),
            attribution: self.attributor.attribution(),
            recovery: self.recovery.map(RecoveryMachine::into_summary),
        }
    }
}
