#include "display/trusted_input.h"

#include <string>

namespace overhaul::display {

TrustedInput::TrustedInput(kern::Kernel& kernel, AlertOverlay& alerts,
                           const ServerConfig& config,
                           std::string_view metric_prefix)
    : kernel_(kernel),
      alerts_(alerts),
      enabled_(config.overhaul_enabled),
      threshold_(config.visibility_threshold) {
  const std::string input = std::string(metric_prefix) + ".input.";
  auto& metrics = kernel_.obs().metrics;
  c_hw_events_ = metrics.counter(input + "hardware_events");
  c_synthetic_events_ = metrics.counter(input + "synthetic_events");
  c_notifications_ = metrics.counter(input + "notifications");
  c_clickjack_ = metrics.counter(input + "clickjack_suppressed");
}

void TrustedInput::connect(kern::Pid server_pid) {
  if (!enabled_) return;
  // §IV-A: "the X server was modified to connect to a secure communication
  // channel upon initialization". The kernel authenticates the server by
  // introspecting its exe path.
  auto channel = kernel_.netlink().connect(server_pid);
  if (!channel.is_ok()) return;
  channel_ = std::move(channel).value();
  channel_->set_alert_handler([this](const kern::AlertRequest& alert) {
    alerts_.show(alert.pid, alert.comm, alert.op, alert.decision);
  });
}

bool TrustedInput::mint_interaction(const InputEvent& event) {
  InputTraceEntry trace{kernel_.clock().now(), event.receiver_pid,
                        event.target,          event.serial,
                        event.kind,            event.hardware};
  // Only forged keys and clicks are synthetic input: the SelectionNotify and
  // PropertyNotify an X11 paste relays through SendEvent are protocol
  // traffic, not input.
  if (event.hardware) {
    ++stats_.hardware_events;
    c_hw_events_->add();
  } else if (event.kind != InputKind::kOther) {
    ++stats_.synthetic_events;
    c_synthetic_events_->add();
  }
  if (event.hardware && enabled_ && channel_ != nullptr) {
    // The clickjacking rule (§IV-A): "OVERHAUL only generates interaction
    // notifications if the X client receiving the event has a valid mapped
    // window that has stayed visible above a predefined time threshold".
    // See-through windows are never visible, however long they are mapped.
    if (event.mapped && !event.see_through &&
        event.visible_for >= threshold_) {
      if (channel_->send_interaction({event.receiver_pid, trace.time})
              .is_ok()) {
        ++stats_.interaction_notifications;
        c_notifications_->add();
        trace.produced_notification = true;
      }
      if (event.acg_op.has_value())
        (void)channel_->send_acg_grant(
            {event.receiver_pid, *event.acg_op, trace.time});
    } else {
      ++stats_.clickjack_suppressed;
      c_clickjack_->add();
      trace.clickjack_suppressed = true;
    }
  }
  if (event.kind != InputKind::kOther) {
    trace_.push_back(trace);
    if (trace_.size() > kInputTraceCapacity) trace_.pop_front();
  }
  return trace.produced_notification;
}

util::Decision TrustedInput::query_monitor(kern::Pid pid, util::Op op,
                                           std::string_view detail) {
  if (!enabled_) return util::Decision::kGrant;  // unmodified server
  if (pid == kern::kNoPid || channel_ == nullptr) return util::Decision::kDeny;
  auto reply = channel_->query_permission(
      {pid, op, kernel_.clock().now(), std::string(detail)});
  return reply.is_ok() ? reply.value().decision : util::Decision::kDeny;
}

}  // namespace overhaul::display
