#include "core/timeline.h"

#include <algorithm>
#include <cstdio>

namespace overhaul::core {

std::string_view timeline_kind_name(TimelineKind kind) noexcept {
  switch (kind) {
    case TimelineKind::kHardwareInput: return "input";
    case TimelineKind::kSyntheticInput: return "synthetic";
    case TimelineKind::kSuppressedInput: return "suppressed";
    case TimelineKind::kDecision: return "decision";
    case TimelineKind::kAlert: return "alert";
    case TimelineKind::kPrompt: return "prompt";
  }
  return "?";
}

namespace {

std::string_view event_name(x11::EventType type) noexcept {
  switch (type) {
    case x11::EventType::kKeyPress: return "key";
    case x11::EventType::kButtonPress: return "click";
    case x11::EventType::kSelectionRequest: return "selection-request";
    case x11::EventType::kSelectionNotify: return "selection-notify";
    case x11::EventType::kPropertyNotify: return "property-notify";
    case x11::EventType::kMapNotify: return "map-notify";
    case x11::EventType::kUnmapNotify: return "unmap-notify";
    case x11::EventType::kConfigureNotify: return "configure-notify";
  }
  return "?";
}

}  // namespace

std::vector<TimelineEntry> build_timeline(OverhaulSystem& sys) {
  std::vector<TimelineEntry> entries;

  // Input trace (key/button only — protocol events would drown the view).
  // Each backend keeps its own trace; the Wayland one has no synthetic
  // provenance because clients cannot inject input there at all.
  if (sys.display().backend_kind() == DisplayBackendKind::kWayland) {
    for (const auto& t : sys.compositor().input_trace()) {
      if (t.type != wl::WlEventType::kPointerButton &&
          t.type != wl::WlEventType::kKeyboardKey)
        continue;
      TimelineEntry e;
      e.time = t.time;
      e.kind = t.clickjack_suppressed ? TimelineKind::kSuppressedInput
                                      : TimelineKind::kHardwareInput;
      e.pid = t.receiver_pid;
      e.text = std::string(t.type == wl::WlEventType::kPointerButton
                               ? "click"
                               : "key") +
               " -> surface " + std::to_string(t.surface) +
               (t.produced_notification ? "  [N sent]" : "");
      entries.push_back(std::move(e));
    }
  } else {
    for (const auto& t : sys.xserver().input_trace()) {
      if (t.type != x11::EventType::kKeyPress &&
          t.type != x11::EventType::kButtonPress)
        continue;
      TimelineEntry e;
      e.time = t.time;
      if (t.provenance != x11::Provenance::kHardware) {
        e.kind = TimelineKind::kSyntheticInput;
      } else if (t.clickjack_suppressed) {
        e.kind = TimelineKind::kSuppressedInput;
      } else {
        e.kind = TimelineKind::kHardwareInput;
      }
      e.pid = t.receiver_pid;
      e.text = std::string(event_name(t.type)) + " -> window " +
               std::to_string(t.window) +
               (t.produced_notification ? "  [N sent]" : "");
      entries.push_back(std::move(e));
    }
  }

  for (const auto& rec : sys.audit().records()) {
    TimelineEntry e;
    e.time = sim::Timestamp{rec.time_ns};
    e.kind = TimelineKind::kDecision;
    e.pid = rec.pid;
    e.text = std::string(util::op_name(rec.op)) + " " +
             (rec.decision == util::Decision::kGrant ? "GRANT" : "DENY") +
             " (" + rec.comm + ", age " +
             (rec.interaction_age_ns < 0
                  ? "never"
                  : std::to_string(rec.interaction_age_ns / 1'000'000) + "ms") +
             ")";
    entries.push_back(std::move(e));
  }

  const display::AlertOverlay& overlay = sys.display().alert_overlay();
  for (const auto& alert : overlay.history()) {
    TimelineEntry e;
    e.time = sim::Timestamp{alert.shown_at_ns};
    e.kind = TimelineKind::kAlert;
    e.pid = alert.pid;
    e.text = overlay.text(alert);
    entries.push_back(std::move(e));
  }

  if (sys.display().backend_kind() == DisplayBackendKind::kX11) {
    // Prompt mode is an X11-only surface; the Wayland backend ships only
    // the transparent model.
    for (const auto& prompt : sys.xserver().prompts().history()) {
      TimelineEntry e;
      e.time = sim::Timestamp{prompt.shown_at_ns};
      e.kind = TimelineKind::kPrompt;
      e.pid = prompt.pid;
      e.text = prompt.text + " -> " +
               (prompt.decided
                    ? (prompt.decision == util::Decision::kGrant ? "allowed"
                                                                 : "denied")
                    : "unanswered");
      entries.push_back(std::move(e));
    }
  }

  std::stable_sort(entries.begin(), entries.end(),
                   [](const TimelineEntry& a, const TimelineEntry& b) {
                     return a.time < b.time;
                   });
  return entries;
}

std::string render_timeline(const std::vector<TimelineEntry>& entries) {
  std::string out;
  char buf[512];
  for (const auto& e : entries) {
    std::snprintf(buf, sizeof(buf), "[%10.3fs] %-10s pid=%-5d %s\n",
                  e.time.to_seconds(),
                  std::string(timeline_kind_name(e.kind)).c_str(), e.pid,
                  e.text.c_str());
    out += buf;
  }
  return out;
}

}  // namespace overhaul::core
