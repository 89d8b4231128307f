#include "display/alert.h"

namespace overhaul::display {
namespace {

std::string_view verb(util::Op op) noexcept {
  switch (op) {
    case util::Op::kMicrophone: return "is recording from the microphone";
    case util::Op::kCamera: return "is using the camera";
    case util::Op::kScreenCapture: return "is capturing the screen";
    case util::Op::kDeviceOther: return "is accessing a protected device";
    case util::Op::kCopy: return "copied to the clipboard";
    case util::Op::kPaste: return "pasted from the clipboard";
  }
  return {};
}

}  // namespace

std::string AlertOverlay::text(const Alert& alert) const {
  std::string out;
  if (alert.decision == util::Decision::kDeny) {
    out += "Blocked: ";
    out += comm(alert);
    out += " tried and ";
  } else {
    out += comm(alert);
    out += " ";
  }
  out += verb(alert.op);
  return out;
}

std::string AlertOverlay::render_banner(const Alert& alert) const {
  // [ <secret> | <message>                          ]
  const std::string_view secret = strings_.get(alert.secret_id);
  std::string body = " ";
  body += secret.empty() ? "(no secret!)" : secret;
  body += " | " + text(alert) + " ";
  const std::string rule = "+" + std::string(body.size(), '-') + "+\n";
  return rule + "|" + body + "|\n" + rule;
}

std::vector<const Alert*> AlertOverlay::active(sim::Timestamp now) const {
  std::vector<const Alert*> out;
  for (const auto& alert : history_) {
    if (alert.active_at(now)) out.push_back(&alert);
  }
  return out;
}

}  // namespace overhaul::display
