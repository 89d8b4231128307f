// AlertOverlay: the trusted output path (§IV-A "Trusted output", Fig. 5).
//
// Visual alerts are rendered by the display server itself on an overlay
// "always stacked on top of the screen contents" that "cannot be blocked,
// obscured, or manipulated by other processes". Alerts display for a few
// seconds at the top of the screen and carry a *visual shared secret* set by
// the user so that a malicious client painting a look-alike window cannot
// forge one — the secret never leaves the server.
//
// The overlay is display-protocol-agnostic: on X11 it models the server's
// own overlay window above the stacking order; on the Wayland backend it
// models a layer-shell surface on the topmost overlay layer. Both backends
// own one instance and hand it kernel V_{A,op} requests verbatim, which is
// what keeps the trusted-output behaviour bit-identical across backends.
//
// Every hardware/screen decision raises an alert, so show() is on the
// mediation hot path. An alert is therefore a fixed-size record: the comm
// and the secret are ids into the overlay's own string table, and the
// message and banner are rendered only when something reads them. A warm
// show() is one intern probe and one 32-byte store (DESIGN.md §10, §11).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "sim/clock.h"
#include "util/audit_log.h"
#include "util/string_table.h"

namespace overhaul::display {

// Ids are only meaningful to the overlay that issued them; read the comm,
// message and banner through that overlay.
struct Alert {
  std::int64_t shown_at_ns = 0;
  std::int64_t expires_at_ns = 0;
  int pid = -1;
  util::Op op = util::Op::kDeviceOther;
  util::Decision decision = util::Decision::kDeny;
  std::uint32_t comm_id = 0;
  std::uint32_t secret_id = 0;  // the visual shared secret; 0 = none

  [[nodiscard]] bool active_at(sim::Timestamp t) const noexcept {
    return t.ns >= shown_at_ns && t.ns < expires_at_ns;
  }
};
static_assert(sizeof(Alert) == 32);
static_assert(std::is_trivially_copyable_v<Alert>);

class AlertOverlay {
 public:
  explicit AlertOverlay(sim::Clock& clock) : clock_(clock) {}

  // The user configures the visual shared secret (Fig. 5's cat picture).
  void set_shared_secret(std::string_view secret) {
    secret_id_ = strings_.intern(secret);
  }
  [[nodiscard]] std::string_view shared_secret_for_verification() const {
    // Exposed for tests only; clients have no access to the overlay object.
    return strings_.get(secret_id_);
  }

  void set_display_duration(sim::Duration d) noexcept { duration_ = d; }

  // Server-side entry point: show an alert for a kernel V_{A,op} request.
  const Alert& show(int pid, std::string_view comm, util::Op op,
                    util::Decision decision) {
    const sim::Timestamp now = clock_.now();
    history_.push_back(Alert{now.ns, (now + duration_).ns, pid, op, decision,
                             strings_.intern(comm), secret_id_});
    return history_.back();
  }

  // Alerts currently on screen (always above every client window: the
  // overlay is not part of the window stack at all, which is the stacking
  // guarantee).
  [[nodiscard]] std::vector<const Alert*> active(sim::Timestamp now) const;

  // Whether an alert a user sees is authentic: true iff it was rendered by
  // this overlay under the configured secret. A client-forged "alert" is a
  // regular window and never enters history_; one stamped under an earlier
  // secret stops being authentic when the user changes it.
  [[nodiscard]] bool is_authentic(const Alert& alert) const noexcept {
    return secret_id_ != 0 && alert.secret_id == secret_id_;
  }

  [[nodiscard]] const std::vector<Alert>& history() const noexcept {
    return history_;
  }

  // The process the alert names, and its rendered message
  // ("Blocked: spyd tried and is recording from the microphone").
  [[nodiscard]] std::string_view comm(const Alert& alert) const noexcept {
    return strings_.get(alert.comm_id);
  }
  [[nodiscard]] std::string text(const Alert& alert) const;

  // Render an alert the way it appears at the top of the screen (Fig. 5):
  // a banner with the visual shared secret on the left — the cat photo in
  // the paper's screenshots — and the message beside it.
  [[nodiscard]] std::string render_banner(const Alert& alert) const;
  [[nodiscard]] std::size_t shown_count() const noexcept {
    return history_.size();
  }
  void clear_history() { history_.clear(); }

 private:
  sim::Clock& clock_;
  util::StringTable strings_;  // comms and secrets, never cleared
  std::uint32_t secret_id_ = 0;
  sim::Duration duration_ = sim::Duration::seconds(4);  // "a few seconds"
  std::vector<Alert> history_;
};

}  // namespace overhaul::display
