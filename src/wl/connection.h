// WlConnection: a connected Wayland client with its event queue and pid
// binding.
//
// Like x11::XClient, the pid recorded here is the kernel-provided
// socket-peer binding (SO_PEERCRED on a real compositor) — clients cannot
// choose it, which is what makes interaction notifications and permission
// queries attributable (§IV-A).
//
// The connection also remembers the *last input serial* the compositor
// delivered to this client. Well-behaved toolkits echo that serial back on
// requests that claim to be user-initiated (wl_data_device.set_selection);
// the seat validates the echo. A client that never received input has no
// serial to present — only a forged one.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "kern/task.h"
#include "wl/surface.h"

namespace overhaul::wl {

enum class WlEventType : std::uint8_t {
  kPointerButton,    // wl_pointer.button (with enter implied)
  kKeyboardKey,      // wl_keyboard.key
  kKeyboardEnter,    // keyboard focus gained (carries the selection offer)
  kSurfaceConfigure, // xdg_surface.configure
  kDataOffer,        // wl_data_device.data_offer + selection
  kDataSendRequest,  // wl_data_source.send: produce the data for a mime type
};

struct WlEvent {
  WlEventType type = WlEventType::kPointerButton;
  Serial serial = kInvalidSerial;  // compositor-minted; 0 for non-input events
  SurfaceId surface = kNoSurface;

  // Input payload.
  int keycode = 0;
  int button = 0;
  int x = 0, y = 0;

  // Data-device payload.
  std::string mime;                      // send request target type
  std::vector<std::string> mime_types;   // offer advertisement
};

class WlConnection {
 public:
  WlConnection(WlClientId id, kern::Pid pid) : id_(id), pid_(pid) {}

  [[nodiscard]] WlClientId id() const noexcept { return id_; }
  [[nodiscard]] kern::Pid pid() const noexcept { return pid_; }

  // Same bound as x11::XClient: a client that never pumps its queue cannot
  // grow compositor memory without bound. (libwayland is stricter still: a
  // client whose 4 KiB connection buffer fills is disconnected.)
  static constexpr std::size_t kMaxQueuedEvents = 512;

  void enqueue(WlEvent event) {
    if (queue_.size() >= kMaxQueuedEvents) {
      ++dropped_events_;
      return;
    }
    queue_.push_back(std::move(event));
  }

  [[nodiscard]] std::uint64_t dropped_events() const noexcept {
    return dropped_events_;
  }

  [[nodiscard]] bool has_events() const noexcept { return !queue_.empty(); }
  [[nodiscard]] std::size_t pending_events() const noexcept {
    return queue_.size();
  }

  // Pop the next event (FIFO). Caller must check has_events().
  WlEvent next_event() {
    WlEvent ev = std::move(queue_.front());
    queue_.pop_front();
    return ev;
  }

  void drain() { queue_.clear(); }

  [[nodiscard]] bool connected() const noexcept { return connected_; }
  void disconnect() noexcept { connected_ = false; }

  // The serial of the last hardware input event the compositor delivered to
  // this client (what a toolkit would present with set_selection).
  [[nodiscard]] Serial last_input_serial() const noexcept {
    return last_input_serial_;
  }
  void note_input_serial(Serial serial) noexcept {
    last_input_serial_ = serial;
  }

 private:
  WlClientId id_;
  kern::Pid pid_;
  bool connected_ = true;
  std::deque<WlEvent> queue_;
  std::uint64_t dropped_events_ = 0;
  Serial last_input_serial_ = kInvalidSerial;
};

}  // namespace overhaul::wl
