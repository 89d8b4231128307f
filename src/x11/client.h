// XClient: a connected client with its event queue and pid binding.
//
// §IV-A: interaction notifications "are labeled with the PID of the process
// that received the event and a timestamp. The PID serves as an unforgeable
// binding between a window belonging to a process and events, as the mapping
// between X client sockets and the PID is retrieved from the kernel." The
// pid recorded here is that kernel-provided socket-peer binding — clients
// cannot choose it.
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "kern/task.h"
#include "x11/window.h"

namespace overhaul::x11 {

enum class EventType : std::uint8_t {
  kKeyPress,
  kButtonPress,
  kSelectionRequest,  // server → selection owner: produce the data
  kSelectionNotify,   // owner → requestor: data is ready
  kPropertyNotify,    // property created/changed on a window
  kMapNotify,         // StructureNotify family
  kUnmapNotify,
  kConfigureNotify,
};

// SelectInput masks: which event families a client wants delivered for a
// given window. Any client may select on any window (core X semantics —
// exactly the snooping surface Overhaul polices for in-flight clipboard
// properties). Input events (key/button) are delivered to the window owner
// through the trusted input path and are not selectable by other clients.
enum EventMask : std::uint32_t {
  kNoEventMask = 0,
  kPropertyChangeMask = 1u << 0,
  kStructureNotifyMask = 1u << 1,
};

// Where an input event came from — the provenance tag §IV-A adds to the X
// server ("it was necessary to modify the X server to tag events with the
// extension or driver that generated the event").
enum class Provenance : std::uint8_t {
  kHardware,   // real input driver
  kSendEvent,  // core-protocol SendEvent (synthetic flag set on the wire)
  kXTest,      // XTEST extension fake input
};

struct XEvent {
  EventType type = EventType::kKeyPress;
  Provenance provenance = Provenance::kHardware;
  bool synthetic_flag = false;  // the SendEvent wire-format flag
  WindowId window = kNoWindow;  // delivery window

  // Input payload.
  int keycode = 0;
  int button = 0;
  int x = 0, y = 0;

  // Selection payload.
  std::string selection;  // e.g. "CLIPBOARD", "PRIMARY"
  std::string property;   // property atom carrying the data
  std::string target;     // requested conversion target, e.g. "STRING",
                          // "UTF8_STRING", or "TARGETS" (ICCCM negotiation)
  WindowId requestor = kNoWindow;
};

class XClient {
 public:
  XClient(ClientId id, kern::Pid pid) : id_(id), pid_(pid) {}

  [[nodiscard]] ClientId id() const noexcept { return id_; }
  [[nodiscard]] kern::Pid pid() const noexcept { return pid_; }

  // A client that never pumps its queue cannot grow server memory without
  // bound (the X server disconnects such clients; we drop + count instead
  // so scenarios stay analyzable). 512 events is 64 KiB per client, which
  // every fleet seat pays: its session never reads its input.
  static constexpr std::size_t kMaxQueuedEvents = 512;

  void enqueue(XEvent event) {
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
  XEvent next_event() {
    XEvent ev = std::move(queue_.front());
    queue_.pop_front();
    return ev;
  }

  void drain() { queue_.clear(); }

  [[nodiscard]] bool connected() const noexcept { return connected_; }
  void disconnect() noexcept { connected_ = false; }

 private:
  ClientId id_;
  kern::Pid pid_;
  bool connected_ = true;
  std::deque<XEvent> queue_;
  std::uint64_t dropped_events_ = 0;
};

}  // namespace overhaul::x11
