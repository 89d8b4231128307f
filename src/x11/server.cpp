#include "x11/server.h"

namespace overhaul::x11 {

using kern::Pid;
using util::Code;
using util::Decision;
using util::Result;
using util::Status;

XServer::XServer(kern::Kernel& kernel, XServerConfig config)
    : kernel_(kernel),
      config_(config),
      alerts_(kernel.clock()),
      selections_(*this),
      screen_(*this) {
  // The X server runs as a root-owned userspace process spawned from init.
  auto pid = kernel_.sys_spawn(1, kXorgExe, "Xorg");
  pid_ = pid.is_ok() ? pid.value() : kern::kNoPid;

  // Root window covers the screen.
  auto root = std::make_unique<Window>(
      kRootWindow, kServerClient,
      Rect{0, 0, config_.screen_width, config_.screen_height});
  root->map(kernel_.clock().now());
  windows_.emplace(kRootWindow, std::move(root));

  if (config_.overhaul_enabled) {
    // §IV-A: "the X server was modified to connect to a secure communication
    // channel upon initialization". The kernel authenticates us by
    // introspecting our exe path.
    auto channel = kernel_.netlink().connect(pid_);
    if (channel.is_ok()) {
      channel_ = std::move(channel).value();
      channel_->set_alert_handler([this](const kern::AlertRequest& alert) {
        alerts_.show(alert.pid, alert.comm, alert.op, alert.decision);
      });
    }
  }

  auto& metrics = kernel_.obs().metrics;
  c_hw_events_ = metrics.counter("x11.input.hardware_events");
  c_synthetic_events_ = metrics.counter("x11.input.synthetic_events");
  c_notifications_ = metrics.counter("x11.input.notifications");
  c_clickjack_ = metrics.counter("x11.input.clickjack_suppressed");
  c_send_event_drops_ = metrics.counter("x11.send_event.drops");
}

// --- client connections -------------------------------------------------------

Result<ClientId> XServer::connect_client(Pid pid) {
  if (kernel_.processes().lookup_live(pid) == nullptr)
    return Status(Code::kNotFound, "connect: no such process");
  const ClientId id = next_client_++;
  clients_.emplace(id, std::make_unique<XClient>(id, pid));
  return id;
}

Status XServer::disconnect_client(ClientId id) {
  auto it = clients_.find(id);
  if (it == clients_.end()) return Status(Code::kNotFound, "no such client");
  it->second->disconnect();
  // Unmap and destroy the client's windows.
  std::vector<WindowId> owned;
  for (auto& [wid, win] : windows_) {
    if (win->owner() == id) owned.push_back(wid);
  }
  for (WindowId wid : owned) {
    std::erase(stacking_, wid);
    windows_.erase(wid);
    if (focus_ == wid) focus_ = kNoWindow;
    acg_.unregister_window(wid);
    if (keyboard_grab_ == wid) keyboard_grab_ = kNoWindow;
    if (pointer_grab_ == wid) pointer_grab_ = kNoWindow;
  }
  std::erase_if(event_masks_,
                [&](const auto& entry) { return entry.first.first == id; });
  selections_.on_client_disconnected(id);
  clients_.erase(it);
  return Status::ok();
}

XClient* XServer::client(ClientId id) {
  const auto it = clients_.find(id);
  return it == clients_.end() ? nullptr : it->second.get();
}

XClient* XServer::client_of_pid(Pid pid) {
  for (auto& [id, c] : clients_) {
    (void)id;
    if (c->pid() == pid) return c.get();
  }
  return nullptr;
}

// --- window management ----------------------------------------------------------

Result<WindowId> XServer::create_window(ClientId client_id, Rect rect) {
  if (client(client_id) == nullptr)
    return Status(Code::kNotFound, "create_window: no such client");
  if (rect.width <= 0 || rect.height <= 0)
    return Status(Code::kInvalidArgument, "create_window: empty geometry");
  const WindowId id = next_window_++;
  windows_.emplace(id, std::make_unique<Window>(id, client_id, rect));
  return id;
}

Status XServer::map_window(ClientId client_id, WindowId window_id) {
  Window* win = window(window_id);
  if (win == nullptr) return Status(Code::kBadWindow, "map: no such window");
  if (win->owner() != client_id)
    return Status(Code::kBadAccess, "map: not the owner");
  win->map(kernel_.clock().now());
  std::erase(stacking_, window_id);
  stacking_.push_back(window_id);  // newly mapped windows land on top
  emit_structure_notify(window_id, EventType::kMapNotify);
  return Status::ok();
}

Status XServer::unmap_window(ClientId client_id, WindowId window_id) {
  Window* win = window(window_id);
  if (win == nullptr) return Status(Code::kBadWindow, "unmap: no such window");
  if (win->owner() != client_id)
    return Status(Code::kBadAccess, "unmap: not the owner");
  win->unmap();
  std::erase(stacking_, window_id);
  emit_structure_notify(window_id, EventType::kUnmapNotify);
  return Status::ok();
}

Status XServer::raise_window(ClientId client_id, WindowId window_id) {
  Window* win = window(window_id);
  if (win == nullptr) return Status(Code::kBadWindow, "raise: no such window");
  if (win->owner() != client_id)
    return Status(Code::kBadAccess, "raise: not the owner");
  if (!win->mapped())
    return Status(Code::kInvalidArgument, "raise: window not mapped");
  std::erase(stacking_, window_id);
  stacking_.push_back(window_id);
  // Note: raising does NOT restart the visibility clock — the window was
  // already visible; only map does.
  return Status::ok();
}

Status XServer::configure_window(ClientId client_id, WindowId window_id,
                                 Rect rect) {
  Window* win = window(window_id);
  if (win == nullptr) return Status(Code::kBadWindow, "no such window");
  if (win->owner() != client_id)
    return Status(Code::kBadAccess, "not the owner");
  if (rect.width <= 0 || rect.height <= 0)
    return Status(Code::kInvalidArgument, "empty geometry");
  const sim::Timestamp now = kernel_.clock().now();
  if (rect.width != win->rect().width || rect.height != win->rect().height) {
    win->resize(rect.width, rect.height, now);
  }
  win->move_to(rect.x, rect.y, now);
  emit_structure_notify(window_id, EventType::kConfigureNotify);
  return Status::ok();
}

Status XServer::set_transparent(ClientId client_id, WindowId window_id,
                                bool on) {
  Window* win = window(window_id);
  if (win == nullptr) return Status(Code::kBadWindow, "no such window");
  if (win->owner() != client_id)
    return Status(Code::kBadAccess, "not the owner");
  win->set_transparent(on);
  return Status::ok();
}

Window* XServer::window(WindowId id) {
  const auto it = windows_.find(id);
  return it == windows_.end() ? nullptr : it->second.get();
}

std::size_t XServer::pixel_bytes() const noexcept {
  std::size_t total = 0;
  for (const auto& [id, win] : windows_) total += win->pixels().memory_bytes();
  return total;
}

Status XServer::select_input(ClientId client_id, WindowId window_id,
                             std::uint32_t mask) {
  if (client(client_id) == nullptr)
    return Status(Code::kNotFound, "select_input: no such client");
  if (window(window_id) == nullptr)
    return Status(Code::kBadWindow, "select_input: no such window");
  if (mask == kNoEventMask) {
    event_masks_.erase({client_id, window_id});
  } else {
    event_masks_[{client_id, window_id}] = mask;
  }
  return Status::ok();
}

std::vector<ClientId> XServer::clients_selecting(WindowId window_id,
                                                 std::uint32_t mask) const {
  std::vector<ClientId> out;
  for (const auto& [key, bits] : event_masks_) {
    if (key.second == window_id && (bits & mask) != 0) out.push_back(key.first);
  }
  return out;
}

void XServer::emit_structure_notify(WindowId window_id, EventType type) {
  for (ClientId cid : clients_selecting(window_id, kStructureNotifyMask)) {
    if (XClient* c = client(cid); c != nullptr) {
      XEvent ev;
      ev.type = type;
      ev.provenance = Provenance::kHardware;  // server-originated
      ev.window = window_id;
      c->enqueue(std::move(ev));
    }
  }
}

Window* XServer::window_at(int x, int y) {
  // Top of stack first.
  for (auto it = stacking_.rbegin(); it != stacking_.rend(); ++it) {
    Window* win = window(*it);
    if (win != nullptr && win->mapped() && win->rect().contains(x, y))
      return win;
  }
  return nullptr;
}

// --- input path ---------------------------------------------------------------------

bool XServer::passes_visibility_check(const Window& win) const {
  // §IV-A: "OVERHAUL only generates interaction notifications if the X
  // client receiving the event has a valid mapped window that has stayed
  // visible above a predefined time threshold." Transparent windows are
  // never *visible*, no matter how long they have been mapped.
  if (!win.mapped() || win.transparent()) return false;
  return win.visible_for(kernel_.clock().now()) >= config_.visibility_threshold;
}

void XServer::deliver_input(XEvent event, Window& win) {
  XClient* owner = client(win.owner());
  if (owner == nullptr) return;

  InputTraceEntry trace;
  trace.time = kernel_.clock().now();
  trace.type = event.type;
  trace.provenance = event.provenance;
  trace.receiver_pid = owner->pid();
  trace.window = win.id();

  if (event.provenance == Provenance::kHardware) {
    ++stats_.hardware_events;
    c_hw_events_->add();
    if (config_.overhaul_enabled && channel_ != nullptr) {
      if (passes_visibility_check(win)) {
        kern::InteractionNotification note;
        note.pid = owner->pid();
        note.ts = kernel_.clock().now();
        if (channel_->send_interaction(note).is_ok()) {
          ++stats_.interaction_notifications;
          c_notifications_->add();
          trace.produced_notification = true;
        }
        // ACG comparison mode: a click inside a registered gadget also
        // produces an op-specific grant notification.
        if (event.type == EventType::kButtonPress) {
          if (const auto op = acg_.gadget_hit(win, event.x, event.y);
              op.has_value()) {
            kern::AcgGrantNotification grant;
            grant.pid = owner->pid();
            grant.op = *op;
            grant.ts = kernel_.clock().now();
            (void)channel_->send_acg_grant(grant);
          }
        }
      } else {
        ++stats_.clickjack_suppressed;
        c_clickjack_->add();
        trace.clickjack_suppressed = true;
      }
    }
  } else {
    ++stats_.synthetic_events;
    c_synthetic_events_->add();
  }

  input_trace_.push_back(trace);
  if (input_trace_.size() > kInputTraceCapacity) input_trace_.pop_front();

  event.window = win.id();
  owner->enqueue(std::move(event));
}

Status XServer::grab_keyboard(ClientId client_id, WindowId window_id) {
  Window* win = window(window_id);
  if (win == nullptr) return Status(Code::kBadWindow, "grab: no such window");
  if (win->owner() != client_id)
    return Status(Code::kBadAccess, "grab: not the owner");
  if (keyboard_grab_ != kNoWindow)
    return Status(Code::kBusy, "grab: keyboard already grabbed");
  keyboard_grab_ = window_id;
  return Status::ok();
}

Status XServer::ungrab_keyboard(ClientId client_id) {
  Window* win = window(keyboard_grab_);
  if (win == nullptr || win->owner() != client_id)
    return Status(Code::kBadAccess, "ungrab: not the grabber");
  keyboard_grab_ = kNoWindow;
  return Status::ok();
}

Status XServer::grab_pointer(ClientId client_id, WindowId window_id) {
  Window* win = window(window_id);
  if (win == nullptr) return Status(Code::kBadWindow, "grab: no such window");
  if (win->owner() != client_id)
    return Status(Code::kBadAccess, "grab: not the owner");
  if (pointer_grab_ != kNoWindow)
    return Status(Code::kBusy, "grab: pointer already grabbed");
  pointer_grab_ = window_id;
  return Status::ok();
}

Status XServer::ungrab_pointer(ClientId client_id) {
  Window* win = window(pointer_grab_);
  if (win == nullptr || win->owner() != client_id)
    return Status(Code::kBadAccess, "ungrab: not the grabber");
  pointer_grab_ = kNoWindow;
  return Status::ok();
}

void XServer::hardware_button_press(int x, int y, int button) {
  // The prompt strip sits above every window; clicks there never reach
  // clients. Only this path carries hardware provenance.
  if (prompts_.handle_click(x, y, /*hardware_provenance=*/true)) return;
  // An active pointer grab intercepts the click regardless of position.
  if (pointer_grab_ != kNoWindow) {
    if (Window* grabber = window(pointer_grab_); grabber != nullptr) {
      XEvent ev;
      ev.type = EventType::kButtonPress;
      ev.provenance = Provenance::kHardware;
      ev.button = button;
      ev.x = x;
      ev.y = y;
      deliver_input(std::move(ev), *grabber);
      return;
    }
  }
  Window* win = window_at(x, y);
  if (win == nullptr) return;  // click on bare root: no client target
  focus_ = win->id();
  XEvent ev;
  ev.type = EventType::kButtonPress;
  ev.provenance = Provenance::kHardware;
  ev.button = button;
  ev.x = x;
  ev.y = y;
  deliver_input(std::move(ev), *win);
}

void XServer::hardware_key_press(int keycode) {
  // An active keyboard grab steals keystrokes from the focus window.
  Window* win = keyboard_grab_ != kNoWindow ? window(keyboard_grab_)
                                            : window(focus_);
  if (win == nullptr) return;
  if (keyboard_grab_ == kNoWindow && !win->mapped()) return;
  XEvent ev;
  ev.type = EventType::kKeyPress;
  ev.provenance = Provenance::kHardware;
  ev.keycode = keycode;
  deliver_input(std::move(ev), *win);
}

Status XServer::send_event(ClientId sender, WindowId target, XEvent event) {
  if (client(sender) == nullptr)
    return Status(Code::kNotFound, "send_event: no such client");
  Window* win = window(target);
  if (win == nullptr) return Status(Code::kBadWindow, "send_event: bad window");

  // Wire format: events sent with SendEvent carry the synthetic flag — this
  // is core X11 behaviour, not an Overhaul addition.
  event.provenance = Provenance::kSendEvent;
  event.synthetic_flag = true;

  // Overhaul's clipboard-protocol policing (§IV-A): block SendEvents "that
  // can break the copy & paste protocol".
  if (config_.overhaul_enabled) {
    if (!selections_.send_event_allowed(sender, event)) {
      ++stats_.blocked_send_events;
      c_send_event_drops_->add();
      if (kernel_.obs().tracer.enabled()) {
        XClient* s = client(sender);
        kernel_.obs().tracer.instant(
            "SendEvent::blocked", "x11", s != nullptr ? s->pid() : 0,
            {{"type_code", std::to_string(static_cast<int>(event.type))}});
      }
      return Status(Code::kBadAccess, "send_event: out-of-protocol event");
    }
    if (event.type == EventType::kSelectionNotify)
      selections_.on_selection_notify_sent(sender, event);
  }

  // The event transits the wire: the synthetic flag is carried by the wire
  // format itself (top bit of the event-code byte), so the receiver's view
  // cannot be laundered by the sender.
  const wire::EventRecord record = wire::encode_event(event, atoms_);
  auto decoded = wire::decode_event(record, atoms_);
  if (!decoded.is_ok()) return decoded.status();

  deliver_input(std::move(decoded).value(), *win);
  return Status::ok();
}

Status XServer::xtest_fake_button(ClientId sender, int x, int y) {
  if (client(sender) == nullptr)
    return Status(Code::kNotFound, "xtest: no such client");
  // A fake click aimed at a pending prompt's buttons is a forgery attempt:
  // swallowed and counted, never able to decide the prompt.
  if (prompts_.handle_click(x, y, /*hardware_provenance=*/false))
    return Status::ok();
  Window* win = window_at(x, y);
  if (win == nullptr) return Status::ok();
  focus_ = win->id();
  XEvent ev;
  ev.type = EventType::kButtonPress;
  // No wire flag — but the modified server tags the provenance (§IV-A), so
  // deliver_input will not treat it as an interaction.
  ev.provenance = Provenance::kXTest;
  ev.button = 1;
  ev.x = x;
  ev.y = y;
  deliver_input(std::move(ev), *win);
  return Status::ok();
}

Status XServer::xtest_fake_key(ClientId sender, int keycode) {
  if (client(sender) == nullptr)
    return Status(Code::kNotFound, "xtest: no such client");
  Window* win = window(focus_);
  if (win == nullptr || !win->mapped()) return Status::ok();
  XEvent ev;
  ev.type = EventType::kKeyPress;
  ev.provenance = Provenance::kXTest;
  ev.keycode = keycode;
  deliver_input(std::move(ev), *win);
  return Status::ok();
}

// --- Overhaul liaison ------------------------------------------------------------------

Decision XServer::ask_monitor(ClientId client_id, util::Op op,
                              std::string_view detail) {
  if (!config_.overhaul_enabled) return Decision::kGrant;  // unmodified server
  XClient* c = client(client_id);
  if (c == nullptr || channel_ == nullptr) return Decision::kDeny;

  kern::PermissionQuery query;
  query.pid = c->pid();
  query.op = op;
  query.op_time = kernel_.clock().now();
  query.detail.assign(detail.data(), detail.size());
  auto reply = channel_->query_permission(query);
  return reply.is_ok() ? reply.value().decision : Decision::kDeny;
}

}  // namespace overhaul::x11
