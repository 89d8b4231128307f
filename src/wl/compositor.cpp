#include "wl/compositor.h"

namespace overhaul::wl {

using kern::Pid;
using util::Code;
using util::Decision;
using util::Result;
using util::Status;

WlCompositor::WlCompositor(kern::Kernel& kernel, WlCompositorConfig config)
    : kernel_(kernel),
      config_(config),
      seat_(kernel.clock()),
      alerts_(kernel.clock()) {
  // The compositor runs as a root-owned userspace process spawned from init,
  // exactly like the X server on the other side of the seam.
  auto pid = kernel_.sys_spawn(1, kCompositorExe, "wayland-compositor");
  pid_ = pid.is_ok() ? pid.value() : kern::kNoPid;

  if (config_.overhaul_enabled) {
    // §IV-A translated: the modified compositor connects to the secure
    // communication channel upon initialization. The kernel authenticates us
    // by introspecting our exe path.
    auto channel = kernel_.netlink().connect(pid_);
    if (channel.is_ok()) {
      channel_ = std::move(channel).value();
      channel_->set_alert_handler([this](const kern::AlertRequest& alert) {
        alerts_.show(alert.pid, alert.comm, alert.op, alert.decision);
      });
    }
  }

  auto& metrics = kernel_.obs().metrics;
  c_hw_events_ = metrics.counter("wl.input.hardware_events");
  c_notifications_ = metrics.counter("wl.input.notifications");
  c_clickjack_ = metrics.counter("wl.input.clickjack_suppressed");
  c_forged_serials_ = metrics.counter("wl.input.forged_serials");
  data_.attach_obs(metrics.counter("wl.clipboard.copies_granted"),
                   metrics.counter("wl.clipboard.copies_denied"),
                   metrics.counter("wl.clipboard.pastes_granted"),
                   metrics.counter("wl.clipboard.pastes_denied"));
  screencopy_.attach_obs(metrics.counter("wl.screencopy.captures_granted"),
                         metrics.counter("wl.screencopy.captures_denied"));
}

// --- client connections -------------------------------------------------------

Result<WlClientId> WlCompositor::connect_client(Pid pid) {
  if (kernel_.processes().lookup_live(pid) == nullptr)
    return Status(Code::kNotFound, "connect: no such process");
  const WlClientId id = next_client_++;
  connections_.emplace(id, std::make_unique<WlConnection>(id, pid));
  return id;
}

Status WlCompositor::disconnect_client(WlClientId id) {
  auto it = connections_.find(id);
  if (it == connections_.end())
    return Status(Code::kNotFound, "no such client");
  it->second->disconnect();
  std::vector<SurfaceId> owned;
  for (auto& [sid, surf] : surfaces_) {
    if (surf->owner() == id) owned.push_back(sid);
  }
  for (SurfaceId sid : owned) {
    std::erase(stacking_, sid);
    surfaces_.erase(sid);
    if (seat_.keyboard_focus() == sid) seat_.set_keyboard_focus(kNoSurface);
    if (seat_.pointer_focus() == sid) seat_.set_pointer_focus(kNoSurface);
  }
  data_.on_client_disconnected(id);
  connections_.erase(it);
  return Status::ok();
}

WlConnection* WlCompositor::connection(WlClientId id) {
  const auto it = connections_.find(id);
  return it == connections_.end() ? nullptr : it->second.get();
}

WlConnection* WlCompositor::connection_of_pid(Pid pid) {
  for (auto& [id, c] : connections_) {
    (void)id;
    if (c->pid() == pid) return c.get();
  }
  return nullptr;
}

// --- surface lifecycle --------------------------------------------------------

Result<SurfaceId> WlCompositor::create_surface(WlClientId client,
                                               display::Rect rect) {
  if (connection(client) == nullptr)
    return Status(Code::kNotFound, "create_surface: no such client");
  if (rect.width <= 0 || rect.height <= 0)
    return Status(Code::kInvalidArgument, "create_surface: empty geometry");
  const SurfaceId id = next_surface_++;
  surfaces_.emplace(id, std::make_unique<WlSurface>(id, client, rect));
  return id;
}

Status WlCompositor::map_surface(WlClientId client, SurfaceId surface_id) {
  WlSurface* surf = surface(surface_id);
  if (surf == nullptr) return Status(Code::kBadWindow, "map: no such surface");
  if (surf->owner() != client)
    return Status(Code::kBadAccess, "map: not the owner");
  surf->map(kernel_.clock().now());
  std::erase(stacking_, surface_id);
  stacking_.push_back(surface_id);  // newly mapped surfaces land on top
  // xdg_surface.configure acknowledging the map.
  if (WlConnection* owner = connection(client); owner != nullptr) {
    WlEvent ev;
    ev.type = WlEventType::kSurfaceConfigure;
    ev.surface = surface_id;
    owner->enqueue(std::move(ev));
  }
  return Status::ok();
}

Status WlCompositor::unmap_surface(WlClientId client, SurfaceId surface_id) {
  WlSurface* surf = surface(surface_id);
  if (surf == nullptr)
    return Status(Code::kBadWindow, "unmap: no such surface");
  if (surf->owner() != client)
    return Status(Code::kBadAccess, "unmap: not the owner");
  surf->unmap();
  std::erase(stacking_, surface_id);
  return Status::ok();
}

Status WlCompositor::raise_surface(WlClientId client, SurfaceId surface_id) {
  WlSurface* surf = surface(surface_id);
  if (surf == nullptr)
    return Status(Code::kBadWindow, "raise: no such surface");
  if (surf->owner() != client)
    return Status(Code::kBadAccess, "raise: not the owner");
  if (!surf->mapped())
    return Status(Code::kInvalidArgument, "raise: surface not mapped");
  std::erase(stacking_, surface_id);
  stacking_.push_back(surface_id);
  // Note: raising does NOT restart the visibility clock — the surface was
  // already visible; only map does.
  return Status::ok();
}

Status WlCompositor::configure_surface(WlClientId client, SurfaceId surface_id,
                                       display::Rect rect) {
  WlSurface* surf = surface(surface_id);
  if (surf == nullptr) return Status(Code::kBadWindow, "no such surface");
  if (surf->owner() != client)
    return Status(Code::kBadAccess, "not the owner");
  if (rect.width <= 0 || rect.height <= 0)
    return Status(Code::kInvalidArgument, "empty geometry");
  const sim::Timestamp now = kernel_.clock().now();
  if (rect.width != surf->rect().width ||
      rect.height != surf->rect().height) {
    surf->resize(rect.width, rect.height, now);
  }
  surf->move_to(rect.x, rect.y, now);
  if (WlConnection* owner = connection(client); owner != nullptr) {
    WlEvent ev;
    ev.type = WlEventType::kSurfaceConfigure;
    ev.surface = surface_id;
    owner->enqueue(std::move(ev));
  }
  return Status::ok();
}

Status WlCompositor::set_input_only(WlClientId client, SurfaceId surface_id,
                                    bool on) {
  WlSurface* surf = surface(surface_id);
  if (surf == nullptr) return Status(Code::kBadWindow, "no such surface");
  if (surf->owner() != client)
    return Status(Code::kBadAccess, "not the owner");
  surf->set_input_only(on);
  return Status::ok();
}

WlSurface* WlCompositor::surface(SurfaceId id) {
  const auto it = surfaces_.find(id);
  return it == surfaces_.end() ? nullptr : it->second.get();
}

std::size_t WlCompositor::pixel_bytes() const noexcept {
  std::size_t total = 0;
  for (const auto& [id, surf] : surfaces_) total += surf->pixels().memory_bytes();
  return total;
}

WlSurface* WlCompositor::surface_at(int x, int y) {
  // Top of stack first.
  for (auto it = stacking_.rbegin(); it != stacking_.rend(); ++it) {
    WlSurface* surf = surface(*it);
    if (surf != nullptr && surf->mapped() && surf->rect().contains(x, y))
      return surf;
  }
  return nullptr;
}

// --- trusted input path -------------------------------------------------------

bool WlCompositor::passes_visibility_check(const WlSurface& surf) const {
  // Same rule as the X11 backend (§IV-A): interaction notifications only for
  // a mapped surface that has stayed visible above the threshold. Input-only
  // surfaces are never *visible*, no matter how long they have been mapped.
  if (!surf.mapped() || surf.input_only()) return false;
  return surf.visible_for(kernel_.clock().now()) >=
         config_.visibility_threshold;
}

void WlCompositor::deliver_input(WlEvent event, WlSurface& surf) {
  WlConnection* owner = connection(surf.owner());
  if (owner == nullptr) return;

  // Every delivered hardware event mints exactly one serial — this is the
  // only call site of mint_serial, which is what makes serial provenance
  // meaningful: a serial not on this path was never a user action.
  const Serial serial = seat_.mint_serial(owner->id(), surf.id());
  event.serial = serial;
  owner->note_input_serial(serial);

  InputTraceEntry trace;
  trace.time = kernel_.clock().now();
  trace.type = event.type;
  trace.receiver_pid = owner->pid();
  trace.surface = surf.id();
  trace.serial = serial;

  ++stats_.hardware_events;
  c_hw_events_->add();
  if (config_.overhaul_enabled && channel_ != nullptr) {
    if (passes_visibility_check(surf)) {
      kern::InteractionNotification note;
      note.pid = owner->pid();
      note.ts = kernel_.clock().now();
      if (channel_->send_interaction(note).is_ok()) {
        ++stats_.interaction_notifications;
        c_notifications_->add();
        trace.produced_notification = true;
      }
    } else {
      ++stats_.clickjack_suppressed;
      c_clickjack_->add();
      trace.clickjack_suppressed = true;
    }
  }

  input_trace_.push_back(trace);
  if (input_trace_.size() > kInputTraceCapacity) input_trace_.pop_front();

  event.surface = surf.id();
  owner->enqueue(std::move(event));
}

void WlCompositor::hardware_button_press(int x, int y, int button) {
  WlSurface* surf = surface_at(x, y);
  if (surf == nullptr) return;  // click on the bare output: no client target
  seat_.set_pointer_focus(surf->id());
  const bool focus_changed = seat_.keyboard_focus() != surf->id();
  seat_.set_keyboard_focus(surf->id());

  WlEvent ev;
  ev.type = WlEventType::kPointerButton;
  ev.button = button;
  ev.x = x;
  ev.y = y;
  deliver_input(std::move(ev), *surf);

  if (focus_changed) {
    // Keyboard enter carries the current selection offer (Wayland re-sends
    // the data_offer on every keyboard-focus change).
    if (WlConnection* owner = connection(surf->owner()); owner != nullptr) {
      WlEvent enter;
      enter.type = WlEventType::kKeyboardEnter;
      enter.surface = surf->id();
      owner->enqueue(std::move(enter));
    }
    data_.advertise_to_focus();
  }
}

void WlCompositor::hardware_key_press(int keycode) {
  WlSurface* surf = surface(seat_.keyboard_focus());
  if (surf == nullptr || !surf->mapped()) return;
  WlEvent ev;
  ev.type = WlEventType::kKeyboardKey;
  ev.keycode = keycode;
  deliver_input(std::move(ev), *surf);
}

bool WlCompositor::validate_serial(WlClientId client, Serial serial) {
  if (seat_.serial_valid(client, serial)) return true;
  ++stats_.forged_serials;
  c_forged_serials_->add();
  return false;
}

// --- Overhaul liaison ---------------------------------------------------------

Decision WlCompositor::ask_monitor(std::uint32_t client, util::Op op,
                                   std::string_view detail) {
  if (!config_.overhaul_enabled)
    return Decision::kGrant;  // unmodified compositor
  WlConnection* c = connection(client);
  if (c == nullptr || channel_ == nullptr) return Decision::kDeny;

  kern::PermissionQuery query;
  query.pid = c->pid();
  query.op = op;
  query.op_time = kernel_.clock().now();
  query.detail.assign(detail.data(), detail.size());
  auto reply = channel_->query_permission(query);
  return reply.is_ok() ? reply.value().decision : Decision::kDeny;
}

}  // namespace overhaul::wl
