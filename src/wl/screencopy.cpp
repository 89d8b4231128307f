#include "wl/screencopy.h"

#include <string>

#include "display/pixel_store.h"
#include "wl/compositor.h"

namespace overhaul::wl {

using util::Code;
using util::Decision;
using util::Op;
using util::Result;
using util::Status;

Status WlScreencopyManager::authorize_capture(WlClientId client,
                                              SurfaceId surface_id) {
  if (comp_.connection(client) == nullptr)
    return Status(Code::kNotFound, "screencopy: no such client");
  if (surface_id != kNoSurface) {
    WlSurface* surf = comp_.surface(surface_id);
    if (surf == nullptr) return Status(Code::kBadWindow, "no such surface");
    // Capturing your own surface is always fine — the same-owner fast path.
    if (surf->owner() == client) {
      ++stats_.own_surface_captures;
      return Status::ok();
    }
  }

  if (!comp_.overhaul_enabled()) return Status::ok();  // unmodified compositor

  const Decision d = comp_.ask_monitor(
      client, Op::kScreenCapture,
      surface_id == kNoSurface ? "output"
                               : "surface " + std::to_string(surface_id));
  if (d == Decision::kDeny) {
    ++stats_.captures_denied;
    if (c_denied_ != nullptr) c_denied_->add();
    return Status(Code::kBadAccess, "screen capture not preceded by input");
  }
  ++stats_.captures_granted;
  if (c_granted_ != nullptr) c_granted_->add();
  return Status::ok();
}

display::Image WlScreencopyManager::composite_output() const {
  WlCompositor& comp = comp_;
  display::Image img;
  img.width = comp.config().screen_width;
  img.height = comp.config().screen_height;
  img.pixels.assign(
      static_cast<std::size_t>(img.width) * static_cast<std::size_t>(img.height),
      0);  // bare output background
  // Paint mapped surfaces bottom → top, clipped to the output.
  for (SurfaceId sid : comp.stacking_order()) {
    const WlSurface* surf = comp.surface(sid);
    if (surf == nullptr || !surf->mapped() || surf->input_only()) continue;
    display::blit(surf->pixels(), surf->rect().x, surf->rect().y, img);
  }
  return img;
}

Result<display::Image> WlScreencopyManager::capture_output(WlClientId client) {
  obs::Tracer::Span span;
  if (auto& tracer = comp_.obs().tracer; tracer.enabled()) {
    WlConnection* c = comp_.connection(client);
    span = tracer.span("Screencopy::capture_output", "wl",
                       c != nullptr ? c->pid() : 0);
  }
  if (auto s = authorize_capture(client, kNoSurface); !s.is_ok()) return s;
  return composite_output();
}

Result<display::Image> WlScreencopyManager::capture_surface(
    WlClientId client, SurfaceId surface_id) {
  obs::Tracer::Span span;
  if (auto& tracer = comp_.obs().tracer; tracer.enabled()) {
    WlConnection* c = comp_.connection(client);
    span = tracer.span("Screencopy::capture_surface", "wl",
                       c != nullptr ? c->pid() : 0);
    span.arg("surface", std::to_string(surface_id));
  }
  if (auto s = authorize_capture(client, surface_id); !s.is_ok()) return s;

  // A real copy — the baseline cost of a capture.
  return display::capture(comp_.surface(surface_id)->pixels());
}

}  // namespace overhaul::wl
