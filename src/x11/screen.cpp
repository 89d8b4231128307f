#include "x11/screen.h"

#include "display/pixel_store.h"
#include "x11/server.h"

namespace overhaul::x11 {

using util::Code;
using util::Decision;
using util::Op;
using util::Result;
using util::Status;

Status ScreenResources::authorize_capture(ClientId client, WindowId window_id) {
  Window* win = server_.window(window_id);
  if (win == nullptr) return Status(Code::kBadWindow, "no such window");

  // Capturing your own window is always fine; the root window and foreign
  // windows require the input-correlation check.
  if (window_id != kRootWindow && win->owner() == client) return Status::ok();

  if (!server_.overhaul_enabled()) return Status::ok();  // unmodified server

  const Decision d = server_.ask_monitor(
      client, Op::kScreenCapture,
      window_id == kRootWindow ? "root" : "window " + std::to_string(window_id));
  if (d == Decision::kDeny) {
    ++stats_.captures_denied;
    return Status(Code::kBadAccess, "screen capture not preceded by input");
  }
  ++stats_.captures_granted;
  return Status::ok();
}

Image ScreenResources::composite_screen() const {
  const Window* root =
      const_cast<XServer&>(server_).window(kRootWindow);
  Image img = display::capture(root->pixels());  // background first
  // Paint mapped windows bottom → top, clipped to the screen.
  for (WindowId wid : server_.stacking_order()) {
    if (wid == kRootWindow) continue;
    const Window* win = const_cast<XServer&>(server_).window(wid);
    if (win == nullptr || !win->mapped() || win->transparent()) continue;
    display::blit(win->pixels(), win->rect().x, win->rect().y, img);
  }
  return img;
}

Result<Image> ScreenResources::get_image(ClientId client, WindowId window_id) {
  obs::Tracer::Span span;
  if (auto& tracer = server_.obs().tracer; tracer.enabled()) {
    XClient* c = server_.client(client);
    span = tracer.span("Screen::get_image", "x11",
                       c != nullptr ? c->pid() : 0);
    span.arg("window", std::to_string(window_id));
  }
  if (auto s = authorize_capture(client, window_id); !s.is_ok()) return s;

  if (window_id == kRootWindow) return composite_screen();

  // A real copy — the baseline cost of GetImage.
  return display::capture(server_.window(window_id)->pixels());
}

Result<std::size_t> ScreenResources::xshm_get_image(ClientId client,
                                                    WindowId window_id,
                                                    kern::ShmMapping& dst) {
  obs::Tracer::Span span;
  if (auto& tracer = server_.obs().tracer; tracer.enabled()) {
    XClient* c = server_.client(client);
    span = tracer.span("Screen::xshm_get_image", "x11",
                       c != nullptr ? c->pid() : 0);
    span.arg("window", std::to_string(window_id));
  }
  if (auto s = authorize_capture(client, window_id); !s.is_ok()) return s;

  const Image img = window_id == kRootWindow
                        ? composite_screen()
                        : display::capture(server_.window(window_id)->pixels());
  const std::size_t bytes = img.pixels.size() * sizeof(std::uint32_t);
  if (bytes > dst.segment()->size())
    return Status(Code::kInvalidArgument, "shm segment too small for image");

  // Write through the X server's own task so the kernel page-fault
  // interposition sees the transfer like any other shared-memory IPC.
  kern::TaskStruct* server_task =
      server_.kernel().processes().lookup_live(server_.pid());
  if (server_task == nullptr)
    return Status(Code::kNotFound, "X server task missing");
  if (auto s = dst.write(*server_task, 0, img.pixels.data(), bytes); !s.is_ok())
    return s;
  return bytes;
}

Status ScreenResources::copy_area(ClientId client, WindowId src_id,
                                  WindowId dst_id) {
  Window* src = server_.window(src_id);
  Window* dst = server_.window(dst_id);
  if (src == nullptr || dst == nullptr)
    return Status(Code::kBadWindow, "copy_area: bad window");
  if (dst->owner() != client)
    return Status(Code::kBadAccess, "copy_area: destination not owned");

  // §IV-A: "If the owners of both buffers are identical ... the request is
  // allowed to proceed" — no permission query for a self-copy.
  if (src_id != kRootWindow && src->owner() == dst->owner()) {
    ++stats_.same_owner_copies;
  } else if (auto s = authorize_capture(client, src_id); !s.is_ok()) {
    return s;
  }

  dst->pixels().copy_from(src->pixels());
  return Status::ok();
}

Status ScreenResources::copy_plane(ClientId client, WindowId src_id,
                                   WindowId dst_id, unsigned plane) {
  if (plane >= 32)
    return Status(Code::kInvalidArgument, "copy_plane: bad plane");
  Window* src = server_.window(src_id);
  Window* dst = server_.window(dst_id);
  if (src == nullptr || dst == nullptr)
    return Status(Code::kBadWindow, "copy_plane: bad window");
  if (dst->owner() != client)
    return Status(Code::kBadAccess, "copy_plane: destination not owned");

  if (src_id != kRootWindow && src->owner() == dst->owner()) {
    ++stats_.same_owner_copies;
  } else if (auto s = authorize_capture(client, src_id); !s.is_ok()) {
    return s;
  }

  dst->pixels().copy_from(src->pixels(), 1u << plane);
  return Status::ok();
}

}  // namespace overhaul::x11
