// desktop_session: δ-policy desktop sessions on the default configuration
// (δ = 2 s, coalescing on, audit on, trace off), alternating between an
// X11 system and a Wayland system, each paired session by session with an
// unmodified (baseline) system of the same backend running the same script.
//
// A session: a click and a copy in the editor, a typing burst, a click and
// a paste into the notes app, mic and camera opens in the video app with
// gaps drawn on both sides of δ, a capture of the app's own window, a CLI
// child forked from it (P1), a stamp handoff to the child over pipe, UNIX
// socket, pty, POSIX mq and SysV mq (P2) each followed by the child's
// camera open, a spyware process trying mic, clipboard and screen, and
// forged input (SendEvent/XTEST on X11, forged serials on Wayland) that
// must mint nothing. Every kReadbackEvery sessions an operator reads
// /proc/overhaul/metrics, filters the audit ring by pid and round-trips an
// audit snapshot through audit::Reader.
#include <memory>
#include <string>
#include <vector>

#include "audit/snapshot.h"
#include "spans.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

using namespace overhaul;
using util::Code;
using util::Op;

namespace {

// Odd, so read-backs alternate between backends and between traced and
// untraced sessions.
constexpr int kReadbackEvery = 31;
constexpr std::size_t kScripts = 4096;
constexpr std::size_t kAuditCapacity = 2048;
constexpr std::int64_t kDeltaMs = 2000;
constexpr int kFamilies = 5;
constexpr int kKeycode = 38;

enum Family { kPipe, kSocket, kPty, kPosixMq, kSysvMq };

constexpr Kind kHopKind[kFamilies] = {Kind::kKernIpcPipe, Kind::kKernIpcSocket,
                                      Kind::kKernIpcPty, Kind::kKernIpcPosixMq,
                                      Kind::kKernIpcSysvMq};

struct SessionScript {
  int keys = 1;
  int key_gap_ms[5] = {};
  int mic_gap_ms = 0;
  int cam_gap_ms = 0;
  std::string paste;  // 64 B – 4 KiB of text copied editor → notes
  int stale_gap_ms[kFamilies] = {};
  int order[kFamilies] = {};
};

std::vector<SessionScript> make_scripts(std::uint64_t seed) {
  util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 23);
  std::vector<SessionScript> out(kScripts);
  for (SessionScript& s : out) {
    s.keys = 1 + static_cast<int>(rng.next_below(5));
    for (int& g : s.key_gap_ms) g = 1 + static_cast<int>(rng.next_below(5));
    // Both sides of δ: the mic open lands anywhere in [0, 2δ) after the
    // click, the camera open a further [0, δ) later.
    s.mic_gap_ms = static_cast<int>(rng.next_below(2 * kDeltaMs));
    s.cam_gap_ms = static_cast<int>(rng.next_below(kDeltaMs));
    s.paste.resize(64 + rng.next_below(4033));
    for (char& ch : s.paste) ch = static_cast<char>('a' + rng.next_below(26));
    for (int& g : s.stale_gap_ms)
      g = static_cast<int>(kDeltaMs + 1 + rng.next_below(500));
    for (int i = 0; i < kFamilies; ++i) s.order[i] = i;
    for (int i = kFamilies - 1; i > 0; --i)
      std::swap(s.order[i], s.order[rng.next_below(static_cast<std::uint64_t>(i + 1))]);
  }
  return out;
}

using App = core::OverhaulSystem::AppHandle;

struct Desk {
  std::unique_ptr<core::OverhaulSystem> sys;
  bool wl = false;
  App a, b, v, spy;
  int pty_master = -1;
  std::string pty_slave;
  std::shared_ptr<kern::PosixMq> pmq;
  std::shared_ptr<kern::SysvMq> smq;
  std::unique_ptr<Oracle> oracle;
  double alerts_seen = 0;
  std::uint64_t forged_minted = 0;
};

bool boot_desk(Desk& d, bool overhaul, bool wl, LayerCounts* lc) {
  core::OverhaulConfig cfg =
      overhaul ? core::OverhaulConfig{} : core::OverhaulConfig::baseline();
  cfg.trace = false;
  cfg.display_backend = wl ? core::DisplayBackendKind::kWayland
                           : core::DisplayBackendKind::kX11;
  d.wl = wl;
  d.oracle = std::make_unique<Oracle>(overhaul, kDeltaMs * 1'000'000);
  const std::int64_t t0 = now_ns();
  d.sys = std::make_unique<core::OverhaulSystem>(cfg);
  if (lc != nullptr) lc->boot_us.push_back((now_ns() - t0) / 1e3);
  d.sys->audit().set_capacity(kAuditCapacity);
  const auto launch = [&](const char* name, display::Rect r, App* out) {
    const std::int64_t t = now_ns();
    auto app = d.sys->launch_gui_app(std::string("/usr/bin/") + name, name, r);
    if (lc != nullptr) lc->launch_app_us.push_back((now_ns() - t) / 1e3);
    if (!app.is_ok()) return false;
    *out = app.value();
    return true;
  };
  if (!launch("editor", {0, 0, 300, 200}, &d.a) ||
      !launch("notes", {320, 0, 300, 200}, &d.b) ||
      !launch("video", {640, 0, 300, 200}, &d.v) ||
      !launch("spy", {0, 500, 200, 150}, &d.spy))
    return false;
  auto& k = d.sys->kernel();
  auto pt = k.sys_openpt(d.v.pid);
  if (!pt.is_ok()) return false;
  d.pty_master = pt.value().first;
  d.pty_slave = pt.value().second;
  auto pmq = k.posix_mqs().open("/session", true, 64);
  auto smq = k.sysv_mqs().get(0x5e55, true);
  if (!pmq.is_ok() || !smq.is_ok()) return false;
  d.pmq = pmq.value();
  d.smq = smq.value();
  return true;
}

void click(Desk& d, int x, int y) {
  Span sp(d.wl ? Kind::kWlInput : Kind::kX11Input);
  d.sys->input().click(x, y);
}

std::int64_t vnow(Desk& d) { return d.sys->clock().now().ns; }

void advance_ms(Desk& d, std::int64_t ms) {
  Span sp(Kind::kSimAdvance);
  d.sys->advance(sim::Duration::millis(ms));
}

// A verdict-bearing status: ok when granted, kBadAccess / kOverhaulDenied
// when denied. Anything else is an error the script did not expect.
bool verdict_ok(const util::Status& s, bool expect_grant) {
  if (expect_grant) return s.is_ok();
  return s.code() == Code::kBadAccess || s.code() == Code::kOverhaulDenied;
}

// Device open + close; the span is named by the verdict.
bool open_device(Desk& d, kern::Pid pid, const std::string& path,
                 bool expect) {
  auto& k = d.sys->kernel();
  util::Result<int> fd = util::Status(Code::kNotFound, "");
  {
    Span sp(Kind::kKernOpenDevice);
    fd = k.sys_open(pid, path, kern::OpenFlags::kRead);
    if (!fd.is_ok()) sp.set_kind(Kind::kKernOpenDenied);
  }
  const bool ok = verdict_ok(fd.status(), expect);
  if (fd.is_ok()) {
    Span sp(Kind::kKernClose);
    (void)k.sys_close(pid, fd.value());
  }
  return ok;
}

bool copy(Desk& d, const App& app) {
  if (d.wl) {
    Span sp(Kind::kWlCopy);
    auto& comp = d.sys->compositor();
    return verdict_ok(comp.data_devices().set_selection(
                          app.client, comp.seat().last_minted(),
                          {"text/plain"}),
                      d.oracle->mediated(app.pid, vnow(d)));
  }
  Span sp(Kind::kX11Copy);
  return verdict_ok(d.sys->xserver().selections().set_selection_owner(
                        app.client, "CLIPBOARD", app.window),
                    d.oracle->mediated(app.pid, vnow(d)));
}

// Full paste round trip into `to`; on a grant the owner `from` answers with
// `payload` and the received bytes must equal it.
bool paste(Desk& d, const App& from, const App& to, const std::string& payload) {
  const bool expect = d.oracle->mediated(to.pid, vnow(d));
  if (d.wl) {
    Span sp(Kind::kWlReceive);
    auto& data = d.sys->compositor().data_devices();
    const util::Status s = data.request_receive(to.client, "text/plain");
    if (!s.is_ok()) return verdict_ok(s, expect);
    wl::WlConnection* owner = d.sys->compositor().connection(from.client);
    while (owner->has_events()) {
      const wl::WlEvent ev = owner->next_event();
      if (ev.type == wl::WlEventType::kDataSendRequest)
        (void)data.source_send(from.client, ev.mime, payload);
    }
    auto got = data.take_received(to.client, "text/plain");
    return expect && got.is_ok() && got.value() == payload;
  }
  Span sp(Kind::kX11Paste);
  auto& x = d.sys->xserver();
  auto& sel = x.selections();
  const util::Status s =
      sel.convert_selection(to.client, "CLIPBOARD", to.window, "P");
  if (!s.is_ok()) return verdict_ok(s, expect);
  x11::XClient* owner = x.client(from.client);
  while (owner->has_events()) {
    const x11::XEvent ev = owner->next_event();
    if (ev.type != x11::EventType::kSelectionRequest) continue;
    (void)sel.change_property(from.client, ev.requestor, ev.property, payload);
    x11::XEvent notify;
    notify.type = x11::EventType::kSelectionNotify;
    notify.selection = ev.selection;
    notify.property = ev.property;
    (void)x.send_event(from.client, ev.requestor, notify);
  }
  x.client(to.client)->drain();
  auto got = sel.get_property(to.client, to.window, "P");
  (void)sel.delete_property(to.client, to.window, "P");
  return expect && got.is_ok() && got.value() == payload;
}

// A capture of another app's window: mediated on both backends.
bool capture_foreign(Desk& d, const App& app, const App& target) {
  const bool expect = d.oracle->mediated(app.pid, vnow(d));
  if (d.wl) {
    Span sp(Kind::kWlScreencopy);
    return verdict_ok(d.sys->compositor()
                          .screencopy()
                          .capture_surface(app.client, target.window)
                          .status(),
                      expect);
  }
  Span sp(Kind::kX11GetImage);
  return verdict_ok(
      d.sys->xserver().screen().get_image(app.client, target.window).status(),
      expect);
}

bool capture_own(Desk& d, const App& app) {
  util::Result<display::Image> img = util::Status(Code::kNotFound, "");
  if (d.wl) {
    Span sp(Kind::kWlScreencopy);
    img = d.sys->compositor().screencopy().capture_surface(app.client,
                                                           app.window);
  } else {
    Span sp(Kind::kX11GetImage);
    img = d.sys->xserver().screen().get_image(app.client, app.window);
  }
  return img.is_ok() && img.value().width == 300 && img.value().height == 200;
}

bool check(Desk& d, kern::Pid pid, Op op) {
  const bool expect = d.oracle->direct(pid, vnow(d));
  util::Decision dec;
  {
    Span sp(Kind::kKernCheck);
    dec = d.sys->kernel().monitor().check_now(pid, op, "session");
  }
  return (dec == util::Decision::kGrant) == expect;
}

// Forged input from the spyware's connection. Returns the interaction
// notifications it minted (must be 0).
std::uint64_t forge(Desk& d, std::uint64_t session, Tally& t) {
  if (d.wl) {
    auto& comp = d.sys->compositor();
    const std::uint64_t before = comp.stats().interaction_notifications;
    Span sp(Kind::kWlForged);
    const auto bogus =
        static_cast<wl::Serial>(0x40000000u + (session & 0xffffu));
    t.check(verdict_ok(
        comp.data_devices().set_selection(d.spy.client, bogus, {"text/plain"}),
        d.oracle->mediated(d.spy.pid, vnow(d))));
    return comp.stats().interaction_notifications - before;
  }
  auto& x = d.sys->xserver();
  const std::uint64_t before = x.stats().interaction_notifications;
  Span sp(Kind::kX11Forged);
  x11::XEvent ev;
  ev.type = x11::EventType::kButtonPress;
  ev.x = 150;
  ev.y = 100;
  (void)x.send_event(d.spy.client, d.a.window, ev);
  t.check(x.xtest_fake_button(d.spy.client, 150, 100).is_ok());
  t.check(x.xtest_fake_key(d.spy.client, kKeycode).is_ok());
  return x.stats().interaction_notifications - before;
}

bool readback(Desk& d) {
  auto& k = d.sys->kernel();
  bool ok = true;
  {
    Span sp(Kind::kObsMetricsRead);
    auto text = k.sys_proc_read(d.v.pid, "/proc/overhaul/metrics");
    ok = text.is_ok() && !text.value().empty();
  }
  {
    Span sp(Kind::kAuditReadback);
    const kern::Pid pid = d.a.pid;
    const auto mine = d.sys->audit().filter(
        [pid](const util::AuditRecord& r) { return r.pid == pid; });
    const std::vector<std::uint8_t> bytes =
        audit::snapshot(d.sys->audit().ring());
    audit::Reader reader;
    std::string error;
    // The decoded snapshot must hold what the live ring holds, and agree
    // with the live filter on the editor's records.
    ok = ok && reader.load(bytes, &error) &&
         reader.size() == d.sys->audit().size() &&
         reader.total_appended() == d.sys->audit().total_appended() &&
         reader.filter([pid](const audit::BinRecord& r) { return r.pid == pid; })
                 .size() == mine.size();
  }
  {
    Span sp(Kind::kDisplayDrain);
    auto& overlay = d.sys->display().alert_overlay();
    d.alerts_seen += static_cast<double>(overlay.shown_count());
    overlay.clear_history();
  }
  return ok;
}

// One session on `d`; returns the mediated ops it ran. Grant-latency
// samples (click or key → first op it enables) go to `grants` when given.
double run_session(Desk& d, const SessionScript& sc, const std::string& spied,
                   std::uint64_t id, Tally& t, Reservoir* grants) {
  Oracle& o = *d.oracle;
  auto& k = d.sys->kernel();
  const std::uint64_t before = t.attempted;
  const std::string mic = core::OverhaulSystem::mic_path();
  const std::string cam = core::OverhaulSystem::camera_path();
  // Host clock reads for grant samples only when they are being kept.
  const auto stamp = [&] { return grants != nullptr ? now_ns() : 0; };
  const auto sample = [&](std::int64_t t0, bool granted) {
    if (grants != nullptr && granted) grants->add((now_ns() - t0) / 1e3);
  };

  // Click + copy in the editor, then a typing burst and a direct check.
  std::int64_t t0 = stamp();
  click(d, 150, 100);
  o.input(d.a.pid, vnow(d));
  bool ok = copy(d, d.a);
  t.check(ok);
  sample(t0, ok && o.mediated(d.a.pid, vnow(d)));
  for (int i = 0; i < sc.keys; ++i) {
    advance_ms(d, sc.key_gap_ms[i]);
    t0 = stamp();
    Span sp(d.wl ? Kind::kWlInput : Kind::kX11Input);
    d.sys->input().key(kKeycode);
    o.input(d.a.pid, vnow(d));
  }
  ok = check(d, d.a.pid, Op::kMicrophone);
  t.check(ok);
  sample(t0, ok && o.direct(d.a.pid, vnow(d)));

  // Click + paste into the notes app.
  t0 = stamp();
  click(d, 470, 100);
  o.input(d.b.pid, vnow(d));
  ok = paste(d, d.a, d.b, sc.paste);
  t.check(ok);
  sample(t0, ok);

  // Mic and camera with gaps on both sides of δ.
  t0 = stamp();
  click(d, 790, 100);
  o.input(d.v.pid, vnow(d));
  advance_ms(d, sc.mic_gap_ms);
  bool expect = o.mediated(d.v.pid, vnow(d));
  ok = open_device(d, d.v.pid, mic, expect);
  t.check(ok);
  sample(t0, ok && expect);
  advance_ms(d, sc.cam_gap_ms);
  t.check(open_device(d, d.v.pid, cam, o.mediated(d.v.pid, vnow(d))));
  t.check(capture_own(d, d.v));

  // P1: a CLI child forked right after a click; its mic open is granted
  // through the fork.
  int pipe_fds[2] = {-1, -1}, sock_fds[2] = {-1, -1};
  {
    Span sp(Kind::kKernIpcSetup);
    auto p = k.sys_pipe(d.v.pid);
    auto s = k.sys_socketpair(d.v.pid);
    t.check(p.is_ok() && s.is_ok());
    if (p.is_ok()) pipe_fds[0] = p.value().first, pipe_fds[1] = p.value().second;
    if (s.is_ok()) sock_fds[0] = s.value().first, sock_fds[1] = s.value().second;
  }
  t0 = stamp();
  click(d, 790, 100);
  o.input(d.v.pid, vnow(d));
  util::Result<kern::Pid> child = util::Status(Code::kNotFound, "");
  {
    Span sp(Kind::kKernFork);
    child = k.sys_fork(d.v.pid);
  }
  t.check(child.is_ok());
  if (!child.is_ok()) return static_cast<double>(t.attempted - before);
  const kern::Pid c = child.value();
  o.fork(d.v.pid, c);
  expect = o.mediated(c, vnow(d));
  ok = open_device(d, c, mic, expect);
  t.check(ok);
  sample(t0, ok && expect);
  int slave_fd = -1;
  {
    Span sp(Kind::kKernIpcSetup);
    auto fd = k.sys_open(c, d.pty_slave, kern::OpenFlags::kReadWrite);
    t.check(fd.is_ok());
    if (fd.is_ok()) slave_fd = fd.value();
  }

  // P2: per family, let the child go stale (its camera open is denied),
  // click the parent, hand the stamp over, and the child's camera open is
  // granted.
  const std::uint64_t chan_base = id << 3;
  for (int i = 0; i < kFamilies; ++i) {
    const int f = sc.order[i];
    advance_ms(d, sc.stale_gap_ms[i]);
    t.check(open_device(d, c, cam, o.mediated(c, vnow(d))));
    t0 = stamp();
    click(d, 790, 100);
    o.input(d.v.pid, vnow(d));
    const std::uint64_t chan =
        f == kPipe || f == kSocket ? chan_base | static_cast<std::uint64_t>(f)
                                   : 1000u + static_cast<std::uint64_t>(f);
    bool hop = false;
    {
      Span sp(kHopKind[f]);
      kern::TaskStruct* vt = k.processes().lookup(d.v.pid);
      kern::TaskStruct* ct = k.processes().lookup(c);
      switch (f) {
        case kPipe:
          hop = k.sys_write(d.v.pid, pipe_fds[1], "s").is_ok() &&
                k.sys_read(c, pipe_fds[0], 16).is_ok();
          break;
        case kSocket:
          hop = k.sys_write(d.v.pid, sock_fds[0], "s").is_ok() &&
                k.sys_read(c, sock_fds[1], 16).is_ok();
          break;
        case kPty:
          hop = k.sys_write(d.v.pid, d.pty_master, "s\n").is_ok() &&
                k.sys_read(c, slave_fd, 16).is_ok();
          break;
        case kPosixMq:
          hop = d.pmq->send(*vt, "s", 0).is_ok() && d.pmq->receive(*ct).is_ok();
          break;
        case kSysvMq:
          hop = d.smq->send(*vt, 1, "s").is_ok() &&
                d.smq->receive(*ct, 0).is_ok();
          break;
      }
    }
    t.check(hop);
    o.send(chan, d.v.pid);
    o.recv(chan, c);
    expect = o.mediated(c, vnow(d));
    ok = open_device(d, c, cam, expect);
    t.check(ok);
    sample(t0, ok && expect);
  }

  // Spyware: never clicked; mic, clipboard, screen and a direct query.
  t.check(open_device(d, d.spy.pid, mic, o.mediated(d.spy.pid, vnow(d))));
  t.check(paste(d, d.a, d.spy, spied));
  t.check(capture_foreign(d, d.spy, d.a));
  t.check(check(d, d.spy.pid, Op::kScreenCapture));
  d.forged_minted += forge(d, id, t);

  if (id % kReadbackEvery == 0) t.check(readback(d));

  // Tear the child and its per-session channels down.
  {
    Span sp(Kind::kKernExit);
    t.check(k.sys_exit(c).is_ok());
    (void)k.processes().reap(c);
  }
  o.exit(c);
  {
    Span sp(Kind::kKernClose);
    for (int fd : {pipe_fds[0], pipe_fds[1], sock_fds[0], sock_fds[1]})
      if (fd >= 0) (void)k.sys_close(d.v.pid, fd);
  }
  o.close_channel(chan_base | kPipe);
  o.close_channel(chan_base | kSocket);
  {
    Span sp(Kind::kDisplayDrain);
    for (const App* app : {&d.a, &d.b, &d.v, &d.spy}) {
      if (d.wl)
        d.sys->compositor().connection(app->client)->drain();
      else
        d.sys->xserver().client(app->client)->drain();
    }
  }
  return static_cast<double>(t.attempted - before);
}

}  // namespace

RunResult run_desktop_session(const RunOptions& opt) {
  RunResult res;
  LayerCounts lc;
  const std::vector<SessionScript> scripts = make_scripts(opt.seed);
  // What the editor hands over when the spyware's paste is granted (on the
  // baseline systems only).
  const std::string spied(64, 's');

  // desks[backend][0] = Overhaul, desks[backend][1] = baseline.
  Desk desks[2][2];
  std::vector<double> setup_ns;
  constexpr int kSetupReps = 15;  // a set-up is ~1 ms: take many
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const bool last = rep == kSetupReps - 1;
    for (auto& pair : desks)
      for (Desk& d : pair) d = Desk{};
    const std::int64_t t0 = now_ns();
    bool ok = true;
    for (int wl = 0; wl < 2; ++wl) {
      ok = ok && boot_desk(desks[wl][0], true, wl == 1, last ? &lc : nullptr);
      ok = ok && boot_desk(desks[wl][1], false, wl == 1, nullptr);
    }
    setup_ns.push_back(static_cast<double>(now_ns() - t0));
    if (!ok) {
      res.invariants.push_back({"setup", false});
      return res;
    }
  }

  Tally tally;
  for (std::uint64_t i = 0; i < 64; ++i)  // warm-up sessions
    for (auto& pair : desks)
      for (Desk& d : pair)
        (void)run_session(d, scripts[i % kScripts], spied, i, tally, nullptr);

  // About ten grant samples per session: a reservoir keeps the sample
  // buffer (and so peak_rss_mb) independent of how many sessions a run
  // completes.
  Reservoir grant(1 << 18, opt.seed);
  const PairedRun run = run_pairs(
      opt, UINT64_MAX,
      [&](std::uint64_t i, bool) {
        const std::uint64_t id = i + 64;
        const std::int64_t t0 = now_ns();
        const double ops =
            run_session(desks[i % 2][0], scripts[id % kScripts], spied, id,
                        tally, opt.trace ? nullptr : &grant);
        return std::make_pair(ops, now_ns() - t0);
      },
      [&](std::uint64_t i) {
        const std::uint64_t id = i + 64;
        return time_ns([&] {
          (void)run_session(desks[i % 2][1], scripts[id % kScripts], spied,
                            id, tally, nullptr);
        });
      });
  res.attempted = tally.attempted;
  res.failed = tally.failed;

  std::uint64_t minted[2] = {0, 0};
  for (int wl = 0; wl < 2; ++wl)
    for (Desk& d : desks[wl]) minted[wl] += d.forged_minted;
  res.invariants.push_back({"x11_forged_minted_zero", minted[0] == 0});
  res.invariants.push_back({"wl_forged_minted_zero", minted[1] == 0});

  if (opt.trace) {
    for (int wl = 0; wl < 2; ++wl) {
      add_system_counts(*desks[wl][0].sys, lc);
      lc.alerts += desks[wl][0].alerts_seen;
    }
    lc.x11_forged_minted = static_cast<double>(desks[0][0].forged_minted);
    lc.wl_forged_minted = static_cast<double>(desks[1][0].forged_minted);
    res.per_layer = layer_metrics(lc, run.tw);
    return res;
  }
  res.end_to_end = end_to_end_metrics(run, grant.samples(), setup_ns,
                                      "mediated ops on the Overhaul systems");
  for (Metric& m : res.end_to_end)
    if (m.name.rfind("grant_", 0) == 0)
      m.detail += " sampled from " + std::to_string(grant.seen());
  return res;
}

}  // namespace perfbench
