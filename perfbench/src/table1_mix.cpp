// table1_mix: the paper's Table I on one X11 seat, in Table I's
// configuration (grant-always, audit off, trace off), paired block by block
// against an unmodified (OverhaulConfig::baseline()) seat.
//
// One block runs all five rows. The per-row counts make each row roughly a
// fifth of the block at the per-op costs measured on a 4-vCPU Xeon VM
// (RelWithDebInfo): about 350 µs per root capture, 18 µs per 256 KiB
// paste, 3.6 µs per device open, 0.1 µs per chained shm write and 0.8 µs
// per file create.
#include <memory>
#include <string>
#include <vector>

#include "spans.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

using namespace overhaul;

namespace {

constexpr int kCaptures = 1;
constexpr int kPastes = 20;
constexpr int kOpens = 100;
constexpr int kOpensPerClick = 10;  // a hardware click before every 10th open
constexpr int kShmWrites = 3500;
constexpr int kShmBatch = 50;  // must divide kShmWrites; see ledger.cpp
constexpr int kCreates = 500;
constexpr double kBlockOps =
    kCaptures + kPastes + kOpens + kShmWrites + kCreates;
constexpr std::size_t kPayload = 256 * 1024;
constexpr std::size_t kShmPages = 10'000;
constexpr std::size_t kShmSlots = kShmPages * 4096 / 8;
// Each block creates kCreates names drawn from this pool, so one run's VFS
// hashing covers many names rather than one seed's 500.
constexpr std::size_t kFilePool = 1 << 15;

struct Script {
  std::string payload;
  std::uint64_t cursor_seed = 0;  // start of each block's shm write chain
  std::vector<std::string> files;
};

Script make_script(std::uint64_t seed) {
  util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 11);
  Script s;
  s.payload.resize(kPayload);
  for (char& c : s.payload)
    c = static_cast<char>('a' + rng.next_below(26));
  s.cursor_seed = rng.next_u64();
  for (std::size_t i = 0; i < kFilePool; ++i)
    s.files.push_back("/tmp/t1-" + std::to_string(rng.next_below(1u << 30)) +
                      "-" + std::to_string(i));
  return s;
}

struct Seat {
  std::unique_ptr<core::OverhaulSystem> sys;
  core::OverhaulSystem::AppHandle src, dst, dev;
  kern::Pid worker = kern::kNoPid;
  std::shared_ptr<kern::ShmMapping> map;
};

bool boot_seat(Seat& s, bool overhaul, LayerCounts* lc) {
  core::OverhaulConfig cfg = overhaul ? core::OverhaulConfig::grant_always()
                                      : core::OverhaulConfig::baseline();
  cfg.audit = false;
  cfg.trace = false;
  const std::int64_t t0 = now_ns();
  s.sys = std::make_unique<core::OverhaulSystem>(cfg);
  if (lc != nullptr) lc->boot_us.push_back((now_ns() - t0) / 1e3);
  const auto launch = [&](const char* name, display::Rect r,
                          core::OverhaulSystem::AppHandle* out) {
    const std::int64_t t = now_ns();
    auto app = s.sys->launch_gui_app(std::string("/usr/bin/") + name, name, r);
    if (lc != nullptr) lc->launch_app_us.push_back((now_ns() - t) / 1e3);
    if (!app.is_ok()) return false;
    *out = app.value();
    return true;
  };
  if (!launch("src", {0, 0, 300, 200}, &s.src) ||
      !launch("dst", {320, 0, 300, 200}, &s.dst) ||
      !launch("dev", {640, 0, 300, 200}, &s.dev))
    return false;
  auto worker = s.sys->launch_daemon("/usr/bin/t1", "t1");
  if (!worker.is_ok()) return false;
  s.worker = worker.value();
  auto& k = s.sys->kernel();
  auto seg = k.posix_shms().open("/t1", true, kShmPages * kern::kPageSize);
  if (!seg.is_ok()) return false;
  auto map = k.sys_mmap_shared(s.worker, seg.value());
  if (!map.is_ok()) return false;
  s.map = map.value();
  return s.sys->xserver()
      .selections()
      .set_selection_owner(s.src.client, "CLIPBOARD", s.src.window)
      .is_ok();
}

// One paste round trip: ConvertSelection, the owner's SelectionRequest
// answer (ChangeProperty + SelectionNotify), then the requestor's
// GetProperty/DeleteProperty.
bool paste_once(Seat& s, const std::string& payload, bool full_compare) {
  auto& x = s.sys->xserver();
  auto& sel = x.selections();
  if (!sel.convert_selection(s.dst.client, "CLIPBOARD", s.dst.window, "P")
           .is_ok())
    return false;
  x11::XClient* owner = x.client(s.src.client);
  while (owner->has_events()) {
    const x11::XEvent ev = owner->next_event();
    if (ev.type != x11::EventType::kSelectionRequest) continue;
    (void)sel.change_property(s.src.client, ev.requestor, ev.property,
                              payload);
    x11::XEvent notify;
    notify.type = x11::EventType::kSelectionNotify;
    notify.selection = ev.selection;
    notify.property = ev.property;
    (void)x.send_event(s.src.client, ev.requestor, notify);
  }
  x.client(s.dst.client)->drain();
  auto got = sel.get_property(s.dst.client, s.dst.window, "P");
  (void)sel.delete_property(s.dst.client, s.dst.window, "P");
  if (!got.is_ok()) return false;
  const std::string& v = got.value();
  if (v.size() != payload.size()) return false;
  return full_compare ? v == payload
                      : v.front() == payload.front() && v.back() == payload.back();
}

// Runs one block on `s`; returns its host time. Every kOpensPerClick-th
// device open follows a hardware click into the dev window; those
// click→open times are the grant-latency samples (when `grant_us` is set).
std::int64_t run_block(Seat& s, const Script& sc, std::uint64_t block,
                       Tally& t, std::vector<double>* grant_us,
                       std::vector<std::uint64_t>& chain_ends) {
  auto& k = s.sys->kernel();
  auto& x = s.sys->xserver();
  kern::TaskStruct* worker = k.processes().lookup(s.worker);
  const std::string mic = core::OverhaulSystem::mic_path();
  const std::int64_t t0 = now_ns();

  for (int i = 0; i < kOpens; ++i) {
    const bool click = i % kOpensPerClick == 0;
    const std::int64_t c0 = click ? now_ns() : 0;
    if (click) {
      Span sp(Kind::kX11Input);
      s.sys->input().click(700, 100);
    }
    util::Result<int> fd = util::Status(util::Code::kNotFound, "");
    {
      Span sp(Kind::kKernOpenDevice);
      fd = k.sys_open(s.dev.pid, mic, kern::OpenFlags::kRead);
    }
    if (click && grant_us != nullptr)
      grant_us->push_back((now_ns() - c0) / 1e3);
    t.check(fd.is_ok());
    if (fd.is_ok()) {
      Span sp(Kind::kKernClose);
      (void)k.sys_close(s.dev.pid, fd.value());
    }
  }
  for (int i = 0; i < kPastes; ++i) {
    Span sp(Kind::kX11Paste);
    t.check(paste_once(s, sc.payload, i == 0));
  }
  for (int i = 0; i < kCaptures; ++i) {
    Span sp(Kind::kX11GetImage);
    auto img = x.screen().get_image(s.src.client, x11::kRootWindow);
    t.check(img.is_ok() &&
            img.value().width == s.sys->config().screen_width &&
            img.value().pixels.size() ==
                static_cast<std::size_t>(s.sys->config().screen_width) *
                    static_cast<std::size_t>(s.sys->config().screen_height));
  }
  // Dependency-chained random writes over the 10,000-page segment, as in
  // bench_table1: each write's slot comes from the value read before it, so
  // every write pays real memory latency. One span per kShmBatch writes: a
  // single write is too short to carry its own span.
  std::uint64_t cursor = sc.cursor_seed ^ (block * 0x9e3779b97f4a7c15ULL);
  for (int i = 0; i < kShmWrites; i += kShmBatch) {
    Span sp(Kind::kKernShmWrite);
    for (int j = i; j < i + kShmBatch; ++j) {
      const std::size_t off = static_cast<std::size_t>(cursor % kShmSlots) * 8;
      cursor = s.map->read_u64(*worker, off) + static_cast<std::uint64_t>(j);
      s.map->write_u64(*worker, off, cursor);
    }
  }
  const std::size_t first_file = (block * kCreates) % kFilePool;
  for (int i = 0; i < kCreates; ++i) {
    Span sp(Kind::kKernFsCreate);
    auto fd = k.sys_open(
        s.worker,
        sc.files[(first_file + static_cast<std::size_t>(i)) % kFilePool],
        kern::OpenFlags::kCreate);
    t.check(fd.is_ok());
    if (fd.is_ok()) (void)k.sys_close(s.worker, fd.value());
  }
  const std::int64_t elapsed = now_ns() - t0;

  // Outside the timed block: the chain's end must match the other seat's
  // (both segments see the same writes), the created files are dropped so
  // the namespace does not grow, and input events are drained.
  if (chain_ends.size() <= block) chain_ends.resize(block + 1);
  chain_ends[block] = cursor;
  t.attempted += kShmWrites;
  for (int i = 0; i < kCreates; ++i)
    (void)k.sys_unlink(
        s.worker,
        sc.files[(first_file + static_cast<std::size_t>(i)) % kFilePool]);
  x.client(s.dev.client)->drain();
  return elapsed;
}

}  // namespace

RunResult run_table1_mix(const RunOptions& opt) {
  RunResult res;
  LayerCounts lc;
  const Script sc = make_script(opt.seed);

  Seat over, base;
  std::vector<double> setup_ns;
  constexpr int kSetupReps = 5;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    over = Seat{};
    base = Seat{};
    const bool last = rep == kSetupReps - 1;
    const std::int64_t t0 = now_ns();
    const bool ok = boot_seat(over, true, last ? &lc : nullptr) &&
                    boot_seat(base, false, nullptr);
    setup_ns.push_back(static_cast<double>(now_ns() - t0));
    if (!ok) {
      res.invariants.push_back({"setup", false});
      return res;
    }
  }

  Tally tally;
  std::vector<std::uint64_t> over_ends, base_ends;
  // Warm-up pairs: first-touch page faults, allocator growth, caches.
  for (int i = 0; i < 4; ++i) {
    (void)run_block(over, sc, i, tally, nullptr, over_ends);
    (void)run_block(base, sc, i, tally, nullptr, base_ends);
  }

  std::vector<double> grant;
  const PairedRun run = run_pairs(
      opt, UINT64_MAX,
      [&](std::uint64_t i, bool) {
        const std::int64_t ns = run_block(
            over, sc, i + 4, tally, opt.trace ? nullptr : &grant, over_ends);
        return std::make_pair(kBlockOps, ns);
      },
      [&](std::uint64_t i) {
        return run_block(base, sc, i + 4, tally, nullptr, base_ends);
      });
  // Both seats' shm segments see the same write chains, so each block's
  // chain must end on the same value on both.
  for (std::size_t b = 0; b < over_ends.size(); ++b)
    if (b >= base_ends.size() || over_ends[b] != base_ends[b])
      tally.failed += kShmWrites;
  res.attempted = tally.attempted;
  res.failed = tally.failed;

  if (opt.trace) {
    add_system_counts(*over.sys, lc);
    res.per_layer = layer_metrics(lc, run.tw);
    return res;
  }
  res.end_to_end = end_to_end_metrics(run, grant, setup_ns,
                                      "Table I ops on the Overhaul seat");
  return res;
}

}  // namespace perfbench
