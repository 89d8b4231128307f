// Table I regeneration: performance overhead of Overhaul.
//
// The paper's five rows, each run on the baseline (unmodified kernel + X
// server) and on Overhaul in the Table-I measurement configuration (full
// decision path, grant-always, so no scripted user is needed):
//   Device Access   — open+close the microphone node N times
//   Clipboard       — N ICCCM paste round-trips (paste is the worst case)
//   Screen Capture  — N GetImage captures of the root window
//   Shared Memory   — N 8-byte random writes over a 10,000-page segment
//   Filesystem      — Bonnie++-style create/stat/delete of 102,400 files
//                     (only create is affected; stat/delete not interposed)
//
// Iteration counts are scaled down from the paper (which used 10M opens /
// 100k pastes / 10G writes on real hardware); the *ratio* between the two
// columns is the reproduced quantity, not the absolute seconds.
//
// Each row is one bench::sample over two arms, baseline and Overhaul, each
// on its own long-lived system: the per-round ratio's 95 % interval is what
// bench_gate holds against tools/bench_baseline.json.
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>

#include "bench_report.h"
#include "core/system.h"
#include "sampler.h"
#include "util/rng.h"

using namespace overhaul;

namespace {

using bench::Arm;
using bench::time_seconds;
using bench::timed;

// --backend=wl reruns the display-server-dependent rows (Clipboard, Screen
// Capture) against the Wayland compositor instead of the X server; the
// kernel-side rows are backend-independent and are skipped in that mode.
core::DisplayBackendKind g_backend = core::DisplayBackendKind::kX11;

const char* backend_tag() {
  return g_backend == core::DisplayBackendKind::kWayland ? "wl" : "x11";
}

// --quick (check.sh --bench) divides these by 20 (captures by 5).
int kDeviceOpens = 100'000;
int kPastes = 20'000;
int kCaptures = 500;
int kShmWrites = 10'000'000;
constexpr int kShmPages = 10'000;
int kBonnieFiles = 102'400;
// Real clipboard payloads are kilobytes (rich text, images); the transfer
// cost is what the permission query is amortized against.
constexpr std::size_t kClipboardPayload = 256 * 1024;

volatile std::uint64_t benchmarkish_sink = 0;

std::shared_ptr<core::OverhaulSystem> bench_system(bool enabled) {
  core::OverhaulConfig cfg = enabled ? core::OverhaulConfig::grant_always()
                                     : core::OverhaulConfig::baseline();
  cfg.display_backend = g_backend;
  cfg.audit = false;  // tight loops; the log would dominate memory
  cfg.trace = false;  // spans allocate; counters alone stay on
  return std::make_shared<core::OverhaulSystem>(cfg);
}

// --- workloads ---------------------------------------------------------------
//
// Each returns one arm: a system built once, and a call that times the
// row's loop on it. The sampler's untimed warm-up call fills the freshly
// built system's maps, heap and queues before any timed round.

Arm device_access(bool enabled) {
  auto sys = bench_system(enabled);
  const kern::Pid pid = sys->launch_gui_app("/usr/bin/bench", "bench")
                            .value()
                            .pid;
  return timed(kDeviceOpens, [sys, pid] {
    auto& k = sys->kernel();
    for (int i = 0; i < kDeviceOpens; ++i) {
      auto fd = k.sys_open(pid, core::OverhaulSystem::mic_path(),
                           kern::OpenFlags::kRead);
      (void)k.sys_close(pid, fd.value());
    }
  });
}

Arm clipboard(bool enabled) {
  auto sys = bench_system(enabled);
  auto src = sys->launch_gui_app("/usr/bin/src", "src").value();
  auto dst = sys->launch_gui_app("/usr/bin/dst", "dst",
                                 x11::Rect{300, 0, 200, 200}).value();
  auto payload = std::make_shared<const std::string>(kClipboardPayload, 'x');
  if (g_backend == core::DisplayBackendKind::kWayland) {
    // Owner established once; the wl_data_offer.receive round-trip (request
    // → source send → take) is the measured op, as convert_selection is on
    // X11. The monitor is in grant-always mode, so every receive pays the
    // full mediation path.
    auto& comp = sys->compositor();
    (void)comp.data_devices().set_selection(
        src.client, comp.seat().last_minted(), {"text/plain"});
    return timed(kPastes, [sys, src, dst, payload] {
      auto& comp = sys->compositor();
      auto& data = comp.data_devices();
      for (int i = 0; i < kPastes; ++i) {
        (void)data.request_receive(dst.client, "text/plain");
        wl::WlConnection* owner = comp.connection(src.client);
        while (owner->has_events()) {
          const wl::WlEvent ev = owner->next_event();
          if (ev.type != wl::WlEventType::kDataSendRequest) continue;
          (void)data.source_send(src.client, ev.mime, *payload);
        }
        (void)data.take_received(dst.client, "text/plain");
      }
    });
  }
  // Owner established once; the benchmark measures pastes (the costly op).
  (void)sys->xserver().selections().set_selection_owner(
      src.client, "CLIPBOARD", src.window);
  return timed(kPastes, [sys, src, dst, payload] {
    auto& x = sys->xserver();
    auto& sel = x.selections();
    for (int i = 0; i < kPastes; ++i) {
      (void)sel.convert_selection(dst.client, "CLIPBOARD", dst.window, "P");
      // Owner answers the SelectionRequest.
      x11::XClient* owner = x.client(src.client);
      while (owner->has_events()) {
        const x11::XEvent ev = owner->next_event();
        if (ev.type != x11::EventType::kSelectionRequest) continue;
        (void)sel.change_property(src.client, ev.requestor, ev.property,
                                  *payload);
        x11::XEvent notify;
        notify.type = x11::EventType::kSelectionNotify;
        notify.selection = ev.selection;
        notify.property = ev.property;
        (void)x.send_event(src.client, ev.requestor, notify);
      }
      x.client(dst.client)->drain();
      (void)sel.get_property(dst.client, dst.window, "P");
      (void)sel.delete_property(dst.client, dst.window, "P");
    }
  });
}

Arm screen_capture(bool enabled) {
  auto sys = bench_system(enabled);
  const std::uint32_t client =
      sys->launch_gui_app("/usr/bin/shot", "shot").value().client;
  return timed(kCaptures, [sys, client] {
    for (int i = 0; i < kCaptures; ++i) {
      auto img = g_backend == core::DisplayBackendKind::kWayland
                     ? sys->compositor().screencopy().capture_output(client)
                     : sys->xserver().screen().get_image(client,
                                                         x11::kRootWindow);
      benchmarkish_sink = benchmarkish_sink + img.value().pixels[0];
    }
  });
}

// Shared memory: both arms run against the SAME segment (identical memory
// layout), differing only in the vm_area state — a null engine is the
// unmodified kernel (permissions never revoked), the real engine is
// Overhaul's interposition. Dependency-chained random access makes every
// iteration pay true memory latency, as the paper's random-write workload
// does on hardware.
bench::Sample shared_memory() {
  auto sys = bench_system(true);
  auto& k = sys->kernel();
  auto pid = sys->launch_daemon("/usr/bin/w", "w").value();
  auto seg = k.posix_shms()
                 .open("/bench", true, kShmPages * kern::kPageSize)
                 .value();
  auto* task = k.processes().lookup(pid);
  kern::ShmMapping base_map(seg, nullptr, pid);
  kern::ShmMapping over_map(seg, &k.page_faults(), pid);

  const std::size_t slots = (kShmPages * kern::kPageSize) / 8;
  util::Rng rng(7);
  for (std::size_t i = 0; i < slots; ++i)
    base_map.write_u64(*task, i * 8, rng.next_u64());
  const auto chain = [&](kern::ShmMapping& map) {
    std::uint64_t cursor = 12345;
    for (int i = 0; i < kShmWrites; ++i) {
      const std::size_t slot = static_cast<std::size_t>(cursor) % slots;
      cursor = map.read_u64(*task, slot * 8) + static_cast<std::uint64_t>(i);
      map.write_u64(*task, slot * 8, cursor);
    }
    benchmarkish_sink = benchmarkish_sink + cursor;
  };
  return bench::sample({timed(kShmWrites, [&] { chain(base_map); }),
                        timed(kShmWrites, [&] { chain(over_map); })});
}

// Bonnie++-style create/stat/delete of kBonnieFiles files: every call runs
// the whole cycle, from and back to an empty namespace, and times one phase.
enum class BonniePhase { kCreate, kStat, kDelete };

Arm bonnie(bool enabled, BonniePhase timed_phase) {
  auto sys = bench_system(enabled);
  const kern::Pid pid = sys->launch_daemon("/usr/bin/bonnie", "bonnie").value();
  return {static_cast<double>(kBonnieFiles), [sys, pid, timed_phase] {
            auto& k = sys->kernel();
            const auto file = [](int i) {
              return "/tmp/f" + std::to_string(i);
            };
            const std::function<void()> phases[] = {
                [&] {
                  for (int i = 0; i < kBonnieFiles; ++i) {
                    auto fd =
                        k.sys_open(pid, file(i), kern::OpenFlags::kCreate);
                    (void)k.sys_close(pid, fd.value());
                  }
                },
                [&] {
                  for (int i = 0; i < kBonnieFiles; ++i)
                    (void)k.sys_stat(file(i));
                },
                [&] {
                  for (int i = 0; i < kBonnieFiles; ++i)
                    (void)k.sys_unlink(pid, file(i));
                },
            };
            double sec = 0;
            for (int p = 0; p < 3; ++p) {
              if (p == static_cast<int>(timed_phase)) {
                sec = time_seconds(phases[p]);
              } else {
                phases[p]();
              }
            }
            return sec;
          }};
}

template <typename MakeArm>
bench::Sample row(MakeArm make) {
  return bench::sample({make(false), make(true)});
}

// Prints one row and adds it to the report as three flat keys: the gated
// ratio and each arm's ns/op.
void emit_row(bench::JsonReport* report, const char* name,
              const std::string& slug, const bench::Sample& s) {
  const bench::Estimate& r = s.ratio[1];
  std::printf("%-16s %10.1f ns %10.1f ns %8.2f %% [%+.2f, %+.2f] n=%zu\n",
              name, s.ns_per_op[0].median, s.ns_per_op[1].median,
              (r.median - 1) * 100, (r.lo - 1) * 100, (r.hi - 1) * 100, r.n);
  report->add(slug + "_ratio", r);
  report->add(slug + "_baseline_ns", s.ns_per_op[0]);
  report->add(slug + "_overhaul_ns", s.ns_per_op[1]);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--backend=wl") == 0 ||
               std::strcmp(argv[i], "--backend=wayland") == 0) {
      g_backend = core::DisplayBackendKind::kWayland;
    } else if (std::strcmp(argv[i], "--backend=x11") == 0) {
      g_backend = core::DisplayBackendKind::kX11;
    } else {
      std::fprintf(stderr,
                   "usage: bench_table1 [--quick] [--backend=x11|wl]\n");
      return 2;
    }
  }
  const bool wl_mode = g_backend == core::DisplayBackendKind::kWayland;
  if (quick) {
    kDeviceOpens /= 20;
    kPastes /= 20;
    kCaptures /= 5;
    kShmWrites /= 20;
    kBonnieFiles /= 20;
    std::printf("(--quick: iteration counts divided by 20, captures by 5)\n");
  }
  std::printf("Table I: performance overhead of OVERHAUL (backend: %s)\n",
              backend_tag());
  std::printf("(monitor in grant-always mode, exercising the full decision "
              "path; counts scaled from the paper)\n\n");
  if (wl_mode)
    std::printf("(--backend=wl: display-server rows only — the kernel-side "
                "rows are backend-independent)\n\n");
  std::printf("%-16s %13s %13s %10s %18s\n", "Benchmarks", "Baseline",
              "OVERHAUL", "Overhead", "95% CI");

  bench::JsonReport report("table1");
  report.add_raw("quick", quick ? "true" : "false");
  report.add("backend", backend_tag());
  if (!wl_mode)
    emit_row(&report, "Device Access", "device_access", row(device_access));
  emit_row(&report, "Clipboard", "clipboard", row(clipboard));
  emit_row(&report, "Screen Capture", "screen_capture", row(screen_capture));
  if (!wl_mode) {
    emit_row(&report, "Shared Memory", "shared_memory", shared_memory());
    const auto phase = [](BonniePhase p) {
      return [p](bool enabled) { return bonnie(enabled, p); };
    };
    emit_row(&report, "Bonnie++ create", "bonnie_create",
             row(phase(BonniePhase::kCreate)));
    emit_row(&report, "  (stat, no hook)", "bonnie_stat",
             row(phase(BonniePhase::kStat)));
    emit_row(&report, "  (delete)", "bonnie_delete",
             row(phase(BonniePhase::kDelete)));
  }
  // The wl run keeps its own trajectory file so a following x11 run (or
  // vice versa) does not clobber it.
  (void)report.write(wl_mode ? "BENCH_table1_wl.json" : "BENCH_table1.json");

  if (wl_mode) {
    std::printf("\nNo paper column for Wayland — the reproduced claim is the "
                "cross-backend one: the same\nmediation (and so the same "
                "near-zero overhead shape) holds behind either display "
                "protocol.\n");
    return 0;
  }
  std::printf("\nPaper's measured column for comparison: 2.17%% / 2.96%% / "
              "2.34%% / 0.63%% / 0.11%%\n");
  std::printf("Expected shape: every row within low single digits of zero — "
              "the paper's \"no discernible\noverhead\" claim. On this "
              "substrate the added per-op cost (a timestamp compare + a\n"
              "netlink query / page-state check) sits at or below the "
              "machine's noise floor, so\nmedians may come out slightly "
              "negative; see bench_micro for isolated per-mechanism costs.\n");
  return 0;
}
