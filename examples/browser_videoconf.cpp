// Figure 4 walkthrough: a Chromium-style multi-process browser runs a web
// video-conferencing app. The user clicks the *browser*, the *tab* opens
// the camera — the grant travels over shared-memory IPC via the kernel's
// page-fault interposition (policy P2).
#include <cstdio>

#include "apps/browser.h"
#include "core/system.h"

using namespace overhaul;

int main() {
  core::OverhaulSystem sys;
  auto browser = apps::MultiProcessBrowser::launch(sys).value();
  auto tab = browser->open_tab().value();
  std::printf("browser pid=%d, tab pid=%d (separate processes)\n",
              browser->pid(), browser->tab(tab).pid);

  sys.advance(sim::Duration::seconds(30));  // tab has been idle a while

  // Attempt 1: page JavaScript turns the camera on without user input.
  (void)browser->command_start_camera(tab);
  auto s = browser->tab_poll_and_run(tab);
  std::printf("script-initiated camera: %s\n", s.to_string().c_str());

  // Attempt 2: the user clicks the in-page "join call" button. (A couple of
  // seconds pass first — enough for the shm mapping's 500 ms wait window to
  // lapse so the next write faults and carries the fresh stamp.)
  sys.advance(sim::Duration::seconds(2));
  auto [cx, cy] = browser->click_point();
  sys.input().click(cx, cy);
  (void)browser->command_start_camera(tab);
  sys.advance(sim::Duration::millis(20));
  s = browser->tab_poll_and_run(tab);
  std::printf("user-initiated camera:   %s\n", s.to_string().c_str());

  // Show the propagation trail.
  auto& k = sys.kernel();
  const auto* browser_task = k.processes().lookup(browser->pid());
  const auto* tab_task = k.processes().lookup(browser->tab(tab).pid);
  std::printf("\npropagation trail:\n");
  std::printf("  browser interaction_ts = %.3fs\n",
              browser_task->interaction_ts.to_seconds());
  std::printf("  shm channel stamp      = %.3fs\n",
              browser->tab(tab).channel->stamp().to_seconds());
  std::printf("  tab interaction_ts     = %.3fs\n",
              tab_task->interaction_ts.to_seconds());
  std::printf("  page faults taken      = %llu\n",
              static_cast<unsigned long long>(k.page_faults().stats().faults));

  std::printf("\naudit log:\n");
  for (const auto& rec : sys.audit().records()) {
    std::printf("  %s\n", util::format_line(rec).c_str());
  }
  return 0;
}
