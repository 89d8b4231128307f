#include <string>

#include "workloads.h"

namespace perfbench {

void add_system_counts(overhaul::core::OverhaulSystem& sys, LayerCounts& c) {
  const auto& m = sys.obs().metrics;
  const auto v = [&](const char* name) {
    return static_cast<double>(m.counter_value(name));
  };
  c.granted += v("monitor.decisions.granted");
  c.denied += v("monitor.decisions.denied");
  c.netlink_notifications += v("netlink.msg.interactions");
  c.netlink_merged += v("netlink.coalesce.merged");
  c.input_notifications_sent +=
      v("x11.input.notifications") + v("wl.input.notifications");
  for (const char* fam :
       {"pipe", "fifo", "msgq", "socket", "shm", "pty", "xshard"})
    c.ipc_adoptions += v(("ipc." + std::string(fam) + ".recv_adoptions").c_str());
  c.shm_faults += v("ipc.shm.page_faults");
  c.alerts += static_cast<double>(sys.display().alert_overlay().shown_count());
  c.audit_appends += static_cast<double>(sys.audit().total_appended());
  c.audit_ring_bytes += static_cast<double>(sys.audit().memory_bytes());
}

}  // namespace perfbench
