// PageFaultEngine: page-permission interposition for shared-memory IPC.
//
// Paper §IV-B: shared memory "must be handled differently. ... writes and
// reads to these regions are regular memory operations that cannot be
// intercepted above the hardware level. We overcome this obstacle by ...
// revok[ing] read and write permissions for that memory area. This causes
// subsequent accesses ... to generate access violations, which allows
// OVERHAUL to capture the IPC attempt inside the page fault handler. ...
// after every access violation, we put the corresponding vm_area_struct on
// a wait list before its permissions are revoked once again" — wait
// duration 500 ms, chosen "sufficiently shorter than the 2 second
// interaction expiration time".
//
// The simulation models the MMU state per mapping: `armed` means page
// permissions are revoked (the next access faults); after a fault the
// mapping is disarmed and re-armed once the wait elapses (checked lazily
// against the virtual clock — equivalent to the paper's wait-list timer).
// Accesses in the disarmed window skip the propagation protocol; the engine
// can count how many of those *would* have propagated a fresher timestamp,
// which drives the §5 ablation bench (wait duration vs. missed
// propagations).
#pragma once

#include <cstdint>

#include "kern/task.h"
#include "obs/metrics.h"
#include "sim/clock.h"

namespace overhaul::obs {
struct Observability;
}

namespace overhaul::kern {

class ShmSegment;
class ShmMapping;

struct PageFaultConfig {
  // The paper's performance/usability trade-off knob.
  sim::Duration rearm_wait = sim::Duration::millis(500);
  // false = baseline (unmodified kernel): no revocation, no faults.
  bool interpose = true;
  // Ablation instrumentation: count propagation opportunities missed in the
  // disarmed window. Off by default (costs two compares per access).
  bool track_misses = false;
};

class PageFaultEngine {
 public:
  PageFaultEngine(sim::Clock& clock, PageFaultConfig config)
      : clock_(clock), config_(config) {}

  [[nodiscard]] const PageFaultConfig& config() const noexcept {
    return config_;
  }
  void set_config(PageFaultConfig config) noexcept { config_ = config; }

  // Hot path: called on every simulated load/store to a shared mapping.
  // Inline (defined in shared_memory.h once ShmSegment is complete): the
  // disarmed-window case must cost no more than a couple of compares, since
  // in the real system it is literally free (the MMU enforces nothing while
  // permissions are restored).
  inline void on_access(ShmMapping& mapping, TaskStruct& task, bool is_write);

  struct Stats {
    std::uint64_t faults = 0;          // access violations taken
    std::uint64_t fast_accesses = 0;   // disarmed accesses (track_misses only)
    std::uint64_t missed_sends = 0;    // disarmed writes that carried fresher ts
    std::uint64_t missed_recvs = 0;    // disarmed reads that missed fresher ts
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  // Pre-resolves the fault/re-arm counters (`ipc.shm.page_faults`,
  // `ipc.shm.rearms`). Null detaches. Only the fault path and the re-arm
  // transition record; the disarmed fast path stays two compares.
  void attach_obs(obs::Observability* obs);

 private:
  // The access-violation path: propagation protocol + wait-list entry.
  void handle_fault(ShmMapping& mapping, TaskStruct& task, bool is_write);
  // Disarmed-window instrumentation for the ablation bench.
  void note_fast_access(ShmMapping& mapping, TaskStruct& task, bool is_write);

  sim::Clock& clock_;
  PageFaultConfig config_;
  Stats stats_;
  obs::Counter* c_faults_ = nullptr;
  obs::Counter* c_rearms_ = nullptr;
};

}  // namespace overhaul::kern
