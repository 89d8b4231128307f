// FleetHarness: N independent kernel shards behind one virtual clock.
//
// The ROADMAP's north star is thousands of concurrent desktops; this is the
// object that boots them. Every shard is a full per-seat stack (see
// fleet/shard.h); the harness owns the *fleet* clock domain — one
// sim::Clock + sim::Scheduler whose time is the reference frame all shard
// epochs are expressed in — plus the fleet-wide lifecycle (boot/drain/reap,
// staggered boot storms), seed-stable round-robin stepping, cross-shard
// links, and aggregate-on-read metric rollups.
//
// Stepping model: step() advances the fleet clock by one quantum (running
// any scheduled fleet events — boot storms land here), then steps every
// running shard to the new fleet instant in a rotated round-robin order
// drawn from the seeded RNG. The rotation is the seed-stable part: given
// the same FleetConfig::seed, every run visits shards in the same order, so
// fleet-scale runs replay exactly, while no shard is systematically first.
//
// Determinism caveat the rotation exists to expose: shard *results* must
// not depend on step order at all — shards only interact through
// XShardSocketPair stamps, which are order-independent (max of monotone
// timestamps). The cross-shard property test runs fleets with different
// seeds against one oracle to hold this.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "fleet/shard.h"
#include "fleet/xshard_link.h"
#include "sim/clock.h"
#include "sim/parallel.h"
#include "sim/scheduler.h"
#include "util/annotations.h"
#include "util/rng.h"

namespace overhaul::fleet {

// Which display backend(s) the fleet boots. kMixed alternates by shard id
// (even → X11, odd → Wayland) — deterministic and seed-independent, so the
// same shard always gets the same backend across runs.
enum class BackendMix : std::uint8_t { kX11, kWayland, kMixed };

[[nodiscard]] constexpr const char* backend_mix_name(BackendMix m) noexcept {
  switch (m) {
    case BackendMix::kX11: return "x11";
    case BackendMix::kWayland: return "wayland";
    case BackendMix::kMixed: return "mixed";
  }
  return "mixed";
}

struct FleetConfig {
  int shards = 1;
  BackendMix mix = BackendMix::kMixed;
  std::uint64_t seed = 1;
  // Worker lanes for the parallel stepping engine (sim::ParallelExecutor).
  // 1 = serial (everything inline on the calling thread); N steps shards on
  // N lanes with a barrier per quantum. The determinism contract makes this
  // a pure throughput knob: same seed ⇒ bit-identical streams at any value.
  int threads = 1;
  // One fleet step advances this much virtual time.
  sim::Duration step_quantum = sim::Duration::millis(10);
  // Default inter-boot spacing for boot storms.
  sim::Duration boot_stagger = sim::Duration::millis(1);
  // Per-shard config template. display_backend and metrics_prefix are
  // overridden per shard; everything else (δ, coalescing, monitor mode,
  // audit, trace) applies to every seat.
  core::OverhaulConfig base;

  // Lift a single-system config into a fleet: `fleet_shards` becomes the
  // shard count and the configured backend becomes a uniform mix.
  [[nodiscard]] static FleetConfig from(const core::OverhaulConfig& cfg) {
    FleetConfig fc;
    fc.shards = cfg.fleet_shards;
    fc.threads = cfg.fleet_threads;
    fc.mix = cfg.display_backend == core::DisplayBackendKind::kWayland
                 ? BackendMix::kWayland
                 : BackendMix::kX11;
    fc.base = cfg;
    return fc;
  }
};

class FleetHarness {
 public:
  explicit FleetHarness(FleetConfig config);

  FleetHarness(const FleetHarness&) = delete;
  FleetHarness& operator=(const FleetHarness&) = delete;

  [[nodiscard]] const FleetConfig& config() const noexcept { return config_; }
  [[nodiscard]] sim::Clock& clock() noexcept { return clock_; }
  [[nodiscard]] sim::Scheduler& scheduler() noexcept { return scheduler_; }

  // --- lifecycle -------------------------------------------------------------
  // Boot one shard now; its epoch is the current fleet time. Returns the new
  // shard's id (slots are never reused — a reaped slot stays reaped, like a
  // retired pid).
  ShardId boot_shard();

  // Boot config.shards shards immediately (epoch = current fleet time).
  void boot_fleet();

  // Schedule `count` boots on the fleet scheduler, one every `stagger` —
  // the boot-storm shape. They fire as step()/advance() reaches them.
  void schedule_boot_storm(int count, sim::Duration stagger);

  // Exit every session on the shard and stop accepting new ones.
  util::Status drain_shard(ShardId id);

  // Release a drained shard: destroys its whole per-seat stack and severs
  // any cross-shard links bound to it. Fails with kBusy unless drained.
  util::Status reap_shard(ShardId id);

  [[nodiscard]] ShardState shard_state(ShardId id) const;
  // Valid only while shard_state(id) is kRunning or kDraining.
  [[nodiscard]] Shard& shard(ShardId id) { return *seats_[id].shard; }
  [[nodiscard]] int shard_count() const noexcept {
    return static_cast<int>(seats_.size());
  }
  [[nodiscard]] int live_count() const;

  // --- stepping --------------------------------------------------------------
  // Advance the fleet clock one quantum (firing due fleet events) and draw
  // this step's rotated shard order. Benchmarks that time per-shard steps
  // call this, then step_shard() for each id in step_order().
  void begin_step();
  [[nodiscard]] const std::vector<ShardId>& step_order() const noexcept {
    return order_;
  }
  // Bring one shard up to the current fleet instant.
  void step_shard(ShardId id);

  // One full fleet quantum on the parallel engine: begin_step() (fleet
  // events + rotation draw, coordinator-only), then the rotation stepped
  // across the executor's lanes with cross-shard link sends deferred, then
  // the barrier drain of every link's outboxes in link-table order. With
  // threads == 1 every lane runs inline on the caller's thread — that *is*
  // the serial path, so parallel-vs-serial equivalence is a property of the
  // deferral semantics, not of a separate code path. Callers driving
  // begin_step()/step_shard() by hand (per-shard timing in bench_fleet,
  // single-shard tests) keep immediate link delivery: deferral is armed
  // only inside step().
  void step();

  [[nodiscard]] int threads() const noexcept { return exec_.workers(); }

  // Whole steps until at least `d` of fleet time has elapsed.
  void advance(sim::Duration d);

  // --- cross-shard links -----------------------------------------------------
  // Connect pid_a (living in shard a) to pid_b (in shard b) with a P2-
  // propagating socket pair. The returned reference lives until one of the
  // bound shards is reaped.
  XShardLink& connect_xshard(ShardId a, kern::Pid pid_a, ShardId b,
                             kern::Pid pid_b);
  [[nodiscard]] std::size_t link_count() const noexcept {
    return links_.size();
  }
  // Valid while i < link_count(); indices shift when a reap severs links.
  [[nodiscard]] XShardLink& link(std::size_t i) { return *links_[i]; }

  // --- aggregate-on-read rollups --------------------------------------------
  // Sum of `name` (un-prefixed, e.g. "monitor.decisions.granted") across
  // every live shard's registry. The per-shard prefixes make this collision-
  // free; reads walk shard registries, the hot path never pays for it.
  [[nodiscard]] std::uint64_t aggregate_counter(const std::string& name);

  // Sum of every live shard's slab, audit-ring and drawn-pixel bytes
  // (peak-RSS proxy).
  [[nodiscard]] std::size_t rss_proxy_bytes();

  [[nodiscard]] std::uint64_t steps_taken() const noexcept { return steps_; }

 private:
  // Arm/disarm link deferral and drain outboxes around a parallel quantum.
  void begin_exchange();
  void end_exchange();

  OVERHAUL_SHARD_LOCAL FleetConfig config_;
  OVERHAUL_SHARD_LOCAL sim::Clock clock_;
  OVERHAUL_SHARD_LOCAL sim::Scheduler scheduler_{clock_};
  OVERHAUL_SHARD_LOCAL util::Rng rng_;
  // The worker pool is coordinator-owned; shard state crossing lanes is
  // governed by the shards' own OVERHAUL_SHARD_LOCAL contracts and the
  // links' barrier deferral, not by executor-level sharing.
  OVERHAUL_SHARD_LOCAL sim::ParallelExecutor exec_{config_.threads};

  struct Seat {
    std::unique_ptr<Shard> shard;
    ShardState state = ShardState::kEmpty;
  };
  // The seat table and link table are the harness's cross-shard mutation
  // surfaces: every write happens inside the named lifecycle accessors.
  OVERHAUL_SHARED(boot_shard|drain_shard|reap_shard) std::vector<Seat> seats_;
  OVERHAUL_SHARED(connect_xshard|reap_shard)
  std::vector<std::unique_ptr<XShardLink>> links_;

  // Stepping machinery: single-owner, touched only by begin_step/step.
  OVERHAUL_SHARD_LOCAL std::vector<ShardId> order_;
  OVERHAUL_SHARD_LOCAL std::uint64_t steps_ = 0;
};

}  // namespace overhaul::fleet
