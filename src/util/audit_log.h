// Audit vocabulary for Overhaul policy decisions.
//
// The paper relies on Overhaul's logs in two evaluation sections: §V-C uses
// them to verify clipboard decisions without visual alerts, and §V-D inspects
// them after the 21-day deployment ("We checked OVERHAUL's logs and verified
// that attempts to access the protected resources were detected and
// blocked"). The log itself is the binary decision ring behind audit::Sink
// (DESIGN.md §16); this header holds the shared vocabulary — the mediated
// operations, the decision, the decoded record view — and the one line
// formatter every reader renders records through.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace overhaul::util {

// The privileged operations Overhaul mediates (paper §III-C:
// op ∈ {copy, paste, scr, mic, cam}; we also log device opens generically).
enum class Op : std::uint8_t {
  kCopy,
  kPaste,
  kScreenCapture,
  kMicrophone,
  kCamera,
  kDeviceOther,  // a protected device that is neither mic nor cam
};

// Number of mediated operations; sized for dense per-Op arrays (the ACG
// grant table in TaskStruct indexes by static_cast<size_t>(op)).
inline constexpr std::size_t kOpCount =
    static_cast<std::size_t>(Op::kDeviceOther) + 1;

std::string_view op_name(Op op) noexcept;

enum class Decision : std::uint8_t { kGrant, kDeny };

// One decision with its strings resolved — the decoded view of an
// audit::BinRecord.
struct AuditRecord {
  std::int64_t time_ns = 0;   // virtual time of the decision
  int pid = -1;               // requesting process
  std::string comm;           // process name, if known
  Op op = Op::kDeviceOther;
  Decision decision = Decision::kDeny;
  std::int64_t interaction_age_ns = -1;  // now - last interaction; -1 = never
  std::string detail;                    // device path, selection atom, ...
};

// Renders one record as a single log line:
//   [    1.500000s] pid=100    testapp      op=mic   DENY  age=0.250s /dev/snd/mic0
// `comm` and `detail` come from untrusted clients (a selection name, a
// process name, a snapshot file), so every byte of them outside 0x20–0x7E,
// and every '\', is printed as \xNN: a record is always exactly one line,
// shown in full.
std::string format_line(const AuditRecord& record);

}  // namespace overhaul::util
