#include "util/audit_log.h"

#include <cstdio>

namespace overhaul::util {

namespace {

void append_escaped(std::string* out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    if (c >= 0x20 && c <= 0x7E && c != '\\') {
      out->push_back(ch);
    } else {
      const char esc[] = {'\\', 'x', kHex[c >> 4], kHex[c & 0xF]};
      out->append(esc, sizeof(esc));
    }
  }
}

}  // namespace

std::string_view op_name(Op op) noexcept {
  switch (op) {
    case Op::kCopy: return "copy";
    case Op::kPaste: return "paste";
    case Op::kScreenCapture: return "scr";
    case Op::kMicrophone: return "mic";
    case Op::kCamera: return "cam";
    case Op::kDeviceOther: return "dev";
  }
  return "?";
}

std::string format_line(const AuditRecord& record) {
  // The numeric fields are bounded by their types (an int64 of ns is at most
  // 20 digits as seconds), so 64 bytes never truncates them; the two client
  // strings are appended unbounded.
  char num[64];
  std::string out;
  out.reserve(80 + record.comm.size() + record.detail.size());
  std::snprintf(num, sizeof(num), "[%12.6fs] pid=%-6d ",
                static_cast<double>(record.time_ns) / 1e9, record.pid);
  out += num;
  const std::size_t comm_start = out.size();
  append_escaped(&out, record.comm);
  if (const std::size_t width = out.size() - comm_start; width < 12)
    out.append(12 - width, ' ');
  const std::string_view op = op_name(record.op);
  std::snprintf(num, sizeof(num), " op=%-5.*s %-5s age=%.3fs ",
                static_cast<int>(op.size()), op.data(),
                record.decision == Decision::kGrant ? "GRANT" : "DENY",
                record.interaction_age_ns < 0
                    ? -1.0
                    : static_cast<double>(record.interaction_age_ns) / 1e9);
  out += num;
  append_escaped(&out, record.detail);
  return out;
}

}  // namespace overhaul::util
