// audit_dump: decoder CLI for binary audit snapshots (DESIGN.md §16).
//
// Reads a snapshot produced by audit::write_snapshot_file (header + string
// table + 64-byte records, CRC-checked), validates it, and renders each
// record through util::format_line — the formatter live readers use, so
// the cross-backend differential oracle and the xshard single-kernel oracle
// can diff audit_dump output exactly as they diff live audit streams. The
// snapshot's strings are outside input: the formatter escapes every
// non-printable byte, so each record prints as exactly one line.
//
// Usage:
//   audit_dump SNAPSHOT            # one formatted line per record
//   audit_dump --stats SNAPSHOT    # totals only (records, grants, denials,
//                                  # lifetime appended/dropped)
//   audit_dump --deny SNAPSHOT     # only denied decisions
//
// Exit 0 on a valid snapshot; 1 on a corrupt/truncated/unsupported one
// (the validation failure is printed to stderr); 2 on usage errors.
#include <cstdio>
#include <cstring>
#include <string>

#include "audit/snapshot.h"
#include "util/audit_log.h"

namespace {

int usage() {
  std::fprintf(stderr, "usage: audit_dump [--stats] [--deny] SNAPSHOT\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool stats_only = false;
  bool deny_only = false;
  const char* path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--stats") == 0) {
      stats_only = true;
    } else if (std::strcmp(argv[i], "--deny") == 0) {
      deny_only = true;
    } else if (argv[i][0] == '-') {
      return usage();
    } else if (path == nullptr) {
      path = argv[i];
    } else {
      return usage();
    }
  }
  if (path == nullptr) return usage();

  overhaul::audit::Reader reader;
  std::string error;
  if (!reader.load_file(path, &error)) {
    std::fprintf(stderr, "audit_dump: %s: %s\n", path, error.c_str());
    return 1;
  }

  using overhaul::util::Decision;
  if (stats_only) {
    std::printf("records   %zu\n", reader.size());
    std::printf("grants    %zu\n", reader.count(Decision::kGrant));
    std::printf("denials   %zu\n", reader.count(Decision::kDeny));
    std::printf("appended  %llu\n",
                static_cast<unsigned long long>(reader.total_appended()));
    std::printf("dropped   %llu\n",
                static_cast<unsigned long long>(reader.dropped()));
    return 0;
  }

  for (const overhaul::audit::BinRecord& rec : reader.records()) {
    if (deny_only &&
        rec.decision != static_cast<std::uint8_t>(Decision::kDeny))
      continue;
    const overhaul::util::AuditRecord decoded = overhaul::audit::decode(
        rec, reader.string_at(rec.comm_id), reader.string_at(rec.detail_id));
    std::printf("%s\n", overhaul::util::format_line(decoded).c_str());
  }
  return 0;
}
