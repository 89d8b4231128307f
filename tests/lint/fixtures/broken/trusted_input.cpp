// Fixture: a replay path that calls the trusted input seam's mint entry
// point directly, outside deliver_input (R6) — each replayed event mints an
// interaction that no hardware input justifies.
#include "fake.h"

namespace fixture {

bool TrustedInput::mint_interaction(const InputEvent& ev) {
  if (!passes_visibility_check(ev)) return false;
  InteractionNote note{ev.receiver, ev.ts};
  return channel_.send_interaction(note).is_ok();
}

void Server::deliver_input(const InputEvent& ev) {
  if (ev.receiver == kNoClient) return;
  (void)input_.mint_interaction(ev);
  enqueue(ev);
}

// BUG: replays recorded events straight into the seam.
void Server::replay(const InputEvent& ev) {
  (void)input_.mint_interaction(ev);
}

}  // namespace fixture
