// Fixture: the trusted input seam's mint entry point is called only from a
// backend's hardware-input delivery path (R6: mint_interaction is a mint, so
// every caller must be reachable from an r6.source).
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

}  // namespace fixture
