// Fixture: CON-IO-CHECKED — persistence-surface I/O whose success
// result is dropped on the floor, next to consumed uses that must stay
// clean (`== 0` conditions, `(void)` annotations, stdout flushes).
#include <cstdio>

namespace uolap::server {

void BadDiscards(std::FILE* f, const char* buf, unsigned long n) {
  std::fwrite(buf, 1, n, f);
  fflush(f);
  std::rename("snap-new.tmp", "snap-new.ckpt");
}

bool GoodUses(std::FILE* f, const char* buf, unsigned long n) {
  if (std::fwrite(buf, 1, n, f) != n) return false;
  const bool flushed = std::fflush(f) == 0;
  (void)std::rename("snap-old.tmp", "snap-old.ckpt");
  std::fflush(stdout);  // diagnostics stream, exempt by design
  return flushed;
}

}  // namespace uolap::server
