// Fixture for lpsgd_lint (never compiled): Status values that are
// overwritten or scope-exited without inspection (two findings), plus a
// retry loop whose per-iteration assignment IS inspected (no finding).
struct Status {
  bool ok() const;
};

Status Fallible();
Status Another();

void Dropped() {
  Status s = Fallible();
  s = Another();
  if (!s.ok()) {
    return;
  }
}

void ScopeExit() {
  Status s = Fallible();
}

int Retry() {
  Status s;
  for (int i = 0; i < 3; ++i) {
    s = Fallible();
    if (s.ok()) {
      break;
    }
  }
  return s.ok() ? 1 : 0;
}
