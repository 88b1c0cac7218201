// Fixture for lpsgd_lint (never compiled): hot path calling a pure
// helper, consistently ordered locks, and an inspected Status. Every pass
// must come back empty.
struct Mutex {
  void Lock();
  void Unlock();
};
struct MutexLock {
  explicit MutexLock(Mutex& mu);
};
struct Status {
  bool ok() const;
};

Mutex first;
Mutex second;

Status Fallible();

float Accumulate(const float* values, int n) {
  float total = 0.0F;
  for (int i = 0; i < n; ++i) {
    total += values[i];
  }
  return total;
}

LPSGD_HOT_PATH
float HotReduce(const float* values, int n) {
  return Accumulate(values, n);
}

void OrderedOne() {
  MutexLock lf(first);
  MutexLock ls(second);
}

void OrderedTwo() {
  MutexLock lf(first);
  MutexLock ls(second);
}

int Checked() {
  Status s = Fallible();
  return s.ok() ? 1 : 0;
}
