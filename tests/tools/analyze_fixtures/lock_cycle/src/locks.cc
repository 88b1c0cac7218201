// Fixture for lpsgd_lint (never compiled): a three-lock acquisition
// cycle (a -> b in TakeAB, b -> c in TakeBC, c -> a in TakeCA) plus a
// self-deadlock where Reenter holds `a` across a call to a helper that
// acquires `a` again.
struct Mutex {
  void Lock();
  void Unlock();
};
struct MutexLock {
  explicit MutexLock(Mutex& mu);
};

Mutex a;
Mutex b;
Mutex c;

void TakeAB() {
  MutexLock la(a);
  MutexLock lb(b);
}

void TakeBC() {
  MutexLock lb(b);
  MutexLock lc(c);
}

void TakeCA() {
  MutexLock lc(c);
  MutexLock la(a);
}

void GrabAAgain() {
  MutexLock inner(a);
}

void Reenter() {
  MutexLock outer(a);
  GrabAAgain();
}
