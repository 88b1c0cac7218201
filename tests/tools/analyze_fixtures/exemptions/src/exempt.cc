// Fixture for lpsgd_lint (never compiled): LPSGD_HOT_CALLEE_OK both in
// its valid form (ColdLog allocates but is exempted, so no finding) and in
// its stale form (NeverCalled is not reachable from any hot region, so the
// annotation itself must be flagged).
#include <string>
#include <vector>

void ColdLog(std::vector<int>& sink) {
  sink.push_back(1);
}

LPSGD_HOT_CALLEE_OK(ColdLog);  // cold error path only
LPSGD_HOT_CALLEE_OK(NeverCalled);  // stale: nothing hot reaches it

LPSGD_HOT_PATH
void HotStep(std::vector<int>& sink, bool error) {
  if (error) {
    ColdLog(sink);
  }
}
