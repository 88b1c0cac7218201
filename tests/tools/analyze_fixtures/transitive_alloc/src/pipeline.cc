// Fixture for lpsgd_lint (never compiled): an allocation two call hops
// away from an LPSGD_HOT_PATH region. The purity pass must walk
// HotLoop -> Stage1 -> Stage2 and flag the push_back in Stage2.
#include <vector>

void Stage2(std::vector<int>& out) {
  out.push_back(1);
}

void Stage1(std::vector<int>& out) {
  Stage2(out);
}

LPSGD_HOT_PATH
void HotLoop(std::vector<int>& out) {
  Stage1(out);
}
