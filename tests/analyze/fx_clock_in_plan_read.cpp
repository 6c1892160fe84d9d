// MUST FLAG [nondet]: QUECC_PLAN_READ opens the phase rule only. A clock
// read reachable through the plan-read boundary is still nondeterminism
// reachable from a plan-phase root.
//
// Analyzed (never compiled) by tests/analyze via tools/quecc-analyze.
#include <chrono>

#include "common/phase_annotations.hpp"

namespace fx {

inline bool item_check(int key) {
  return key + std::chrono::steady_clock::now().time_since_epoch().count() >
         0;
}

QUECC_PLAN_READ("reads a table no transaction writes")
inline bool run_plan_checks(int key) { return item_check(key); }

PLAN_PHASE void plan_txn(int key) { (void)run_plan_checks(key); }

}  // namespace fx
