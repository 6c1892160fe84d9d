// MUST PASS: a plan-phase function runs fragment logic through a
// QUECC_PLAN_READ("why") boundary — the audited plan-phase storage read.
// The logic reaches an exec-phase row accessor by name (as workload logic
// reaches core::executor::read_row), but the phase rule does not enter the
// boundary, so nothing is flagged.
//
// Analyzed (never compiled) by tests/analyze via tools/quecc-analyze.
#include "common/phase_annotations.hpp"

namespace fx {

EXEC_PHASE int read_row(int key) { return key; }

// Fragment logic: shared by execution and the plan-time check.
inline bool item_check(int key) { return read_row(key) >= 0; }

QUECC_PLAN_READ("reads a table no transaction writes")
inline bool run_plan_checks(int key) { return item_check(key); }

PLAN_PHASE void plan_txn(int key) { (void)run_plan_checks(key); }

}  // namespace fx
