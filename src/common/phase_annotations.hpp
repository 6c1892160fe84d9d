// Determinism contract as code: pipeline-phase and nondeterminism
// annotations, checked by tools/quecc-analyze.
//
// QueCC's correctness story — command-log recovery (src/log/), bit-identical
// pipeline depths (core/stage_driver), and planned-batch replication —
// rests on one contract: *execution is a deterministic function of the
// planned batch*. These macros make the contract a static property instead of a
// probabilistic end-to-end one:
//
//   PLAN_PHASE / EXEC_PHASE / EPILOGUE_PHASE
//       Tag a function as belonging to one of the three per-batch stages
//       (paper Figure 1: planning -> execution -> commit epilogue). Every
//       tagged function is a *determinism root*: code reachable from it
//       must not call the banned nondeterministic APIs (clocks, random
//       sources, environment reads — see tools/quecc-analyze BANNED).
//       Phase tags also encode the PR 4 pipeline rule: at depth >= 2 the
//       planning stage overlaps the previous batch's execution, so
//       plan-phase code must never reach exec- or epilogue-phase functions
//       (e.g. the index mutators) — and exec-phase code must never reach
//       plan- or epilogue-phase functions. The epilogue may reuse
//       exec-phase helpers (speculative recovery re-executes fragments).
//
//   REPLAY_ENTRY
//       A determinism root with no phase-ordering restrictions: recovery
//       replay drives all three phases in sequence from one call.
//
//   QUECC_NONDET("why")
//       The audited escape hatch. Marks a function as an intentional
//       nondeterminism boundary (stats clocks, group-commit timers,
//       admission deadlines): the analyzer does not traverse into it and
//       does not flag its banned calls. The string must say why the
//       nondeterminism cannot leak into planned batches, replayed state,
//       or serialized output. Keep these rare and leaf-like — every one
//       is a hole in the static proof.
//
//   QUECC_PLAN_READ("why")
//       The audited plan-phase storage read. Marks the one planner function
//       that runs fragment logic while planning (abort checks over tables no
//       transaction writes, see core/planner.hpp). Fragment logic reaches
//       the executor's row accessors by name, so the phase rule treats the
//       function as opaque; the nondet rule still traverses it. The string
//       must say why the reads cannot race with the execution they may
//       overlap.
//
//   QUECC_UNORDERED_OK("why")
//       Suppresses only the ordered-output-hygiene rule (range-for over an
//       unordered container in determinism-relevant code) for a whole
//       function whose iteration order provably cannot reach output. For a
//       single loop, prefer a `// quecc-ok(unordered): why` line comment.
//
// Under Clang the macros expand to [[clang::annotate]] so the contract is
// visible to libclang (tools/quecc-analyze --frontend=clang, the CI mode).
// Elsewhere they expand to nothing; the analyzer's built-in text frontend
// reads the macro tokens straight from the source, so the contract is
// checked even on toolchains without clang (scripts/lint.sh, ctest).
#pragma once

#if defined(__clang__)
#define QUECC_PHASE_ANNOTATE_(tag) [[clang::annotate(tag)]]
#else
#define QUECC_PHASE_ANNOTATE_(tag)
#endif

#define PLAN_PHASE QUECC_PHASE_ANNOTATE_("quecc::phase::plan")
#define EXEC_PHASE QUECC_PHASE_ANNOTATE_("quecc::phase::exec")
#define EPILOGUE_PHASE QUECC_PHASE_ANNOTATE_("quecc::phase::epilogue")
#define REPLAY_ENTRY QUECC_PHASE_ANNOTATE_("quecc::phase::replay")
#define QUECC_NONDET(why) QUECC_PHASE_ANNOTATE_("quecc::nondet: " why)
#define QUECC_PLAN_READ(why) QUECC_PHASE_ANNOTATE_("quecc::plan-read: " why)
#define QUECC_UNORDERED_OK(why) \
  QUECC_PHASE_ANNOTATE_("quecc::unordered-ok: " why)
