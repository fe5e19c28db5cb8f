# Registers the strat-lint static-analysis pass as tier-1 ctest
# entries, so the determinism / parallel-phase / snapshot contracts are
# checked on every `ctest` run in about a second — long before any
# simulation-level differential test could catch a violation:
#
#   strat_lint       lints src/, bench/, tests/, examples/, tools/
#                    against rules R1-R6 and cross-checks the file
#                    glob against compile_commands.json
#   test_strat_lint  the linter's own unit tests: seeded-violation
#                    fixtures per rule, the clean-tree regression, the
#                    delete-a-save-line R4 demo and the put-back-a-
#                    thread R6 demo
#   test_bench_pairs the paired A/B benchmark runner's statistics
#                    helpers on canned numbers (label `tools`)
#
# Python 3 ships on every CI image and dev box this repo targets; when
# it is genuinely absent the lint tier is skipped with a notice (same
# graceful-skip pattern as the Google Benchmark harnesses) rather than
# failing the configure.

find_package(Python3 COMPONENTS Interpreter)

if(NOT Python3_Interpreter_FOUND)
  message(STATUS "strat-lint: Python3 interpreter not found — lint tier skipped")
  return()
endif()

add_test(NAME strat_lint
  COMMAND Python3::Interpreter
          ${CMAKE_CURRENT_SOURCE_DIR}/tools/strat_lint/strat_lint.py
          --root ${CMAKE_CURRENT_SOURCE_DIR}
          --compile-commands ${CMAKE_BINARY_DIR}/compile_commands.json)

add_test(NAME test_strat_lint
  COMMAND Python3::Interpreter
          ${CMAKE_CURRENT_SOURCE_DIR}/tools/strat_lint/tests/test_strat_lint.py)

set_tests_properties(strat_lint test_strat_lint PROPERTIES
  LABELS "lint"
  TIMEOUT 120)

add_test(NAME test_bench_pairs
  COMMAND Python3::Interpreter
          ${CMAKE_CURRENT_SOURCE_DIR}/scripts/test_bench_pairs.py)

set_tests_properties(test_bench_pairs PROPERTIES
  LABELS "tools"
  TIMEOUT 60)
